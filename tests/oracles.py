"""Reference values used as independent oracles in tests.

The closed forms are written directly from the printed formulas with
numpy arithmetic, separate from the package's catalog implementations, so
the constructive solvers and the catalog transcriptions are both checked
against a second route.  ``solve_complex_nested`` is a second route to
the complex fixed point, built from the public norm interface only.  The
``*_loop`` functions are the one-direction-at-a-time references for the
batched radius estimates and Minkowski probe.  ``point_guard`` is the
point guard of ``MetricEvaluator.rows`` at one point, in Python floats.
``f_at`` and ``p_at`` read F and P (exact on a construction, numeric on
a closed form) at one point from a one-row batch of
``MetricEvaluator.rows``; ``_p_numeric`` is the numeric P from F alone.
``solve_real_scalar``, ``solve_complex_scalar`` and ``constructed_fp``
are the one-point references for the solves and metric builders on rows;
``solve_complex_picard`` is the complex solve on rows without its secant
steps.  ``geodesic_coefficients_general`` is the geodesic spray
from the metric tensor of the jet, the general form that P y^i
specializes.  ``format_norm`` writes a norm back as the descriptor
``parse_norms`` reads.  ``point_values_composed``,
``flag_curvature_composed`` and ``berwald_composed`` are the point checks
of ``verify`` as separate calls, one per field group (F, P, or both) and
stencil, against which their one-call forms are checked bit for bit.
``hessian_points``, ``gradient_points`` and ``stencil_pairs`` build the
finite-difference stencils point by point, vector by vector, and
``hessian_from``, ``gradient_from`` and ``jet_from`` read them one point
at a time: the references for the offset tables and column reads of
``verify``.  ``altered``, ``perturbed`` and ``failing_checks``
build and run the negative controls of a constructed metric.
``BENCHMARK_CONSTRUCTIONS`` names the benchmark's four constructions.
"""

import dataclasses
import math

import numpy as np

from projflat import (CombinedNorm, DomainError, DoubleSqrtNorm,
                      EuclideanNorm, HomogeneousFunction, RandersNorm,
                      ScaledNorm, SolveResult, SolverConfig, SolverError,
                      SpecParseError, ZeroNorm, as_evaluator, catalog_entry)
from projflat.cli import CHECK_NAMES, DEFAULT_TOLERANCES, _run_check
from projflat.construct import NON_FINITE, P_OVERFLOWS, error_free, first_errors, raise_first
from projflat.norms import combine
from projflat.sampling import unit_directions
from projflat.solver import BRACKET_EXPANSION, RADIUS_DIRECTIONS, _Rows
from projflat.norms import as_rows, lengths
from projflat.verify import (MINKOWSKI_EIG_FLOOR, STEP_FIRST, STEP_SECOND, _mixed_times_y,
                             convexity_residual, jet, make_report)

_REFINE_FLOOR = 4.0 * float(np.finfo(float).eps)
BENCHMARK_CONSTRUCTIONS = ("construct:0:euclidean:randers:0.2,0.1",
                           "construct:-1:euclidean:scaled:0.3", "construct:1:bryant:0.5236",
                           "construct:1:dsr-b:1,1:dsr-a:1,1")


def _d(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x @ x), float(y @ y), float(x @ y)


def space_form(lam, x, y):
    xx, yy, xy = _d(x, y)
    return np.sqrt(yy + lam * (xx * yy - xy**2)) / (1.0 + lam * xx)


def funk(x, y):
    xx, yy, xy = _d(x, y)
    return (np.sqrt((1.0 - xx) * yy + xy**2) + xy) / (1.0 - xx)


def berwald(x, y):
    xx, yy, xy = _d(x, y)
    z = np.sqrt((1.0 - xx) * yy + xy**2)
    return (z + xy) ** 2 / ((1.0 - xx) ** 2 * z)


def bryant_abcd(alpha, x, y):
    xx, yy, xy = _d(x, y)
    b = yy * np.cos(2 * alpha) + xx * yy - xy**2
    a = b**2 + (yy * np.sin(2 * alpha)) ** 2
    c = xy * np.sin(2 * alpha)
    d = xx**2 + 2 * xx * np.cos(2 * alpha) + 1.0
    return float(np.sqrt((np.sqrt(a) + b) / (2 * d) + (c / d) ** 2) + c / d)


def double_sqrt_metric(n, x, y):
    """Two-block double-square-root closed form (first block size n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x1, x2 = x[:n], x[n:]
    y1, y2 = y[:n], y[n:]
    a = 1.0 + x1 @ x1 - 1j * (x2 @ x2)
    b = x1 @ y1 - 1j * (x2 @ y2)
    c = y1 @ y1 - 1j * (y2 @ y2)
    return float(((-b + 1j * np.sqrt(c * a - b * b)) / a).imag)


def root_scaled(a, x, y):
    """The closed root of t = a |y + x t|."""
    if a == 0.0:
        return 0.0
    xx, yy, xy = _d(x, y)
    denom = 1.0 - a * a * xx
    rad = a * a * (1.0 - a * a * xx) * yy + a**4 * xy**2
    return (a * a * xy + np.sign(a) * np.sqrt(rad)) / denom


def sph_k0(c, branch, x, y):
    xx, yy, xy = _d(x, y)
    z = np.sqrt((1.0 - c * c * xx) * yy + c * c * xy**2)
    return yy**2 / (z * (c * xy + branch * z) ** 2)


def sph_kneg1(c, x, y):
    return 0.5 * (root_scaled(c + 1.0, x, y) - root_scaled(c - 1.0, x, y))


def sph_kpos1(c, x, y):
    xx, yy, xy = _d(x, y)
    b2 = complex(c, 1.0) ** 2
    denom = 1.0 - b2 * xx
    root = np.sqrt(b2 * (1.0 - b2 * xx) * yy + b2 * b2 * xy**2)
    vals = [(b2 * xy + s * root) / denom for s in (1.0, -1.0)]
    vals = [v for v in vals if v.imag > 0.0]
    assert len(vals) == 1
    return float(vals[0].imag)


def kneg1_unit_pair_display(x, y):
    """Two-term closed form for the psi = phi = |y| curvature -1 metric
    (half of Phi_+ with Phi_+ = 2 |y + x Phi_+|)."""
    xx, yy, xy = _d(x, y)
    return (2.0 * xy + np.sqrt((1.0 - 4.0 * xx) * yy + 4.0 * xy**2)) / (1.0 - 4.0 * xx)


def zhou_two_term(d1, d2, sign, x, y):
    xx, yy, xy = _d(x, y)
    total = 0.0
    for s, ns in ((sign, -1.0), (-sign, 1.0)):
        a = 2.0 * d2 + s * 4.0 * d1**2 - xx
        total += (np.sqrt(a * yy + xy**2) + ns * xy) / a
    return 0.5 * total


def solve_complex_nested(phi, psi, x, y, cfg=None):
    """Independent route to the complex fixed point Z = (phi + i psi)(y + x Z):
    for each imaginary part s, solve the real part t(s) as a scalar root by
    bisection, then close s with an outer scalar root.  Cross-checks the
    fixed-point iteration of ``projflat.solve_complex``."""
    cfg = cfg or SolverConfig()
    floor = 4.0 * float(np.finfo(float).eps)
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)

    def pair(w):
        if not w.any():
            return 0j
        return complex(phi.eval_complex(w) + 1j * psi.eval_complex(w))

    def g(t, s):
        return pair(y + x * (t + 1j * s))

    def bracket(fn, center, what):
        width = max(1.0, abs(center))
        lo, hi = center - width, center + width
        rounds = 0
        while fn(lo) > 0.0 or fn(hi) < 0.0:
            rounds += 1
            if rounds > 80:
                raise SolverError(f"{what} bracket expansion failed")
            width *= BRACKET_EXPANSION
            lo, hi = center - width, center + width
        return lo, hi

    def bisect(fn, lo, hi):
        iterations = 0
        for _ in range(90):
            iterations += 1
            mid = 0.5 * (lo + hi)
            if fn(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= floor * (1.0 + abs(mid)):
                break
        return 0.5 * (lo + hi), iterations

    z0 = pair(y)

    def t_of(s):
        def f(t):
            return t - g(t, s).real
        return bisect(f, *bracket(f, z0.real, "inner"))[0]

    def h(s):
        return s - g(t_of(s), s).imag

    s, iterations = bisect(h, *bracket(h, z0.imag, "outer"))
    t = t_of(s)
    z = complex(t, s)
    residual = abs(z - g(t, s))
    if residual > cfg.tolerance * 10.0:
        raise SolverError(f"nested solve residual {residual:.3e} above tolerance")
    return SolveResult(value=z, eta=y + x * z, residual=float(residual),
                       iterations=iterations, errors=[None])


# ---------------------------------------------------------------------------
# the list-built finite-difference stencils, the reference for verify's
# offset tables: each point is built vector by vector as v + e or v - e


def axis_step(v, k, step):
    """Zeros shaped like ``v`` with ``step`` in component k (one step per
    row for rows)."""
    e = np.zeros(v.shape)
    e[..., k] = step
    return e


def hessian_points(v, step) -> list:
    """The points of a central-difference Hessian, in the order
    ``hessian_from`` reads their values: ``v``, the ``gradient_points``
    ``v +- e_i``, then ``v +- e_i +- e_j`` for each pair i < j (e_k is
    ``step`` along component k)."""
    n = v.shape[-1]
    points = [v] + gradient_points(v, step)
    for i in range(n):
        ei = axis_step(v, i, step)
        for j in range(i + 1, n):
            ej = axis_step(v, j, step)
            points += [v + ei + ej, v + ei - ej, v - ei + ej, v - ei - ej]
    return points


def hessian_from(values, step, n):
    """The symmetric central-difference Hessian from the values at
    ``hessian_points``: ``(n, n)``, or ``(N, n, n)`` for rows."""
    values = iter(values)
    f0 = next(values)
    step_sq = step * step
    h = np.zeros(np.shape(f0) + (n, n))
    for i in range(n):
        h[..., i, i] = (next(values) - 2.0 * f0 + next(values)) / step_sq
    for i in range(n):
        for j in range(i + 1, n):
            hij = (next(values) - next(values) - next(values) + next(values)) / (4.0 * step_sq)
            h[..., i, j] = hij
            h[..., j, i] = hij
    return h


def gradient_points(v, step) -> list:
    """The points of a central-difference gradient: ``v + e_k`` and
    ``v - e_k`` for each k, e_k being ``step`` along component k (one step
    per row for rows)."""
    points = []
    for k in range(v.shape[-1]):
        e = axis_step(v, k, step)
        points += [v + e, v - e]
    return points


def gradient_from(values, step):
    """Central differences from the values at ``gradient_points``, in the
    values' dtype, so complex fields keep their imaginary parts."""
    values = list(values)
    return np.stack([(values[2 * k] - values[2 * k + 1]) / (2.0 * step)
                     for k in range(len(values) // 2)], axis=-1)


def jet_pairs(xs, ys, hx, hy, hx2, hy2) -> list:
    """The jet's stencil points [(X_m, Y_m)] at each row of (xs, ys):
    (x, y), the gradients in x and in y, the mixed corners
    (x +- e_l, y +- e_k), then the Hessian in y."""
    n = xs.shape[1]
    pairs = [(xs, ys)]
    pairs += [(p, ys) for p in gradient_points(xs, hx)]
    pairs += [(xs, p) for p in gradient_points(ys, hy)]
    for l in range(n):
        el = axis_step(xs, l, hx2)
        for k in range(n):
            ek = axis_step(ys, k, hy2)
            pairs += [(xs + el, ys + ek), (xs + el, ys - ek),
                      (xs - el, ys + ek), (xs - el, ys - ek)]
    return pairs + [(xs, p) for p in hessian_points(ys, hy2)]


def jet_from(values, steps, n):
    """The jet's (value, grad_x, grad_y, mixed_xy, hess_yy) in n dimensions
    from F at the points of ``jet_pairs``, one array per point, read one
    point at a time."""
    hx, hy, hx2, hy2 = steps
    values = iter(values)
    f0 = next(values)
    grad_x = gradient_from([next(values) for _ in range(2 * n)], hx)
    grad_y = gradient_from([next(values) for _ in range(2 * n)], hy)
    mixed = np.zeros((len(f0), n, n))
    for l in range(n):
        for k in range(n):
            mixed[:, l, k] = (next(values) - next(values) - next(values) + next(values)
                              ) / (4.0 * hx2 * hy2)
    hess = hessian_from(values, hy2, n)
    return f0, grad_x, grad_y, mixed, 0.5 * (hess + hess.swapaxes(-1, -2))


def p_pairs(xs, ys, hx, hy) -> list:
    """(x, y), then the gradient points in x and in y."""
    return ([(xs, ys)] + [(p, ys) for p in gradient_points(xs, hx)]
            + [(xs, p) for p in gradient_points(ys, hy)])


def stencil_pairs(stencil, xs, ys, x_steps, y_steps) -> list:
    """The points of one of verify's stencils, built vector by vector, with
    the step arrays of each side as ``verify._stencil`` takes them."""
    if stencil == "jet":
        return jet_pairs(xs, ys, *x_steps[:1], *y_steps[:1], x_steps[1], y_steps[1])
    if stencil == "berwald":
        (hx, hx2), (hy, hy2) = x_steps, y_steps
        return (jet_pairs(xs, ys, hx, hy, hx2, hy2) + p_pairs(xs, ys, hx2, hy2)
                + [(xs, p) for p in gradient_points(ys, hy2)])
    if stencil == "pde":
        return p_pairs(xs, ys, x_steps[0], y_steps[0])
    if stencil == "convexity":
        return [(xs, ys)] + [(xs, p) for p in hessian_points(ys, y_steps[0])]
    return [(xs, p) for p in hessian_points(ys, y_steps[0])]  # "hessian"


def fd_gradient(fun, v, step):
    """Central-difference gradient of a scalar function of one vector, one
    ``fun`` call per stencil point of ``gradient_points``."""
    v = np.asarray(v, dtype=float)
    return gradient_from([fun(p) for p in gradient_points(v, step)], step)


def fd_hessian_loop(fun, v, step):
    """Central-difference Hessian of a scalar function at one point."""
    v = np.asarray(v, dtype=float)
    n = v.size
    h = np.zeros((n, n))
    f0 = fun(v)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        h[i, i] = (fun(v + ei) - 2.0 * f0 + fun(v - ei)) / (step * step)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            hij = (fun(v + ei + ej) - fun(v + ei - ej)
                   - fun(v - ei + ej) + fun(v - ei - ej)) / (4.0 * (step * step))
            h[i, j] = hij
            h[j, i] = hij
    return h


def radius_estimate_loop(phi):
    """1 / (2 max |grad phi(u)|) with one scalar gradient call per direction."""
    worst = 0.0
    for u in unit_directions(phi.dimension, RADIUS_DIRECTIONS):
        worst = max(worst, float(np.linalg.norm(phi.grad_real(u))))
    return np.inf if worst == 0.0 else 1.0 / (2.0 * worst)


def pair_radius_estimate_loop(phi, psi):
    """The pair radius with scalar gradient calls per direction."""
    worst = 0.0
    for u in unit_directions(phi.dimension, RADIUS_DIRECTIONS):
        worst = max(worst, float(np.hypot(np.linalg.norm(phi.grad_real(u)),
                                          np.linalg.norm(psi.grad_real(u)))))
    return np.inf if worst == 0.0 else 1.0 / (2.0 * worst)


def check_minkowski_loop(f, samples, eig_floor=MINKOWSKI_EIG_FLOOR):
    """Minkowski probe with one scalar Hessian per direction."""
    def half_square(yy):
        v = f.eval_real(yy)
        return 0.5 * (v * v)

    dirs = unit_directions(f.dimension, samples)
    residuals, min_eig = [], np.inf
    for u in dirs:
        val = f.eval_real(u)
        hess = fd_hessian_loop(half_square, u, STEP_FIRST * max(1.0, float(np.linalg.norm(u))))
        lam = float(np.linalg.eigvalsh(hess).min())
        min_eig = min(min_eig, lam)
        residuals.append(max(-lam, -val))
    return make_report("minkowski", np.zeros_like(dirs), dirs, residuals, tolerance=-eig_floor,
                       extra={"min_eigenvalue": min_eig})


# ---------------------------------------------------------------------------
# one-row batches, one-point solves and builders


def _one_row(metric, x, y, **want):
    values = metric.rows(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), **want)
    raise_first(values.errors)
    return values


def point_guard(metric, x, y, with_f=True) -> None:
    """The point guard of ``MetricEvaluator.rows`` at one point, in Python
    floats: raises the DomainError the row gets, or returns None."""
    # squares of Python floats overflow to inf without a warning
    yy = sum(c * c for c in np.asarray(y, dtype=float).tolist())
    length = math.sqrt(sum(c * c for c in np.asarray(x, dtype=float).tolist()))
    if not (math.isfinite(yy) and math.isfinite(length)):
        raise DomainError(NON_FINITE)
    if yy == 0.0:  # |y| = 0, also when its length underflows
        raise DomainError("y = 0 is outside the metric domain")
    if with_f and metric.beyond_radius(length):
        raise DomainError(metric.radius_message(length))


def f_at(metric, x, y) -> float:
    """F at the point (x, y), from ``metric.rows`` on that one-row batch;
    raises the row's error."""
    return float(_one_row(metric, x, y).f[0])


def p_at(metric, x, y) -> float:
    """P at (x, y), from ``metric.rows`` on that one-row batch (not
    radius-guarded); raises the row's error."""
    return float(_one_row(metric, x, y, with_f=False, with_p=True).p[0])


def _value_at(phi, w: np.ndarray) -> float:
    # degree-1 homogeneity forces phi -> 0 at the origin; the norms reject
    # a squared length of 0, so such a w counts as the origin
    if float(w.dot(w)) == 0.0:
        return 0.0
    return phi.eval_real(w)


def _range_exponent(y) -> int:
    """The e with which a solve runs at y * 2^-e: the one that brings the
    largest |y| component into [1/2, 1), or 0 where it lies in [2^-8, 2^8).
    The fixed point has degree one in y, so the result is scaled back by
    2^e, exactly."""
    e = math.frexp(float(np.max(np.abs(y), initial=0.0)))[1]
    return 0 if -7 <= e <= 8 else e


def _times_pow2(value, e):
    return complex(math.ldexp(value.real, e), math.ldexp(value.imag, e))


def solve_real_scalar(phi, x, y, cfg=None) -> SolveResult:
    """Solve t = phi(y + x t) at one point by bracketing plus safeguarded
    Newton: the reference for ``projflat.solve_real`` on rows."""
    cfg = cfg or SolverConfig()
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    e = _range_exponent(y)
    y = np.ldexp(y, -e)

    def f(t):
        return t - _value_at(phi, y + x * t)

    t0 = _value_at(phi, y)
    width = max(1.0, abs(t0))
    lo, hi = t0 - width, t0 + width
    flo, fhi = f(lo), f(hi)
    expansions = 0
    while flo > 0.0 or fhi < 0.0:
        expansions += 1
        if expansions > 80 or not (math.isfinite(flo) and math.isfinite(fhi)):
            raise SolverError(
                "no sign change within the bracket expansion budget; "
                "the base point is likely outside the validity region")
        width *= BRACKET_EXPANSION
        lo, hi = t0 - width, t0 + width
        flo, fhi = f(lo), f(hi)

    kink_scale = 1e-9 * (1.0 + float(np.linalg.norm(y)))
    t = min(max(t0, lo), hi)
    ft = f(t)
    iterations = 0
    target = cfg.tolerance
    while abs(ft) > _REFINE_FLOOR * (1.0 + abs(t)):
        if iterations >= cfg.max_iterations:
            if abs(ft) <= target:
                break
            raise SolverError(f"iteration cap {cfg.max_iterations} exceeded "
                              f"(residual {abs(ft):.3e})")
        iterations += 1
        if ft > 0.0:
            hi = t
        else:
            lo = t
        eta = y + x * t
        step_ok = False
        if float(np.linalg.norm(eta)) > kink_scale:
            slope = 1.0 - float(phi.grad_real(eta) @ x)
            if slope > 1e-12:
                t_new = t - ft / slope
                if lo < t_new < hi:
                    t, step_ok = t_new, True
        if not step_ok:
            t = 0.5 * (lo + hi)
        ft = f(t)
        if hi - lo <= _REFINE_FLOOR * (1.0 + abs(t)) and abs(ft) <= target:
            break
    residual = abs(f(t))
    if residual > target:
        raise SolverError(f"fixed-point residual {residual:.3e} above tolerance")
    return SolveResult(value=math.ldexp(t, e), eta=np.ldexp(y + x * t, e),
                       residual=math.ldexp(residual, e), iterations=iterations,
                       errors=[None])


def _pair_value(phi, psi, w: np.ndarray) -> complex:
    if not w.any():
        return 0j
    return complex(phi.eval_complex(w) + 1j * psi.eval_complex(w))


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def solve_complex_scalar(phi, psi, x, y, cfg=None) -> SolveResult:
    """Solve Z = phi(y + x Z) + i psi(y + x Z) at one point: the reference
    for ``projflat.solve_complex``.  The first attempt takes the secant
    step on h = z - g(z) wherever it is defined and finite (else a Picard
    step) and keeps its root only if the root passes every check and
    attracts, |1 - dh/dz| < 1; otherwise the damped Picard attempts run
    from z0."""
    cfg = cfg or SolverConfig()
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    e = _range_exponent(y)
    y = np.ldexp(y, -e)

    def g(zz):
        return _pair_value(phi, psi, y + x * zz)

    z0 = _pair_value(phi, psi, y)
    scale = 1.0 + abs(z0)
    damping = 1.0
    secant = True
    total_iters = 0
    while True:
        z, prev, slope = z0, None, None
        diverged = False
        for _ in range(cfg.max_iterations):
            total_iters += 1
            val = g(z)
            if not _finite(val):
                diverged = True
                break
            h = z - val
            res = abs(h)
            step = (1.0 - damping) * z + damping * val
            if secant:
                if prev is not None and h != prev[1]:
                    dz, dh = z - prev[0], h - prev[1]
                    candidate = z - h * dz / dh
                    if _finite(candidate):
                        step, slope = candidate, dh / dz
                prev = (z, h)
            z = step
            if res <= _REFINE_FLOOR * scale:
                break
            if res > 1e6 * scale:
                diverged = True
                break
        final = abs(z - g(z))
        good = not diverged and final <= cfg.tolerance
        wrong = z.imag < -cfg.tolerance * scale
        secant = False
        if slope is not None and not (good and not wrong and abs(1.0 - slope) < 1.0):
            continue  # the secant root is not kept: restart on the Picard path
        if good:
            if wrong:
                raise SolverError("iteration converged to the non-metric branch "
                                  "(negative imaginary part)")
            return SolveResult(value=_times_pow2(z, e),
                               eta=np.array([_times_pow2(c, e) for c in y + x * z]),
                               residual=math.ldexp(final, e), iterations=total_iters,
                               errors=[None])
        damping *= 0.5
        if damping < 1.0 / 64.0:
            raise SolverError("complex fixed-point iteration failed to converge; "
                              "the base point is likely outside the validity region")


def solve_complex_picard(phi, psi, x, y, cfg=None) -> SolveResult:
    """Damped Picard iteration alone, on rows, with the numpy arithmetic of
    ``projflat.solve_complex``: the path a row takes there when its secant
    root is not kept, so such a row must get these bits."""
    cfg = cfg or SolverConfig()
    rows = _Rows(phi.dimension, x, y, complex)
    every = np.arange(len(rows.y))

    def pair(w):
        return phi._complex(w) + 1j * psi._complex(w)

    def g(act, z):
        return pair(rows.y[act] + rows.x[act] * z[:, None])

    def fail(act, error):
        rows.fail(np.isin(every, act), error)

    z0 = pair(rows.y)
    scale = 1.0 + np.abs(z0)
    damping = np.ones(len(every))
    z = z0.copy()
    count = np.zeros(len(every), dtype=int)
    iterations = 0
    act = every[~rows.failed]
    while act.size:
        iterations += act.size
        count[act] += 1
        val = g(act, z[act])
        za = z[act]
        finite = np.isfinite(val.real) & np.isfinite(val.imag)
        res = np.abs(za - val)
        z[act] = np.where(finite, (1.0 - damping[act]) * za + damping[act] * val, za)
        diverged = ~finite | (res > 1e6 * scale[act])
        converged = finite & (res <= _REFINE_FLOOR * scale[act])
        leave = diverged | converged | (count[act] >= cfg.max_iterations)
        out, diverged = act[leave], diverged[leave]
        act = act[~leave]
        if not out.size:
            continue
        final = np.abs(z[out] - g(out, z[out]))
        good = ~diverged & (final <= cfg.tolerance)
        ok, final = out[good], final[good]
        wrong = z[ok].imag < -cfg.tolerance * scale[ok]
        fail(ok[wrong], SolverError(
            "iteration converged to the non-metric branch (negative imaginary part)"))
        rows.value[ok[~wrong]] = z[ok[~wrong]]
        rows.residual[ok[~wrong]] = final[~wrong]
        again = out[~good]
        damping[again] *= 0.5
        lost = damping[again] < 1.0 / 64.0
        fail(again[lost], SolverError(
            "complex fixed-point iteration failed to converge; "
            "the base point is likely outside the validity region"))
        again = again[~lost]
        z[again] = z0[again]
        count[again] = 0
        act = np.concatenate([act, again])
    return rows.result(iterations)


def implicit_derivatives(phi, res, x):
    """Exact first derivatives (P_y, P_x) of the solved field at x, from the
    one-row solve ``res`` there: P_y = grad phi(eta) / (1 - <grad phi(eta), x>)
    and P_x = P P_y, the transport identity."""
    x = np.asarray(x, dtype=float).reshape(-1)
    grad = phi.grad_real(res.eta[0])
    denom = 1.0 - float(grad @ x)
    if denom < 1e-8:
        raise DomainError("implicit-derivative denominator vanishes; "
                          "the point sits on the validity boundary")
    p_y = grad / denom
    p_x = res.value[0] * p_y
    return p_y, p_x


def constructed_fp(curvature, psi, phi, x, y, cfg=None):
    """(F, P) of a constructed metric at one point, one solve per field as
    the builders define them; the reference for ``MetricEvaluator.rows``.
    Raises what the point raises; no point guard."""
    if curvature == 0:
        res = solve_real_scalar(phi, x, y, cfg)
        denom = 1.0 - float(phi.grad_real(res.eta) @ np.asarray(x, dtype=float))
        if denom < 1e-8:
            raise DomainError("construction denominator vanishes")
        return psi.eval_real(res.eta) / denom, res.value
    if curvature == -1:
        plus = solve_real_scalar(combine((1.0, phi), (1.0, psi)), x, y, cfg).value
        minus = solve_real_scalar(combine((1.0, phi), (-1.0, psi)), x, y, cfg).value
        return 0.5 * (plus - minus), 0.5 * (plus + minus)
    z = solve_complex_scalar(phi, psi, x, y, cfg).value
    return z.imag, z.real


# ---------------------------------------------------------------------------
# the point checks of verify, one call per field group and stencil


def _p_numeric(metric, xs, ys):
    """P = F_{x^k} y^k / (2F) on rows from F alone, as separate F rows
    calls at (x, y) and at x +- h y, h = STEP_FIRST max(1, |x|) / |y|;
    and each row's first error (F's at (x, y), F <= 0, the two offset
    points', then an overflowing difference quotient).  The reference for
    a closed form's ``rows`` P."""
    with np.errstate(all="ignore"):  # a non-finite row fails in F, F <= 0 is flagged
        ny = np.sqrt(np.vecdot(ys, ys))
        h = STEP_FIRST * np.maximum(1.0, np.sqrt(np.vecdot(xs, xs))) / np.where(ny == 0.0, 1.0, ny)
        step = h[:, None] * ys
        at, up, down = (metric.rows(p, ys) for p in (xs, xs + step, xs - step))
        dfdt = (up.f - down.f) / (2.0 * h)
        p = np.where(np.isinf(dfdt), np.nan, dfdt) / (2.0 * at.f)
    flagged = [DomainError("projective factor requires F > 0") if f <= 0.0 else None
               for f in at.f]
    overflows = [DomainError(P_OVERFLOWS) if np.isinf(v) else None for v in dfdt]
    return p, first_errors(at.errors, flagged, up.errors, down.errors, overflows)


def _fields_at(metric, pairs, want):
    """``want`` ("f", "p" or "fp") of ``metric`` at the M stencil points
    ``pairs`` [(X_m, Y_m)] of N samples, in one call per field group: the
    M value arrays of each field, and the M per-sample error lists.  A
    closed form's P is the numeric one, its error read before F's."""
    m, n = len(pairs), pairs[0][0].shape[-1]
    xs = np.stack([a for a, _ in pairs], axis=1).reshape(-1, n)
    ys = np.stack([b for _, b in pairs], axis=1).reshape(-1, n)
    if want == "f":
        values = metric.rows(xs, ys)
        fields, errors = (values.f,), values.errors
    elif metric.solve is not None:
        values = metric.rows(xs, ys, with_f=want == "fp", with_p=True)
        fields = (values.f, values.p) if want == "fp" else (values.p,)
        errors = values.errors
    else:
        p, errors = _p_numeric(metric, xs, ys)
        fields = (p,)
        if want == "fp":
            values = metric.rows(xs, ys)
            fields, errors = (values.f, p), first_errors(errors, values.errors)
    return ([list(v.reshape(-1, m).T) for v in fields],
            [errors[k::m] for k in range(m)])


def _curvature_composed(metric, xs, ys):
    top = np.abs(ys).max(axis=-1, keepdims=True)
    w = ys / np.where(top == 0.0, 1.0, top)
    nw = lengths(w)
    u = w / np.where(nw == 0.0, 1.0, nw)[:, None]
    h = STEP_SECOND * np.maximum(1.0, lengths(xs))
    step = h[:, None] * u
    ((f0,),), (f_errors,) = _fields_at(metric, [(xs, u)], "f")
    ((p0, p_up, p_down),), p_errors = _fields_at(
        metric, [(xs, u), (xs + step, u), (xs - step, u)], "p")
    dp = (p_up - p_down) / (2.0 * h)
    f2 = f0 * f0
    flat = ~(f2 > 0.0)
    k = np.where(flat, np.nan, (p0 * p0 - dp) / np.where(flat, 1.0, f2))
    flagged = [DomainError("flag curvature requires F^2 > 0") if flag else None
               for flag in flat]
    return k, first_errors(f_errors, flagged, *p_errors)


def flag_curvature_composed(metric, xs, ys):
    """``verify.flag_curvature`` with F at (x, u) and P on its stencil
    evaluated in two calls."""
    k, errors = _curvature_composed(metric, xs, ys)
    raise_first(errors)
    return k


def point_values_composed(metric, xs, ys):
    """``verify.point_values`` with F and P at (x, y), F at (x, u) and P
    on K's stencil evaluated in three calls."""
    ((f,), (p,)), (errors,) = _fields_at(metric, [(xs, ys)], "fp")
    k, k_errors = _curvature_composed(metric, xs, ys)
    errors = first_errors(errors, k_errors)
    k[~error_free(errors)] = np.nan
    return f, p, k, errors


def berwald_composed(metric, xs, ys):
    """``verify.berwald_system_residual`` with the jet, the P stencil and
    the F-and-P stencil evaluated in three calls."""
    n = xs.shape[1]
    jd = jet(metric, xs, ys)
    hx = STEP_SECOND * np.maximum(1.0, lengths(xs))
    hy = STEP_SECOND * lengths(ys)
    (p_values,), p_errors = _fields_at(metric, p_pairs(xs, ys, hx, hy), "p")
    (f_values, pf_values), pf_errors = _fields_at(
        metric, [(xs, q) for q in gradient_points(ys, hy)], "fp")
    raise_first(first_errors(*p_errors, *pf_errors))
    p0 = p_values[0]
    p_x = gradient_from(p_values[1:2 * n + 1], hx)
    p_y = gradient_from(p_values[2 * n + 1:], hy)
    pf_y = gradient_from([q * f for f, q in zip(f_values, pf_values)], hy)
    r1 = np.abs(jd.grad_x - pf_y).max(axis=-1) / (1.0 + np.abs(jd.grad_x).max(axis=-1))
    resid2 = (p_x - p0[:, None] * p_y
              + (metric.intended_curvature * jd.value)[..., None] * jd.grad_y)
    r2 = np.abs(resid2).max(axis=-1) / (1.0 + np.abs(p_x).max(axis=-1))
    return r1, r2


# ---------------------------------------------------------------------------
# test-only cross-checks of the catalog and the convexity sweep

_MARGIN = 1e-12


def _dots(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(x @ x), float(y @ y), float(x @ y)


def bryant_all_real(alpha, x, y) -> float:
    """The radical (A, B, C, D) rendering of the bryant formula."""
    xx, yy, xy = _dots(x, y)
    cos2a = math.cos(2.0 * alpha)
    sin2a = math.sin(2.0 * alpha)
    b = yy * cos2a + xx * yy - xy * xy
    a = b * b + (yy * sin2a) ** 2
    c = xy * sin2a
    d = xx * xx + 2.0 * xx * cos2a + 1.0
    if d <= _MARGIN:
        raise DomainError("bryant denominator vanished")
    return math.sqrt((math.sqrt(a) + b) / (2.0 * d) + (c / d) ** 2) + c / d


def zhou_reduction_check(d1, d2, sign, x, y):
    """(lhs, rhs): the zhou formula against its two-term expansion

        rhs = 1/2 { (sqrt((2 d2 + s 4 d1^2 - |x|^2)|y|^2 + <x,y>^2) - <x,y>)
                    / (2 d2 + s 4 d1^2 - |x|^2)
                  + (sqrt((2 d2 - s 4 d1^2 - |x|^2)|y|^2 + <x,y>^2) + <x,y>)
                    / (2 d2 - s 4 d1^2 - |x|^2) }

    with s the sign carried by c2.  The two sides are algebraically equal
    on the zhou domain.
    """
    xx, yy, xy = _dots(x, y)
    lhs = f_at(as_evaluator(catalog_entry("zhou", len(np.atleast_1d(x)), d1=d1,
                                          d2=d2, sign=sign)), x, y)
    out = 0.0
    for s, num_sign in ((sign, -1.0), (-sign, 1.0)):
        a = 2.0 * d2 + s * 4.0 * d1 * d1 - xx
        if a <= _MARGIN:
            raise DomainError("zhou reduction denominator vanished")
        out += (math.sqrt(a * yy + xy * xy) + num_sign * xy) / a
    return lhs, 0.5 * out


def convexity_check(metric, x, samples, eig_floor=1e-8):
    """Positive definiteness of [F^2/2]_{yy} over deterministic directions
    at one base point, one direction at a time."""
    x = np.asarray(x, dtype=float)
    dirs = unit_directions(metric.dimension, samples)
    residuals, min_eig = [], np.inf
    for u in dirs:
        r, lam = convexity_residual(metric, x[None], u[None])
        residuals.append(r[0])
        min_eig = min(min_eig, lam[0])
    return make_report("convexity", np.broadcast_to(x, dirs.shape), dirs, residuals,
                       tolerance=-eig_floor, extra={"min_eigenvalue": min_eig})


def geodesic_coefficients_general(metric, x, y):
    """Geodesic coefficients from the metric tensor:

        G^i = (1/4) g^{il} ( [F^2]_{x^m y^l} y^m - [F^2]_{x^l} ),
        g_ij = [F^2/2]_{y^i y^j}.

    Everything comes from the finite-difference jet; for projectively
    flat metrics this must match P(x, y) * y^i.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    jd = jet(metric, xs, ys)
    f0 = jd.value[:, None]
    g = jd.grad_y[:, :, None] * jd.grad_y[:, None, :] + f0[..., None] * jd.hess_yy
    b = 2.0 * (np.vecdot(jd.grad_x, ys)[:, None] * jd.grad_y
               + f0 * _mixed_times_y(jd, ys) - f0 * jd.grad_x)
    try:
        sol = np.linalg.solve(g, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DomainError("metric tensor is singular at this point") from exc
    return 0.25 * sol


def format_norm(f: HomogeneousFunction) -> str:
    """Inverse of parse_norms for one norm of the enumerated families."""
    if isinstance(f, ZeroNorm):
        return "zero"
    if isinstance(f, ScaledNorm):
        return f"scaled:{f.scale:g}"
    if isinstance(f, EuclideanNorm):
        return "euclidean"
    if isinstance(f, RandersNorm):
        return "randers:" + ",".join(f"{v:g}" for v in f.drift)
    if isinstance(f, DoubleSqrtNorm):
        return f"{f.family}:{f.first_block},{f.second_block}"
    if isinstance(f, CombinedNorm):
        return "+".join(f"{c:g}*({format_norm(g)})" for c, g in f.terms)
    raise SpecParseError(f"cannot format {type(f).__name__}")


# ---------------------------------------------------------------------------
# negative controls


def altered(metric, f=None, p=None):
    """A constructed ``metric`` whose F becomes ``f(x, y, F, P)`` and whose
    P becomes ``p(P)`` where given, the solve and its errors kept; the
    stated curvature is unchanged, so the result is not of that K.  The
    solve's ``with_f`` is a per-row mask; ``f`` maps every row, and the
    rows not asked for F stay blank in ``rows``."""
    def solve(x, y, with_f, with_p, guess=None):
        f0, p0, errors = metric.solve(x, y, with_f, with_p, guess)
        return ((f(x, y, f0, p0) if f and np.any(with_f) else f0),
                (p(p0) if p else p0), errors)
    return dataclasses.replace(metric, solve=solve)


def perturbed(metric, eps):
    """``metric`` with F + eps x^1 (y^1)^2 / |y| and the exact P kept, the
    perturbation of the negative control ``test:broken``."""
    return altered(metric, f=lambda x, y, f, p: (
        f + eps * x[:, 0] * y[:, 0] ** 2 / np.linalg.norm(y, axis=1)))


def failing_checks(metric, radius=0.2, samples=50, seed=42) -> set:
    """The names of the ``verify`` checks that fail on ``metric``, each run
    as the CLI runs it, at its default tolerance."""
    return {name for name in CHECK_NAMES
            if not _run_check(name, metric, np.random.default_rng(seed), radius,
                              samples, DEFAULT_TOLERANCES[name])["pass"]}


# ---------------------------------------------------------------------------
# golden bits


def hex_text(values):
    """Each number of ``values`` as float.hex text; a complex array as
    [real parts, imaginary parts]."""
    a = np.asarray(values)
    if np.iscomplexobj(a):
        return [hex_text(a.real), hex_text(a.imag)]
    return [float(v).hex() for v in a.ravel()]
