"""Numerical differential checks for metric evaluators.

A metric is treated as a black box ``F(x, y)`` and ``P(x, y)`` evaluated
on rows through ``MetricEvaluator.rows``, whatever its kind (P is exact
on a construction and a difference quotient of F on a closed form).  The
functions here measure residuals of the identities
that characterize projectively flat metrics of constant flag curvature:

* Hamel's criterion              F_{x^k} = F_{x^l y^k} y^l
* projective factor              P = F_{x^k} y^k / (2F)
* flag curvature                 K = (P^2 - P_{x^m} y^m) / F^2
* first-order system             F_{x^k} = (PF)_{y^k},
                                 P_{x^k} = P P_{y^k} - (1/3F)(K F^3)_{y^k}
* transport fields               (P + c F)_{x^k} = (P + c F)(P + c F)_{y^k}
                                 with c^2 = -K (complex c when K > 0)
* strong convexity               [F^2/2]_{y^i y^j} positive definite
* geodesic straightness          trajectories of  v' = -2 P(x, v) v  stay
                                 on the line through (x0, v0)

The jet, the residual functions, ``point_values`` and
``integrate_geodesic`` take N points, rows ``x`` and ``y`` of shape
``(N, n)``, and return one value per row; any other shape is a
DimensionMismatchError.  Each builds the finite-difference stencils of
all points up front, each stencil point tagged with the fields it needs
(F, P or both), and evaluates them together in one rows call with F and P
masks.  ``pde`` alone evaluates each transport field on its own, and each
geodesic RK stage asks P alone.  An error raised is the one of the first
failing sample.

``make_report`` turns a check's residuals over its sample rows into its
report, the JSON object ``verify`` prints.  ``check_minkowski`` runs the
strong-convexity test on a norm (such as psi) instead of a metric and
returns such a report.

All identity residuals are normalized (absolute residual / (1 + magnitude))
so one tolerance transfers across evaluation scales.  Derivatives of F use
step ~ eps^(1/3), derivatives of the P field (itself a difference quotient
on a closed form) and the mixed and second derivatives of F use step ~
eps^(1/4), which keeps their round-off floor near 1e-8 instead of 1e-5.

The checks hold their tolerances out to a sweep radius of 0.8 R, R
being the metric's ``domain_radius``: at d = 2, 50 samples and seed 42,
every closed form with a finite R passes all six there.  Nearer the
boundary the fixed steps meet the blow-up of F (at 0.9 R berwald and
sph-k0 fail hamel; at 0.95 R funk fails hamel and pde), and capping the
x-steps by the distance to the boundary only moves the failures to
curvature, berwald or pde.

The geodesic check cannot fail: v' = -2 P(x, v) v keeps v parallel to v0
for any P, so every trajectory stays on its line whatever the metric (the
negative control ``test:broken`` passes it at 5e-16).  It exercises the
integrator and the domain guards, not projective flatness.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .construct import STEP_FIRST, error_free, first_errors, flagged, p_numeric, raise_first
from .errors import DomainError
from .norms import HomogeneousFunction, as_rows, lengths
from .sampling import unit_directions

STEP_SECOND = float(np.finfo(float).eps) ** 0.25

FAILURE_CAP = 10
_SQUARE_LIMIT = 2.0 ** 511  # above it a square may overflow
MINKOWSKI_EIG_FLOOR = 1e-5


# ---------------------------------------------------------------------------
# check reports


def make_report(check, x, y, residuals, tolerance, extra=None) -> dict:
    """The report of a check over the sample rows ``x`` and ``y``
    (``(N, n)``, N >= 1, one residual each), as the JSON object ``verify``
    prints.

    It passes iff the largest residual is at most ``tolerance``, and then
    lists no failures; a failed report lists the rows of its largest
    residuals above the tolerance, largest first, at most FAILURE_CAP.
    ``extra`` is printed after the failures when given.
    """
    residuals = np.asarray(residuals, dtype=float)
    worst = float(residuals.max())
    report = {
        "check": check,
        "samples": int(residuals.size),
        "max_residual": worst,
        "mean_residual": float(residuals.mean()),
        "tolerance": float(tolerance),
        "pass": bool(worst <= tolerance),
        # largest first, a nan residual (a failure) ahead of all
        "failures": [{"x": x[i].tolist(), "y": y[i].tolist(), "residual": float(residuals[i])}
                     for i in np.argsort(residuals)[::-1][:FAILURE_CAP]
                     if not residuals[i] <= tolerance],
    }
    if extra:
        report["extra"] = dict(extra)
    return report


# ---------------------------------------------------------------------------
# finite-difference primitives


def axis_step(v, k, step):
    """Zeros shaped like ``v`` with ``step`` in component k (one step per
    row for rows)."""
    e = np.zeros(v.shape)
    e[..., k] = step
    return e


def hessian_points(v, step) -> list:
    """The points of a central-difference Hessian, in the order
    ``hessian_from`` reads their values: ``v``, then for each i the pair
    ``v +- e_i`` followed by ``v +- e_i +- e_j`` for j > i (e_k is
    ``step`` along component k)."""
    n = v.shape[-1]
    points = [v]
    for i in range(n):
        ei = axis_step(v, i, step)
        points += [v + ei, v - ei]
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


class _Values(NamedTuple):
    """One stencil block's fields: ``f`` and ``p`` hold the M value arrays
    of length N, ``errors`` the M per-sample error lists; a field the
    block does not ask for is not to be read."""

    f: list
    p: list
    errors: list


def _stacked(pairs):
    """The M stencil points ``pairs`` [(X_m, Y_m)] of N samples as N * M
    rows, sample-major."""
    n = pairs[0][0].shape[-1]
    return (np.concatenate([a for a, _ in pairs], axis=1).reshape(-1, n),
            np.concatenate([b for _, b in pairs], axis=1).reshape(-1, n))


def _on_stencil(metric, blocks):
    """F and P of ``metric`` on a check's stencil blocks, one _Values per
    block, from one rows call.

    A block is ``(want, pairs)`` or ``(want, pairs, samples)``: ``want``
    is "f", "p" or "fp", the fields asked at its M stencil points
    ``pairs`` [(X_m, Y_m)] of N samples, each ``(N, n)``; ``samples``, an
    ``(N,)`` mask, leaves the other samples' points unasked (nan, no
    error).  A point that needs both fields belongs in an "fp" block, so
    it is one row, and its error is F's, else P's.
    """
    pairs = [pair for _, block, *_ in blocks for pair in block]
    m, ends = len(pairs), list(accumulate(len(block) for _, block, *_ in blocks))
    spans = list(zip([0] + ends, ends))

    def mask(field):  # the sample-major rows mask; one bool when all rows agree
        asked = [(span, on) for (want, _, *on), span in zip(blocks, spans) if field in want]
        if len(asked) in (0, len(blocks)) and not any(on for _, on in asked):
            return bool(asked)  # no block asks, or every block asks on every sample
        rows = np.zeros((len(pairs[0][0]), m), dtype=bool)
        for (a, b), on in asked:
            rows[:, a:b] = on[0][:, None] if on else True
        return rows.reshape(-1)

    values = metric.rows(*_stacked(pairs), mask("f"), mask("p"))
    f, p = ([None] * m if v is None else list(v.reshape(-1, m).T) for v in (values.f, values.p))
    errors = [values.errors[k::m] for k in range(m)]
    return [_Values(f[a:b], p[a:b], errors[a:b]) for a, b in spans]


# ---------------------------------------------------------------------------
# jets and identity residuals


@dataclass
class JetData:
    """Value and low-order derivatives of F at each row: ``value`` is
    ``(N,)``, ``grad_x`` and ``grad_y`` are ``(N, n)``, and ``mixed_xy``
    and ``hess_yy`` are ``(N, n, n)``, with ``mixed_xy[:, l, k]`` =
    d^2 F / dx^l dy^k.
    """

    value: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    mixed_xy: np.ndarray
    hess_yy: np.ndarray


def _jet_stencil(xs, ys):
    """The stencil points of the jet at each row of (xs, ys), and its
    steps (hx, hy, hx2, hy2); raises DomainError for a zero y."""
    n = xs.shape[1]
    ny = lengths(ys)
    if (ny == 0.0).any():
        raise DomainError("jet requires y != 0")
    sx = np.maximum(1.0, lengths(xs))
    hx, hy = STEP_FIRST * sx, STEP_FIRST * ny
    hx2, hy2 = STEP_SECOND * sx, STEP_SECOND * ny
    pairs = [(xs, ys)]
    pairs += [(p, ys) for p in gradient_points(xs, hx)]
    pairs += [(xs, p) for p in gradient_points(ys, hy)]
    for l in range(n):
        el = axis_step(xs, l, hx2)
        for k in range(n):
            ek = axis_step(ys, k, hy2)
            pairs += [(xs + el, ys + ek), (xs + el, ys - ek),
                      (xs - el, ys + ek), (xs - el, ys - ek)]
    pairs += [(xs, p) for p in hessian_points(ys, hy2)]
    return pairs, (hx, hy, hx2, hy2)


def _jet_from(values, steps, n) -> JetData:
    """The jet in n dimensions from F at the points of ``_jet_stencil``,
    in their order."""
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
    hess = 0.5 * (hess + hess.swapaxes(-1, -2))
    return JetData(f0, grad_x, grad_y, mixed, hess)


def jet(metric, x, y) -> JetData:
    """Central-difference jet of F at each row of (x, y).

    First derivatives use step ~ eps^(1/3) * scale; mixed and second
    derivatives use their own step ~ eps^(1/4) * scale.  Raises
    DomainError if the stencil leaves the evaluator's domain.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    pairs, steps = _jet_stencil(xs, ys)
    [values] = _on_stencil(metric, [("f", pairs)])
    raise_first(first_errors(*values.errors))
    return _jet_from(values.f, steps, xs.shape[1])


def _mixed_times_y(jd: JetData, ys):
    """F_{x^l y^k} y^l at each row."""
    return np.matmul(ys[:, None, :], jd.mixed_xy)[:, 0]


def hamel_residual(metric, x, y):
    """Normalized residual of F_{x^k} - F_{x^l y^k} y^l = 0."""
    xs, ys = as_rows(metric.dimension, x, y)
    jd = jet(metric, xs, ys)
    lhs = jd.grad_x - _mixed_times_y(jd, ys)
    scale = 1.0 + np.abs(jd.grad_x).max(axis=-1)
    return np.abs(lhs).max(axis=-1) / scale


def projective_factor_numeric(metric, x, y):
    """P = F_{x^k} y^k / (2F) via a directional central difference in x,
    on any metric kind (``construct.p_numeric``); raises the first
    failing row's error."""
    p, errors = p_numeric(metric, *as_rows(metric.dimension, x, y))
    raise_first(errors)
    return p


def _curvature_stencil(xs, ys):
    """The step h at each row and K's stencil points (x, u), (x + h u)
    and (x - h u), u = y / |y|.

    K has degree 0 in y, so it is evaluated at u: a tiny y would
    otherwise make F^2 underflow.  y is first divided by its largest
    component, so |y| itself cannot underflow or overflow.
    """
    top = np.abs(ys).max(axis=-1, keepdims=True)
    w = ys / np.where(top == 0.0, 1.0, top)  # y = 0 stays 0 and fails in F
    nw = lengths(w)
    u = w / np.where(nw == 0.0, 1.0, nw)[:, None]
    h = STEP_SECOND * np.maximum(1.0, lengths(xs))
    step = h[:, None] * u
    return h, [(xs, u), (xs + step, u), (xs - step, u)]


def _curvature(at_u, off_u, h):
    """K at each row from F and P at (x, u) (the _Values ``at_u``) and P
    at (x +- h u) (``off_u``), and each row's first error.

    K = (P^2 - dP) / F^2 is unchanged when F and P scale by 2^e and dP by
    2^2e, so a row whose F^2 would overflow is evaluated with F brought
    into [1/2, 1); every other row keeps its bits.  A P^2 beyond range
    gives an infinite K, which the callers report.
    """
    f0, p0 = at_u.f[0], at_u.p[0]
    p_up, p_down = off_u.p
    dp = (p_up - p_down) / (2.0 * h)
    huge = np.abs(f0) > _SQUARE_LIMIT  # nan: F failed
    if huge.any():
        e = np.where(huge, -np.frexp(f0)[1], 0)
        f0, p0, dp = np.ldexp(f0, e), np.ldexp(p0, e), np.ldexp(dp, 2 * e)
    f2 = f0 * f0
    flat = ~(f2 > 0.0)  # F = 0, or F^2 underflows (nan: F failed)
    with np.errstate(over="ignore"):
        k = np.where(flat, np.nan, (p0 * p0 - dp) / np.where(flat, 1.0, f2))
    return k, first_errors(at_u.errors[0], flagged(flat, "flag curvature requires F^2 > 0"),
                           *off_u.errors)


def flag_curvature(metric, x, y):
    """K = (P^2 - P_{x^m} y^m) / F^2 with P_x by a directional difference.

    The P field is exact for constructed metrics and a finite difference
    of F otherwise, so the outer differentiation never stacks more than
    one finite-difference level on top of the field.  The formula holds
    only where F is projectively flat; the ``hamel`` check tests that.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    h, pairs = _curvature_stencil(xs, ys)
    k, errors = _curvature(*_on_stencil(metric, [("fp", pairs[:1]), ("p", pairs[1:])]), h)
    raise_first(errors)
    return k


def point_values(metric, x, y):
    """F, P and K at each row of ``x`` and ``y`` (``(N, n)``), and each
    row's first error (F's, then P's, then K's), for ``eval`` and
    ``sample``; a failed row holds nan."""
    xs, ys = as_rows(metric.dimension, x, y)
    h, pairs = _curvature_stencil(xs, ys)
    far = metric.beyond_radius(lengths(xs))
    # K's rows of a sample whose F fails the radius guard are asked nothing
    live = (~far,) if far.any() else ()
    here, at_u, off_u = _on_stencil(metric, [("fp", [(xs, ys)]), ("fp", pairs[:1], *live),
                                             ("p", pairs[1:], *live)])
    k, k_errors = _curvature(at_u, off_u, h)
    errors = first_errors(here.errors[0], k_errors)
    k[~error_free(errors)] = np.nan
    return here.f[0], here.p[0], k, errors


def _p_stencil(xs, ys, hx, hy):
    """(x, y), then the gradient stencils in x and in y."""
    return ([(xs, ys)] + [(p, ys) for p in gradient_points(xs, hx)]
            + [(xs, p) for p in gradient_points(ys, hy)])


def berwald_system_residual(metric, x, y):
    """Normalized residuals (r1, r2) of the first-order projective system.

    r1 checks F_{x^k} = (PF)_{y^k}; r2 checks
    P_{x^k} = P P_{y^k} - (1/3F)(K F^3)_{y^k}, with the last term reduced
    to K F F_{y^k} (valid because K is constant).  K is the metric's
    intended curvature, so a metric whose numeric K differs fails r2.
    The jet's errors are raised before the P stencils', so the jet and the
    P stencil each hold the centre (x, y), F on one row and P on another.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    n = xs.shape[1]
    curvature = metric.intended_curvature
    jet_pairs, steps = _jet_stencil(xs, ys)
    hx, hy = steps[2:]  # the jet's second-derivative steps
    jet_f, p_stencil, pf = _on_stencil(metric, [
        ("f", jet_pairs), ("p", _p_stencil(xs, ys, hx, hy)),
        ("fp", [(xs, p) for p in gradient_points(ys, hy)])])
    raise_first(first_errors(*jet_f.errors))
    jd = _jet_from(jet_f.f, steps, n)
    raise_first(first_errors(*p_stencil.errors, *pf.errors))
    p_values = p_stencil.p
    p0 = p_values[0]
    p_x = gradient_from(p_values[1:2 * n + 1], hx)
    p_y = gradient_from(p_values[2 * n + 1:], hy)
    pf_y = gradient_from([p * f for f, p in zip(pf.f, pf.p)], hy)

    r1 = np.abs(jd.grad_x - pf_y).max(axis=-1) / (1.0 + np.abs(jd.grad_x).max(axis=-1))
    resid2 = p_x - p0[:, None] * p_y + (curvature * jd.value)[..., None] * jd.grad_y
    r2 = np.abs(resid2).max(axis=-1) / (1.0 + np.abs(p_x).max(axis=-1))
    return r1, r2


def _transport_fields(metric, pairs):
    """The scalar fields Phi with Phi_x = Phi * Phi_y on the stencil
    ``pairs``, each as its M value arrays, and the per-sample error lists.

    Every metric kind builds them alike, from its F and P and its stated
    curvature K: Phi = P + c F with c = 0 for K = 0, c = +/- sqrt(-K) for
    K < 0 and the complex c = i sqrt(K) for K > 0 (Shen's transport
    equations).  So a wrong F or a wrong stated K fails the check.  Each
    field is evaluated on its own: P alone for c = 0, F and P together
    otherwise.  That keeps a closed form's F count per point (72 on funk,
    which the benchmark's cross-check pins) where one shared F and P per
    stencil would halve it, at the cost of a second solve per stencil
    point on a K < 0 construction.
    """
    k = metric.intended_curvature
    s = float(np.sqrt(abs(k)))
    fields, errors = [], []
    for c in ((0.0,) if k == 0.0 else (s, -s) if k < 0.0 else (1j * s,)):
        [values] = _on_stencil(metric, [("p" if c == 0.0 else "fp", pairs)])
        fields.append(values.p if c == 0.0 else [p + c * f for f, p in zip(values.f, values.p)])
        errors += values.errors
    return fields, errors


def master_pde_residual(metric, x, y):
    """Normalized finite-difference residual of Phi_x = Phi * Phi_y.

    Phi runs over the metric's transport fields (see _transport_fields);
    complex fields are differenced in complex arithmetic.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    n = xs.shape[1]
    hx = STEP_SECOND * np.maximum(1.0, lengths(xs))
    hy = STEP_SECOND * lengths(ys)
    fields, errors = _transport_fields(metric, _p_stencil(xs, ys, hx, hy))
    raise_first(first_errors(*errors))
    worst = np.zeros(len(ys))
    for phi in fields:
        gx = gradient_from(phi[1:2 * n + 1], hx)
        gy = gradient_from(phi[2 * n + 1:], hy)
        resid = (np.abs(gx - phi[0][:, None] * gy).max(axis=-1)
                 / (1.0 + np.abs(gx).max(axis=-1)))
        worst = np.where(resid > worst, resid, worst)
    return worst


# ---------------------------------------------------------------------------
# convexity of the metric and of a norm


def convexity_residual(metric, x, u):
    """(residual, min eigenvalue) of the strong-convexity test at each row
    of (x, u).

    residual = max(-lambda_min, -F): negative when the Hessian of F^2/2
    in y is positive definite and F > 0.
    """
    xs, us = as_rows(metric.dimension, x, u)
    h = STEP_SECOND * lengths(us)
    pairs = [(xs, us)] + [(xs, p) for p in hessian_points(us, h)]
    [values] = _on_stencil(metric, [("f", pairs)])
    raise_first(first_errors(*values.errors))
    hess = hessian_from([0.5 * (v * v) for v in values.f[1:]], h, xs.shape[1])
    lam_min = np.linalg.eigvalsh(hess).min(axis=-1)
    return np.maximum(-lam_min, -values.f[0]), lam_min


def check_minkowski(f: HomogeneousFunction, samples: int) -> dict:
    """Strong-convexity and positivity test of a norm over deterministic
    directions.

    At each unit direction the Hessian of f^2/2 is formed by central
    differences (step eps^(1/3), the standard second-difference
    tradeoff) and its minimum eigenvalue recorded.  The per-direction
    residual is max(-lambda_min, -f), so the report passes iff every
    direction has lambda_min and f at or above MINKOWSKI_EIG_FLOOR.  All
    stencil points of all directions go through the norm in one call.
    """
    dirs = unit_directions(f.dimension, samples)
    step = STEP_FIRST * np.maximum(1.0, lengths(dirs))
    points = hessian_points(dirs, step)
    values = f.eval_real(np.concatenate(points)).reshape(len(points), samples)
    hess = hessian_from(0.5 * (values * values), step, f.dimension)
    lam = np.linalg.eigvalsh(hess).min(axis=-1)
    return make_report("minkowski", np.zeros_like(dirs), dirs, np.maximum(-lam, -values[0]),
                       tolerance=-MINKOWSKI_EIG_FLOOR,
                       extra={"min_eigenvalue": float(lam.min())})


# ---------------------------------------------------------------------------
# geodesics


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


@dataclass
class GeodesicResult:
    """Sampled geodesic trajectory; ``completed`` is False on domain exit."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    completed: bool


def integrate_geodesic(metric, x0, v0, t_end, steps):
    """Classic RK4 on (x, v) with v' = -2 P(x, v) v.

    ``x0`` and ``v0`` are T starts ``(T, n)``, giving a list of T
    results: the trajectories step together, one rows call of P per RK
    stage, exact on a construction and numeric on a closed form.  A start
    beyond the validity radius raises the point guard's DomainError.  A
    trajectory stops early (flagged) if it or one of its stage points
    leaves the evaluator's domain: it keeps its rows but loses its bit of
    the ``alive`` mask, so it is asked nothing more; the others go on.
    """
    xs0, vs0 = as_rows(metric.dimension, x0, v0)
    if (lengths(vs0) == 0.0).any():
        raise DomainError("geodesic needs a nonzero initial velocity")
    start = lengths(xs0)
    far = metric.beyond_radius(start)
    if far.any():
        raise DomainError(metric.radius_message(start[far][0]))
    h = float(t_end) / int(steps)
    points = np.zeros((int(steps) + 1,) + xs0.shape)
    velocities = np.zeros_like(points)
    points[0], velocities[0] = xs0, vs0
    taken = np.zeros(len(xs0), dtype=int)
    alive = np.ones(len(xs0), dtype=bool)
    for i in range(int(steps)):
        if not alive.any():
            break
        x, v = points[i], velocities[i]
        sx, sv, slopes = x, v, []
        for coef in (0.5, 0.5, 1.0, None):
            # True while every trajectory is live keeps the all-rows path of rows
            values = metric.rows(sx, sv, with_f=False, with_p=True if alive.all() else alive)
            if any(values.errors):
                raise_first([e for e in values.errors if not isinstance(e, DomainError)])
                alive &= error_free(values.errors)
            slopes.append((sv, (-2.0 * values.p)[:, None] * sv))
            if coef is not None:
                kx, kv = slopes[-1]
                sx, sv = x + coef * h * kx, v + coef * h * kv
        (k1x, k1v), (k2x, k2v), (k3x, k3v), (k4x, k4v) = slopes
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        alive &= ~metric.beyond_radius(lengths(x))
        points[i + 1, alive], velocities[i + 1, alive] = x[alive], v[alive]
        taken[alive] += 1
    return [GeodesicResult(times=np.arange(taken[j] + 1) * h,
                           points=points[:taken[j] + 1, j].copy(),
                           velocities=velocities[:taken[j] + 1, j].copy(),
                           completed=bool(alive[j]))
            for j in range(len(xs0))]


def collinearity_score(result: GeodesicResult, x0, v0) -> float:
    """Max distance from the trajectory to the line through (x0, v0),
    divided by the arc length (scale-invariant straightness measure)."""
    x0 = np.asarray(x0, dtype=float)
    v_hat = np.asarray(v0, dtype=float)
    v_hat = v_hat / np.linalg.norm(v_hat)
    rel = result.points - x0
    along = rel @ v_hat
    perp = rel - np.outer(along, v_hat)
    dist = np.linalg.norm(perp, axis=1)
    seg = np.diff(result.points, axis=0)
    arc = float(np.linalg.norm(seg, axis=1).sum())
    if arc == 0.0:
        return 0.0
    return float(dist.max() / arc)
