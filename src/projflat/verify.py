"""Numerical differential checks for metric evaluators.

A metric is treated as a black box ``F(x, y)`` evaluated on rows through
``MetricEvaluator.rows`` (with the exact projective factor P when it was
constructed).  The functions here measure residuals of the identities
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
all points up front and evaluates them with one rows call per field (F,
P, or both), sample by sample, so an error raised is the one of the
first failing sample.

``check_minkowski`` runs the strong-convexity test on a norm (such as
psi) instead of a metric; ``make_report`` builds a check's report.

All identity residuals are normalized (absolute residual / (1 + magnitude))
so one tolerance transfers across evaluation scales.  Derivatives of F use
step ~ eps^(1/3), derivatives of the P field (itself a difference quotient
unless the evaluator carries an exact one) and the mixed and second
derivatives of F use step ~ eps^(1/4), which keeps their round-off floor
near 1e-8 instead of 1e-5.

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

from dataclasses import dataclass, field

import numpy as np

from .construct import first_errors, raise_first
from .errors import DomainError
from .norms import HomogeneousFunction, as_rows, lengths
from .sampling import unit_directions

EPS = float(np.finfo(float).eps)
STEP_FIRST = EPS ** (1.0 / 3.0)
STEP_SECOND = EPS ** 0.25

FAILURE_CAP = 10
MINKOWSKI_EIG_FLOOR = 1e-5


# ---------------------------------------------------------------------------
# check reports


@dataclass
class VerificationReport:
    """Residual statistics of one check over a sample sweep.

    Invariant: ``passed`` is exactly ``max_residual <= tolerance`` and
    ``failures`` is nonempty iff the check failed (capped list).
    """

    check_name: str
    sample_count: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check_name,
            "samples": int(self.sample_count),
            "max_residual": float(self.max_residual),
            "mean_residual": float(self.mean_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "failures": [
                {"x": [float(v) for v in x], "y": [float(v) for v in y], "residual": float(r)}
                for (x, y, r) in self.failures
            ],
        }
        if self.extra:
            out["extra"] = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                            for k, v in self.extra.items()}
        return out


def make_report(check_name, points, residuals, tolerance, extra=None) -> VerificationReport:
    """Assemble a VerificationReport from per-point residuals."""
    residuals = np.asarray(residuals, dtype=float)
    max_res = float(residuals.max()) if residuals.size else 0.0
    mean_res = float(residuals.mean()) if residuals.size else 0.0
    passed = bool(max_res <= tolerance)
    failures = []
    if not passed:
        order = np.argsort(residuals)[::-1]
        for idx in order[:FAILURE_CAP]:
            if residuals[idx] <= tolerance:
                break
            x, y = points[idx]
            failures.append((tuple(float(v) for v in np.atleast_1d(x)),
                             tuple(float(v) for v in np.atleast_1d(y)),
                             float(residuals[idx])))
    return VerificationReport(
        check_name=check_name,
        sample_count=int(residuals.size),
        max_residual=max_res,
        mean_residual=mean_res,
        tolerance=float(tolerance),
        passed=passed,
        failures=failures,
        extra=dict(extra or {}),
    )


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


def _on_stencil(field, pairs):
    """``field`` at the M stencil points ``pairs`` [(X_m, Y_m)] of N samples
    in one call on all N * M points, sample-major.

    ``field(X, Y)`` returns (outputs, errors) on rows.  Returns, per
    output, the M value arrays of length N, and the M per-sample error
    lists.
    """
    m = len(pairs)
    n = pairs[0][0].shape[-1]
    xs = np.stack([a for a, _ in pairs], axis=1).reshape(-1, n)
    ys = np.stack([b for _, b in pairs], axis=1).reshape(-1, n)
    outputs, errors = field(xs, ys)
    return ([list(v.reshape(-1, m).T) for v in outputs],
            [errors[k::m] for k in range(m)])


def _f(metric, x, y):
    values = metric.rows(x, y)
    return (values.f,), values.errors


def _p(metric, x, y):
    """P on rows: exact for a constructed metric, else numeric."""
    if metric.solve is not None:
        values = metric.rows(x, y, with_f=False, with_p=True)
        return (values.p,), values.errors
    p, errors = _p_numeric(metric, x, y)
    return (p,), errors


def _fp(metric, x, y):
    """F and P at the same rows, from one solve when constructed."""
    if metric.solve is not None:
        values = metric.rows(x, y, with_p=True)
        return (values.f, values.p), values.errors
    (p,), p_errors = _p(metric, x, y)
    (f,), f_errors = _f(metric, x, y)
    return (f, p), first_errors(p_errors, f_errors)


def _flagged(mask, message):
    """A DomainError(message) on the rows where ``mask`` holds, else None."""
    return [DomainError(message) if flag else None for flag in mask]


def _p_numeric(metric, x, y):
    """P = F_{x^k} y^k / (2F) on rows, and each row's first error."""
    ny = lengths(y)
    # a zero y takes step 0 and fails the point guard at (x, y), in e0
    h = STEP_FIRST * np.maximum(1.0, lengths(x)) / np.where(ny == 0.0, 1.0, ny)
    step = h[:, None] * y
    ((f0, f_up, f_down),), (e0, e_up, e_down) = _on_stencil(
        lambda a, b: _f(metric, a, b), [(x, y), (x + step, y), (x - step, y)])
    errors = first_errors(e0, _flagged(f0 <= 0.0, "projective factor requires F > 0"),  # nan: failed
                          e_up, e_down)
    dfdt = (f_up - f_down) / (2.0 * h)
    return dfdt / (2.0 * f0), errors


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


def jet(metric, x, y) -> JetData:
    """Central-difference jet of F at each row of (x, y).

    First derivatives use step ~ eps^(1/3) * scale; mixed and second
    derivatives use their own step ~ eps^(1/4) * scale.  Raises
    DomainError if the stencil leaves the evaluator's domain.
    """
    xs, ys = as_rows(metric.dimension, x, y)
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
    (values,), errors = _on_stencil(lambda a, b: _f(metric, a, b), pairs)
    raise_first(first_errors(*errors))

    values = iter(values)
    f0 = next(values)
    grad_x = gradient_from([next(values) for _ in range(2 * n)], hx)
    grad_y = gradient_from([next(values) for _ in range(2 * n)], hy)
    mixed = np.zeros((len(ys), n, n))
    for l in range(n):
        for k in range(n):
            mixed[:, l, k] = (next(values) - next(values) - next(values) + next(values)
                              ) / (4.0 * hx2 * hy2)
    hess = hessian_from(values, hy2, n)
    hess = 0.5 * (hess + hess.swapaxes(-1, -2))
    return JetData(f0, grad_x, grad_y, mixed, hess)


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
    """P = F_{x^k} y^k / (2F) via a directional central difference in x."""
    p, errors = _p_numeric(metric, *as_rows(metric.dimension, x, y))
    raise_first(errors)
    return p


def _curvature(metric, xs, ys):
    """K at each row, and each row's first error.

    K has degree 0 in y, so it is evaluated at u = y / |y|: a tiny y
    would otherwise make F^2 underflow.  y is first divided by its
    largest component, so |y| itself cannot underflow or overflow.
    """
    top = np.abs(ys).max(axis=-1, keepdims=True)
    w = ys / np.where(top == 0.0, 1.0, top)  # y = 0 stays 0 and fails in F
    nw = lengths(w)
    u = w / np.where(nw == 0.0, 1.0, nw)[:, None]
    h = STEP_SECOND * np.maximum(1.0, lengths(xs))
    step = h[:, None] * u
    (f0,), f_errors = _f(metric, xs, u)
    ((p0, p_up, p_down),), p_errors = _on_stencil(
        lambda a, b: _p(metric, a, b), [(xs, u), (xs + step, u), (xs - step, u)])
    dp = (p_up - p_down) / (2.0 * h)
    f2 = f0 * f0
    flat = ~(f2 > 0.0)  # F = 0, or F^2 underflows (nan: F failed)
    k = np.where(flat, np.nan, (p0 * p0 - dp) / np.where(flat, 1.0, f2))
    return k, first_errors(f_errors, _flagged(flat, "flag curvature requires F^2 > 0"),
                           *p_errors)


def flag_curvature(metric, x, y):
    """K = (P^2 - P_{x^m} y^m) / F^2 with P_x by a directional difference.

    The P field is exact for constructed metrics and a finite difference
    of F otherwise, so the outer differentiation never stacks more than
    one finite-difference level on top of the field.  The formula holds
    only where F is projectively flat; the ``hamel`` check tests that.
    """
    k, errors = _curvature(metric, *as_rows(metric.dimension, x, y))
    raise_first(errors)
    return k


def point_values(metric, x, y):
    """F, P and K at each row of ``x`` and ``y`` (``(N, n)``), and each
    row's first error (F's, then P's, then K's), for ``eval`` and
    ``sample``; a failed row holds nan."""
    xs, ys = as_rows(metric.dimension, x, y)
    (f, p), errors = _fp(metric, xs, ys)
    k, k_errors = _curvature(metric, xs, ys)
    errors = first_errors(errors, k_errors)
    k[[exc is not None for exc in errors]] = np.nan
    return f, p, k, errors


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
    """
    xs, ys = as_rows(metric.dimension, x, y)
    n = xs.shape[1]
    curvature = metric.intended_curvature
    jd = jet(metric, xs, ys)
    hx = STEP_SECOND * np.maximum(1.0, lengths(xs))
    hy = STEP_SECOND * lengths(ys)
    (p_values,), p_errors = _on_stencil(lambda a, b: _p(metric, a, b),
                                        _p_stencil(xs, ys, hx, hy))
    (f_values, pf_values), pf_errors = _on_stencil(
        lambda a, b: _fp(metric, a, b), [(xs, p) for p in gradient_points(ys, hy)])
    raise_first(first_errors(*p_errors, *pf_errors))
    p0 = p_values[0]
    p_x = gradient_from(p_values[1:2 * n + 1], hx)
    p_y = gradient_from(p_values[2 * n + 1:], hy)
    pf_y = gradient_from([p * f for f, p in zip(f_values, pf_values)], hy)

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
        def field(a, b, c=c):
            if c == 0.0:
                return _p(metric, a, b)
            (f, p), fp_errors = _fp(metric, a, b)
            return (p + c * f,), fp_errors
        (values,), field_errors = _on_stencil(field, pairs)
        fields.append(values)
        errors += field_errors
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
    (values,), errors = _on_stencil(lambda a, b: _f(metric, a, b), pairs)
    raise_first(first_errors(*errors))
    hess = hessian_from([0.5 * (v * v) for v in values[1:]], h, xs.shape[1])
    lam_min = np.linalg.eigvalsh(hess).min(axis=-1)
    return np.maximum(-lam_min, -values[0]), lam_min


def check_minkowski(f: HomogeneousFunction, samples: int) -> VerificationReport:
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
    zero = np.zeros(f.dimension)
    return make_report("minkowski", [(zero, u) for u in dirs], np.maximum(-lam, -values[0]),
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
    stage.  Uses the exact projective factor when the evaluator carries
    one.  A start beyond the validity radius raises the point guard's
    DomainError.  A trajectory stops early (flagged) if it or one of its
    stage points leaves the evaluator's domain; the others go on.
    """
    xs0, vs0 = as_rows(metric.dimension, x0, v0)
    if (lengths(vs0) == 0.0).any():
        raise DomainError("geodesic needs a nonzero initial velocity")
    start = lengths(xs0)
    far = metric.beyond_radius(start)
    if far.any():
        raise DomainError(metric.radius_message(start[far][0]))
    h = float(t_end) / int(steps)
    limit = metric.domain_radius
    points = np.zeros((int(steps) + 1,) + xs0.shape)
    velocities = np.zeros_like(points)
    points[0], velocities[0] = xs0, vs0
    taken = np.zeros(len(xs0), dtype=int)
    completed = np.ones(len(xs0), dtype=bool)
    act = np.arange(len(xs0))
    for i in range(int(steps)):
        if not act.size:
            break
        x, v = points[i, act], velocities[i, act]
        sx, sv, slopes = x, v, []
        for coef in (0.5, 0.5, 1.0, None):
            (p,), errors = _p(metric, sx, sv)
            if any(errors):
                raise_first([e for e in errors if not isinstance(e, DomainError)])
                keep = np.array([e is None for e in errors], dtype=bool)
                completed[act[~keep]] = False
                act, x, v, sv, p = act[keep], x[keep], v[keep], sv[keep], p[keep]
                slopes = [(a[keep], b[keep]) for a, b in slopes]
            slopes.append((sv, (-2.0 * p)[:, None] * sv))
            if coef is not None:
                kx, kv = slopes[-1]
                sx, sv = x + coef * h * kx, v + coef * h * kv
        (k1x, k1v), (k2x, k2v), (k3x, k3v), (k4x, k4v) = slopes
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        out = lengths(x) > limit
        if out.any():
            completed[act[out]] = False
            act, x, v = act[~out], x[~out], v[~out]
        points[i + 1, act], velocities[i + 1, act] = x, v
        taken[act] += 1
    return [GeodesicResult(times=np.arange(taken[j] + 1) * h,
                           points=points[:taken[j] + 1, j].copy(),
                           velocities=velocities[:taken[j] + 1, j].copy(),
                           completed=bool(completed[j]))
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
