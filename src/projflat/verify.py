"""Numerical differential checks for metric evaluators.

A metric is treated as a black box ``F(x, y)`` (plus an optional exact
projective-factor callable).  The functions here measure residuals of the
identities that characterize projectively flat metrics of constant flag
curvature:

* Hamel's criterion              F_{x^k} = F_{x^l y^k} y^l
* projective factor              P = F_{x^k} y^k / (2F)
* flag curvature                 K = (P^2 - P_{x^m} y^m) / F^2
* first-order system             F_{x^k} = (PF)_{y^k},
                                 P_{x^k} = P P_{y^k} - (1/3F)(K F^3)_{y^k}
* transport fields               (P + s F)_{x^k} = (P + s F)(P + s F)_{y^k}
                                 with s^2 = -K (complex s when K > 0)
* strong convexity               [F^2/2]_{y^i y^j} positive definite
* geodesic straightness          trajectories of  v' = -2 P(x, v) v  stay
                                 on the line through (x0, v0)

All identity residuals are normalized (absolute residual / (1 + magnitude))
so one tolerance transfers across evaluation scales.  First derivatives use
central differences with step ~ eps^(1/3); second and mixed derivatives use
step ~ eps^(1/4), which keeps their round-off floor near 1e-8 instead of
1e-5.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .norms import HomogeneousFunction, lengths
from .sampling import unit_directions

EPS = float(np.finfo(float).eps)
STEP_FIRST = EPS ** (1.0 / 3.0)
STEP_SECOND = EPS ** 0.25

FAILURE_CAP = 10
MINKOWSKI_EIG_FLOOR = 1e-5


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


def fd_gradient(fun, v, step):
    """Central-difference gradient of a scalar function of one vector."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for k in range(v.size):
        e = np.zeros_like(v)
        e[k] = step
        out[k] = (fun(v + e) - fun(v - e)) / (2.0 * step)
    return out


def _pow2(values):
    """Elementwise ``values ** 2`` through Python's float power.

    libm ``pow`` is not always the correctly rounded ``v * v`` (about one
    square in a thousand differs by an ulp), and one ulp of F^2 divided
    by a squared step reaches the convexity floors; squaring rows this
    way keeps them equal to the per-point path bit for bit.
    """
    values = np.asarray(values, dtype=float)
    return np.array([v ** 2 for v in values.ravel().tolist()]).reshape(values.shape)


def fd_hessian(fun, v, step):
    """Symmetric central-difference Hessian of a scalar function.

    ``v`` is one point ``(n,)`` with a scalar ``step``, or rows ``(N, n)``
    with one step per row; ``fun`` maps an array shaped like ``v`` to the
    values at its points (a scalar, or ``(N,)``), and the result is
    ``(n, n)`` or ``(N, n, n)``.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    step = np.asarray(step, dtype=float)
    step_sq = _pow2(step)[()]  # a lone step divides as a scalar, not a 0-d array
    h = np.zeros(v.shape + (n,))
    f0 = fun(v)
    for i in range(n):
        ei = np.zeros(v.shape)
        ei[..., i] = step
        h[..., i, i] = (fun(v + ei) - 2.0 * f0 + fun(v - ei)) / step_sq
        for j in range(i + 1, n):
            ej = np.zeros(v.shape)
            ej[..., j] = step
            hij = (fun(v + ei + ej) - fun(v + ei - ej)
                   - fun(v - ei + ej) + fun(v - ei - ej)) / (4.0 * step_sq)
            h[..., i, j] = hij
            h[..., j, i] = hij
    return h


@dataclass
class JetData:
    """Value and low-order derivatives of F at one point.

    ``mixed_xy[l, k]`` is d^2 F / dx^l dy^k.
    """

    value: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    mixed_xy: np.ndarray
    hess_yy: np.ndarray
    step_x: float
    step_y: float
    step2_x: float
    step2_y: float


def jet(metric, x, y, h_first=None, h_second=None) -> JetData:
    """Central-difference jet of F at (x, y).

    First derivatives use step ~ eps^(1/3) * scale; mixed and second
    derivatives use their own step ~ eps^(1/4) * scale.  Raises
    DomainError if the stencil leaves the evaluator's domain.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        raise DomainError("jet requires y != 0")
    c1 = h_first if h_first is not None else STEP_FIRST
    c2 = h_second if h_second is not None else STEP_SECOND
    hx = c1 * max(1.0, float(np.linalg.norm(x)))
    hy = c1 * ny
    hx2 = c2 * max(1.0, float(np.linalg.norm(x)))
    hy2 = c2 * ny

    f = lambda xx, yy: metric.eval(xx, yy)
    f0 = f(x, y)
    grad_x = np.zeros(n)
    grad_y = np.zeros(n)
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        grad_x[k] = (f(x + hx * e, y) - f(x - hx * e, y)) / (2.0 * hx)
        grad_y[k] = (f(x, y + hy * e) - f(x, y - hy * e)) / (2.0 * hy)

    mixed = np.zeros((n, n))
    for l in range(n):
        el = np.zeros(n)
        el[l] = 1.0
        for k in range(n):
            ek = np.zeros(n)
            ek[k] = 1.0
            mixed[l, k] = (f(x + hx2 * el, y + hy2 * ek) - f(x + hx2 * el, y - hy2 * ek)
                           - f(x - hx2 * el, y + hy2 * ek) + f(x - hx2 * el, y - hy2 * ek)
                           ) / (4.0 * hx2 * hy2)

    hess = fd_hessian(lambda yy: f(x, yy), y, hy2)
    hess = 0.5 * (hess + hess.T)
    return JetData(value=f0, grad_x=grad_x, grad_y=grad_y, mixed_xy=mixed,
                   hess_yy=hess, step_x=hx, step_y=hy, step2_x=hx2, step2_y=hy2)


# ---------------------------------------------------------------------------
# identity residuals


def hamel_residual(metric, x, y, jet_data=None) -> float:
    """Normalized residual of F_{x^k} - F_{x^l y^k} y^l = 0."""
    jd = jet_data if jet_data is not None else jet(metric, x, y)
    y = np.asarray(y, dtype=float)
    lhs = jd.grad_x - jd.mixed_xy.T @ y
    scale = 1.0 + float(np.abs(jd.grad_x).max())
    return float(np.abs(lhs).max()) / scale


def projective_factor_numeric(metric, x, y) -> float:
    """P = F_{x^k} y^k / (2F) via a directional central difference in x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        raise DomainError("projective factor requires y != 0")
    f0 = metric.eval(x, y)
    if f0 <= 0.0:
        raise DomainError("projective factor requires F > 0")
    h = STEP_FIRST * max(1.0, float(np.linalg.norm(x))) / ny
    dfdt = (metric.eval(x + h * y, y) - metric.eval(x - h * y, y)) / (2.0 * h)
    return float(dfdt / (2.0 * f0))


def projective_factor_field(metric):
    """Callable (x, y) -> P, exact when the evaluator carries one."""
    p_exact = getattr(metric, "p_exact", None)
    if p_exact is not None:
        return lambda x, y: float(p_exact(x, y))
    return lambda x, y: projective_factor_numeric(metric, x, y)


def flag_curvature(metric, x, y, check_hamel=False, hamel_tol=1e-3) -> float:
    """K = (P^2 - P_{x^m} y^m) / F^2 with P_x by a directional difference.

    The P field is exact for constructed metrics and a finite difference
    of F otherwise, so the outer differentiation never stacks more than
    one finite-difference level on top of the field.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if check_hamel:
        res = hamel_residual(metric, x, y)
        if res > hamel_tol:
            warnings.warn(f"flag curvature requested where Hamel residual {res:.3g} "
                          f"exceeds {hamel_tol:.2g}; the scalar formula is unreliable",
                          stacklevel=2)
    p = projective_factor_field(metric)
    ny = float(np.linalg.norm(y))
    f0 = metric.eval(x, y)
    p0 = p(x, y)
    h = STEP_SECOND * max(1.0, float(np.linalg.norm(x))) / ny
    dp = (p(x + h * y, y) - p(x - h * y, y)) / (2.0 * h)
    return float((p0 * p0 - dp) / (f0 * f0))


def berwald_system_residual(metric, x, y, curvature=None):
    """Normalized residuals (r1, r2) of the first-order projective system.

    r1 checks F_{x^k} = (PF)_{y^k}; r2 checks
    P_{x^k} = P P_{y^k} - (1/3F)(K F^3)_{y^k}, with the last term reduced
    to K F F_{y^k} (valid because K is constant here).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if curvature is None:
        curvature = getattr(metric, "intended_curvature", None)
    if curvature is None:
        curvature = flag_curvature(metric, x, y)
    p = projective_factor_field(metric)
    jd = jet(metric, x, y)
    f0 = jd.value
    p0 = p(x, y)

    hx = STEP_SECOND * max(1.0, float(np.linalg.norm(x)))
    hy = STEP_SECOND * float(np.linalg.norm(y))
    p_x = np.zeros(n)
    p_y = np.zeros(n)
    pf_y = np.zeros(n)
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        p_x[k] = (p(x + hx * e, y) - p(x - hx * e, y)) / (2.0 * hx)
        p_y[k] = (p(x, y + hy * e) - p(x, y - hy * e)) / (2.0 * hy)
        pf_y[k] = (p(x, y + hy * e) * metric.eval(x, y + hy * e)
                   - p(x, y - hy * e) * metric.eval(x, y - hy * e)) / (2.0 * hy)

    r1 = float(np.abs(jd.grad_x - pf_y).max()) / (1.0 + float(np.abs(jd.grad_x).max()))
    resid2 = p_x - p0 * p_y + curvature * f0 * jd.grad_y
    r2 = float(np.abs(resid2).max()) / (1.0 + float(np.abs(p_x).max()))
    return r1, r2


def _transport_fields(metric):
    """Scalar fields Phi with Phi_x = Phi * Phi_y for this metric.

    Constructed metrics expose their solver fields through ``aux``;
    otherwise the fields are assembled from P and F using the intended
    curvature: Phi = P for K = 0, P +/- sqrt(-K) F for K < 0, and the
    complex P + i sqrt(K) F for K > 0.
    """
    aux = getattr(metric, "aux", {}) or {}
    if "phi_plus" in aux and "phi_minus" in aux:
        return [aux["phi_plus"], aux["phi_minus"]]
    if "psi_field" in aux:
        return [aux["psi_field"]]
    lam = getattr(metric, "intended_curvature", None)
    if lam is None:
        raise DomainError("transport-field residual needs a curvature target")
    p = projective_factor_field(metric)
    if lam == 0.0:
        return [p]
    if lam < 0.0:
        s = float(np.sqrt(-lam))
        return [lambda x, y: p(x, y) + s * metric.eval(x, y),
                lambda x, y: p(x, y) - s * metric.eval(x, y)]
    s = float(np.sqrt(lam))
    return [lambda x, y: p(x, y) + 1j * s * metric.eval(x, y)]


def master_pde_residual(metric, x, y) -> float:
    """Normalized finite-difference residual of Phi_x = Phi * Phi_y.

    Phi runs over the metric's transport fields (see _transport_fields);
    complex fields are differenced componentwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    hx = STEP_SECOND * max(1.0, float(np.linalg.norm(x)))
    hy = STEP_SECOND * float(np.linalg.norm(y))
    worst = 0.0
    for phi in _transport_fields(metric):
        phi0 = phi(x, y)
        gx = np.zeros(n, dtype=complex)
        gy = np.zeros(n, dtype=complex)
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            gx[k] = (phi(x + hx * e, y) - phi(x - hx * e, y)) / (2.0 * hx)
            gy[k] = (phi(x, y + hy * e) - phi(x, y - hy * e)) / (2.0 * hy)
        resid = np.abs(gx - phi0 * gy).max() / (1.0 + np.abs(gx).max())
        worst = max(worst, float(resid))
    return worst


# ---------------------------------------------------------------------------
# convexity


def convexity_residual(metric, x, u):
    """(residual, min eigenvalue) of the strong-convexity test at (x, u).

    residual = max(-lambda_min, -F): negative when the Hessian of F^2/2
    in y is positive definite and F > 0.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    f0 = metric.eval(x, u)
    half_sq = lambda yy: 0.5 * metric.eval(x, yy) ** 2
    h = fd_hessian(half_sq, u, STEP_SECOND * float(np.linalg.norm(u)))
    lam_min = float(np.linalg.eigvalsh(h).min())
    return max(-lam_min, -float(f0)), lam_min


def convexity_check(metric, x, samples, eig_floor=1e-8) -> VerificationReport:
    """Positive definiteness of [F^2/2]_{yy} over deterministic directions."""
    x = np.asarray(x, dtype=float)
    dirs = unit_directions(metric.dimension, samples)
    residuals = []
    points = []
    min_eig = np.inf
    for u in dirs:
        r, lam = convexity_residual(metric, x, u)
        residuals.append(r)
        points.append((x, u))
        min_eig = min(min_eig, lam)
    return make_report("convexity", points, residuals, tolerance=-eig_floor,
                       extra={"min_eigenvalue": min_eig})


def check_minkowski(f: HomogeneousFunction, samples: int,
                    eig_floor: float = MINKOWSKI_EIG_FLOOR) -> VerificationReport:
    """Strong-convexity and positivity test of a norm over deterministic
    directions.

    At each unit direction the Hessian of f^2/2 is formed by central
    differences (step eps^(1/3), the standard second-difference
    tradeoff) and its minimum eigenvalue recorded.  The per-direction
    residual is max(-lambda_min, -f), so the report passes iff every
    direction has lambda_min >= eig_floor and f >= eig_floor.  All
    directions go through the norm as one ``(samples, n)`` array.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dirs = unit_directions(f.dimension, samples)
    values = f.eval_real(dirs)
    hess = fd_hessian(lambda yy: 0.5 * _pow2(f.eval_real(yy)), dirs,
                      STEP_FIRST * np.maximum(1.0, lengths(dirs)))
    lam = np.linalg.eigvalsh(hess).min(axis=-1)
    zero = np.zeros(f.dimension)
    return make_report("minkowski", [(zero, u) for u in dirs], np.maximum(-lam, -values),
                       tolerance=-eig_floor, extra={"min_eigenvalue": float(lam.min())})


# ---------------------------------------------------------------------------
# geodesics


def geodesic_coefficients_general(metric, x, y) -> np.ndarray:
    """Geodesic coefficients from the metric tensor:

        G^i = (1/4) g^{il} ( [F^2]_{x^m y^l} y^m - [F^2]_{x^l} ),
        g_ij = [F^2/2]_{y^i y^j}.

    Everything comes from the finite-difference jet; for projectively
    flat metrics this must match P(x, y) * y^i.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jd = jet(metric, x, y)
    f0 = jd.value
    g = np.outer(jd.grad_y, jd.grad_y) + f0 * jd.hess_yy
    b = 2.0 * (float(jd.grad_x @ y) * jd.grad_y + f0 * (jd.mixed_xy.T @ y) - f0 * jd.grad_x)
    try:
        sol = np.linalg.solve(g, b)
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


def integrate_geodesic(metric, x0, v0, t_end, steps) -> GeodesicResult:
    """Classic RK4 on (x, v) with v' = -2 P(x, v) v.

    Uses the exact projective factor when the evaluator carries one.
    Integration stops early (flagged) if the trajectory or a stage point
    leaves the evaluator's domain.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if float(np.linalg.norm(v0)) == 0.0:
        raise DomainError("geodesic needs a nonzero initial velocity")
    p = projective_factor_field(metric)
    h = float(t_end) / int(steps)

    def rhs(state):
        x, v = state
        return v, -2.0 * p(x, v) * v

    xs = [x0.copy()]
    vs = [v0.copy()]
    ts = [0.0]
    x, v = x0.copy(), v0.copy()
    completed = True
    for i in range(int(steps)):
        try:
            k1x, k1v = rhs((x, v))
            k2x, k2v = rhs((x + 0.5 * h * k1x, v + 0.5 * h * k1v))
            k3x, k3v = rhs((x + 0.5 * h * k2x, v + 0.5 * h * k2v))
            k4x, k4v = rhs((x + h * k3x, v + h * k3v))
        except DomainError:
            completed = False
            break
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        limit = getattr(metric, "domain_radius", np.inf)
        if float(np.linalg.norm(x)) > limit:
            completed = False
            break
        xs.append(x.copy())
        vs.append(v.copy())
        ts.append((i + 1) * h)
    return GeodesicResult(times=np.asarray(ts), points=np.asarray(xs),
                          velocities=np.asarray(vs), completed=completed)


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
