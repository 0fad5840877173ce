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
so one tolerance transfers across evaluation scales.  Every first-derivative
stencil goes through ``fd_gradient``: derivatives of F use step
~ eps^(1/3), derivatives of the P field (itself a difference quotient
unless the evaluator carries an exact one) and the mixed and second
derivatives of F use step ~ eps^(1/4), which keeps their round-off floor
near 1e-8 instead of 1e-5.

The geodesic check cannot fail: v' = -2 P(x, v) v keeps v parallel to v0
for any P, so every trajectory stays on its line whatever the metric (the
negative control ``test:broken`` passes it at 5e-16).  It exercises the
integrator and the domain guards, not projective flatness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .norms import (EPS, STEP_FIRST, VerificationReport, fd_hessian,
                    make_report)
from .sampling import unit_directions

STEP_SECOND = EPS ** 0.25


# ---------------------------------------------------------------------------
# finite-difference primitives


def fd_gradient(fun, v, step):
    """Central-difference gradient of a scalar function of one vector.

    The result has the dtype of ``fun``'s values, so complex fields keep
    their imaginary parts.
    """
    v = np.asarray(v, dtype=float)
    diffs = []
    for k in range(v.size):
        e = np.zeros_like(v)
        e[k] = step
        diffs.append((fun(v + e) - fun(v - e)) / (2.0 * step))
    return np.array(diffs)


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


def jet(metric, x, y) -> JetData:
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
    sx = max(1.0, float(np.linalg.norm(x)))
    hx, hy = STEP_FIRST * sx, STEP_FIRST * ny
    hx2, hy2 = STEP_SECOND * sx, STEP_SECOND * ny

    f = metric.eval
    f0 = f(x, y)
    grad_x = fd_gradient(lambda xx: f(xx, y), x, hx)
    grad_y = fd_gradient(lambda yy: f(x, yy), y, hy)

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
    return JetData(value=f0, grad_x=grad_x, grad_y=grad_y, mixed_xy=mixed, hess_yy=hess)


# ---------------------------------------------------------------------------
# identity residuals


def hamel_residual(metric, x, y) -> float:
    """Normalized residual of F_{x^k} - F_{x^l y^k} y^l = 0."""
    jd = jet(metric, x, y)
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


def flag_curvature(metric, x, y) -> float:
    """K = (P^2 - P_{x^m} y^m) / F^2 with P_x by a directional difference.

    The P field is exact for constructed metrics and a finite difference
    of F otherwise, so the outer differentiation never stacks more than
    one finite-difference level on top of the field.  The formula holds
    only where F is projectively flat; the ``hamel`` check tests that.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = projective_factor_field(metric)
    ny = float(np.linalg.norm(y))
    f0 = metric.eval(x, y)
    p0 = p(x, y)
    h = STEP_SECOND * max(1.0, float(np.linalg.norm(x))) / ny
    dp = (p(x + h * y, y) - p(x - h * y, y)) / (2.0 * h)
    return float((p0 * p0 - dp) / (f0 * f0))


def berwald_system_residual(metric, x, y):
    """Normalized residuals (r1, r2) of the first-order projective system.

    r1 checks F_{x^k} = (PF)_{y^k}; r2 checks
    P_{x^k} = P P_{y^k} - (1/3F)(K F^3)_{y^k}, with the last term reduced
    to K F F_{y^k} (valid because K is constant here).  K is the intended
    curvature, or the numeric K at (x, y) for a metric without one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    curvature = getattr(metric, "intended_curvature", None)
    if curvature is None:
        curvature = flag_curvature(metric, x, y)
    p = projective_factor_field(metric)
    jd = jet(metric, x, y)
    f0 = jd.value
    p0 = p(x, y)

    hx = STEP_SECOND * max(1.0, float(np.linalg.norm(x)))
    hy = STEP_SECOND * float(np.linalg.norm(y))
    p_x = fd_gradient(lambda xx: p(xx, y), x, hx)
    p_y = fd_gradient(lambda yy: p(x, yy), y, hy)
    pf_y = fd_gradient(lambda yy: p(x, yy) * metric.eval(x, yy), y, hy)

    r1 = float(np.abs(jd.grad_x - pf_y).max()) / (1.0 + float(np.abs(jd.grad_x).max()))
    resid2 = p_x - p0 * p_y + curvature * f0 * jd.grad_y
    r2 = float(np.abs(resid2).max()) / (1.0 + float(np.abs(p_x).max()))
    return r1, r2


def _transport_fields(metric, x, y):
    """Scalar fields Phi with Phi_x = Phi * Phi_y for this metric.

    Constructed metrics expose their solver fields through ``aux``;
    otherwise the fields are assembled from P and F using the intended
    curvature (the numeric K at (x, y) when there is none): Phi = P for
    K = 0, P +/- sqrt(-K) F for K < 0, and the complex P + i sqrt(K) F
    for K > 0.
    """
    aux = getattr(metric, "aux", {}) or {}
    if "phi_plus" in aux and "phi_minus" in aux:
        return [aux["phi_plus"], aux["phi_minus"]]
    if "psi_field" in aux:
        return [aux["psi_field"]]
    lam = getattr(metric, "intended_curvature", None)
    if lam is None:
        lam = flag_curvature(metric, x, y)
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
    complex fields are differenced in complex arithmetic.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx = STEP_SECOND * max(1.0, float(np.linalg.norm(x)))
    hy = STEP_SECOND * float(np.linalg.norm(y))
    worst = 0.0
    for phi in _transport_fields(metric, x, y):
        phi0 = phi(x, y)
        gx = fd_gradient(lambda xx: phi(xx, y), x, hx)
        gy = fd_gradient(lambda yy: phi(x, yy), y, hy)
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
