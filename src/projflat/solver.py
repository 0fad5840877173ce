"""Fixed-point solves for the implicit transport fields.

The scalar real problem is: given a degree-1 homogeneous phi, find the
unique t with

    t = phi(y + x t),

equivalently the root of f(t) = t - phi(y + x t).  Inside the validity
ball |x| < 1/(2 sup|grad phi|) the slope of f stays in [1/2, 3/2], so f is
monotone with a guaranteed sign change: the solver expands a bracket from
t0 = phi(y) and then runs Newton steps safeguarded by bisection (analytic
gradients supply f'; near the kink of the degenerate ray y proportional
to x it falls back to pure bisection).

The complex problem Z = phi(y + x Z) + i psi(y + x Z) is solved by damped
Picard iteration seeded at phi(y) + i psi(y); the map is a contraction on
the same ball.

First derivatives of the solved field follow from implicit
differentiation:

    P_{y^k} = phi_{eta^k}(eta) / (1 - <grad phi(eta), x>),
    P_{x^k} = P * P_{y^k},

the second line being the defining transport identity Phi_x = Phi Phi_y.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .norms import HomogeneousFunction, lengths
from .sampling import unit_directions

_REFINE_FLOOR = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and safeguarding knobs for the fixed-point solves."""

    tolerance: float = 1e-13
    max_iterations: int = 200
    bracket_expansion: float = 2.0
    damping: float = 1.0

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


DEFAULT_CONFIG = SolverConfig()


@dataclass
class SolveResult:
    """Converged fixed-point value with its shifted argument and residual."""

    value: complex
    eta: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _value_at(phi: HomogeneousFunction, w: np.ndarray) -> float:
    # degree-1 homogeneity forces phi -> 0 at the origin
    if not w.any():
        return 0.0
    return phi.eval_real(w)


def solve_real(phi: HomogeneousFunction, x, y, cfg: SolverConfig = None) -> SolveResult:
    """Solve t = phi(y + x t) by bracketing plus safeguarded Newton."""
    cfg = cfg or DEFAULT_CONFIG
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)

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
        width *= cfg.bracket_expansion
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
    return SolveResult(value=float(t), eta=y + x * t, residual=float(residual),
                       iterations=iterations, converged=True)


def implicit_derivatives(phi: HomogeneousFunction, res: SolveResult, x, y):
    """Exact first derivatives (P_y, P_x) of the solved field at (x, y)."""
    if not res.converged:
        raise SolverError("implicit derivatives need a converged solve")
    x = np.asarray(x, dtype=float).reshape(-1)
    grad = phi.grad_real(res.eta)
    denom = 1.0 - float(grad @ x)
    if denom < 1e-8:
        raise DomainError("implicit-derivative denominator vanishes; "
                          "the point sits on the validity boundary")
    p_y = grad / denom
    p_x = res.value * p_y
    return p_y, p_x


def _radius(slopes: np.ndarray) -> float:
    worst = float(np.max(slopes, initial=0.0))
    if worst == 0.0:
        return math.inf
    return 1.0 / (2.0 * worst)


def radius_estimate(phi: HomogeneousFunction, samples: int = 256) -> float:
    """Validity-ball radius 1 / (2 sup |grad phi|), supremum sampled over
    deterministic unit directions.  Infinite for the zero function."""
    return _radius(lengths(phi.grad_real(unit_directions(phi.dimension, samples))))


def pair_radius_estimate(phi: HomogeneousFunction, psi: HomogeneousFunction,
                         samples: int = 256) -> float:
    """Validity radius for the complex combined map phi + i psi."""
    dirs = unit_directions(phi.dimension, samples)
    return _radius(np.hypot(lengths(phi.grad_real(dirs)), lengths(psi.grad_real(dirs))))


def _pair_value(phi, psi, w: np.ndarray) -> complex:
    if not w.any():
        return 0j
    return complex(phi.eval_complex(w) + 1j * psi.eval_complex(w))


def solve_complex(phi: HomogeneousFunction, psi: HomogeneousFunction, x, y,
                  cfg: SolverConfig = None) -> SolveResult:
    """Solve Z = phi(y + x Z) + i psi(y + x Z) by damped Picard iteration.

    Seeded at phi(y) + i psi(y); the damping halves on divergence.  The
    metric branch Im Z >= 0 is enforced: a converged value with negative
    imaginary part is rejected as a branch failure.
    """
    cfg = cfg or DEFAULT_CONFIG
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)

    def g(zz):
        return _pair_value(phi, psi, y + x * zz)

    z0 = _pair_value(phi, psi, y)
    scale = 1.0 + abs(z0)
    damping = cfg.damping
    total_iters = 0
    for _ in range(8):
        z = z0
        best = math.inf
        diverged = False
        for _ in range(cfg.max_iterations):
            total_iters += 1
            val = g(z)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                diverged = True
                break
            res = abs(z - val)
            best = min(best, res)
            z = (1.0 - damping) * z + damping * val
            if res <= _REFINE_FLOOR * scale:
                break
            if res > 1e6 * scale:
                diverged = True
                break
        final = abs(z - g(z))
        if not diverged and final <= cfg.tolerance:
            if z.imag < -cfg.tolerance * scale:
                raise SolverError("iteration converged to the non-metric branch "
                                  "(negative imaginary part)")
            return SolveResult(value=complex(z), eta=y + x * z, residual=float(final),
                               iterations=total_iters, converged=True)
        damping *= 0.5
        if damping < 1.0 / 64.0:
            break
    raise SolverError("complex fixed-point iteration failed to converge; "
                      "the base point is likely outside the validity region")
