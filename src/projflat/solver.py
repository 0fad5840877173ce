"""Fixed-point solves for the implicit transport fields, on rows.

The real problem is: given a degree-1 homogeneous phi, find the unique t
with

    t = phi(y + x t),

equivalently the root of f(t) = t - phi(y + x t).  Inside the validity
ball |x| < 1/(2 sup|grad phi|) the slope of f stays in [1/2, 3/2], so f is
monotone with a guaranteed sign change: the solver expands a bracket from
t0 = phi(y) and then runs Newton steps safeguarded by bisection (analytic
gradients supply f'; near the kink of the degenerate ray y proportional
to x it falls back to pure bisection).

The complex problem Z = g(Z) = phi(y + x Z) + i psi(y + x Z) is solved by
fixed-point iteration seeded at phi(y) + i psi(y); g is a contraction on
the same ball.  Picard steps converge only linearly there, so each row
takes secant steps on the residual h = z - g(z) (Anderson acceleration
with memory 1; Walker & Ni, SIAM J. Numer. Anal. 49, 2011), which
converge superlinearly without a derivative, and falls back to damped
Picard iteration when its secant root fails a check or does not attract.

Both solves take rows ``x``, ``y`` of shape ``(N, n)``, and only rows,
and run every row in lockstep with numpy, each row masked out once it is
done: the problems are independent per point, so a row gets exactly the
steps (and bits) it would get in a batch of one.  A row that fails keeps
its own error in ``SolveResult.errors`` and the others go on.

Each solve checks its rows once, at entry, and brings each y into range
by a power of two (see ``_Rows``); the Newton, bracket and complex
fixed-point loops then call the norms' row kernels (``_real``,
``_grad``, ``_complex``), which skip the checks and the rescale of the
public norm methods.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SolverError
from .norms import (HomogeneousFunction, as_rows, lengths, scale_exponents,
                    times_pow2)
from .sampling import unit_directions

_REFINE_FLOOR = 4.0 * float(np.finfo(float).eps)
_MAX_EXPANSIONS = 80
_MIN_DAMPING = 1.0 / 64.0
BRACKET_EXPANSION = 2.0  # bracket width factor per expansion
RADIUS_DIRECTIONS = 256  # unit directions sampled by the radius estimates


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and safeguarding knobs for the fixed-point solves."""

    tolerance: float = 1e-13
    max_iterations: int = 200

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass
class SolveResult:
    """Fixed-point values with their shifted arguments and residuals.

    ``value`` and ``residual`` are ``(N,)`` arrays, ``eta`` is ``(N, n)``
    and ``errors[i]`` is row i's SolverError (or the DomainError of a row
    with a non-finite input), None where the row converged; a failed row
    holds nan.  ``iterations`` counts Newton steps, or the complex solve's
    secant and Picard steps (a fallback's included), summed over rows.
    """

    value: np.ndarray
    eta: np.ndarray
    residual: np.ndarray
    iterations: int
    errors: list


class _Rows:
    """Per-row inputs, outputs and failures of one solve.

    The inputs are checked here, once per solve: ``x`` and ``y`` are rows
    ``(N, dimension)`` of one shape (``as_rows``), and a row with a
    non-finite component fails with a DomainError (and is held at
    x = y = 0, which no loop visits).  Each y is brought into range by
    ``scale_exponents``: the solves stop on absolute floors, and the
    fixed point has degree one in y, so ``result`` scales the value, eta
    and residual back by exactly 2^e.  The loops then call the norms'
    row kernels, which check nothing.
    """

    def __init__(self, dimension, x, y, dtype):
        x, y = as_rows(dimension, x, y)
        count = len(y)
        self.missing = complex(np.nan, np.nan) if dtype is complex else np.nan
        self.value = np.full(count, self.missing, dtype=dtype)
        self.residual = np.full(count, np.nan)
        self.failed = np.zeros(count, dtype=bool)
        self.errors = [None] * count
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1))
        if bad.any():
            self.fail(np.flatnonzero(bad), DomainError("non-finite vector"))
            x, y = np.where(bad[:, None], 0.0, x), np.where(bad[:, None], 0.0, y)
        self.e = scale_exponents(y)
        self.x, self.y = x, times_pow2(y, -self.e[:, None])

    def fail(self, rows, error):
        for i in rows:
            self.failed[i] = True
            self.errors[i] = error(i) if callable(error) else error

    def live(self, rows):
        """The rows that have not failed."""
        return rows[~self.failed[rows]]

    def shifted(self, rows, t):
        """y + x t on ``rows``."""
        return self.y[rows] + self.x[rows] * t[:, None]

    def result(self, iterations):
        done = ~self.failed
        eta = np.full(self.y.shape, self.missing, dtype=self.value.dtype)
        eta[done] = self.shifted(done, self.value[done])
        e = self.e
        value, residual = times_pow2(self.value, e), times_pow2(self.residual, e)
        eta = times_pow2(eta, e[:, None])
        return SolveResult(value, eta, residual, int(iterations), self.errors)


def _at(kernel, w, nonzero):
    """``kernel`` on the points ``w``; 0 where ``nonzero(w)`` is False,
    since degree-1 homogeneity forces the value to 0 at the origin."""
    keep = nonzero(w)
    if keep.all():
        return kernel(w)
    out = np.zeros(len(w), dtype=w.dtype)
    if keep.any():
        out[keep] = kernel(w[keep])
    return out


def _real_nonzero(w):
    return np.vecdot(w, w) != 0.0  # the real kernels need a nonzero squared length


def _complex_nonzero(w):
    return w.any(axis=-1)


# a non-finite value fails its own row, so the loops run without numpy's
# warnings (a far x overflows the shifted argument y + x t)
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_QUIET
def solve_real(phi: HomogeneousFunction, x, y, cfg: SolverConfig = None) -> SolveResult:
    """Solve t = phi(y + x t) by bracketing plus safeguarded Newton, per row."""
    cfg = cfg or DEFAULT_CONFIG
    rows = _Rows(phi.dimension, x, y, float)
    every = np.arange(len(rows.y))

    def f(act, t):
        return t - _at(phi._real, rows.shifted(act, t), _real_nonzero)

    def bracket(act):
        """lo, hi and f there on ``act``; the rows without a sign change."""
        lo[act], hi[act] = t0[act] - width[act], t0[act] + width[act]
        flo[act] = f(act, lo[act])
        fhi[act] = f(act, hi[act])
        return act[(flo[act] > 0.0) | (fhi[act] < 0.0)]

    t0 = _at(phi._real, rows.y, _real_nonzero)
    width = np.maximum(1.0, np.abs(t0))
    lo, hi, flo, fhi = (np.full(len(every), np.nan) for _ in range(4))
    expansions = np.zeros(len(every), dtype=int)
    act = bracket(rows.live(every))
    while act.size:
        expansions[act] += 1
        stuck = (expansions[act] > _MAX_EXPANSIONS) | ~(
            np.isfinite(flo[act]) & np.isfinite(fhi[act]))
        rows.fail(act[stuck], SolverError(
            "no sign change within the bracket expansion budget; "
            "the base point is likely outside the validity region"))
        act = act[~stuck]
        width[act] *= BRACKET_EXPANSION
        act = bracket(act)

    kink_scale = 1e-9 * (1.0 + lengths(rows.y))
    t = np.minimum(np.maximum(t0, lo), hi)
    act = rows.live(every)
    ft = np.full(len(every), np.nan)
    ft[act] = f(act, t[act])
    target = cfg.tolerance
    iterations = 0
    steps = 0
    act = act[np.abs(ft[act]) > _REFINE_FLOOR * (1.0 + np.abs(t[act]))]
    while act.size:
        if steps >= cfg.max_iterations:  # every live row has taken ``steps`` steps
            over = act[np.abs(ft[act]) > target]
            rows.fail(over, lambda i: SolverError(
                f"iteration cap {cfg.max_iterations} exceeded "
                f"(residual {abs(ft[i]):.3e})"))
            break
        steps += 1
        iterations += act.size
        ta, fa = t[act], ft[act]
        up = fa > 0.0
        hi[act[up]] = ta[up]
        lo[act[~up]] = ta[~up]
        la, ha = lo[act], hi[act]
        xa = rows.x[act]
        eta = rows.y[act] + xa * ta[:, None]
        t_next = 0.5 * (la + ha)
        newton = np.flatnonzero(lengths(eta) > kink_scale[act])
        if newton.size:
            slope = 1.0 - np.vecdot(phi._grad(eta[newton]), xa[newton])
            newton, slope = newton[slope > 1e-12], slope[slope > 1e-12]
            t_new = ta[newton] - fa[newton] / slope
            inside = (la[newton] < t_new) & (t_new < ha[newton])
            t_next[newton[inside]] = t_new[inside]
        t[act] = t_next
        ft[act] = f(act, t_next)
        width_now = hi[act] - lo[act]
        floor = _REFINE_FLOOR * (1.0 + np.abs(t[act]))
        settled = (width_now <= floor) & (np.abs(ft[act]) <= target)
        act = act[~settled & (np.abs(ft[act]) > floor)]

    done = rows.live(every)
    rows.value[done] = t[done]
    rows.residual[done] = np.abs(ft[done])
    loose = done[rows.residual[done] > target]
    rows.fail(loose, lambda i: SolverError(
        f"fixed-point residual {rows.residual[i]:.3e} above tolerance"))
    return rows.result(iterations)


def _radius(slopes: np.ndarray) -> float:
    worst = float(np.max(slopes, initial=0.0))
    if worst == 0.0:
        return math.inf
    return 1.0 / (2.0 * worst)


def radius_estimate(phi: HomogeneousFunction) -> float:
    """Validity-ball radius 1 / (2 sup |grad phi|), supremum sampled over
    RADIUS_DIRECTIONS deterministic unit directions.  Infinite for the
    zero function."""
    return _radius(lengths(phi.grad_real(unit_directions(phi.dimension, RADIUS_DIRECTIONS))))


def pair_radius_estimate(phi: HomogeneousFunction, psi: HomogeneousFunction) -> float:
    """Validity radius for the complex combined map phi + i psi."""
    dirs = unit_directions(phi.dimension, RADIUS_DIRECTIONS)
    return _radius(np.hypot(lengths(phi.grad_real(dirs)), lengths(psi.grad_real(dirs))))


@_QUIET
def solve_complex(phi: HomogeneousFunction, psi: HomogeneousFunction, x, y,
                  cfg: SolverConfig = None) -> SolveResult:
    """Solve Z = phi(y + x Z) + i psi(y + x Z) by secant-accelerated
    fixed-point iteration, with damped Picard iteration as the fallback.

    Each row is seeded at z0 = phi(y) + i psi(y).  On its first attempt it
    takes the secant step z - h (z - z_prev) / (h - h_prev) on the
    residual h = z - g(z) wherever that step is defined and finite, and
    the plain Picard step z <- g(z) otherwise (always on the first step).
    A row that took a secant step keeps its root only if it passes the
    checks below and attracts, |g'(Z)| < 1 with g' = 1 - dh/dz from the
    last secant slope; any other such row restarts from z0 on the Picard
    path.  On that path a row restarts from z0 with half its damping when
    its iteration diverges, stalls above the tolerance or hits the
    iteration cap, down to a damping of 1/64.  The metric branch
    Im Z >= 0 is enforced: a converged value with negative imaginary part
    is rejected as a branch failure.
    """
    cfg = cfg or DEFAULT_CONFIG
    if psi.dimension != phi.dimension:
        raise DimensionMismatchError("phi and psi must share the dimension")
    rows = _Rows(phi.dimension, x, y, complex)
    every = np.arange(len(rows.y))

    def pair(w):
        return phi._complex(w) + 1j * psi._complex(w)

    def g(act, z):
        return _at(pair, rows.shifted(act, z), _complex_nonzero)

    z0 = _at(pair, rows.y.astype(complex), _complex_nonzero)
    scale = 1.0 + np.abs(z0)
    damping = np.ones(len(every))
    z = z0.copy()
    count = np.zeros(len(every), dtype=int)
    secant = np.ones(len(every), dtype=bool)  # rows on their accelerated attempt
    # the previous iterate and residual, and the slope dh/dz of the last
    # secant step (nan until the row takes one)
    z_prev, h_prev, slope = (np.full(len(every), rows.missing) for _ in range(3))
    iterations = 0
    act = rows.live(every)
    while act.size:
        iterations += act.size
        count[act] += 1
        val = g(act, z[act])
        za = z[act]
        h = za - val
        finite = np.isfinite(val)
        res = np.abs(h)
        sa, da = scale[act], damping[act]
        step = np.where(finite, (1.0 - da) * za + da * val, za)
        dz, dh = za - z_prev[act], h - h_prev[act]
        secant_step = za - h * dz / dh  # nan on a row's first step
        take = secant[act] & finite & np.isfinite(secant_step)
        z[act] = np.where(take, secant_step, step)
        slope[act] = np.where(take, dh / dz, slope[act])
        z_prev[act], h_prev[act] = za, h
        diverged = ~finite | (res > 1e6 * sa)
        converged = finite & (res <= _REFINE_FLOOR * sa)
        leave = diverged | converged | (count[act] >= cfg.max_iterations)
        out, diverged = act[leave], diverged[leave]
        act = act[~leave]
        if not out.size:
            continue
        final = np.abs(z[out] - g(out, z[out]))
        good = ~diverged & (final <= cfg.tolerance)
        wrong = z[out].imag < -cfg.tolerance * scale[out]
        # a secant root is kept only if it passes the checks and attracts,
        # |g'(Z)| < 1 with g' = 1 - dh/dz; else the row retries with Picard
        retry = ~np.isnan(slope[out]) & ~(good & ~wrong & (np.abs(1.0 - slope[out]) < 1.0))
        good &= ~retry
        ok, final, wrong = out[good], final[good], wrong[good]
        rows.fail(ok[wrong], SolverError(
            "iteration converged to the non-metric branch (negative imaginary part)"))
        rows.value[ok[~wrong]] = z[ok[~wrong]]
        rows.residual[ok[~wrong]] = final[~wrong]
        again = out[~good & ~retry]
        damping[again] *= 0.5
        lost = damping[again] < _MIN_DAMPING
        rows.fail(again[lost], SolverError(
            "complex fixed-point iteration failed to converge; "
            "the base point is likely outside the validity region"))
        again = np.concatenate([out[retry], again[~lost]])
        z[again] = z0[again]
        count[again] = 0
        secant[again] = False
        slope[again] = rows.missing
        act = np.concatenate([act, again])
    return rows.result(iterations)
