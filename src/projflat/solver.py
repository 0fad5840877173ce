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

The complex problem Z = phi(y + x Z) + i psi(y + x Z) is solved by damped
Picard iteration seeded at phi(y) + i psi(y); the map is a contraction on
the same ball.

Both solves take rows ``x``, ``y`` of shape ``(N, n)`` and run every row
in lockstep with numpy, each row masked out once it is done: the
problems are independent per point, so a row gets exactly the steps (and
bits) it would get alone.  A row that fails keeps its own error in
``SolveResult.errors`` and the others go on.  One vector ``(n,)`` is a
single row that raises its error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .norms import HomogeneousFunction, lengths, per_row
from .sampling import unit_directions

_REFINE_FLOOR = 4.0 * float(np.finfo(float).eps)
_MAX_EXPANSIONS = 80
_MIN_DAMPING = 1.0 / 64.0
BRACKET_EXPANSION = 2.0  # bracket width factor per expansion


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

    For rows, ``value`` and ``residual`` are ``(N,)`` arrays, ``eta`` is
    ``(N, n)`` and ``errors[i]`` is row i's SolverError (or the library
    error its norm call raised), None where the row converged; a failed
    row holds nan.  For one vector they are scalars, ``(n,)`` and
    ``[None]``.  ``iterations`` counts Newton or Picard steps, summed
    over rows.
    """

    value: object
    eta: np.ndarray
    residual: object
    iterations: int
    errors: list


class _Rows:
    """Per-row inputs, outputs and failures of one solve."""

    def __init__(self, x, y, dtype):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.lone = y.ndim == 1
        self.x, self.y = np.atleast_2d(x), np.atleast_2d(y)
        count = len(self.y)
        self.missing = complex(np.nan, np.nan) if dtype is complex else np.nan
        self.value = np.full(count, self.missing, dtype=dtype)
        self.residual = np.full(count, np.nan)
        self.failed = np.zeros(count, dtype=bool)
        self.errors = [None] * count

    def fail(self, rows, error):
        for i in rows:
            self.failed[i] = True
            self.errors[i] = error(i) if callable(error) else error

    def live(self, rows):
        """The rows that have not failed."""
        return rows[~self.failed[rows]]

    def evaluate(self, fn, rows, w, nonzero):
        """``fn`` on the points ``w`` of ``rows``; 0 where ``nonzero(w)`` is
        False, since degree-1 homogeneity forces fn -> 0 at the origin.  A
        row that makes ``fn`` raise fails with that error."""
        keep = nonzero(w)
        out = np.zeros(len(rows), dtype=self.value.dtype)
        if keep.any():
            values, errors = per_row(fn, w[keep])
            out[keep] = values
            for i, exc in zip(rows[keep], errors):
                if exc is not None:
                    self.fail([i], exc)
        return out

    def shifted(self, rows, t):
        """y + x t on ``rows``."""
        return self.y[rows] + self.x[rows] * t[:, None]

    def result(self, iterations):
        done = ~self.failed
        eta = np.full(self.y.shape, self.missing, dtype=self.value.dtype)
        eta[done] = self.shifted(done, self.value[done])
        if not self.lone:
            return SolveResult(self.value, eta, self.residual, int(iterations), self.errors)
        if self.errors[0] is not None:
            raise self.errors[0]
        return SolveResult(self.value[0].item(), eta[0], float(self.residual[0]),
                           int(iterations), [None])


def _real_nonzero(w):
    return np.vecdot(w, w) != 0.0  # the norms reject a squared length of 0


def _complex_nonzero(w):
    return w.any(axis=-1)


def solve_real(phi: HomogeneousFunction, x, y, cfg: SolverConfig = None) -> SolveResult:
    """Solve t = phi(y + x t) by bracketing plus safeguarded Newton, per row."""
    cfg = cfg or DEFAULT_CONFIG
    rows = _Rows(x, y, float)
    every = np.arange(len(rows.y))

    def f(act, t):
        return t - rows.evaluate(phi.eval_real, act, rows.shifted(act, t), _real_nonzero)

    def bracket(act):
        """lo, hi and f there on ``act``; f(hi) only where f(lo) succeeded."""
        lo[act], hi[act] = t0[act] - width[act], t0[act] + width[act]
        flo[act] = f(act, lo[act])
        act = rows.live(act)
        fhi[act] = f(act, hi[act])
        act = rows.live(act)
        return act[(flo[act] > 0.0) | (fhi[act] < 0.0)]

    t0 = rows.evaluate(phi.eval_real, every, rows.y, _real_nonzero)
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
    act = rows.live(act)
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
            slope = 1.0 - np.vecdot(phi.grad_real(eta[newton]), xa[newton])
            newton, slope = newton[slope > 1e-12], slope[slope > 1e-12]
            t_new = ta[newton] - fa[newton] / slope
            inside = (la[newton] < t_new) & (t_new < ha[newton])
            t_next[newton[inside]] = t_new[inside]
        t[act] = t_next
        ft[act] = f(act, t_next)
        act = rows.live(act)
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


def radius_estimate(phi: HomogeneousFunction, samples: int = 256) -> float:
    """Validity-ball radius 1 / (2 sup |grad phi|), supremum sampled over
    deterministic unit directions.  Infinite for the zero function."""
    return _radius(lengths(phi.grad_real(unit_directions(phi.dimension, samples))))


def pair_radius_estimate(phi: HomogeneousFunction, psi: HomogeneousFunction,
                         samples: int = 256) -> float:
    """Validity radius for the complex combined map phi + i psi."""
    dirs = unit_directions(phi.dimension, samples)
    return _radius(np.hypot(lengths(phi.grad_real(dirs)), lengths(psi.grad_real(dirs))))


def solve_complex(phi: HomogeneousFunction, psi: HomogeneousFunction, x, y,
                  cfg: SolverConfig = None) -> SolveResult:
    """Solve Z = phi(y + x Z) + i psi(y + x Z) by damped Picard iteration.

    Each row is seeded at phi(y) + i psi(y) with damping 1 (plain Picard
    steps) and restarts from there with half its damping when its
    iteration diverges, stalls above the tolerance or hits the iteration
    cap.  The metric branch Im Z >= 0 is enforced: a converged value with
    negative imaginary part is rejected as a branch failure.
    """
    cfg = cfg or DEFAULT_CONFIG
    rows = _Rows(x, y, complex)
    every = np.arange(len(rows.y))

    def pair(w):
        return phi.eval_complex(w) + 1j * psi.eval_complex(w)

    def g(act, z):
        return rows.evaluate(pair, act, rows.shifted(act, z), _complex_nonzero)

    z0 = rows.evaluate(pair, every, rows.y, _complex_nonzero)
    scale = 1.0 + np.abs(z0)
    damping = np.ones(len(every))
    z = z0.copy()
    count = np.zeros(len(every), dtype=int)
    iterations = 0
    act = rows.live(every)
    while act.size:
        iterations += act.size
        count[act] += 1
        val = g(act, z[act])
        live = ~rows.failed[act]
        act, val = act[live], val[live]
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
        kept = ~rows.failed[out]
        out, final, diverged = out[kept], final[kept], diverged[kept]
        good = ~diverged & (final <= cfg.tolerance)
        ok, final = out[good], final[good]
        wrong = z[ok].imag < -cfg.tolerance * scale[ok]
        rows.fail(ok[wrong], SolverError(
            "iteration converged to the non-metric branch (negative imaginary part)"))
        rows.value[ok[~wrong]] = z[ok[~wrong]]
        rows.residual[ok[~wrong]] = final[~wrong]
        again = out[~good]
        damping[again] *= 0.5
        lost = damping[again] < _MIN_DAMPING
        rows.fail(again[lost], SolverError(
            "complex fixed-point iteration failed to converge; "
            "the base point is likely outside the validity region"))
        again = again[~lost]
        z[again] = z0[again]
        count[again] = 0
        act = np.concatenate([act, again])
    return rows.result(iterations)
