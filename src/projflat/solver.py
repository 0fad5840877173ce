"""Fixed-point solves for the implicit transport fields, on rows.

The real problem is t = phi(y + x t) for a degree-1 homogeneous phi.
Inside the validity ball |x| < 1/(2 sup|grad phi|) the slope of
t - phi(y + x t) stays in [1/2, 3/2], so it is monotone with a
guaranteed sign change, which ``solve_real`` brackets before its Newton
steps (pure bisection near the kink of the ray y proportional to x,
where phi is not differentiable).  The complex problem
Z = phi(y + x Z) + i psi(y + x Z) is a contraction on the same ball,
where Picard steps converge only linearly; ``solve_complex`` takes
secant steps instead (Anderson acceleration with memory 1; Walker & Ni,
SIAM J. Numer. Anal. 49, 2011).

Both solves run their rows ``(N, n)`` in lockstep, under a mask of the
active ones.  The problems are independent per point, so a row gets
exactly the steps (and bits) it would get in a batch of one, and a row
that fails keeps its own error in ``SolveResult.errors`` while the others
go on.

A small ask is mostly such bookkeeping, so a few masks are skipped where
every row is in one state, with the bits the mask would give: the range
scaling when every y is in range; the Newton ``np.where`` when every row
is active and takes its Newton step; the secant ``np.where`` when every
row takes the secant step; the judge's retry and restart masks when
every row of the round is kept; and the real solve's final failure pass
when every row converged.

A per-row first iterate ``guess``, such as the ray law's prediction from
a nearby solved point, can only shorten a solve: every check and exit
test is unchanged, z0 still sets the complex scale, floor and blow-up,
and a guessed row that does not settle is solved again by the cold path.
A guess within rounding of the root settles on its first step.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SolverError
from .norms import HomogeneousFunction, as_rows, lengths, scale_exponents, times_pow2
from .sampling import unit_directions

_REFINE_FLOOR = 4.0 * float(np.finfo(float).eps)
_MAX_EXPANSIONS = 80
_MIN_DAMPING = 1.0 / 64.0
BRACKET_EXPANSION = 2.0  # bracket width factor per expansion
RADIUS_DIRECTIONS = 256  # unit directions sampled by the radius estimates
RADIUS_MEMO = 128  # origin data whose radius estimates a process keeps
GUESS_STEPS = 2  # steps a guessed row has to settle before it is solved cold


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and safeguarding knobs for the fixed-point solves."""

    tolerance: float = 1e-13
    max_iterations: int = 200

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:  # nan fails both comparisons
            raise ValueError(f"tolerance must be finite and positive; got {self.tolerance}")
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
    x = y = 0, where the kernels give 0).  Each y is brought into
    range by ``scale_exponents``: the solves stop on absolute floors, and
    the fixed point has degree one in y, so ``result`` scales the value,
    eta and residual back by exactly 2^e.  ``x`` and ``y`` are kept in the
    solve's dtype, so a complex solve casts them once, not on every step
    (numpy casts a real operand of a complex product the same way).  The
    loops then call the norms' row kernels, which check nothing.
    """

    def __init__(self, dimension, x, y, dtype):
        x, y = as_rows(dimension, x, y)
        count = len(y)
        self.missing = complex(np.nan, np.nan) if dtype is complex else np.nan
        self.value = np.full(count, self.missing, dtype=dtype)
        self.residual = np.full(count, np.nan)
        self.failed = np.zeros(count, dtype=bool)
        self.errors = [None] * count
        if np.count_nonzero(np.isfinite(x)) + np.count_nonzero(np.isfinite(y)) < 2 * y.size:
            bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1))
            self.fail(bad, DomainError("non-finite vector"))
            x, y = np.where(bad[:, None], 0.0, x), np.where(bad[:, None], 0.0, y)
        self.e = scale_exponents(y)
        self.scaled = bool(np.count_nonzero(self.e))  # whether a row is out of range
        if self.scaled:
            y = times_pow2(y, -self.e[:, None])
        self.x = x.astype(dtype, copy=False)
        self.y = y.astype(dtype, copy=False)

    def fail(self, mask, error):
        """Fail the rows where ``mask`` holds with ``error``, or ``error(i)``."""
        where = mask.nonzero()[0]
        self.failed[where] = True
        for i in where.tolist():
            self.errors[i] = error(i) if callable(error) else error

    def first_iterate(self, cold, guess):
        """Each row's first iterate, ``guess`` (``(N,)``, in the caller's
        scale, or None) where it is finite and the row has not failed, else
        ``cold``; and the mask of the guessed rows, None when there are none."""
        if guess is None:
            return cold, None
        guess = np.asarray(guess, dtype=self.value.dtype)
        if guess.shape != self.value.shape:
            raise DimensionMismatchError(f"guess must have shape {self.value.shape}")
        if self.scaled:
            guess = times_pow2(guess, -self.e)
        guessed = np.isfinite(guess) & ~self.failed
        if not np.count_nonzero(guessed):
            return cold, None
        return np.where(guessed, guess, cold), guessed

    def shifted(self, t):
        """y + x t on every row."""
        return self.y + self.x * t[:, None]

    def result(self, iterations):
        value, residual = self.value, self.residual
        eta = self.shifted(value)  # nan on a failed row
        if self.scaled:
            e = self.e
            value, residual = times_pow2(value, e), times_pow2(residual, e)
            eta = times_pow2(eta, e[:, None])
        return SolveResult(value, eta, residual, int(iterations), self.errors)


def _settle(res, redo, cold):
    """``res`` with the rows of the mask ``redo`` (None: no row), which a
    guessed pass did not settle, taken from ``cold()``, the solve of every
    row without a guess."""
    if redo is None or not np.count_nonzero(redo):
        return res
    again = cold()
    res.value = np.where(redo, again.value, res.value)
    res.residual = np.where(redo, again.residual, res.residual)
    res.eta = np.where(redo[:, None], again.eta, res.eta)
    for i in redo.nonzero()[0].tolist():
        res.errors[i] = again.errors[i]
    res.iterations += again.iterations
    return res


# a non-finite value fails its own row, and the loops go on evaluating rows
# that have already left, so they run without numpy's warnings (a far x
# overflows the shifted argument y + x t)
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_QUIET
def solve_real(phi: HomogeneousFunction, x, y, cfg: SolverConfig = None,
               guess=None) -> SolveResult:
    """Solve t = phi(y + x t) by bracketing plus safeguarded Newton, per row.

    Newton starts from t0 = phi(y), or from the row's finite ``guess``
    (``(N,)``), clipped into the bracket; a guessed row that fails or
    takes more than GUESS_STEPS steps is solved again without its guess.
    A failed row holds nan in its value, eta and residual; one that fails
    the final residual test reports the residual it reached.
    """
    cfg = cfg or DEFAULT_CONFIG
    rows = _Rows(phi.dimension, x, y, float)

    def f(t):
        """The residual t - phi(eta) and the shifted argument eta = y + x t."""
        eta = rows.shifted(t)
        return t - phi._real(eta), eta

    t0 = phi._real(rows.y)
    width = np.maximum(1.0, np.abs(t0))
    lo, hi = t0 - width, t0 + width
    flo, fhi = f(lo)[0], f(hi)[0]
    need = ~rows.failed & ((flo > 0.0) | (fhi < 0.0))  # no sign change yet
    expansions = 0
    while np.count_nonzero(need):
        expansions += 1
        stuck = need if expansions > _MAX_EXPANSIONS else need & ~(
            np.isfinite(flo) & np.isfinite(fhi))
        rows.fail(stuck, SolverError(
            "no sign change within the bracket expansion budget; "
            "the base point is likely outside the validity region"))
        need &= ~stuck
        width = np.where(need, width * BRACKET_EXPANSION, width)
        lo, hi = t0 - width, t0 + width
        flo, fhi = f(lo)[0], f(hi)[0]
        need &= (flo > 0.0) | (fhi < 0.0)

    kink_scale = 1e-9 * (1.0 + lengths(rows.y))
    start, guessed = rows.first_iterate(t0, guess)
    t = np.minimum(np.maximum(start, lo), hi)
    ft, eta = f(t)
    target = cfg.tolerance
    iterations = 0
    steps = 0
    act = ~rows.failed & (np.abs(ft) > _REFINE_FLOOR * (1.0 + np.abs(t)))
    active = np.count_nonzero(act)
    while active:
        if steps == GUESS_STEPS and guessed is not None:  # not settled: solved cold below
            rows.failed |= act & guessed
            act &= ~guessed
            active = np.count_nonzero(act)
            if not active:
                break
        if steps >= cfg.max_iterations:  # every active row has taken ``steps`` steps
            rows.fail(act & (np.abs(ft) > target), lambda i: SolverError(
                f"iteration cap {cfg.max_iterations} exceeded "
                f"(residual {abs(ft[i]):.3e})"))
            break
        steps += 1
        iterations += active
        up = ft > 0.0  # the bracket moves on rows that left too, which read only t
        hi, lo = np.where(up, t, hi), np.where(up, lo, t)
        slope = 1.0 - np.vecdot(phi._grad(eta), rows.x)
        t_new = t - ft / slope
        newton = ((lengths(eta) > kink_scale) & (slope > 1e-12)
                  & (lo < t_new) & (t_new < hi))
        if active == len(t) and np.count_nonzero(newton) == active:
            t = t_new  # every row active and taking its Newton step
        else:
            t = np.where(act, np.where(newton, t_new, 0.5 * (lo + hi)), t)
        ft, eta = f(t)
        floor, size = _REFINE_FLOOR * (1.0 + np.abs(t)), np.abs(ft)
        settled = (hi - lo <= floor) & (size <= target)
        act &= ~settled & (size > floor)
        active = np.count_nonzero(act)

    residual = np.abs(ft)
    if np.count_nonzero(residual <= target) == len(t) and not np.count_nonzero(rows.failed):
        rows.value, rows.residual = t, residual  # every row converged
        return rows.result(iterations)
    rows.fail(~rows.failed & (residual > target), lambda i: SolverError(
        f"fixed-point residual {residual[i]:.3e} above tolerance"))
    done = ~rows.failed
    rows.value = np.where(done, t, rows.value)
    rows.residual = np.where(done, residual, rows.residual)
    return _settle(rows.result(iterations), None if guessed is None else guessed & rows.failed,
                   lambda: solve_real(phi, x, y, cfg))


def _radius(slopes: np.ndarray) -> float:
    worst = float(np.max(slopes, initial=0.0))
    if worst == 0.0:
        return math.inf
    return 1.0 / (2.0 * worst)


def _slopes(grads: np.ndarray) -> np.ndarray:
    """|grad| per row.  A row whose squared length overflows (a huge norm
    parameter) is measured at grad * 2^-e and scaled back by 2^e; every
    other row keeps its bits."""
    with np.errstate(over="ignore"):
        out = lengths(grads)
    huge = np.isinf(out) & np.isfinite(grads).all(axis=-1)
    if huge.any():
        e = scale_exponents(grads[huge])
        out[huge] = times_pow2(lengths(times_pow2(grads[huge], -e[:, None])), e)
    return out


@functools.lru_cache(maxsize=RADIUS_MEMO)
def radius_estimate(phi: HomogeneousFunction) -> float:
    """Validity-ball radius 1 / (2 sup |grad phi|), supremum sampled over
    RADIUS_DIRECTIONS deterministic unit directions.  Infinite for the
    zero function.  Memoized by the value of ``phi``: a process
    estimates each origin datum once, and every later build from an equal
    norm reuses those bits."""
    return _radius(_slopes(phi.grad_real(unit_directions(phi.dimension, RADIUS_DIRECTIONS))))


@functools.lru_cache(maxsize=RADIUS_MEMO)
def pair_radius_estimate(phi: HomogeneousFunction, psi: HomogeneousFunction) -> float:
    """Validity radius for the complex combined map phi + i psi, memoized
    by the value of the pair as ``radius_estimate`` is."""
    dirs = unit_directions(phi.dimension, RADIUS_DIRECTIONS)
    return _radius(np.hypot(_slopes(phi.grad_real(dirs)), _slopes(psi.grad_real(dirs))))


@_QUIET
def solve_complex(phi: HomogeneousFunction, psi: HomogeneousFunction, x, y,
                  cfg: SolverConfig = None, guess=None) -> SolveResult:
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
    is rejected as a branch failure.  A row that leaves the loop waits,
    its z and slope unchanged, until every row of the round has left; one
    evaluation of g then judges them all, and the restarted rows form the
    next round.

    A row with a finite ``guess`` (``(N,)`` complex) starts its first
    round from the guess instead of z0; if it does not leave the round
    within GUESS_STEPS steps, or the round does not keep it, the row is
    solved again without its guess.
    """
    cfg = cfg or DEFAULT_CONFIG
    if psi.dimension != phi.dimension:
        raise DimensionMismatchError("phi and psi must share the dimension")
    rows = _Rows(phi.dimension, x, y, complex)
    count = len(rows.y)

    pair = functools.partial(phi._complex_pair, psi)

    def g(z):
        return pair(rows.shifted(z))

    z0 = pair(rows.y)
    scale = 1.0 + np.abs(z0)
    floor, blow_up = _REFINE_FLOOR * scale, 1e6 * scale
    damping = np.ones(count)
    z, guessed = rows.first_iterate(z0, guess)
    redo = None  # the guessed rows that the first round does not keep
    # the dz and dh of a row's last secant step (nan until it takes one),
    # whose quotient dh/dz is the slope the judge reads
    secant = tuple(np.full((2, count), rows.missing))
    iterations = 0
    # every row of a round starts from z0 together, so they share the step
    # count, and only the first round takes secant steps
    judged, first = ~rows.failed, True
    active = np.count_nonzero(judged)
    while active:
        act = judged
        blown = np.zeros(count, dtype=bool)  # whether a row's last step diverged
        keep = 1.0 - damping
        for steps in range(1, cfg.max_iterations + 1):
            if first and steps > GUESS_STEPS and guessed is not None:
                late = act & guessed  # not settled: left to the cold pass below
                if np.count_nonzero(late):
                    act, judged = act & ~late, judged & ~late
                    active = np.count_nonzero(act)
                    if not active:
                        break
            iterations += active
            val = g(z)
            h = z - val
            res = np.abs(h)
            finite = act & np.isfinite(val)  # not on a parked row, which keeps its z
            # each finite row takes the secant step where it is defined and
            # finite (not on a row's first step, where it is nan), else the
            # Picard step; the Picard step is formed only if a row takes it
            step, taken = z, 0
            if first and steps > 1:
                dz, dh = z - z_prev, h - h_prev
                secant_step = z - h * dz / dh
                take = finite & np.isfinite(secant_step)
                taken = np.count_nonzero(take)
                if taken == count:
                    step, secant = secant_step, (dz, dh)
                elif taken:
                    step = np.where(take, secant_step, z)
                    for last, now in zip(secant, (dz, dh)):  # nothing else holds them
                        np.copyto(last, now, where=take)
            if taken < active:
                picard = keep * z + damping * val
                step = np.where(finite & ~take if taken else finite, picard, step)
            z_prev, h_prev, z = z, h, step
            if steps == cfg.max_iterations:  # every active row leaves at the cap
                stay = np.zeros(count, dtype=bool)
            else:
                stay = finite & ~((res <= floor) | (res > blow_up))
            left = active - np.count_nonzero(stay)
            if left:
                blown |= act & ~stay & (~finite | (res > blow_up))
                act, active = stay, active - left
                if not active:
                    break
        final = np.abs(z - g(z))
        slope = secant[1] / secant[0]
        good = judged & ~blown & (final <= cfg.tolerance)
        wrong = z.imag < -cfg.tolerance * scale
        # a row keeps a converged value on the metric branch, and a secant
        # root only if it also attracts, |g'(Z)| < 1 with g' = 1 - dh/dz (a
        # nan slope, no secant step, passes)
        kept = good & ~wrong & ~(np.abs(1.0 - slope) >= 1.0)
        done = np.count_nonzero(kept)
        if done == count:  # every row kept, in one pass
            rows.value, rows.residual = z, final
            break
        if first and guessed is not None:  # left to the cold pass below
            redo = guessed & ~kept
            judged, good = judged & ~redo, good & ~redo
        # a rejected secant root retries with Picard
        retry = judged & ~np.isnan(slope) & ~kept
        good &= ~retry
        rows.value = np.where(kept, z, rows.value)
        rows.residual = np.where(kept, final, rows.residual)
        if done == np.count_nonzero(judged):
            break  # every row of the round is done
        rows.fail(good & wrong, SolverError(
            "iteration converged to the non-metric branch (negative imaginary part)"))
        again = judged & ~good & ~retry
        damping = np.where(again, damping * 0.5, damping)
        lost = again & (damping < _MIN_DAMPING)
        rows.fail(lost, SolverError(
            "complex fixed-point iteration failed to converge; "
            "the base point is likely outside the validity region"))
        judged, first = retry | (again & ~lost), False
        active = np.count_nonzero(judged)
        z = np.where(judged, z0, z)
        for last in secant:
            np.copyto(last, rows.missing, where=judged)
    return _settle(rows.result(iterations), redo, lambda: solve_complex(phi, psi, x, y, cfg))
