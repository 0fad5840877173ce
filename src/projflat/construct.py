"""Metric builders from origin data.

Given a Minkowski norm psi and a degree-1 homogeneous drift datum phi,
three constructions produce locally projectively flat metrics whose flag
curvature is the stated constant and whose origin data is exactly
(psi, phi) = (F(0, .), P(0, .)):

* curvature 0:   P = solve of P = phi(y + x P),
                 F = psi(y + x P) / (1 - <grad phi(y + x P), x>)
                 (the divisor equals 1 + P_{y^k} x^k)
* curvature -1:  Phi_± = solves for phi ± psi,
                 F = (Phi_+ - Phi_-)/2,  P = (Phi_+ + Phi_-)/2
* curvature +1:  Z = complex solve of Z = (phi + i psi)(y + x Z),
                 F = Im Z,  P = Re Z

Every evaluator owns an open validity ball |x| < 0.8 * r where r is the
sampled contraction-radius estimate of its solve(s); evaluations beyond
it raise DomainError instead of returning garbage.

The builders do not vet psi: ``verify.check_minkowski(psi, 64)["pass"]``
is False, and the ``convexity`` check of the built metric fails, for a
psi that is not a Minkowski norm.

``MetricEvaluator.rows`` is the one way to evaluate a metric, on rows
``(N, n)``, and every metric kind passes its rows through its one point
guard.  A constructed metric's P is exact, from the same solve as its F;
a closed form's P is the difference quotient P = F_{x^k} y^k / (2F) of
``p_numeric`` (Shen).  Nothing else leaves a solve: the transport fields
that ``verify`` checks are built from F, P and the stated curvature alone.

A closed form keeps exactly one ``eval`` call per F row: the tests'
``EVALS_PER_POINT`` table and the benchmark's tracer pin those calls per
point, and a formula on whole arrays would change them, so such formulas
wait until the benchmark counts rows instead.  Each call costs about its
own arithmetic: the formulas take the 1-D float rows as they are, with no
conversion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, ProjFlatError
from .norms import (CombinedNorm, HomogeneousFunction, as_rows, combine, lengths,
                    scale_exponents, times_pow2)
from .solver import (SolverConfig, pair_radius_estimate, radius_estimate,
                     solve_complex, solve_real)

DOMAIN_SAFETY = 0.8
STEP_FIRST = float(np.finfo(float).eps) ** (1.0 / 3.0)  # first differences of F
NON_FINITE = "x and y must be finite, with finite squared lengths"
ZERO_Y = "y = 0 is outside the metric domain"
P_OVERFLOWS = "projective factor overflows at this point"


@dataclass
class RowValues:
    """Values at N points.

    ``f`` and ``p`` are ``(N,)`` arrays when asked for (None otherwise),
    nan on the rows their mask leaves out.  ``errors[i]`` is the error row
    i raises on its own, F's before P's, None where it evaluated or was
    asked for nothing; a failed row holds nan.
    """

    f: np.ndarray
    p: np.ndarray
    errors: list


def first_errors(*error_lists) -> list:
    """Per row, the first error of several per-row error lists, in order."""
    if not any(map(any, error_lists)):
        return [None] * len(error_lists[0])
    return [next((exc for exc in row if exc is not None), None) for row in zip(*error_lists)]


def error_free(errors) -> np.ndarray:
    """The rows of a per-row error list that have no error, as a mask."""
    if not any(errors):
        return np.ones(len(errors), dtype=bool)
    return np.array([exc is None for exc in errors], dtype=bool)


def raise_first(errors) -> None:
    """Raise the first error of a per-row error list, if there is one."""
    for exc in errors:
        if exc is not None:
            raise exc


@dataclass(frozen=True)
class MetricEvaluator:
    """A metric F(x, y) and its projective factor P(x, y).

    ``kind`` is one of constructed-K0 / constructed-Kneg1 /
    constructed-Kpos1 / catalog:<name> / test:broken, and
    ``intended_curvature`` its constant flag curvature K.  ``rows`` guards
    the points of every kind and gives F and P on each.  A closed form
    carries ``f_eval``, its formula at one point on 1-D float rows, which
    ``rows`` calls through ``eval`` once per guarded F row and, for the
    numeric P, at three points per P row (the count that the tests and the
    benchmark's tracer check, which is why the formulas are not yet
    written on arrays); a constructed metric carries ``solve``, which
    maps the guarded rows ``x``, ``y``, the masks of the rows asked for
    F and P and a per-row guess ``(F, P)`` (or None) to
    ``(F, P, errors)`` (see RowValues) from one solve per row, as
    ``_formula`` does; its F and P may fill rows not asked, which
    ``rows`` blanks.  The solve maps the guess to its unknown (P at
    K = 0, P +- F at K = -1, P + iF at K = +1) and hands it to the solver
    as its first iterate, which can only shorten the solve.
    """

    kind: str
    dimension: int
    intended_curvature: float
    f_eval: object = None
    solve: object = None
    domain_radius: float = math.inf

    def beyond_radius(self, length):
        """Whether |x| = ``length`` lies beyond the validity radius."""
        return length > self.domain_radius * (1.0 + 1e-12)

    def radius_message(self, length):
        return (f"|x| = {length:.6g} exceeds the validity radius "
                f"{self.domain_radius:.6g} of this evaluator")

    def guard(self, x, y, with_f):
        """The point guard of ``rows`` at each row, the radius on the rows
        that the mask ``with_f`` asks for F (on none if it is False): the
        mask of the rows that pass, and y's squared lengths and |x| for
        ``guard_error``."""
        with np.errstate(over="ignore"):  # an overflow is reported per row
            squares, length = np.vecdot(y, y), lengths(x)
            # both are >= 0 (or nan), so their sum is finite iff both are
            passes = np.isfinite(squares + length) & (squares != 0.0)
        if with_f is not False:
            passes &= ~(self.beyond_radius(length) & with_f)
        return passes, squares, length

    def guard_error(self, squares, length, i):
        """The DomainError of row i, which fails the point guard."""
        squares, length = float(squares[i]), float(length[i])
        return DomainError(NON_FINITE if not math.isfinite(squares + length) else ZERO_Y
                           if squares == 0.0 else self.radius_message(length))

    def rows(self, x, y, with_f=True, with_p=False, guess=None) -> RowValues:
        """F on the rows ``with_f`` asks for and P on the rows ``with_p``
        asks for, at each row of ``x`` and ``y`` (both ``(N, n)``; any other
        shape is a DimensionMismatchError).

        An ask is a bool for every row or an ``(N,)`` bool mask, and
        ``rows`` picks its own path: all rows as they are when every row is
        asked and passes the guard, else the passing rows gathered once.
        ``f`` and ``p`` hold nan on the rows not asked for them, and are None
        when their ask is False; a row asked for neither is skipped.
        ``guess``, a pair ``(F, P)`` of ``(N,)`` arrays or None, predicts
        each row's values, as the ray law does from a nearby solved point:
        a constructed metric starts each row's solve from it where it is
        finite (see ``solver``), which moves a value by no more than the
        solve's exit floor, and a closed form ignores it.  Every
        metric kind passes each asked row through this one point guard:
        finite x, y and squared lengths, y != 0 (a y whose length underflows
        counts as zero) and, on the rows asked for F, the validity radius.
        P is not radius-guarded: a constructed P extends beyond the
        guaranteed ball wherever bracketing succeeds, and a closed form's
        numeric P guards the points of its own quotient.  The rows go to the
        constructed metric's solve, or to a closed form's ``_formula``.  A
        constructed row whose asked F or P comes out not finite fails with a
        DomainError that names the field, as a closed form's F does in
        ``_formula``.  A failed row gets nan and its own error; the other
        rows are unaffected.
        """
        x, y = as_rows(self.dimension, x, y)
        f_rows, p_rows = (ask if isinstance(ask, np.ndarray) else np.full(len(y), ask)
                          for ask in (with_f, with_p))
        f_asked, p_asked = (isinstance(ask, np.ndarray) or bool(ask) for ask in (with_f, with_p))
        passes, squares, length = self.guard(x, y, f_rows if f_asked else False)
        asked = f_rows | p_rows
        ok = passes & asked
        solve = self._formula if self.solve is None else self.solve
        if np.count_nonzero(ok) == len(ok):  # no gather and no per-row Python
            f, p, errors = solve(x, y, f_rows, p_rows, guess)
        else:
            errors = [None] * len(y)
            for i in (~passes & asked).nonzero()[0].tolist():
                errors[i] = self.guard_error(squares, length, i)
            (f, p), at = np.full((2, len(y)), np.nan), ok.nonzero()[0]
            if len(at):
                if guess is not None:
                    guess = guess[0][at], guess[1][at]
                f[at], p[at], solved = solve(x[at], y[at], f_rows[at], p_rows[at], guess)
                for i, exc in zip(at.tolist(), solved):
                    errors[i] = exc
        if self.solve is not None:  # a solve gives F and P on every row it solves
            for name, values, want, asked in (("F", f, f_rows, f_asked), ("P", p, p_rows, p_asked)):
                if not asked:  # a field asked on no row is not returned
                    continue
                count = np.count_nonzero(want)
                values[~want] = np.nan
                # a row not asked holds nan, so every asked row is finite iff the counts agree
                if np.count_nonzero(np.isfinite(values)) == count:
                    continue
                for i in (~np.isfinite(values) & want).nonzero()[0].tolist():
                    if errors[i] is None:
                        errors[i] = DomainError(f"{self.kind} gives {name} = {values[i]} at this point")
                        f[i] = p[i] = np.nan
        return RowValues(f if f_asked else None, p if p_asked else None, errors)

    def _formula(self, x, y, with_f, with_p, guess=None):
        """A closed form's rows solve: ``eval`` on each guarded row that the
        mask ``with_f`` asks for, then the numeric P (``p_numeric``) on the
        rows that ``with_p`` asks for; a guess is ignored.  A formula's own
        error, a math overflow or domain error in it, or a non-finite F
        fails its row alone; a row's error is F's, else P's."""
        (f, p), errors, at = np.full((2, len(y)), np.nan), [None] * len(y), with_f.nonzero()[0]
        if len(at):
            f_eval, values = self.eval, []  # looked up once: one eval call per F row
            for i, xi, yi in zip(at.tolist(), x.take(at, 0), y.take(at, 0)):
                try:
                    values.append(f_eval(xi, yi))
                    continue
                except ProjFlatError as exc:
                    errors[i] = exc.with_traceback(None)  # no frame cycle
                except (ArithmeticError, ValueError) as exc:  # math's, on this row's values
                    fault = "overflows" if isinstance(exc, OverflowError) else f"fails ({exc})"
                    errors[i] = DomainError(f"{self.kind} formula {fault} at this point")
                values.append(math.nan)
            f[at] = values
            # a Python float product overflows to inf without raising
            for i in (~np.isfinite(f) & with_f).nonzero()[0].tolist():
                if errors[i] is None:
                    errors[i] = DomainError(f"{self.kind} formula gives F = {f[i]} at this point")
                    f[i] = math.nan
        at = with_p.nonzero()[0]
        if len(at):
            p[at], p_errors = p_numeric(self, x.take(at, 0), y.take(at, 0))
            for i, exc in zip(at.tolist(), p_errors):
                errors[i] = errors[i] or exc
        return f, p, errors

    def eval(self, x, y) -> float:
        """A closed form's formula at one point, for a row that already
        passed the point guard in ``rows``; callers use ``rows``.  A
        constructed metric evaluates on rows only."""
        if self.f_eval is None:
            raise ProjFlatError(f"{self.kind} evaluates on rows only; use rows()")
        return float(self.f_eval(x, y))


def flagged(mask, message):
    """A DomainError(message) on the rows where ``mask`` holds, else None."""
    if not np.logical_or.reduce(mask):
        return [None] * len(mask)
    return [DomainError(message) if flag else None for flag in mask]


def p_numeric(metric, x, y):
    """P = F_{x^k} y^k / (2F) on rows by a central difference of F along
    y in x, step STEP_FIRST max(1, |x|) / |y|, and each row's first error.
    F comes from one ``rows`` call at (x, y) and x +- step y, so a point of
    the quotient beyond the validity radius fails its row; a zero y takes
    step 0 and fails the point guard at (x, y)."""
    n = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row fails in ``rows``
        ny = lengths(y)
        h = STEP_FIRST * np.maximum(1.0, lengths(x)) / np.where(ny == 0.0, 1.0, ny)
        step = h[:, None] * y
    values = metric.rows(np.concatenate((x, x + step, x - step), axis=1).reshape(-1, n),
                         np.repeat(y, 3, axis=0))
    f0, f_up, f_down = (values.f[k::3] for k in range(3))
    e0, e_up, e_down = (values.errors[k::3] for k in range(3))
    with np.errstate(over="ignore"):  # F_{x^k} y^k ~ |y|^2 overflows near |y| = 1.3e154
        dfdt = (f_up - f_down) / (2.0 * h)
    overflows = np.isinf(dfdt)
    dfdt[overflows] = np.nan
    errors = first_errors(e0, flagged(f0 <= 0.0, "projective factor requires F > 0"),  # nan: failed
                          e_up, e_down, flagged(overflows, P_OVERFLOWS))
    with np.errstate(divide="ignore", invalid="ignore"):  # F <= 0 is flagged
        return dfdt / (2.0 * f0), errors


# an F or P that overflows fails its own row in ``rows``
_QUIET = np.errstate(over="ignore", invalid="ignore")


def _same_dimension(psi, phi) -> None:
    if psi.dimension != phi.dimension:
        raise DimensionMismatchError("psi and phi must share the dimension")


def build_k0(psi: HomogeneousFunction, phi: HomogeneousFunction,
             cfg: SolverConfig = None) -> MetricEvaluator:
    """Flat (curvature 0) metric from origin data (psi, phi)."""
    _same_dimension(psi, phi)

    @_QUIET
    def solve(x, y, with_f, with_p, guess=None):
        res = solve_real(phi, x, y, cfg, None if guess is None else guess[1])
        errors, f = res.errors, np.full(len(y), np.nan)
        live = error_free(errors) & with_f  # F, and its error, only where asked
        if np.count_nonzero(live):
            # a guarded row's eta is finite and nonzero, so the kernels take it
            # at eta 2^-e and F scales back by 2^e, as the public norm methods
            # would compute it, without their checks
            e = scale_exponents(res.eta[live])
            eta = times_pow2(res.eta[live], -e[:, None])
            denom = 1.0 - np.vecdot(phi._grad(eta), x[live])
            vanishes = denom < 1e-8
            if vanishes.any():
                for i in np.flatnonzero(live)[vanishes]:
                    errors[i] = DomainError("construction denominator vanishes")
                live[live] = ~vanishes
                eta, e, denom = eta[~vanishes], e[~vanishes], denom[~vanishes]
            f[live] = times_pow2(psi._real(eta), e) / denom
        return f, res.value, errors

    return MetricEvaluator(
        kind="constructed-K0", dimension=psi.dimension, solve=solve,
        intended_curvature=0.0, domain_radius=DOMAIN_SAFETY * radius_estimate(phi))


_SIGNS = np.array([1.0, -1.0])


def build_kneg1(psi: HomogeneousFunction, phi: HomogeneousFunction,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature -1 metric from origin data (psi, phi)."""
    _same_dimension(psi, phi)
    f_plus = combine((1.0, phi), (1.0, psi))
    f_minus = combine((1.0, phi), (-1.0, psi))
    radius = min(radius_estimate(f_plus), radius_estimate(f_minus))

    @_QUIET
    def solve(x, y, with_f, with_p, guess=None):
        # one solve of phi + sign psi on the rows stacked twice: Phi_+ on the
        # first copy (sign +1), Phi_- on the second (sign -1)
        half = len(y)
        both = CombinedNorm(psi.dimension, ((1.0, phi), (_SIGNS.repeat(half), psi)))
        if guess is not None:
            f, p = guess
            guess = np.concatenate((p + f, p - f))
        res = solve_real(both, np.concatenate((x, x)), np.concatenate((y, y)), cfg, guess)
        a, b = res.value[:half], res.value[half:]
        errors = first_errors(res.errors[:half], res.errors[half:])
        return 0.5 * (a - b), 0.5 * (a + b), errors

    return MetricEvaluator(
        kind="constructed-Kneg1", dimension=psi.dimension, solve=solve,
        intended_curvature=-1.0, domain_radius=DOMAIN_SAFETY * radius)


def build_kpos1(psi: HomogeneousFunction, phi: HomogeneousFunction,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature +1 metric from origin data (psi, phi)."""
    _same_dimension(psi, phi)
    radius = pair_radius_estimate(phi, psi)

    def solve(x, y, with_f, with_p, guess=None):
        if guess is not None:  # Z = P + iF, built without a product that an inf F turns to nan
            f, p = guess
            guess = p.astype(complex)
            guess.imag = f
        res = solve_complex(phi, psi, x, y, cfg, guess)
        return res.value.imag, res.value.real, res.errors

    return MetricEvaluator(
        kind="constructed-Kpos1", dimension=psi.dimension, solve=solve,
        intended_curvature=1.0, domain_radius=DOMAIN_SAFETY * radius)


def broken_metric(dimension: int = 2) -> MetricEvaluator:
    """Negative control: F = |y| + 0.1 x^1 (y^1)^2 / |y|.

    Degree-1 homogeneous in y but not projectively flat, so the Hamel
    residual check must reject it; guards the test harness against
    trivially passing sweeps.  It perturbs the flat F(0, y) = |y|, so it
    states K = 0, which the curvature, berwald and pde checks reject too.
    """
    def f_value(x, y):
        ny = math.sqrt(y.dot(y))  # np.linalg.norm's arithmetic on a 1-D row
        return ny + 0.1 * float(x[0]) * float(y[0]) ** 2 / ny

    return MetricEvaluator(kind="test:broken", dimension=dimension,
                           f_eval=f_value, intended_curvature=0.0)
