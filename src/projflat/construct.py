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

``MetricEvaluator.rows`` evaluates N points, rows ``x`` and ``y`` of
shape ``(N, n)``, at once; it is the one way to evaluate a metric, and it
gives F and P on every metric kind.  Every kind passes its rows through
one point guard there.  ``with_f`` and ``with_p`` each ask for their
field on every row or, as a per-row mask, on some rows only, so one call
can serve a stencil whose points want F, P or both.  A constructed metric
then solves the rows that passed together, once per point for F and P
both, and its P is exact; a closed form runs its formula on its F rows
point by point (``eval``), and its P is the difference quotient
P = F_{x^k} y^k / (2F) of ``p_numeric`` (Shen).  Nothing else leaves a
solve: the transport fields that ``verify`` checks are built from F, P
and the stated curvature alone.

A closed form keeps exactly one ``eval`` call per F row: the tests'
``EVALS_PER_POINT`` table and the benchmark's tracer count those calls,
so formulas on whole arrays wait until the benchmark counts rows instead
(ROADMAP.md, items 2 and 4).  Each call costs about its own arithmetic:
the formulas take the 1-D float rows as they are, with no conversion.
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
    maps the guarded rows ``x``, ``y`` and the mask of rows asked for F to
    ``(F, P, errors)`` (see RowValues) from one solve per row; its F and P
    may hold values on rows not asked for, which ``rows`` blanks.
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

    def rows(self, x, y, with_f=True, with_p=False) -> RowValues:
        """F on the rows ``with_f`` asks for and P on the rows ``with_p``
        asks for, at each row of ``x`` and ``y`` (both ``(N, n)``; any other
        shape is a DimensionMismatchError).

        ``with_f`` and ``with_p`` are each a bool for every row or an
        ``(N,)`` bool array.  ``f`` and ``p`` hold nan on the rows not asked
        for them, and are None when their flag is False; a row asked for
        neither is skipped.  Every metric kind passes each asked row through
        this one point guard: finite x, y and squared lengths, y != 0 (a y
        whose length underflows counts as zero) and, on the rows asked for
        F, the validity radius.  P is not radius-guarded: a constructed P
        extends beyond the guaranteed ball wherever bracketing succeeds, and
        a closed form's numeric P guards the points of its own quotient.
        The rows that pass go to the constructed metric's solve, or to a
        closed form's ``_formula``.  A constructed row whose asked F or P
        comes out not finite fails with a DomainError that names the field,
        as a closed form's F does in ``_formula``.  A failed row gets nan and
        its own error; the other rows are unaffected.
        """
        x, y = as_rows(self.dimension, x, y)
        per_f, per_p = isinstance(with_f, np.ndarray), isinstance(with_p, np.ndarray)
        with np.errstate(over="ignore"):  # an overflow is reported per row
            squares, length = np.vecdot(y, y), lengths(x)
            # both are >= 0 (or nan), so their sum is finite iff both are
            passes = np.isfinite(squares + length) & (squares != 0.0)
        if per_f or with_f:
            passes &= ~(self.beyond_radius(length) & with_f)
        asked = with_f | with_p
        ok = passes if asked is True else passes & asked
        solve = self._formula if self.solve is None else lambda x, y, f, _: self.solve(x, y, f)
        if np.count_nonzero(ok) == len(ok):  # no per-row Python when every row passes
            f, p, errors = solve(x, y, with_f, with_p)
        else:
            errors = [None] * len(y)
            for i in np.flatnonzero(~passes & asked):
                yy, r = float(squares[i]), float(length[i])
                errors[i] = DomainError(NON_FINITE if not math.isfinite(yy + r) else ZERO_Y
                                        if yy == 0.0 else self.radius_message(r))
            f, p = np.full(len(y), np.nan), np.full(len(y), np.nan)
            if ok.any():
                f, p, solved = solve(x[ok], y[ok], with_f[ok] if per_f else with_f,
                                     with_p[ok] if per_p else with_p)
                for i, exc in zip(np.flatnonzero(ok), solved):
                    errors[i] = exc
                f, p = _spread(f, ok), _spread(p, ok)
        if self.solve is not None:  # a solve gives F and P on every row it solves
            f = np.where(with_f, f, np.nan) if per_f else f
            p = np.where(with_p, p, np.nan) if per_p else p
            for name, values, want, per in (("F", f, with_f, per_f), ("P", p, with_p, per_p)):
                # a row not asked holds nan, so every asked row is finite iff the counts agree
                if not (per or want) or np.count_nonzero(np.isfinite(values)) == (
                        np.count_nonzero(want) if per else len(values)):
                    continue
                for i in np.flatnonzero(~np.isfinite(values) & want).tolist():
                    if errors[i] is None:
                        errors[i] = DomainError(f"{self.kind} gives {name} = {values[i]} at this point")
                        f[i] = p[i] = np.nan
        return RowValues(f if per_f or with_f else None, p if per_p or with_p else None, errors)

    def _formula(self, x, y, with_f, with_p):
        """A closed form's rows solve: ``eval`` on each guarded row asked
        for F, then the numeric P (``p_numeric``) on the rows asked for P.
        A formula's own error, a math overflow or domain error in it, or a
        non-finite F fails its row alone; a row's error is F's, else P's."""
        per_row, f, p, errors = isinstance(with_f, np.ndarray), None, None, [None] * len(y)
        if per_row or with_f:
            at = np.flatnonzero(with_f) if per_row else slice(None)
            index = at.tolist() if per_row else range(len(y))
            f_eval, values = self.eval, []  # looked up once: one eval call per F row
            for i, xi, yi in zip(index, x[at], y[at]):
                try:
                    values.append(f_eval(xi, yi))
                    continue
                except ProjFlatError as exc:
                    errors[i] = exc.with_traceback(None)  # no frame cycle
                except (ArithmeticError, ValueError) as exc:  # math's, on this row's values
                    fault = "overflows" if isinstance(exc, OverflowError) else f"fails ({exc})"
                    errors[i] = DomainError(f"{self.kind} formula {fault} at this point")
                values.append(math.nan)
            f = np.full(len(y), np.nan)
            f[at] = values
            # a Python float product overflows to inf without raising
            for k in np.flatnonzero(~np.isfinite(f[at])).tolist():
                i = index[k]
                if errors[i] is None:
                    errors[i] = DomainError(f"{self.kind} formula gives F = {f[i]} at this point")
                    f[i] = math.nan
        if isinstance(with_p, np.ndarray):
            p = np.full(len(y), np.nan)
            p[with_p], p_errors = p_numeric(self, x[with_p], y[with_p])
            for i, exc in zip(np.flatnonzero(with_p), p_errors):
                errors[i] = errors[i] or exc
        elif with_p:
            p, p_errors = p_numeric(self, x, y)
            errors = first_errors(errors, p_errors)
        return f, p, errors

    def eval(self, x, y) -> float:
        """A closed form's formula at one point, for a row that already
        passed the point guard in ``rows``; callers use ``rows``.  A
        constructed metric evaluates on rows only."""
        if self.f_eval is None:
            raise ProjFlatError(f"{self.kind} evaluates on rows only; use rows()")
        return float(self.f_eval(x, y))


def _spread(values, ok):
    """Values of the rows where ``ok`` holds, nan elsewhere; None stays None."""
    if values is None:
        return None
    out = np.full(ok.shape, np.nan)
    out[ok] = values
    return out


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
    def solve(x, y, with_f):
        res = solve_real(phi, x, y, cfg)
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
    def solve(x, y, with_f):
        # one solve of phi + sign psi on the rows stacked twice: Phi_+ on the
        # first copy (sign +1), Phi_- on the second (sign -1)
        half = len(y)
        both = CombinedNorm(psi.dimension, ((1.0, phi), (_SIGNS.repeat(half), psi)))
        res = solve_real(both, np.concatenate((x, x)), np.concatenate((y, y)), cfg)
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

    def solve(x, y, with_f):
        res = solve_complex(phi, psi, x, y, cfg)
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
