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

The builders do not vet psi: ``verify.check_minkowski(psi, 64)``, or the
``convexity`` check of the built metric, reports a psi that is not a
Minkowski norm.

``MetricEvaluator.rows`` evaluates N points, rows ``x`` and ``y`` of
shape ``(N, n)``, at once; it is the one way to evaluate a metric.  Every
metric kind passes its rows through one point guard there.  A constructed
metric then solves the rows that passed together, once per point for F
and P both; a closed form runs its formula on them point by point
(``eval``).  Nothing else leaves a solve: the transport fields that
``verify`` checks are built from F, P and the stated curvature alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, ProjFlatError
from .norms import HomogeneousFunction, as_rows, combine, lengths
from .solver import (SolverConfig, pair_radius_estimate, radius_estimate,
                     solve_complex, solve_real)

DOMAIN_SAFETY = 0.8
NON_FINITE = "x and y must be finite, with finite squared lengths"


@dataclass
class RowValues:
    """Values at N points.

    ``f`` and ``p`` are ``(N,)`` arrays when asked for (None otherwise).
    ``errors[i]`` is the error row i raises on its own, None where it
    evaluated; a failed row holds nan.
    """

    f: np.ndarray
    p: np.ndarray
    errors: list


def first_errors(*error_lists) -> list:
    """Per row, the first error of several per-row error lists, in order."""
    if not any(map(any, error_lists)):
        return [None] * len(error_lists[0])
    return [next((exc for exc in row if exc is not None), None) for row in zip(*error_lists)]


def raise_first(errors) -> None:
    """Raise the first error of a per-row error list, if there is one."""
    for exc in errors:
        if exc is not None:
            raise exc


@dataclass(frozen=True)
class MetricEvaluator:
    """A metric F(x, y), with exact projective factor when constructed.

    ``kind`` is one of constructed-K0 / constructed-Kneg1 /
    constructed-Kpos1 / catalog:<name> / test:broken, and
    ``intended_curvature`` its constant flag curvature K.  ``rows`` guards
    the points of every kind.  A closed form carries ``f_eval``, its
    formula at one point, which ``rows`` calls through ``eval`` once per
    guarded row; a constructed metric carries ``solve``, which maps the
    guarded rows ``x``, ``y`` and whether F is wanted to
    ``(F, P, errors)`` (see RowValues) from one solve per row.
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
        """F, and the exact P when ``with_p``, at each row of ``x`` and ``y``
        (both ``(N, n)``; any other shape is a DimensionMismatchError).

        Every metric kind passes each row through this one point guard:
        finite x, y and squared lengths, y != 0 (a y whose length
        underflows counts as zero) and, when F is asked for, the validity
        radius.  P is not radius-guarded: the fixed point extends beyond
        the guaranteed ball wherever bracketing succeeds, and the solve
        fails honestly where it does not.  The rows that pass go to the
        constructed metric's solve, or one at a time to a closed form's
        formula (``eval``); a closed form has no exact P.  A failed row
        gets nan and its own error (see RowValues); the other rows are
        unaffected.
        """
        x, y = as_rows(self.dimension, x, y)
        if self.solve is None and with_p:
            raise ProjFlatError(f"{self.kind} has no exact projective factor; "
                                "use the numeric fallback in verify")
        errors = [None] * len(y)
        with np.errstate(over="ignore"):  # an overflow is reported per row
            squares, length = np.vecdot(y, y), lengths(x)
        for i in np.flatnonzero(~(np.isfinite(squares) & np.isfinite(length))):
            errors[i] = DomainError(NON_FINITE)
        for i in np.flatnonzero(squares == 0.0):
            errors[i] = errors[i] or DomainError("y = 0 is outside the metric domain")
        if with_f:
            for i in np.flatnonzero(self.beyond_radius(length)):
                errors[i] = errors[i] or DomainError(self.radius_message(length[i]))
        ok = np.array([exc is None for exc in errors], dtype=bool)
        f, p, solved = (self.solve or self._formula)(x[ok], y[ok], with_f)
        for i, exc in zip(np.flatnonzero(ok), solved):
            errors[i] = exc
        return RowValues(_spread(f, ok) if with_f else None,
                         _spread(p, ok) if with_p else None, errors)

    def _formula(self, x, y, with_f):
        """A closed form's rows solve: ``eval`` on each guarded row, a
        formula's own error failing its row alone."""
        f = np.full(len(y), np.nan)
        errors = [None] * len(y)
        for i in range(len(y)):
            try:
                f[i] = self.eval(x[i], y[i])
            except ProjFlatError as exc:
                errors[i] = exc.with_traceback(None)  # no frame cycle
        return f, None, errors

    def eval(self, x, y) -> float:
        """A closed form's formula at one point, for a row that already
        passed the point guard in ``rows``; callers use ``rows``.  A
        constructed metric evaluates on rows only."""
        if self.f_eval is None:
            raise ProjFlatError(f"{self.kind} evaluates on rows only; use rows()")
        return float(self.f_eval(x, y))


def _spread(values, ok):
    """Values of the rows where ``ok`` holds, nan on the others."""
    out = np.full(ok.shape, np.nan)
    out[ok] = values
    return out


def _domain_from(radius: float) -> float:
    return math.inf if math.isinf(radius) else DOMAIN_SAFETY * radius


def _same_dimension(psi, phi) -> None:
    if psi.dimension != phi.dimension:
        raise DimensionMismatchError("psi and phi must share the dimension")


def build_k0(psi: HomogeneousFunction, phi: HomogeneousFunction,
             cfg: SolverConfig = None) -> MetricEvaluator:
    """Flat (curvature 0) metric from origin data (psi, phi)."""
    _same_dimension(psi, phi)

    def solve(x, y, with_f):
        res = solve_real(phi, x, y, cfg)
        errors = list(res.errors)
        f = None
        if with_f:  # a guarded row's eta is finite and nonzero
            live = np.flatnonzero([exc is None for exc in errors])
            denom = 1.0 - np.vecdot(phi.grad_real(res.eta[live]), x[live])
            vanishes = denom < 1e-8
            for i in live[vanishes]:
                errors[i] = DomainError("construction denominator vanishes")
            rest = live[~vanishes]
            f = np.full(len(y), np.nan)
            f[rest] = psi.eval_real(res.eta[rest]) / denom[~vanishes]
        return f, res.value, errors

    return MetricEvaluator(
        kind="constructed-K0", dimension=psi.dimension, solve=solve,
        intended_curvature=0.0, domain_radius=_domain_from(radius_estimate(phi)))


def build_kneg1(psi: HomogeneousFunction, phi: HomogeneousFunction,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature -1 metric from origin data (psi, phi)."""
    _same_dimension(psi, phi)
    f_plus = combine((1.0, phi), (1.0, psi))
    f_minus = combine((1.0, phi), (-1.0, psi))
    radius = min(radius_estimate(f_plus), radius_estimate(f_minus))

    def solve(x, y, with_f):
        # one solve on the rows stacked twice: Phi_+ on the first copy, Phi_- on the second
        res = solve_real((f_plus, f_minus), np.vstack((x, x)), np.vstack((y, y)), cfg)
        half = len(y)
        a, b = res.value[:half], res.value[half:]
        errors = [e or e_minus for e, e_minus in zip(res.errors[:half], res.errors[half:])]
        return 0.5 * (a - b), 0.5 * (a + b), errors

    return MetricEvaluator(
        kind="constructed-Kneg1", dimension=psi.dimension, solve=solve,
        intended_curvature=-1.0, domain_radius=_domain_from(radius))


def build_kpos1(psi: HomogeneousFunction, phi: HomogeneousFunction,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature +1 metric from origin data (psi, phi)."""
    _same_dimension(psi, phi)
    radius = pair_radius_estimate(phi, psi)

    def solve(x, y, with_f):
        res = solve_complex(phi, psi, x, y, cfg)
        return res.value.imag, res.value.real, list(res.errors)

    return MetricEvaluator(
        kind="constructed-Kpos1", dimension=psi.dimension, solve=solve,
        intended_curvature=1.0, domain_radius=_domain_from(radius))


def broken_metric(dimension: int = 2) -> MetricEvaluator:
    """Negative control: F = |y| + 0.1 x^1 (y^1)^2 / |y|.

    Degree-1 homogeneous in y but not projectively flat, so the Hamel
    residual check must reject it; guards the test harness against
    trivially passing sweeps.  It perturbs the flat F(0, y) = |y|, so it
    states K = 0, which the curvature, berwald and pde checks reject too.
    """
    def f_value(x, y):
        ny = float(np.linalg.norm(y))
        return ny + 0.1 * float(x[0]) * float(y[0]) ** 2 / ny

    return MetricEvaluator(kind="test:broken", dimension=dimension,
                           f_eval=f_value, intended_curvature=0.0)
