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

``MetricEvaluator.rows`` evaluates N points ``(N, n)`` at once.  A
constructed metric solves all of them together, once per point for F and
P both; a closed form runs its formula point by point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ProjFlatError
from .norms import HomogeneousFunction, combine, lengths, per_row
from .solver import (SolverConfig, pair_radius_estimate, radius_estimate,
                     solve_complex, solve_real)

DOMAIN_SAFETY = 0.8
NON_FINITE = "x and y must be finite, with finite squared lengths"


@dataclass
class RowValues:
    """Values at N points.

    ``f`` and ``p`` are ``(N,)`` arrays when asked for (None otherwise);
    ``fields`` holds a constructed metric's solved transport fields, the
    ones with Phi_x = Phi Phi_y: ``(P,)`` for curvature 0,
    ``(Phi_+, Phi_-)`` for -1 and the complex ``(Z,)`` for +1, and is
    empty for a closed form.  ``errors[i]`` is the error row i raises on
    its own, None where it evaluated; a failed row holds nan.
    """

    f: np.ndarray
    p: np.ndarray
    fields: tuple
    errors: list


def first_errors(*per_row) -> list:
    """Per row, the first error of several per-row error lists, in order."""
    if not any(map(any, per_row)):
        return [None] * len(per_row[0])
    return [next((exc for exc in row if exc is not None), None) for row in zip(*per_row)]


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
    ``intended_curvature`` its constant flag curvature K.  A closed form
    carries ``f_eval``, its formula at one point; a constructed metric
    carries ``solve``, which maps rows ``x``, ``y`` and whether F is
    wanted to ``(F, P, fields, errors)`` (see RowValues) from one solve
    per row.
    """

    kind: str
    dimension: int
    intended_curvature: float
    f_eval: object = None
    solve: object = None
    domain_radius: float = math.inf

    def _check_point(self, x, y):
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.size != self.dimension or y.size != self.dimension:
            raise DomainError(f"expected {self.dimension}-dimensional x and y")
        # squares of Python floats overflow to inf without a warning
        yy = sum(c * c for c in y.tolist())
        length = math.sqrt(sum(c * c for c in x.tolist()))
        if not (math.isfinite(yy) and math.isfinite(length)):
            raise DomainError(NON_FINITE)
        if yy == 0.0:  # |y| = 0, also when its length underflows
            raise DomainError("y = 0 is outside the metric domain")
        if length > self.domain_radius * (1.0 + 1e-12):
            raise DomainError(self._radius_message(length))
        return x, y

    def _radius_message(self, length):
        return (f"|x| = {length:.6g} exceeds the validity radius "
                f"{self.domain_radius:.6g} of this evaluator")

    def rows(self, x, y, with_f=True, with_p=False) -> RowValues:
        """F, and the exact P when ``with_p``, at each row of ``x`` and ``y``
        (both ``(N, n)``).

        Each row passes the point guard on its own: finite x, y and squared
        lengths, y != 0 (a y whose length underflows counts as zero) and,
        when F is asked for, the validity radius.  P is not radius-guarded:
        the fixed point extends beyond the guaranteed ball wherever
        bracketing succeeds, and the solve fails honestly where it does
        not.  A failed row gets nan and its own error (see RowValues); the
        other rows are unaffected.  A closed form evaluates its rows one
        ``eval`` at a time and has no exact P.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape or x.shape[1] != self.dimension:
            raise DomainError(f"expected {self.dimension}-dimensional x and y")
        count = len(y)
        if self.solve is None:
            if with_p:
                raise ProjFlatError(f"{self.kind} has no exact projective factor; "
                                    "use the numeric fallback in verify")
            f = np.full(count, np.nan)
            errors = [None] * count
            for i in range(count):
                try:
                    f[i] = self.eval(x[i], y[i])
                except ProjFlatError as exc:
                    errors[i] = exc.with_traceback(None)  # no frame cycle
            return RowValues(f, None, (), errors)

        errors = [None] * count
        with np.errstate(over="ignore"):  # an overflow is reported per row
            squares, length = np.vecdot(y, y), lengths(x)
        for i in np.flatnonzero(~(np.isfinite(squares) & np.isfinite(length))):
            errors[i] = DomainError(NON_FINITE)
        for i in np.flatnonzero(squares == 0.0):
            errors[i] = errors[i] or DomainError("y = 0 is outside the metric domain")
        if with_f:
            for i in np.flatnonzero(length > self.domain_radius * (1.0 + 1e-12)):
                errors[i] = errors[i] or DomainError(self._radius_message(length[i]))
        ok = np.array([exc is None for exc in errors], dtype=bool)
        f, p, fields, solved = self.solve(x[ok], y[ok], with_f)
        for i, exc in zip(np.flatnonzero(ok), solved):
            errors[i] = exc
        return RowValues(_spread(f, ok) if with_f else None,
                         _spread(p, ok) if with_p else None,
                         tuple(_spread(v, ok) for v in fields), errors)

    def eval(self, x, y) -> float:
        """Metric value F(x, y); positive for y != 0 inside the domain."""
        if self.solve is not None:
            return float(self._point(x, y, with_f=True).f[0])
        x, y = self._check_point(x, y)
        return float(self.f_eval(x, y))

    __call__ = eval

    def projective_factor_exact(self, x, y) -> float:
        """Exact projective factor; only constructed metrics carry one.

        Not radius-guarded, like P in ``rows``; a closed form raises ProjFlatError.
        """
        return float(self._point(x, y, with_f=False, with_p=True).p[0])

    def _point(self, x, y, **want) -> RowValues:
        values = self.rows(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), **want)
        raise_first(values.errors)
        return values


def _spread(values, ok):
    """Values of the rows where ``ok`` holds, nan on the others."""
    out = np.full(ok.shape, np.nan, dtype=np.result_type(values, float))
    out[ok] = values
    return out


def _on_live(fn, v, errors):
    """``fn`` on the rows of ``v`` without an error yet (nan on the others);
    a row that makes ``fn`` raise gets that error in ``errors``."""
    live = np.flatnonzero([exc is None for exc in errors])
    values, failed = per_row(fn, v[live])
    out = np.full((len(v),) + np.shape(values)[1:], np.nan)
    out[live] = values
    for i, exc in zip(live, failed):
        errors[i] = exc
    return out


def _domain_from(radius: float) -> float:
    return math.inf if math.isinf(radius) else DOMAIN_SAFETY * radius


def build_k0(psi: HomogeneousFunction, phi: HomogeneousFunction,
             cfg: SolverConfig = None) -> MetricEvaluator:
    """Flat (curvature 0) metric from origin data (psi, phi)."""
    if psi.dimension != phi.dimension:
        raise DomainError("psi and phi must share the dimension")

    def solve(x, y, with_f):
        res = solve_real(phi, x, y, cfg)
        errors = list(res.errors)
        f = None
        if with_f:
            denom = 1.0 - np.vecdot(_on_live(phi.grad_real, res.eta, errors), x)
            for i in np.flatnonzero(denom < 1e-8):
                errors[i] = errors[i] or DomainError("construction denominator vanishes")
            f = _on_live(psi.eval_real, res.eta, errors) / denom
        return f, res.value, (res.value,), errors

    return MetricEvaluator(
        kind="constructed-K0", dimension=psi.dimension, solve=solve,
        intended_curvature=0.0, domain_radius=_domain_from(radius_estimate(phi)))


def build_kneg1(psi: HomogeneousFunction, phi: HomogeneousFunction,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature -1 metric from origin data (psi, phi)."""
    if psi.dimension != phi.dimension:
        raise DomainError("psi and phi must share the dimension")
    f_plus = combine((1.0, phi), (1.0, psi))
    f_minus = combine((1.0, phi), (-1.0, psi))
    radius = min(radius_estimate(f_plus), radius_estimate(f_minus))

    def solve(x, y, with_f):
        plus = solve_real(f_plus, x, y, cfg)
        minus = solve_real(f_minus, x, y, cfg)
        a, b = plus.value, minus.value
        errors = [e or e_minus for e, e_minus in zip(plus.errors, minus.errors)]
        return 0.5 * (a - b), 0.5 * (a + b), (a, b), errors

    return MetricEvaluator(
        kind="constructed-Kneg1", dimension=psi.dimension, solve=solve,
        intended_curvature=-1.0, domain_radius=_domain_from(radius))


def build_kpos1(psi: HomogeneousFunction, phi: HomogeneousFunction,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature +1 metric from origin data (psi, phi)."""
    if psi.dimension != phi.dimension:
        raise DomainError("psi and phi must share the dimension")
    radius = pair_radius_estimate(phi, psi)

    def solve(x, y, with_f):
        res = solve_complex(phi, psi, x, y, cfg)
        z = res.value
        return z.imag, z.real, (z,), list(res.errors)

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
