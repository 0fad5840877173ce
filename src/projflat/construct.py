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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ProjFlatError
from .norms import BryantPair, HomogeneousFunction, check_minkowski, combine
from .solver import (SolverConfig, pair_radius_estimate, radius_estimate,
                     solve_complex, solve_real)

DOMAIN_SAFETY = 0.8
_MINKOWSKI_PROBE = 64


@dataclass(frozen=True)
class MetricEvaluator:
    """A callable metric F(x, y), with exact projective factor when known.

    ``kind`` is one of constructed-K0 / constructed-Kneg1 /
    constructed-Kpos1 / catalog:<name> / test:broken.  ``aux`` carries the
    construction's transport fields for identity checks (``phi_plus`` /
    ``phi_minus`` for curvature -1, ``psi_field`` for +1).
    """

    kind: str
    dimension: int
    f_eval: object
    p_exact: object = None
    intended_curvature: float = None
    domain_radius: float = math.inf
    psi_minkowski_ok: bool = None
    aux: dict = field(default_factory=dict)

    def _check_point(self, x, y, enforce_radius=True):
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.size != self.dimension or y.size != self.dimension:
            raise DomainError(f"expected {self.dimension}-dimensional x and y")
        if float(y.dot(y)) == 0.0:  # |y| = 0, also when its length underflows
            raise DomainError("y = 0 is outside the metric domain")
        if enforce_radius and float(np.linalg.norm(x)) > self.domain_radius * (1.0 + 1e-12):
            raise DomainError(
                f"|x| = {np.linalg.norm(x):.6g} exceeds the validity radius "
                f"{self.domain_radius:.6g} of this evaluator")
        return x, y

    def eval(self, x, y) -> float:
        """Metric value F(x, y); positive for y != 0 inside the domain."""
        x, y = self._check_point(x, y)
        return float(self.f_eval(x, y))

    __call__ = eval

    def projective_factor_exact(self, x, y) -> float:
        """Exact projective factor; only constructed metrics carry one.

        Not radius-guarded: the fixed point extends beyond the guaranteed
        ball wherever bracketing succeeds, and the solve fails honestly
        where it does not.
        """
        if self.p_exact is None:
            raise ProjFlatError(f"{self.kind} has no exact projective factor; "
                                "use the numeric fallback in verify")
        x, y = self._check_point(x, y, enforce_radius=False)
        return float(self.p_exact(x, y))


def _domain_from(radius: float) -> float:
    return math.inf if math.isinf(radius) else DOMAIN_SAFETY * radius


def build_k0(psi: HomogeneousFunction, phi: HomogeneousFunction,
             cfg: SolverConfig = None) -> MetricEvaluator:
    """Flat (curvature 0) metric from origin data (psi, phi)."""
    if psi.dimension != phi.dimension:
        raise DomainError("psi and phi must share the dimension")
    cfg = cfg or SolverConfig()
    minkowski_ok = bool(check_minkowski(psi, _MINKOWSKI_PROBE).passed)

    def p_value(x, y):
        return solve_real(phi, x, y, cfg).value

    def f_value(x, y):
        res = solve_real(phi, x, y, cfg)
        denom = 1.0 - float(phi.grad_real(res.eta) @ x)
        if denom < 1e-8:
            raise DomainError("construction denominator vanishes")
        return psi.eval_real(res.eta) / denom

    return MetricEvaluator(
        kind="constructed-K0", dimension=psi.dimension, f_eval=f_value,
        p_exact=p_value, intended_curvature=0.0,
        domain_radius=_domain_from(radius_estimate(phi)),
        psi_minkowski_ok=minkowski_ok)


def build_kneg1(psi: HomogeneousFunction, phi: HomogeneousFunction,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature -1 metric from origin data (psi, phi)."""
    if psi.dimension != phi.dimension:
        raise DomainError("psi and phi must share the dimension")
    cfg = cfg or SolverConfig()
    minkowski_ok = bool(check_minkowski(psi, _MINKOWSKI_PROBE).passed)
    f_plus = combine((1.0, phi), (1.0, psi))
    f_minus = combine((1.0, phi), (-1.0, psi))
    radius = min(radius_estimate(f_plus), radius_estimate(f_minus))

    def phi_plus(x, y):
        return solve_real(f_plus, x, y, cfg).value

    def phi_minus(x, y):
        return solve_real(f_minus, x, y, cfg).value

    def f_value(x, y):
        return 0.5 * (phi_plus(x, y) - phi_minus(x, y))

    def p_value(x, y):
        return 0.5 * (phi_plus(x, y) + phi_minus(x, y))

    return MetricEvaluator(
        kind="constructed-Kneg1", dimension=psi.dimension, f_eval=f_value,
        p_exact=p_value, intended_curvature=-1.0, domain_radius=_domain_from(radius),
        psi_minkowski_ok=minkowski_ok,
        aux={"phi_plus": phi_plus, "phi_minus": phi_minus})


def build_kpos1(psi: HomogeneousFunction, phi: HomogeneousFunction = None,
                cfg: SolverConfig = None) -> MetricEvaluator:
    """Curvature +1 metric from complex-extensible origin data.

    A BryantPair may be passed alone (as ``psi``); it supplies both
    components through phi + i psi = i e^{-i alpha} |y|.
    """
    if phi is None:
        if not isinstance(psi, BryantPair):
            raise DomainError("a single norm argument must be a bryant pair")
        pair = psi
        psi, phi = pair.psi_component, pair.phi_component
    if psi.dimension != phi.dimension:
        raise DomainError("psi and phi must share the dimension")
    cfg = cfg or SolverConfig()
    minkowski_ok = bool(check_minkowski(psi, _MINKOWSKI_PROBE).passed)
    radius = pair_radius_estimate(phi, psi)

    def z_value(x, y):
        return solve_complex(phi, psi, x, y, cfg).value

    def f_value(x, y):
        return z_value(x, y).imag

    def p_value(x, y):
        return z_value(x, y).real

    return MetricEvaluator(
        kind="constructed-Kpos1", dimension=psi.dimension, f_eval=f_value,
        p_exact=p_value, intended_curvature=1.0, domain_radius=_domain_from(radius),
        psi_minkowski_ok=minkowski_ok, aux={"psi_field": z_value})


def broken_metric(dimension: int = 2) -> MetricEvaluator:
    """Negative control: F = |y| + 0.1 x^1 (y^1)^2 / |y|.

    Degree-1 homogeneous in y but not projectively flat, so the Hamel
    residual check must reject it; guards the test harness against
    trivially passing sweeps.
    """
    def f_value(x, y):
        ny = float(np.linalg.norm(y))
        return ny + 0.1 * float(x[0]) * float(y[0]) ** 2 / ny

    return MetricEvaluator(kind="test:broken", dimension=dimension,
                           f_eval=f_value, intended_curvature=None)
