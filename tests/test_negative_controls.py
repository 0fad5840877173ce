"""Negative controls at every constant curvature.

Each benchmark construction, at d = 2 and 3, runs all six ``verify``
checks (50 samples, r = 0.2, seed 42) as built and after three kinds of
breakage:

* F perturbed by 1e-3 x^1 (y^1)^2 / |y|, the exact P kept;
* one formula of its construction mutated: K = 0 drops the divisor
  (F = psi(y + x P), psi = |.| here), K = -1 scales P by 1.001 and
  K = +1 takes F = |Z| for Im Z;
* its stated curvature replaced by each other K of -1, 0 and +1.

The closed-form control ``test:broken`` runs the same checks.  Each case
asserts the exact set of failing checks, so a check that goes blind, or
starts failing a valid metric, shows up.  The README's table of what
each check detects is this table.

``DETECTION_FLOORS`` pins each check's power at d = 2: the perturbation
1.1 eps fails the check, eps being the smallest perturbation it was
measured to fail.  The tests are one-sided, so a tighter tolerance keeps
them passing.
"""

import dataclasses

import numpy as np
import pytest

from oracles import altered, failing_checks, perturbed
from projflat import SolverConfig, broken_metric
from projflat.cli import DEFAULT_TOLERANCES, _run_check, parse_metric

HAMEL_BERWALD = {"hamel", "berwald"}
FOUR = {"hamel", "curvature", "berwald", "pde"}
WRONG_K = {"curvature", "berwald", "pde"}

MUTATIONS = {
    0.0: {"f": lambda x, y, f, p: np.linalg.norm(y + x * p[:, None], axis=1)},
    -1.0: {"p": lambda p: 1.001 * p},
    1.0: {"f": lambda x, y, f, p: np.hypot(f, p)},
}

# spec, dimension, the checks failed by the perturbed F, by the mutation
CASES = [
    ("construct:0:euclidean:randers:0.2,0.1", 2, HAMEL_BERWALD, HAMEL_BERWALD),
    ("construct:-1:euclidean:scaled:0.3", 2, FOUR, WRONG_K),
    ("construct:1:bryant:0.5236", 2, FOUR, FOUR),
    ("construct:1:dsr-b:1,1:dsr-a:1,1", 2, FOUR, FOUR | {"convexity"}),
    ("construct:0:euclidean:randers:0.2,0.1,0", 3, HAMEL_BERWALD, HAMEL_BERWALD),
    ("construct:-1:euclidean:scaled:0.3", 3, FOUR, WRONG_K),
    ("construct:1:bryant:0.5236", 3, FOUR, FOUR),
    ("construct:1:dsr-b:2,1:dsr-a:2,1", 3, FOUR, FOUR | {"convexity"}),
]


@pytest.mark.parametrize("spec, dim, perturbation, mutation", CASES)
def test_each_control_fails_exactly_its_checks(spec, dim, perturbation, mutation):
    metric = parse_metric(spec, dim, SolverConfig())
    k = metric.intended_curvature
    assert failing_checks(metric) == set()
    assert failing_checks(perturbed(metric, 1e-3)) == perturbation
    assert failing_checks(altered(metric, **MUTATIONS[k])) == mutation
    for wrong in sorted({-1.0, 0.0, 1.0} - {k}):
        stated = dataclasses.replace(metric, intended_curvature=wrong)
        assert failing_checks(stated) == WRONG_K, wrong


@pytest.mark.parametrize("dim", [2, 3])
def test_broken_closed_form_fails_exactly_its_checks(dim):
    assert failing_checks(broken_metric(dim)) == FOUR


# construction -> {check: the smallest eps of F + eps x^1 (y^1)^2 / |y| it
# fails}; at K = 0 curvature and pde are blind to this perturbation
DETECTION_FLOORS = {
    "construct:0:euclidean:randers:0.2,0.1": {"hamel": 6.4e-6, "berwald": 1.8e-5},
    "construct:-1:euclidean:scaled:0.3": {"hamel": 4.1e-6, "curvature": 3.3e-4,
                                          "berwald": 1.3e-5, "pde": 1.2e-6},
    "construct:1:bryant:0.5236": {"hamel": 5.2e-6, "curvature": 2.6e-4,
                                  "berwald": 1.6e-5, "pde": 1.6e-6},
}


@pytest.mark.parametrize("spec, check, eps", [
    (spec, check, eps) for spec, floors in DETECTION_FLOORS.items()
    for check, eps in floors.items()])
def test_each_check_detects_its_floor(spec, check, eps):
    metric = perturbed(parse_metric(spec, 2, SolverConfig()), 1.1 * eps)
    report = _run_check(check, metric, np.random.default_rng(42), 0.2, 50,
                        DEFAULT_TOLERANCES[check])
    assert not report["pass"], report
