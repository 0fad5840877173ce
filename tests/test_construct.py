"""Builders: oracle equivalence, origin recovery, transport identities."""

import json
import math

import numpy as np
import pytest

import oracles
from oracles import f_at, p_at
from projflat import (DimensionMismatchError, DomainError, DoubleSqrtNorm,
                      EuclideanNorm, ProjFlatError, RandersNorm, ScaledNorm,
                      SolverConfig, ZeroNorm, broken_metric, build_k0,
                      build_kneg1, build_kpos1, check_minkowski,
                      master_pde_residual, parse_norms, solve_real)
from projflat.cli import main, parse_metric
from projflat.sampling import ball_points, sphere_points

E2 = EuclideanNorm(2)
Z2 = ZeroNorm(2)


def sweep_compare(metric, oracle, rng, radius, count=20, tol=1e-10):
    worst = 0.0
    for _ in range(count):
        x = ball_points(rng, 2, radius, 1)[0]
        y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
        a = f_at(metric, x, y)
        b = oracle(x, y)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst <= tol, worst


@pytest.mark.parametrize("build", [build_k0, build_kneg1, build_kpos1])
def test_builders_reject_origin_data_of_two_dimensions(build):
    with pytest.raises(DimensionMismatchError, match="psi and phi must share the dimension"):
        build(EuclideanNorm(2), EuclideanNorm(3))


def test_k0_zero_drift_is_flat_norm(rng):
    m = build_k0(E2, Z2)
    assert f_at(m, [0.4, 0.4], [1.0, 2.0]) == pytest.approx(np.sqrt(5.0), abs=1e-13)
    for _ in range(10):
        x = ball_points(rng, 2, 3.0, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        assert f_at(m, x, y) == pytest.approx(1.0, abs=1e-13)


def test_k0_unit_drift_matches_berwald_form(rng):
    m = build_k0(E2, E2)
    x, y = np.array([0.3, 0.0]), np.array([0.0, 1.0])
    assert f_at(m, x, y) == pytest.approx(oracles.berwald(x, y), abs=1e-10)
    sweep_compare(m, oracles.berwald, rng, 0.38)


def test_k0_scaled_drift_matches_closed_form(rng):
    c = 0.3
    m = build_k0(E2, ScaledNorm(2, c))
    sweep_compare(m, lambda x, y: oracles.sph_k0(c, -1, x, y), rng, 0.5)


def test_kneg1_zero_drift_is_negative_space_form(rng):
    m = build_kneg1(E2, Z2)
    sweep_compare(m, lambda x, y: oracles.space_form(-1.0, x, y), rng, 0.38)


def test_kneg1_unit_pair_matches_two_term_display(rng):
    m = build_kneg1(E2, E2)
    sweep_compare(m, oracles.kneg1_unit_pair_display, rng, 0.19)


def test_kneg1_scaled_drift_matches_closed_form(rng):
    c = 0.3
    m = build_kneg1(E2, ScaledNorm(2, c))
    sweep_compare(m, lambda x, y: oracles.sph_kneg1(c, x, y), rng, 0.29, tol=1e-9)


def test_kpos1_zero_drift_is_positive_space_form(rng):
    m = build_kpos1(E2, Z2)
    sweep_compare(m, lambda x, y: oracles.space_form(1.0, x, y), rng, 0.38)


def test_kpos1_bryant_pair_matches_radical_form(rng):
    alpha = np.pi / 6
    m = build_kpos1(ScaledNorm(2, float(np.cos(alpha))), ScaledNorm(2, float(np.sin(alpha))))
    sweep_compare(m, lambda x, y: oracles.bryant_abcd(alpha, x, y), rng, 0.3, tol=1e-8)
    # the bryant descriptor names the same two norms
    m2 = parse_metric(f"construct:1:bryant:{alpha!r}", 2, None)
    x, y = np.array([0.2, -0.1]), np.array([0.7, 0.7])
    assert f_at(m, x, y) == f_at(m2, x, y)


def test_kpos1_double_sqrt_matches_closed_form(rng):
    m = build_kpos1(DoubleSqrtNorm(2, 1, 1, plus=True),
                    DoubleSqrtNorm(2, 1, 1, plus=False))
    worst = 0.0
    for _ in range(10):
        x = ball_points(rng, 2, 0.2, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        a = f_at(m, x, y)
        b = oracles.double_sqrt_metric(1, x, y)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst <= 1e-7


PAIRS = [
    (EuclideanNorm(2), ZeroNorm(2)),
    (EuclideanNorm(2), EuclideanNorm(2)),
    (EuclideanNorm(2), ScaledNorm(2, 0.3)),
    (RandersNorm(2, (0.15, -0.1)), ScaledNorm(2, -0.25)),
    (DoubleSqrtNorm(2, 1, 1, plus=True), DoubleSqrtNorm(2, 1, 1, plus=False)),
]
BUILDERS = [build_k0, build_kneg1, build_kpos1]


def test_origin_recovery_all_builders(rng):
    for psi, phi in PAIRS:
        for build in BUILDERS:
            m = build(psi, phi)
            for _ in range(15):
                y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
                zero = np.zeros(2)
                assert abs(f_at(m, zero, y) - psi.eval_real(y)) <= 1e-10
                assert abs(p_at(m, zero, y) - phi.eval_real(y)) <= 1e-10


def reference_values(descriptor, y):
    """One norm descriptor's values at the rows ``y``, from its formula."""
    name, _, arg = descriptor.partition(":")
    length = np.sqrt(np.sum(y * y, axis=1))
    if name == "zero":
        return np.zeros(len(y))
    if name == "euclidean":
        return length
    if name == "scaled":
        return float(arg) * length
    if name == "randers":
        return length + y @ np.array([float(a) for a in arg.split(",")])
    n = int(arg.split(",")[0])
    uu, ww = np.sum(y[:, :n] ** 2, axis=1), np.sum(y[:, n:] ** 2, axis=1)
    s = np.hypot(uu, ww)
    return np.sqrt((s + uu) / 2.0) if name == "dsr-b" else np.sqrt(ww * ww / (s + uu) / 2.0)


def origin_cases(d):
    """(norm part of a construct: spec, psi descriptor, phi descriptor)."""
    drift = "randers:" + ",".join(["0.2", "-0.1", "0.05"][:d])
    psis = ["euclidean", "scaled:0.7", drift, f"dsr-b:1,{d - 1}"]
    phis = ["zero", "euclidean", "scaled:-0.3", drift, f"dsr-a:1,{d - 1}"]
    cases = [(f"{psi}:{phi}", psi, phi) for psi in psis for phi in phis]
    for alpha in (0.5236, 0.3):
        cases.append((f"bryant:{alpha}", f"scaled:{math.cos(alpha)!r}",
                      f"scaled:{math.sin(alpha)!r}"))
    return cases


@pytest.mark.parametrize("d, k, norms, psi, phi", [
    pytest.param(d, k, norms, psi, phi, id=f"d{d}-K{k}-{norms}")
    for d in (2, 3) for k in (0, -1, 1) for norms, psi, phi in origin_cases(d)])
def test_spec_origin_data_is_psi_and_phi(d, k, norms, psi, phi):
    """F(0, .) = psi and P(0, .) = phi for every construct: spec."""
    metric = parse_metric(f"construct:{k}:{norms}", d, None)
    y = np.random.default_rng(d).standard_normal((12, d))
    y[-2:] *= np.array([[1e-20], [1e20]])  # rows the evaluator rescales
    rows = metric.rows(np.zeros_like(y), y, with_p=True)
    assert rows.errors == [None] * len(y)
    for got, want in ((rows.f, reference_values(psi, y)), (rows.p, reference_values(phi, y))):
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all(), (got, want)


def test_homogeneity_in_y(rng):
    for build in BUILDERS:
        m = build(E2, ScaledNorm(2, 0.3))
        for _ in range(10):
            x = ball_points(rng, 2, 0.3, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            f1 = f_at(m, x, y)
            for lam in (0.5, 3.0):
                assert abs(f_at(m, x, lam * y) - lam * f1) <= 1e-10 * (1 + lam * f1)


def test_kneg1_transport_fields_satisfy_pde(rng):
    m = build_kneg1(E2, ScaledNorm(2, 0.3))
    for _ in range(10):
        x = ball_points(rng, 2, 0.25, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        assert master_pde_residual(m, [x], [y])[0] <= 1e-6


def test_kpos1_complex_field_satisfies_pde(rng):
    m = build_kpos1(E2, ScaledNorm(2, 0.3))
    for _ in range(10):
        x = ball_points(rng, 2, 0.3, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        assert master_pde_residual(m, [x], [y])[0] <= 1e-6


def test_positivity_inside_domain(rng):
    for build in BUILDERS:
        m = build(E2, ScaledNorm(2, 0.3))
        for _ in range(25):
            x = ball_points(rng, 2, 0.95 * m.domain_radius, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            assert f_at(m, x, y) > 0.0


def test_projective_factor_exact_values():
    m = build_k0(E2, Z2)
    assert p_at(m, [0.2, 0.1], [1.0, 2.0]) == 0.0
    m1 = build_k0(EuclideanNorm(1), EuclideanNorm(1))
    assert p_at(m1, [0.5], [1.0]) == pytest.approx(2.0, abs=1e-12)
    mp = build_kpos1(E2, Z2)
    assert p_at(mp, [0.0, 0.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-13)


def test_domain_guard():
    m = build_k0(E2, E2)  # validity radius 0.5 -> guard at 0.4
    assert m.domain_radius == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(DomainError):
        f_at(m, [0.45, 0.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        f_at(m, [0.1, 0.0], [0.0, 0.0])
    # the boundary itself is allowed (inclusive guard)
    assert f_at(m, [0.4, 0.0], [0.0, 1.0]) > 0.0
    # a constructed metric evaluates on rows only
    with pytest.raises(ProjFlatError, match="rows only"):
        m.eval([0.1, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("build", [build_k0, build_kneg1, build_kpos1])
def test_non_finite_constructed_row_is_a_domain_error(build):
    """F overflows at y = (1e150, 0) when psi = 1e200 |y|: the row fails
    with a DomainError naming the field, F and P nan, and no numpy
    warning; P alone at that row stays finite, or fails the same way."""
    m = build(ScaledNorm(2, 1e200), Z2)
    x, y = np.zeros((2, 2)), np.array([[1e150, 0.0], [1.0, 0.0]])
    for with_f, with_p in ((True, True), (True, False), (np.array([True, True]), True)):
        values = m.rows(x, y, with_f, with_p)
        assert np.isnan(values.f[0]) and values.f[1] == 1e200
        assert str(values.errors[0]) == f"{m.kind} gives F = inf at this point"
        assert values.errors[1] is None
        if values.p is not None:
            assert np.isnan(values.p[0]) and values.p[1] == 0.0
    values = m.rows(x, y, with_f=False, with_p=True)
    if build is build_kneg1:  # P = (Phi_+ + Phi_-) / 2 = (inf - inf) / 2
        assert str(values.errors[0]) == "constructed-Kneg1 gives P = nan at this point"
        assert np.isnan(values.p[0])
    else:
        assert values.errors == [None, None] and values.p[0] == 0.0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("spec", ["euclidean:randers:{a}", "dsr-b:1,{m}:dsr-a:1,{m}",
                                  "randers:{a}:scaled:0.4", "zero:euclidean"])
def test_k0_f_from_the_kernels_equals_the_public_norm_methods(d, spec):
    """``build_k0`` takes F from the norm kernels at eta 2^-e; it has the
    bits of the public ``grad_real`` and ``eval_real`` on the solve's eta,
    with |y| from e^-300 to e^300."""
    a = ",".join(["0.2"] + ["0.1"] * (d - 1))
    psi, phi = parse_norms(spec.format(a=a, m=d - 1), d)
    metric = build_k0(psi, phi)
    rng = np.random.default_rng(d)
    x = ball_points(rng, d, 0.99 * min(metric.domain_radius, 1.0), 500)
    y = sphere_points(rng, d, 500) * np.exp(rng.uniform(-300.0, 300.0, 500))[:, None]
    res = solve_real(phi, x, y)
    want = psi.eval_real(res.eta) / (1.0 - np.vecdot(phi.grad_real(res.eta), x))
    got = metric.rows(x, y)
    assert not any(got.errors)
    np.testing.assert_array_equal(got.f, want)


def test_k0_vanishing_denominator_fails_its_row_alone():
    """Past the validity radius, where the point guard would stop it, the
    K = 0 denominator 1 - <grad phi(eta), x> can vanish: the builder's
    solve fails that row with its own error and nan F, and the other rows
    keep the bits they have without it."""
    m = build_k0(E2, ScaledNorm(2, 1.0), SolverConfig(tolerance=1e-6))
    x = np.array([[0.1, 0.0], [1.0 - 1e-9, 0.0], [0.0, 0.2]])
    y = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.5]])
    f, p, errors = m.solve(x, y, True, True)
    assert errors[0] is None and errors[2] is None
    assert type(errors[1]) is DomainError and str(errors[1]) == "construction denominator vanishes"
    assert np.isnan(f[1]) and np.isfinite(p[1])
    f_rest, p_rest, _ = m.solve(x[[0, 2]], y[[0, 2]], True, True)
    np.testing.assert_array_equal(f[[0, 2]], f_rest)
    np.testing.assert_array_equal(p[[0, 2]], p_rest)


def test_minkowski_flagging(capsys):
    # the builders do not vet psi; check_minkowski and the convexity check do
    bad = RandersNorm(2, (1.2, 0.0))
    assert f_at(build_k0(bad, Z2), [0.1, 0.0], [1.0, 0.0]) > 0.0
    assert not check_minkowski(bad, 64)["pass"]
    assert check_minkowski(E2, 64)["pass"]
    code = main(["verify", "--metric", "construct:0:randers:1.2,0:zero",
                 "--checks", "convexity"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["checks"]["convexity"]["pass"] is False


def test_broken_metric_evaluates():
    br = broken_metric(2)
    assert f_at(br, [0.3, 0.2], [1.0, 1.0]) > 0.0
    assert br.intended_curvature == 0.0
    # its P is the numeric one, bit for bit, whatever the point
    x = np.array([[0.1, 0.0], [-10.0, 0.0], [0.2, 0.3]])
    y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    rows = br.rows(x, y, with_f=False, with_p=True)
    p, errors = oracles._p_numeric(br, x, y)
    assert rows.p.tobytes() == p.tobytes()
    assert [(type(e), str(e)) for e in rows.errors] == [(type(e), str(e)) for e in errors]
    assert p_at(br, x[0], y[0]) == p[0] and errors[0] is None
    assert str(errors[1]) == "projective factor requires F > 0"  # F = 0 at x^1 = -10
