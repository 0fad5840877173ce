"""Catalog closed forms: values, domains, symmetries, reduction identities."""

import math

import numpy as np
import pytest

import oracles
from oracles import bryant_all_real, zhou_reduction_check
from projflat import (DomainError, SpecParseError, as_evaluator, catalog_entry,
                      eval_catalog, flag_curvature, hamel_residual,
                      list_catalog, parse_catalog)
from projflat.sampling import ball_points, sphere_points


def rotation_matrix(rng, dim):
    """Seeded random rotation (special orthogonal matrix)."""
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_funk_values():
    funk = catalog_entry("funk", 2)
    y = np.array([1.2, -0.7])
    assert eval_catalog(funk, [0.0, 0.0], y) == pytest.approx(np.linalg.norm(y), abs=1e-14)
    got = eval_catalog(funk, [0.5, 0.0], [0.0, 1.0])
    assert got == pytest.approx(math.sqrt(0.75) / 0.75, abs=1e-12)
    assert got == pytest.approx(1.1547005383792515, abs=1e-12)


def test_berwald_origin_is_norm():
    ent = catalog_entry("berwald", 2)
    y = np.array([0.6, 0.8])
    assert eval_catalog(ent, [0.0, 0.0], y) == pytest.approx(1.0, abs=1e-14)


def test_bryant_two_renderings_agree(rng):
    for alpha in (np.pi / 6, np.pi / 4, np.pi / 3):
        ent = catalog_entry("bryant", 2, alpha=alpha)
        for _ in range(40):
            x = ball_points(rng, 2, 0.5, 1)[0]
            y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
            a = eval_catalog(ent, x, y)
            b = bryant_all_real(alpha, x, y)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_bryant_no_domain_error_on_half_ball(rng):
    # D = |x|^4 + 2|x|^2 cos 2a + 1 stays positive: no domain failures
    for alpha in (np.pi / 6, np.pi / 4, np.pi / 3):
        ent = catalog_entry("bryant", 2, alpha=alpha)
        for _ in range(25):
            x = ball_points(rng, 2, 0.5, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            assert eval_catalog(ent, x, y) > 0.0


def test_bryant_origin_value():
    ent = catalog_entry("bryant", 2, alpha=np.pi / 6)
    got = eval_catalog(ent, [0.0, 0.0], [1.0, 0.0])
    assert got == pytest.approx(np.cos(np.pi / 6), abs=1e-14)


def test_double_sqrt_restriction_to_first_block():
    # with the second block zeroed the metric is the positive space form
    ent = catalog_entry("dsr-new", 2, n=1, m=1)
    got = eval_catalog(ent, [0.5, 0.0], [1.0, 0.0])
    want = oracles.space_form(1.0, [0.5], [1.0])
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx(0.8, abs=1e-14)


def test_double_sqrt_matches_oracle(rng):
    ent = catalog_entry("dsr-new", 2, n=1, m=1)
    for _ in range(20):
        x = ball_points(rng, 2, 0.3, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        assert eval_catalog(ent, x, y) == pytest.approx(
            oracles.double_sqrt_metric(1, x, y), rel=1e-12)


def test_sph_families_match_oracles(rng):
    c = 0.45
    k0 = catalog_entry("sph-k0", 2, c=c, branch=1)
    kn = catalog_entry("sph-kneg1", 2, c=c)
    kp = catalog_entry("sph-kpos1", 2, c=c)
    for _ in range(20):
        x = ball_points(rng, 2, 0.5, 1)[0]
        y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
        assert eval_catalog(k0, x, y) == pytest.approx(oracles.sph_k0(c, 1, x, y), rel=1e-12)
        assert eval_catalog(kn, x, y) == pytest.approx(oracles.sph_kneg1(c, x, y), rel=1e-12)
        assert eval_catalog(kp, x, y) == pytest.approx(oracles.sph_kpos1(c, x, y), rel=1e-12)


def test_sph_k0_branches_swap_under_drift_sign(rng):
    # branch + with constant c equals branch - with constant -c
    plus = catalog_entry("sph-k0", 2, c=0.3, branch=1)
    minus = catalog_entry("sph-k0", 2, c=-0.3, branch=-1)
    for _ in range(10):
        x = ball_points(rng, 2, 0.5, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        assert eval_catalog(plus, x, y) == pytest.approx(
            eval_catalog(minus, x, y), rel=1e-13)


def test_sph_kneg1_unit_constant_matches_display(rng):
    ent = catalog_entry("sph-kneg1", 2, c=1.0)
    for _ in range(10):
        x = ball_points(rng, 2, 0.4, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        assert eval_catalog(ent, x, y) == pytest.approx(
            oracles.kneg1_unit_pair_display(x, y), rel=1e-12)


def test_zhou_reduction_identity_pointwise():
    lhs, rhs = zhou_reduction_check(0.5, 1.0, 1, [0.1, 0.0], [1.0, 0.0])
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_zhou_reduction_orthogonal_symmetry():
    # with <x, y> = 0 the odd term drops and both signs agree
    x, y = np.array([0.0, 0.2]), np.array([1.0, 0.0])
    lp, rp = zhou_reduction_check(0.5, 1.0, 1, x, y)
    lm, rm = zhou_reduction_check(0.5, 1.0, -1, x, y)
    assert lp == pytest.approx(rp, abs=1e-12)
    assert lp == pytest.approx(lm, abs=1e-12)
    assert rp == pytest.approx(rm, abs=1e-12)


def test_zhou_reduction_sweep(rng):
    for d1, d2 in ((0.5, 1.0), (0.3, 0.5)):
        limit = math.sqrt(2.0 * (d2 - d1))
        worst = 0.0
        for _ in range(20):
            x = ball_points(rng, 2, 0.8 * limit, 1)[0]
            y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
            for sign in (1, -1):
                lhs, rhs = zhou_reduction_check(d1, d2, sign, x, y)
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-9
        # cross-check against the independent two-term oracle
        x = ball_points(rng, 2, 0.5 * limit, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        lhs, _ = zhou_reduction_check(d1, d2, 1, x, y)
        assert lhs == pytest.approx(oracles.zhou_two_term(d1, d2, 1, x, y), rel=1e-12)


def test_list_catalog_entries():
    entries = list_catalog(2)
    assert len(entries) == 9
    by_name = {e.name: e for e in entries}
    assert by_name["funk"].known_curvature == pytest.approx(-0.25)
    assert by_name["berwald"].known_curvature == 0.0
    assert by_name["bryant"].known_curvature == 1.0
    assert by_name["dsr-new"].known_curvature == 1.0
    assert by_name["sph-k0"].known_curvature == 0.0
    assert by_name["sph-kneg1"].known_curvature == -1.0
    assert by_name["sph-kpos1"].known_curvature == 1.0
    assert by_name["zhou"].known_curvature == -1.0
    assert by_name["space-form"].known_curvature == by_name["space-form"].params["lam"]


def test_spherical_symmetry_under_rotations(rng):
    entries = [
        catalog_entry("space-form", 3, lam=-1.0),
        catalog_entry("funk", 3),
        catalog_entry("berwald", 3),
        catalog_entry("bryant", 3, alpha=np.pi / 4),
        catalog_entry("sph-k0", 3, c=0.3, branch=-1),
        catalog_entry("sph-kneg1", 3, c=0.3),
        catalog_entry("sph-kpos1", 3, c=0.3),
        catalog_entry("zhou", 3, d1=0.5, d2=1.0, sign=1),
    ]
    for ent in entries:
        for _ in range(10):
            s = rotation_matrix(rng, 3)
            x = ball_points(rng, 3, 0.3, 1)[0]
            y = sphere_points(rng, 3, 1)[0]
            a = eval_catalog(ent, x, y)
            b = eval_catalog(ent, s @ x, s @ y)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a)), ent.name


def test_double_sqrt_blockwise_symmetry(rng):
    # invariant under separate rotations of the two blocks only
    ent = catalog_entry("dsr-new", 4, n=2, m=2)
    for _ in range(10):
        s1 = rotation_matrix(rng, 2)
        s2 = rotation_matrix(rng, 2)
        s = np.block([[s1, np.zeros((2, 2))], [np.zeros((2, 2)), s2]])
        x = ball_points(rng, 4, 0.25, 1)[0]
        y = sphere_points(rng, 4, 1)[0]
        a = eval_catalog(ent, x, y)
        b = eval_catalog(ent, s @ x, s @ y)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_domain_guards():
    with pytest.raises(DomainError):
        eval_catalog(catalog_entry("funk", 2), [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        eval_catalog(catalog_entry("berwald", 2), [1.1, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        eval_catalog(catalog_entry("space-form", 2, lam=-1.0), [1.2, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        eval_catalog(catalog_entry("sph-k0", 2, c=0.5, branch=-1), [2.5, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        eval_catalog(catalog_entry("zhou", 2, d1=0.5, d2=1.0, sign=1), [1.05, 0.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        eval_catalog(catalog_entry("funk", 2), [0.2, 0.0], [0.0, 0.0])


def test_entry_parameter_validation():
    with pytest.raises(SpecParseError):
        catalog_entry("bryant", 2, alpha=2.0)
    with pytest.raises(SpecParseError):
        catalog_entry("zhou", 2, d1=1.0, d2=0.5, sign=1)
    with pytest.raises(SpecParseError):
        catalog_entry("zhou", 2, d1=0.9, d2=1.0, sign=1)  # d2 < 2 d1^2
    with pytest.raises(SpecParseError):
        catalog_entry("sph-k0", 2, c=0.0, branch=1)
    with pytest.raises(SpecParseError):
        catalog_entry("dsr-new", 2, n=2, m=2)


@pytest.mark.parametrize("name, params, message", [
    ("bryant", {"alhpa": 0.3}, "'bryant' has no parameter alhpa"),
    ("funk", {"lam": 3.0}, "'funk' has no parameter lam"),
    ("zhou", {"d1": 0.5, "c": 1.0, "b": 2.0}, "'zhou' has no parameter b, c"),
])
def test_entry_rejects_unknown_parameters(name, params, message):
    # a misspelt parameter must not silently give the default metric
    with pytest.raises(SpecParseError) as info:
        catalog_entry(name, 2, **params)
    assert message in str(info.value)


def test_parse_catalog_round_trip():
    texts = ["funk", "berwald", "space-form:-1", "bryant:0.5236",
             "dsr-new:1,1", "sph-k0:0.3,-", "sph-kneg1:0.3", "sph-kpos1:0.3",
             "zhou:0.5,1,+"]
    for text in texts:
        ent = parse_catalog(text, 2)
        assert ent.name == text.split(":")[0]
    with pytest.raises(SpecParseError):
        parse_catalog("nope", 2)
    with pytest.raises(SpecParseError):
        parse_catalog("funk:1", 2)
    with pytest.raises(SpecParseError):
        parse_catalog("zhou:0.5,1,x", 2)
    # every entry with non-default parameters, at d = 3, equals the same
    # catalog_entry
    specs = [
        ("space-form:0.5", {"lam": 0.5}),
        ("funk", {}),
        ("berwald", {}),
        ("bryant:0.3", {"alpha": 0.3}),
        ("dsr-new:2,1", {"n": 2, "m": 1}),
        ("sph-k0:-0.4,+", {"c": -0.4, "branch": 1}),
        ("sph-kneg1:-0.2", {"c": -0.2}),
        ("sph-kpos1:0.6", {"c": 0.6}),
        ("zhou:0.25,2,-", {"d1": 0.25, "d2": 2.0, "sign": -1}),
    ]
    x, y = np.array([0.05, -0.02, 0.03]), np.array([0.3, 1.0, -0.4])
    for text, params in specs:
        got = parse_catalog(text, 3)
        want = catalog_entry(got.name, 3, **params)
        assert dict(got.params) == params == dict(want.params), text
        assert [type(v) for v in got.params.values()] == [type(v) for v in params.values()]
        assert got.known_curvature == want.known_curvature, text
        assert got.domain_radius == want.domain_radius, text
        assert eval_catalog(got, x, y) == eval_catalog(want, x, y), text


@pytest.mark.parametrize("text, message", [
    ("nope", "unknown catalog entry 'nope'"),
    ("", "unknown catalog entry ''"),
    ("funk:1", "'funk' takes 0 parameter(s), got 1"),
    ("bryant:0.5,1", "'bryant' takes 1 parameter(s), got 2"),
    ("zhou:0.5,1,+,2", "'zhou' takes 3 parameter(s), got 4"),
    ("space-form:", "'space-form' takes 1 parameter(s), got 0"),
    ("dsr-new:1", "'dsr-new' takes 2 parameter(s), got 1"),
    ("zhou:0.5,1,x", "expected '+' or '-', got 'x'"),
    ("sph-k0:0.3,2", "expected '+' or '-', got '2'"),
    ("sph-kneg1:x", "could not convert string to float"),
    ("dsr-new:1.5,1", "invalid literal for int()"),
    ("bryant:2", "bryant angle must lie in (0, pi/2)"),
])
def test_parse_catalog_errors(text, message):
    with pytest.raises(SpecParseError) as info:
        parse_catalog(text, 2)
    assert message in str(info.value)


def test_all_entries_projectively_flat_with_known_curvature(rng):
    # every entry: Hamel residual <= 1e-6 and numeric flag curvature at
    # its known constant over 50 interior points (zhou asserts constancy,
    # its curvature spread, rather than a target value)
    for ent in list_catalog(2):
        m = as_evaluator(ent)
        radius = min(0.4, 0.45 * ent.domain_radius)
        tol_k = 1e-3 if ent.name == "dsr-new" else 1e-4
        ks = []
        for _ in range(50):
            x = ball_points(rng, 2, radius, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            assert hamel_residual(m, x, y) <= 1e-6, ent.name
            ks.append(flag_curvature(m, x, y))
        ks = np.asarray(ks)
        if ent.name == "zhou":
            assert float(ks.max() - ks.min()) <= 1e-4
        else:
            assert float(np.abs(ks - ent.known_curvature).max()) <= tol_k, ent.name
