"""Finite-difference checks: jets, residual order, curvature, geodesics."""

import math

import numpy as np
import pytest

from projflat import (DomainError, EuclideanNorm, MetricEvaluator, ScaledNorm, ZeroNorm,
                      as_evaluator, berwald_system_residual, broken_metric,
                      build_k0, build_kneg1, catalog_entry, check_minkowski,
                      collinearity_score,
                      flag_curvature, hamel_residual,
                      integrate_geodesic, jet, list_catalog,
                      master_pde_residual, projective_factor_numeric)
from projflat import ProjFlatError, SolverConfig, cli
import oracles
from oracles import (berwald_composed, convexity_check, f_at, fd_gradient,
                     flag_curvature_composed, geodesic_coefficients_general, p_at,
                     point_values_composed)
from projflat.norms import parse_norms
from projflat.sampling import ball_points, sphere_points
from projflat import verify
from projflat.verify import convexity_residual, make_report, point_values

E2 = EuclideanNorm(2)
Z2 = ZeroNorm(2)


def _funk():
    return as_evaluator(catalog_entry("funk", 2))


def test_jet_of_flat_norm():
    m = build_k0(E2, Z2)
    jd = jet(m, [[0.2, 0.1]], [[1.0, 0.0]])
    np.testing.assert_allclose(jd.grad_y, [[1.0, 0.0]], atol=1e-9)
    np.testing.assert_allclose(jd.grad_x, [[0.0, 0.0]], atol=1e-9)
    assert jd.value[0] == pytest.approx(1.0, abs=1e-14)


def test_jet_funk_at_origin():
    # d F / d x^k at x = 0 equals y_k, so <F_x, y>/(2F) = |y|/2
    jd = jet(_funk(), [[0.0, 0.0]], [[0.0, 1.0]])
    np.testing.assert_allclose(jd.grad_x, [[0.0, 1.0]], atol=1e-9)
    p = projective_factor_numeric(_funk(), [[0.0, 0.0]], [[0.0, 1.0]])
    assert p[0] == pytest.approx(0.5, abs=1e-9)


def test_jet_space_form_even_at_origin():
    m = as_evaluator(catalog_entry("space-form", 2, lam=1.0))
    jd = jet(m, [[0.0, 0.0]], [[1.0, 2.0]])
    np.testing.assert_allclose(jd.grad_x, 0.0, atol=1e-9)


def test_jet_requires_nonzero_y():
    with pytest.raises(DomainError):
        jet(_funk(), [[0.0, 0.0]], [[0.0, 0.0]])


def test_finite_difference_order():
    # halving the step must shrink first-derivative errors at order >= 1.8
    m = _funk()
    x, y = np.array([0.2, 0.1]), np.array([1.0, 0.5])
    xx, yy, xy = float(x @ x), float(y @ y), float(x @ y)
    z = math.sqrt((1 - xx) * yy + xy**2)
    exact_fx = (-x * yy + y * xy) / z / (1 - xx) + y / (1 - xx) \
        + 2 * x * (z + xy) / (1 - xx) ** 2
    errs = []
    for h in (1e-4, 5e-5):
        grad_x = fd_gradient(lambda xx: f_at(m, xx, y), x, h)
        errs.append(float(np.abs(grad_x - exact_fx).max()))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_fd_gradient_unit_stencil_and_complex_values():
    # the shifted point v + e with e[k] = h has the bits of v + h * unit_k,
    # and a complex field keeps its imaginary part
    v, h = np.array([0.3, -0.2, 0.7]), 1e-5
    fun = lambda w: complex(w[0] * w[1], w[2] ** 3)
    got = fd_gradient(fun, v, h)
    assert got.dtype == complex
    for k in range(3):
        unit = np.zeros(3)
        unit[k] = 1.0
        assert got[k] == (fun(v + h * unit) - fun(v - h * unit)) / (2.0 * h)
    np.testing.assert_allclose(got, [-0.2, 0.3, 3j * 0.49], atol=1e-9)
    assert fd_gradient(lambda w: float(w @ w), v, h).dtype == float


def test_hamel_flat_norm_tiny():
    m = build_k0(E2, Z2)
    assert hamel_residual(m, [[0.3, 0.2]], [[1.0, 1.0]])[0] <= 1e-9


def test_hamel_funk_small():
    assert hamel_residual(_funk(), [[0.3, 0.2]], [[1.0, 1.0]])[0] <= 1e-6


def test_hamel_broken_metric_fails():
    res = hamel_residual(broken_metric(2), [[0.3, 0.2]], [[1.0, 1.0]])
    assert res[0] > 1e-3


def test_projective_factor_consistency(rng):
    # numeric projective factor vs the exact solver value
    m = build_k0(E2, ScaledNorm(2, 0.3))
    for _ in range(10):
        x = ball_points(rng, 2, 0.5, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        exact = p_at(m, x, y)
        [numeric] = projective_factor_numeric(m, [x], [y])
        assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-8)


def test_flag_curvature_funk(rng):
    for _ in range(10):
        x = ball_points(rng, 2, 0.6, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        assert flag_curvature(_funk(), [x], [y])[0] == pytest.approx(-0.25, abs=1e-4)


def test_berwald_system_residuals(rng):
    cases = [
        (build_k0(E2, ScaledNorm(2, 0.3)), 0.3),
        (_funk(), 0.5),
        (as_evaluator(catalog_entry("space-form", 2, lam=1.0)), 0.5),
    ]
    for m, radius in cases:
        for _ in range(5):
            x = ball_points(rng, 2, radius, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            r1, r2 = berwald_system_residual(m, [x], [y])
            assert r1[0] <= 1e-5
            assert r2[0] <= 1e-5


def test_master_pde_catalog_fields(rng):
    for name, kwargs in (("berwald", {}), ("funk", {}), ("space-form", {"lam": 1.0})):
        m = as_evaluator(catalog_entry(name, 2, **kwargs))
        for _ in range(5):
            x = ball_points(rng, 2, 0.4, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            assert master_pde_residual(m, [x], [y])[0] <= 1e-6, name


@pytest.mark.parametrize("spec", ["construct:0:euclidean:randers:0.2,0.1", "catalog:berwald",
                                  "catalog:sph-k0:0.3,-", "test:broken"])
def test_pde_repeats_berwald_r2_at_zero_curvature(spec):
    """At K = 0 the one transport field is P, and Phi_x = Phi Phi_y is the
    berwald system's second equation with its K term zero: ``pde`` gives
    berwald's r2 bit for bit, so it can fail only where berwald fails."""
    metric = cli.parse_metric(spec, 2, SolverConfig())
    rng = np.random.default_rng(3)
    x, y = ball_points(rng, 2, 0.2, 20), sphere_points(rng, 2, 20)
    assert metric.intended_curvature == 0.0
    np.testing.assert_array_equal(master_pde_residual(metric, x, y),
                                  berwald_system_residual(metric, x, y)[1])


def test_convexity_funk_origin():
    rep = convexity_check(_funk(), [0.0, 0.0], 50)
    assert rep["pass"]
    assert rep["extra"]["min_eigenvalue"] == pytest.approx(1.0, abs=1e-3)


def test_convexity_berwald_off_center():
    rep = convexity_check(as_evaluator(catalog_entry("berwald", 2)), [0.5, 0.0], 50)
    assert rep["pass"]


def test_convexity_kneg1_build():
    m = build_kneg1(E2, E2)
    rep = convexity_check(m, [0.2, 0.0], 50)
    assert rep["pass"]


@pytest.mark.parametrize("spec", ["construct:1:dsr-b:1,1:dsr-a:1,1", "catalog:dsr-new:1,1"])
def test_dsr_fundamental_tensor_is_singular_on_the_block_axis(spec):
    """F^2/2 of dsr-b, (sqrt(|u|^4 + |v|^4) + |u|^2)/4, is quartic in v at
    v = 0, so both dsr metrics have a singular fundamental tensor at
    y = (u, 0): the minimum eigenvalue of ``convexity_residual`` vanishes
    there, at the origin and off it, and is clearly positive at a generic
    point.  Random samples miss that slice (it has measure zero)."""
    metric = cli.parse_metric(spec, 2, SolverConfig())
    _, lam_min = convexity_residual(metric, [[0.0, 0.0], [0.1, 0.0], [0.05, 0.1]],
                                    [[1.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
    assert lam_min[0] <= 1e-8 and lam_min[1] <= 1e-8, lam_min
    assert lam_min[2] > 0.1, lam_min


def test_geodesic_coefficients_flat_norm():
    m = build_k0(E2, Z2)
    g = geodesic_coefficients_general(m, [[0.2, 0.1]], [[1.0, 2.0]])
    np.testing.assert_allclose(g, 0.0, atol=1e-7)


def test_geodesic_coefficients_reduce_to_projective_form(rng):
    for m in (_funk(), as_evaluator(catalog_entry("space-form", 2, lam=1.0))):
        for _ in range(5):
            x = ball_points(rng, 2, 0.4, 1)[0]
            y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.8, 1.2)
            [g] = geodesic_coefficients_general(m, [x], [y])
            [p] = projective_factor_numeric(m, [x], [y])
            scale = max(float(np.abs(p * y).max()), 1e-3)
            assert float(np.abs(g - p * y).max()) / scale <= 1e-5


def test_integrate_flat_norm_straight_line():
    m = build_k0(E2, Z2)
    [traj] = integrate_geodesic(m, [[0.1, 0.0]], [[0.3, 0.4]], 1.0, 50)
    assert traj.completed
    want = np.array([0.1, 0.0]) + np.outer(traj.times, [0.3, 0.4])
    np.testing.assert_allclose(traj.points, want, atol=1e-12)


def test_integrate_funk_collinearity():
    [traj] = integrate_geodesic(_funk(), [[0.1, 0.0]], [[0.0, 1.0]], 0.5, 200)
    assert collinearity_score(traj, [0.1, 0.0], [0.0, 1.0]) <= 1e-8


def test_a_trajectory_that_did_not_move_scores_nan():
    """A start whose first step leaves the domain keeps one point: zero arc
    length measures nothing, so the score is nan, which fails any
    tolerance, not a perfect 0.0."""
    x0, v0 = [0.9999999999, 0.0], [0.0, 1.0]
    [traj] = integrate_geodesic(_funk(), [x0], [v0], 0.5, 5)
    assert traj.points.shape[0] == 1
    score = collinearity_score(traj, x0, v0)
    assert math.isnan(score)
    assert not make_report("geodesic", np.array([x0]), np.array([v0]), [score], 1e-8)["pass"]


@pytest.mark.parametrize("spec", ["scaled:1e308:zero", "randers:1e-300,1e308:zero"])
def test_check_minkowski_fails_an_overflowing_norm_without_a_warning(spec):
    """The Hessian overflows: its report fails with a nan residual, and no
    numpy warning (pytest turns one into an error) or eigenvalue error."""
    report = check_minkowski(parse_norms(spec, 2)[0], 8)
    assert not report["pass"]
    assert math.isnan(report["max_residual"])


def test_integrate_berwald_richardson(rng):
    # halved-step agreement confirms the integrator order on a real case
    m = as_evaluator(catalog_entry("berwald", 2))
    x0, v0 = np.array([0.1, -0.05]), np.array([0.6, 0.8])
    [a] = integrate_geodesic(m, [x0], [v0], 0.4, 100)
    [b] = integrate_geodesic(m, [x0], [v0], 0.4, 200)
    assert a.completed and b.completed
    diff = float(np.abs(a.points[-1] - b.points[-1]).max())
    assert diff <= 1e-9
    assert collinearity_score(a, x0, v0) <= 1e-8


def test_integrate_stops_at_domain_boundary():
    m = build_k0(E2, E2)  # validity ball 0.4
    [traj] = integrate_geodesic(m, [[0.3, 0.0]], [[1.0, 0.0]], 2.0, 100)
    assert not traj.completed
    assert traj.points.shape[0] < 101


def test_report_invariants():
    x, y = np.array([[0.0], [0.0]]), np.array([[1.0], [-1.0]])
    ok = make_report("demo", x, y, [1e-9, 5e-10], 1e-6)
    assert ok["pass"] and ok["failures"] == []
    bad = make_report("demo", x, y, [1e-9, 5.0], 1e-6)
    assert not bad["pass"]
    assert bad["failures"] and bad["max_residual"] == 5.0
    assert (bad["pass"]) == (bad["max_residual"] <= bad["tolerance"])
    assert bad["check"] == "demo" and bad["samples"] == 2 and not bad["pass"]


@pytest.mark.parametrize("entry", [e for e in list_catalog(2) if math.isfinite(e.domain_radius)],
                         ids=lambda e: e.name)
def test_checks_hold_to_eight_tenths_of_the_validity_radius(entry):
    """The radius the README and the verify docstring state: every closed
    form with a finite validity radius R passes all six checks at 0.8 R
    (d = 2, 50 samples, seed 42, default tolerances), as ``verify`` runs
    them, each check on a fresh rng at the seed."""
    metric = as_evaluator(entry)
    for name in cli.CHECK_NAMES:
        report = cli._run_check(name, metric, np.random.default_rng(42),
                                0.8 * entry.domain_radius, 50, cli.DEFAULT_TOLERANCES[name])
        assert report["pass"], (name, report["max_residual"])


def _outcome(check, metric, xs, ys):
    """A check's values as bytes, or the type and message of its error."""
    try:
        out = check(metric, xs, ys)
    except ProjFlatError as exc:
        return type(exc), str(exc)
    return [np.asarray(v).tobytes() for v in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("spec, dim", [
    ("construct:0:euclidean:randers:0.2,0.1", 2), ("construct:-1:euclidean:scaled:0.3", 2),
    ("construct:1:bryant:0.5236", 2), ("construct:1:dsr-b:1,1:dsr-a:1,1", 2),
    ("construct:-1:euclidean:scaled:0.3", 3), ("construct:1:dsr-b:2,1:dsr-a:2,1", 3),
    ("catalog:funk", 2)])
@pytest.mark.parametrize("iterations", [100, 1])
def test_one_call_checks_match_the_multi_call_composition(spec, dim, iterations):
    # one iteration fails every solve away from x = 0, the F and P at
    # (0, y) of point_values excepted
    metric = cli.parse_metric(spec, dim, SolverConfig(max_iterations=iterations))
    rng = np.random.default_rng(7)
    radius = metric.domain_radius
    # at (1 - 1e-9) R, F is inside the radius guard and the P-only rows of
    # K's stencil cross it; the jet's F rows cross it too.  At 3 R the F
    # rows fail the guard and the P-only rows their solve.
    xs = np.vstack([np.zeros((1, dim)), ball_points(rng, dim, 0.5 * min(radius, 1.0), 6),
                    (1.0 - 1e-9) * radius * sphere_points(rng, dim, 3),
                    3.0 * radius * sphere_points(rng, dim, 1)])
    ys = sphere_points(rng, dim, len(xs))
    got, want = point_values(metric, xs, ys), point_values_composed(metric, xs, ys)
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()
    assert ([None if e is None else (type(e), str(e)) for e in got[3]]
            == [None if e is None else (type(e), str(e)) for e in want[3]])
    if iterations > 1 and metric.solve is not None:
        assert not any(got[3][:10]) and got[3][10]  # the P-only rows near R solve
    for check, composed in ((flag_curvature, flag_curvature_composed),
                            (berwald_system_residual, berwald_composed)):
        for rows in (slice(0, 7), slice(0, 10), slice(7, None)):
            assert (_outcome(check, metric, xs[rows], ys[rows])
                    == _outcome(composed, metric, xs[rows], ys[rows]))


def test_berwald_raises_the_jet_error_before_the_p_error():
    """A closed form whose F fails on the jet's stencil and whose numeric
    P fails at the centre, with different messages: ``berwald`` raises the
    jet's error, as its docstring says.  F fails wherever x^1 or x^2 has
    left the centre (0.5, 0); with y = (0, 1) the jet's first failing
    point moves x^1, the centre's difference quotient moves x^2."""
    def f_value(x, y):
        if x[0] != 0.5:
            raise DomainError("x^1 moved")
        if x[1] != 0.0:
            raise DomainError("x^2 moved")
        return float(np.linalg.norm(y))

    probe = MetricEvaluator(kind="test:probe", dimension=2, f_eval=f_value,
                            intended_curvature=0.0)
    with pytest.raises(DomainError, match="x\\^1 moved"):
        berwald_system_residual(probe, [[0.5, 0.0]], [[0.0, 1.0]])
    with pytest.raises(DomainError, match="x\\^2 moved"):
        projective_factor_numeric(probe, [[0.5, 0.0]], [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# the offset tables against the list-built stencils of ``oracles``


def signed_rows(rng, count, d):
    """Rows with components of either sign, +0.0 and -0.0 among them."""
    v = rng.standard_normal((count, d)) * np.exp2(rng.integers(-3, 4, (count, d)))
    v[rng.random((count, d)) < 0.25] = 0.0
    v[rng.random((count, d)) < 0.25] = -0.0
    return v


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("stencil", ("jet", "berwald", "pde", "convexity", "hessian"))
def test_stencil_tables_give_the_list_built_points(stencil, d):
    """Every point of a check's offset table has the bytes of the point
    built vector by vector (x + e, x - e and the Hessian corners
    (y + e_i) + e_j), signed zeros included, in the same order; and the
    block sizes add up to the stencil."""
    rng = np.random.default_rng(d)
    xs, ys = signed_rows(rng, 7, d), signed_rows(rng, 7, d)
    steps = [rng.uniform(0.5, 2.0, 7) * 2.0 ** -k for k in (10, 14, 11, 15)]
    x_steps, y_steps = (steps[:2], steps[2:]) if stencil in ("jet", "berwald") else (
        steps[:1], steps[2:3])
    x_points, y_points, sizes = verify._stencil(stencil, xs, ys, x_steps, y_steps)
    pairs = oracles.stencil_pairs(stencil, xs, ys, x_steps, y_steps)
    assert sum(sizes) == len(pairs)
    assert same_bytes(x_points, np.stack([a for a, _ in pairs], axis=1))
    assert same_bytes(y_points, np.stack([b for _, b in pairs], axis=1))
    assert np.signbit(x_points).any() and (x_points == 0.0).any()


@pytest.mark.parametrize("d", (1, 2, 3))
def test_column_reads_equal_point_by_point_reads(d):
    """The jet, gradient and Hessian read by column slices of the (N, M)
    values have the bytes of the readers that take one point's values at
    a time."""
    rng = np.random.default_rng(10 + d)
    steps = tuple(rng.uniform(0.5, 2.0, 6) * 2.0 ** -k for k in (10, 14, 11, 15))
    count = len(oracles.stencil_pairs("jet", np.zeros((1, d)), np.zeros((1, d)),
                                      (np.ones(1),) * 2, (np.ones(1),) * 2))
    values = rng.standard_normal((6, count))
    got = verify._jet_from(values, steps, d)
    want = oracles.jet_from(list(values.T), steps, d)
    for field, reference in zip((got.value, got.grad_x, got.grad_y, got.mixed_xy, got.hess_yy),
                                want):
        assert same_bytes(field, reference)
    for field in (values, values + 1j * rng.standard_normal(values.shape)):  # pde's complex fields
        assert same_bytes(verify._gradient(field[:, :2 * d], steps[0]),
                          oracles.gradient_from(list(field[:, :2 * d].T), steps[0]))
    hessian = values[:, :1 + 2 * d * d]
    assert same_bytes(verify._hessian(hessian, steps[1], d),
                      oracles.hessian_from(list(hessian.T), steps[1], d))
