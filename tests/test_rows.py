"""The rows evaluation core against the one-point references in ``oracles``.

Real solves must match bit for bit, complex solves within 1e-14 relative
(numpy's complex products may differ from Python's in the last ulp), and
a failing row must raise what the one-point path raises, without
touching the other rows.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import f_at, geodesic_coefficients_general
from projflat import (CombinedNorm, DimensionMismatchError, DomainError,
                      DoubleSqrtNorm, EuclideanNorm, HomogeneousFunction, MetricEvaluator,
                      ProjFlatError, RandersNorm, ScaledNorm, SolverConfig,
                      SolverError, ZeroNorm, as_evaluator, berwald_system_residual,
                      broken_metric, build_k0, build_kneg1, build_kpos1, combine,
                      flag_curvature, hamel_residual, integrate_geodesic, jet,
                      list_catalog, master_pde_residual, parse_norms,
                      projective_factor_numeric, solve_complex, solve_real)
from projflat import norms
from projflat.cli import DEFAULT_TOLERANCES, _run_check, parse_metric
from projflat.sampling import ball_points, sphere_points
from projflat.construct import error_free
from projflat.verify import convexity_residual, point_values, ray_values


def origin_data(d):
    """(psi, phi) pairs at dimension d, dsr blocks (1, d - 1) included."""
    drift = tuple(np.linspace(0.2, -0.1, d))
    return [
        (EuclideanNorm(d), RandersNorm(d, drift)),
        (EuclideanNorm(d), ScaledNorm(d, 0.3)),
        (RandersNorm(d, drift), ScaledNorm(d, -0.25)),
        (EuclideanNorm(d), ZeroNorm(d)),
        (DoubleSqrtNorm(d, 1, d - 1, plus=True), DoubleSqrtNorm(d, 1, d - 1, plus=False)),
        parse_norms("bryant:0.5236", d),
    ]


CURVATURES = {0: build_k0, -1: build_kneg1, 1: build_kpos1}
CASES = [pytest.param(d, k, psi, phi, id=f"d{d}-K{k}-{psi.family}-{phi.family}")
         for d in (2, 3) for k in CURVATURES for psi, phi in origin_data(d)]


def sweep(metric, d, count=60, seed=0):
    """Seeded points up to 1.3 domain radii, so some rows fail."""
    rng = np.random.default_rng(seed + d)
    radius = min(metric.domain_radius, 2.0)
    x = rng.standard_normal((count, d))
    x *= (radius * rng.uniform(0.0, 1.3, count) / np.linalg.norm(x, axis=1))[:, None]
    x[:4] *= radius / np.linalg.norm(x[:4], axis=1)[:, None]  # on the guard
    y = rng.standard_normal((count, d)) * rng.uniform(0.2, 3.0, (count, 1))
    y[4] = 0.0
    y[5] = 1e-170  # squared length underflows to zero
    return x, y


def one_point(metric, k, psi, phi, x, y, cfg, with_f):
    """(F, P) at one point by the one-point route, or the error it raises."""
    try:
        oracles.point_guard(metric, x, y, with_f)
        return oracles.constructed_fp(k, psi, phi, x, y, cfg), None
    except ProjFlatError as exc:
        return None, exc


def assert_same(got, want, k):
    if k == 1:
        assert abs(got - want) <= 1e-14 * abs(want)
    else:
        assert got == want


@pytest.mark.parametrize("d, k, psi, phi", CASES)
def test_rows_equal_one_point_references(d, k, psi, phi):
    cfg = SolverConfig()
    metric = CURVATURES[k](psi, phi, cfg)
    x, y = sweep(metric, d)
    for with_f in (True, False):
        rows = metric.rows(x, y, with_f=with_f, with_p=True)
        assert rows.f is None or rows.f.shape == (len(y),)
        failed = 0
        for i in range(len(y)):
            want, error = one_point(metric, k, psi, phi, x[i], y[i], cfg, with_f)
            if error is not None:
                failed += 1
                assert type(rows.errors[i]) is type(error), i
                assert str(rows.errors[i]) == str(error), i
                assert np.isnan(rows.p[i])
                continue
            assert rows.errors[i] is None, (i, rows.errors[i])
            if with_f:
                assert_same(rows.f[i], want[0], k)
            assert_same(rows.p[i], want[1], k)
        assert failed >= 2  # the zero and the underflowing y


@pytest.mark.parametrize("k", sorted(CURVATURES))
def test_solver_failures_match_one_point(k):
    """An iteration cap or a point far outside fails alone, as it would alone."""
    psi, phi = EuclideanNorm(2), ScaledNorm(2, 0.3)
    for cfg in (SolverConfig(max_iterations=2, tolerance=1e-15), SolverConfig()):
        metric = CURVATURES[k](psi, phi, cfg)
        rng = np.random.default_rng(k + 7)
        x = rng.uniform(-3.0, 3.0, (40, 2))
        y = rng.standard_normal((40, 2))
        rows = metric.rows(x, y, with_f=False, with_p=True)
        kinds = set()
        for i in range(len(y)):
            want, error = one_point(metric, k, psi, phi, x[i], y[i], cfg, False)
            if error is None:
                assert rows.errors[i] is None
                assert_same(rows.p[i], want[1], k)
            else:
                kinds.add(type(error))
                assert (type(rows.errors[i]), str(rows.errors[i])) == (type(error), str(error))
        assert SolverError in kinds


def test_failed_kpos1_row_holds_nan():
    """A K = +1 row whose solve fails gets F = nan, not the imaginary part
    0 of a real nan."""
    metric = parse_metric("construct:1:bryant:0.5236", 2, SolverConfig(max_iterations=2))
    rows = metric.rows([[0.1, 0.0]], [[0.0, 1.0]], with_p=True)
    assert isinstance(rows.errors[0], SolverError)
    assert rows.f.dtype == rows.p.dtype == float
    assert np.isnan([rows.f[0], rows.p[0]]).all()


def test_solves_equal_one_point_solves_with_failures():
    rng = np.random.default_rng(11)
    cfgs = (SolverConfig(max_iterations=40), SolverConfig(max_iterations=1, tolerance=1e-15))
    for cfg in cfgs:
        for d in (1, 2, 3):
            phi = combine((1.0, RandersNorm(d, (0.3,) * d)), (0.5, EuclideanNorm(d)))
            psi = ScaledNorm(d, 0.5)
            x = rng.standard_normal((30, d)) * rng.uniform(0.0, 3.0, (30, 1))
            y = rng.standard_normal((30, d))
            y[0], y[1] = 1e-170, 1e-160
            for solve, scalar, args in ((solve_real, oracles.solve_real_scalar, (phi,)),
                                        (solve_complex, oracles.solve_complex_scalar,
                                         (phi, psi))):
                res = solve(*args, x, y, cfg)
                assert isinstance(res.iterations, int)
                for i in range(len(y)):
                    try:
                        want = scalar(*args, x[i], y[i], cfg)
                    except SolverError as exc:
                        assert (type(res.errors[i]), str(res.errors[i])) == (type(exc), str(exc))
                        continue
                    assert res.errors[i] is None
                    if solve is solve_real:
                        assert res.value[i] == want.value
                        np.testing.assert_array_equal(res.eta[i], want.eta)
                    else:
                        assert abs(res.value[i] - want.value) <= 1e-14 * abs(want.value)


KPOS1_PAIRS = [pytest.param(d, psi, phi, id=f"d{d}-{psi.family}-{phi.family}")
               for d in (2, 3) for psi, phi in origin_data(d)]


def in_ball(psi, phi, fraction, count=500):
    """x uniform in ``fraction`` of the K = +1 domain ball, y on the unit
    sphere (so |Z| is comparable with the solver's floor 1 + |z0|)."""
    rng = np.random.default_rng(psi.dimension)
    radius = min(build_kpos1(psi, phi).domain_radius, 2.0)
    return (ball_points(rng, psi.dimension, fraction * radius, count),
            sphere_points(rng, psi.dimension, count))


@pytest.mark.parametrize("d, psi, phi", KPOS1_PAIRS)
def test_secant_solve_agrees_with_picard(d, psi, phi):
    """The secant steps reach damped Picard's root: within 8 eps |Z| at 500
    points of the validity ball (Picard stops within about 4 eps (1 + |z0|)
    of the root)."""
    x, y = in_ball(psi, phi, 0.95)
    fast = solve_complex(phi, psi, x, y)
    slow = oracles.solve_complex_picard(phi, psi, x, y)
    assert not any(fast.errors) and not any(slow.errors)
    bound = 8.0 * np.finfo(float).eps * np.abs(slow.value)
    assert (np.abs(fast.value - slow.value) <= bound).all()


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("pair", ("bryant", "dsr"))
def test_secant_solve_takes_few_steps(d, pair):
    """About 5.5 steps per row where Picard takes about 20; a mean above 8
    means rows silently fell back to Picard."""
    if pair == "bryant":
        psi, phi = parse_norms("bryant:0.5236", d)
    else:
        psi, phi = (DoubleSqrtNorm(d, 1, d - 1, plus=True),
                    DoubleSqrtNorm(d, 1, d - 1, plus=False))
    x, y = in_ball(psi, phi, 0.8)
    fast = solve_complex(phi, psi, x, y)
    slow = oracles.solve_complex_picard(phi, psi, x, y)
    assert not any(fast.errors)
    assert fast.iterations <= 8 * len(y) < slow.iterations / 2


# beyond the dsr validity ball, where damping-1 Picard hits its iteration
# cap and damping 1/2 converges: the secant root there does not attract
# (|g'(Z)| >= 1), so the row restarts on the Picard path
FALLBACK_POINTS = [
    ([-0.587, -0.227], [-0.153, 0.123]),
    ([0.307, 0.526], [0.33, -0.261]),
    ([-0.458, -0.412, -0.117], [-1.394, 1.117, 1.487]),
]


def test_rejected_secant_root_gets_picard_bits():
    """A row whose secant root is not kept gets exactly damped Picard's
    value, alone and among rows that keep theirs."""
    for x, y in FALLBACK_POINTS:
        d = len(x)
        psi, phi = DoubleSqrtNorm(d, 1, d - 1, plus=True), DoubleSqrtNorm(d, 1, d - 1, plus=False)
        fast = solve_complex(phi, psi, [x], [y])
        slow = oracles.solve_complex_picard(phi, psi, [x], [y])
        assert fast.errors == slow.errors == [None]
        assert fast.iterations > slow.iterations  # the rejected attempt came first
        assert fast.value[0] == slow.value[0]
        np.testing.assert_array_equal(fast.eta, slow.eta)
        xs, ys = in_ball(psi, phi, 0.8, count=20)
        xs, ys = np.vstack([xs, [x]]), np.vstack([ys, [y]])
        mixed = solve_complex(phi, psi, xs, ys)
        assert not any(mixed.errors) and mixed.value[-1] == slow.value[0]


RANDERS = RandersNorm(2, (0.2, 0.1))
# every function that evaluates a metric (or solves) on rows, called on (x, y)
ROWS_FUNCTIONS = {
    "solve_real": lambda metric, x, y: solve_real(RANDERS, x, y),
    "solve_complex": lambda metric, x, y: solve_complex(RANDERS, EuclideanNorm(2), x, y),
    "MetricEvaluator.rows": lambda metric, x, y: metric.rows(x, y),
    "integrate_geodesic": lambda metric, x, y: integrate_geodesic(metric, x, y, 0.1, 2),
    **{fn.__name__: fn for fn in (
        jet, hamel_residual, projective_factor_numeric, flag_curvature, point_values,
        berwald_system_residual, master_pde_residual, convexity_residual,
        geodesic_coefficients_general)},
}
BAD_SHAPES = {
    "one point": ([0.1, 0.0], [1.0, 0.0]),
    "rows and one point": ([[0.1, 0.0], [0.2, 0.0]], [1.0, 0.0]),
    "mismatched rows": ([[0.1, 0.0], [0.2, 0.0]], [[1.0, 0.0]]),
    "wrong width": ([[0.1, 0.0, 0.0]], [[1.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize("name", sorted(ROWS_FUNCTIONS))
@pytest.mark.parametrize("spec", ["catalog:funk", "construct:0:euclidean:randers:0.2,0.1"])
def test_rows_functions_reject_other_shapes(spec, name, shape):
    """Rows ``(N, n)`` of one shape are the only input: a single point, two
    shapes or the wrong width is a DimensionMismatchError, not a DomainError
    (exit 3), before anything is evaluated."""
    metric = parse_metric(spec, 2, SolverConfig())
    x, y = BAD_SHAPES[shape]
    with pytest.raises(DimensionMismatchError, match=r"must be rows \(N, 2\) of one shape"):
        ROWS_FUNCTIONS[name](metric, x, y)


def test_closed_form_rows_run_eval_row_by_row(monkeypatch):
    """A closed form's rows pass the point guard first; ``eval`` then runs
    once on each row that passed, and never on a guarded-out row.  A
    formula's own DomainError fails its row alone: funk at |x| = 1 - 1e-13
    is inside the guard's radius 1 but outside the formula's ball.  Its P
    is the numeric one of ``oracles._p_numeric``, bit for bit, with the
    same per-row errors (F's first on a row asked for both)."""
    metric = parse_metric("catalog:funk", 2, SolverConfig())
    x = np.array([[0.1, 0.2], [1.5, 0.0], [0.3, -0.4], [1.0 - 1e-13, 0.0],
                  [np.nan, 0.0], [-0.2, 0.5]])
    y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.3, 0.1]])
    evaluated = []
    formula = MetricEvaluator.eval

    def counted(self, xi, yi):
        evaluated.append(xi.tolist())
        return formula(self, xi, yi)

    monkeypatch.setattr(MetricEvaluator, "eval", counted)
    rows = metric.rows(x, y)
    assert evaluated == [x[i].tolist() for i in (0, 3, 5)]
    for i in (0, 5):
        assert rows.errors[i] is None and rows.f[i] == formula(metric, x[i], y[i])
    assert np.isnan(rows.f[1:5]).all()
    assert all(type(exc) is DomainError for exc in rows.errors[1:5])
    assert str(rows.errors[3]) == "funk metric lives on the open unit ball"
    p, p_errors = oracles._p_numeric(metric, x, y)
    for with_f in (True, False):
        both = metric.rows(x, y, with_f=with_f, with_p=True)
        assert same_bits(both.p, p)
        assert messages(both.errors) == messages(p_errors)


def same_bits(a, b):
    """Equal arrays, nan where the other is nan and the same bits elsewhere."""
    nan = np.isnan(a)
    return (nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes()


def messages(errors):
    return [None if e is None else (type(e), str(e)) for e in errors]


def closed_forms(d):
    return [pytest.param(as_evaluator(entry), id=f"d{d}-{entry.name}")
            for entry in list_catalog(d)] + [pytest.param(broken_metric(d), id=f"d{d}-broken")]


@pytest.mark.parametrize("metric", closed_forms(2) + closed_forms(3))
def test_closed_form_masks_equal_uniform_calls(metric):
    """On every closed form, per-row ``with_f`` and ``with_p`` masks give
    each row what the uniform call for its fields gives it: F, P and error
    of ``with_f=True, with_p=True`` on a row asked for both, of the F-only
    or the P-only call on a row asked for one, and nan with no error on a
    row asked for neither.  The P-only call equals ``oracles._p_numeric``
    bit for bit.  The rows hold points beyond the validity radius, a zero
    and an underflowing y, non-finite input, and a tiny y."""
    d = metric.dimension
    rng = np.random.default_rng(d)
    radius = min(metric.domain_radius, 2.0)
    x = np.vstack([ball_points(rng, d, 0.7 * radius, 8),
                   1.05 * radius * sphere_points(rng, d, 2), 3.0 * sphere_points(rng, d, 1),
                   np.zeros((5, d))])
    y = sphere_points(rng, d, len(x)) * rng.uniform(0.5, 2.0, (len(x), 1))
    y[11], y[12], y[13] = 0.0, 1e-170, 1e-100
    x[14, 0], y[15, -1] = np.nan, np.inf
    f_mask, p_mask = rng.random((2, len(x))) < 0.6
    f_mask[:4], p_mask[:4] = [True, True, False, False], [True, False, True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = metric.rows(x, y, with_f=f_mask, with_p=p_mask)
        uniform = {(True, True): metric.rows(x, y, with_p=True),
                   (True, False): metric.rows(x, y),
                   (False, True): metric.rows(x, y, with_f=False, with_p=True)}
    p, p_errors = oracles._p_numeric(metric, x, y)
    assert same_bits(uniform[False, True].p, p)
    assert messages(uniform[False, True].errors) == messages(p_errors)
    for i, asked in enumerate(zip(f_mask.tolist(), p_mask.tolist())):
        want = uniform.get(asked)
        if want is None:
            assert mixed.errors[i] is None and np.isnan([mixed.f[i], mixed.p[i]]).all()
            continue
        assert messages(mixed.errors[i:i + 1]) == messages(want.errors[i:i + 1]), i
        for got, ref, on in ((mixed.f, want.f, asked[0]), (mixed.p, want.p, asked[1])):
            assert same_bits(got[i:i + 1], ref[i:i + 1]) if on else np.isnan(got[i]), i


@pytest.mark.parametrize("metric", closed_forms(2) + closed_forms(3))
def test_closed_form_masked_rows_call_eval_once_per_f_row(metric, monkeypatch):
    """Per-row ``with_f`` and ``with_p`` masks give the asked rows the bits
    of the unmasked call, F and P, and nan elsewhere.  ``eval`` runs once
    per row asked for F, and three times per row asked for P (its
    quotient's points, all inside the guard here)."""
    d = metric.dimension
    rng = np.random.default_rng(40 + d)
    x = ball_points(rng, d, 0.5 * min(metric.domain_radius, 2.0), 40)
    y = sphere_points(rng, d, 40) * rng.uniform(0.5, 2.0, (40, 1))
    f_mask, p_mask = rng.random((2, 40)) < 0.5
    full = metric.rows(x, y, with_p=True)
    calls = []
    formula = MetricEvaluator.eval
    monkeypatch.setattr(MetricEvaluator, "eval",
                        lambda self, xi, yi: calls.append(1) or formula(self, xi, yi))
    f_only = metric.rows(x, y, with_f=f_mask)
    assert len(calls) == np.count_nonzero(f_mask)
    mixed = metric.rows(x, y, with_f=f_mask, with_p=p_mask)
    assert len(calls) == 2 * np.count_nonzero(f_mask) + 3 * np.count_nonzero(p_mask)
    for got in (f_only, mixed):
        assert same_bits(got.f, np.where(f_mask, full.f, np.nan))
    assert same_bits(mixed.p, np.where(p_mask, full.p, np.nan))
    assert not np.isnan(full.f).any() and not np.isnan(full.p).any()
    assert all(exc is None for exc in full.errors + mixed.errors)


@pytest.mark.parametrize("spec", ["construct:0:euclidean:randers:0.2,0.1",
                                  "construct:1:dsr-b:1,1:dsr-a:1,1", "catalog:funk",
                                  "test:broken"])
def test_point_values_rows_equal_single_rows(spec):
    """What ``sample`` prints: each row's F, P, K and error are those the
    row gets alone, so the same rows stay blank."""
    metric = parse_metric(spec, 2, SolverConfig())
    radius = min(metric.domain_radius, 1.0)
    axis = np.linspace(-1.2 * radius, 1.2 * radius, 7)
    x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    y = np.tile([0.6, 0.8], (len(x), 1))
    y[3] = 0.0
    f, p, k, errors = point_values(metric, x, y)
    assert any(errors) and not all(errors)
    for i in range(len(x)):
        f1, p1, k1, e1 = point_values(metric, x[i:i + 1], y[i:i + 1])
        assert (type(errors[i]), str(errors[i])) == (type(e1[0]), str(e1[0]))
        if e1[0] is None:
            assert (f[i], p[i], k[i]) == (f1[0], p1[0], k1[0])


def test_geodesics_step_together_and_stop_alone():
    metric = build_k0(EuclideanNorm(2), EuclideanNorm(2))  # validity ball 0.4
    starts = np.array([[0.0, 0.0], [0.3, 0.0], [0.1, 0.1]])
    velocities = np.array([[0.3, 0.4], [1.0, 0.0], [-0.2, 0.5]])
    together = integrate_geodesic(metric, starts, velocities, 0.8, 40)
    assert [t.completed for t in together] == [True, False, True]
    for traj, x0, v0 in zip(together, starts, velocities):
        [alone] = integrate_geodesic(metric, x0[None], v0[None], 0.8, 40)
        assert traj.completed == alone.completed
        np.testing.assert_array_equal(traj.points, alone.points)
        np.testing.assert_array_equal(traj.velocities, alone.velocities)
        np.testing.assert_array_equal(traj.times, alone.times)


def test_geodesic_stops_alone_at_an_rk_stage():
    """A closed form's numeric P fails at an RK stage beyond |x| = 1: that
    trajectory stops with its start point only, the other completes."""
    metric = parse_metric("catalog:funk", 2, SolverConfig())
    starts = np.array([[0.9, 0.0], [0.0, 0.0]])
    velocities = np.array([[1.0, 0.0], [0.0, 1.0]])
    together = integrate_geodesic(metric, starts, velocities, 0.5, 2)
    assert [(t.completed, len(t.points)) for t in together] == [(False, 1), (True, 3)]
    for traj, x0, v0 in zip(together, starts, velocities):
        [alone] = integrate_geodesic(metric, x0[None], v0[None], 0.5, 2)
        assert traj.completed == alone.completed
        np.testing.assert_array_equal(traj.points, alone.points)
        np.testing.assert_array_equal(traj.velocities, alone.velocities)


@pytest.mark.parametrize("spec, starts, velocities, t_end, steps, live", [
    # the second trajectory leaves the validity ball 0.4 at the end of step 5,
    # so it is asked at all four stages of steps 0-5 and never after
    ("construct:0:euclidean:euclidean", [[0.0, 0.0], [0.3, 0.0], [0.1, 0.1]],
     [[0.3, 0.4], [1.0, 0.0], [-0.2, 0.5]], 0.8, 40, [3] * 24 + [2] * 136),
    # the first trajectory's P fails at the second stage of step 0, beyond |x| = 1
    ("catalog:funk", [[0.9, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], 0.5, 2,
     [2, 2] + [1] * 6),
])
def test_geodesic_asks_p_of_live_trajectories_only(spec, starts, velocities, t_end, steps,
                                                   live, monkeypatch):
    metric = parse_metric(spec, 2, SolverConfig())
    asked, rows = [], MetricEvaluator.rows

    def counted_rows(self, x, y, with_f=True, with_p=False, guess=None):
        if with_p is not False:  # a closed form's quotient asks F alone
            asked.append(int(np.count_nonzero(np.broadcast_to(with_p, len(x)))))
        return rows(self, x, y, with_f, with_p, guess)

    monkeypatch.setattr(MetricEvaluator, "rows", counted_rows)
    trajectories = integrate_geodesic(metric, np.array(starts), np.array(velocities),
                                      t_end, steps)
    assert asked == live
    assert not all(t.completed for t in trajectories)


def patch_kernels(monkeypatch, record):
    """Wrap every norm row kernel, the pair kernel ``_complex_pair`` and
    the shared-length kernels ``_on_length`` and ``_grad_on_length``
    included, so that each call first runs ``record(key, rows)`` with key
    (family class name, kernel name).  A default pair kernel calls the
    two ``_complex`` kernels, which record their calls too."""
    def counted(key, fn):
        def wrapper(self, *args):  # (v,), (v, length), or (other, v) for the pair kernel
            record(key, args[1] if key[1] == "_complex_pair" else args[0])
            return fn(self, *args)
        return wrapper

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in subclasses(HomogeneousFunction):
        for name in ("_real", "_grad", "_complex", "_complex_pair", "_on_length",
                     "_grad_on_length"):
            if name in cls.__dict__:
                key = (cls.__name__, name)
                monkeypatch.setattr(cls, name, counted(key, cls.__dict__[name]))


@pytest.fixture
def norm_calls(monkeypatch):
    """Count the calls of every norm row kernel."""
    counts = {"calls": 0}

    def record(key, rows):
        counts["calls"] += 1

    patch_kernels(monkeypatch, record)
    return counts


@pytest.mark.parametrize("spec", ["construct:0:euclidean:randers:0.2,0.1",
                                  "construct:-1:euclidean:scaled:0.3",
                                  "construct:1:bryant:0.5236",
                                  "construct:1:dsr-b:1,1:dsr-a:1,1"])
def test_norm_calls_do_not_grow_with_rows(norm_calls, spec):
    """F and P on 4 and on 136 rows (one 4-sample hamel stencil) share
    every norm call: the count is bounded by that of the slowest row
    evaluated alone (its extra iterations), not summed over the rows as
    a loop over rows would make it."""
    metric = parse_metric(spec, 2, SolverConfig())
    rng = np.random.default_rng(5)
    for count in (4, 136):
        x = rng.standard_normal((count, 2))
        x *= (0.2 * rng.random(count) / np.linalg.norm(x, axis=1))[:, None]
        y = rng.standard_normal((count, 2))
        alone = []
        for i in range(count):
            norm_calls["calls"] = 0
            metric.rows(x[i:i + 1], y[i:i + 1], with_p=True)
            alone.append(norm_calls["calls"])
        norm_calls["calls"] = 0
        rows = metric.rows(x, y, with_p=True)
        assert not any(rows.errors)
        assert norm_calls["calls"] <= 2 * max(alone), (count, norm_calls["calls"], max(alone))
        assert count == 4 or norm_calls["calls"] < sum(alone) / 10


@pytest.fixture
def kernel_rows(monkeypatch):
    """The row count of every call of each norm row kernel, keyed by
    (family class name, kernel name)."""
    calls = {}
    patch_kernels(monkeypatch, lambda key, rows: calls.setdefault(key, []).append(len(rows)))
    return calls


@pytest.mark.parametrize("pair", ("bryant", "dsr"))
def test_complex_solve_judges_once_per_round(kernel_rows, pair):
    """On in-ball rows, which keep their secant roots, ``solve_complex``
    evaluates the pair phi + i psi 1 + (loop steps) + 1 times: z0, once per
    step and once to judge every row, each time in one call of the pair
    kernel and no other kernel.  The loop runs as many steps as its
    slowest row takes alone."""
    if pair == "bryant":
        psi, phi = parse_norms("bryant:0.5236", 2)
    else:
        psi, phi = DoubleSqrtNorm(2, 1, 1, plus=True), DoubleSqrtNorm(2, 1, 1, plus=False)
    x, y = in_ball(psi, phi, 0.8, count=5)

    def pair_evaluations(*rows):
        kernel_rows.clear()
        res = solve_complex(phi, psi, *rows)
        [((_, kernel), calls)] = kernel_rows.items()
        assert kernel == "_complex_pair" and set(calls) == {len(rows[1])}
        assert not any(res.errors)
        return len(calls), res.iterations

    steps = []
    for i in range(len(y)):
        evaluations, iterations = pair_evaluations(x[i:i + 1], y[i:i + 1])
        assert evaluations == 1 + iterations + 1
        steps.append(iterations)
    evaluations, iterations = pair_evaluations(x, y)
    assert len(set(steps)) > 1  # the rows leave at different steps
    assert evaluations == 1 + max(steps) + 1 and iterations == sum(steps)


def signed_pair(psi, phi, count):
    """phi + s psi on twice ``count`` rows, s = +1 on the first ``count``
    and -1 on the others: ``build_kneg1``'s one solve of Phi_+ and Phi_-."""
    return CombinedNorm(psi.dimension, ((1.0, phi), (np.repeat((1.0, -1.0), count), psi)))


def test_stacked_kneg1_solve_runs_each_norm_once(kernel_rows, monkeypatch):
    """The stacked K = -1 solve of phi + s psi on 2N rows calls the
    combination's ``_real`` and phi's and psi's ``_on_length`` once per
    value evaluation, and the combination's ``_grad`` and their
    ``_grad_on_length`` once per Newton step, every call on all 2N rows:
    as many calls as the slower of the two solves alone makes on N rows.
    Each of those evaluations computes |v| once, for both terms."""
    lengths, length = [], norms.lengths
    monkeypatch.setattr(norms, "lengths", lambda v: lengths.append(len(v)) or length(v))
    psi, phi = EuclideanNorm(2), ScaledNorm(2, 0.3)
    f_plus, f_minus = combine((1.0, phi), (1.0, psi)), combine((1.0, phi), (-1.0, psi))
    rng = np.random.default_rng(2)
    x = ball_points(rng, 2, 0.5 * build_kneg1(psi, phi).domain_radius, 5)
    y = sphere_points(rng, 2, 5)
    counts = []
    for fn in (f_plus, f_minus):
        kernel_rows.clear()
        solve_real(fn, x, y)
        counts.append({key: len(calls) for key, calls in kernel_rows.items()})
    kernel_rows.clear()
    lengths.clear()
    res = solve_real(signed_pair(psi, phi, len(y)), np.vstack((x, x)), np.vstack((y, y)))
    assert not any(res.errors)
    assert set(kernel_rows) == {("CombinedNorm", "_real"), ("CombinedNorm", "_grad"),
                                ("EuclideanNorm", "_on_length"), ("ScaledNorm", "_on_length"),
                                ("EuclideanNorm", "_grad_on_length"),
                                ("ScaledNorm", "_grad_on_length")}
    for key, calls in kernel_rows.items():
        assert set(calls) == {2 * len(y)}, key
        assert len(calls) == max(count[key] for count in counts), key
    for name in ("_on_length", "_grad_on_length"):
        assert len(kernel_rows[("ScaledNorm", name)]) == len(kernel_rows[("EuclideanNorm", name)])
    evaluations = sum(len(kernel_rows[("CombinedNorm", name)]) for name in ("_real", "_grad"))
    assert lengths == [2 * len(y)] * evaluations


# the benchmark's four constructions
BENCH_CONSTRUCTIONS = ("construct:0:euclidean:randers:0.2,0.1",
                       "construct:-1:euclidean:scaled:0.3", "construct:1:bryant:0.5236",
                       "construct:1:dsr-b:1,1:dsr-a:1,1")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BENCH_CONSTRUCTIONS), st.integers(0, 2**32 - 1),
       st.floats(-150.0, 150.0))
def test_f_and_p_have_degree_one_in_y(spec, seed, log_scale):
    """F(x, s y) = s F(x, y) and P likewise for s in [1e-150, 1e150]; the
    solves stop on absolute floors, so a tiny or huge y must be rescaled.
    P can pass through 0, so its error is measured against F."""
    metric = parse_metric(spec, 2, SolverConfig())
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, 2))
    x *= 0.5 * metric.domain_radius * rng.random() / np.linalg.norm(x)
    y /= np.linalg.norm(y)
    scale = 10.0 ** log_scale
    one = metric.rows(x[None], y[None], with_p=True)
    scaled = metric.rows(x[None], scale * y[None], with_p=True)
    np.testing.assert_allclose(scaled.f / scale, one.f, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(scaled.p / scale, one.p, rtol=1e-12, atol=1e-12 * one.f[0])


@pytest.mark.parametrize("spec", ("catalog:funk", "test:broken") + BENCH_CONSTRUCTIONS)
def test_point_guard_rejects_non_finite_points(spec):
    """Every metric kind rejects at its one point guard a non-finite x or
    y, a y = 0 (also one whose squared length underflows) and an x beyond
    the validity radius, with the same error type and message for every
    kind, in a one-row batch and per row among others; the other rows keep
    their values."""
    metric = parse_metric(spec, 2, SolverConfig())
    cases = [([np.nan, 0.0], [1.0, 0.0], "x and y must be finite, with finite squared lengths"),
             ([0.0, 0.0], [np.inf, 1.0], "x and y must be finite, with finite squared lengths"),
             ([0.1, 0.0], [0.0, 0.0], "y = 0 is outside the metric domain"),
             ([0.1, 0.0], [1e-170, 1e-170], "y = 0 is outside the metric domain")]
    if math.isfinite(metric.domain_radius):  # test:broken has no radius
        far = 1.5 * metric.domain_radius
        cases.append(([far, 0.0], [0.0, 1.0],
                      f"|x| = {far:.6g} exceeds the validity radius "
                      f"{metric.domain_radius:.6g} of this evaluator"))
    x = np.array([[0.1, 0.05]] + [case[0] for case in cases])
    y = np.array([[0.6, 0.8]] + [case[1] for case in cases])
    rows = metric.rows(x, y)
    assert rows.errors[0] is None and rows.f[0] == metric.rows(x[:1], y[:1]).f[0]
    for i, (_, _, message) in enumerate(cases, 1):
        with pytest.raises(DomainError) as alone:
            f_at(metric, x[i], y[i])
        assert type(alone.value) is DomainError and str(alone.value) == message
        assert type(rows.errors[i]) is DomainError and str(rows.errors[i]) == message
        assert np.isnan(rows.f[i])


@pytest.mark.parametrize("spec, with_f, with_p", [("catalog:funk", True, False)] + [
    (spec, with_f, with_p) for spec in BENCH_CONSTRUCTIONS
    for with_f, with_p in ((True, False), (True, True), (False, True))])
def test_passing_rows_keep_their_bits_among_failing_rows(spec, with_f, with_p):
    """``rows`` on passing rows alone takes the path with no per-row
    Python; the same rows with failing ones interleaved (y = 0, a
    non-finite x and, when F is asked for, an x beyond the radius) take the
    guarded path.  Both give the passing rows the same F and P bits and no
    error, and the failing rows keep the guard's messages."""
    metric = parse_metric(spec, 2, SolverConfig())
    rng = np.random.default_rng(11)
    x = ball_points(rng, 2, 0.5 * min(metric.domain_radius, 1.0), 6)
    y = sphere_points(rng, 2, 6) * rng.uniform(0.5, 2.0, (6, 1))
    bad = [([0.1, 0.0], [0.0, 0.0], "y = 0 is outside the metric domain"),
           ([np.nan, 0.0], [1.0, 0.0], "x and y must be finite, with finite squared lengths")]
    if with_f:
        far = 1.5 * metric.domain_radius
        bad.append(([far, 0.0], [0.0, 1.0], f"|x| = {far:.6g} exceeds the validity radius"))
    at = [1, 3, 6][:len(bad)]  # where the failing rows go in the mixed batch
    xs, ys = x.tolist(), y.tolist()
    for i, (bx, by, _) in zip(at, bad):
        xs.insert(i, bx)
        ys.insert(i, by)
    alone = metric.rows(x, y, with_f=with_f, with_p=with_p)
    mixed = metric.rows(np.array(xs), np.array(ys), with_f=with_f, with_p=with_p)
    good = [i for i in range(len(ys)) if i not in at]
    assert alone.errors == [None] * len(y)
    assert [mixed.errors[i] for i in good] == [None] * len(y)
    for i, (_, _, message) in zip(at, bad):
        assert type(mixed.errors[i]) is DomainError and str(mixed.errors[i]).startswith(message)
    for got, want in ((mixed.f, alone.f), (mixed.p, alone.p)):
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got[good], want)
            assert np.isnan(got[at]).all()


@pytest.mark.parametrize("spec", ("catalog:funk",) + BENCH_CONSTRUCTIONS)
def test_with_f_mask_rows_equal_the_calls_they_replace(spec):
    """A per-row ``with_f`` mask gives its F rows what ``with_f=True``
    gives them (F, radius guard and errors) and its other rows what
    ``with_f=False`` gives them: nan F and an unguarded P."""
    metric = parse_metric(spec, 2, SolverConfig())
    with_p = metric.solve is not None
    rng = np.random.default_rng(5)
    x = np.vstack([ball_points(rng, 2, 0.4 * min(metric.domain_radius, 1.0), 4),
                   [[1.05 * metric.domain_radius, 0.0]] * 2])
    y = sphere_points(rng, 2, 6)
    mask = np.array([True, False, False, True, True, False])
    mixed = metric.rows(x, y, with_f=mask, with_p=with_p)
    full = metric.rows(x, y, with_p=with_p)
    p_only = metric.rows(x, y, with_f=False, with_p=with_p)
    np.testing.assert_array_equal(mixed.f[mask], full.f[mask])
    assert np.isnan(mixed.f[~mask]).all()
    if with_p:
        np.testing.assert_array_equal(mixed.p, np.where(mask, full.p, p_only.p))
        assert not np.isnan(mixed.p[-1])  # beyond the radius, asked for P only
    assert isinstance(mixed.errors[4], DomainError)  # beyond the radius, asked for F
    for i, exc in enumerate(mixed.errors):
        want = (full if mask[i] else p_only).errors[i]
        assert (type(exc), str(exc)) == (type(want), str(want))


@pytest.mark.parametrize("spec", BENCH_CONSTRUCTIONS)
def test_far_x_fails_its_row_without_a_warning(spec):
    """P is not radius-guarded, so an x of 1e150 reaches the solves, where
    y + x t overflows: that row gets a SolverError, with no numpy warning,
    and the other row its value."""
    metric = parse_metric(spec, 2, SolverConfig())
    x, y = np.array([[1e150, 0.0], [0.1, 0.0]]), np.array([[0.3, 1.0], [0.3, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = metric.rows(x, y, with_f=False, with_p=True)
    assert isinstance(rows.errors[0], SolverError) and np.isnan(rows.p[0])
    assert rows.errors[1] is None and rows.p[1] == metric.rows(x[1:], y[1:], with_p=True).p[0]


@pytest.mark.parametrize("spec", ("catalog:funk", "test:broken") + BENCH_CONSTRUCTIONS)
def test_point_guard_rejects_overflowing_squares_without_a_warning(spec):
    """A finite x or y whose squared length overflows (or y whose squared
    length underflows) raises the guard's DomainError with no numpy
    warning, so it raises the same under ``-W error``."""
    metric = parse_metric(spec, 2, SolverConfig())
    cases = [([0.0, 0.0], [1e200, 0.0], "must be finite"),
             ([1e200, 0.0], [1.0, 0.0], "must be finite"),
             ([0.0, 0.0], [1e-170, 1e-170], "y = 0")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y, message in cases:
            with pytest.raises(DomainError, match=message):
                f_at(metric, x, y)
        rows = metric.rows(np.array([x for x, _, _ in cases]), np.array([y for _, y, _ in cases]))
    for exc, (_, _, message) in zip(rows.errors, cases):
        assert isinstance(exc, DomainError) and message in str(exc)


@pytest.mark.parametrize("spec", ("catalog:funk",) + BENCH_CONSTRUCTIONS)
def test_numeric_p_rejects_a_non_finite_y_without_a_warning(spec):
    """``projective_factor_numeric`` forms its step |y|-scaled before the
    point guard, so a non-finite or overflowing y must raise the guard's
    DomainError with no numpy warning, also under ``-W error``."""
    metric = parse_metric(spec, 2, SolverConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in ([1.0, np.inf], [np.nan, 1.0], [1e200, 0.0]):
            with pytest.raises(DomainError, match="must be finite"):
                projective_factor_numeric(metric, [[0.1, 0.0]], [y])


@pytest.mark.parametrize("spec, solver", [(BENCH_CONSTRUCTIONS[0], "solve_real"),
                                          (BENCH_CONSTRUCTIONS[1], "solve_real"),
                                          (BENCH_CONSTRUCTIONS[2], "solve_complex"),
                                          (BENCH_CONSTRUCTIONS[3], "solve_complex")])
def test_one_solve_per_rows_call(monkeypatch, spec, solver):
    """One ``rows`` call makes one solve, K = -1 included: its Phi_+ and
    Phi_- are one stacked ``solve_real`` call."""
    import projflat.construct as construct
    metric = parse_metric(spec, 2, SolverConfig())
    calls = {"solve_real": 0, "solve_complex": 0}
    for name in calls:
        def counted(*args, name=name, solve=getattr(construct, name)):
            calls[name] += 1
            return solve(*args)
        monkeypatch.setattr(construct, name, counted)
    x = np.array([[0.1, 0.05], [0.0, -0.1], [0.15, 0.0]])
    y = np.array([[0.6, 0.8], [1.0, 0.0], [-0.3, 2.0]])
    rows = metric.rows(x, y, with_p=True)
    assert not any(rows.errors)
    assert calls == {"solve_real": 0, "solve_complex": 0, solver: 1}


@pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(max_iterations=1, tolerance=1e-15)],
                         ids=["default", "capped"])
@pytest.mark.parametrize("d, psi, phi", KPOS1_PAIRS)
def test_stacked_kneg1_solve_equals_two_solves(d, psi, phi, cfg):
    """The stacked K = -1 solve of phi + s psi on [x; x], [y; y] gives each
    half the bits and errors of its own solve of phi + psi or phi - psi, so
    a row that fails Phi_+ or Phi_- alone fails the same way in its half.
    The sweep is also taken three times as far, where rows fail one solve
    only, and one row at half the radius is solved alone: at d = 2 its two
    copies are as many rows as the gradient has columns."""
    f_plus, f_minus = combine((1.0, phi), (1.0, psi)), combine((1.0, phi), (-1.0, psi))
    metric = build_kneg1(psi, phi, cfg)
    x, y = sweep(metric, d)
    one = 0.5 * min(metric.domain_radius, 2.0) * x[6:7] / np.linalg.norm(x[6])

    def halves(x, y):
        both = solve_real(signed_pair(psi, phi, len(y)), np.vstack((x, x)), np.vstack((y, y)), cfg)
        alone = (solve_real(f_plus, x, y, cfg), solve_real(f_minus, x, y, cfg))
        for k, res in enumerate(alone):
            part = slice(k * len(y), (k + 1) * len(y))
            np.testing.assert_array_equal(both.value[part], res.value)
            np.testing.assert_array_equal(both.eta[part], res.eta)
            np.testing.assert_array_equal(both.residual[part], res.residual)
            assert ([(type(e), str(e)) for e in both.errors[part]]
                    == [(type(e), str(e)) for e in res.errors])
        assert both.iterations == sum(res.iterations for res in alone)
        return alone

    solved = halves(np.vstack((x, 3.0 * x)), np.vstack((y, y)))
    single = halves(one, y[6:7])
    if cfg == SolverConfig():  # capped, nearly every row fails both solves
        assert all(res.errors == [None] for res in single)
        plus, minus = (np.array([e is None for e in res.errors]) for res in solved)
        assert (plus != minus).any()


@pytest.mark.parametrize("spec", ("catalog:funk", "test:broken") + BENCH_CONSTRUCTIONS)
def test_point_values_report_a_zero_y_alike(spec):
    """``eval`` and ``sample`` report a y = 0, or a y whose squared length
    underflows, with the point guard's message for every metric kind: a
    closed form's numeric P adds no message of its own.  The failed rows
    hold nan in F, P and K alike (K, taken at y / |y|, would be finite),
    and the valid row keeps the values it has alone."""
    metric = parse_metric(spec, 2, SolverConfig())
    x = np.array([[0.1, 0.0], [0.1, 0.0], [0.1, 0.0]])
    y = np.array([[0.0, 0.0], [1e-170, 1e-170], [0.6, 0.8]])
    f, p, k, errors = point_values(metric, x, y)
    for i in (0, 1):
        assert type(errors[i]) is DomainError
        assert str(errors[i]) == "y = 0 is outside the metric domain"
        assert np.isnan([f[i], p[i], k[i]]).all()
    assert errors[2] is None
    for got, alone in zip((f, p, k), point_values(metric, x[2:], y[2:])):
        assert np.isfinite(alone).all()
        np.testing.assert_array_equal(got[2:], alone)


# ---------------------------------------------------------------------------
# the ray law, and the geodesic stages it guesses


def at_dim(spec, d):
    """A benchmark construction's spec at dimension d (2 or 3)."""
    if d == 2:
        return spec
    return spec.replace("0.2,0.1", "0.2,0.1,-0.05").replace("1,1:dsr-a:1,1", "1,2:dsr-a:1,2")


@pytest.mark.parametrize("d, k, psi, phi", CASES)
def test_ray_values_match_solved_rows_along_lines(d, k, psi, phi):
    """``ray_values`` carries F and P solved at (x, y) to (x + s y, y)
    within 1e-14 relative to F there, on the lines through 40 points in
    half the validity ball (capped at 2), with s across the ball's chord."""
    metric = CURVATURES[k](psi, phi)
    radius = min(metric.domain_radius, 2.0)
    rng = np.random.default_rng(11 + d)
    x = ball_points(rng, d, 0.5 * radius, 40)
    y = sphere_points(rng, d, 40) * rng.uniform(0.5, 2.0, (40, 1))
    # |x + s y| = radius at s = -b -+ root
    yy, b = np.vecdot(y, y), np.vecdot(x, y) / np.vecdot(y, y)
    root = np.sqrt(b * b - (np.vecdot(x, x) - radius ** 2) / yy)
    s = -b + root * rng.uniform(-0.99, 0.99, 40)
    values = metric.rows(np.vstack((x, x + s[:, None] * y)), np.vstack((y, y)), with_p=True)
    assert not any(values.errors)
    f, p = ray_values(values.f[:40], values.p[:40], float(k), s)
    there_f, there_p = values.f[40:], values.p[40:]
    assert (np.maximum(np.abs(f - there_f), np.abs(p - there_p)) / there_f).max() <= 1e-14


@pytest.mark.parametrize("d, k, psi, phi", CASES)
def test_a_rows_guess_changes_no_outcome(d, k, psi, phi):
    """``rows`` asked F and P with a guess gives each of ``sweep``'s rows
    (out to 1.3 radii, with failing rows) the error type it has without
    one and, where it evaluates, F and P within 8 eps (2^e + |F| + |P|) of
    its cold values, 2^e being y's range scale: for guesses exact, 1e-8
    off, non-finite, 0, far off, and with F negated (the conjugate, the
    wrong branch, at K = +1)."""
    metric = CURVATURES[k](psi, phi)
    x, y = sweep(metric, d)
    cold = metric.rows(x, y, with_p=True)
    f, p = cold.f, cold.p
    count = len(y)
    bound = 8.0 * np.finfo(float).eps * (2.0 ** norms.scale_exponents(y) + np.abs(f) + np.abs(p))
    for name, guess in {"exact": (f, p), "off": (f * (1.0 + 1e-8), p * (1.0 - 1e-8)),
                        "nan": (np.full(count, np.nan), p), "inf": (np.full(count, np.inf),
                                                                    np.full(count, -np.inf)),
                        "zero": (np.zeros(count), np.zeros(count)), "far": (f * 1e6, p * 1e6),
                        "conjugate": (-f, p)}.items():
        got = metric.rows(x, y, with_p=True, guess=guess)
        assert [type(e) for e in got.errors] == [type(e) for e in cold.errors], name
        ok = error_free(cold.errors)
        assert np.all(np.abs(got.f - f)[ok] <= bound[ok]), name
        assert np.all(np.abs(got.p - p)[ok] <= bound[ok]), name


def cold_rows(monkeypatch):
    """Make every ``rows`` call drop its guess, as the solves ran before
    they took one."""
    rows = MetricEvaluator.rows
    monkeypatch.setattr(MetricEvaluator, "rows", lambda self, x, y, with_f=True, with_p=False,
                        guess=None: rows(self, x, y, with_f, with_p))


@pytest.mark.parametrize("spec", BENCH_CONSTRUCTIONS)
def test_guessed_geodesic_check_makes_half_the_kernel_calls(spec, monkeypatch):
    """The ``geodesic`` check on a benchmark construction, its stages
    guessed by the ray law, calls the norm kernels at most half as often
    as with every guess dropped."""
    metric = parse_metric(spec, 2, SolverConfig())
    calls = []
    patch_kernels(monkeypatch, lambda key, rows: calls.append(key))

    def kernel_calls():
        calls.clear()
        report = _run_check("geodesic", metric, np.random.default_rng(42), 0.3, 5,
                            DEFAULT_TOLERANCES["geodesic"])
        assert report["pass"]
        return len(calls)

    guessed = kernel_calls()
    cold_rows(monkeypatch)
    assert guessed <= kernel_calls() / 2


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("spec", BENCH_CONSTRUCTIONS)
def test_guessed_geodesics_move_at_rounding_level(spec, d, monkeypatch):
    """20 trajectories of each benchmark construction, their stages
    guessed, end within 1e-15 of the trajectories with every guess
    dropped, at every point of x and v."""
    metric = parse_metric(at_dim(spec, d), d, SolverConfig())
    rng = np.random.default_rng(42)
    starts, dirs = ball_points(rng, d, 0.09, 20), sphere_points(rng, d, 20)
    guessed = integrate_geodesic(metric, starts, dirs, 0.15, 100)
    cold_rows(monkeypatch)
    for a, b in zip(guessed, integrate_geodesic(metric, starts, dirs, 0.15, 100)):
        assert a.completed and b.completed
        assert np.abs(a.points - b.points).max() <= 1e-15
        assert np.abs(a.velocities - b.velocities).max() <= 1e-15


def test_a_start_whose_f_fails_integrates_without_a_guess(monkeypatch):
    """The start's F only feeds the guess: where a construction's F fails
    at a start (nan for x^1 > 0) but its P evaluates, that trajectory has
    the bits it has with every guess dropped, and the others the bits of
    the unaltered construction's guessed trajectories."""
    metric = parse_metric(BENCH_CONSTRUCTIONS[0], 2, SolverConfig())
    blank = oracles.altered(metric, f=lambda x, y, f, p: np.where(x[:, 0] > 0.0, np.nan, f))
    starts = np.array([[0.05, 0.0], [-0.05, 0.02], [0.02, -0.03], [-0.01, 0.0]])
    dirs = np.array([[0.0, 1.0], [0.6, 0.8], [-1.0, 0.5], [0.3, -0.2]])
    assert [e is None for e in blank.rows(starts, dirs, with_p=True).errors] == [
        False, True, False, True]
    got = integrate_geodesic(blank, starts, dirs, 0.15, 50)
    guessed = integrate_geodesic(metric, starts, dirs, 0.15, 50)
    cold_rows(monkeypatch)
    cold = integrate_geodesic(metric, starts, dirs, 0.15, 50)
    for j, want in enumerate((cold[0], guessed[1], cold[2], guessed[3])):
        np.testing.assert_array_equal(got[j].points, want.points)
        np.testing.assert_array_equal(got[j].velocities, want.velocities)
