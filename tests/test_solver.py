"""Fixed-point solves: bracketing, residuals, uniqueness, derivatives."""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import hex_text, implicit_derivatives
from projflat import (DomainError, DoubleSqrtNorm, EuclideanNorm, RandersNorm,
                      ScaledNorm, SolverConfig, SolverError, ZeroNorm, combine,
                      pair_radius_estimate, parse_norms, radius_estimate,
                      solve_complex, solve_real)
from projflat.cli import parse_metric
from projflat.norms import scale_exponents
from projflat.sampling import ball_points, sphere_points
from projflat.verify import integrate_geodesic, ray_values


def bisect_oracle(fn, lo, hi, iters=200):
    """Plain bisection, independent of the production solver."""
    flo = fn(lo)
    assert flo <= 0.0 <= fn(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_zero_drift_gives_zero():
    res = solve_real(ZeroNorm(2), [[0.3, 0.1]], [[1.0, 2.0]])
    assert res.value[0] == 0.0
    assert res.residual[0] == 0.0
    np.testing.assert_allclose(res.eta, [[1.0, 2.0]])


def test_one_dimensional_euclidean_closed_form():
    # t = |1 + 0.5 t| has the unique root t = 2
    res = solve_real(EuclideanNorm(1), [[0.5]], [[1.0]])
    assert res.value[0] == pytest.approx(2.0, abs=1e-12)
    f = lambda t: t - abs(1.0 + 0.5 * t)
    root = bisect_oracle(f, 0.0, 4.0)
    assert res.value[0] == pytest.approx(root, abs=1e-12)


def test_scaled_drift_matches_closed_form():
    c, x, y = 0.7, np.array([0.3, 0.1]), np.array([1.0, 2.0])
    res = solve_real(ScaledNorm(2, c), [x], [y])
    xx, yy, xy = float(x @ x), float(y @ y), float(x @ y)
    closed = (c**2 * xy + np.sign(c) * np.sqrt(
        c**2 * (1 - c**2 * xx) * yy + c**4 * xy**2)) / (1 - c**2 * xx)
    assert res.value[0] == pytest.approx(closed, abs=1e-10)


def test_negative_scale_closed_form(rng):
    c = -0.6
    phi = ScaledNorm(2, c)
    for _ in range(20):
        x = ball_points(rng, 2, 0.8 * radius_estimate(phi), 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        res = solve_real(phi, [x], [y])
        assert res.value[0] == pytest.approx(oracles.root_scaled(c, x, y), abs=1e-10)


PHIS = [
    ZeroNorm(2),
    EuclideanNorm(2),
    ScaledNorm(2, 0.7),
    ScaledNorm(2, -0.5),
    RandersNorm(2, (0.2, -0.3)),
    combine((1.0, EuclideanNorm(2)), (1.0, ScaledNorm(2, 0.3))),
]


def test_residual_recheck_independent(rng):
    # residual invariant re-verified outside the solver loop
    for phi in PHIS:
        r = 0.8 * min(radius_estimate(phi), 10.0)
        for _ in range(20):
            x = ball_points(rng, 2, r, 1)[0]
            y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
            res = solve_real(phi, [x], [y])
            eta = y + x * res.value[0]
            recheck = abs(res.value[0] - (phi.eval_real(eta) if eta.any() else 0.0))
            assert recheck <= 1e-13
            np.testing.assert_allclose(res.eta[0], eta)


def test_uniqueness_scan_and_bisection_match(rng):
    # dense scan over [-T, T] finds exactly one sign change; its root
    # matches the production solver
    instances = 0
    while instances < 100:
        phi = PHIS[instances % len(PHIS)]
        r = 0.8 * min(radius_estimate(phi), 10.0)
        x = ball_points(rng, 2, r, 1)[0]
        y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
        instances += 1
        sup = max(abs(phi.eval_real(u)) for u in sphere_points(rng, 2, 32))
        bound = sup * float(np.linalg.norm(y)) / max(1.0 - sup * float(np.linalg.norm(x)), 0.1)
        t_max = 1.5 * bound + 1.0

        def f(t):
            eta = y + x * t
            return t - (phi.eval_real(eta) if eta.any() else 0.0)

        grid = np.linspace(-t_max, t_max, 2001)
        vals = np.array([f(t) for t in grid])
        # count roots: strict sign crossings plus groups of exact zeros
        roots = []
        for k in range(len(grid) - 1):
            if vals[k] == 0.0 and (k == 0 or vals[k - 1] != 0.0):
                roots.append((grid[k], grid[k]))
            elif vals[k] * vals[k + 1] < 0.0:
                roots.append((grid[k], grid[k + 1]))
        if vals[-1] == 0.0 and vals[-2] != 0.0:
            roots.append((grid[-1], grid[-1]))
        assert len(roots) == 1, f"{phi.family}: {len(roots)} roots in scan"
        lo, hi = roots[0]
        root = lo if lo == hi else bisect_oracle(f, lo, hi)
        res = solve_real(phi, [x], [y])
        assert res.value[0] == pytest.approx(root, abs=1e-10)


def test_degenerate_ray(rng):
    # y parallel to x: the shifted argument passes through a kink
    phi = EuclideanNorm(2)
    for lam in (0.5, -0.8, 2.0):
        x = np.array([0.3, 0.1])
        y = lam * x
        res = solve_real(phi, [x], [y])
        eta = y + x * res.value[0]
        assert abs(res.value[0] - np.linalg.norm(eta)) <= 1e-12
    # at x = (1, 0), y = (-1, 0) the first iterate t0 = |y| = 1 puts eta on
    # the kink, so that row bisects (to the root 0.5) on a step where every
    # other row of the batch takes its Newton step
    x = np.array([[1.0, 0.0], [0.3, 0.1], [0.2, -0.1], [0.05, 0.1], [0.0, 0.2]])
    y = np.array([[-1.0, 0.0], [0.5, 0.2], [0.0, 1.0], [1.0, 0.3], [0.3, -1.0]])
    res = solve_real(phi, x, y)
    assert res.value[0] == 0.5
    for i in range(len(y)):
        assert res.value[i] == oracles.solve_real_scalar(phi, x[i], y[i]).value, i


def test_master_pde_by_finite_differences(rng):
    # Phi_x = Phi * Phi_y checked with central differences of the solve
    h = 1e-6
    worst = 0.0
    for i in range(100):
        phi = PHIS[i % len(PHIS)]
        r = 0.7 * min(radius_estimate(phi), 10.0)
        x = ball_points(rng, 2, r, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        def field(xx, yy):
            return solve_real(phi, [xx], [yy]).value[0]

        val = field(x, y)

        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dx = (field(x + e, y) - field(x - e, y)) / (2 * h)
            dy = (field(x, y + e) - field(x, y - e)) / (2 * h)
            worst = max(worst, abs(dx - val * dy) / (1.0 + abs(dx)))
    assert worst <= 1e-6


def test_implicit_derivatives_match_finite_differences(rng):
    h = 1e-6
    for phi in [EuclideanNorm(2), ScaledNorm(2, 0.5), RandersNorm(2, (0.2, 0.1))]:
        for _ in range(10):
            x = ball_points(rng, 2, 0.7 * radius_estimate(phi), 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            res = solve_real(phi, [x], [y])
            p_y, p_x = implicit_derivatives(phi, res, x)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd_y = (solve_real(phi, [x], [y + e]).value[0]
                        - solve_real(phi, [x], [y - e]).value[0]) / (2 * h)
                fd_x = (solve_real(phi, [x + e], [y]).value[0]
                        - solve_real(phi, [x - e], [y]).value[0]) / (2 * h)
                assert p_y[k] == pytest.approx(fd_y, rel=1e-6, abs=1e-8)
                assert p_x[k] == pytest.approx(fd_x, rel=1e-6, abs=1e-8)


def test_implicit_derivatives_trivial_cases():
    res = solve_real(ZeroNorm(2), [[0.3, 0.0]], [[1.0, 1.0]])
    p_y, p_x = implicit_derivatives(ZeroNorm(2), res, [0.3, 0.0])
    np.testing.assert_allclose(p_y, 0.0)
    np.testing.assert_allclose(p_x, 0.0)
    y = np.array([1.0, 1.0])
    res = solve_real(EuclideanNorm(2), [[0.0, 0.0]], [y])
    p_y, p_x = implicit_derivatives(EuclideanNorm(2), res, [0.0, 0.0])
    np.testing.assert_allclose(p_y, y / np.linalg.norm(y), atol=1e-14)
    np.testing.assert_allclose(p_x, y, atol=1e-13)


def test_radius_estimates():
    assert radius_estimate(ZeroNorm(2)) == math.inf
    assert radius_estimate(EuclideanNorm(2)) == pytest.approx(0.5, abs=1e-12)
    assert radius_estimate(ScaledNorm(2, 2.0)) == pytest.approx(0.25, abs=1e-12)
    assert pair_radius_estimate(ZeroNorm(2), EuclideanNorm(2)) == pytest.approx(0.5, abs=1e-12)


def test_radius_estimates_of_huge_parameters(recwarn):
    # a gradient whose squared length overflows is measured after a
    # power-of-two rescale, so the estimate commutes with one
    big = 2.0 ** 1000
    assert radius_estimate(ScaledNorm(2, 3.0 * big)) == radius_estimate(ScaledNorm(2, 3.0)) / big
    assert (pair_radius_estimate(ScaledNorm(2, big), ScaledNorm(2, 3.0 * big))
            == pair_radius_estimate(ScaledNorm(2, 1.0), ScaledNorm(2, 3.0)) / big)
    assert radius_estimate(ScaledNorm(2, 1e300)) == pytest.approx(5e-301, rel=1e-12)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solver_failure_far_outside():
    res = solve_real(ScaledNorm(1, 1.0), [[2.0]], [[1.0]])
    assert isinstance(res.errors[0], SolverError)
    assert np.isnan(res.value[0])


def test_iteration_cap_fails_the_row():
    cfg = SolverConfig(max_iterations=1, tolerance=1e-15)
    res = solve_real(RandersNorm(2, (0.2, -0.3)), [[0.3, 0.1]], [[5.0, -2.0]], cfg)
    assert isinstance(res.errors[0], SolverError)
    assert "iteration cap" in str(res.errors[0])


def test_row_above_the_residual_tolerance_holds_nan():
    """A row whose final residual is above the tolerance fails with that
    residual in its message and holds nan, in the solve and in the metric
    built on it, like any other failed row."""
    cfg = SolverConfig(tolerance=1e-20)  # below the Newton loop's 4 eps (1 + |t|) floor
    res = solve_real(ScaledNorm(2, 0.3), [[0.1, 0.0]], [[0.0, 1.0]], cfg)
    [exc] = res.errors
    assert isinstance(exc, SolverError)
    assert re.fullmatch(r"fixed-point residual \d\.\d{3}e-\d\d above tolerance", str(exc))
    assert float(str(exc).split()[2]) > 1e-20
    assert np.isnan(res.value).all() and np.isnan(res.eta).all() and np.isnan(res.residual).all()
    metric = parse_metric("construct:-1:euclidean:scaled:0.3", 2, cfg)
    rows = metric.rows([[0.1, 0.0]], [[0.0, 1.0]], with_p=True)
    assert isinstance(rows.errors[0], SolverError)
    assert "above tolerance" in str(rows.errors[0])
    assert np.isnan(rows.f).all() and np.isnan(rows.p).all()


# ---------------------------------------------------------------------------
# complex solves


def test_complex_explicit_at_origin():
    res = solve_complex(ZeroNorm(2), EuclideanNorm(2), [[0.0, 0.0]], [[3.0, 4.0]])
    assert res.value[0] == pytest.approx(5j, abs=1e-14)


def test_complex_space_form_value():
    res = solve_complex(ZeroNorm(2), EuclideanNorm(2), [[0.5, 0.0]], [[0.0, 1.0]])
    want = math.sqrt(1.25) / 1.25  # = 1/sqrt(1.25)
    assert res.value[0].imag == pytest.approx(want, abs=1e-12)
    assert res.value[0].real == pytest.approx(0.0, abs=1e-12)


def test_complex_bryant_pair_matches_radicals():
    psi, phi = parse_norms(f"bryant:{np.pi / 6!r}", 2)
    x, y = np.array([0.2, 0.1]), np.array([1.0, 0.0])
    res = solve_complex(phi, psi, [x], [y])
    assert res.value[0].imag == pytest.approx(oracles.bryant_abcd(np.pi / 6, x, y), abs=1e-9)


def test_complex_picard_agrees_with_nested(rng):
    bryant_psi, bryant_phi = parse_norms(f"bryant:{np.pi / 4!r}", 2)
    cases = [
        (ZeroNorm(2), EuclideanNorm(2), 0.35),
        (ScaledNorm(2, 0.3), EuclideanNorm(2), 0.3),
        (bryant_phi, bryant_psi, 0.3),
    ]
    for phi, psi, r in cases:
        for _ in range(10):
            x = ball_points(rng, 2, r, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            a = solve_complex(phi, psi, [x], [y])
            b = oracles.solve_complex_nested(phi, psi, x, y)
            assert abs(a.value[0] - b.value) < 1e-11


def test_complex_metric_branch_positive(rng):
    phi, psi = ScaledNorm(2, 0.3), EuclideanNorm(2)
    for _ in range(25):
        x = ball_points(rng, 2, 0.3, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        z = solve_complex(phi, psi, [x], [y]).value[0]
        assert z.imag > 0.0
        # residual recheck, independent of the iteration
        eta = y + x * z
        again = phi.eval_complex(eta) + 1j * psi.eval_complex(eta)
        assert abs(z - again) <= 1e-13


def test_complex_degenerates_to_real_when_psi_zero(rng):
    phi = ScaledNorm(2, 0.4)
    for _ in range(10):
        x = ball_points(rng, 2, 0.8 * radius_estimate(phi), 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        z = solve_complex(phi, ZeroNorm(2), [x], [y]).value[0]
        t = solve_real(phi, [x], [y]).value[0]
        assert z.imag == pytest.approx(0.0, abs=1e-13)
        assert z.real == pytest.approx(t, abs=1e-11)


@pytest.mark.parametrize("solve, norms", [
    (solve_real, (RandersNorm(2, (0.2, 0.1)),)),
    (solve_complex, (RandersNorm(2, (0.2, 0.1)), EuclideanNorm(2))),
])
def test_row_with_a_non_finite_input_fails_alone(solve, norms):
    """The entry check fails a row with a non-finite component: that row
    gets a DomainError and nan, the other the bits it gets alone."""
    x = np.array([[np.nan, 0.0], [0.1, 0.05]])
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = solve(*norms, x, y)
    assert isinstance(res.errors[0], DomainError)
    assert np.isnan(res.value[0])
    alone = solve(*norms, x[1:], y[1:])
    assert res.errors[1] is None and alone.errors[0] is None
    assert res.value[1] == alone.value[0]
    np.testing.assert_array_equal(res.eta[1], alone.eta[0])


# ---------------------------------------------------------------------------
# the masked loops: every row takes the steps it takes alone

MASK_PAIRS = [(EuclideanNorm(2), RandersNorm(2, (0.2, 0.1))),
              (EuclideanNorm(2), ScaledNorm(2, 0.3)),
              (DoubleSqrtNorm(2, 1, 1, plus=True), DoubleSqrtNorm(2, 1, 1, plus=False)),
              (DoubleSqrtNorm(3, 1, 2, plus=True), DoubleSqrtNorm(3, 1, 2, plus=False)),
              parse_norms("bryant:0.5236", 3)]
MASK_CONFIGS = [SolverConfig(), SolverConfig(max_iterations=4, tolerance=1e-15)]


def same_rows(batch, alone, i):
    """Row i of ``batch`` holds the bits and the error of ``alone``'s one row."""
    assert np.array_equal(batch.value[i:i + 1], alone.value, equal_nan=True), i
    assert np.array_equal(batch.residual[i:i + 1], alone.residual, equal_nan=True), i
    assert np.array_equal(batch.eta[i:i + 1], alone.eta, equal_nan=True), i
    got, want = batch.errors[i], alone.errors[0]
    assert (type(got), str(got)) == (type(want), str(want)), i


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(MASK_PAIRS))), st.sampled_from(range(len(MASK_CONFIGS))),
       st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_each_masked_row_solves_as_alone(pair, config, seed, count):
    """Rows in the validity ball, rows at 1-3 radii (where the real
    bracket and the complex iteration fail) and, under a cap of 4 steps,
    iteration-capped rows, in one batch: each row of ``solve_real`` and
    ``solve_complex`` has the value, eta, residual and error it has
    solved alone, bit for bit, and the batch's iterations are the sum of
    the rows'."""
    psi, phi = MASK_PAIRS[pair]
    cfg = MASK_CONFIGS[config]
    d = psi.dimension
    rng = np.random.default_rng(seed)
    reach = np.where(rng.random(count) < 0.5, rng.uniform(0.0, 1.0, count),
                     rng.uniform(1.0, 3.0, count))
    u = sphere_points(rng, d, count) * reach[:, None]
    y = rng.standard_normal((count, d))
    for solve, args, radius in ((solve_real, (phi,), radius_estimate(phi)),
                                (solve_complex, (phi, psi), pair_radius_estimate(phi, psi))):
        x = u * min(radius, 2.0)
        batch = solve(*args, x, y, cfg)
        total = 0
        for i in range(count):
            alone = solve(*args, x[i:i + 1], y[i:i + 1], cfg)
            same_rows(batch, alone, i)
            total += alone.iterations
        assert batch.iterations == total


def test_uniform_batches_solve_as_alone(monkeypatch):
    """5-row in-ball batches whose rows all leave the loop on one step and,
    in the complex solve, all keep their secant roots (one round: the pair
    is evaluated at z0, once per step and once to judge): the batches on
    which the solves skip their per-row masks.  Each row has, bit for bit,
    the value, eta, residual and error it has solved alone and in the batch
    joined by a row at x = 0, which leaves on the first step, a row with a
    nan, which fails, so that the loop and the judge take their masks, and
    a row whose y is scaled by 2^-600, which alone is out of range.  The
    batch's iterations are the sum of the rows', and each row matches the
    one-point solves of ``oracles``, the real bit for bit and the complex
    within 1e-14 relative."""
    evaluations = []  # one entry per pair call
    for cls in {type(phi) for _, phi in MASK_PAIRS}:
        pair = cls._complex_pair
        monkeypatch.setattr(cls, "_complex_pair", lambda self, other, v, pair=pair: (
            evaluations.append(None) or pair(self, other, v)))
    rng = np.random.default_rng(29)
    for psi, phi in MASK_PAIRS:
        d = psi.dimension
        for solve, args, radius, scalar in (
                (solve_real, (phi,), radius_estimate(phi), oracles.solve_real_scalar),
                (solve_complex, (phi, psi), pair_radius_estimate(phi, psi),
                 oracles.solve_complex_scalar)):
            found = 0
            for _ in range(100):
                x = ball_points(rng, d, 0.5 * min(radius, 2.0), 5)
                y = sphere_points(rng, d, 5)
                alone, rounds = [], set()
                for i in range(5):
                    evaluations.clear()
                    alone.append(solve(*args, x[i:i + 1], y[i:i + 1]))
                    rounds.add(len(evaluations) - alone[-1].iterations)
                if len({res.iterations for res in alone}) > 1 or (
                        solve is solve_complex and rounds != {2}):
                    continue
                found += 1
                batch = solve(*args, x, y)
                assert not any(batch.errors)
                assert batch.iterations == sum(res.iterations for res in alone)
                extra = sphere_points(rng, d, 2)
                tiny = y[:1] * 2.0**-600
                masked = solve(*args, np.vstack((x, np.zeros((1, d)), np.full((1, d), np.nan),
                                                 x[:1])), np.vstack((y, extra, tiny)))
                assert masked.errors[5] is None and isinstance(masked.errors[6], DomainError)
                zero = solve(*args, np.zeros((1, d)), extra[:1])
                small = solve(*args, x[:1], tiny)
                same_rows(masked, small, 7)
                assert masked.iterations == batch.iterations + zero.iterations + small.iterations
                for i, res in enumerate(alone):
                    same_rows(batch, res, i)
                    same_rows(masked, res, i)
                    want = scalar(*args, x[i], y[i]).value
                    if solve is solve_real:
                        assert batch.value[i] == want
                    else:
                        assert abs(batch.value[i] - want) <= 1e-14 * abs(want)
                if found == 3:
                    break
            assert found == 3, (psi, phi, solve.__name__)


# ---------------------------------------------------------------------------
# a first iterate: a guess can only shorten a solve

EPS = float(np.finfo(float).eps)


def guess_batch(pair, count=200):
    """Seeded rows of ``MASK_PAIRS[pair]`` at 0-1 and 1-3 times each
    solve's radius (capped at 2), three of them with y scaled by up to
    1e+-150 and one with a nan component, and how far out each row lies."""
    psi, _ = MASK_PAIRS[pair]
    rng = np.random.default_rng(7 + pair)
    reach = np.concatenate((rng.uniform(0.0, 1.0, count // 2), rng.uniform(1.0, 3.0, count // 2)))
    u = sphere_points(rng, psi.dimension, count) * reach[:, None]
    y = rng.standard_normal((count, psi.dimension))
    y[:3] *= 10.0 ** rng.uniform(-150.0, 150.0, (3, 1))
    u[-1, 0] = np.nan
    return u, y, reach


def guesses(cold):
    """First iterates around the cold values: exact, 1e-8 off, non-finite,
    0, far off and, for a complex solve, the conjugate (the wrong branch)."""
    exact = cold.value
    out = {"exact": exact, "off": exact * (1.0 + 1e-8), "nan": np.full(len(exact), np.nan),
           "inf": np.full(len(exact), np.inf), "-inf": np.full(len(exact), -np.inf),
           "zero": np.zeros(len(exact)), "far": exact * 1e6}
    if np.iscomplexobj(exact):
        out["conjugate"] = exact.conj()
    return out


def solves_of(pair):
    psi, phi = MASK_PAIRS[pair]
    return ((solve_real, (phi,), radius_estimate(phi)),
            (solve_complex, (phi, psi), pair_radius_estimate(phi, psi)))


@pytest.mark.parametrize("pair", range(len(MASK_PAIRS)))
def test_a_guess_never_changes_the_outcome(pair):
    """Every row fails with the error type of its cold solve, the solve
    without a guess, or converges to its cold value within 8 eps (2^e +
    |cold|), 2^e being y's range scale (1 for y in range), whatever the
    guess.  Beyond the ball the real root is ill-conditioned, |f'| =
    |1 - <grad phi(eta), x>| falls below 1/2, and the bound is divided by
    it."""
    cfg = SolverConfig()
    u, y, reach = guess_batch(pair)
    scale = 2.0 ** scale_exponents(y)
    for solve, args, radius in solves_of(pair):
        x = u * min(radius, 2.0)
        cold = solve(*args, x, y, cfg)
        failed = [e is not None for e in cold.errors]
        assert any(failed) and not all(failed)
        slope = np.ones(len(y))
        if solve is solve_real:
            eta = np.nan_to_num(cold.eta) / scale[:, None]
            slope = np.abs(1.0 - np.vecdot(args[0].grad_real(eta + (eta == 0.0)), np.nan_to_num(x)))
        bound = 8.0 * EPS * (scale + np.abs(cold.value)) / np.where(reach > 1.0,
                                                                    np.minimum(slope, 1.0), 1.0)
        for name, guess in guesses(cold).items():
            res = solve(*args, x, y, cfg, guess)
            for i, (got, want) in enumerate(zip(res.errors, cold.errors)):
                assert type(got) is type(want), (solve.__name__, name, i, got, want)
                if want is None:
                    assert abs(res.value[i] - cold.value[i]) <= bound[i], (solve.__name__, name, i)
                    assert res.residual[i] <= cfg.tolerance * scale[i]


@pytest.mark.parametrize("cfg", [MASK_CONFIGS[1], SolverConfig(tolerance=1e-20)],
                         ids=["capped", "unreachable"])
def test_a_strict_guessed_row_converges_or_fails_as_cold(cfg):
    """Under a cap of 4 steps and a tolerance of 1e-15, at the edge of the
    exit floor, or under a tolerance of 1e-20, below it, whether a row
    meets the tolerance depends on its last bits: a guessed row may land
    on a residual of 0 where its cold solve does not.  So a guessed row
    either meets the tolerance or gives its cold row's error, text
    included."""
    for pair in range(len(MASK_PAIRS)):
        u, y, _ = guess_batch(pair)
        scale = 2.0 ** scale_exponents(y)
        for solve, args, radius in solves_of(pair):
            x = u * min(radius, 2.0)
            cold = solve(*args, x, y, cfg)
            for name, guess in guesses(cold).items():
                res = solve(*args, x, y, cfg, guess)
                for i, got in enumerate(res.errors):
                    if got is None:  # the residual scales with y
                        assert res.residual[i] <= cfg.tolerance * scale[i]
                    else:
                        want = cold.errors[i]
                        assert (type(got), str(got)) == (type(want), str(want)), (name, i)


@pytest.mark.parametrize("spec", ["construct:1:bryant:0.5236", "construct:1:dsr-b:1,1:dsr-a:1,1"])
def test_a_guessed_stage_evaluates_the_pair_three_times(spec, monkeypatch):
    """A 5-row K = +1 solve guessed by the ray law from solved values on
    the same lines evaluates the pair phi + i psi three times: at z0, on
    one step and at the judge, against once at z0, once per step and once
    at the judge cold."""
    metric = parse_metric(spec, 2, SolverConfig())
    psi, phi = parse_norms(spec.split(":", 2)[2], 2)
    calls = []
    pair = type(phi)._complex_pair
    monkeypatch.setattr(type(phi), "_complex_pair",
                        lambda self, *args: calls.append(1) or pair(self, *args))
    rng = np.random.default_rng(5)
    x0, v0 = ball_points(rng, 2, 0.3 * metric.domain_radius, 5), sphere_points(rng, 2, 5)
    start = metric.rows(x0, v0, with_p=True)
    s, scale = rng.uniform(-0.1, 0.1, 5), rng.uniform(0.9, 1.1, 5)
    x, y = x0 + s[:, None] * v0, scale[:, None] * v0
    f, p = ray_values(start.f, start.p, 1.0, s)
    calls.clear()
    cold = solve_complex(phi, psi, x, y)
    assert len(calls) == 1 + cold.iterations // 5 + 1 and cold.iterations > 5
    calls.clear()
    guessed = solve_complex(phi, psi, x, y, guess=scale * (p + 1j * f))
    assert len(calls) == 3 and guessed.iterations == 5
    assert np.abs(guessed.value - cold.value).max() <= 8 * EPS * np.abs(cold.value).max()


# ---------------------------------------------------------------------------
# golden bits: the tests above compare a batch with its rows solved alone,
# which a change to both alike passes; these values, stored as float.hex
# text, pin the bits themselves.  Regenerate them only for a documented
# change of bits (through a second file: importing this module reads the
# golden, which a redirect into it would already have emptied):
#   PYTHONPATH=src:tests python -c "import json, test_solver as t; \
#     print(json.dumps(t.golden_values(), indent=0, sort_keys=True))" \
#     > solver_golden.new && mv solver_golden.new tests/data/solver_golden.json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "solver_golden.json")
GEODESIC_SPECS = ("construct:0:euclidean:randers:0.2,0.1", "construct:-1:euclidean:scaled:0.3",
                  "construct:1:bryant:0.5236", "construct:1:dsr-b:1,1:dsr-a:1,1")


def solve_record(res):
    return {"value": hex_text(res.value), "residual": hex_text(res.residual),
            "eta": hex_text(res.eta), "iterations": res.iterations,
            "errors": [None if e is None else f"{type(e).__name__}: {e}" for e in res.errors]}


def golden_values():
    """Per ``MASK_PAIRS`` entry, one seeded batch of 12 rows, 6 in the
    validity ball and 6 at 1-3 radii, solved real and complex under each
    of ``MASK_CONFIGS`` (whose cap of 4 steps fails rows on the cap); and
    the last point of each trajectory of the ``geodesic`` check on the four
    benchmark constructions, from the CLI's starts at seed 42 and its
    default radius 0.3."""
    out = {}
    for pair, (psi, phi) in enumerate(MASK_PAIRS):
        d = psi.dimension
        rng = np.random.default_rng(1000 + pair)
        reach = np.concatenate((rng.uniform(0.0, 1.0, 6), rng.uniform(1.0, 3.0, 6)))
        u = sphere_points(rng, d, 12) * reach[:, None]
        y = rng.standard_normal((12, d))
        for config, cfg in enumerate(MASK_CONFIGS):
            for solve, args, radius in ((solve_real, (phi,), radius_estimate(phi)),
                                        (solve_complex, (phi, psi),
                                         pair_radius_estimate(phi, psi))):
                res = solve(*args, u * min(radius, 2.0), y, cfg)
                out[f"{solve.__name__} pair {pair} config {config}"] = solve_record(res)
    for spec in GEODESIC_SPECS:
        rng = np.random.default_rng(42)
        starts, dirs = ball_points(rng, 2, 0.3 * 0.3, 5), sphere_points(rng, 2, 5)
        metric = parse_metric(spec, 2, SolverConfig())
        out[f"geodesic {spec}"] = [
            {"x": hex_text(t.points[-1]), "v": hex_text(t.velocities[-1]),
             "steps": len(t.times) - 1, "completed": t.completed}
            for t in integrate_geodesic(metric, starts, dirs, 0.15, 100)]
    return out


with open(GOLDEN) as _golden:
    GOLDEN_VALUES = json.load(_golden)


@pytest.fixture(scope="module")
def golden_now():
    return golden_values()


@pytest.mark.parametrize("key", sorted(GOLDEN_VALUES))
def test_solves_keep_their_golden_bits(golden_now, key):
    """Value, residual, eta, iterations and error text of every row, and
    each geodesic's last point, equal the stored bits."""
    assert golden_now[key] == GOLDEN_VALUES[key]


def test_golden_batches_hold_every_kind_of_row():
    """The golden batches hold converged rows, rows that fail beyond the
    ball and, under the cap of 4 steps, capped rows."""
    errors = [e for key, record in GOLDEN_VALUES.items() if key.startswith("solve")
              for e in record["errors"]]
    assert None in errors
    for text in ("no sign change", "iteration cap", "failed to converge"):
        assert any(e and text in e for e in errors), text
