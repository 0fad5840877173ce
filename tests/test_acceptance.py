"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline).
"""

import numpy as np
import pytest

import oracles
from oracles import (bryant_all_real, f_at, implicit_derivatives, p_at,
                     zhou_reduction_check)
from projflat import (DoubleSqrtNorm, EuclideanNorm, RandersNorm, ScaledNorm,
                      ZeroNorm, as_evaluator, broken_metric, build_k0,
                      build_kneg1, build_kpos1, catalog_entry,
                      collinearity_score, flag_curvature,
                      hamel_residual, integrate_geodesic, master_pde_residual,
                      parse_norms, projective_factor_numeric, solve_real)
from projflat.sampling import ball_points, sphere_points

E2 = EuclideanNorm(2)
Z2 = ZeroNorm(2)
SEED = 1789


def report(num, name, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {name} ({detail})"


def curvature_sweep(metric, radius, count, seed=SEED):
    rng = np.random.default_rng(seed)
    xs = ball_points(rng, metric.dimension, radius, count)
    ys = sphere_points(rng, metric.dimension, count)
    return flag_curvature(metric, xs, ys)


def test_criterion_01_funk_curvature():
    ks = curvature_sweep(as_evaluator(catalog_entry("funk", 2)), 0.6, 50)
    worst = float(np.abs(ks + 0.25).max())
    report(1, "funk flag curvature -1/4", worst <= 1e-4, f"max |K + 0.25| = {worst:.2e}")


def test_criterion_02_berwald_curvature():
    ks = curvature_sweep(as_evaluator(catalog_entry("berwald", 2)), 0.6, 50)
    worst = float(np.abs(ks).max())
    report(2, "berwald flag curvature 0", worst <= 1e-4, f"max |K| = {worst:.2e}")


def test_criterion_03_space_forms():
    worst = 0.0
    for lam in (-1.0, 1.0):
        ks = curvature_sweep(as_evaluator(catalog_entry("space-form", 2, lam=lam)),
                             0.6, 50)
        worst = max(worst, float(np.abs(ks - lam).max()))
    report(3, "space forms K = lambda", worst <= 1e-4, f"max |K - lam| = {worst:.2e}")


def test_criterion_04_bryant():
    alpha = np.pi / 6
    ks = curvature_sweep(as_evaluator(catalog_entry("bryant", 2, alpha=alpha)), 0.3, 30)
    worst_k = float(np.abs(ks - 1.0).max())
    rng = np.random.default_rng(SEED)
    bryant = as_evaluator(catalog_entry("bryant", 2, alpha=alpha))
    worst_forms = 0.0
    for _ in range(50):
        x = ball_points(rng, 2, 0.5, 1)[0]
        y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
        worst_forms = max(worst_forms,
                          abs(f_at(bryant, x, y) - bryant_all_real(alpha, x, y)))
    ok = worst_k <= 1e-3 and worst_forms <= 1e-12
    report(4, "bryant K = 1 and matching renderings", ok,
           f"max |K - 1| = {worst_k:.2e}, renderings diff = {worst_forms:.2e}")


def _matched_k0_branch(c):
    """Select the sph-k0 branch whose origin drift sign matches c."""
    y0 = np.array([0.0, 1.0])
    for branch in (-1, 1):
        m = as_evaluator(catalog_entry("sph-k0", 2, c=c, branch=branch))
        [p0] = projective_factor_numeric(m, np.zeros((1, 2)), [y0])
        if np.sign(p0) == np.sign(c):
            return m
    raise AssertionError("no branch matches the drift sign")


def test_criterion_05_constructor_catalog_equivalence():
    c = 0.3
    cases = {
        "a: k0(|y|,|y|) = berwald": (
            build_k0(E2, E2), as_evaluator(catalog_entry("berwald", 2)), 0.4),
        "b: kneg1(|y|,0) = space form -1": (
            build_kneg1(E2, Z2), as_evaluator(catalog_entry("space-form", 2, lam=-1.0)), 0.4),
        "c: kneg1(|y|,|y|) = two-term display": (
            build_kneg1(E2, E2),
            lambda x, y: oracles.kneg1_unit_pair_display(x, y), 0.19),
        "d: kpos1(|y|,0) = space form +1": (
            build_kpos1(E2, Z2), as_evaluator(catalog_entry("space-form", 2, lam=1.0)), 0.4),
        "e: kpos1(bryant pair) = bryant": (
            build_kpos1(*parse_norms(f"bryant:{np.pi / 6!r}", 2)),
            as_evaluator(catalog_entry("bryant", 2, alpha=np.pi / 6)), 0.3),
        "f: k0(|y|,c|y|) = sph-k0": (
            build_k0(E2, ScaledNorm(2, c)), _matched_k0_branch(c), 0.5),
        "g: kneg1(|y|,c|y|) = sph-kneg1": (
            build_kneg1(E2, ScaledNorm(2, c)),
            as_evaluator(catalog_entry("sph-kneg1", 2, c=c)), 0.29),
        "h: kpos1(|y|,c|y|) = sph-kpos1": (
            build_kpos1(E2, ScaledNorm(2, c)),
            as_evaluator(catalog_entry("sph-kpos1", 2, c=c)), 0.35),
    }
    details = []
    ok = True
    for label, (built, reference, radius) in cases.items():
        rng = np.random.default_rng(SEED)
        ref = reference if callable(reference) else (
            lambda x, y, m=reference: f_at(m, x, y))
        worst = 0.0
        for _ in range(100):
            x = ball_points(rng, 2, radius, 1)[0]
            y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
            a = f_at(built, x, y)
            b = ref(x, y)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        details.append(f"{label.split(':')[0]}={worst:.1e}")
        ok = ok and worst <= 1e-8
    report(5, "constructor vs catalog closed forms", ok, ", ".join(details))


def test_criterion_06_double_sqrt_example():
    m = as_evaluator(catalog_entry("dsr-new", 2, n=1, m=1))
    rng = np.random.default_rng(SEED)
    worst_h, worst_k = 0.0, 0.0
    for _ in range(20):
        x = ball_points(rng, 2, 0.2, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        worst_h = max(worst_h, hamel_residual(m, [x], [y])[0])
        worst_k = max(worst_k, abs(flag_curvature(m, [x], [y])[0] - 1.0))
    worst_r = 0.0
    for _ in range(20):
        x1 = rng.uniform(-0.6, 0.6)
        y1 = rng.uniform(0.2, 2.0) * (1 if rng.random() < 0.5 else -1)
        got = f_at(m, [x1, 0.0], [y1, 0.0])
        want = oracles.space_form(1.0, [x1], [y1])
        worst_r = max(worst_r, abs(got - want))
    ok = worst_h <= 1e-6 and worst_k <= 1e-3 and worst_r <= 1e-10
    report(6, "double-square-root metric", ok,
           f"hamel = {worst_h:.2e}, |K-1| = {worst_k:.2e}, restriction = {worst_r:.2e}")


def test_criterion_07_zhou():
    rng = np.random.default_rng(SEED)
    worst_id = 0.0
    worst_spread = 0.0
    for d1, d2 in ((0.5, 1.0), (0.3, 0.5)):
        limit = np.sqrt(2.0 * (d2 - d1))
        for sign in (1, -1):
            for _ in range(20):
                x = ball_points(rng, 2, 0.8 * limit, 1)[0]
                y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
                lhs, rhs = zhou_reduction_check(d1, d2, sign, x, y)
                worst_id = max(worst_id, abs(lhs - rhs))
        m = as_evaluator(catalog_entry("zhou", 2, d1=d1, d2=d2, sign=1))
        ks = curvature_sweep(m, 0.45 * limit, 20)
        worst_spread = max(worst_spread, float(ks.max() - ks.min()))
    ok = worst_id <= 1e-9 and worst_spread <= 1e-4
    report(7, "zhou reduction identity and constant K", ok,
           f"max |lhs - rhs| = {worst_id:.2e}, K spread = {worst_spread:.2e}")


def test_criterion_08_origin_recovery():
    pairs = [
        (EuclideanNorm(2), ZeroNorm(2)),
        (EuclideanNorm(2), EuclideanNorm(2)),
        (EuclideanNorm(2), ScaledNorm(2, 0.3)),
        (RandersNorm(2, (0.15, -0.1)), ScaledNorm(2, -0.25)),
        (DoubleSqrtNorm(2, 1, 1, plus=True), DoubleSqrtNorm(2, 1, 1, plus=False)),
    ]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for psi, phi in pairs:
        for build in (build_k0, build_kneg1, build_kpos1):
            m = build(psi, phi)
            for _ in range(5):
                y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
                worst = max(worst, abs(f_at(m, np.zeros(2), y) - psi.eval_real(y)))
                worst = max(worst, abs(p_at(m, np.zeros(2), y) - phi.eval_real(y)))
    report(8, "origin recovery F(0,.) = psi, P(0,.) = phi", worst <= 1e-10,
           f"max deviation = {worst:.2e}")


def test_criterion_09_master_pde():
    rng = np.random.default_rng(SEED)
    worst_exact = 0.0
    for phi in (ScaledNorm(2, 0.3), EuclideanNorm(2), RandersNorm(2, (0.2, 0.1))):
        for _ in range(20):
            x = ball_points(rng, 2, 0.25, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            res = solve_real(phi, [x], [y])
            p_y, p_x = implicit_derivatives(phi, res, x)
            p_back = phi.eval_real(res.eta[0])
            worst_exact = max(worst_exact, float(np.abs(p_x - p_back * p_y).max()))
    worst_fd = 0.0
    for m in (build_kneg1(E2, ScaledNorm(2, 0.3)),
              build_kpos1(E2, ScaledNorm(2, 0.3))):
        for _ in range(15):
            x = ball_points(rng, 2, 0.8 * m.domain_radius, 1)[0]
            y = sphere_points(rng, 2, 1)[0]
            worst_fd = max(worst_fd, master_pde_residual(m, [x], [y])[0])
    ok = worst_exact <= 1e-10 and worst_fd <= 1e-6
    report(9, "transport identity Phi_x = Phi Phi_y", ok,
           f"exact = {worst_exact:.2e}, finite-difference = {worst_fd:.2e}")


def test_criterion_10_geodesic_straightness():
    metrics = {
        "funk": as_evaluator(catalog_entry("funk", 2)),
        "berwald": as_evaluator(catalog_entry("berwald", 2)),
        "bryant": as_evaluator(catalog_entry("bryant", 2, alpha=np.pi / 6)),
        "k0": build_k0(E2, ScaledNorm(2, 0.3)),
        "kneg1": build_kneg1(E2, ScaledNorm(2, 0.3)),
        "kpos1": build_kpos1(E2, ScaledNorm(2, 0.3)),
    }
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for name, m in metrics.items():
        inner = 0.2 * min(m.domain_radius, 1.0)
        for _ in range(5):
            x0 = ball_points(rng, 2, inner, 1)[0]
            v0 = sphere_points(rng, 2, 1)[0]
            [traj] = integrate_geodesic(m, [x0], [v0], 0.15, 100)
            assert traj.points.shape[0] >= 10, name
            worst = max(worst, collinearity_score(traj, x0, v0))
    report(10, "geodesics stay on straight lines", worst <= 1e-8,
           f"max collinearity score = {worst:.2e}")


def test_criterion_11_solver_oracle():
    phis = [ZeroNorm(2), EuclideanNorm(2), ScaledNorm(2, 0.7),
            ScaledNorm(2, -0.5), RandersNorm(2, (0.2, -0.3))]
    rng = np.random.default_rng(SEED)
    worst_res, worst_match = 0.0, 0.0
    unique = True
    for i in range(100):
        phi = phis[i % len(phis)]
        sup = max(abs(phi.eval_real(u)) for u in sphere_points(rng, 2, 16)) or 0.0
        radius = 0.8 * (0.5 / max(sup, 1e-9)) if sup else 1.0
        x = ball_points(rng, 2, min(radius, 2.0), 1)[0]
        y = sphere_points(rng, 2, 1)[0] * rng.uniform(0.5, 2.0)
        [value] = solve_real(phi, [x], [y]).value
        eta = y + x * value
        f_back = abs(value - (phi.eval_real(eta) if eta.any() else 0.0))
        worst_res = max(worst_res, f_back)

        def f(t):
            w = y + x * t
            return t - (phi.eval_real(w) if w.any() else 0.0)

        bound = sup * float(np.linalg.norm(y)) / max(
            1.0 - sup * float(np.linalg.norm(x)), 0.1)
        grid = np.linspace(-1.5 * bound - 1.0, 1.5 * bound + 1.0, 1501)
        vals = np.array([f(t) for t in grid])
        roots = []
        for k in range(len(grid) - 1):
            if vals[k] == 0.0 and (k == 0 or vals[k - 1] != 0.0):
                roots.append((grid[k], grid[k]))
            elif vals[k] * vals[k + 1] < 0.0:
                roots.append((grid[k], grid[k + 1]))
        if vals[-1] == 0.0 and vals[-2] != 0.0:
            roots.append((grid[-1], grid[-1]))
        unique = unique and len(roots) == 1
        lo, hi = roots[0]
        if lo != hi:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if f(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
        worst_match = max(worst_match, abs(value - 0.5 * (lo + hi)))
    ok = worst_res <= 1e-12 and worst_match <= 1e-10 and unique
    report(11, "solver residuals, oracle match, uniqueness", ok,
           f"residual = {worst_res:.2e}, oracle diff = {worst_match:.2e}, "
           f"unique = {unique}")


def test_criterion_12_negative_control():
    m = broken_metric(2)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        x = ball_points(rng, 2, 0.5, 1)[0]
        y = sphere_points(rng, 2, 1)[0]
        worst = max(worst, hamel_residual(m, [x], [y])[0])
    report(12, "broken metric fails the flatness check", worst > 1e-3,
           f"max residual = {worst:.2e}")
