"""Origin-data families: values, gradients, complex continuation, validity."""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import format_norm, hessian_from, hessian_points

from projflat import (CombinedNorm, DimensionMismatchError, DomainError, DoubleSqrtNorm,
                      EuclideanNorm, RandersNorm, ScaledNorm, SpecParseError,
                      ZeroNorm, check_minkowski, combine, parse_norms)

FAMILIES_2D = [
    ZeroNorm(2),
    EuclideanNorm(2),
    ScaledNorm(2, 0.5),
    ScaledNorm(2, -0.7),
    RandersNorm(2, (0.3, -0.1)),
    DoubleSqrtNorm(2, 1, 1, plus=True),
    DoubleSqrtNorm(2, 1, 1, plus=False),
]


def test_euclidean_value():
    assert EuclideanNorm(2).eval_real([3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)


def test_scaled_value():
    assert ScaledNorm(2, 0.5).eval_real([3.0, 4.0]) == pytest.approx(2.5, abs=1e-15)


def test_randers_value_and_gradient():
    f = RandersNorm(2, (0.1, 0.0))
    assert f.eval_real([3.0, 4.0]) == pytest.approx(5.3, abs=1e-14)
    np.testing.assert_allclose(f.grad_real([3.0, 4.0]), [0.7, 0.8], atol=1e-14)


def test_double_sqrt_plus_unit_value():
    # sqrt(2)/2 * sqrt(sqrt(1) + 1) = 1 on the first-block unit vector
    f = DoubleSqrtNorm(2, 1, 1, plus=True)
    assert f.eval_real([1.0, 0.0]) == pytest.approx(1.0, abs=1e-14)


def test_double_sqrt_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(5)
    plus = DoubleSqrtNorm(3, 2, 1, plus=True)
    minus = DoubleSqrtNorm(3, 2, 1, plus=False)
    for _ in range(10):
        y = rng.standard_normal(3)
        uu = mp.mpf(float(y[0])) ** 2 + mp.mpf(float(y[1])) ** 2
        ww = mp.mpf(float(y[2])) ** 2
        s = mp.sqrt(uu**2 + ww**2)
        ref_plus = mp.sqrt((s + uu) / 2)
        ref_minus = mp.sqrt((s - uu) / 2)
        assert plus.eval_real(y) == pytest.approx(float(ref_plus), rel=1e-14)
        assert minus.eval_real(y) == pytest.approx(float(ref_minus), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3),
       st.sampled_from([0.5, 2.0, 10.0]))
def test_homogeneity_property(y1, y2, lam):
    y = np.array([y1, y2])
    if np.linalg.norm(y) < 1e-6:
        return
    for f in FAMILIES_2D:
        a = f.eval_real(lam * y)
        b = lam * f.eval_real(y)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_euler_relation(rng):
    for f in FAMILIES_2D:
        for _ in range(100):
            y = rng.standard_normal(2)
            if np.linalg.norm(y) < 1e-9:
                continue
            lhs = float(y @ f.grad_real(y))
            assert abs(lhs - f.eval_real(y)) <= 1e-10 * (1.0 + abs(f.eval_real(y)))


def test_complex_restriction_matches_real(rng):
    for f in FAMILIES_2D:
        for _ in range(25):
            y = rng.standard_normal(2)
            if np.linalg.norm(y) < 1e-9:
                continue
            z = f.eval_complex(y.astype(complex))
            assert abs(z - f.eval_real(y)) <= 1e-12 * (1.0 + abs(z))


def test_principal_branch_square_root():
    f = EuclideanNorm(2)
    z = f.eval_complex(np.array([1j, 0.0]))
    assert abs(z - cmath.sqrt(-1)) < 1e-15
    assert z == pytest.approx(1j)


def test_gradients_match_central_differences(rng):
    h = 1e-6
    for f in FAMILIES_2D:
        if f.family == "zero":
            continue
        for _ in range(20):
            y = rng.standard_normal(2)
            y /= np.linalg.norm(y)
            grad = f.grad_real(y)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd = (f.eval_real(y + e) - f.eval_real(y - e)) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_double_sqrt_gradient_tight(rng):
    # tight accuracy pin: central differences with step 1e-5 agree to 1e-8
    f = DoubleSqrtNorm(2, 1, 1, plus=True)
    y = np.array([1.0, 1.0])
    grad = f.grad_real(y)
    h = 1e-5
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (f.eval_real(y + e) - f.eval_real(y - e)) / (2 * h)
        assert abs(grad[k] - fd) < 1e-8


def test_double_sqrt_gradient_on_block_axis():
    # the minus variant vanishes quadratically on the second-block axis;
    # its gradient limit there is zero
    f = DoubleSqrtNorm(2, 1, 1, plus=False)
    np.testing.assert_allclose(f.grad_real([1.0, 0.0]), [0.0, 0.0], atol=1e-14)


def assert_commutes_with_powers_of_two(f, seed):
    """eval_real(2^k v) == 2^k eval_real(v) and grad_real(2^k v) ==
    grad_real(v) bit for bit, also where the squares of 2^k v underflow to
    subnormals or overflow (the real methods reject a row whose squared
    length underflows to 0).  eval_complex(2^k z) == 2^k eval_complex(z)
    bit for bit on real and complex rows z, over the range of k where the
    components stay normal."""
    def times(z, k):
        return np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k)

    rng = np.random.default_rng(seed)
    d = f.dimension
    v = rng.choice([-1.0, 1.0], (20, d)) * rng.uniform(0.25, 1.0, (20, d))
    v = np.vstack([v, np.diag(rng.choice([-1.0, 1.0], d) * rng.uniform(0.25, 1.0, d))])
    value, grad = f.eval_real(v), f.grad_real(v)
    for k in range(-520, 1021):
        w = np.ldexp(v, k)
        np.testing.assert_array_equal(f.eval_real(w), np.ldexp(value, k))
        np.testing.assert_array_equal(f.grad_real(w), grad)
    for z in (v + 0j, v + 1j * rng.uniform(-0.5, 0.5, v.shape)):
        cvalue = f.eval_complex(z)
        for k in range(-1000, 1001):
            np.testing.assert_array_equal(f.eval_complex(times(z, k)), times(cvalue, k))


@pytest.mark.parametrize("plus", [True, False])
@pytest.mark.parametrize("blocks", [(1, 1), (2, 1)])
def test_double_sqrt_commutes_with_powers_of_two(plus, blocks):
    assert_commutes_with_powers_of_two(
        DoubleSqrtNorm(sum(blocks), *blocks, plus=plus), sum(blocks) + plus)


# each family, and combinations with and without shared lengths, at dimension d
MAKERS = {
    "zero": ZeroNorm,
    "euclidean": EuclideanNorm,
    "scaled": lambda d: ScaledNorm(d, -0.7),
    "randers": lambda d: RandersNorm(d, tuple(np.linspace(0.3, -0.2, d))),
    "combo": lambda d: combine((1.0, ScaledNorm(d, 0.3)), (-1.0, EuclideanNorm(d))),
    "combo-dsr": lambda d: combine((0.5, DoubleSqrtNorm(d, 1, d - 1, plus=False)),
                                   (1.0, RandersNorm(d, (0.2,) * d))),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_every_family_commutes_with_powers_of_two(make, d):
    """Every family evaluates a row at the power-of-two rescale the base
    class applies, so it is exact where the squares under- or overflow."""
    assert_commutes_with_powers_of_two(make(d), d)


def test_huge_rows_evaluate_without_overflow():
    f = EuclideanNorm(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(f.grad_real([1e200, 1.0]), [1.0, 1e-200])
        assert f.eval_real([1e200, 1.0]) == 1e200


def test_check_minkowski_euclidean():
    rep = check_minkowski(EuclideanNorm(2), 100)
    assert rep["pass"]
    assert rep["extra"]["min_eigenvalue"] == pytest.approx(1.0, abs=1e-3)
    assert rep["failures"] == []


def test_check_minkowski_randers_valid():
    a = np.array([0.3, 0.4])  # |a| = 0.5
    rep = check_minkowski(RandersNorm(2, tuple(a)), 100)
    assert rep["pass"]


def test_check_minkowski_randers_invalid():
    a = np.array([0.9, 1.2])  # |a| = 1.5: negative somewhere
    rep = check_minkowski(RandersNorm(2, tuple(a)), 100)
    assert not rep["pass"]
    assert rep["failures"]  # failures listed iff not passed
    assert rep["max_residual"] > rep["tolerance"]


def test_double_sqrt_plus_degenerates_on_block_axis():
    # the plus variant is positive and convex but its fundamental tensor
    # degenerates exactly on the block axes (quartic flatness, like the
    # l4 norm); the deterministic direction set hits (1, 0), so the
    # validity check reports the degeneracy instead of passing
    rep = check_minkowski(DoubleSqrtNorm(2, 1, 1, plus=True), 64)
    assert not rep["pass"]
    assert rep["extra"]["min_eigenvalue"] == pytest.approx(0.0, abs=1e-4)
    # every reported failure direction is an axis direction
    for failure in rep["failures"]:
        u = failure["y"]
        assert abs(u[0] * u[1]) < 1e-6
    # off-axis the Hessian is strongly positive definite
    f = DoubleSqrtNorm(2, 1, 1, plus=True)
    u = np.array([np.cos(0.7), np.sin(0.7)])
    h = hessian_from([0.5 * f.eval_real(p) ** 2 for p in hessian_points(u, 1e-5)], 1e-5, 2)
    assert np.linalg.eigvalsh(h).min() > 0.05


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        EuclideanNorm(2).eval_real([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        DoubleSqrtNorm(3, 1, 1, plus=True)


def test_zero_vector_rejected_outside_zero_family():
    with pytest.raises(DomainError):
        EuclideanNorm(2).eval_real([0.0, 0.0])
    assert ZeroNorm(2).eval_real([0.0, 0.0]) == 0.0


def test_combined_norm_matches_sum(rng):
    f = combine((1.0, EuclideanNorm(2)), (-1.0, ScaledNorm(2, 0.3)))
    for _ in range(10):
        y = rng.standard_normal(2)
        want = np.linalg.norm(y) * 0.7
        assert f.eval_real(y) == pytest.approx(want, rel=1e-14)


def complex_rows(d, seed=3):
    """Complex rows for the kernels: every nonzero row of components drawn
    from 0, +-1 and +-i with either sign of zero in each part (so sum z_k^2
    lands on sqrt's branch cut, and a block may be zero), and seeded random
    rows, on which Im sum z_k^2 takes both signs; each inside the kernel
    range and at its edges, a largest component of 2^-8 and of just under
    2^8."""
    parts = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -1.0,
             complex(1.0, -0.0), complex(0.0, 1.0), complex(-0.0, 1.0),
             complex(0.0, -1.0), complex(-0.0, -1.0))
    grid = np.array(np.meshgrid(*[parts] * d, indexing="ij")).reshape(d, -1).T
    grid = grid[np.abs(grid).max(axis=1) > 0]  # largest component exactly 1
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d))
    rand = np.ldexp(1.0, -np.frexp(np.abs(rand).max(axis=1))[1])[:, None] * rand  # in [1/2, 1)
    return np.concatenate((grid, grid * 2.0**-8, grid * (2.0**8 - 2.0**-44),
                           rand, rand * 2.0**-7, rand * 2.0**8))


PAIRS = [
    (DoubleSqrtNorm(2, 1, 1, plus=False), DoubleSqrtNorm(2, 1, 1, plus=True)),
    (DoubleSqrtNorm(2, 1, 1, plus=True), DoubleSqrtNorm(2, 1, 1, plus=False)),
    (DoubleSqrtNorm(3, 2, 1, plus=False), DoubleSqrtNorm(3, 2, 1, plus=True)),
    (DoubleSqrtNorm(3, 1, 2, plus=False), DoubleSqrtNorm(3, 1, 2, plus=True)),
    (DoubleSqrtNorm(2, 1, 1, plus=True), DoubleSqrtNorm(2, 1, 1, plus=True)),
    parse_norms("bryant:0.5236", 2)[::-1],
    parse_norms("bryant:0.5236", 3)[::-1],
    (ScaledNorm(2, 0.3), EuclideanNorm(2)),
    (ZeroNorm(2), EuclideanNorm(2)),
    (EuclideanNorm(2), ZeroNorm(2)),
    (RandersNorm(2, (0.2, 0.1)), EuclideanNorm(2)),
    (ScaledNorm(3, -0.25), RandersNorm(3, (0.2, 0.05, -0.1))),
    # no shared work: the default pair kernel
    (DoubleSqrtNorm(2, 1, 1, plus=True), EuclideanNorm(2)),
    (EuclideanNorm(2), DoubleSqrtNorm(2, 1, 1, plus=False)),
    (DoubleSqrtNorm(3, 1, 2, plus=False), DoubleSqrtNorm(3, 2, 1, plus=True)),
]


@pytest.mark.parametrize("phi, psi", PAIRS,
                         ids=[f"{f.family}-{g.family}-d{f.dimension}" for f, g in PAIRS])
def test_pair_kernel_has_the_bits_of_two_kernels(phi, psi):
    """``_complex_pair`` is phi + i psi from the two ``_complex`` kernels,
    bit for bit, signed zeros and nan included."""
    w = complex_rows(phi.dimension)
    with np.errstate(invalid="ignore", divide="ignore"):
        got = phi._complex_pair(psi, w)
        want = phi._complex(w) + 1j * psi._complex(w)
    assert np.array_equal(got, want, equal_nan=True)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


ZERO_ROWS = 3  # the zero row with +0.0 and -0.0 components


def kernel_norms(d):
    """Every family at dimension d, dsr-a and dsr-b over every block
    split, and the combinations phi + s psi with a scalar s and with the
    per-row signs s = +-1 of the stacked K = -1 solve on ZERO_ROWS rows."""
    signs = np.resize([1.0, -1.0], ZERO_ROWS)
    dsr = [DoubleSqrtNorm(d, k, d - k, plus=plus) for k in range(1, d) for plus in (False, True)]
    return [make(d) for make in MAKERS.values()] + dsr + [
        CombinedNorm(d, ((1.0, RandersNorm(d, (0.1,) * d)), (signs, ScaledNorm(d, -0.3)))),
        CombinedNorm(d, ((1.0, dsr[0]), (signs, dsr[1])))]


@pytest.mark.parametrize("d", [2, 3])
def test_kernels_give_zero_at_the_zero_row(d):
    """``_real``, ``_complex`` and ``_complex_pair`` are 0 at the zero row,
    with no floating-point error: the solves call them on every row,
    including a failed row held at x = y = 0.  The negative ``scaled``
    gives -0.0 there, so the test reads value == 0, not its sign.
    ``_grad`` is nan at the origin, where no gradient exists."""
    v = np.zeros((ZERO_ROWS, d))
    v[1], v[2, 0] = -0.0, -0.0
    w = v + 0j
    w[1] = complex(-0.0, -0.0)
    norms = kernel_norms(d)
    pairs = [pair for pair in PAIRS if pair[0].dimension == d]
    with np.errstate(all="raise"):
        for f in norms:
            assert (f._real(v) == 0.0).all(), f
            assert (f._complex(w) == 0.0).all(), f
            for g in norms:
                assert (f._complex_pair(g, w) == 0.0).all(), (f, g)
        for phi, psi in pairs:
            assert (phi._complex_pair(psi, w) == 0.0).all(), (phi, psi)


LENGTH_NORMS = (EuclideanNorm(2), ScaledNorm(2, 0.3), ScaledNorm(2, -0.0), ScaledNorm(2, 0.0),
                RandersNorm(2, (0.2, 0.1)))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def real_rows(seed=4):
    """Nonzero real rows inside the kernel range and at its edges, signed
    zero components among them."""
    parts = (0.0, -0.0, 1.0, -1.0, 0.5)
    grid = np.array(np.meshgrid(parts, parts, indexing="ij")).reshape(2, -1).T
    grid = grid[np.abs(grid).max(axis=1) > 0]
    rand = np.random.default_rng(seed).standard_normal((40, 2))
    rand = np.ldexp(1.0, -np.frexp(np.abs(rand).max(axis=1))[1])[:, None] * rand  # in [1/2, 1)
    return np.concatenate((grid, grid * 2.0**-8, grid * (2.0**8 - 2.0**-44), rand))


@pytest.mark.parametrize("phi", LENGTH_NORMS, ids=lambda f: f"{f.family}{getattr(f, 'scale', '')}")
@pytest.mark.parametrize("psi", LENGTH_NORMS, ids=lambda f: f"{f.family}{getattr(f, 'scale', '')}")
def test_shared_length_kernels_have_the_bits_of_the_terms(phi, psi):
    """phi + s psi on rows, with the per-row sign column s = +-1 of the
    stacked K = -1 solve and with scalar coefficients: ``_real`` and
    ``_grad``, which compute |v| once for both terms, equal the sum of the
    terms' own kernels started from 0, bit for bit.  A row whose terms are
    -0.0 and -0.0 sums to +0.0, as the start from 0 makes it."""
    v = real_rows()
    signs = np.where(np.arange(len(v)) % 2 == 0, 1.0, -1.0)
    for c in (signs, 1.0, -1.0):
        both = CombinedNorm(2, ((1.0, phi), (c, psi)))
        real = 0 + 1.0 * phi._real(v) + c * psi._real(v)
        grad = (0 + np.asarray(1.0)[..., None] * phi._grad(v)
                + np.asarray(c)[..., None] * psi._grad(v))
        assert same_bits(both._real(v), real)
        assert same_bits(both._grad(v), grad)
        assert not np.signbit(both._real(v)[real == 0.0]).any()
    if [getattr(f, "scale", None) for f in (phi, psi)] == [0.0, 0.0] and (
            np.signbit(phi.scale) and not np.signbit(psi.scale)):
        # on the odd rows, -0.0 |v| and -1 (0.0 |v|) sum to -0.0 without the start
        assert np.signbit(1.0 * phi._real(v) + signs * psi._real(v))[1::2].all()


def test_descriptor_round_trip():
    texts = ["zero", "euclidean", "scaled:0.5", "randers:0.3,-0.1",
             "dsr-a:1,1", "dsr-b:1,1", "bryant:0.5236"]
    for text in texts:
        for f in parse_norms(text, 2):
            (again,) = parse_norms(format_norm(f), 2)
            assert type(again) is type(f)


def test_descriptors_name_norms_in_order():
    alpha = 0.5236
    bryant = (ScaledNorm(3, float(np.cos(alpha))), ScaledNorm(3, float(np.sin(alpha))))
    assert parse_norms("bryant:0.5236", 3) == bryant
    assert parse_norms("euclidean:bryant:0.5236:zero", 3) == (
        (EuclideanNorm(3),) + bryant + (ZeroNorm(3),))
    assert parse_norms("dsr-b:2,1:randers:0.1,0,0.2", 3) == (
        DoubleSqrtNorm(3, 2, 1, plus=True), RandersNorm(3, (0.1, 0.0, 0.2)))
    assert parse_norms("", 3) == ()


def test_descriptor_errors():
    # unknown family, missing parameter, drift or blocks that do not fit
    # d = 2, angle outside (0, pi/2), one or three block sizes, a bad
    # number, an empty descriptor after a ':'
    for text in ("nope", "scaled", "randers:0.1", "dsr-a:2,2", "bryant:2.0", "bryant:0",
                 "dsr-a:1", "dsr-b:1,1,0", "scaled:x", "euclidean:"):
        with pytest.raises(SpecParseError):
            parse_norms(text, 2)
