"""Norms on (N, n) rows against the one-vector path, bit for bit.

The batched radius estimates, the finite-difference Hessian on rows,
the Minkowski probe and the jet's mixed-derivative product are compared
with per-direction or per-row loops; the builders' norm-call counts
guard against a loop over directions, or a probe of psi, coming back, and
pin the radius memo: its estimates keep their bits, and each equal norm
is estimated once.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from projflat import (DimensionMismatchError, DomainError, DoubleSqrtNorm,
                      EuclideanNorm, HomogeneousFunction, RandersNorm,
                      ScaledNorm, ZeroNorm, build_k0, build_kneg1, build_kpos1,
                      check_minkowski, combine, pair_radius_estimate,
                      parse_norms, radius_estimate)
from projflat.solver import RADIUS_MEMO
from projflat.verify import JetData, _mixed_times_y, hessian_from, hessian_points

# (dimension, dsr block split)
DIMS = [(2, (1, 1)), (3, (1, 2)), (5, (2, 3))]


def families(d, blocks):
    drift = tuple(np.linspace(0.3, -0.2, d))
    out = [ZeroNorm(d), EuclideanNorm(d), ScaledNorm(d, 0.5), ScaledNorm(d, -0.7),
           RandersNorm(d, drift), RandersNorm(d, tuple(np.linspace(0.9, 1.2, d))),
           DoubleSqrtNorm(d, *blocks, plus=True), DoubleSqrtNorm(d, *blocks, plus=False),
           ScaledNorm(d, float(np.cos(np.pi / 6)))]  # bryant's psi at alpha = pi/6
    out += [combine((1.0, out[4]), (1.0, out[1])), combine((1.0, out[4]), (-1.0, out[2]))]
    return out


CASES = [pytest.param(d, f, id=f"d{d}-{i}-{f.family}")
         for d, blocks in DIMS for i, f in enumerate(families(d, blocks))]


def rows(d, count=200, seed=0):
    y = np.random.default_rng(seed + d).standard_normal((count, d))
    y[0] = 0.0
    y[0, -1] = 1.0  # a point on a block axis
    y[1, :] = 1e-160  # squares are subnormal, their sum is not 0
    return y


@pytest.mark.parametrize("d, f", CASES)
def test_rows_equal_single_vectors(d, f):
    y = rows(d)
    # the dsr gradients divide by zero on the subnormal row, alike per row
    with np.errstate(divide="ignore", invalid="ignore"):
        values, grads = f.eval_real(y), f.grad_real(y)
        assert values.shape == (len(y),) and grads.shape == y.shape
        for k, v in enumerate(y):
            one = f.eval_real(v)
            assert type(one) is float
            assert values[k] == one
            np.testing.assert_array_equal(grads[k], f.grad_real(v))


@pytest.mark.parametrize("d, f", CASES)
def test_rows_raise_the_single_vector_errors(d, f):
    good = rows(d, count=4)
    bad_cases = []
    if f.family != "zero":
        zero_row = good.copy()
        zero_row[2] = 0.0
        bad_cases.append((zero_row, zero_row[2], DomainError))
        underflow_row = good.copy()
        underflow_row[0] = 1e-170  # squares underflow to 0: the zero row
        bad_cases.append((underflow_row, underflow_row[0], DomainError))
    nan_row = good.copy()
    nan_row[3, 0] = np.nan
    bad_cases.append((nan_row, nan_row[3], DomainError))
    inf_row = good.copy()
    inf_row[1, -1] = -np.inf
    bad_cases.append((inf_row, inf_row[1], DomainError))
    wide = np.ones((4, d + 1))
    bad_cases.append((wide, wide[0], DimensionMismatchError))
    for batch, single, error in bad_cases:
        for method in (f.eval_real, f.grad_real):
            with pytest.raises(error) as one:
                method(single)
            with pytest.raises(error) as many:
                method(batch)
            assert str(one.value) == str(many.value)
    with pytest.raises(DimensionMismatchError):
        f.eval_real(1.0)


def clear_radius_memo():
    radius_estimate.cache_clear()
    pair_radius_estimate.cache_clear()


def memo_hits():
    return radius_estimate.cache_info().hits + pair_radius_estimate.cache_info().hits


@pytest.mark.parametrize("d, f", CASES)
def test_radius_estimates_equal_direction_loops(d, f):
    """Cold, then warm from an equal norm built separately: both have the
    loops' bits, and the warm estimates come from the memo."""
    clear_radius_memo()
    psi = EuclideanNorm(d)
    want = (oracles.radius_estimate_loop(f), oracles.pair_radius_estimate_loop(f, psi))
    assert (radius_estimate(f), pair_radius_estimate(f, psi)) == want
    assert memo_hits() == 0
    f, psi = dataclasses.replace(f), EuclideanNorm(d)
    assert (radius_estimate(f), pair_radius_estimate(f, psi)) == want
    assert memo_hits() == 2


@pytest.mark.parametrize("d", [2, 3])
def test_memoized_radius_estimates_of_huge_parameters(d, recwarn):
    """A huge parameter's estimate, cold and warm, is the loop's estimate of
    the norm scaled down by a power of two, scaled back (the loops' squared
    lengths would overflow); 1e300 is memoized with the bits it had cold."""
    big = 2.0 ** 1000
    cases = [((ScaledNorm(d, 3.0 * big),), oracles.radius_estimate_loop(ScaledNorm(d, 3.0)) / big),
             ((ScaledNorm(d, big), ScaledNorm(d, 3.0 * big)),
              oracles.pair_radius_estimate_loop(ScaledNorm(d, 1.0), ScaledNorm(d, 3.0)) / big)]
    clear_radius_memo()
    for _ in range(2):
        got = [(radius_estimate if len(norms) == 1 else pair_radius_estimate)(*norms)
               for norms, _ in cases]
        assert got == [want for _, want in cases]
        cases = [(tuple(map(dataclasses.replace, norms)), want) for norms, want in cases]
    cold = radius_estimate(ScaledNorm(d, 1e300))
    assert radius_estimate(ScaledNorm(d, 1e300)) == cold == pytest.approx(5e-301, rel=1e-12)
    assert memo_hits() == 3
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_radius_memo_keys_norms_by_exact_value():
    """Adjacent doubles, and the zero and Euclidean norms (whose hashes
    collide), are separate entries; a norm that does not hash is estimated
    afresh; the table holds at most RADIUS_MEMO entries."""
    clear_radius_memo()
    near = [ScaledNorm(2, 0.3), ScaledNorm(2, float(np.nextafter(0.3, 1.0)))]
    assert [radius_estimate(f) for f in near] == list(map(oracles.radius_estimate_loop, near))
    assert [radius_estimate(f) for f in (ZeroNorm(2), EuclideanNorm(2))] == [np.inf, 0.5]
    info = radius_estimate.cache_info()
    assert (info.hits, info.currsize) == (0, 4)
    listed = RandersNorm(2, [0.2, 0.1])  # a list parameter: the norm does not hash
    assert radius_estimate(listed) == oracles.radius_estimate_loop(RandersNorm(2, (0.2, 0.1)))
    assert radius_estimate.cache_info().currsize == 4
    for k in range(RADIUS_MEMO + 3):
        radius_estimate(ScaledNorm(2, 1.0 + k))
    assert radius_estimate.cache_info().currsize == RADIUS_MEMO


@pytest.mark.parametrize("d, f", CASES)
def test_check_minkowski_equals_direction_loop(d, f):
    for samples in (64, 100, 5):
        batched = check_minkowski(f, samples)
        loop = oracles.check_minkowski_loop(f, samples)
        assert batched == loop
        assert batched["extra"]["min_eigenvalue"] == loop["extra"]["min_eigenvalue"]


def stencil_hessian(fun, v, step):
    """The Hessian from ``fun`` at each ``hessian_points`` point, one call
    per point."""
    v = np.asarray(v, dtype=float)
    step = np.asarray(step, dtype=float)
    return hessian_from([fun(p) for p in hessian_points(v, step)], step, v.shape[-1])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fd_hessian_rows_equal_single_points(d):
    rng = np.random.default_rng(d)
    v = rng.standard_normal((6, d))
    steps = 1e-4 * rng.uniform(0.5, 2.0, 6)
    fun = lambda yy: np.cos(yy[..., 0]) * np.exp(np.sum(yy, axis=-1))
    batched = stencil_hessian(fun, v, steps)
    assert batched.shape == (6, d, d)
    for k in range(6):
        one = stencil_hessian(fun, v[k], float(steps[k]))
        np.testing.assert_array_equal(batched[k], one)
        np.testing.assert_array_equal(one, oracles.fd_hessian_loop(fun, v[k], float(steps[k])))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_mixed_times_y_equals_row_loop(d):
    """The batched F_{x^l y^k} y^l against one matrix product per row, bit
    for bit (``einsum`` sums in another order and is not)."""
    rng = np.random.default_rng(d)
    mixed = rng.standard_normal((2000, d, d))
    ys = rng.standard_normal((2000, d))
    loop = np.stack([m.T @ y for m, y in zip(mixed, ys)])
    batched = _mixed_times_y(JetData(None, None, None, mixed, None), ys)
    np.testing.assert_array_equal(batched, loop)


@pytest.fixture
def norm_calls(monkeypatch):
    """Count value and gradient kernel calls (``_real``, ``_grad``) on every
    norm family; the public methods call the kernel once per call."""
    counts = {"_real": 0, "_grad": 0}

    def counted(name, fn):
        def wrapper(self, y):
            counts[name] += 1
            return fn(self, y)
        return wrapper

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in subclasses(HomogeneousFunction):
        for name in counts:
            if name in cls.__dict__:
                monkeypatch.setattr(cls, name, counted(name, cls.__dict__[name]))
    return counts


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("build, args, grads", [
    (build_k0, lambda d: (EuclideanNorm(d), RandersNorm(d, (0.2,) + (0.1,) * (d - 1))), 1),
    # phi +/- psi are two-term combinations: 3 gradient calls each
    (build_kneg1, lambda d: (EuclideanNorm(d), ScaledNorm(d, 0.3)), 6),
    (build_kpos1, lambda d: parse_norms("bryant:0.5236", d), 2),
], ids=["k0", "kneg1", "kpos1"])
def test_builders_make_a_fixed_number_of_norm_calls(norm_calls, d, build, args, grads):
    """On a cold memo, one radius estimate is one gradient call per norm,
    whatever the 256 directions; a build evaluates no norm value (it does
    not probe psi).  A second build from equal norms, built separately,
    takes its estimate from the memo and calls no kernel."""
    clear_radius_memo()
    first = build(*args(d))
    assert norm_calls == {"_real": 0, "_grad": grads}
    norm_calls.update(_real=0, _grad=0)
    again = build(*args(d))
    assert norm_calls == {"_real": 0, "_grad": 0}
    assert again.domain_radius == first.domain_radius
