"""Numerical differential checks for metric evaluators.

A metric is treated as a black box ``F(x, y)`` and ``P(x, y)`` evaluated
on rows through ``MetricEvaluator.rows``, whatever its kind (P is exact
on a construction and a difference quotient of F on a closed form).  The
functions here measure residuals of the identities
that characterize projectively flat metrics of constant flag curvature:

* Hamel's criterion              F_{x^k} = F_{x^l y^k} y^l
* projective factor              P = F_{x^k} y^k / (2F)
* flag curvature                 K = (P^2 - P_{x^m} y^m) / F^2
* first-order system             F_{x^k} = (PF)_{y^k},
                                 P_{x^k} = P P_{y^k} - (1/3F)(K F^3)_{y^k}
* transport fields               (P + c F)_{x^k} = (P + c F)(P + c F)_{y^k}
                                 with c^2 = -K (complex c when K > 0)
* strong convexity               [F^2/2]_{y^i y^j} positive definite
* geodesic straightness          trajectories of  v' = -2 P(x, v) v  stay
                                 on the line through (x0, v0)

The jet, the residual functions, ``point_values`` and
``integrate_geodesic`` take rows ``x`` and ``y`` ``(N, n)`` (any other
shape is a DimensionMismatchError), return one value per row, and raise
the error of the first failing sample.

All identity residuals are normalized (absolute residual / (1 + magnitude))
so one tolerance transfers across evaluation scales.  Derivatives of F use
step ~ eps^(1/3), derivatives of the P field (itself a difference quotient
on a closed form) and the mixed and second derivatives of F use step ~
eps^(1/4), which keeps their round-off floor near 1e-8 instead of 1e-5.
The checks hold their tolerances out to a sweep radius of 0.8 R, R being
the metric's ``domain_radius``; nearer the boundary the fixed steps meet
the blow-up of F, and capping the x-steps by the distance to the
boundary only moves the failures to other checks.

The geodesic check cannot fail: v' = -2 P(x, v) v keeps v parallel to v0
for any P, so every trajectory stays on its line whatever the metric.  It
exercises the integrator and the domain guards, not projective flatness.
"""

import functools
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .construct import (STEP_FIRST, RowValues, error_free, first_errors, flagged, p_numeric,
                        raise_first)
from .errors import DomainError
from .norms import HomogeneousFunction, as_rows, lengths
from .sampling import unit_directions

STEP_SECOND = float(np.finfo(float).eps) ** 0.25

FAILURE_CAP = 10
_SQUARE_LIMIT = 2.0 ** 511  # above it a square may overflow
MINKOWSKI_EIG_FLOOR = 1e-5
TABLE_MEMO = 32  # (check, dimension) stencil tables a process keeps

# finite differences of huge values overflow: a non-finite residual fails its report
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


# ---------------------------------------------------------------------------
# check reports


def make_report(check, x, y, residuals, tolerance, extra=None) -> dict:
    """The report of a check over the sample rows ``x`` and ``y``
    (``(N, n)``, N >= 1, one residual each), as the JSON object ``verify``
    prints.

    It passes iff the largest residual is at most ``tolerance``, and then
    lists no failures; a failed report lists the rows of its largest
    residuals above the tolerance, largest first, at most FAILURE_CAP.
    ``extra`` is printed after the failures when given.
    """
    residuals = np.asarray(residuals, dtype=float)
    worst = float(residuals.max())
    report = {
        "check": check,
        "samples": int(residuals.size),
        "max_residual": worst,
        "mean_residual": float(residuals.mean()),
        "tolerance": float(tolerance),
        "pass": bool(worst <= tolerance),
        # largest first, a nan residual (a failure) ahead of all
        "failures": [{"x": x[i].tolist(), "y": y[i].tolist(), "residual": float(residuals[i])}
                     for i in np.argsort(residuals)[::-1][:FAILURE_CAP]
                     if not residuals[i] <= tolerance],
    }
    if extra:
        report["extra"] = dict(extra)
    return report


# ---------------------------------------------------------------------------
# finite-difference stencils as offset tables
#
# A stencil point is its sample's (x, y) with steps added along coordinate
# axes: v + e or v - e, e being a step h in component k and zeros elsewhere,
# and at a Hessian corner a second step added to that sum.  A check lists
# its points once per dimension (``_STENCILS``), and ``_tables`` turns the
# list into offset tables, one per side (x, y) and successive addition,
# whose entries pick the value each component adds from the per-row
# offsets of ``_offsets``.  A component that e leaves adds +0.0 to v + e
# and -0.0 to v - e, so a -0.0 component reads +0.0 after v + e and keeps
# its sign after v - e; a side that a point does not move adds -0.0, which
# leaves it as it is.  So every point has the bits of v + e, v - e and
# (v + e_i) + e_j computed vector by vector.

_PLUS_ZERO, _MINUS_ZERO = 0, 1  # the offset columns of +0.0 and -0.0


def _offsets(*steps):
    """Per row ``(N, 2 + 2S)``: +0.0, -0.0, then +h and -h for each of the
    S step arrays ``steps`` (each ``(N,)``), so that step s (from 1) is +h
    at column 2s and -h at column 2s + 1."""
    out = np.zeros((len(steps[0]), 2 + 2 * len(steps)))
    out[:, _MINUS_ZERO] = -0.0
    for s, h in enumerate(steps, 1):
        out[:, 2 * s] = h
        np.negative(h, out=out[:, 2 * s + 1])
    return out


# A point is a tuple of moves (side, k, sign, step): side 0 moves x and 1
# moves y, by sign * h along component k, h being the side's step number
# ``step``; two moves of one side are added in turn.

def _axis_points(side, step, n):
    """The points of a central-difference gradient: v + e_k, then v - e_k,
    for each k (read by ``_gradient``)."""
    return [((side, k, sign, step),) for k in range(n) for sign in (1, -1)]


def _hessian_points(side, step, n):
    """The points of a central-difference Hessian (read by ``_hessian``):
    v, the gradient's points v +- e_i, then (v +- e_i) +- e_j for each
    pair i < j."""
    return [()] + _axis_points(side, step, n) + [
        ((side, i, si, step), (side, j, sj, step))
        for i in range(n) for j in range(i + 1, n) for si in (1, -1) for sj in (1, -1)]


def _jet_points(n):
    """The jet's points (read by ``_jet_from``): (x, y), the gradients in
    x and in y (step 1), the mixed corners (x +- e_l, y +- e_k) for each
    l and k, and the Hessian in y (step 2)."""
    mixed = [((0, l, sl, 2), (1, k, sk, 2)) for l in range(n) for k in range(n)
             for sl in (1, -1) for sk in (1, -1)]
    return [()] + _axis_points(0, 1, n) + _axis_points(1, 1, n) + mixed + _hessian_points(1, 2, n)


def _p_points(step, n):
    """(x, y), then the gradient points in x and in y."""
    return [()] + _axis_points(0, step, n) + _axis_points(1, step, n)


# each check's stencil in n dimensions, as its blocks of points in order
_STENCILS = {
    "jet": lambda n: [_jet_points(n)],
    "berwald": lambda n: [_jet_points(n), _p_points(2, n), _axis_points(1, 2, n)],
    "pde": lambda n: [_p_points(1, n)],
    "convexity": lambda n: [[()] + _hessian_points(1, 1, n)],
    "hessian": lambda n: [_hessian_points(1, 1, n)],
}


def _frozen(*arrays):
    """``arrays`` made read-only, as a memo hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=TABLE_MEMO)
def _tables(stencil, n):
    """The offset tables of ``_STENCILS[stencil]`` in n dimensions: for x
    and for y, per successive addition (at least one), the offset column
    of each component of each point, flat ``(M * n,)``; and the sizes of
    the blocks."""
    blocks = _STENCILS[stencil](n)
    points = [point for block in blocks for point in block]
    tables = []
    for side in (0, 1):
        depth = max(1, max(sum(move[0] == side for move in point) for point in points))
        table = np.full((depth, len(points), n), _MINUS_ZERO)
        for m, point in enumerate(points):
            for add, (_, k, sign, step) in enumerate(move for move in point if move[0] == side):
                table[add, m] = _PLUS_ZERO if sign > 0 else _MINUS_ZERO
                table[add, m, k] = 2 * step + (sign < 0)
        tables.append(_frozen(*table.reshape(depth, -1)))
    return tables[0], tables[1], tuple(len(block) for block in blocks)


def _moved(v, offsets, table):
    """The points ``(N, M, n)`` of a side: ``v`` plus each addition of
    ``table`` in turn, picked from ``offsets``."""
    count, n = v.shape
    points = offsets.take(table[0], axis=1).reshape(count, -1, n)
    np.add(v[:, None, :], points, out=points)  # v + offset, in that order
    for add in table[1:]:
        points += offsets.take(add, axis=1).reshape(count, -1, n)
    return points


def _stencil(stencil, xs, ys, x_steps, y_steps):
    """The points x and y ``(N, M, n)`` of ``stencil`` at each row of
    (xs, ys), with the step arrays of each side, and its block sizes."""
    x_table, y_table, sizes = _tables(stencil, xs.shape[1])
    return _moved(xs, _offsets(*x_steps), x_table), _moved(ys, _offsets(*y_steps), y_table), sizes


def _gradient(values, step):
    """Central differences from the ``(N, 2n)`` values at ``_axis_points``
    with the per-row step, ``(N, n)`` in the values' dtype, so complex
    fields keep their imaginary parts."""
    return (values[:, 0::2] - values[:, 1::2]) / (2.0 * step)[:, None]


@functools.lru_cache(maxsize=TABLE_MEMO)
def _pair_positions(n):
    """The flat ``(n * n)`` positions of the entries (i, j) and (j, i) of
    each pair i < j, in the order of ``_hessian_points``."""
    i, j = np.triu_indices(n, 1)
    return _frozen(i * n + j, j * n + i)


def _hessian(values, step, n):
    """The symmetric central-difference Hessian ``(N, n, n)`` from the
    ``(N, M)`` values at ``_hessian_points`` with the per-row step."""
    upper, lower = _pair_positions(n)
    step_sq = (step * step)[:, None]
    h = np.empty((len(values), n * n))
    h[:, ::n + 1] = (values[:, 1:2 * n:2] - 2.0 * values[:, :1] + values[:, 2:2 * n + 1:2]) / step_sq
    c0, c1, c2, c3 = (values[:, 2 * n + 1 + c::4] for c in range(4))
    h[:, upper] = h[:, lower] = (c0 - c1 - c2 + c3) / (4.0 * step_sq)
    return h.reshape(-1, n, n)


def _on_stencil(metric, x, y, blocks):
    """F and P of ``metric`` on a check's stencil, the points ``x`` and
    ``y`` ``(N, M, n)`` at N samples, from one rows call: per block a
    RowValues whose ``f`` and ``p`` are ``(N, M_block)`` (None when no
    block asks for the field) and whose ``errors`` are each sample's first
    error among the block's points.

    The blocks split the M points in order.  A block is ``(want, size)``
    or ``(want, size, samples)``: ``want`` is "f", "p" or "fp", the fields
    asked at its next ``size`` points; ``samples``, an ``(N,)`` mask,
    leaves the other samples' points unasked (nan, no error).  A point
    that needs both fields belongs in an "fp" block, so it is one row, and
    its error is F's, else P's.
    """
    count, m = x.shape[:2]
    ends = list(accumulate(size for _, size, *_ in blocks))
    spans = list(zip([0] + ends, ends))

    def ask(field):  # False or the sample-major rows mask
        on = [(span, samples) for (want, _, *samples), span in zip(blocks, spans) if field in want]
        if not on:
            return False
        rows = np.zeros((count, m), dtype=bool)
        for (a, b), samples in on:
            rows[:, a:b] = samples[0][:, None] if samples else True
        return rows.reshape(-1)

    n = metric.dimension
    values = metric.rows(x.reshape(-1, n), y.reshape(-1, n), ask("f"), ask("p"))
    f, p = (None if v is None else v.reshape(count, m) for v in (values.f, values.p))
    errors = values.errors  # sample-major: sample i's points are i * m to (i + 1) * m

    def first(a, b):
        if not any(errors):
            return [None] * count
        return [next(filter(None, errors[i * m + a:i * m + b]), None) for i in range(count)]

    return [RowValues(None if f is None else f[:, a:b], None if p is None else p[:, a:b], first(a, b))
            for a, b in spans]


# ---------------------------------------------------------------------------
# jets and identity residuals


@dataclass
class JetData:
    """Value and low-order derivatives of F at each row: ``value`` is
    ``(N,)``, ``grad_x`` and ``grad_y`` are ``(N, n)``, and ``mixed_xy``
    and ``hess_yy`` are ``(N, n, n)``, with ``mixed_xy[:, l, k]`` =
    d^2 F / dx^l dy^k.
    """

    value: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    mixed_xy: np.ndarray
    hess_yy: np.ndarray


def _jet_stencil(xs, ys, stencil):
    """The points of ``stencil`` (the jet's first) at each row of
    (xs, ys), its block sizes and the jet's steps (hx, hy, hx2, hy2);
    raises DomainError for a zero y."""
    ny = lengths(ys)
    if (ny == 0.0).any():
        raise DomainError("jet requires y != 0")
    sx = np.maximum(1.0, lengths(xs))
    hx, hy = STEP_FIRST * sx, STEP_FIRST * ny
    hx2, hy2 = STEP_SECOND * sx, STEP_SECOND * ny
    x_points, y_points, sizes = _stencil(stencil, xs, ys, (hx, hx2), (hy, hy2))
    return x_points, y_points, sizes, (hx, hy, hx2, hy2)


def _jet_from(values, steps, n) -> JetData:
    """The jet in n dimensions from F ``(N, M)`` at the points of
    ``_jet_points``, in their order."""
    hx, hy, hx2, hy2 = steps
    grad_x = _gradient(values[:, 1:2 * n + 1], hx)
    grad_y = _gradient(values[:, 2 * n + 1:4 * n + 1], hy)
    start, end = 4 * n + 1, 4 * n * (n + 1) + 1  # the mixed corners, four per (l, k)
    c0, c1, c2, c3 = (values[:, start + c:end:4] for c in range(4))
    mixed = ((c0 - c1 - c2 + c3) / (4.0 * hx2 * hy2)[:, None]).reshape(-1, n, n)
    return JetData(values[:, 0], grad_x, grad_y, mixed, _hessian(values[:, end:], hy2, n))


@_QUIET
def jet(metric, x, y) -> JetData:
    """Central-difference jet of F at each row of (x, y); raises
    DomainError if the stencil leaves the evaluator's domain."""
    xs, ys = as_rows(metric.dimension, x, y)
    x_points, y_points, sizes, steps = _jet_stencil(xs, ys, "jet")
    [values] = _on_stencil(metric, x_points, y_points, [("f", *sizes)])
    raise_first(values.errors)
    return _jet_from(values.f, steps, xs.shape[1])


def _mixed_times_y(jd: JetData, ys):
    """F_{x^l y^k} y^l at each row."""
    return np.matmul(ys[:, None, :], jd.mixed_xy)[:, 0]


@_QUIET
def hamel_residual(metric, x, y):
    """Normalized residual of F_{x^k} - F_{x^l y^k} y^l = 0."""
    xs, ys = as_rows(metric.dimension, x, y)
    jd = jet(metric, xs, ys)
    lhs = jd.grad_x - _mixed_times_y(jd, ys)
    scale = 1.0 + np.abs(jd.grad_x).max(axis=-1)
    return np.abs(lhs).max(axis=-1) / scale


def projective_factor_numeric(metric, x, y):
    """P = F_{x^k} y^k / (2F) via a directional central difference in x,
    on any metric kind (``construct.p_numeric``); raises the first
    failing row's error."""
    p, errors = p_numeric(metric, *as_rows(metric.dimension, x, y))
    raise_first(errors)
    return p


@_QUIET
def _curvature_stencil(xs, ys):
    """The step h at each row and K's stencil points (x, u), (x + h u)
    and (x - h u), u = y / |y|, as x and y ``(N, 3, n)``.

    K has degree 0 in y, so it is evaluated at u: a tiny y would
    otherwise make F^2 underflow.  y is first divided by its largest
    component, so |y| itself cannot underflow or overflow.
    """
    top = np.abs(ys).max(axis=-1, keepdims=True)
    w = ys / np.where(top == 0.0, 1.0, top)  # y = 0 stays 0 and fails in F
    nw = lengths(w)
    u = w / np.where(nw == 0.0, 1.0, nw)[:, None]
    h = STEP_SECOND * np.maximum(1.0, lengths(xs))
    step = h[:, None] * u
    return h, np.stack((xs, xs + step, xs - step), axis=1), np.stack((u, u, u), axis=1)


def _curvature(at_u, off_u, h):
    """K at each row from F and P at (x, u) (the RowValues ``at_u``) and P
    at (x +- h u) (``off_u``), and each row's first error.

    K = (P^2 - dP) / F^2 is unchanged when F and P scale by 2^e and dP by
    2^2e, so a row whose F^2 would overflow is evaluated with F brought
    into [1/2, 1); every other row keeps its bits.  A P^2 beyond range
    gives an infinite K, which the callers report.
    """
    f0, p0 = at_u.f[:, 0], at_u.p[:, 0]
    dp = (off_u.p[:, 0] - off_u.p[:, 1]) / (2.0 * h)
    huge = np.abs(f0) > _SQUARE_LIMIT  # nan: F failed
    if huge.any():
        e = np.where(huge, -np.frexp(f0)[1], 0)
        f0, p0, dp = np.ldexp(f0, e), np.ldexp(p0, e), np.ldexp(dp, 2 * e)
    f2 = f0 * f0
    flat = ~(f2 > 0.0)  # F = 0, or F^2 underflows (nan: F failed)
    with np.errstate(over="ignore"):
        k = np.where(flat, np.nan, (p0 * p0 - dp) / np.where(flat, 1.0, f2))
    return k, first_errors(at_u.errors, flagged(flat, "flag curvature requires F^2 > 0"),
                           off_u.errors)


def flag_curvature(metric, x, y):
    """K = (P^2 - P_{x^m} y^m) / F^2 with P_x by a directional difference.

    The P field is exact for constructed metrics and a finite difference
    of F otherwise, so the outer differentiation never stacks more than
    one finite-difference level on top of the field.  The formula holds
    only where F is projectively flat; the ``hamel`` check tests that.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    h, x_points, y_points = _curvature_stencil(xs, ys)
    k, errors = _curvature(*_on_stencil(metric, x_points, y_points, [("fp", 1), ("p", 2)]), h)
    raise_first(errors)
    return k


def point_values(metric, x, y):
    """F, P and K at each row of ``x`` and ``y`` (``(N, n)``), and each
    row's first error (F's, then P's, then K's), for ``eval`` and
    ``sample``; a failed row holds nan."""
    xs, ys = as_rows(metric.dimension, x, y)
    h, x_points, y_points = _curvature_stencil(xs, ys)
    # K's rows of a sample whose F fails the radius guard are asked nothing
    near = ~metric.beyond_radius(lengths(xs))
    here, at_u, off_u = _on_stencil(
        metric, np.concatenate((xs[:, None], x_points), axis=1),
        np.concatenate((ys[:, None], y_points), axis=1),
        [("fp", 1), ("fp", 1, near), ("p", 2, near)])
    k, k_errors = _curvature(at_u, off_u, h)
    errors = first_errors(here.errors, k_errors)
    k[~error_free(errors)] = np.nan
    return here.f[:, 0], here.p[:, 0], k, errors


@_QUIET
def berwald_system_residual(metric, x, y):
    """Normalized residuals (r1, r2) of the first-order projective system.

    r1 checks F_{x^k} = (PF)_{y^k}; r2 checks
    P_{x^k} = P P_{y^k} - (1/3F)(K F^3)_{y^k}, with the last term reduced
    to K F F_{y^k} (valid because K is constant).  K is the metric's
    intended curvature, so a metric whose numeric K differs fails r2.
    The jet's errors are raised before the P stencils', so the jet and the
    P stencil each hold the centre (x, y), F on one row and P on another.
    The P stencils take the jet's second-derivative steps.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    n = xs.shape[1]
    curvature = metric.intended_curvature
    x_points, y_points, sizes, steps = _jet_stencil(xs, ys, "berwald")
    hx, hy = steps[2:]
    jet_f, p_stencil, pf = _on_stencil(metric, x_points, y_points,
                                       list(zip(("f", "p", "fp"), sizes)))
    raise_first(jet_f.errors)
    jd = _jet_from(jet_f.f, steps, n)
    raise_first(first_errors(p_stencil.errors, pf.errors))
    p_values = p_stencil.p
    p0 = p_values[:, 0]
    p_x = _gradient(p_values[:, 1:2 * n + 1], hx)
    p_y = _gradient(p_values[:, 2 * n + 1:], hy)
    pf_y = _gradient(pf.p * pf.f, hy)

    r1 = np.abs(jd.grad_x - pf_y).max(axis=-1) / (1.0 + np.abs(jd.grad_x).max(axis=-1))
    resid2 = p_x - p0[:, None] * p_y + (curvature * jd.value)[..., None] * jd.grad_y
    r2 = np.abs(resid2).max(axis=-1) / (1.0 + np.abs(p_x).max(axis=-1))
    return r1, r2


def _transport_fields(metric, x, y):
    """The scalar fields Phi with Phi_x = Phi * Phi_y on the stencil
    points ``x`` and ``y``, each as its ``(N, M)`` values, and each
    field's per-sample first errors.

    Every metric kind builds them alike, from its F and P and its stated
    curvature K: Phi = P + c F with c = 0 for K = 0, c = +/- sqrt(-K) for
    K < 0 and the complex c = i sqrt(K) for K > 0 (Shen's transport
    equations).  So a wrong F or a wrong stated K fails the check.  Each
    field is evaluated on its own: P alone for c = 0, F and P together
    otherwise.  That keeps a closed form's F count per point (72 on funk,
    which the benchmark's cross-check pins) where one shared F and P per
    stencil would halve it, at the cost of a second solve per stencil
    point on a K < 0 construction.
    """
    k = metric.intended_curvature
    s = float(np.sqrt(abs(k)))
    fields, errors = [], []
    for c in ((0.0,) if k == 0.0 else (s, -s) if k < 0.0 else (1j * s,)):
        [values] = _on_stencil(metric, x, y, [("p" if c == 0.0 else "fp", x.shape[1])])
        fields.append(values.p if c == 0.0 else values.p + c * values.f)
        errors.append(values.errors)
    return fields, errors


@_QUIET
def master_pde_residual(metric, x, y):
    """Normalized finite-difference residual of Phi_x = Phi * Phi_y.

    Phi runs over the metric's transport fields (see _transport_fields);
    complex fields are differenced in complex arithmetic.
    """
    xs, ys = as_rows(metric.dimension, x, y)
    n = xs.shape[1]
    hx = STEP_SECOND * np.maximum(1.0, lengths(xs))
    hy = STEP_SECOND * lengths(ys)
    x_points, y_points, _ = _stencil("pde", xs, ys, (hx,), (hy,))
    fields, errors = _transport_fields(metric, x_points, y_points)
    raise_first(first_errors(*errors))
    worst = np.zeros(len(ys))
    for phi in fields:
        gx = _gradient(phi[:, 1:2 * n + 1], hx)
        gy = _gradient(phi[:, 2 * n + 1:], hy)
        resid = (np.abs(gx - phi[:, :1] * gy).max(axis=-1)
                 / (1.0 + np.abs(gx).max(axis=-1)))
        worst = np.where(resid > worst, resid, worst)
    return worst


# ---------------------------------------------------------------------------
# convexity of the metric and of a norm


@_QUIET
def convexity_residual(metric, x, u):
    """(residual, min eigenvalue) of the strong-convexity test at each row
    of (x, u).

    residual = max(-lambda_min, -F): negative when the Hessian of F^2/2
    in y is positive definite and F > 0.
    """
    xs, us = as_rows(metric.dimension, x, u)
    h = STEP_SECOND * lengths(us)
    x_points, y_points, sizes = _stencil("convexity", xs, us, (h,), (h,))
    [values] = _on_stencil(metric, x_points, y_points, [("f", *sizes)])
    raise_first(values.errors)
    f = values.f
    lam_min = _min_eigenvalues(_hessian(0.5 * (f[:, 1:] * f[:, 1:]), h, xs.shape[1]))
    return np.maximum(-lam_min, -f[:, 0]), lam_min


def _min_eigenvalues(hess):
    """Smallest eigenvalue of each Hessian; nan for one that is not finite."""
    finite = np.isfinite(hess).all(axis=(-2, -1))  # eigvalsh fails on the others
    lam = np.full(len(hess), np.nan)
    lam[finite] = np.linalg.eigvalsh(hess[finite]).min(axis=-1)
    return lam


@_QUIET
def check_minkowski(f: HomogeneousFunction, samples: int) -> dict:
    """Strong-convexity and positivity test of a norm over deterministic
    directions.

    At each unit direction the Hessian of f^2/2 is formed by central
    differences (step eps^(1/3), the standard second-difference
    tradeoff) and its minimum eigenvalue recorded.  The per-direction
    residual is max(-lambda_min, -f), so the report passes iff every
    direction has lambda_min and f at or above MINKOWSKI_EIG_FLOOR.  All
    stencil points of all directions go through the norm in one call.
    """
    dirs = unit_directions(f.dimension, samples)
    step = STEP_FIRST * np.maximum(1.0, lengths(dirs))
    _, table, _ = _tables("hessian", f.dimension)
    points = _moved(dirs, _offsets(step), table)
    values = f.eval_real(points.reshape(-1, f.dimension)).reshape(samples, -1)
    lam = _min_eigenvalues(_hessian(0.5 * (values * values), step, f.dimension))
    return make_report("minkowski", np.zeros_like(dirs), dirs, np.maximum(-lam, -values[:, 0]),
                       tolerance=-MINKOWSKI_EIG_FLOOR,
                       extra={"min_eigenvalue": float(lam.min())})


# ---------------------------------------------------------------------------
# geodesics


def ray_values(f, p, k, s):
    """F and P at (x + s y, y) from their values ``f`` and ``p`` at (x, y)
    on a projectively flat metric of constant flag curvature ``k``, by the
    ray law of Shen's equations (Trans. AMS 355, 2003): along the line the
    equations F' = 2 P F and P' = P^2 - k F^2 have the solution

        F / D,  (P - s (P^2 + k F^2)) / D,  D = (1 - s P)^2 + k s^2 F^2,

    which is u / (1 - s u) for each u = P +- sqrt(-k) F (complex at
    k > 0).  Works elementwise on arrays."""
    q = 1.0 - s * p
    d = q * q + k * (s * f) ** 2
    return f / d, (p - s * (p * p + k * f * f)) / d


@dataclass
class GeodesicResult:
    """Sampled geodesic trajectory; ``completed`` is False on domain exit."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    completed: bool


@_QUIET  # an overflowing stage point fails the point guard of its rows call
def integrate_geodesic(metric, x0, v0, t_end, steps):
    """Classic RK4 on (x, v) with v' = -2 P(x, v) v.

    ``x0`` and ``v0`` are T starts ``(T, n)``, giving a list of T
    results: the trajectories step together, one rows call of P per RK
    stage, exact on a construction and numeric on a closed form.

    On a construction the first stage asks F and P at the starts, and each
    later stage hands ``rows`` a guess for its solves: every stage point
    lies on its start's line, at x0 + s v0 with velocity lam v0 up to
    rounding (v' is parallel to v), so ``ray_values`` at s = <x - x0, v0>
    / |v0|^2, scaled by lam = <v, v0> / |v0|^2, predicts its F and P.  A
    start whose F or P fails gets no guess; then the first stage asks P
    alone at every start, as a closed form's does.

    A start that fails the point guard of ``rows`` (a non-finite point or
    squared length, or |x| beyond the validity radius) raises its
    DomainError.  A trajectory stops early (flagged) if it or one of its
    stage points leaves the evaluator's domain: it keeps its rows but
    loses its bit of the ``alive`` mask, so it is asked nothing more; the
    others go on.
    """
    xs0, vs0 = as_rows(metric.dimension, x0, v0)
    passes, squares, start = metric.guard(xs0, vs0, True)
    if (squares == 0.0).any():
        raise DomainError("geodesic needs a nonzero initial velocity")
    if not passes.all():
        raise metric.guard_error(squares, start, np.argmin(passes))  # the first failing start
    at_start, first_stage = None, None
    if metric.solve is not None:  # a closed form ignores a guess
        first_stage = metric.rows(xs0, vs0, with_p=True)
        known = error_free(first_stage.errors)
        at_start = np.where(known, first_stage.f, np.nan), np.where(known, first_stage.p, np.nan)
        if not known.all():
            first_stage = None  # asked again, for P alone
    h = float(t_end) / int(steps)
    points = np.zeros((int(steps) + 1,) + xs0.shape)
    velocities = np.zeros_like(points)
    points[0], velocities[0] = xs0, vs0
    taken = np.zeros(len(xs0), dtype=int)
    alive = np.ones(len(xs0), dtype=bool)
    for i in range(int(steps)):
        if not alive.any():
            break
        x, v = points[i], velocities[i]
        sx, sv, slopes = x, v, []
        for coef in (0.5, 0.5, 1.0, None):
            if first_stage is not None:
                values, first_stage = first_stage, None
            else:
                guess = None
                if at_start is not None:
                    ray = ray_values(*at_start, metric.intended_curvature,
                                     np.vecdot(sx - xs0, vs0) / squares)
                    scale = np.vecdot(sv, vs0) / squares
                    guess = scale * ray[0], scale * ray[1]
                values = metric.rows(sx, sv, with_f=False, with_p=alive, guess=guess)
            if any(values.errors):
                raise_first([e for e in values.errors if not isinstance(e, DomainError)])
                alive &= error_free(values.errors)
            slopes.append((sv, (-2.0 * values.p)[:, None] * sv))
            if coef is not None:
                kx, kv = slopes[-1]
                sx, sv = x + coef * h * kx, v + coef * h * kv
        (k1x, k1v), (k2x, k2v), (k3x, k3v), (k4x, k4v) = slopes
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        alive &= ~metric.beyond_radius(lengths(x))
        points[i + 1, alive], velocities[i + 1, alive] = x[alive], v[alive]
        taken[alive] += 1
    return [GeodesicResult(times=np.arange(taken[j] + 1) * h,
                           points=points[:taken[j] + 1, j].copy(),
                           velocities=velocities[:taken[j] + 1, j].copy(),
                           completed=bool(alive[j]))
            for j in range(len(xs0))]


def collinearity_score(result: GeodesicResult, x0, v0) -> float:
    """Max distance from the trajectory to the line through (x0, v0),
    divided by the arc length (scale-invariant straightness measure); nan,
    which no tolerance passes, for a trajectory that did not move."""
    x0 = np.asarray(x0, dtype=float)
    v_hat = np.asarray(v0, dtype=float)
    v_hat = v_hat / np.linalg.norm(v_hat)
    rel = result.points - x0
    along = rel @ v_hat
    perp = rel - np.outer(along, v_hat)
    dist = np.linalg.norm(perp, axis=1)
    arc = float(np.linalg.norm(np.diff(result.points, axis=0), axis=1).sum())
    return float(dist.max() / arc) if arc > 0.0 else np.nan
