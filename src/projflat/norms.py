"""Degree-1 positively homogeneous origin-data functions.

The metric constructions start from a pair (psi, phi): psi is the norm the
metric restricts to at the origin, phi is the origin value of the
projective factor.  Both live here as members of a closed family set, so
exact values, exact gradients, and analytic continuations to complex
arguments are always available:

* ``zero``        f(y) = 0
* ``euclidean``   f(y) = |y|
* ``scaled``      f(y) = c |y|
* ``randers``     f(y) = |y| + <a, y>
* ``dsr-a``       f(y) = sqrt(2)/2 * sqrt( sqrt(|u|^4 + |v|^4) - |u|^2 )
* ``dsr-b``       f(y) = sqrt(2)/2 * sqrt( sqrt(|u|^4 + |v|^4) + |u|^2 )
                  where u, v are the two coordinate blocks of y
* ``bryant-pair`` the packaged combination phi + i psi = i e^{-i alpha} |y|,
                  i.e. phi = sin(alpha) |y| and psi = cos(alpha) |y|
* ``combo``       a formal linear combination of the above (used for
                  phi +/- psi without numeric differentiation)

``eval_real``, ``grad_real`` and ``eval_complex`` take one vector ``(n,)``
or rows ``(N, n)`` and act along the last axis: a row gives the same bits
as the same vector passed alone.  One vector yields a float or
complex (value) or an ``(n,)`` array (gradient); rows yield ``(N,)``
values or ``(N, n)`` gradients.  A real row whose squared length is 0,
also when it underflows, is outside the domain of every family but
``zero``.

Complex continuation uses principal square roots throughout (cut on the
negative real axis, the cut itself resolved from above as in IEEE/numpy).
``bryant-pair`` is the one family whose complex value at a real vector is
genuinely complex; its ``eval_real`` returns the real component
sin(alpha)|y|.

``check_minkowski`` tests a norm's strong convexity with the batched
``fd_hessian``; both live here, with the ``VerificationReport`` they
produce, so the metric builders can vet their origin data without
importing ``verify``.
"""

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatchError, DomainError, ProjFlatError,
                     SpecParseError)
from .sampling import unit_directions

EPS = float(np.finfo(float).eps)
STEP_FIRST = EPS ** (1.0 / 3.0)

FAILURE_CAP = 10
MINKOWSKI_EIG_FLOOR = 1e-5


def lengths(v: np.ndarray):
    """Euclidean length along the last axis.

    ``np.vecdot`` rounds each row exactly as ``np.linalg.norm`` rounds a
    lone vector, which ``norm(axis=...)``, ``einsum`` and ``sum`` do not.
    """
    return np.sqrt(np.vecdot(v, v))


def _value(out):
    """A lone vector's value as a float; rows stay an array."""
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class HomogeneousFunction:
    """Base class: a positively homogeneous function of degree one on R^n."""

    dimension: int

    family = "abstract"

    def eval_real(self, y):
        raise NotImplementedError

    def eval_complex(self, z):
        raise NotImplementedError

    def grad_real(self, y) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, y) -> float:
        return self.eval_real(y)

    # -- shared input handling -------------------------------------------

    def _vec(self, y, allow_zero=False) -> np.ndarray:
        """``y`` as floats, checked along the last axis: ``dimension``
        components, all finite, and (unless ``allow_zero``) no zero row."""
        v = np.asarray(y, dtype=float)
        if v.shape[-1:] != (self.dimension,):
            got = v.shape[-1] if v.ndim else v.size
            raise DimensionMismatchError(
                f"expected {self.dimension} components, got {got}")
        if not np.isfinite(v).all():
            raise DomainError("non-finite vector")
        # a squared length of 0 is the zero row, also when it underflows
        if not allow_zero and (np.vecdot(v, v) == 0.0).any():
            raise DomainError("y = 0 is outside the domain of this family")
        return v

    def _cvec(self, z):
        """``z`` as rows of complex numbers, ``dimension`` components each,
        all finite, and whether it was one vector.

        One vector is computed as a single row: numpy's complex products
        can differ from its scalar (and Python's) products in the last
        ulp, and the same array path keeps a row's value independent of
        the rows around it.
        """
        v = np.asarray(z, dtype=complex)
        if v.shape[-1:] != (self.dimension,):
            got = v.shape[-1] if v.ndim else v.size
            raise DimensionMismatchError(
                f"expected {self.dimension} components, got {got}")
        if not np.isfinite(v).all():
            raise DomainError("non-finite vector")
        return np.atleast_2d(v), v.ndim == 1


def _cvalue(out, lone):
    """A lone vector's complex value as a complex; rows stay an array."""
    return complex(out[0]) if lone else out


def _csum_sq(v: np.ndarray):
    """sum(z_k^2) along the last axis (no conjugation, unlike vecdot)."""
    return np.sum(v * v, axis=-1)


def per_row(fn, v):
    """``fn`` on the rows ``v`` in one call, and each row's error.

    Returns ``(values, errors)``.  When the call raises a library error,
    ``fn`` runs again row by row: a failing row gets nan and the error it
    raises alone, the other rows their values.
    """
    try:
        return fn(v), [None] * len(v)
    except ProjFlatError:
        pass
    values, errors = [], []
    for row in v:
        try:
            values.append(fn(row))
            errors.append(None)
        except ProjFlatError as exc:
            values.append(np.nan)
            errors.append(exc.with_traceback(None))  # no frame cycle
    return np.array(values), errors


class ZeroNorm(HomogeneousFunction):
    """The zero function; the drift-free origin datum."""

    family = "zero"

    def eval_real(self, y):
        return _value(np.zeros(self._vec(y, allow_zero=True).shape[:-1]))

    def eval_complex(self, z):
        v, lone = self._cvec(z)
        return _cvalue(np.zeros(len(v), dtype=complex), lone)

    def grad_real(self, y) -> np.ndarray:
        return np.zeros(self._vec(y, allow_zero=True).shape)


class EuclideanNorm(HomogeneousFunction):
    """f(y) = |y|, continued as the principal sqrt of sum(z_k^2)."""

    family = "euclidean"

    def eval_real(self, y):
        return _value(lengths(self._vec(y)))

    def eval_complex(self, z):
        v, lone = self._cvec(z)
        return _cvalue(np.sqrt(_csum_sq(v)), lone)

    def grad_real(self, y) -> np.ndarray:
        v = self._vec(y)
        return v / lengths(v)[..., None]


@dataclass(frozen=True)
class ScaledNorm(HomogeneousFunction):
    """f(y) = c |y| for a real constant c (c may be negative or zero)."""

    scale: float = 1.0

    family = "scaled"

    def eval_real(self, y):
        return _value(self.scale * lengths(self._vec(y)))

    def eval_complex(self, z):
        v, lone = self._cvec(z)
        return _cvalue(self.scale * np.sqrt(_csum_sq(v)), lone)

    def grad_real(self, y) -> np.ndarray:
        v = self._vec(y)
        return self.scale * v / lengths(v)[..., None]


@dataclass(frozen=True)
class RandersNorm(HomogeneousFunction):
    """f(y) = |y| + <a, y>; a Minkowski norm iff |a| < 1."""

    drift: tuple = ()

    family = "randers"

    def __post_init__(self):
        if len(self.drift) != self.dimension:
            raise DimensionMismatchError("drift vector length must equal dimension")

    def eval_real(self, y):
        v = self._vec(y)
        return _value(lengths(v) + np.vecdot(v, self.drift))

    def eval_complex(self, z):
        v, lone = self._cvec(z)
        drift = np.sum(v * np.asarray(self.drift, dtype=float), axis=-1)
        return _cvalue(np.sqrt(_csum_sq(v)) + drift, lone)

    def grad_real(self, y) -> np.ndarray:
        v = self._vec(y)
        return v / lengths(v)[..., None] + np.asarray(self.drift, dtype=float)


@dataclass(frozen=True)
class DoubleSqrtNorm(HomogeneousFunction):
    """Two-block double-square-root function.

    With u the first ``first_block`` coordinates and v the rest,
    S = sqrt(|u|^4 + |v|^4) and

        f(y) = sqrt((S - |u|^2) / 2)   (minus variant, tag ``dsr-a``)
        f(y) = sqrt((S + |u|^2) / 2)   (plus variant,  tag ``dsr-b``)

    The plus variant is a Minkowski norm; the minus variant vanishes on
    the v = 0 subspace (it is the matching drift datum).  The difference
    S - |u|^2 is evaluated as |v|^4 / (S + |u|^2) to avoid cancellation.
    """

    first_block: int = 1
    second_block: int = 1
    plus: bool = True

    def __post_init__(self):
        if self.first_block < 1 or self.second_block < 1:
            raise DimensionMismatchError("both blocks need at least one coordinate")
        if self.first_block + self.second_block != self.dimension:
            raise DimensionMismatchError("block sizes must sum to the dimension")

    @property
    def family(self) -> str:
        return "dsr-b" if self.plus else "dsr-a"

    def _blocks(self, v):
        return v[..., : self.first_block], v[..., self.first_block:]

    def _squares(self, v):
        """Block squares |u|^2, |w|^2 and S = hypot of the two."""
        u, w = self._blocks(v)
        uu = np.vecdot(u, u)
        ww = np.vecdot(w, w)
        return u, w, uu, ww, np.hypot(uu, ww)

    def eval_real(self, y):
        _, _, uu, ww, s = self._squares(self._vec(y))
        if self.plus:
            return _value(np.sqrt((s + uu) / 2.0))
        # s - uu == ww^2 / (s + uu), exact algebra, no cancellation; the sum
        # is 0 only where both blocks underflow, and there f = 0
        total = s + uu
        return _value(np.sqrt(ww * ww / np.where(total == 0.0, 1.0, total) / 2.0))

    def eval_complex(self, z):
        # The two components are continued jointly through the conjugate
        # pair h+ = i sqrt(q - i qt), h- = -i sqrt(q + i qt), which keeps
        # the product identity 2 * phi * psi = qt intact; independently
        # chosen principal branches of sqrt((S -+ q)/2) would break it
        # once q leaves the right half plane.
        v, lone = self._cvec(z)
        u, w = self._blocks(v)
        q = _csum_sq(u)
        qt = _csum_sq(w)
        h_plus = 1j * np.sqrt(q - 1j * qt)
        h_minus = -1j * np.sqrt(q + 1j * qt)
        if self.plus:
            return _cvalue((h_plus - h_minus) / 2j, lone)
        return _cvalue((h_plus + h_minus) / 2.0, lone)

    def grad_real(self, y) -> np.ndarray:
        u, w, uu, ww, s = self._squares(self._vec(y))
        if self.plus:
            val = np.sqrt((s + uu) / 2.0)
            d_uu = (uu / s + 1.0) / (4.0 * val)
            d_ww = ww / (4.0 * s * val)
        else:
            # derivatives of sqrt((S - uu)/2) written in cancellation-free form
            root = np.sqrt(2.0 * (s + uu))
            d_uu = -ww * np.sqrt(2.0) / (4.0 * s * np.sqrt(s + uu))
            d_ww = root / (4.0 * s)
        return np.concatenate([2.0 * d_uu[..., None] * u, 2.0 * d_ww[..., None] * w],
                              axis=-1)


@dataclass(frozen=True)
class BryantPair(HomogeneousFunction):
    """The packaged pair phi + i psi = i e^{-i alpha} |y|, 0 < alpha < pi/2.

    Restricted to real y the components are phi = sin(alpha)|y| and
    psi = cos(alpha)|y|; ``eval_real`` returns phi.  ``eval_complex``
    returns the full packaged value, so this family intentionally has a
    nonzero imaginary part at real arguments.
    """

    angle: float = np.pi / 4.0

    family = "bryant-pair"

    def __post_init__(self):
        if not 0.0 < self.angle < np.pi / 2.0:
            raise SpecParseError("bryant-pair angle must lie in (0, pi/2)")

    def eval_real(self, y):
        return _value(float(np.sin(self.angle)) * lengths(self._vec(y)))

    def eval_complex(self, z):
        v, lone = self._cvec(z)
        return _cvalue(1j * cmath.exp(-1j * self.angle) * np.sqrt(_csum_sq(v)), lone)

    def grad_real(self, y) -> np.ndarray:
        v = self._vec(y)
        return float(np.sin(self.angle)) * v / lengths(v)[..., None]

    @property
    def phi_component(self) -> ScaledNorm:
        return ScaledNorm(self.dimension, float(np.sin(self.angle)))

    @property
    def psi_component(self) -> ScaledNorm:
        return ScaledNorm(self.dimension, float(np.cos(self.angle)))


@dataclass(frozen=True)
class CombinedNorm(HomogeneousFunction):
    """Formal linear combination sum_i c_i f_i of family members.

    Keeps gradients and complex continuations exact for derived data such
    as phi + psi and phi - psi.
    """

    terms: tuple = ()

    family = "combo"

    def __post_init__(self):
        for _, f in self.terms:
            if f.dimension != self.dimension:
                raise DimensionMismatchError("all terms must share the dimension")

    def eval_real(self, y):
        return _value(sum(c * f.eval_real(y) for c, f in self.terms))

    def eval_complex(self, z):
        v, lone = self._cvec(z)
        return _cvalue(sum(c * f.eval_complex(v) for c, f in self.terms), lone)

    def grad_real(self, y) -> np.ndarray:
        return sum(c * f.grad_real(y) for c, f in self.terms)


def combine(*weighted) -> CombinedNorm:
    """combine((c1, f1), (c2, f2), ...) -> CombinedNorm."""
    dim = weighted[0][1].dimension
    return CombinedNorm(dim, tuple((float(c), f) for c, f in weighted))


# ---------------------------------------------------------------------------
# descriptor mini-language

# number of ':'-separated parameter tokens each family consumes
NORM_ARITY = {
    "zero": 0,
    "euclidean": 0,
    "scaled": 1,
    "randers": 1,
    "dsr-a": 1,
    "dsr-b": 1,
    "bryant": 1,
}


def parse_norm(text: str, dimension: int) -> HomogeneousFunction:
    """Parse a norm descriptor: ``zero``, ``euclidean``, ``scaled:<c>``,
    ``randers:<a1>,...,<an>``, ``dsr-a:<n>,<m>``, ``dsr-b:<n>,<m>``,
    ``bryant:<alpha>``."""
    parts = text.strip().split(":")
    name = parts[0]
    args = parts[1:]
    if name not in NORM_ARITY:
        raise SpecParseError(f"unknown norm family '{name}'")
    if len(args) != NORM_ARITY[name]:
        raise SpecParseError(f"norm '{name}' takes {NORM_ARITY[name]} parameter group(s)")
    try:
        if name == "zero":
            return ZeroNorm(dimension)
        if name == "euclidean":
            return EuclideanNorm(dimension)
        if name == "scaled":
            return ScaledNorm(dimension, float(args[0]))
        if name == "randers":
            a = tuple(float(v) for v in args[0].split(","))
            if len(a) != dimension:
                raise SpecParseError("randers drift length must equal the dimension")
            return RandersNorm(dimension, a)
        if name in ("dsr-a", "dsr-b"):
            nm = [int(v) for v in args[0].split(",")]
            if len(nm) != 2:
                raise SpecParseError("dsr families take two block sizes")
            if nm[0] + nm[1] != dimension:
                raise SpecParseError("dsr block sizes must sum to the dimension")
            return DoubleSqrtNorm(dimension, nm[0], nm[1], plus=(name == "dsr-b"))
        return BryantPair(dimension, float(args[0]))
    except (ValueError, DimensionMismatchError) as exc:
        raise SpecParseError(f"bad parameters for norm '{name}': {exc}") from exc


def format_norm(f: HomogeneousFunction) -> str:
    """Inverse of parse_norm for the enumerated families."""
    if isinstance(f, ZeroNorm):
        return "zero"
    if isinstance(f, ScaledNorm):
        return f"scaled:{f.scale:g}"
    if isinstance(f, EuclideanNorm):
        return "euclidean"
    if isinstance(f, RandersNorm):
        return "randers:" + ",".join(f"{v:g}" for v in f.drift)
    if isinstance(f, DoubleSqrtNorm):
        return f"{f.family}:{f.first_block},{f.second_block}"
    if isinstance(f, BryantPair):
        return f"bryant:{f.angle:g}"
    if isinstance(f, CombinedNorm):
        return "+".join(f"{c:g}*({format_norm(g)})" for c, g in f.terms)
    raise SpecParseError(f"cannot format {type(f).__name__}")


# ---------------------------------------------------------------------------
# verification reports and the Minkowski check


@dataclass
class VerificationReport:
    """Residual statistics of one check over a sample sweep.

    Invariant: ``passed`` is exactly ``max_residual <= tolerance`` and
    ``failures`` is nonempty iff the check failed (capped list).
    """

    check_name: str
    sample_count: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check_name,
            "samples": int(self.sample_count),
            "max_residual": float(self.max_residual),
            "mean_residual": float(self.mean_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "failures": [
                {"x": [float(v) for v in x], "y": [float(v) for v in y], "residual": float(r)}
                for (x, y, r) in self.failures
            ],
        }
        if self.extra:
            out["extra"] = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                            for k, v in self.extra.items()}
        return out


def make_report(check_name, points, residuals, tolerance, extra=None) -> VerificationReport:
    """Assemble a VerificationReport from per-point residuals."""
    residuals = np.asarray(residuals, dtype=float)
    max_res = float(residuals.max()) if residuals.size else 0.0
    mean_res = float(residuals.mean()) if residuals.size else 0.0
    passed = bool(max_res <= tolerance)
    failures = []
    if not passed:
        order = np.argsort(residuals)[::-1]
        for idx in order[:FAILURE_CAP]:
            if residuals[idx] <= tolerance:
                break
            x, y = points[idx]
            failures.append((tuple(float(v) for v in np.atleast_1d(x)),
                             tuple(float(v) for v in np.atleast_1d(y)),
                             float(residuals[idx])))
    return VerificationReport(
        check_name=check_name,
        sample_count=int(residuals.size),
        max_residual=max_res,
        mean_residual=mean_res,
        tolerance=float(tolerance),
        passed=passed,
        failures=failures,
        extra=dict(extra or {}),
    )


def pow2(values):
    """Elementwise ``values ** 2`` through Python's float power.

    libm ``pow`` is not always the correctly rounded ``v * v`` (about one
    square in a thousand differs by an ulp), and one ulp of F^2 divided
    by a squared step reaches the convexity floors; squaring rows this
    way keeps them equal to the per-point path bit for bit.
    """
    values = np.asarray(values, dtype=float)
    return np.array([v ** 2 for v in values.ravel().tolist()]).reshape(values.shape)


def axis_step(v, k, step):
    """Zeros shaped like ``v`` with ``step`` in component k (one step per
    row for rows)."""
    e = np.zeros(v.shape)
    e[..., k] = step
    return e


def hessian_points(v, step) -> list:
    """The points ``fd_hessian`` evaluates, in its order: ``v``, then for
    each i the pair ``v +- e_i`` followed by ``v +- e_i +- e_j`` for j > i
    (e_k is ``step`` along component k)."""
    n = v.shape[-1]
    points = [v]
    for i in range(n):
        ei = axis_step(v, i, step)
        points += [v + ei, v - ei]
        for j in range(i + 1, n):
            ej = axis_step(v, j, step)
            points += [v + ei + ej, v + ei - ej, v - ei + ej, v - ei - ej]
    return points


def hessian_from(values, step, n):
    """The symmetric central-difference Hessian from the values at
    ``hessian_points``: ``(n, n)``, or ``(N, n, n)`` for rows."""
    values = iter(values)
    f0 = next(values)
    step_sq = pow2(step)[()]  # a lone step divides as a scalar, not a 0-d array
    h = np.zeros(np.shape(f0) + (n, n))
    for i in range(n):
        h[..., i, i] = (next(values) - 2.0 * f0 + next(values)) / step_sq
        for j in range(i + 1, n):
            hij = (next(values) - next(values) - next(values) + next(values)) / (4.0 * step_sq)
            h[..., i, j] = hij
            h[..., j, i] = hij
    return h


def fd_hessian(fun, v, step):
    """Symmetric central-difference Hessian of a scalar function.

    ``v`` is one point ``(n,)`` with a scalar ``step``, or rows ``(N, n)``
    with one step per row; ``fun`` maps an array shaped like ``v`` to the
    values at its points (a scalar, or ``(N,)``), one call per stencil
    point, and the result is ``(n, n)`` or ``(N, n, n)``.
    """
    v = np.asarray(v, dtype=float)
    step = np.asarray(step, dtype=float)
    return hessian_from([fun(p) for p in hessian_points(v, step)], step, v.shape[-1])


def check_minkowski(f: HomogeneousFunction, samples: int,
                    eig_floor: float = MINKOWSKI_EIG_FLOOR) -> VerificationReport:
    """Strong-convexity and positivity test of a norm over deterministic
    directions.

    At each unit direction the Hessian of f^2/2 is formed by central
    differences (step eps^(1/3), the standard second-difference
    tradeoff) and its minimum eigenvalue recorded.  The per-direction
    residual is max(-lambda_min, -f), so the report passes iff every
    direction has lambda_min >= eig_floor and f >= eig_floor.  All
    directions go through the norm as one ``(samples, n)`` array.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dirs = unit_directions(f.dimension, samples)
    values = f.eval_real(dirs)
    hess = fd_hessian(lambda yy: 0.5 * pow2(f.eval_real(yy)), dirs,
                      STEP_FIRST * np.maximum(1.0, lengths(dirs)))
    lam = np.linalg.eigvalsh(hess).min(axis=-1)
    zero = np.zeros(f.dimension)
    return make_report("minkowski", [(zero, u) for u in dirs], np.maximum(-lam, -values),
                       tolerance=-eig_floor, extra={"min_eigenvalue": float(lam.min())})
