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
* ``combo``       a formal linear combination of the above (used for
                  phi +/- psi without numeric differentiation)

``eval_real``, ``grad_real`` and ``eval_complex`` take rows ``(N, n)`` and
yield ``(N,)`` values or ``(N, n)`` gradients.  They act along the last
axis, so they also take the single vector ``(n,)`` that origin data is
(psi(y) = F(0, y)), and yield a float or complex value or an ``(n,)``
gradient; it gets the bits of the same vector as a row among others.

Complex continuation uses principal square roots throughout (cut on the
negative real axis, the cut itself resolved from above as in IEEE/numpy),
so at a real vector every family's complex value is its real value, up
to rounding.

Every norm is a value: it stores a sequence parameter as a tuple when
built, so it compares and hashes by its class and parameters (all but a
combination with per-row coefficients).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SpecParseError


def lengths(v: np.ndarray):
    """Euclidean length along the last axis.

    ``np.vecdot`` rounds each row exactly as ``np.linalg.norm`` rounds a
    single vector, which ``norm(axis=...)``, ``einsum`` and ``sum`` do not.
    """
    return np.sqrt(np.vecdot(v, v))


def as_rows(dimension: int, x, y):
    """``x`` and ``y`` as float arrays, if both are rows ``(N, dimension)``
    of one shape; a DimensionMismatchError otherwise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or x.shape != y.shape or y.shape[1] != dimension:
        raise DimensionMismatchError(
            f"x and y must be rows (N, {dimension}) of one shape; "
            f"got {x.shape} and {y.shape}")
    return x, y


def scale_exponents(y):
    """Per row, the e that brings the largest |component| of ``y * 2^-e``
    into [1/2, 1), or 0 where it lies in [2^-8, 2^8).  A degree-1 value
    at ``y * 2^-e`` times ``2^e`` (``times_pow2``) is the value at y."""
    top = np.abs(y).max(axis=-1, initial=0.0)
    inside = (top >= 2.0**-8) & (top < 2.0**8)  # frexp's e in [-7, 8]
    if np.count_nonzero(inside) == inside.size:  # every row in range
        return np.zeros(inside.shape, dtype=np.intc)
    return np.where(inside, 0, np.frexp(top)[1])  # 0, inf and nan take e = 0 too


def times_pow2(values, e):
    """``values * 2^e`` per row, exact; e = 0 keeps the bits."""
    if not np.count_nonzero(e):
        return values
    out = np.array(values)
    out.real = np.ldexp(values.real, e)
    if np.iscomplexobj(values):
        out.imag = np.ldexp(values.imag, e)
    return out


@dataclass(frozen=True)
class HomogeneousFunction:
    """Base class: a positively homogeneous function of degree one on R^n.

    A family implements three row kernels, ``_real(v)``, ``_grad(v)`` and
    ``_complex(v)``: the value, the gradient and the complex value on 2-D
    rows ``(N, n)``.  A kernel takes rows that are finite and in range (no
    square underflows or overflows, as for a row whose largest component
    lies in [2^-8, 2^8)), nonzero for ``_grad``; it checks nothing and
    raises no library error, and ``_real``, ``_complex`` and the pair
    kernels give 0 at the zero row.  The public methods check their input
    and evaluate each row at ``y * 2^-e``, scaling a value back by ``2^e``:
    a power-of-two rescale is exact, so squares that would underflow or
    overflow cost no accuracy, and every family commutes with power-of-two
    scaling bit for bit.
    """

    dimension: int

    family = "abstract"
    zero_ok = False  # whether the real domain holds y = 0

    def _real(self, v):
        raise NotImplementedError

    def _grad(self, v):
        raise NotImplementedError

    def _complex(self, v):
        raise NotImplementedError

    def _complex_pair(self, other, v):
        """self(v) + i other(v) on complex rows, with the bits of the two
        kernels; a family that shares work between the two overrides it."""
        return self._complex(v) + 1j * other._complex(v)

    def eval_real(self, y):
        """f(y): a float for one vector, an array of values for rows."""
        return _unwrap(self._in_range(self._real, self._vec(y), scale_back=True))

    def grad_real(self, y) -> np.ndarray:
        """The gradient of f at y, shaped like y."""
        return self._in_range(self._grad, self._vec(y), scale_back=False)

    def eval_complex(self, z):
        """The principal continuation of f at z: a complex for one vector,
        an array of values for rows."""
        return _unwrap(self._in_range(self._complex, self._cvec(z), scale_back=True))

    # -- shared input handling -------------------------------------------

    def _in_range(self, kernel, v, scale_back):
        """``kernel`` on ``v`` as rows, each row at ``v * 2^-e``
        (``scale_exponents``); a value (degree 1) is scaled back by 2^e, a
        gradient (degree 0) needs no scale-back.

        A single vector is computed as a single row, so it gets the bits the
        same row gets among others: numpy's complex products can differ
        from its scalar products in the last ulp.
        """
        rows = v.reshape(-1, self.dimension)
        e = scale_exponents(rows)
        out = kernel(times_pow2(rows, -e[:, None]))
        if scale_back:
            out = times_pow2(out, e)
        return out.reshape(v.shape[:-1] + out.shape[1:])

    def _checked(self, v):
        """``v`` if it has ``dimension`` components along the last axis, all finite."""
        if v.shape[-1:] != (self.dimension,):
            got = v.shape[-1] if v.ndim else v.size
            raise DimensionMismatchError(
                f"expected {self.dimension} components, got {got}")
        if not np.isfinite(v).all():
            raise DomainError("non-finite vector")
        return v

    def _vec(self, y) -> np.ndarray:
        """``y`` as floats, checked along the last axis: ``dimension``
        components, all finite, and (unless ``zero_ok``) no zero row."""
        v = self._checked(np.asarray(y, dtype=float))
        if not self.zero_ok:
            # a squared length of 0 is the zero row, also when it underflows;
            # one that overflows is not, and the rescale evaluates it
            with np.errstate(over="ignore"):
                if (np.vecdot(v, v) == 0.0).any():
                    raise DomainError("y = 0 is outside the domain of this family")
        return v

    def _cvec(self, z):
        """``z`` as complex numbers, ``dimension`` components along the
        last axis, all finite."""
        return self._checked(np.asarray(z, dtype=complex))


def _unwrap(out):
    """A single vector's value as a Python float or complex; rows stay an array."""
    return out.item() if out.ndim == 0 else out


def _csum_sq(v: np.ndarray):
    """sum(z_k^2) along the last axis (no conjugation, unlike vecdot)."""
    return np.add.reduce(v * v, axis=-1)  # np.sum's reduction, without its wrapper


class ZeroNorm(HomogeneousFunction):
    """The zero function; the drift-free origin datum."""

    family = "zero"
    zero_ok = True

    def _real(self, v):
        return np.zeros(len(v))

    def _grad(self, v):
        return np.zeros(v.shape)

    def _complex(self, v):
        return np.zeros(len(v), dtype=complex)


class LengthNorm(HomogeneousFunction):
    """Base class of the families built on |y|: the value and gradient
    are functions of v and its length |v|, and the continuation one of v
    and the principal root r = sqrt(sum z_k^2).

    A family gives ``_on_length(v, |v|)``, ``_grad_on_length(v, |v|)``
    (|v| as a column) and ``_on_root(v, r)``; its ``_real``, ``_grad`` and
    ``_complex`` are those at the length or root of v, and a combination
    or pair of such families computes the length or root once.
    """

    def _on_length(self, v, length):
        raise NotImplementedError

    def _grad_on_length(self, v, length):
        raise NotImplementedError

    def _on_root(self, v, root):
        raise NotImplementedError

    def _real(self, v):
        return self._on_length(v, lengths(v))

    def _grad(self, v):
        return self._grad_on_length(v, lengths(v)[:, None])

    def _complex(self, v):
        return self._on_root(v, np.sqrt(_csum_sq(v)))

    def _complex_pair(self, other, v):
        if not isinstance(other, LengthNorm):
            return super()._complex_pair(other, v)
        root = np.sqrt(_csum_sq(v))
        return self._on_root(v, root) + 1j * other._on_root(v, root)


class EuclideanNorm(LengthNorm):
    """f(y) = |y|, continued as the principal sqrt of sum(z_k^2)."""

    family = "euclidean"

    def _on_length(self, v, length):
        return length

    def _grad_on_length(self, v, length):
        return v / length

    def _on_root(self, v, root):
        return root


@dataclass(frozen=True)
class ScaledNorm(LengthNorm):
    """f(y) = c |y| for a real constant c (c may be negative or zero)."""

    scale: float = 1.0

    family = "scaled"

    def _on_length(self, v, length):
        return self.scale * length

    def _grad_on_length(self, v, length):
        return self.scale * v / length

    def _on_root(self, v, root):
        return self.scale * root


@dataclass(frozen=True)
class RandersNorm(LengthNorm):
    """f(y) = |y| + <a, y>; a Minkowski norm iff |a| < 1."""

    drift: tuple = ()

    family = "randers"

    def __post_init__(self):
        drift = tuple(map(float, self.drift))
        if len(drift) != self.dimension:
            raise DimensionMismatchError("drift vector length must equal dimension")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "_drift", np.array(drift))

    def _on_length(self, v, length):
        return length + np.vecdot(v, self._drift)

    def _grad_on_length(self, v, length):
        return v / length + self._drift

    def _on_root(self, v, root):
        return root + np.add.reduce(v * self._drift, axis=-1)


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
        return v[:, : self.first_block], v[:, self.first_block:]

    def _squares(self, v):
        """The blocks u, w of ``v``, |u|^2, |w|^2 and S, their hypot."""
        u, w = self._blocks(v)
        uu = np.vecdot(u, u)
        ww = np.vecdot(w, w)
        return u, w, uu, ww, np.hypot(uu, ww)

    def _real(self, v):
        _, _, uu, ww, s = self._squares(v)
        twice_square = s + uu  # 2 f^2 of the plus variant
        if not self.plus:
            # s - uu == ww^2 / (s + uu), exact algebra, no cancellation; the sum
            # is 0 only where both blocks underflow, and there f = 0
            twice_square = ww * ww / np.where(twice_square == 0.0, 1.0, twice_square)
        return np.sqrt(twice_square / 2.0)

    def _roots(self, v):
        # The two components are continued jointly through the conjugate
        # pair h+ = i sqrt(q - i qt), h- = -i sqrt(q + i qt), which keeps
        # the product identity 2 * phi * psi = qt intact; independently
        # chosen principal branches of sqrt((S -+ q)/2) would break it
        # once q leaves the right half plane.
        u, w = self._blocks(v)
        q = _csum_sq(u)
        iqt = 1j * _csum_sq(w)
        return 1j * np.sqrt(q - iqt), -1j * np.sqrt(q + iqt)

    def _on_roots(self, h_plus, h_minus):
        return (h_plus - h_minus) / 2j if self.plus else (h_plus + h_minus) / 2.0

    def _complex(self, v):
        return self._on_roots(*self._roots(v))

    def _complex_pair(self, other, v):
        if not (isinstance(other, DoubleSqrtNorm) and other.first_block == self.first_block
                and other.second_block == self.second_block):
            return super()._complex_pair(other, v)
        roots = self._roots(v)
        return self._on_roots(*roots) + 1j * other._on_roots(*roots)

    def _grad(self, v):
        u, w, uu, ww, s = self._squares(v)
        if self.plus:
            val = np.sqrt((s + uu) / 2.0)
            d_uu = (uu / s + 1.0) / (4.0 * val)
            d_ww = ww / (4.0 * s * val)
        else:
            # derivatives of sqrt((S - uu)/2) written in cancellation-free form
            root = np.sqrt(2.0 * (s + uu))
            d_uu = -ww * np.sqrt(2.0) / (4.0 * s * np.sqrt(s + uu))
            d_ww = root / (4.0 * s)
        return np.concatenate([2.0 * d_uu[:, None] * u, 2.0 * d_ww[:, None] * w], axis=-1)


@dataclass(frozen=True)
class CombinedNorm(HomogeneousFunction):
    """Formal linear combination sum_i c_i f_i of family members.

    Keeps gradients and complex continuations exact for derived data such
    as phi + psi and phi - psi.  A coefficient is a scalar, or a per-row
    column ``(N,)`` that weights row k by c_i[k]: such a combination is a
    different function on each row, takes exactly N rows (the pair
    phi +/- psi, solved on two copies of the rows) and does not hash.
    """

    terms: tuple = ()

    family = "combo"

    def __post_init__(self):
        terms = tuple((c, f) for c, f in self.terms)
        for _, f in terms:
            if f.dimension != self.dimension:
                raise DimensionMismatchError("all terms must share the dimension")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "zero_ok", all(f.zero_ok for _, f in terms))
        # gradient weights: a column (N, 1) weights its own row, a scalar (1,) every row
        object.__setattr__(self, "_columns", tuple((np.asarray(c)[..., None], f) for c, f in terms))
        # terms that are all LengthNorms share one |v| per evaluation
        object.__setattr__(self, "_on_lengths", all(isinstance(f, LengthNorm) for _, f in terms))

    # each sum starts from 0, as ``sum`` does, so a -0.0 sum reads +0.0
    def _real(self, v):
        total = 0
        if self._on_lengths:
            length = lengths(v)
            for c, f in self.terms:
                total = total + c * f._on_length(v, length)
            return total
        for c, f in self.terms:
            total = total + c * f._real(v)
        return total

    def _grad(self, v):
        total = 0
        if self._on_lengths:
            length = lengths(v)[:, None]
            for c, f in self._columns:
                total = total + c * f._grad_on_length(v, length)
            return total
        for c, f in self._columns:
            total = total + c * f._grad(v)
        return total

    def _complex(self, v):
        total = 0
        for c, f in self.terms:
            total = total + c * f._complex(v)
        return total


def combine(*weighted) -> CombinedNorm:
    """combine((c1, f1), (c2, f2), ...) -> CombinedNorm."""
    dim = weighted[0][1].dimension
    return CombinedNorm(dim, tuple((float(c), f) for c, f in weighted))


# ---------------------------------------------------------------------------
# descriptor mini-language


def finite_float(text) -> float:
    """A real parameter: a number that is neither nan nor infinite."""
    value = float(text)
    if not np.isfinite(value):
        raise SpecParseError(f"expected a finite number, got '{text}'")
    return value


def _block_sizes(text):
    sizes = tuple(int(v) for v in text.split(","))
    if len(sizes) != 2:
        raise SpecParseError("dsr families take two block sizes")
    return sizes


def _bryant(dimension, angle):
    """Bryant's origin data, psi = cos(alpha)|y| and phi = sin(alpha)|y|."""
    alpha = float(angle)
    if not 0.0 < alpha < np.pi / 2.0:
        raise SpecParseError("bryant angle must lie in (0, pi/2)")
    return (ScaledNorm(dimension, float(np.cos(alpha))),
            ScaledNorm(dimension, float(np.sin(alpha))))


# family -> (number of ':'-separated parameter groups, builder of the
# norms the descriptor names from the dimension and those groups)
NORM_FAMILIES = {
    "zero": (0, lambda d: (ZeroNorm(d),)),
    "euclidean": (0, lambda d: (EuclideanNorm(d),)),
    "scaled": (1, lambda d, c: (ScaledNorm(d, finite_float(c)),)),
    "randers": (1, lambda d, a: (RandersNorm(d, tuple(map(finite_float, a.split(",")))),)),
    "dsr-a": (1, lambda d, nm: (DoubleSqrtNorm(d, *_block_sizes(nm), plus=False),)),
    "dsr-b": (1, lambda d, nm: (DoubleSqrtNorm(d, *_block_sizes(nm), plus=True),)),
    "bryant": (1, _bryant),
}


def parse_norms(text: str, dimension: int) -> tuple:
    """The norms named by ``text``, a ':'-separated run of descriptors.

    Descriptors: ``zero``, ``euclidean``, ``scaled:<c>``,
    ``randers:<a1>,...,<an>``, ``dsr-a:<n>,<m>``, ``dsr-b:<n>,<m>`` and
    ``bryant:<alpha>``, which names two norms: cos(alpha)|y|, then
    sin(alpha)|y|.
    """
    tokens = text.split(":") if text else []
    norms = []
    while tokens:
        name = tokens.pop(0)
        if name not in NORM_FAMILIES:
            raise SpecParseError(f"unknown norm family '{name}'")
        arity, build = NORM_FAMILIES[name]
        if len(tokens) < arity:
            raise SpecParseError(f"norm '{name}' is missing parameters")
        args, tokens = tokens[:arity], tokens[arity:]
        try:
            norms += build(dimension, *args)
        except ValueError as exc:  # also the families' own dimension checks
            raise SpecParseError(f"bad parameters for norm '{name}': {exc}") from exc
    return tuple(norms)
