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

``eval_real``, ``grad_real`` and ``eval_complex`` take one vector ``(n,)``
or rows ``(N, n)`` and act along the last axis: a row gives the same bits
as the same vector passed alone.  One vector yields a float or
complex (value) or an ``(n,)`` array (gradient); rows yield ``(N,)``
values or ``(N, n)`` gradients.  A real row whose squared length is 0,
also when it underflows, is outside the domain of every family but
``zero``.

Complex continuation uses principal square roots throughout (cut on the
negative real axis, the cut itself resolved from above as in IEEE/numpy),
so at a real vector every family's complex value is its real value, up
to rounding.

``parse_norms`` reads descriptors such as ``scaled:0.3`` through one
table, ``NORM_FAMILIES``; ``bryant:<alpha>`` names two norms, Bryant's
origin data psi = cos(alpha)|y| and phi = sin(alpha)|y|.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, DomainError, ProjFlatError,
                     SpecParseError)


def lengths(v: np.ndarray):
    """Euclidean length along the last axis.

    ``np.vecdot`` rounds each row exactly as ``np.linalg.norm`` rounds a
    lone vector, which ``norm(axis=...)``, ``einsum`` and ``sum`` do not.
    """
    return np.sqrt(np.vecdot(v, v))


def scale_exponents(y):
    """Per row, the e that brings the largest |component| of ``y * 2^-e``
    into [1/2, 1), or 0 where it lies in [2^-8, 2^8).  A degree-1 value
    at ``y * 2^-e`` times ``2^e`` (``times_pow2``) is the value at y."""
    _, e = np.frexp(np.abs(y).max(axis=-1, initial=0.0))
    return np.where((e >= -7) & (e <= 8), 0, e)


def times_pow2(values, e):
    """``values * 2^e`` per row, exact; e = 0 keeps the bits."""
    if not e.any():
        return values
    out = np.array(values)
    out.real = np.ldexp(values.real, e)
    if np.iscomplexobj(values):
        out.imag = np.ldexp(values.imag, e)
    return out


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
        """Block squares |u|^2, |w|^2 and S = hypot of the two of ``v * 2^-e``,
        and e (scale_exponents): they over- or underflow at a huge or tiny v."""
        e = scale_exponents(v)
        u, w = self._blocks(np.ldexp(v, -e[..., None]))
        uu = np.vecdot(u, u)
        ww = np.vecdot(w, w)
        return u, w, uu, ww, np.hypot(uu, ww), e

    def eval_real(self, y):
        _, _, uu, ww, s, e = self._squares(self._vec(y))
        twice_square = s + uu  # 2 f^2 of the plus variant
        if not self.plus:
            # s - uu == ww^2 / (s + uu), exact algebra, no cancellation; the sum
            # is 0 only where both blocks underflow, and there f = 0
            twice_square = ww * ww / np.where(twice_square == 0.0, 1.0, twice_square)
        return _value(times_pow2(np.sqrt(twice_square / 2.0), e))

    def eval_complex(self, z):
        # The two components are continued jointly through the conjugate
        # pair h+ = i sqrt(q - i qt), h- = -i sqrt(q + i qt), which keeps
        # the product identity 2 * phi * psi = qt intact; independently
        # chosen principal branches of sqrt((S -+ q)/2) would break it
        # once q leaves the right half plane.  As in eval_real, a row is
        # evaluated at z * 2^-e (e from the moduli) and scaled back by 2^e.
        v, lone = self._cvec(z)
        e = scale_exponents(v)
        u, w = self._blocks(times_pow2(v, -e[..., None]))
        q = _csum_sq(u)
        qt = _csum_sq(w)
        h_plus = 1j * np.sqrt(q - 1j * qt)
        h_minus = -1j * np.sqrt(q + 1j * qt)
        value = (h_plus - h_minus) / 2j if self.plus else (h_plus + h_minus) / 2.0
        return _cvalue(times_pow2(value, e), lone)

    def grad_real(self, y) -> np.ndarray:
        # degree 0: the gradient at the rescaled row is the one at y
        u, w, uu, ww, s, _ = self._squares(self._vec(y))
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
    "scaled": (1, lambda d, c: (ScaledNorm(d, float(c)),)),
    "randers": (1, lambda d, a: (RandersNorm(d, tuple(float(v) for v in a.split(","))),)),
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
