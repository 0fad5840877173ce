"""Closed-form projectively flat metrics of constant flag curvature.

Every entry is an explicit formula, evaluated exactly as written (complex
arithmetic where the formula is complex, imaginary part taken at the
end).  The entries double as oracles for the constructive builders.

name         curvature   formula sketch
-----------  ----------  ---------------------------------------------
space-form   lambda      sqrt(|y|^2 + lam(|x|^2|y|^2 - <x,y>^2)) / (1 + lam|x|^2)
funk         -1/4        (sqrt((1-|x|^2)|y|^2 + <x,y>^2) + <x,y>) / (1-|x|^2)
berwald      0           (sqrt((1-|x|^2)|y|^2 + <x,y>^2) + <x,y>)^2
                         / ((1-|x|^2)^2 sqrt((1-|x|^2)|y|^2 + <x,y>^2))
bryant       +1          Im[ (-<x,y> + i sqrt((e^{2ia}+|x|^2)|y|^2 - <x,y>^2))
                         / (e^{2ia}+|x|^2) ],  0 < a < pi/2
dsr-new      +1          two-block complex quadratic-root formula (see
                         _eval_double_sqrt), the double-square-root example
sph-k0       0           |y|^4 / (z (c<x,y> ± z)^2),
                         z = sqrt((1-c^2|x|^2)|y|^2 + c^2 <x,y>^2)
sph-kneg1    -1          (Phi_{c+1} - Phi_{c-1}) / 2 with the closed root
                         of Phi = a |y + x Phi| for a = c ± 1
sph-kpos1    +1          Im of the quadratic root of Z = (c+i)|y + x Z|
zhou         -1          |y| c1(z1) / (c1(z1)^2 - (z2 + c2(z1))^2)
"""

import cmath
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .construct import MetricEvaluator
from .errors import BranchCutError, DomainError, SpecParseError
from .norms import finite_float

_MARGIN = 1e-12


@dataclass(frozen=True)
class CatalogEntry:
    """One named closed form with its parameters and known curvature."""

    name: str
    dimension: int
    params: MappingProxyType
    known_curvature: float
    domain_radius: float


def catalog_entry(name: str, dimension: int, **params) -> CatalogEntry:
    """Validated entry factory; parameters left out take the defaults of
    the entry's row in ``_TABLE``."""
    if name not in _TABLE:
        raise SpecParseError(f"unknown catalog entry '{name}'")
    row = _TABLE[name]
    unknown = sorted(params.keys() - {key for key, _, _ in row.params})
    if unknown:
        raise SpecParseError(f"catalog entry '{name}' has no parameter {', '.join(unknown)}")
    values = {key: kind(params.get(key, default)) for key, kind, default in row.params}
    curvature, radius = row.check(dimension, *values.values())
    return CatalogEntry(name, dimension, MappingProxyType(values), curvature, radius)


# ---------------------------------------------------------------------------
# parameter checks and formula bodies


def _dots(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    return float(x @ x), float(y @ y), float(x @ y)


def _eval_space_form(lam, x, y):
    xx, yy, xy = _dots(x, y)
    denom = 1.0 + lam * xx
    if denom <= _MARGIN:
        raise DomainError("space form needs 1 + lambda |x|^2 > 0")
    inner = yy + lam * (xx * yy - xy * xy)
    if inner <= 0.0:
        raise DomainError("space form radicand is not positive")
    return math.sqrt(inner) / denom


def _eval_funk(x, y):
    xx, yy, xy = _dots(x, y)
    denom = 1.0 - xx
    if denom <= _MARGIN:
        raise DomainError("funk metric lives on the open unit ball")
    return (math.sqrt(denom * yy + xy * xy) + xy) / denom


def _eval_berwald(x, y):
    xx, yy, xy = _dots(x, y)
    denom = 1.0 - xx
    if denom <= _MARGIN:
        raise DomainError("berwald metric lives on the open unit ball")
    root = math.sqrt(denom * yy + xy * xy)
    return (root + xy) ** 2 / (denom * denom * root)


def _check_bryant(dimension, alpha):
    if not 0.0 < alpha < math.pi / 2.0:
        raise SpecParseError("bryant angle must lie in (0, pi/2)")
    return 1.0, math.inf


def _eval_bryant(alpha, x, y):
    xx, yy, xy = _dots(x, y)
    w = cmath.exp(2j * alpha) + xx
    disc = w * yy - xy * xy
    return ((-xy + 1j * cmath.sqrt(disc)) / w).imag


def _pick_metric_root(num_plus, num_minus, denom):
    """Choose the quadratic root with positive imaginary part."""
    r1 = num_plus / denom
    r2 = num_minus / denom
    pos = [r for r in (r1, r2) if r.imag > 0.0]
    if len(pos) != 1:
        raise BranchCutError("no unique metric branch (positive imaginary part)")
    return pos[0]


def _check_double_sqrt(dimension, n, m):
    if n < 1 or m < 1 or n + m != dimension:
        raise SpecParseError("dsr-new block sizes must be >= 1 and sum to the dimension")
    return 1.0, 0.7


def _eval_double_sqrt(n, m, x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    x1, x2 = x[:n], x[n:]
    y1, y2 = y[:n], y[n:]
    a = 1.0 + float(x1 @ x1) - 1j * float(x2 @ x2)
    b = float(x1 @ y1) - 1j * float(x2 @ y2)
    c = float(y1 @ y1) - 1j * float(y2 @ y2)
    disc = c * a - b * b
    root = cmath.sqrt(disc)
    return _pick_metric_root(-b + 1j * root, -b - 1j * root, a).imag


def _root_scaled(a, x, y):
    """Closed root of Phi = a |y + x Phi| (zero when a == 0)."""
    if a == 0.0:
        return 0.0
    xx, yy, xy = _dots(x, y)
    denom = 1.0 - a * a * xx
    if denom <= _MARGIN:
        raise DomainError("scaled-root denominator vanished")
    rad = a * a * denom * yy + a ** 4 * xy * xy
    return (a * a * xy + math.copysign(1.0, a) * math.sqrt(rad)) / denom


def _check_sph_k0(dimension, c, branch):
    if c == 0.0:
        raise SpecParseError("sph-k0 needs a nonzero constant c")
    if branch not in (-1, 1):
        raise SpecParseError("sph-k0 branch must be +1 or -1")
    return 0.0, 1.0 / abs(c)


def _eval_sph_k0(c, branch, x, y):
    xx, yy, xy = _dots(x, y)
    denom = 1.0 - c * c * xx
    if denom <= _MARGIN:
        raise DomainError("sph-k0 needs |x| < 1/|c|")
    quartic = yy * yy
    if quartic < sys.float_info.min:  # |y|^4 underflows: F has degree 1, so
        e = math.frexp(float(np.abs(y).max()))[1]  # evaluate at y 2^-e, exactly
        return math.ldexp(_eval_sph_k0(c, branch, x, np.ldexp(y, -e)), e)
    z = math.sqrt(denom * yy + c * c * xy * xy)
    base = c * xy + branch * z
    return quartic / (z * base * base)


def _eval_sph_kneg1(c, x, y):
    return 0.5 * (_root_scaled(c + 1.0, x, y) - _root_scaled(c - 1.0, x, y))


def _eval_sph_kpos1(c, x, y):
    xx, yy, xy = _dots(x, y)
    b = complex(c, 1.0)
    b2 = b * b
    denom = 1.0 - b2 * xx
    disc = b2 * (1.0 - b2 * xx) * yy + b2 * b2 * xy * xy
    root = cmath.sqrt(disc)
    return _pick_metric_root(b2 * xy + root, b2 * xy - root, denom).imag


def _check_zhou(dimension, d1, d2, sign):
    if not (d2 > d1 > 0.0):
        raise SpecParseError("zhou needs d2 > d1 > 0")
    if d2 < 2.0 * d1 * d1:
        raise SpecParseError("zhou needs d2 >= 2 d1^2")
    if sign not in (-1, 1):
        raise SpecParseError("zhou sign must be +1 or -1")
    radius_sq = min(2.0 * (d2 - d1), 2.0 * (d2 - 2.0 * d1 * d1))
    return -1.0, math.sqrt(max(radius_sq, 0.0))


def _eval_zhou(d1, d2, sign, x, y):
    xx, yy, xy = _dots(x, y)
    z2 = xy / math.sqrt(yy)
    z1_sq = max(xx - z2 * z2, 0.0)
    u = 2.0 * d2 - z1_sq
    rad = u * u - 16.0 * d1 ** 4
    if rad <= _MARGIN:
        raise DomainError("zhou inner radicand vanished; point outside the ball")
    r = math.sqrt(rad)
    c1 = math.sqrt((u + r) / 2.0)
    c2 = sign * math.sqrt((u - r) / 2.0)
    denom = c1 * c1 - (z2 + c2) ** 2
    if denom <= _MARGIN:
        raise DomainError("zhou denominator vanished")
    return math.sqrt(yy) * c1 / denom


def _sign(value) -> int:
    """A sign parameter: a spec token (+, -, +1, -1, plus, minus) or an int."""
    if not isinstance(value, str):
        return int(value)
    if value in ("+", "+1", "plus"):
        return 1
    if value in ("-", "-1", "minus"):
        return -1
    raise SpecParseError(f"expected '+' or '-', got '{value}'")


@dataclass(frozen=True)
class _Row:
    """One entry, declared once: its parameters, their check and its formula."""

    params: tuple  # (name, conversion, default) per parameter, in spec order
    check: Callable  # check(dimension, *values) -> (known curvature, radius)
    formula: Callable  # formula(*values, x, y) -> F


_TABLE = {
    "space-form": _Row((("lam", finite_float, -1.0),),
                       lambda d, lam: (lam, math.inf if lam >= 0.0 else 1.0 / math.sqrt(-lam)),
                       _eval_space_form),
    "funk": _Row((), lambda d: (-0.25, 1.0), _eval_funk),
    "berwald": _Row((), lambda d: (0.0, 1.0), _eval_berwald),
    "bryant": _Row((("alpha", finite_float, math.pi / 4.0),), _check_bryant, _eval_bryant),
    "dsr-new": _Row((("n", int, 1), ("m", int, 1)), _check_double_sqrt, _eval_double_sqrt),
    "sph-k0": _Row((("c", finite_float, 0.3), ("branch", _sign, -1)), _check_sph_k0, _eval_sph_k0),
    "sph-kneg1": _Row((("c", finite_float, 0.3),), lambda d, c: (-1.0, 1.0 / (1.0 + abs(c))),
                      _eval_sph_kneg1),
    "sph-kpos1": _Row((("c", finite_float, 0.3),), lambda d, c: (1.0, 1.0), _eval_sph_kpos1),
    "zhou": _Row((("d1", finite_float, 0.5), ("d2", finite_float, 1.0), ("sign", _sign, 1)),
                 _check_zhou, _eval_zhou),
}

CATALOG_NAMES = tuple(_TABLE)


def as_evaluator(entry: CatalogEntry) -> MetricEvaluator:
    """Wrap an entry as a MetricEvaluator (numeric projective factor)."""
    formula = _TABLE[entry.name].formula
    args = tuple(entry.params.values())
    return MetricEvaluator(
        kind=f"catalog:{entry.name}", dimension=entry.dimension,
        f_eval=lambda x, y: formula(*args, x, y),
        intended_curvature=entry.known_curvature,
        domain_radius=entry.domain_radius)


def list_catalog(dimension: int = 2) -> list:
    """Every entry at its defaults; dsr-new, with blocks (dimension - 1, 1),
    only from dimension 2 on."""
    return [catalog_entry(name, dimension, n=dimension - 1)
            if name == "dsr-new" else catalog_entry(name, dimension)
            for name in _TABLE if name != "dsr-new" or dimension >= 2]


def parse_catalog(text: str, dimension: int) -> CatalogEntry:
    """Parse ``<name>[:<params>]``: every parameter of the entry, comma-
    separated in the order of its row in ``_TABLE`` (a sign as + or -)."""
    name, _, rest = text.strip().partition(":")
    if name not in _TABLE:
        raise SpecParseError(f"unknown catalog entry '{name}'")
    spec = _TABLE[name].params
    tokens = rest.split(",") if rest else []
    if len(tokens) != len(spec):
        raise SpecParseError(f"catalog entry '{name}' takes {len(spec)} "
                             f"parameter(s), got {len(tokens)}")
    try:
        return catalog_entry(name, dimension,
                             **{key: tok for (key, _, _), tok in zip(spec, tokens)})
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad parameters for catalog entry '{name}': {exc}") from exc
