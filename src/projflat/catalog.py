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
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .construct import MetricEvaluator
from .errors import BranchCutError, DomainError, SpecParseError

_MARGIN = 1e-12

CATALOG_NAMES = ("space-form", "funk", "berwald", "bryant", "dsr-new",
                 "sph-k0", "sph-kneg1", "sph-kpos1", "zhou")


@dataclass(frozen=True)
class CatalogEntry:
    """One named closed form with its parameters and known curvature."""

    name: str
    dimension: int
    params: MappingProxyType
    known_curvature: float
    domain_radius: float


def catalog_entry(name: str, dimension: int, **params) -> CatalogEntry:
    """Validated entry factory; see module docstring for the name list."""
    if name == "space-form":
        lam = float(params.get("lam", -1.0))
        radius = math.inf if lam >= 0.0 else 1.0 / math.sqrt(-lam)
        return CatalogEntry(name, dimension, MappingProxyType({"lam": lam}), lam, radius)
    if name == "funk":
        return CatalogEntry(name, dimension, MappingProxyType({}), -0.25, 1.0)
    if name == "berwald":
        return CatalogEntry(name, dimension, MappingProxyType({}), 0.0, 1.0)
    if name == "bryant":
        alpha = float(params.get("alpha", math.pi / 4.0))
        if not 0.0 < alpha < math.pi / 2.0:
            raise SpecParseError("bryant angle must lie in (0, pi/2)")
        return CatalogEntry(name, dimension, MappingProxyType({"alpha": alpha}), 1.0, math.inf)
    if name == "dsr-new":
        n = int(params.get("n", 1))
        m = int(params.get("m", 1))
        if n < 1 or m < 1 or n + m != dimension:
            raise SpecParseError("dsr-new block sizes must be >= 1 and sum to the dimension")
        return CatalogEntry(name, dimension, MappingProxyType({"n": n, "m": m}), 1.0, 0.7)
    if name == "sph-k0":
        c = float(params.get("c", 0.3))
        branch = int(params.get("branch", -1))
        if c == 0.0:
            raise SpecParseError("sph-k0 needs a nonzero constant c")
        if branch not in (-1, 1):
            raise SpecParseError("sph-k0 branch must be +1 or -1")
        return CatalogEntry(name, dimension,
                            MappingProxyType({"c": c, "branch": branch}), 0.0,
                            1.0 / abs(c))
    if name == "sph-kneg1":
        c = float(params.get("c", 0.3))
        return CatalogEntry(name, dimension, MappingProxyType({"c": c}), -1.0,
                            1.0 / (1.0 + abs(c)))
    if name == "sph-kpos1":
        c = float(params.get("c", 0.3))
        return CatalogEntry(name, dimension, MappingProxyType({"c": c}), 1.0, 1.0)
    if name == "zhou":
        d1 = float(params.get("d1", 0.5))
        d2 = float(params.get("d2", 1.0))
        sign = int(params.get("sign", 1))
        if not (d2 > d1 > 0.0):
            raise SpecParseError("zhou needs d2 > d1 > 0")
        if d2 < 2.0 * d1 * d1:
            raise SpecParseError("zhou needs d2 >= 2 d1^2")
        if sign not in (-1, 1):
            raise SpecParseError("zhou sign must be +1 or -1")
        radius_sq = min(2.0 * (d2 - d1), 2.0 * (d2 - 2.0 * d1 * d1))
        return CatalogEntry(name, dimension,
                            MappingProxyType({"d1": d1, "d2": d2, "sign": sign}), -1.0,
                            math.sqrt(max(radius_sq, 0.0)))
    raise SpecParseError(f"unknown catalog entry '{name}'")


# ---------------------------------------------------------------------------
# formula bodies


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


def _eval_sph_k0(c, branch, x, y):
    xx, yy, xy = _dots(x, y)
    denom = 1.0 - c * c * xx
    if denom <= _MARGIN:
        raise DomainError("sph-k0 needs |x| < 1/|c|")
    z = math.sqrt(denom * yy + c * c * xy * xy)
    base = c * xy + branch * z
    return yy * yy / (z * base * base)


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


def _zhou_pieces(d1, d2, sign, x, y):
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
    return z2, c1, c2


def _eval_zhou(d1, d2, sign, x, y):
    _, yy, _ = _dots(x, y)
    z2, c1, c2 = _zhou_pieces(d1, d2, sign, x, y)
    denom = c1 * c1 - (z2 + c2) ** 2
    if denom <= _MARGIN:
        raise DomainError("zhou denominator vanished")
    return math.sqrt(yy) * c1 / denom


_BODIES = {
    "space-form": lambda e, x, y: _eval_space_form(e.params["lam"], x, y),
    "funk": lambda e, x, y: _eval_funk(x, y),
    "berwald": lambda e, x, y: _eval_berwald(x, y),
    "bryant": lambda e, x, y: _eval_bryant(e.params["alpha"], x, y),
    "dsr-new": lambda e, x, y: _eval_double_sqrt(e.params["n"], e.params["m"], x, y),
    "sph-k0": lambda e, x, y: _eval_sph_k0(e.params["c"], e.params["branch"], x, y),
    "sph-kneg1": lambda e, x, y: _eval_sph_kneg1(e.params["c"], x, y),
    "sph-kpos1": lambda e, x, y: _eval_sph_kpos1(e.params["c"], x, y),
    "zhou": lambda e, x, y: _eval_zhou(e.params["d1"], e.params["d2"],
                                       e.params["sign"], x, y),
}


def eval_catalog(entry: CatalogEntry, x, y) -> float:
    """Evaluate the entry's printed formula at (x, y), with the
    evaluator's dimension, y != 0 and validity-radius guards."""
    return as_evaluator(entry).eval(x, y)


def as_evaluator(entry: CatalogEntry) -> MetricEvaluator:
    """Wrap an entry as a MetricEvaluator (numeric projective factor)."""
    return MetricEvaluator(
        kind=f"catalog:{entry.name}", dimension=entry.dimension,
        f_eval=lambda x, y: _BODIES[entry.name](entry, x, y),
        intended_curvature=entry.known_curvature,
        domain_radius=entry.domain_radius)


def list_catalog(dimension: int = 2) -> list:
    """The entries with representative parameters; dsr-new needs dimension >= 2."""
    two_blocks = [catalog_entry("dsr-new", dimension, n=dimension - 1, m=1)
                  ] if dimension >= 2 else []
    return [
        catalog_entry("space-form", dimension, lam=-1.0),
        catalog_entry("funk", dimension),
        catalog_entry("berwald", dimension),
        catalog_entry("bryant", dimension, alpha=math.pi / 4.0),
        *two_blocks,
        catalog_entry("sph-k0", dimension, c=0.3, branch=-1),
        catalog_entry("sph-kneg1", dimension, c=0.3),
        catalog_entry("sph-kpos1", dimension, c=0.3),
        catalog_entry("zhou", dimension, d1=0.5, d2=1.0, sign=1),
    ]


def parse_catalog(text: str, dimension: int) -> CatalogEntry:
    """Parse ``<name>[:<params>]`` using the per-entry parameter syntax:
    space-form:<lam>, funk, berwald, bryant:<alpha>, dsr-new:<n>,<m>,
    sph-k0:<c>,<branch(+|-)>, sph-kneg1:<c>, sph-kpos1:<c>,
    zhou:<d1>,<d2>,<sign(+|-)>."""
    name, _, rest = text.strip().partition(":")
    if name not in CATALOG_NAMES:
        raise SpecParseError(f"unknown catalog entry '{name}'")
    args = rest.split(",") if rest else []

    def _sign(token):
        if token in ("+", "+1", "plus"):
            return 1
        if token in ("-", "-1", "minus"):
            return -1
        raise SpecParseError(f"expected '+' or '-', got '{token}'")

    try:
        if name in ("funk", "berwald"):
            if args:
                raise SpecParseError(f"'{name}' takes no parameters")
            return catalog_entry(name, dimension)
        if name == "space-form":
            (lam,) = args
            return catalog_entry(name, dimension, lam=float(lam))
        if name == "bryant":
            (alpha,) = args
            return catalog_entry(name, dimension, alpha=float(alpha))
        if name == "dsr-new":
            n, m = args
            return catalog_entry(name, dimension, n=int(n), m=int(m))
        if name == "sph-k0":
            c, branch = args
            return catalog_entry(name, dimension, c=float(c), branch=_sign(branch))
        if name in ("sph-kneg1", "sph-kpos1"):
            (c,) = args
            return catalog_entry(name, dimension, c=float(c))
        d1, d2, sign = args
        return catalog_entry(name, dimension, d1=float(d1), d2=float(d2),
                             sign=_sign(sign))
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad parameters for catalog entry '{name}': {exc}") from exc
