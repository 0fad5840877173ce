"""Reference values used as independent oracles in tests.

The closed forms are written directly from the printed formulas with
numpy arithmetic, separate from the package's catalog implementations, so
the constructive solvers and the catalog transcriptions are both checked
against a second route.  ``solve_complex_nested`` is a second route to
the complex fixed point, built from the public norm interface only.  The
``*_loop`` functions are the one-direction-at-a-time references for the
batched radius estimates and Minkowski probe.
"""

import numpy as np

from projflat import SolveResult, SolverConfig, SolverError
from projflat.sampling import unit_directions
from projflat.norms import MINKOWSKI_EIG_FLOOR, STEP_FIRST, make_report


def _d(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x @ x), float(y @ y), float(x @ y)


def space_form(lam, x, y):
    xx, yy, xy = _d(x, y)
    return np.sqrt(yy + lam * (xx * yy - xy**2)) / (1.0 + lam * xx)


def funk(x, y):
    xx, yy, xy = _d(x, y)
    return (np.sqrt((1.0 - xx) * yy + xy**2) + xy) / (1.0 - xx)


def berwald(x, y):
    xx, yy, xy = _d(x, y)
    z = np.sqrt((1.0 - xx) * yy + xy**2)
    return (z + xy) ** 2 / ((1.0 - xx) ** 2 * z)


def bryant_complex(alpha, x, y):
    xx, yy, xy = _d(x, y)
    w = np.exp(2j * alpha) + xx
    return float(((-xy + 1j * np.sqrt(w * yy - xy**2 + 0j)) / w).imag)


def bryant_abcd(alpha, x, y):
    xx, yy, xy = _d(x, y)
    b = yy * np.cos(2 * alpha) + xx * yy - xy**2
    a = b**2 + (yy * np.sin(2 * alpha)) ** 2
    c = xy * np.sin(2 * alpha)
    d = xx**2 + 2 * xx * np.cos(2 * alpha) + 1.0
    return float(np.sqrt((np.sqrt(a) + b) / (2 * d) + (c / d) ** 2) + c / d)


def double_sqrt_metric(n, x, y):
    """Two-block double-square-root closed form (first block size n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x1, x2 = x[:n], x[n:]
    y1, y2 = y[:n], y[n:]
    a = 1.0 + x1 @ x1 - 1j * (x2 @ x2)
    b = x1 @ y1 - 1j * (x2 @ y2)
    c = y1 @ y1 - 1j * (y2 @ y2)
    return float(((-b + 1j * np.sqrt(c * a - b * b)) / a).imag)


def root_scaled(a, x, y):
    """The closed root of t = a |y + x t|."""
    if a == 0.0:
        return 0.0
    xx, yy, xy = _d(x, y)
    denom = 1.0 - a * a * xx
    rad = a * a * (1.0 - a * a * xx) * yy + a**4 * xy**2
    return (a * a * xy + np.sign(a) * np.sqrt(rad)) / denom


def sph_k0(c, branch, x, y):
    xx, yy, xy = _d(x, y)
    z = np.sqrt((1.0 - c * c * xx) * yy + c * c * xy**2)
    return yy**2 / (z * (c * xy + branch * z) ** 2)


def sph_kneg1(c, x, y):
    return 0.5 * (root_scaled(c + 1.0, x, y) - root_scaled(c - 1.0, x, y))


def sph_kpos1(c, x, y):
    xx, yy, xy = _d(x, y)
    b2 = complex(c, 1.0) ** 2
    denom = 1.0 - b2 * xx
    root = np.sqrt(b2 * (1.0 - b2 * xx) * yy + b2 * b2 * xy**2)
    vals = [(b2 * xy + s * root) / denom for s in (1.0, -1.0)]
    vals = [v for v in vals if v.imag > 0.0]
    assert len(vals) == 1
    return float(vals[0].imag)


def kneg1_unit_pair_display(x, y):
    """Two-term closed form for the psi = phi = |y| curvature -1 metric
    (half of Phi_+ with Phi_+ = 2 |y + x Phi_+|)."""
    xx, yy, xy = _d(x, y)
    return (2.0 * xy + np.sqrt((1.0 - 4.0 * xx) * yy + 4.0 * xy**2)) / (1.0 - 4.0 * xx)


def zhou_two_term(d1, d2, sign, x, y):
    xx, yy, xy = _d(x, y)
    total = 0.0
    for s, ns in ((sign, -1.0), (-sign, 1.0)):
        a = 2.0 * d2 + s * 4.0 * d1**2 - xx
        total += (np.sqrt(a * yy + xy**2) + ns * xy) / a
    return 0.5 * total


def solve_complex_nested(phi, psi, x, y, cfg=None):
    """Independent route to the complex fixed point Z = (phi + i psi)(y + x Z):
    for each imaginary part s, solve the real part t(s) as a scalar root by
    bisection, then close s with an outer scalar root.  Cross-checks the
    damped Picard iteration of ``projflat.solve_complex``."""
    cfg = cfg or SolverConfig()
    floor = 4.0 * float(np.finfo(float).eps)
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)

    def pair(w):
        if not w.any():
            return 0j
        return complex(phi.eval_complex(w) + 1j * psi.eval_complex(w))

    def g(t, s):
        return pair(y + x * (t + 1j * s))

    def bracket(fn, center, what):
        width = max(1.0, abs(center))
        lo, hi = center - width, center + width
        rounds = 0
        while fn(lo) > 0.0 or fn(hi) < 0.0:
            rounds += 1
            if rounds > 80:
                raise SolverError(f"{what} bracket expansion failed")
            width *= cfg.bracket_expansion
            lo, hi = center - width, center + width
        return lo, hi

    def bisect(fn, lo, hi):
        iterations = 0
        for _ in range(90):
            iterations += 1
            mid = 0.5 * (lo + hi)
            if fn(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= floor * (1.0 + abs(mid)):
                break
        return 0.5 * (lo + hi), iterations

    z0 = pair(y)

    def t_of(s):
        def f(t):
            return t - g(t, s).real
        return bisect(f, *bracket(f, z0.real, "inner"))[0]

    def h(s):
        return s - g(t_of(s), s).imag

    s, iterations = bisect(h, *bracket(h, z0.imag, "outer"))
    t = t_of(s)
    z = complex(t, s)
    residual = abs(z - g(t, s))
    if residual > cfg.tolerance * 10.0:
        raise SolverError(f"nested solve residual {residual:.3e} above tolerance")
    return SolveResult(value=z, eta=y + x * z, residual=float(residual),
                       iterations=iterations, converged=True)


def fd_hessian_loop(fun, v, step):
    """Central-difference Hessian of a scalar function at one point."""
    v = np.asarray(v, dtype=float)
    n = v.size
    h = np.zeros((n, n))
    f0 = fun(v)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        h[i, i] = (fun(v + ei) - 2.0 * f0 + fun(v - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            hij = (fun(v + ei + ej) - fun(v + ei - ej)
                   - fun(v - ei + ej) + fun(v - ei - ej)) / (4.0 * step**2)
            h[i, j] = hij
            h[j, i] = hij
    return h


def radius_estimate_loop(phi, samples=256):
    """1 / (2 max |grad phi(u)|) with one scalar gradient call per direction."""
    worst = 0.0
    for u in unit_directions(phi.dimension, samples):
        worst = max(worst, float(np.linalg.norm(phi.grad_real(u))))
    return np.inf if worst == 0.0 else 1.0 / (2.0 * worst)


def pair_radius_estimate_loop(phi, psi, samples=256):
    """The pair radius with scalar gradient calls per direction."""
    worst = 0.0
    for u in unit_directions(phi.dimension, samples):
        worst = max(worst, float(np.hypot(np.linalg.norm(phi.grad_real(u)),
                                          np.linalg.norm(psi.grad_real(u)))))
    return np.inf if worst == 0.0 else 1.0 / (2.0 * worst)


def check_minkowski_loop(f, samples, eig_floor=MINKOWSKI_EIG_FLOOR):
    """Minkowski probe with one scalar Hessian per direction."""
    zero = np.zeros(f.dimension)
    residuals, points, min_eig = [], [], np.inf
    for u in unit_directions(f.dimension, samples):
        val = f.eval_real(u)
        hess = fd_hessian_loop(lambda yy: 0.5 * f.eval_real(yy) ** 2, u,
                          STEP_FIRST * max(1.0, float(np.linalg.norm(u))))
        lam = float(np.linalg.eigvalsh(hess).min())
        min_eig = min(min_eig, lam)
        residuals.append(max(-lam, -val))
        points.append((zero, u))
    return make_report("minkowski", points, residuals, tolerance=-eig_floor,
                       extra={"min_eigenvalue": min_eig})
