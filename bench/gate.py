"""Output gate: every CLI response is checked outside the timed phase.

``problems(req, code, stdout)`` returns a list of human-readable misses;
an empty list means the response is correct.  Closed forms are evaluated
here with numpy, independently of projflat's own catalog code.
"""

import csv
import json
import math

import numpy as np

from workloads import CHECKS, COMPARE_SAMPLES, SWEEP_CURVATURE

COMPARE_BOUND = 1e-8      # acceptance criterion 5
CLOSED_FORM_BOUND = 1e-8  # sample / eval rows against the closed form
CURVATURE_BOUND = 1e-4    # the CLI's default curvature tolerance
INNER_SHARE = 0.9         # grid rows with |x| <= 0.9 r must evaluate


def _dots(X, Y):
    return (np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", Y, Y),
            np.einsum("ij,ij->i", X, Y))


def _randers_k0(a):
    """K = 0 from psi = |y|, phi = |y| + <a, y>.

    P solves P(1 - <a,x>) - <a,y> = |y + x P|; squaring gives a quadratic
    whose larger root is the fixed point (it reduces to phi(y) at x = 0).
    F = psi(eta) / (1 - <grad phi(eta), x>) with eta = y + x P.
    """
    a = np.asarray(a, dtype=float)

    def f(X, Y):
        xx, yy, xy = _dots(X, Y)
        beta, gamma = Y @ a, X @ a
        qa = (1.0 - gamma) ** 2 - xx
        qb = beta * (1.0 - gamma) + xy
        qc = beta * beta - yy
        p = (qb + np.sqrt(qb * qb - qa * qc)) / qa
        eta = Y + X * p[:, None]
        neta = np.linalg.norm(eta, axis=1)
        return neta / (1.0 - np.einsum("ij,ij->i", eta, X) / neta - gamma)
    return f


def _scaled_root(a, xx, yy, xy):
    """Root of Phi = a |y + x Phi| with the sign of a."""
    denom = 1.0 - a * a * xx
    rad = a * a * denom * yy + a ** 4 * xy * xy
    return (a * a * xy + math.copysign(1.0, a) * np.sqrt(rad)) / denom


def _kneg1_scaled(c):
    """K = -1 from psi = |y|, phi = c|y|: F = (Phi_{c+1} - Phi_{c-1}) / 2."""
    def f(X, Y):
        xx, yy, xy = _dots(X, Y)
        return 0.5 * (_scaled_root(c + 1.0, xx, yy, xy)
                      - _scaled_root(c - 1.0, xx, yy, xy))
    return f


def _bryant(alpha):
    """Im[(-<x,y> + i sqrt((e^{2ia} + |x|^2)|y|^2 - <x,y>^2)) / (e^{2ia} + |x|^2)]."""
    def f(X, Y):
        xx, yy, xy = _dots(X, Y)
        w = np.exp(2j * alpha) + xx
        return ((-xy + 1j * np.sqrt(w * yy - xy * xy)) / w).imag
    return f


def _double_sqrt(X, Y):
    """Two-block (1, 1) closed form: the root of a Z^2 + 2 b Z + c = 0
    with positive imaginary part, a = 1 + x1^2 - i x2^2, b = x1 y1 - i x2 y2,
    c = y1^2 - i y2^2."""
    a = 1.0 + X[:, 0] ** 2 - 1j * X[:, 1] ** 2
    b = X[:, 0] * Y[:, 0] - 1j * X[:, 1] * Y[:, 1]
    c = Y[:, 0] ** 2 - 1j * Y[:, 1] ** 2
    root = np.sqrt(c * a - b * b)
    r1, r2 = (-b + 1j * root) / a, (-b - 1j * root) / a
    if np.any((r1.imag > 0.0) == (r2.imag > 0.0)):
        return np.full(len(X), np.nan)
    return np.where(r1.imag > 0.0, r1.imag, r2.imag)


def _funk(X, Y):
    xx, yy, xy = _dots(X, Y)
    return (np.sqrt((1.0 - xx) * yy + xy * xy) + xy) / (1.0 - xx)


CLOSED_FORMS = {
    "construct:0:euclidean:randers:0.2,0.1": _randers_k0((0.2, 0.1)),
    "construct:-1:euclidean:scaled:0.3": _kneg1_scaled(0.3),
    "construct:1:bryant:0.5236": _bryant(0.5236),
    "construct:1:dsr-b:1,1:dsr-a:1,1": _double_sqrt,
    "catalog:funk": _funk,
    "catalog:bryant:0.5236": _bryant(0.5236),
}


def _rel_diff(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _check_verify(req, code, data, out):
    want_pass = req.kind == "verify"
    if code != (0 if want_pass else 1):
        out.append(f"exit code {code}, expected {0 if want_pass else 1}")
    if data is None:
        out.append("stdout is not JSON")
        return
    report = data.get("checks", {}).get(req.check, {})
    if data.get("pass") is not want_pass or report.get("pass") is not want_pass:
        out.append(f"{req.check} pass={report.get('pass')}, expected {want_pass}")
    if set(data.get("checks", {})) != {req.check} or req.check not in CHECKS:
        out.append(f"unexpected checks {sorted(data.get('checks', {}))}")
    if report.get("samples") != req.expect["points"]:
        out.append(f"samples {report.get('samples')}, expected {req.expect['points']}")


def _check_compare(req, code, data, out):
    if code != 0 or data is None:
        out.append(f"exit code {code}")
        return
    rel = data.get("max_rel_diff")
    if data.get("samples") != COMPARE_SAMPLES or not isinstance(rel, float) \
            or not rel <= COMPARE_BOUND:
        out.append(f"max_rel_diff {rel} above {COMPARE_BOUND}")


def _check_eval(req, code, data, out):
    if code != 0 or data is None:
        out.append(f"exit code {code}")
        return
    f, p, k = (data.get(key) for key in ("F", "P", "K_numeric"))
    if not all(isinstance(v, float) and math.isfinite(v) for v in (f, p, k)):
        out.append(f"non-finite output {data}")
        return
    ref = CLOSED_FORMS[req.metric](np.array([req.expect["x"]]),
                                   np.array([req.expect["y"]]))[0]
    if not f > 0.0 or not _rel_diff(f, ref) <= CLOSED_FORM_BOUND:
        out.append(f"F {f!r} against closed form {ref!r}")
    if not abs(k - SWEEP_CURVATURE[req.metric]) <= CURVATURE_BOUND:
        out.append(f"K_numeric {k!r}, expected {SWEEP_CURVATURE[req.metric]}")


def _check_sample(req, code, data, out):
    exp = req.expect
    rows_want = exp["count"] ** 2
    if code != 0 or data is None:
        out.append(f"exit code {code}")
        return
    try:
        with open(exp["out"], newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        out.append(f"cannot read CSV: {exc}")
        return
    if rows[:1] != [["x1", "x2", "y1", "y2", "F", "P", "K"]] or len(rows) != rows_want + 1:
        out.append(f"CSV has {len(rows) - 1} rows, expected {rows_want}")
        return
    if data.get("rows") != rows_want:
        out.append(f"JSON rows {data.get('rows')}, expected {rows_want}")
    body = rows[1:]
    axis = np.linspace(-exp["half"], exp["half"], exp["count"])
    grid = np.stack([m.reshape(-1) for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    xs = np.array([[float(v) for v in r[:2]] for r in body])
    ys = np.array([[float(v) for v in r[2:4]] for r in body])
    if not (np.array_equal(xs, grid) and np.all(ys == np.array(exp["y"]))):
        out.append("CSV coordinates differ from the requested grid")
        return
    filled = np.array([r[4] != "" for r in body])
    if any((r[4] == "") != (r[5] == "") or (r[4] == "") != (r[6] == "") for r in body):
        out.append("partially blank row")
        return
    if data.get("evaluated") != int(filled.sum()):
        out.append(f"JSON evaluated {data.get('evaluated')}, CSV has {int(filled.sum())}")
    inner = np.linalg.norm(xs, axis=1) <= INNER_SHARE * exp["radius"]
    if np.any(inner & ~filled):
        out.append(f"{int((inner & ~filled).sum())} rows inside the validity ball are blank")
    vals = np.array([[float(v) for v in r[4:7]] for r in body if r[4] != ""])
    if vals.size == 0:
        return
    if not np.all(np.isfinite(vals)) or not np.all(vals[:, 0] > 0.0):
        out.append("non-finite or non-positive F/P/K in CSV")
        return
    ref = CLOSED_FORMS[req.metric](xs[filled], ys[filled])
    worst = float(np.max(_rel_diff(vals[:, 0], ref)))
    if not worst <= CLOSED_FORM_BOUND:
        out.append(f"F differs from the closed form by {worst:.3e}")


_CHECKERS = {
    "verify": _check_verify,
    "negative": _check_verify,
    "compare": _check_compare,
    "eval": _check_eval,
    "sample": _check_sample,
}


def problems(req, code, stdout):
    out = []
    _CHECKERS[req.kind](req, code, _json(stdout), out)
    return out


def points(req, stdout):
    """Sample points the request completed (see the workload notes)."""
    if req.kind == "sample":
        return int((_json(stdout) or {}).get("evaluated", 0))
    return int(req.expect["points"])
