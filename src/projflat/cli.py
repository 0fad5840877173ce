"""Command-line front end.

JSON goes to stdout (for scripts), a one-line human summary to stderr.
Exit codes: 0 success / all checks passed, 1 checks ran but some failed,
2 parse error, 3 domain error, 4 solver failure, 5 internal error (an
unexpected exception, reported as error JSON instead of a traceback).
Identical command line and seed produce byte-identical output.  Each flag
value is checked by its argparse type as the command line is parsed, before
a metric is built: a bad value, or a flag the subcommand does not read,
exits 2 with a message naming the flag.  Vectors, grid bounds and spans,
tolerance overrides and squared lengths of vectors and grid points must be
finite; dim, samples, radius, steps and t-end positive; the seed >= 0.
``sample`` takes exactly one of --x and --y.  An empty --checks runs every
check, and an empty --tol-override keeps the defaults.  An --out file that
cannot be written exits 2 too, after the values are computed.
"""

import argparse
from argparse import ArgumentTypeError
import contextlib
import csv
import functools
import json
import math
import sys

import numpy as np

from . import catalog as cat
from .construct import (broken_metric, build_k0, build_kneg1, build_kpos1,
                        first_errors, raise_first)
from .errors import DomainError, ProjFlatError, SolverError, SpecParseError
from .norms import parse_norms
from .sampling import ball_points, sphere_points
from .solver import SolverConfig
from . import verify as vfy

DEFAULT_TOLERANCES = {
    "hamel": 1e-6,
    "curvature": 1e-4,
    "berwald": 1e-5,
    "convexity": -1e-8,
    "geodesic": 1e-8,
    "pde": 1e-6,
}
CHECK_NAMES = tuple(DEFAULT_TOLERANCES)


def _finite(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` if their components and squared lengths are finite: a
    squared length that overflows (|v| beyond about 1e154) overflows every metric."""
    with np.errstate(over="ignore"):
        if np.isfinite(np.vecdot(vectors, vectors)).all():
            return vectors
    raise ArgumentTypeError("non-finite component or squared length")


def _vector(text: str) -> np.ndarray:
    try:
        return _finite(np.asarray([float(v) for v in text.split(",")]))
    except ValueError:
        raise ArgumentTypeError(f"bad vector '{text}'") from None


def _number(convert, ok, expected: str):
    """An argparse type: ``convert`` the text and require ``ok`` of it."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := convert(text)):
                return value
        raise ArgumentTypeError(f"expected {expected}; got '{text}'")
    return parse


_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_positive_float = _number(float, lambda v: 0 < v < math.inf, "a positive finite number")
_finite_float = _number(float, math.isfinite, "a finite number")
_seed = _number(int, lambda v: v >= 0, "a non-negative integer")


def _check_names(text: str) -> tuple:
    """Known checks, each once in first-named order; empty means all."""
    names = tuple(dict.fromkeys(c.strip() for c in text.split(","))) if text else CHECK_NAMES
    if unknown := [c for c in names if c not in CHECK_NAMES]:
        raise ArgumentTypeError(f"unknown check '{unknown[0]}'")
    return names


def _tolerances(text: str) -> dict:
    """check=tolerance pairs over the defaults; empty keeps the defaults."""
    out = dict(DEFAULT_TOLERANCES)
    for chunk in text.split(",") if text else ():
        key, _, val = chunk.partition("=")
        if key.strip() not in out:
            raise ArgumentTypeError(f"bad tolerance override '{chunk}'")
        out[key.strip()] = _finite_float(val)
    return out


def _grid(text: str) -> list:
    """min:max:count per axis: count >= 1, finite bounds and span, and a
    finite squared length at the farthest grid point."""
    axes = []
    for chunk in text.split(","):
        try:
            lo, hi, count = chunk.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ArgumentTypeError(f"axis '{chunk}' must be min:max:count") from None
        if count < 1 or not math.isfinite(hi - lo):  # hi - lo is nan or inf at a bad bound
            raise ArgumentTypeError(f"axis '{chunk}' has count < 1 or non-finite bounds or span")
        axes.append(np.linspace(lo, hi, count))
    _finite(np.array([np.abs(a).max() for a in axes]))
    return axes


def _solver_cfg(args) -> SolverConfig:
    """Solver settings from the flags that were given; SolverConfig holds
    the defaults and rejects out-of-range values."""
    flags = {"tolerance": args.solver_tol, "max_iterations": args.solver_iters}
    return SolverConfig(**{k: v for k, v in flags.items() if v is not None})


def parse_metric(text: str, dimension: int, cfg: SolverConfig):
    """Build an evaluator from ``catalog:...``, ``construct:<K>:<psi>:<phi>``
    (two norm descriptors; ``bryant:<alpha>`` names both) or ``test:broken``."""
    text = text.strip()
    if text == "test:broken":
        return broken_metric(dimension)
    head, _, rest = text.partition(":")
    if head == "catalog":
        return cat.as_evaluator(cat.parse_catalog(rest, dimension))
    if head != "construct":
        raise SpecParseError(f"metric spec must start with 'catalog:', "
                             f"'construct:' or 'test:'; got '{text}'")
    k_text, _, norm_part = rest.partition(":")
    try:
        curvature = int(k_text)
    except ValueError as exc:
        raise SpecParseError(f"bad curvature '{k_text}'") from exc
    # looked up per call, so a rebinding of the module names (bench/tracing.py
    # wraps the builders) reaches every construction
    builders = {0: build_k0, -1: build_kneg1, 1: build_kpos1}
    if curvature not in builders:
        raise SpecParseError("curvature must be one of 0, -1, 1")
    norms = parse_norms(norm_part, dimension)
    if len(norms) != 2:
        raise SpecParseError(f"construct:<K> takes two norms, psi and phi; got {len(norms)}")
    return builders[curvature](*norms, cfg)


# ---------------------------------------------------------------------------
# output helpers


def _emit(payload: dict, summary: str) -> None:
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:  # JSON has no nan or inf
        raise DomainError("an output value is not finite") from None
    print(text)
    print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    if args.x.size != args.y.size:
        raise SpecParseError("x and y must have the same length")
    metric = parse_metric(args.metric, args.x.size, _solver_cfg(args))
    f, p, k, errors = vfy.point_values(metric, args.x[None], args.y[None])
    raise_first(errors)
    f, p, k = float(f[0]), float(p[0]), float(k[0])
    _emit({"F": f, "P": p, "K_numeric": k}, f"F={f:.9g} P={p:.9g} K={k:.6g}")
    return 0


def _run_check(name, metric, rng, radius, samples, tol):
    dim = metric.dimension
    if name == "geodesic":
        count = 5
        starts = ball_points(rng, dim, 0.3 * radius, count)
        dirs = sphere_points(rng, dim, count)
        t_end = min(0.2, 0.5 * radius)
        trajectories = vfy.integrate_geodesic(metric, starts, dirs, t_end, 100)
        residuals = [vfy.collinearity_score(traj, x0, v0)
                     for traj, x0, v0 in zip(trajectories, starts, dirs)]
        return vfy.make_report("geodesic", starts, dirs, residuals, tol)

    xs = ball_points(rng, dim, radius, samples)
    ys = sphere_points(rng, dim, samples)
    if name == "convexity":
        residuals, lam = vfy.convexity_residual(metric, xs, ys)
        return vfy.make_report("convexity", xs, ys, residuals, tol,
                               extra={"min_eigenvalue": float(lam.min())})
    if name == "hamel":
        return vfy.make_report("hamel", xs, ys, vfy.hamel_residual(metric, xs, ys), tol)
    if name == "curvature":
        target = metric.intended_curvature
        values = vfy.flag_curvature(metric, xs, ys)
        with np.errstate(over="ignore"):  # an inf mean makes the output fail (exit 3)
            extra = {"target_K": float(target), "mean_K": float(np.mean(values))}
        return vfy.make_report("curvature", xs, ys, np.abs(values - target), tol, extra=extra)
    if name == "berwald":
        return vfy.make_report("berwald", xs, ys,
                               np.maximum(*vfy.berwald_system_residual(metric, xs, ys)), tol)
    if name == "pde":
        return vfy.make_report("pde", xs, ys, vfy.master_pde_residual(metric, xs, ys), tol)
    raise SpecParseError(f"unknown check '{name}'")


def cmd_verify(args) -> int:
    metric = parse_metric(args.metric, args.dim, _solver_cfg(args))
    radius, limit = args.radius, metric.domain_radius
    if radius > limit:
        raise DomainError(f"radius {radius} exceeds the metric's validity "
                          f"radius {limit:.6g}")
    reports = {}
    for name in args.checks:
        rng = np.random.default_rng(args.seed)
        reports[name] = _run_check(name, metric, rng, radius, args.samples,
                                   args.tol_override[name])
    all_pass = all(r["pass"] for r in reports.values())
    payload = {
        "metric": args.metric,
        "dimension": args.dim,
        "radius": float(radius),
        "samples": int(args.samples),
        "seed": int(args.seed),
        "pass": bool(all_pass),
        "checks": reports,
    }
    summary = " ".join(f"{n}={'ok' if reports[n]['pass'] else 'FAIL'}" for n in args.checks)
    _emit(payload, f"verify {args.metric}: {summary}")
    return 0 if all_pass else 1


def cmd_compare(args) -> int:
    cfg = _solver_cfg(args)
    m_a = parse_metric(args.metric, args.dim, cfg)
    m_b = parse_metric(args.metric_b, args.dim, cfg)
    rng = np.random.default_rng(args.seed)
    xs = ball_points(rng, args.dim, args.radius, args.samples)
    ys = sphere_points(rng, args.dim, args.samples)
    f_a, f_b = m_a.rows(xs, ys), m_b.rows(xs, ys)
    raise_first(first_errors(f_a.errors, f_b.errors))
    abs_diffs = np.abs(f_a.f - f_b.f)
    rel_diffs = abs_diffs / np.maximum(np.maximum(np.abs(f_a.f), np.abs(f_b.f)), 1e-300)
    worst = int(np.argmax(rel_diffs))
    payload = {
        "max_abs_diff": float(abs_diffs.max()),
        "max_rel_diff": float(rel_diffs.max()),
        "worst_point": {"x": [float(v) for v in xs[worst]],
                        "y": [float(v) for v in ys[worst]]},
        "samples": int(args.samples),
        "seed": int(args.seed),
    }
    _emit(payload, f"compare: max_rel_diff={payload['max_rel_diff']:.3e}")
    return 0


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to the CSV file ``path``; a file that
    cannot be written is a parse error of --out."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise SpecParseError(f"--out: cannot write '{path}': {exc.strerror or exc}") from None


def cmd_sample(args) -> int:
    fixed_is_y = args.y is not None
    fixed = args.y if fixed_is_y else args.x
    dim = fixed.size
    if len(args.grid) != dim:
        raise SpecParseError("grid must have one axis per coordinate")
    metric = parse_metric(args.metric, dim, _solver_cfg(args))

    mesh = np.meshgrid(*args.grid, indexing="ij")
    grid_points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    others = np.broadcast_to(fixed, grid_points.shape)
    xs, ys = (grid_points, others) if fixed_is_y else (others, grid_points)
    f, p, k, errors = vfy.point_values(metric, xs, ys)
    # a row outside the domain stays blank; any other failure is an error
    raise_first([exc for exc in errors if not isinstance(exc, DomainError)])
    values = [("", "", "") if exc is not None else (repr(fv), repr(pv), repr(kv))
              for fv, pv, kv, exc in zip(f.tolist(), p.tolist(), k.tolist(), errors)]
    fixed_cells = list(map(repr, fixed.tolist()))
    header = ([f"x{i+1}" for i in range(dim)] + [f"y{i+1}" for i in range(dim)]
              + ["F", "P", "K"])
    _write_csv(args.out, header, ([*map(repr, gp), *fixed_cells, *v] if fixed_is_y
                                  else [*fixed_cells, *map(repr, gp), *v]
                                  for gp, v in zip(grid_points.tolist(), values)))
    payload = {"out": args.out, "rows": int(grid_points.shape[0]),
               "evaluated": errors.count(None)}
    _emit(payload, f"sample: wrote {payload['rows']} rows to {args.out}")
    return 0


def cmd_geodesic(args) -> int:
    if args.x.size != args.y.size:
        raise SpecParseError("x and y must have the same length")
    metric = parse_metric(args.metric, args.x.size, _solver_cfg(args))
    [traj] = vfy.integrate_geodesic(metric, args.x[None], args.y[None], args.t_end, args.steps)
    score = vfy.collinearity_score(traj, args.x, args.y)
    payload = {"collinearity": float(score), "points": int(traj.points.shape[0]),
               "completed": bool(traj.completed)}
    if args.out:
        header = (["t"] + [f"x{i+1}" for i in range(args.x.size)]
                  + [f"v{i+1}" for i in range(args.x.size)])
        _write_csv(args.out, header, ([repr(t), *map(repr, p), *map(repr, v)] for t, p, v in zip(
            traj.times.tolist(), traj.points.tolist(), traj.velocities.tolist())))
        payload["out"] = args.out
    _emit(payload, f"geodesic: collinearity={score:.3e} "
                   f"({'complete' if traj.completed else 'truncated at boundary'})")
    return 0


def cmd_catalog(args) -> int:
    entries = cat.list_catalog(args.dim)
    payload = {"entries": [
        {"name": e.name,
         "params": dict(e.params),
         "known_curvature": float(e.known_curvature),
         "domain_radius": (None if math.isinf(e.domain_radius)
                           else float(e.domain_radius))}
        for e in entries]}
    _emit(payload, f"catalog: {len(entries)} entries")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Reports a bad or unknown flag as a parse error (exit 2, error JSON)."""

    def error(self, message):
        raise SpecParseError(message)


@functools.cache  # built on the first call, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projflat",
        description="Evaluate, verify, and compare projectively flat metrics "
                    "of constant flag curvature.")
    sub = parser.add_subparsers(dest="command", required=True)

    def metric_flags(p, samples=0):
        """--metric and the solver settings; a sweep's flags for ``samples``."""
        p.add_argument("--metric", required=True,
                       help="catalog:<name[:params]> | "
                            "construct:<K>:<psi>:<phi> | test:broken")
        if samples:
            p.add_argument("--seed", type=_seed, default=42)
            p.add_argument("--dim", type=_positive_int, default=2)
            p.add_argument("--radius", type=_positive_float, default=0.3)
            p.add_argument("--samples", type=_positive_int, default=samples)
        p.add_argument("--solver-tol", type=float, default=None)
        p.add_argument("--solver-iters", type=int, default=None)

    p = sub.add_parser("eval", help="F, P, and numeric K at one point")
    metric_flags(p)
    p.add_argument("--x", type=_vector, required=True)
    p.add_argument("--y", type=_vector, required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="identity checks over a seeded sweep")
    metric_flags(p, samples=50)
    p.add_argument("--checks", type=_check_names, default=CHECK_NAMES,
                   help="comma list from: " + ",".join(CHECK_NAMES))
    p.add_argument("--tol-override", type=_tolerances, default=DEFAULT_TOLERANCES,
                   help="comma list of check=tolerance")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="sweep |F_A - F_B| over seeded points")
    metric_flags(p, samples=100)
    p.add_argument("--metric-b", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sample", help="CSV of F, P, K over a coordinate grid")
    metric_flags(p)
    fixed = p.add_mutually_exclusive_group(required=True)
    fixed.add_argument("--x", type=_vector, help="fixed base point (grid over y)")
    fixed.add_argument("--y", type=_vector, help="fixed tangent (grid over x)")
    p.add_argument("--grid", type=_grid, required=True,
                   help="min:max:count per axis, comma-separated")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("geodesic", help="integrate one geodesic and score straightness")
    metric_flags(p)
    p.add_argument("--x", type=_vector, required=True, help="initial position")
    p.add_argument("--y", type=_vector, required=True, help="initial velocity")
    p.add_argument("--t-end", type=_positive_float, default=0.5)
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("catalog", help="list the closed-form entries")
    p.add_argument("--dim", type=_positive_int, default=2)
    p.set_defaults(fn=cmd_catalog)
    return parser


def _error_exit(kind: str, message, code: int) -> int:
    print(json.dumps({"error": {"type": kind, "message": str(message)}}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except SpecParseError as exc:
        return _error_exit("parse", exc, 2)
    except SolverError as exc:
        return _error_exit("solver", exc, 4)
    except DomainError as exc:
        return _error_exit("domain", exc, 3)
    except ProjFlatError as exc:
        return _error_exit("error", exc, 2)
    except ValueError as exc:
        return _error_exit("parse", exc, 2)
    except Exception as exc:  # exit 1 stays "checks ran and failed"
        return _error_exit("internal", f"{type(exc).__name__}: {exc}", 5)


if __name__ == "__main__":
    sys.exit(main())
