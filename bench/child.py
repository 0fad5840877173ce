"""One benchmark process: set up, run the workload in-process, report.

Started by ``run.py`` in a fresh interpreter.  It imports projflat from the
checkout's ``src/``, builds every evaluator the workload names, prints
``READY`` (the parent times set-up up to that line), then issues the
workload's requests through ``projflat.cli.main(argv)`` with stdout and
stderr captured, one at a time (a closed loop with one client).  Outputs
are checked after the timed phase.  The last stdout line is a JSON
summary for the parent.

With ``--trace 1`` the same fixed set of passes runs twice, untraced and
then traced, so the difference in wall time is the tracing overhead, and
a probe on ``catalog:funk`` cross-checks the F-evaluation counts.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from workloads import WORKLOADS

MIN_REQUESTS = 100
HARD_CAP_S = 120.0
# F evaluations per sample point on catalog:funk (geodesic: per trajectory);
# any change means the hooks no longer see every evaluation.
FUNK_F_PER_POINT = {"hamel": 34, "curvature": 10, "berwald": 77, "convexity": 10,
                    "pde": 72, "geodesic": 1200}
FAILURE_LINES = 5


@dataclass
class Record:
    req: workloads.Request
    code: object
    stdout: str
    latency: float
    scaled: float = 0.0
    probe: bool = False
    points: int = 0
    problems: tuple = ()


def _call(main, req, probe=False):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(req.argv))
    except Exception as exc:  # a traceback is a failed request, not a crash
        code = f"raised {exc!r}"
    latency = perf_counter() - t0
    return Record(req, code, out.getvalue(), latency, probe=probe)


def run_phase(main, passes, stop, tracer=None):
    """Issue whole passes until ``stop(elapsed, count)``; returns the
    records and the wall time.  The calibration kernel runs before the
    first request and after each one; latencies are then scaled by the
    kernel times around them (see speed.py)."""
    import speed

    records = []
    kernels = [speed.kernel_s()]
    start = perf_counter()
    for batch in passes:
        for req in batch:
            if tracer is not None:
                tracer.request = len(records)
            records.append(_call(main, req))
            kernels.append(speed.kernel_s())
        if stop(perf_counter() - start, len(records)):
            break
    wall = perf_counter() - start
    for rec, factor in zip(records, speed.factors(kernels)):
        rec.scaled = rec.latency * factor
    return records, wall


def grade(records, gate):
    for rec in records:
        if isinstance(rec.code, int):
            rec.problems = tuple(gate.problems(rec.req, rec.code, rec.stdout))
        else:
            rec.problems = (rec.code,)
        rec.points = 0 if rec.problems else gate.points(rec.req, rec.stdout)


def failures(records):
    return [f"{' '.join(r.req.argv)}: {'; '.join(r.problems)}"
            for r in records if r.problems]


def funk_probe(main, tracer, records, rng):
    """Single-check verify requests on catalog:funk, traced but kept out of
    the workload's metrics; returns (metrics, problems)."""
    from tracing import f_per_point

    seed = rng.randrange(1, 2**31 - 1)
    metrics, problems = {}, []
    for check in workloads.CHECKS:
        req = workloads.verify_request("catalog:funk", check, seed, -1)
        tracer.request = len(records)
        records.append(_call(main, req, probe=True))
        got = f_per_point(tracer, len(records) - 1, req.expect["points"])
        metrics[f"xcheck.funk.{check}.f_per_pt"] = (got, "1/pt")
        if got != FUNK_F_PER_POINT[check]:
            problems.append(f"funk {check}: {got} F evaluations per point, "
                            f"expected {FUNK_F_PER_POINT[check]}")
    return metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if "FINSLER_THREADS" in os.environ:
        print("FINSLER_THREADS must be unset", file=sys.stderr)
        return 2
    import projflat
    from projflat import cli
    from projflat.solver import SolverConfig

    src = Path(args.src).resolve()
    if src not in Path(projflat.__file__).resolve().parents:
        print(f"projflat imported from {projflat.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cfg = SolverConfig()
    for spec in dict.fromkeys(wl.metrics):
        cli.parse_metric(spec, workloads.DIM, cfg)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import gate
    rng = random.Random(args.seed)
    passes = wl.passes(rng, args.work)
    result = {"projflat_file": projflat.__file__}
    if not args.trace:
        records, wall = run_phase(
            cli.main, passes,
            lambda t, n: (t >= args.seconds and n >= MIN_REQUESTS) or t >= HARD_CAP_S)
        grade(records, gate)
        result.update(wall_s=wall, latencies=[r.latency for r in records],
                      scaled=[r.scaled for r in records],
                      points=sum(r.points for r in records))
    else:
        import tracing
        from projflat.errors import DomainError, SolverError

        plan = [next(passes) for _ in range(wl.trace_passes)]
        untraced, wall_plain = run_phase(cli.main, plan, lambda t, n: False)
        grade(untraced, gate)
        tracer = tracing.Tracer(DomainError, SolverError)
        tracer.install()
        traced_main = tracer.wrap("cli", cli.main)
        traced, wall_traced = run_phase(traced_main, plan, lambda t, n: False, tracer)
        probe_metrics, probe_problems = funk_probe(traced_main, tracer, traced, rng)
        grade(traced, gate)
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer, traced)
        layers.update(probe_metrics)
        layers["trace.overhead_s"] = (sum(r.scaled for r in traced if not r.probe)
                                      - sum(r.scaled for r in untraced), "s")
        layers["trace.spans"] = (len(tracer.t0), "count")
        tracer.save(os.path.join(args.work, f"spans-{args.workload}.npz"))
        records = untraced + traced
        result.update(layers={k: list(v) for k, v in layers.items()},
                      missing_hooks=sorted(tracer.missing),
                      xcheck_problems=probe_problems,
                      wall_untraced_s=wall_plain, wall_traced_s=wall_traced)
    with open(os.path.join(args.work, f"requests-{args.workload}.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps({"argv": rec.req.argv, "kind": rec.req.kind,
                                 "latency": rec.latency, "scaled": rec.scaled,
                                 "points": rec.points, "probe": rec.probe}) + "\n")
    bad = failures(records)
    result.update(
        attempted=len(records), failed=len(bad), failures=bad[:FAILURE_LINES],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
