"""projflat benchmark: run one workload against this checkout and report.

    python3 bench/run.py --workload verify-construct --seed 1 --seconds 25 --trace 0

Workloads: verify-construct, verify-catalog, eval-sweep (see README.md).
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a separate traced
run.  Provenance and a readable table are printed before it.  The exit
code is 0 only if every output passed its check.

The script uses only the standard library; projflat runs in child
interpreters (``child.py``) with ``PYTHONPATH`` set to this checkout's
``src/``.  Set-up time is the median over ``SETUP_SAMPLES`` fresh
interpreters, from process start to the child's ``READY`` line.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("verify-construct", "verify-catalog", "eval-sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)\s*$")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_sha():
    """HEAD of the checkout, read without git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_env():
    env = dict(os.environ)
    env.pop("FINSLER_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """A child interpreter; ``ready_s`` is the time from spawn to READY."""

    def __init__(self, args, extra, deadline, importtime=False):
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(BENCH / "child.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--src", str(ROOT / "src"),
                "--work", str(WORK), *extra]
        self.stderr_path = WORK / f"stderr-{args.workload}.txt"
        with open(self.stderr_path, "w") as err:
            t0 = perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                         stdin=subprocess.DEVNULL, env=_child_env(),
                                         cwd=ROOT, text=True)
        self.timer = threading.Timer(max(deadline - monotonic(), 1.0), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"child did not get ready: {line!r}\n{self.stderr()}")

    def stderr(self):
        return self.stderr_path.read_text(errors="replace")[-4000:]

    def finish(self, report=True):
        """Wait for exit; returns the child's last stdout line as JSON."""
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        lines = out.strip().splitlines()
        if code != 0 or (report and not lines):
            raise BenchError(f"child exited with {code}\n{self.stderr()}")
        return json.loads(lines[-1]) if report else None


def import_times(stderr_text):
    """(projflat cumulative, scipy self total) in seconds from -X importtime."""
    total, scipy = None, 0.0
    for line in stderr_text.splitlines():
        m = IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "projflat":
            total = cum_us / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us / 1e6
    return total, scipy


def measure(args):
    deadline = monotonic() + DEADLINE_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(args, ["--setup-only"], deadline)
            setup.append(child.ready_s)
            child.finish(report=False)
    child = Child(args, [], deadline, importtime=bool(args.trace))
    setup.append(child.ready_s)
    result = child.finish()
    result["setup_samples"] = setup
    if args.trace:
        total, scipy = import_times(child.stderr_path.read_text(errors="replace"))
        result["layers"]["import.total_s"] = [total, "s"]
        result["layers"]["import.scipy_s"] = [scipy if total is not None else None, "s"]
    return result


def end_to_end(result):
    """Set-up in wall seconds; request times in reference-speed seconds
    (see speed.py)."""
    lat = sorted(result["scaled"])
    return {
        "setup_s": (statistics.median(result["setup_samples"]), "s"),
        "points_per_s": (result["points"] / sum(lat), "1/s"),
        "req_p50_s": (statistics.median(lat), "s"),
        "req_p90_s": (statistics.quantiles(lat, n=10)[-1], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def check_names(metrics, trace):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(declared ^ set(metrics))}")


def provenance(args, result):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "projflat_file": result["projflat_file"],
        "finsler_threads": "unset",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "projflat" / "__init__.py").is_file():
        print(f"no projflat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["failures"])
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        problems += result["xcheck_problems"]
    else:
        metrics = end_to_end(result)
    try:
        check_names(metrics, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0 and not problems

    print("# provenance " + json.dumps(provenance(args, result)))
    print(f"# requests attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g} (1)")
    if args.trace:
        print(f"# untraced {result['wall_untraced_s']:.3f} s, traced "
              f"{result['wall_traced_s']:.3f} s; missing hooks: "
              f"{', '.join(result['missing_hooks']) or 'none'}")
    else:
        raw = sorted(result["latencies"])
        print("# setup samples " + ", ".join(f"{t:.4f}" for t in result["setup_samples"])
              + " s")
        print(f"# timed phase {result['wall_s']:.3f} s wall, {result['points']} points; "
              f"raw points_per_s {result['points'] / sum(raw):.6g}, raw req_p50_s "
              f"{statistics.median(raw):.6g}, raw req_p90_s "
              f"{statistics.quantiles(raw, n=10)[-1]:.6g}")
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"#   {name:34s} {shown:>14s} {unit}")
    for line in problems:
        print(f"# FAIL {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
