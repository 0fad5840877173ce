"""Request generators for the three benchmark workloads.

Every request is a projflat CLI argv list built from a ``random.Random``
seeded by the benchmark's ``--seed``; the program sees nothing else.  A
workload is a fixed *pass* of request shapes; a run repeats whole passes,
each with fresh seeded inputs, so the mix of shapes (and hence the latency
percentiles) is the same in every run.

Only the standard library is used here, so the child process can build
its requests without touching numpy or projflat.
"""

import math
from dataclasses import dataclass, field

DIM = 2
VERIFY_RADIUS = 0.2
VERIFY_SAMPLES = 4
SEEDS_PER_PASS = 3
GEODESIC_TRAJECTORIES = 5  # fixed by ``projflat verify --checks geodesic``
CHECKS = ("hamel", "curvature", "berwald", "convexity", "geodesic", "pde")

# Constructed families: descriptor -> (nominal validity radius, curvature).
# The radius is the evaluator's ``domain_radius`` on the commit that defined
# the benchmark, rounded down; it sizes the sample grids and the region in
# which every grid row must evaluate.
CONSTRUCTED = {
    "construct:0:euclidean:randers:0.2,0.1": (0.3269, 0.0),
    "construct:-1:euclidean:scaled:0.3": (0.3076, -1.0),
    "construct:1:bryant:0.5236": (0.3999, 1.0),
    "construct:1:dsr-b:1,1:dsr-a:1,1": (0.3363, 1.0),
}

# The nine closed forms with the parameters ``projflat.list_catalog(2)``
# uses by default.
CATALOG_DEFAULTS = (
    "catalog:space-form:-1",
    "catalog:funk",
    "catalog:berwald",
    f"catalog:bryant:{math.pi / 4.0!r}",
    "catalog:dsr-new:1,1",
    "catalog:sph-k0:0.3,-",
    "catalog:sph-kneg1:0.3",
    "catalog:sph-kpos1:0.3",
    "catalog:zhou:0.5,1,+",
)

NEGATIVE_CONTROL = "test:broken"

# eval-sweep: grids cover the constructed families plus two closed forms.
# catalog:bryant has no finite validity ball; its grid uses the ball of its
# constructor, so every one of its rows evaluates.
SWEEP_METRICS = {
    **{spec: radius for spec, (radius, _) in CONSTRUCTED.items()},
    "catalog:funk": 1.0,
    "catalog:bryant:0.5236": 0.4,
}
SWEEP_CURVATURE = {
    **{spec: k for spec, (_, k) in CONSTRUCTED.items()},
    "catalog:funk": -0.25,
    "catalog:bryant:0.5236": 1.0,
}
GRID_COUNT = 8  # cell-centred 8 x 8 grid: 12 of 64 rows fall outside the disc
EVALS_PER_METRIC = 2
COMPARE_SAMPLES = 20

# (constructor, closed form, sweep radius): acceptance criterion 5 pairs.
COMPARE_PAIRS = (
    ("construct:0:euclidean:euclidean", "catalog:berwald", 0.4),
    ("construct:-1:euclidean:zero", "catalog:space-form:-1", 0.4),
    ("construct:1:euclidean:zero", "catalog:space-form:1", 0.4),
    ("construct:1:bryant:0.5236", "catalog:bryant:0.5236", 0.3),
    ("construct:-1:euclidean:scaled:0.3", "catalog:sph-kneg1:0.3", 0.29),
    ("construct:1:euclidean:scaled:0.3", "catalog:sph-kpos1:0.3", 0.35),
)


@dataclass
class Request:
    """One CLI call and what its output must satisfy."""

    argv: list
    kind: str          # verify | negative | sample | compare | eval
    metric: str
    check: str = ""
    group: int = -1    # requests sharing (metric, cli seed) in one pass
    expect: dict = field(default_factory=dict)


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _unit(rng):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (math.cos(theta), math.sin(theta))


def _ball_point(rng, radius):
    r = radius * math.sqrt(rng.random())
    u = _unit(rng)
    return (r * u[0], r * u[1])


def _cli_seed(rng) -> int:
    return rng.randrange(1, 2**31 - 1)


def verify_request(metric, check, seed, group, kind="verify"):
    argv = ["verify", "--metric", metric, "--checks", check,
            "--radius", repr(VERIFY_RADIUS), "--samples", str(VERIFY_SAMPLES),
            "--seed", str(seed)]
    points = GEODESIC_TRAJECTORIES if check == "geodesic" else VERIFY_SAMPLES
    return Request(argv, kind, metric, check, group, {"points": points})


def _verify_pass(metrics, rng, groups, index):
    """Per metric: the five pointwise checks at SEEDS_PER_PASS CLI seeds.
    Pass ``index`` adds one geodesic request, on metric ``index`` modulo the
    metric count, at its first seed.  A geodesic request takes 10-20 times
    longer than a pointwise one (five fixed 100-step trajectories).  One
    per pass keeps them a small share of the run time, so more pointwise
    points fit, and keeps req_p90_s inside a large pointwise group."""
    out = []
    for n, metric in enumerate(metrics):
        for rep in range(SEEDS_PER_PASS):
            seed = _cli_seed(rng)
            group = next(groups)
            with_geodesic = rep == 0 and n == index % len(metrics)
            out.extend(verify_request(metric, check, seed, group) for check in CHECKS
                       if check != "geodesic" or with_geodesic)
    return out


def _counter():
    n = 0
    while True:
        yield n
        n += 1


class Workload:
    """Named pass generator; ``metrics`` are the evaluators set-up builds."""

    def __init__(self, name, metrics, make_pass, trace_passes):
        self.name = name
        self.metrics = metrics
        self._make_pass = make_pass
        self.trace_passes = trace_passes

    def passes(self, rng, out_dir):
        """Endless sequence of passes (lists of Requests)."""
        groups = _counter()
        index = 0
        while True:
            yield self._make_pass(rng, groups, out_dir, index)
            index += 1


def _verify_construct(rng, groups, out_dir, index):
    return _verify_pass(CONSTRUCTED, rng, groups, index)


def _verify_catalog(rng, groups, out_dir, index):
    reqs = _verify_pass(CATALOG_DEFAULTS, rng, groups, index)
    neg = verify_request(NEGATIVE_CONTROL, "hamel", _cli_seed(rng), next(groups),
                         "negative")
    reqs.append(neg)
    return reqs


def _eval_sweep(rng, groups, out_dir, index):
    reqs = []
    for n, (metric, radius) in enumerate(SWEEP_METRICS.items()):
        half = radius * (1.0 - 1.0 / GRID_COUNT)
        axis = f"{-half!r}:{half!r}:{GRID_COUNT}"
        y = _unit(rng)
        out = f"{out_dir}/sample-{index}-{n}.csv"
        argv = ["sample", "--metric", metric, f"--grid={axis},{axis}",
                f"--y={_vec(y)}", "--out", out]
        reqs.append(Request(argv, "sample", metric, expect={
            "half": half, "count": GRID_COUNT, "y": y, "out": out,
            "radius": radius}))
    for metric_a, metric_b, radius in COMPARE_PAIRS:
        argv = ["compare", "--metric", metric_a, "--metric-b", metric_b,
                "--radius", repr(radius), "--samples", str(COMPARE_SAMPLES),
                "--seed", str(_cli_seed(rng))]
        reqs.append(Request(argv, "compare", metric_a,
                            expect={"points": COMPARE_SAMPLES}))
    for metric in SWEEP_METRICS:
        for _ in range(EVALS_PER_METRIC):
            x = _ball_point(rng, VERIFY_RADIUS)
            u = _unit(rng)
            scale = rng.uniform(0.5, 2.0)
            y = (scale * u[0], scale * u[1])
            argv = ["eval", "--metric", metric, f"--x={_vec(x)}", f"--y={_vec(y)}"]
            reqs.append(Request(argv, "eval", metric,
                                expect={"x": x, "y": y, "points": 1}))
    return reqs


WORKLOADS = {
    "verify-construct": Workload(
        "verify-construct", list(CONSTRUCTED), _verify_construct, trace_passes=4),
    "verify-catalog": Workload(
        "verify-catalog", list(CATALOG_DEFAULTS) + [NEGATIVE_CONTROL],
        _verify_catalog, trace_passes=9),
    "eval-sweep": Workload(
        "eval-sweep",
        list(SWEEP_METRICS) + [m for pair in COMPARE_PAIRS for m in pair[:2]],
        _eval_sweep, trace_passes=6),
}
