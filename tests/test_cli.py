"""Command-line behavior: outputs, exit codes, determinism, round trips."""

import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import f_at, point_values_composed
from projflat import MetricEvaluator, as_evaluator, catalog_entry
from projflat import cli
from projflat.cli import main, parse_metric
from projflat.solver import SolverConfig


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def child_env(**extra):
    """Inherited environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_constructed_origin(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", "construct:0:euclidean:euclidean",
                           "--x", "0,0", "--y", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["F"] == pytest.approx(1.0, abs=1e-12)
    assert data["P"] == pytest.approx(1.0, abs=1e-12)


def test_eval_funk_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", "catalog:funk",
                           "--x", "0.5,0", "--y", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["F"] == pytest.approx(1.1547005, abs=1e-6)
    assert data["K_numeric"] == pytest.approx(-0.25, abs=1e-4)


def test_eval_bryant_origin(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", "catalog:bryant:0.5236",
                           "--x", "0,0", "--y", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["F"] == pytest.approx(np.cos(0.5236), abs=1e-9)
    assert data["F"] == pytest.approx(0.8660254, abs=1e-5)


def test_verify_berwald_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric", "catalog:berwald",
                           "--checks", "hamel,curvature", "--radius", "0.5",
                           "--samples", "50", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["checks"]["curvature"]["extra"]["mean_K"] == pytest.approx(0.0, abs=1e-4)


def test_verify_dsr_construction(capsys):
    code, out, _ = run_cli(capsys, "verify", "--metric",
                           "construct:1:dsr-b:1,1:dsr-a:1,1",
                           "--checks", "hamel,curvature", "--radius", "0.2",
                           "--samples", "20", "--tol-override", "curvature=1e-3")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["checks"]["curvature"]["extra"]["mean_K"] == pytest.approx(1.0, abs=1e-3)


def test_verify_broken_fails_hamel(capsys):
    # the hamel check alone, then the default check set (every check runs)
    for checks in (("--checks", "hamel"), ()):
        code, out, _ = run_cli(capsys, "verify", "--metric", "test:broken", *checks,
                               "--radius", "0.4", "--samples", "20")
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        assert data["checks"]["hamel"]["max_residual"] > 1e-3
        assert data["checks"]["hamel"]["failures"]


def test_compare_construct_vs_catalog(capsys):
    code, out, _ = run_cli(capsys, "compare",
                           "--metric", "construct:0:euclidean:euclidean",
                           "--metric-b", "catalog:berwald",
                           "--radius", "0.4", "--samples", "100")
    assert code == 0
    data = json.loads(out)
    assert data["max_rel_diff"] <= 1e-9
    code, out, _ = run_cli(capsys, "compare",
                           "--metric", "construct:-1:euclidean:zero",
                           "--metric-b", "catalog:space-form:-1",
                           "--radius", "0.4", "--samples", "100")
    assert code == 0
    assert json.loads(out)["max_rel_diff"] <= 1e-9


def test_compare_bryant_pair(capsys):
    code, out, _ = run_cli(capsys, "compare",
                           "--metric", "construct:1:bryant:0.5236",
                           "--metric-b", "catalog:bryant:0.5236",
                           "--radius", "0.3", "--samples", "100")
    assert code == 0
    assert json.loads(out)["max_rel_diff"] <= 1e-8


def test_sample_grid_csv(tmp_path, capsys):
    out_file = str(tmp_path / "grid.csv")
    code, out, _ = run_cli(capsys, "sample", "--metric", "catalog:funk",
                           "--grid=-0.5:0.5:21,-0.5:0.5:21",
                           "--y", "0,1", "--out", out_file)
    assert code == 0
    assert json.loads(out)["rows"] == 441
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "y1", "y2", "F", "P", "K"]
    assert len(rows) == 442
    # round trip: re-evaluate F from the parsed coordinates, exact match
    funk = as_evaluator(catalog_entry("funk", 2))
    for row in rows[1:6]:
        x = np.array([float(row[0]), float(row[1])])
        y = np.array([float(row[2]), float(row[3])])
        assert float(row[4]) == pytest.approx(f_at(funk, x, y), abs=1e-12)


def test_sample_constant_column_for_flat_norm(tmp_path, capsys):
    out_file = str(tmp_path / "flat.csv")
    code, out, _ = run_cli(capsys, "sample", "--metric", "construct:0:euclidean:zero",
                           "--grid=-0.2:0.2:3,-0.2:0.2:3",
                           "--y", "0,1", "--out", out_file)
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))[1:]
    values = {row[4] for row in rows}
    assert values == {"1.0"}


def test_sample_grid_over_y(tmp_path, capsys):
    out_file = str(tmp_path / "ygrid.csv")
    code, out, _ = run_cli(capsys, "sample", "--metric", "catalog:funk",
                           "--grid", "0.5:1.5:3,0.5:1.5:3", "--x", "0.2,0",
                           "--out", out_file)
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 10
    funk = as_evaluator(catalog_entry("funk", 2))
    row = rows[1]
    assert float(row[0]) == 0.2 and float(row[1]) == 0.0
    want = f_at(funk, [0.2, 0.0], [float(row[2]), float(row[3])])
    assert float(row[4]) == pytest.approx(want, abs=1e-12)


def test_sample_marks_domain_exits(tmp_path, capsys):
    out_file = str(tmp_path / "partial.csv")
    code, out, _ = run_cli(capsys, "sample", "--metric", "catalog:funk",
                           "--grid", "0.0:1.2:4,0:0:1", "--y", "0,1",
                           "--out", out_file)
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[-1][4] == ""  # x1 = 1.2 is outside the unit ball
    assert rows[0][4] != ""


def test_sample_solves_no_curvature_rows_beyond_the_radius(tmp_path, capsys, monkeypatch):
    """A grid point whose F fails the radius guard asks nothing of K's
    rows: on construct:-1:euclidean:scaled:0.3, an 8 x 8 grid over
    [-1.1 R, 1.1 R]^2 solves 128 rows (192 while the P-only K rows of the
    32 points outside were solved), and the CSV holds what the three-call
    composition of ``oracles`` gives, blank where a point fails."""
    spec = "construct:-1:euclidean:scaled:0.3"
    metric = parse_metric(spec, 2, SolverConfig())
    solved, build = [], cli.build_kneg1

    def counted_build(*args):
        built = build(*args)

        def solve(x, y, with_f, with_p, guess=None):
            solved.append(len(y))
            return built.solve(x, y, with_f, with_p, guess)
        return dataclasses.replace(built, solve=solve)

    monkeypatch.setattr(cli, "build_kneg1", counted_build)
    edge = 1.1 * metric.domain_radius
    out_file = str(tmp_path / "crossing.csv")
    code, _, _ = run_cli(capsys, "sample", "--metric", spec, "--y", "0.6,0.8",
                         f"--grid={-edge!r}:{edge!r}:8,{-edge!r}:{edge!r}:8", "--out", out_file)
    assert code == 0 and sum(solved) == 128
    with open(out_file) as fh:
        rows = list(csv.reader(fh))[1:]
    xs = np.array([[float(v) for v in row[:2]] for row in rows])
    ys = np.broadcast_to([0.6, 0.8], xs.shape)
    f, p, k, errors = point_values_composed(metric, xs, ys)
    assert sum(exc is not None for exc in errors) == 32
    assert [row[4:] for row in rows] == [
        ["", "", ""] if exc is not None else [repr(float(v)) for v in (fv, pv, kv)]
        for fv, pv, kv, exc in zip(f, p, k, errors)]


def test_geodesic_command(tmp_path, capsys):
    out_file = str(tmp_path / "traj.csv")
    code, out, _ = run_cli(capsys, "geodesic", "--metric", "catalog:funk",
                           "--x", "0.1,0", "--y", "0,1", "--t-end", "0.5",
                           "--steps", "100", "--out", out_file)
    assert code == 0
    data = json.loads(out)
    assert data["collinearity"] <= 1e-8
    assert data["completed"] is True
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert len(rows) == data["points"] + 1


K0_RANDERS = "construct:0:euclidean:randers:0.2,0.1"


@pytest.mark.parametrize("name, argv", [
    # a grid over x that crosses the validity radius: blank rows outside it
    ("sample_k0_randers_y.csv", ("sample", "--metric", K0_RANDERS, "--y", "0.6,0.8",
                                 "--grid=-0.5:0.5:6,-0.5:0.5:6")),
    ("sample_funk_y.csv", ("sample", "--metric", "catalog:funk", "--y", "0.6,0.8",
                           "--grid=-1.2:1.2:6,-1.2:1.2:6")),
    # a grid over y that holds y = 0, a blank row
    ("sample_k0_randers_x.csv", ("sample", "--metric", K0_RANDERS, "--x", "0.1,0",
                                 "--grid=-1:1:3,-1:1:3")),
    ("sample_funk_x.csv", ("sample", "--metric", "catalog:funk", "--x", "0.1,0",
                           "--grid=-1:1:3,-1:1:3")),
    ("geodesic_k0_randers.csv", ("geodesic", "--metric", K0_RANDERS, "--x", "0.1,0.05",
                                 "--y", "0.3,1", "--t-end", "0.2", "--steps", "20")),
])
def test_csv_bytes_are_pinned(tmp_path, capsys, name, argv):
    # recorded while every cell was formatted one by one
    out_file = tmp_path / name
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    with open(os.path.join(DATA_DIR, name), "rb") as fh:
        assert out_file.read_bytes() == fh.read()


@pytest.mark.parametrize("spec, radius", [
    ("catalog:funk", "1"), ("construct:1:dsr-b:1,1:dsr-a:1,1", "0.336361"),
    ("construct:1:bryant:0.5236", "0.4"), ("construct:0:euclidean:randers:0.2,0.1", "0.326906")])
def test_geodesic_start_outside_the_validity_ball_is_a_domain_error(capsys, spec, radius):
    # refused before any step: the exact P is not radius-guarded, and a
    # closed form's guard used to end the trajectory at its start, exit 0
    code, out, err = run_cli(capsys, "geodesic", "--metric", spec, "--x", "2,0", "--y", "0,1")
    assert (code, out) == (3, "")
    assert json.loads(err.splitlines()[-1])["error"] == {
        "type": "domain",
        "message": f"|x| = 2 exceeds the validity radius {radius} of this evaluator"}


@pytest.mark.parametrize("spec", ["construct:0:euclidean:zero", "catalog:space-form:0"])
def test_geodesic_check_refuses_starts_that_fail_the_point_guard(capsys, spec):
    """At --radius 1e300 every start's squared length overflows, so no
    trajectory could take a step and each would score 0.0: the geodesic
    check must refuse the starts with the point guard's error, with no
    overflow warning, as the hamel check refuses the same samples."""
    for check in ("geodesic", "hamel"):
        code, out, err = run_cli(capsys, "verify", "--metric", spec, "--radius", "1e300",
                                 "--samples", "2", "--checks", check)
        assert (code, out) == (3, ""), check
        assert err.splitlines() == [json.dumps({"error": {
            "type": "domain", "message": "x and y must be finite, with finite squared lengths"}})]


@pytest.mark.parametrize("argv", [
    ("verify", "--metric", "catalog:bryant:0.5236", "--radius", "1e100", "--samples", "2",
     "--checks", "geodesic"),
    ("geodesic", "--metric", "catalog:funk", "--x", "0.9999999999,0", "--y", "0,1",
     "--steps", "5"),
    *[("geodesic", "--metric", spec, "--x", "0.1,0", "--y", "0,1", "--steps", "3",
       "--t-end", "1e308")
      for spec in ("catalog:funk", "catalog:bryant:0.5236", "construct:1:bryant:0.5236")]])
def test_a_trajectory_that_did_not_move_exits_3(capsys, argv):
    """Starts near 1e99, where x + t v rounds to x, a start whose first
    step leaves the domain, and a step so long that its stage points
    overflow: no trajectory moves, so nothing is measured and the score is
    nan, not a perfect 0.0, with no overflow warning."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.splitlines() == [json.dumps({"error": {
        "type": "domain", "message": "an output value is not finite"}})]


@pytest.mark.parametrize("argv", [
    ["--metric", "construct:0:randers:0,1,1e308:euclidean", "--dim", "3", "--radius", "0.1"],
    ["--metric", "construct:0:scaled:1e308:dsr-b:1,1"],
    ["--metric", "construct:0:randers:-1e308,1e300:scaled:-0.5"],
    ["--metric", "construct:0:randers:1e-300,1e308:dsr-b:1,1", "--radius", "0.01"],
    ["--metric", "catalog:space-form:1e308"]])
def test_verify_at_extreme_norm_parameters_exits_3_without_a_warning(capsys, argv):
    """Huge norm parameters make finite differences, a Hessian or the mean
    K overflow: the report is not finite, so ``verify`` exits 3, with no
    numpy warning (pytest turns one into an error, exit 5) and no
    eigenvalue error from a non-finite Hessian (exit 2)."""
    code, out, err = run_cli(capsys, "verify", *argv, "--samples", "3")
    assert (code, out) == (3, "")
    assert err.splitlines() == [json.dumps({"error": {
        "type": "domain", "message": "an output value is not finite"}})]


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 9
    names = {e["name"] for e in data["entries"]}
    assert "funk" in names and "zhou" in names


def test_catalog_listing_in_one_dimension(capsys):
    # dsr-new needs two blocks; the other eight entries evaluate at d = 1
    code, out, _ = run_cli(capsys, "catalog", "--dim", "1")
    assert code == 0
    names = [e["name"] for e in json.loads(out)["entries"]]
    assert names == [n for n in cli.cat.CATALOG_NAMES if n != "dsr-new"]
    for entry in cli.cat.list_catalog(1):
        for x, y in (([0.1], [1.0]), ([-0.2], [-0.5])):
            value = f_at(cli.cat.as_evaluator(entry), x, y)
            assert math.isfinite(value) and value > 0.0


def test_catalog_listing_is_pinned(capsys):
    # stdout of `catalog --dim 1`, `2`, `3` and `5`, one line each, as
    # listed before the entries were declared in one table
    with open(os.path.join(DATA_DIR, "catalog_listing.txt")) as fh:
        want = fh.read().splitlines(keepends=True)
    got = [run_cli(capsys, "catalog", "--dim", dim)[:2] for dim in ("1", "2", "3", "5")]
    assert got == [(0, line) for line in want]


def test_parser_is_built_once_and_requests_stay_independent(capsys, tmp_path):
    """Two main calls build one parser, and a mixed sequence of requests in
    one process prints what each request prints with a parser of its own."""
    requests = [
        ["verify", "--metric", "catalog:funk", "--checks", "hamel,curvature",
         "--samples", "4"],
        ["eval", "--metric", "catalog:zhou:0.25,2,-", "--x", "0.1,0", "--y", "0,1"],
        ["eval", "--metric", "catalog:funk", "--x", "0,0", "--y", "0,1", "--radius", "1"],
        ["sample", "--metric", "catalog:sph-k0:-0.4,+", "--y", "0,1",
         "--grid=-0.1:0.1:3,0:0.1:2", "--out", str(tmp_path / "grid.csv")],
        ["compare", "--metric", "catalog:space-form:0.5", "--metric-b",
         "catalog:space-form:0.5", "--samples", "5"],
        ["catalog", "--dim", "3"],
        ["verify", "--metric", "catalog:funk", "--checks", "hamel,curvature",
         "--samples", "4"],
    ]
    alone = []
    for argv in requests:
        cli._build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv)[:2])
    cli._build_parser.cache_clear()
    mixed = [run_cli(capsys, *argv)[:2] for argv in requests]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(requests) - 1)
    assert mixed == alone
    assert [code for code, _ in mixed] == [0, 0, 2, 0, 0, 0, 0]


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--metric", "catalog:nosuch",
                           "--x", "0,0", "--y", "1,0")
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "parse"


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--metric", "catalog:funk",
                           "--x", "1.5,0", "--y", "1,0")
    assert code == 3
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "domain"
    # a nonzero y whose length underflows to 0 is y = 0 for the evaluator
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "eval", "--metric",
                               "construct:0:euclidean:randers:0.2,0.1",
                               "--x", "0,0", "--y", "1e-300,0")
    assert code == 3
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "domain"
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("metric, curvature", [
    ("construct:0:euclidean:randers:0.2,0.1", 0.0), ("catalog:funk", -0.25)])
def test_eval_curvature_at_tiny_y(capsys, metric, curvature):
    # K has degree 0 in y: a y whose F^2 is subnormal gives the same K
    code, out, _ = run_cli(capsys, "eval", "--metric", metric,
                           "--x", "0,0", "--y", "1e-160,1e-160")
    assert code == 0
    assert json.loads(out)["K_numeric"] == pytest.approx(curvature, abs=1e-4)


@pytest.mark.parametrize("metric, x, scale", [
    ("construct:0:euclidean:randers:0.2,0.1", "0.1,0.05", 1e-20),
    ("construct:-1:euclidean:scaled:0.3", "0.1,0.05", 1e-20),
    ("construct:1:bryant:0.5236", "0.1,0.05", 1e-8),
    ("construct:0:dsr-b:1,1:dsr-a:1,1", "0.05,0", 1e-150)])
def test_eval_has_degree_one_at_tiny_y(capsys, metric, x, scale):
    # the solves stop on absolute floors, so a tiny y is solved rescaled
    code, out, _ = run_cli(capsys, "eval", "--metric", metric, "--x", x, "--y", "1,1")
    assert code == 0
    unit = json.loads(out)
    code, out, _ = run_cli(capsys, "eval", "--metric", metric, "--x", x,
                           "--y", f"{scale!r},{scale!r}")
    assert code == 0
    tiny = json.loads(out)
    for key in ("F", "P"):
        assert tiny[key] == pytest.approx(scale * unit[key], rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("branch", ["+", "-"])
@pytest.mark.parametrize("x", ["0.1,0", "0.1,0,0.05"])
def test_sph_k0_has_degree_one_where_its_quartic_underflows(capsys, branch, x):
    # |y|^4 underflows near |y| = 1e-100, so sph-k0 evaluates such a y rescaled
    metric, d = f"catalog:sph-k0:0.3,{branch}", x.count(",") + 1
    y = np.full(d, 1e-100)
    code, out, _ = run_cli(capsys, "eval", "--metric", metric, "--x", x,
                           "--y", ",".join(map(repr, y.tolist())))
    assert code == 0
    length = float(np.linalg.norm(y))
    code, unit, _ = run_cli(capsys, "eval", "--metric", metric, "--x", x,
                            "--y", ",".join(map(repr, (y / length).tolist())))
    assert code == 0
    assert json.loads(out)["F"] == pytest.approx(length * json.loads(unit)["F"],
                                                 rel=1e-12, abs=0.0)


SPH_K0_LARGE_Y = "3.9941075755111586e+95,2.6284627315109884e+96"


def test_sph_k0_has_degree_one_where_its_quartic_overflows(capsys):
    # |y|^4 overflows beyond |y| = 1.2e77, so sph-k0 evaluates such a y at
    # y 2^-e, e the exponent of its largest entry, and F is 2^e F(x, y 2^-e)
    x = "-0.019566642440506182,-0.03604462887829899"
    code, out, err = run_cli(capsys, "eval", "--metric", "catalog:sph-k0:0.3,-", f"--x={x}",
                             f"--y={SPH_K0_LARGE_Y}")
    assert code == 0, err
    y = np.array([float(v) for v in SPH_K0_LARGE_Y.split(",")])
    e = math.frexp(float(np.abs(y).max()))[1]
    code, scaled, _ = run_cli(capsys, "eval", "--metric", "catalog:sph-k0:0.3,-", f"--x={x}",
                              "--y", ",".join(map(repr, np.ldexp(y, -e).tolist())))
    assert code == 0
    assert json.loads(out)["F"] == math.ldexp(json.loads(scaled)["F"], e)
    assert all(math.isfinite(v) for v in json.loads(out).values())


def test_sample_writes_no_inf_where_sph_k0_quartic_overflows(tmp_path, capsys):
    path = tmp_path / "k0.csv"
    code, _, err = run_cli(capsys, "sample", "--metric", "catalog:sph-k0:0.3,-",
                           f"--y={SPH_K0_LARGE_Y}", "--grid=-0.1:0.1:2,-0.1:0.1:2",
                           "--out", str(path))
    assert code == 0, err
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(math.isfinite(float(row[key])) for row in rows for key in ("F", "P", "K"))


def test_geodesic_under_an_unreachable_tolerance_exits_4(capsys):
    # the start is solved without a guess, and fails the tolerance
    code, _, err = run_cli(capsys, "geodesic", "--metric", "construct:-1:euclidean:scaled:0.3",
                           "--x", "0.1,0", "--y", "0,1", "--solver-tol", "1e-20")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "solver"


def test_exit_code_solver_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--metric",
                           "construct:0:euclidean:randers:0.2,-0.3",
                           "--x", "0.2,0.1", "--y", "5,-2",
                           "--solver-iters", "1", "--solver-tol", "1e-15")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "solver"


# F and P evaluations per sample point (per trajectory for geodesic) of
# each check, counted as rows asked of the evaluator (F rows from the
# with_f mask, P rows from the with_p mask); the funk F column is the
# benchmark's cross-check.  A closed form's P rows evaluate F three times
# each through a nested rows call, counted in its F column.  A
# construction's geodesic asks F and P at each start (its first stage)
# for the ray law's guesses, then P alone at each later stage.
EVALS_PER_POINT = {
    "catalog:funk": {"hamel": (34, 0), "curvature": (10, 3), "berwald": (77, 13),
                     "convexity": (10, 0), "geodesic": (1200, 400), "pde": (72, 18)},
    "construct:0:euclidean:randers:0.2,0.1": {
        "hamel": (34, 0), "curvature": (1, 3), "berwald": (38, 13),
        "convexity": (10, 0), "geodesic": (1, 400), "pde": (0, 9)},
    # K != 0: pde evaluates F and P together for each transport field P + c F
    "construct:-1:euclidean:scaled:0.3": {
        "hamel": (34, 0), "curvature": (1, 3), "berwald": (38, 13),
        "convexity": (10, 0), "geodesic": (1, 400), "pde": (18, 18)},
    "construct:1:bryant:0.5236": {
        "hamel": (34, 0), "curvature": (1, 3), "berwald": (38, 13),
        "convexity": (10, 0), "geodesic": (1, 400), "pde": (9, 9)},
}


@pytest.mark.parametrize("spec", sorted(EVALS_PER_POINT))
def test_verify_checks_evaluations_per_point(spec, monkeypatch):
    metric = parse_metric(spec, 2, SolverConfig())
    counts = {}
    rows, one = MetricEvaluator.rows, MetricEvaluator.eval

    def counted_rows(self, x, y, with_f=True, with_p=False, guess=None):
        counts["F"] += int(np.count_nonzero(np.broadcast_to(with_f, len(x))))
        counts["P"] += int(np.count_nonzero(np.broadcast_to(with_p, len(x))))
        return rows(self, x, y, with_f, with_p, guess)

    def counted_eval(self, x, y):
        counts["eval"] += 1
        return one(self, x, y)

    monkeypatch.setattr(MetricEvaluator, "rows", counted_rows)
    monkeypatch.setattr(MetricEvaluator, "eval", counted_eval)
    for name, (f_want, p_want) in EVALS_PER_POINT[spec].items():
        counts.update(F=0, P=0, eval=0)
        report = cli._run_check(name, metric, np.random.default_rng(3), 0.2, 4,
                                cli.DEFAULT_TOLERANCES[name])
        assert report["pass"], name
        points = report["samples"]
        assert (counts["F"], counts["P"]) == (f_want * points, p_want * points), name
        # a closed form runs its rows through eval one at a time
        assert counts["eval"] == (counts["F"] if metric.solve is None else 0), name


BENCHMARK_CONSTRUCTIONS = ["construct:0:euclidean:randers:0.2,0.1",
                           "construct:-1:euclidean:scaled:0.3",
                           "construct:1:bryant:0.5236",
                           "construct:1:dsr-b:1,1:dsr-a:1,1"]


@pytest.mark.parametrize("spec", BENCHMARK_CONSTRUCTIONS + ["catalog:funk", "test:broken"])
def test_one_rows_call_per_command_and_check(spec, capsys, tmp_path, monkeypatch):
    # each of these reads every stencil point it needs, F, P or both, from
    # one rows call; a closed form's P rows make one nested rows call for
    # the F of their difference quotients
    calls, depth = [], [0]
    rows = MetricEvaluator.rows

    def counted_rows(self, x, y, with_f=True, with_p=False, guess=None):
        calls.append((depth[0], bool(np.any(with_p))))
        depth[0] += 1
        try:
            return rows(self, x, y, with_f, with_p, guess)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(MetricEvaluator, "rows", counted_rows)
    want = [(0, True)] if spec.startswith("construct:") else [(0, True), (1, False)]
    out = str(tmp_path / "grid.csv")
    for argv in (["eval", "--metric", spec, "--x", "0.1,0", "--y", "0,1"],
                 ["sample", "--metric", spec, "--y", "0.6,0.8",
                  "--grid=-0.2:0.2:8,-0.2:0.2:8", "--out", out],
                 ["verify", "--metric", spec, "--checks", "curvature"],
                 ["verify", "--metric", spec, "--checks", "berwald"]):
        calls.clear()
        assert main(argv) == (1 if spec == "test:broken" and argv[0] == "verify" else 0), argv
        assert calls == want, argv
    capsys.readouterr()


def test_repeated_check_runs_once(capsys, monkeypatch):
    """``--checks`` runs each named check once, in the order first named:
    a repeated name changes neither the output nor the work."""
    ran, run_check = [], cli._run_check

    def counted(name, *args):
        ran.append(name)
        return run_check(name, *args)

    monkeypatch.setattr(cli, "_run_check", counted)
    base = ("verify", "--metric", "catalog:funk", "--samples", "5", "--checks")
    twice = run_cli(capsys, *base, "curvature,hamel,curvature, hamel")
    assert ran == ["curvature", "hamel"]
    assert twice == run_cli(capsys, *base, "curvature,hamel")
    assert twice[2] == "verify catalog:funk: curvature=ok hamel=ok\n"


def test_determinism_byte_identical(capsys):
    args = ("verify", "--metric", "catalog:funk", "--checks", "hamel,curvature",
            "--radius", "0.5", "--samples", "25", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_metric_spec_parsing_errors():
    cfg = SolverConfig()
    with pytest.raises(Exception):
        parse_metric("construct:2:euclidean:zero", 2, cfg)
    with pytest.raises(Exception):
        parse_metric("construct:0:euclidean", 2, cfg)
    with pytest.raises(Exception):
        parse_metric("banana", 2, cfg)
    # bryant:<alpha> names both norms
    m = parse_metric("construct:1:bryant:0.5236", 2, cfg)
    assert m.kind == "constructed-Kpos1"


# construct:<K> takes exactly two norms; bryant:<alpha> counts as two
@pytest.mark.parametrize("spec, code, kind", [
    ("construct:1:euclidean", 2, "parse"),
    ("construct:1:euclidean:bryant:0.5", 2, "parse"),
    ("construct:1:bryant:0.5:euclidean", 2, "parse"),
    ("construct:0:bryant:0.5:euclidean", 2, "parse"),
    ("construct:0:bryant:0.5", 0, None),
    ("construct:-1:bryant:0.5", 0, None),
    ("construct:1:bryant:0.5", 0, None),
    ("construct:0", 2, "parse"),
    ("construct:2:euclidean:zero", 2, "parse"),
    ("construct:0:nope:zero", 2, "parse"),
    ("construct:1:bryant", 2, "parse"),
    ("construct:1:bryant:2.0", 2, "parse"),
    ("construct:0:randers:0.1:zero", 2, "parse"),
    ("construct:1:dsr-b:1,1:dsr-a:2,1", 2, "parse"),
])
def test_construct_spec_grammar(capsys, spec, code, kind):
    got, out, err = run_cli(capsys, "eval", "--metric", spec, "--x", "0.1,0", "--y", "0,1")
    assert got == code, err
    if kind is None:
        assert set(json.loads(out)) == {"F", "P", "K_numeric"}
    else:
        assert out == ""
        assert json.loads(err.splitlines()[-1])["error"]["type"] == kind


def test_construct_bryant_output_is_pinned(capsys):
    # stdout as printed while bryant:<alpha> was a packaged pair norm
    with open(os.path.join(DATA_DIR, "construct_bryant.txt")) as fh:
        want = fh.read().splitlines(keepends=True)
    spec = "construct:1:bryant:0.5236"
    got = [run_cli(capsys, *argv)[:2] for argv in (
        ("eval", "--metric", spec, "--x", "0.1,0", "--y", "0,1"),
        ("verify", "--metric", spec, "--checks", "hamel,pde", "--samples", "4"),
        ("compare", "--metric", spec, "--metric-b", "catalog:bryant:0.5236"))]
    assert got == [(0, line) for line in want]


def test_verify_constructed_output_is_pinned(capsys):
    # stdout of verify with all six checks, recorded while the solves still
    # called the checked public norm methods on every iteration
    with open(os.path.join(DATA_DIR, "verify_constructed.txt")) as fh:
        want = fh.read().splitlines(keepends=True)
    runs = [("construct:0:euclidean:randers:0.2,0.1", "2"),
            ("construct:-1:euclidean:scaled:0.3", "2"), ("construct:1:bryant:0.5236", "2"),
            ("construct:1:dsr-b:1,1:dsr-a:1,1", "2"), ("construct:1:dsr-b:2,1:dsr-a:2,1", "3")]
    got = [run_cli(capsys, "verify", "--metric", spec, "--dim", dim, "--checks",
                   "hamel,curvature,berwald,convexity,geodesic,pde", "--samples", "4",
                   "--radius", "0.2", "--seed", "42")[:2] for spec, dim in runs]
    assert got == [(0, line) for line in want]


VERIFY_FAILING_RUNS = [
    # hamel, curvature, berwald and pde each list the 10 largest of their failures
    ("--metric", "test:broken", "--samples", "30"),
    ("--metric", "test:broken", "--dim", "3", "--samples", "25", "--radius", "0.5"),
    # two failing checks beside passing ones that carry "extra"
    ("--metric", "catalog:funk", "--samples", "30",
     "--tol-override", "hamel=1e-12,pde=1e-12,convexity=1"),
    # 7 convexity failures, below the cap, and 5 geodesic failures listing start rows
    ("--metric", "construct:0:randers:1.2,0:zero", "--samples", "30",
     "--checks", "convexity,geodesic", "--tol-override", "geodesic=-1"),
]


def test_verify_failing_output_is_pinned(capsys):
    # each line: the exit code, a space, then the stdout of one failing verify run
    with open(os.path.join(DATA_DIR, "verify_failing.txt")) as fh:
        want = [line.split(" ", 1) for line in fh.read().splitlines(keepends=True)]
    got = [run_cli(capsys, "verify", *argv)[:2] for argv in VERIFY_FAILING_RUNS]
    assert got == [(int(code), out) for code, out in want]
    assert all(code == 1 for code, _ in got)


def test_cli_import_and_build_load_no_random_or_statistics():
    """``import projflat.cli`` and building the four benchmark
    constructions load neither ``numpy.random`` nor ``statistics``: a
    command draws random points, or directions above dim 3, before it
    pays for either."""
    code = (
        "import sys\n"
        "from projflat.cli import parse_metric\n"
        "from projflat.solver import SolverConfig\n"
        "for spec in ('construct:0:euclidean:randers:0.2,0.1',\n"
        "             'construct:-1:euclidean:scaled:0.3', 'construct:1:bryant:0.5236',\n"
        "             'construct:1:dsr-b:1,1:dsr-a:1,1'):\n"
        "    parse_metric(spec, 2, SolverConfig())\n"
        "print(sorted({'numpy.random', 'statistics'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("spec", [
    "construct:0:euclidean:scaled:nan", "construct:-1:euclidean:randers:nan,0",
    "construct:1:scaled:inf:zero", "construct:0:euclidean:randers:0.1,-inf",
    "catalog:space-form:nan", "catalog:sph-k0:nan,+", "catalog:sph-kneg1:inf"])
def test_non_finite_parameters_are_parse_errors(spec):
    proc = subprocess.run(
        [sys.executable, "-m", "projflat", "eval", "--metric", spec, "--x", "0.1,0",
         "--y", "0,1"], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["error"]["type"] == "parse"


@pytest.mark.parametrize("spec", [
    "construct:0:zero:zero", "construct:1:zero:zero", "construct:0:scaled:1e-320:zero"])
def test_vanishing_f_is_a_domain_error(spec):
    """F = 0, or an F whose square underflows, has no flag curvature: exit 3
    at the K step, with no numpy warning on the way."""
    proc = subprocess.run(
        [sys.executable, "-m", "projflat", "eval", "--metric", spec, "--x", "0.1,0",
         "--y", "0,1"], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 3, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == {
        "type": "domain", "message": "flag curvature requires F^2 > 0"}


@pytest.mark.parametrize("spec, code", [
    ("construct:0:scaled:1e200:zero", 0), ("construct:0:euclidean:scaled:1e300", 4),
    ("construct:1:scaled:1e300:zero", 4), ("construct:-1:scaled:1e300:zero", 4)])
def test_huge_finite_parameters_print_no_numpy_warning(spec, code):
    """A huge finite norm parameter gives a tiny validity radius and a huge
    F; the radius estimate and the flag curvature rescale such rows by a
    power of two instead of overflowing."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "projflat", "eval",
         "--metric", spec, "--x", "0,0", "--y", "1,0"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    if code == 0:
        assert json.loads(proc.stdout) == {"F": 1e200, "P": 0.0, "K_numeric": 0.0}


@pytest.mark.parametrize("spec, x, y, message", [
    ("catalog:berwald", "0.5,0", "1.3e154,0", "catalog:berwald formula overflows at this point"),
    ("catalog:sph-kneg1:1e80", "0,0", "1,0", "catalog:sph-kneg1 formula overflows at this point"),
    ("catalog:zhou:0.5,1e200,+", "0,0", "1,0",
     "catalog:zhou formula fails (math domain error) at this point")])
def test_closed_form_arithmetic_failure_is_a_domain_error(spec, x, y, message):
    """A closed form whose formula overflows or leaves math's domain at a
    point fails that row with a DomainError: exit 3, with no numpy
    warning (these exited 5 and 2 while the formula's own exception
    escaped)."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "projflat", "eval",
         "--metric", spec, "--x", x, "--y", y],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 3, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == {"type": "domain", "message": message}


def test_non_finite_output_is_a_domain_error(capsys, monkeypatch):
    def values(metric, x, y):
        return np.array([math.inf]), np.array([1.0]), np.array([0.0]), [None]

    monkeypatch.setattr(cli.vfy, "point_values", values)
    code, out, err = run_cli(capsys, "eval", "--metric", "catalog:funk",
                             "--x", "0,0", "--y", "1,0")
    assert (code, out) == (3, "")
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "domain"


def test_sample_blanks_a_constructed_row_whose_f_overflows(tmp_path, capsys):
    """psi = 1e200 |y| at y = (1e150, 1) gives F = inf: the row is blank
    and not counted, with no numpy warning (pytest turns one into an
    error); ``eval`` at that point exits 3 with the row's own error."""
    out_file = str(tmp_path / "f.csv")
    code, out, _ = run_cli(capsys, "sample", "--metric", "construct:0:scaled:1e200:zero",
                           "--x", "0,0", "--grid=1e150:1e150:1,1:1:1", "--out", out_file)
    assert code == 0
    assert json.loads(out.splitlines()[0]) == {"out": out_file, "rows": 1, "evaluated": 0}
    with open(out_file) as fh:
        assert list(csv.reader(fh))[1][4:] == ["", "", ""]
    code, out, err = run_cli(capsys, "eval", "--metric", "construct:0:scaled:1e200:zero",
                             "--x", "0,0", "--y", "1e150,1")
    assert (code, out) == (3, "")
    assert json.loads(err.splitlines()[-1])["error"] == {
        "type": "domain", "message": "constructed-K0 gives F = inf at this point"}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "projflat", "eval", "--metric", "catalog:funk",
         "--x", "0.5,0", "--y", "0,1"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["F"] == pytest.approx(1.1547005, abs=1e-6)


def test_thread_env_does_not_change_output(tmp_path):
    base = [sys.executable, "-m", "projflat", "verify", "--metric", "catalog:funk",
            "--checks", "hamel", "--radius", "0.4", "--samples", "16", "--seed", "3"]
    a = subprocess.run(base, capture_output=True, text=True,
                       env=child_env(FINSLER_THREADS="1"), cwd=tmp_path)
    b = subprocess.run(base, capture_output=True, text=True,
                       env=child_env(FINSLER_THREADS="4"), cwd=tmp_path)
    assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
    assert a.stdout == b.stdout


FUNK_PAIR = ("--metric", "catalog:funk", "--metric-b", "catalog:funk")
BRYANT_EVAL = ("eval", "--metric", "construct:1:bryant:0.5236", "--x", "0.1,0", "--y", "0,1")
RANDERS_EVAL = ("eval", "--metric", "construct:0:euclidean:randers:0.2,0.1", "--x", "0.1,0",
                "--y", "0,1")
FUNK_GEODESIC = ("geodesic", "--metric", "catalog:funk", "--x", "0.1,0", "--y", "0,1")
FUNK_HAMEL = ("verify", "--metric", "catalog:funk", "--checks", "hamel")


@pytest.mark.parametrize("argv, message", [
    (("verify", "--metric", "test:broken", "--checks", "hamel", "--samples", "0"), "--samples"),
    (("verify", "--metric", "catalog:funk", "--checks", "hamel", "--radius", "-1"), "--radius"),
    (("verify", "--metric", "catalog:funk", "--checks", "hamel", "--radius", "0"), "--radius"),
    (("compare",) + FUNK_PAIR + ("--samples", "0"), "--samples"),
    (("compare",) + FUNK_PAIR + ("--radius", "-1"), "--radius"),
    (("verify", "--metric", "catalog:funk", "--checks", "hamel", "--dim", "0"), "--dim"),
    (("compare",) + FUNK_PAIR + ("--dim", "0"), "--dim"),
    (("eval", "--metric", "catalog:funk", "--x", "nan,0", "--y", "0,1"), "non-finite"),
    (("eval", "--metric", "catalog:funk", "--x", "0,0", "--y", "inf,1"), "non-finite"),
    (("geodesic", "--metric", "catalog:funk", "--x", "0.1,0", "--y", "0,1", "--steps", "0"),
     "--steps"),
    (("sample", "--metric", "catalog:funk", "--grid=nan:0.5:3,0:0:1", "--y", "0,1",
      "--out", "unused.csv"), "non-finite"),
    (BRYANT_EVAL + ("--solver-tol", "0"), "--solver-tol"),
    (BRYANT_EVAL + ("--solver-tol", "nan"), "--solver-tol"),
    (BRYANT_EVAL + ("--solver-tol", "inf"), "--solver-tol"),
    (RANDERS_EVAL + ("--solver-tol", "nan"), "--solver-tol"),
    (RANDERS_EVAL + ("--solver-tol", "inf"), "--solver-tol"),
    (BRYANT_EVAL + ("--solver-iters", "0"), "--solver-iters"),
    (BRYANT_EVAL + ("--solver-damping", "0"), "unrecognized arguments: --solver-damping"),
    (FUNK_GEODESIC + ("--t-end", "nan"), "--t-end"),
    (FUNK_GEODESIC + ("--t-end", "inf"), "--t-end"),
    (FUNK_GEODESIC + ("--t-end", "0"), "--t-end"),
    (FUNK_GEODESIC + ("--t-end", "-0.5"), "--t-end"),
    (FUNK_HAMEL + ("--tol-override", "hamel=nan"), "--tol-override"),
    (FUNK_HAMEL + ("--tol-override", "hamel=inf"), "--tol-override"),
    (FUNK_HAMEL + ("--tol-override", "convexity=-inf"), "--tol-override"),
    # a vector whose squared length overflows
    (("eval", "--metric", "catalog:funk", "--x", "0,0", "--y", "1e300,1"), "--y"),
    (("eval", "--metric", "construct:0:euclidean:randers:0.2,0.1", "--x", "0,0",
      "--y", "1e300,1"), "--y"),
    (("eval", "--metric", "catalog:funk", "--x", "1e300,0", "--y", "0,1"), "--x"),
    (("geodesic", "--metric", "catalog:funk", "--x", "0,0", "--y", "1e300,1",
      "--steps", "5"), "--y"),
    (("sample", "--metric", "catalog:funk", "--grid=1e200:1e200:1,0:0:1", "--y", "0,1",
      "--out", "unused.csv"), "--grid"),
    (("sample", "--metric", "catalog:funk", "--grid=0:0.5:3,0:0:1", "--y", "1e300,1",
      "--out", "unused.csv"), "--y"),
    # flags a subcommand does not read
    (("eval", "--metric", "catalog:funk", "--dim", "3", "--x", "0.1,0", "--y", "0,1"),
     "--dim"),
    (("eval", "--metric", "catalog:funk", "--seed", "1", "--x", "0.1,0", "--y", "0,1"),
     "--seed"),
    (("sample", "--metric", "catalog:funk", "--grid=0:0.5:3,0:0:1", "--y", "0,1",
      "--out", "unused.csv", "--seed", "1"), "--seed"),
    (FUNK_GEODESIC + ("--dim", "2"), "--dim"),
    (("catalog", "--solver-tol", "0", "--solver-iters", "-3"), "--solver-tol"),
    (("catalog", "--solver-damping", "0.5"), "unrecognized arguments: --solver-damping"),
    (("catalog", "--seed", "1"), "--seed"),
    (("catalog", "--dim", "0"), "--dim"),
    (("catalog", "--dim", "-2"), "--dim"),
    (FUNK_HAMEL + ("--tol-override", "hamel=abc"), "--tol-override"),
    (("sample", "--metric", "catalog:funk", "--grid=a:1:2,0:1:2", "--y", "0,1",
      "--out", "unused.csv"), "--grid"),
    (("sample", "--metric", "catalog:funk", "--grid=0:1:2.5,0:1:2", "--y", "0,1",
      "--out", "unused.csv"), "--grid"),
    (FUNK_HAMEL + ("--seed", "-1"), "--seed"),
    (("compare",) + FUNK_PAIR + ("--seed", "-1"), "--seed"),
    (("verify", "--metric", "catalog:funk", "--checks", "bogus"), "--checks"),
    # a grid span that overflows
    (("sample", "--metric", "catalog:space-form:0", "--y", "0,0.5",
      "--grid=1e308:-1e308:2,0:1:2", "--out", "unused.csv"), "--grid"),
    (("sample", "--metric", "catalog:funk", "--grid=0:0.5:3,0:0:1", "--out", "unused.csv"),
     "--x --y"),
    (("sample", "--metric", "catalog:funk", "--grid=0:0.5:3,0:0:1", "--x", "0,0", "--y", "0,1",
      "--out", "unused.csv"), "--x"),
    # an --out file under a missing directory (the test runs in tmp_path)
    (("sample", "--metric", "catalog:funk", "--grid=0:0.5:3,0:0:1", "--y", "0,1",
      "--out", "missing/a.csv"), "--out"),
    (FUNK_GEODESIC + ("--steps", "5", "--out", "missing/g.csv"), "--out"),
])
def test_bad_input_exits_parse_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["type"] == "parse"
    assert message in error["message"]


# nan, +-inf and +-1e308 come first, and so do the counts below 1
BOUNDARY_REALS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "0.5", "2")
BOUNDARY_COUNTS = ("-1", "0", "1", "3")  # never large: arrays are sized by counts and dims
BOUNDARY_METRICS = ("catalog:funk", "catalog:bryant:0.5236", "catalog:space-form:0",
                    "construct:-1:euclidean:scaled:0.3", "construct:1:bryant:0.5236",
                    "test:broken")


@st.composite
def boundary_argv(draw):
    """A command line with small counts and dimensions whose real values
    and vector components sit at or beyond the edges of their flags."""
    command = draw(st.sampled_from(("eval", "verify", "compare", "sample", "geodesic")))
    # half the lines leave those edges out and give their vectors and grid
    # axes one size, so more of them get past the parser
    edges, n = draw(st.booleans()), draw(st.integers(1, 3))
    real = st.sampled_from(BOUNDARY_REALS if edges else BOUNDARY_REALS[5:])
    count = st.sampled_from(BOUNDARY_COUNTS if edges else BOUNDARY_COUNTS[2:])
    metrics = st.sampled_from(BOUNDARY_METRICS)
    argv = [command, "--metric=" + draw(metrics)]

    def size():
        return draw(st.integers(1, 3)) if edges else n

    def vector():
        return ",".join(draw(real) for _ in range(size()))

    def flag(name, strategy, optional=True):
        if not optional or draw(st.booleans()):
            argv.append(f"{name}={draw(strategy)}")

    flag("--solver-tol", real)
    if command in ("verify", "compare"):
        flag("--dim", st.sampled_from(("-1", "0", "1", "2", "3")[0 if edges else 2:]))
        flag("--samples", count, optional=False)
        flag("--radius", real)
        flag("--seed", count)
    if command == "verify":
        flag("--checks", st.lists(st.sampled_from(cli.CHECK_NAMES), max_size=3).map(",".join))
        flag("--tol-override", st.tuples(st.sampled_from(cli.CHECK_NAMES), real).map("=".join))
    if command == "compare":
        flag("--metric-b", metrics, optional=False)
    if command in ("eval", "geodesic"):
        argv += [f"--x={vector()}", f"--y={vector()}"]
    if command == "geodesic":
        flag("--steps", count, optional=False)
        flag("--t-end", real)
    if command == "sample":
        fixed = draw(st.sampled_from((["--x"], ["--y"], ["--x", "--y"], [])[:4 if edges else 2]))
        argv += [f"{name}={vector()}" for name in fixed]
        axes = st.tuples(real, real, count).map(":".join)
        argv += ["--grid=" + ",".join(draw(axes) for _ in range(size())),
                 "--out=" + os.devnull]
    return argv


@settings(max_examples=150, deadline=None)
@given(boundary_argv())
def test_cli_boundary(argv):
    """No command line ends in exit 5, a traceback or a numpy warning; an
    ``eval`` that succeeds gives a finite F > 0, and a ``geodesic`` that
    succeeds has at least two points."""
    with (contextlib.redirect_stdout(io.StringIO()) as out,
          contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings()):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert 0 <= code <= 4, (argv, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 0 and argv[0] == "eval":
        value = json.loads(out)["F"]
        assert math.isfinite(value) and value > 0.0, argv
    if code == 0 and argv[0] == "geodesic":
        assert json.loads(out)["points"] >= 2, argv


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    def broken(args):
        return 1 / 0

    monkeypatch.setattr(cli.cat, "list_catalog", broken)
    code, out, err = run_cli(capsys, "catalog")
    assert code == 5
    assert out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error == {"type": "internal", "message": "ZeroDivisionError: division by zero"}


def test_import_does_not_load_scipy(tmp_path):
    probe = "import sys, projflat; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Imports flow one way; construct and catalog share a layer, and catalog
# wraps its entries in construct's evaluator.
LAYERS = ("errors", "sampling", "norms", "solver", "construct", "catalog", "verify",
          "cli", "__main__", "__init__")


def test_relative_imports_point_to_earlier_layers():
    package = os.path.join(SRC_DIR, "projflat")
    modules = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py"))
    assert sorted(LAYERS) == modules
    for module in modules:
        with open(os.path.join(package, module + ".py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            targets = ([node.module.split(".")[0]] if node.module
                       else [alias.name for alias in node.names])
            for target in targets:
                assert LAYERS.index(target) < LAYERS.index(module), (module, target)
                # the norm families stand alone: no check or sampling code
                assert module != "norms" or target == "errors", target
