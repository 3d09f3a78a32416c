"""Self-test of the benchmark at tiny sizes.

Runs each workload's operations once, requires its checks to pass, then
corrupts one artifact (or returned object) at a time and requires the
matching check to report it.  Runs in a few seconds.
"""
import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import RunAndPlot, VerifySuites, WindowScaling  # noqa: E402


def run_once(workload):
    results = []
    for op in workload.operations(0):
        result = op.run()
        assert op.check(result) == [], op.name
        results.append(result)
    return results


def rewrite_jsonl(path, edit):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def run_and_plot(tmp_path_factory):
    wl = RunAndPlot(tmp_path_factory.mktemp("run_and_plot"), seed=3, tiny=True)
    run_once(wl)
    return wl


def replica_problems(wl):
    return [p for d in wl.run_dirs(0) for p in checks.check_run_dir(checks.RunDir(d))]


def plot_problems(wl):
    runs = [checks.RunDir(d) for d in wl.run_dirs(0)]
    return checks.check_plotdata(runs, wl.observables, wl.dir / "plots_0")


def late_born(run):
    """Id of a particle born after grid[1], so absent on the first step."""
    births = [ev for ev in run.events if ev["kind"] == "birth" and ev["t"] > run.grid[1]]
    return births[0]["id"]


def drop_last_snapshot_point(replica):
    rewrite_jsonl(replica / "snapshots.jsonl", lambda recs: recs[-1]["points"].pop())


def nudge_snapshot_mark(replica):
    def edit(recs):
        point = recs[-1]["points"][0]
        point["mark"] = float(np.nextafter(point["mark"], np.inf))
    rewrite_jsonl(replica / "snapshots.jsonl", edit)


def move_snapshot_point(replica):
    def edit(recs):
        point = recs[-1]["points"][0]
        point["position"] = [c + 1e-9 for c in point["position"]]
    rewrite_jsonl(replica / "snapshots.jsonl", edit)


def drop_marks_row(replica):
    rewrite_csv(replica / "marks.csv", lambda rows: rows.pop())


def miscount_manifest_events(replica):
    manifest = json.loads((replica / "manifest.json").read_text())
    manifest["derived"]["events"] += 1
    (replica / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("corrupt,message", [
    (drop_last_snapshot_point, "ids differing"),
    (nudge_snapshot_mark, "differ from marks.csv"),
    (move_snapshot_point, "moved a point"),
    (drop_marks_row, "misses or repeats"),
    (miscount_manifest_events, "manifest events"),
])
def test_run_dir_corruption_is_caught(run_and_plot, corrupt, message, tmp_path):
    replica = run_and_plot.run_dirs(0)[0]
    backup = tmp_path / "backup"
    shutil.copytree(replica, backup)
    try:
        corrupt(replica)
        problems = replica_problems(run_and_plot)
        assert any(message in p for p in problems), problems
    finally:
        shutil.rmtree(replica)
        shutil.copytree(backup, replica)
    assert replica_problems(run_and_plot) == []


def test_frozen_mark_corruption_is_caught(run_and_plot, tmp_path):
    replica = run_and_plot.run_dirs(0)[0]
    marks = replica / "marks.csv"
    original = marks.read_text()
    run = checks.RunDir(replica)
    pid = late_born(run)

    def bump(rows):
        for row in rows[1:]:
            if float(row[0]) == run.grid[1] and int(row[1]) == pid:
                row[2] = repr(float(row[2]) + 1e-3)

    try:
        rewrite_csv(marks, bump)
        problems = replica_problems(run_and_plot)
        assert any("frozen mark changed" in p for p in problems), problems
    finally:
        marks.write_text(original)


@pytest.mark.parametrize("observable,column,message", [
    ("count_0.5", "value", "differs from the snapshot"),
    ("mark_sum_1.0", "value", "differs from the snapshot"),
    ("mark_sum_1.0_aggregate", "mean", "aggregate at"),
    ("count_1.0_aggregate", "stderr", "aggregate at"),
])
def test_plotdata_corruption_is_caught(run_and_plot, observable, column, message):
    path = run_and_plot.dir / "plots_0" / f"{observable}.csv"
    original = path.read_text()

    def bump(rows):
        col = rows[0].index(column)
        rows[len(rows) // 2][col] = repr(float(rows[len(rows) // 2][col]) + 0.5)

    try:
        rewrite_csv(path, bump)
        problems = plot_problems(run_and_plot)
        assert any(message in p for p in problems), problems
    finally:
        path.write_text(original)
    assert plot_problems(run_and_plot) == []


# -- window scaling ------------------------------------------------------------------


@pytest.fixture(scope="module")
def core_results(tmp_path_factory):
    wl = WindowScaling(tmp_path_factory.mktemp("window_scaling"), seed=3, tiny=True)
    return run_once(wl)[-1]


def corrupt_nan(gamma0, traj, path):
    path.values[-1, 0] = np.nan


def corrupt_frozen(gamma0, traj, path):
    born_late = [ev.id for ev in traj.events if ev.kind == "birth" and ev.time > path.grid[1]]
    path.values[1, path.ids.index(born_late[0])] += 1e-3


def corrupt_grid(gamma0, traj, path):
    keep = ~np.isin(path.grid, [traj.events[0].time])
    path.grid = path.grid[keep]
    path.values = path.values[keep]


def corrupt_balance(gamma0, traj, path):
    death = next(i for i, ev in enumerate(traj.events) if ev.kind == "death")
    del traj.events[death]


def corrupt_phantom(gamma0, traj, path):
    del traj.driving[len(traj.driving) // 3:]


@pytest.mark.parametrize("corrupt,message", [
    (corrupt_nan, "non-finite mark"),
    (corrupt_frozen, "changed while absent"),
    (corrupt_grid, "grid misses"),
    (corrupt_balance, "births - deaths"),
    (corrupt_phantom, "phantom outnumbers"),
])
def test_core_corruption_is_caught(core_results, corrupt, message):
    gamma0, traj, path, dt = core_results
    traj, path = copy.deepcopy(traj), copy.deepcopy(path)
    corrupt(gamma0, traj, path)
    problems = checks.check_core(gamma0, traj, path, dt)
    assert any(message in p for p in problems), problems


# -- verify suites -------------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_reports(tmp_path_factory):
    wl = VerifySuites(tmp_path_factory.mktemp("verify_suites"), seed=3, tiny=True)
    run_once(wl)
    return wl


@pytest.mark.parametrize("suite,edit,message", [
    ("cadlag", lambda r: r.update(passed=False), "did not pass"),
    ("gronwall", lambda r: r.update(slack=r["slack"] * 1.5), "slack"),
    ("gronwall", lambda r: r.update(measured_value=2 * r["bound_value"]), "exceeds bound"),
    ("domination", lambda r: r.update(checks=63), "63 checks"),
    ("gronwall", lambda r: r["constants_used"].update(K_T=r["constants_used"]["K_T"] * 1.001),
     "mpmath gives"),
    ("gronwall", lambda r: r["constants_used"].update(K_T=float("inf")), "K_T=inf but"),
])
def test_report_corruption_is_caught(verify_reports, suite, edit, message):
    from bdspin.cli import SUITES

    path = verify_reports.dir / "reports_0" / f"{suite}_report.json"
    original = path.read_text()
    report = json.loads(original)
    edit(report)
    try:
        path.write_text(json.dumps(report))
        problems = checks.check_verify_reports(path.parent, SUITES, verify_reports.horizon)
        assert any(message in p for p in problems), problems
    finally:
        path.write_text(original)


def test_series_constant_matches_closed_cases():
    # L = 0 gives exactly 1; q -> small makes the series close to exp(x)
    assert checks.series_constant_mp(0.2, 0.7, 0.5, 0.0, 0.5)[0] == 1
    k, _ = checks.series_constant_mp(0.0, 1.0, 1e-9, 1.0, 1.0)
    assert abs(float(k) - np.e) < 1e-6


# -- tracing -------------------------------------------------------------------------


def test_layer_self_times_add_up(tmp_path):
    import run

    tracer = layers.Tracer()
    layers.instrument(tracer)
    try:
        wl = VerifySuites(tmp_path, seed=3, tiny=True)
        walls, attempted, failed = run.run_rounds(wl.operations, 0.0, tracer=tracer)
    finally:
        tracer.unpatch()
    assert (attempted, failed) == (1, 0)
    metrics = layers.layer_metrics(tracer, len(walls), sum(walls))
    self_total = sum(metrics[f"{name}.self_s"] for name in layers.SELF_TIMED)
    assert self_total + metrics["other.self_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["other.self_s"] >= 0
    assert metrics["birth_death.simulate.calls"] == 7
    assert metrics["spin_sde.integrate_marks.calls"] + \
        metrics["spin_sde.finite_volume_solve.calls"] == 34
