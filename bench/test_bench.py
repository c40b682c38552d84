"""Tests of the benchmark's own arithmetic and checkers.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(REPO / "src"))
    import macwtfb.cli

    return macwtfb.cli


# --- percentile selection -----------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_commands_beyond():
    assert run.tail(list(range(1, 101))) == (90.0, 90, 10)
    assert run.tail(list(range(1, 73))) == (100.0 * 62 / 72, 62, 10)
    assert run.tail([float(v) for v in range(21, 0, -1)]) == (100.0 * 11 / 21, 11.0, 10)


def test_tail_falls_back_to_median_for_few_commands():
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (50.0, 2.5, 2)
    assert run.tail(list(range(1, 21))) == (50.0, 10.5, 10)


# --- spans and self time -------------------------------------------------------------


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_children_only():
    tree = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, 0),
        _span("d", 2.0, 3.0, 1),
        _span("c", 5.0, 6.0, 0),
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert spans.covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert spans.covered_length([], 0, 10) == 0


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_nests_spans_and_marks_errors():
    recorder = spans.Recorder(clock=_Clock())
    inner = recorder.wrap("regions.is_subset", lambda x: x * 2)

    def fail():
        raise ValueError("boom")

    outer = recorder.wrap("cli.main", lambda: inner(inner(1)))
    failing = recorder.wrap("fm.project_to", fail)
    assert outer() == 4
    with pytest.raises(ValueError):
        failing()
    names = [(s.name, s.parent, s.error) for s in recorder.spans]
    assert names == [("cli.main", None, False), ("regions.is_subset", 0, False),
                     ("regions.is_subset", 0, False), ("fm.project_to", None, True)]
    metrics = spans.layer_metrics(recorder, wall=20.0)
    # cli.main spans 1..6 (is_subset 2..3 and 4..5), project_to spans 7..8
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["regions.is_subset.calls"] == 2
    assert metrics["fm.project_to.errors"] == 1
    assert metrics["trace.unspanned_s"] == 20.0 - 6.0


def test_layer_metrics_account_for_the_wall_time():
    recorder = spans.Recorder()
    recorder.spans = [
        _span("cli.main", 0.0, 4.0),
        _span("regions.hull_of_regions", 1.0, 3.0, 0),
        _span("regions.region_from_halfspaces", 1.5, 2.0, 1),
        _span("cli.main", 5.0, 6.0),
    ]
    metrics = spans.layer_metrics(recorder, wall=7.0)
    assert metrics["cli.main.calls"] == 2
    assert metrics["cli.main.s"] == 5.0
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["regions.hull_of_regions.self_s"] == 1.5
    self_total = sum(metrics[f"{name}.self_s"] for name, _ in spans.LAYERS)
    assert self_total + metrics["trace.unspanned_s"] == pytest.approx(7.0)


def test_reentered_layer_counts_inclusive_time_once():
    recorder = spans.Recorder()
    recorder.spans = [_span("cli.main", 0.0, 4.0), _span("cli.main", 1.0, 2.0, 0)]
    metrics = spans.layer_metrics(recorder, wall=4.0)
    assert metrics["cli.main.s"] == 4.0
    assert metrics["cli.main.self_s"] == 4.0


def test_install_wraps_every_caller_name_and_restores(cli, tmp_path):
    original_main = cli.main
    original_df = cli._GAUSSIAN_REGION_FNS["df"]
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        assert cli.main is not original_main
        assert cli._GAUSSIAN_REGION_FNS["df"] is not original_df
        with redirect_stdout(io.StringIO()):
            assert cli.main(["figure", "--which", "2", "--output-dir", str(tmp_path)]) == 0
    finally:
        installed.remove()
    assert cli.main is original_main
    assert cli._GAUSSIAN_REGION_FNS["df"] is original_df
    metrics = spans.layer_metrics(recorder, wall=1.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["gaussian.regions.calls"] == 4
    assert metrics["regions.boundary_samples.calls"] == 4
    assert metrics["regions.region_from_halfspaces.calls"] == 4


def test_search_inner_kept_ratio_is_read_from_the_result(cli, tmp_path):
    channel = workloads.criterion8(tmp_path)[2].argv[3]
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["region", "discrete", "--channel", channel, "--bounds", "df",
                             "--umax", "1", "--restarts", "1", "--iterations", "2",
                             "--output-dir", str(tmp_path / "out")])
    finally:
        installed.remove()
    assert code == 0
    metrics = spans.layer_metrics(recorder, wall=1.0)
    assert metrics["discrete.search_inner.calls"] == 1
    assert 0.0 < metrics["discrete.search_inner.kept_ratio"] <= 1.0
    assert recorder.counters["discrete.search_inner.found"] == 3


# --- checkers ------------------------------------------------------------------------


def test_in_convex_polygon():
    triangle = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert checks.in_convex_polygon((0.5, 0.5), triangle)
    assert checks.in_convex_polygon((0.2, 0.2), triangle)
    assert not checks.in_convex_polygon((0.6, 0.5), triangle)
    assert checks.in_convex_polygon((0.5, 0.0), [(0.0, 0.0), (1.0, 0.0)])
    assert not checks.in_convex_polygon((0.5, 0.1), [(0.0, 0.0), (1.0, 0.0)])
    assert checks.in_convex_polygon((0.0, 0.0), [(0.0, 0.0)])


def _write_region(path: Path, vertices):
    lines = ["section,index,r1,r2"] + [f"vertex,{i},{x},{y}" for i, (x, y) in enumerate(vertices)]
    lines.append("sample,0,0,0")
    path.write_text("\n".join(lines) + "\n")


def test_discrete_checks(tmp_path):
    _write_region(tmp_path / "region_df.csv", [(0, 0), (0.4, 0), (0, 0.4)])
    _write_region(tmp_path / "region_hybrid.csv", [(0, 0), (0.5, 0), (0, 0.5)])
    _write_region(tmp_path / "region_outer.csv", [(0, 0), (0.6, 0), (0, 0.6)])
    assert checks.discrete_problems(tmp_path) == []
    assert not checks.df_outside_hybrid(tmp_path)

    _write_region(tmp_path / "region_df.csv", [(0, 0), (0.55, 0), (0, 0.4)])
    assert checks.discrete_problems(tmp_path) == []
    assert checks.df_outside_hybrid(tmp_path)

    _write_region(tmp_path / "region_outer.csv", [(0, 0), (0.5, 0), (0, 0.5)])
    assert checks.discrete_problems(tmp_path) == [
        "inner vertex sum 0.55 exceeds outer value 0.5"
    ]
    (tmp_path / "region_outer.csv").unlink()
    assert checks.discrete_problems(tmp_path)[0].startswith("unreadable region file")


def test_fm_and_exit_checks(tmp_path):
    ok = "wrote x\nfm-verify: 24 instances checked, 0 mismatches\n"
    bad = "fm-verify: 24 instances checked, 2 mismatches\n"
    assert checks.command_problems(workloads.CHECK_FM, 0, ok, tmp_path) == []
    assert checks.command_problems(workloads.CHECK_FM, 0, bad, tmp_path) == [
        "fm-verify reported 2 mismatches"
    ]
    assert checks.command_problems(workloads.CHECK_FM, 0, "", tmp_path) == [
        "fm-verify printed no summary line"
    ]
    assert checks.command_problems(workloads.CHECK_EXIT, 1, ok, tmp_path) == ["exit code 1"]


def test_compare_hashes_reports_missing_extra_and_changed():
    expected = {"a": "1", "b": "2"}
    assert checks.compare_hashes(expected, {"a": "1", "b": "2"}, "g") == []
    assert checks.compare_hashes(expected, {"a": "9", "c": "3"}, "g") == [
        "g: a bytes differ", "g: b missing", "g: unexpected file c"
    ]


def test_file_hashes_cover_nested_files(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "x.csv").write_bytes(b"abc")
    assert checks.file_hashes(tmp_path) == {
        "sub/x.csv": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    }


# --- definitions agree ---------------------------------------------------------------


def test_goldens_pin_the_current_command_lists(tmp_path):
    lists = {"criterion-8": workloads.criterion8(tmp_path)}
    lists.update({name: workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
                  for name in workloads.WORKLOADS})
    for name, commands in lists.items():
        golden = checks.load_golden(name)
        argv = [" ".join(c.argv).replace(str(tmp_path), ".bench_work/inputs") for c in commands]
        assert golden["argv"] == argv, name
        assert all(golden["commands"]), name


def test_workloads_are_seeded():
    a, b = Path("a"), Path("b")
    for name in ("fm-exact", "closed-form-cli"):
        assert workloads.build(name, 3, a) == workloads.build(name, 3, b)
        assert workloads.build(name, 3, a) != workloads.build(name, 4, a)


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_scales_by_the_median_probe_since_a_mark():
    host = run.HostSpeed()
    host.samples = [run.PROBE_NOMINAL_S * f for f in (9.0, 1.0, 2.0, 1.5)]
    assert host.scale(1) == pytest.approx(1 / 1.5)
    assert host.scale(0) == pytest.approx(1 / 1.75)
    calls = []
    probed = host.probed(lambda argv, deadline: calls.append(argv) or "done")
    assert probed(["x"], 0.0) == "done"
    assert calls == [["x"]] and len(host.samples) == 4 + run.PROBES_PER_COMMAND
