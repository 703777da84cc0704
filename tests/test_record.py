"""bench/record.py's aggregation, on canned perfbench results (no subprocess)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "items_per_s": "1/s"}


def canned_result(p50: float, failed: int = 0) -> dict:
    """The verdict and metrics of a result file perfbench/run.py writes."""
    metrics = {name: {"value": p50 if name == "op_ms_p50" else 1.0, "unit": unit}
               for name, unit in UNITS.items()}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def test_summary_holds_median_quartiles_and_every_value():
    p50s = [260.0, 240.0, 250.0, 270.0, 230.0]
    summary = record.summarize([canned_result(v) for v in p50s])
    p50 = summary["metrics"]["op_ms_p50"]
    assert (p50["median"], p50["q1"], p50["q3"]) == (250.0, 240.0, 260.0)
    assert p50["values"] == p50s and p50["unit"] == "ms"
    assert list(summary["metrics"]) == list(UNITS)
    assert summary["runs"] == 5 and summary["correct"]
    assert (summary["attempted"], summary["failed"]) == (500, 0)


def test_one_failed_run_marks_the_workload_incorrect():
    runs = [canned_result(250.0, failed=f) for f in (0, 2, 0)]
    summary = record.summarize(runs)
    assert not summary["correct"] and summary["failed"] == 2


def test_one_run_is_its_own_median_and_quartiles():
    assert record.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


def eval_record(p50s):
    return {"workloads": {"eval": record.summarize([canned_result(v) for v in p50s])}}


def test_compare_prints_each_ratio_and_marks_none():
    old = eval_record([250.0, 254.0, 258.0, 262.0, 266.0])
    lines = record.compare(eval_record([236.0, 238.0, 240.0, 242.0, 244.0]), old)
    (p50,) = [ln for ln in lines if "op_ms_p50" in ln]
    assert p50.endswith("x0.930")  # outside the old quartiles, and still not marked
    (rss,) = [ln for ln in lines if "peak_rss_mb" in ln]
    assert rss.endswith("x1.000")
    assert len(lines) == len(UNITS)
    assert record.compare(eval_record([1.0]), {"workloads": {}}) == []


def test_compare_of_two_records_warns_of_host_drift(tmp_path, capsys):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(json.dumps(eval_record([236.0, 238.0, 240.0, 242.0, 244.0])))
    old.write_text(json.dumps(eval_record([250.0, 254.0, 258.0, 262.0, 266.0])))
    assert record.main(["--read", str(new), "--compare", str(old)]) == 0
    warning, *lines = capsys.readouterr().out.splitlines()
    assert warning == record.DRIFT_WARNING and "drift" in warning
    assert len(lines) == len(UNITS) and "*" not in "".join(lines)


def tables_record(build_s, verify_s):
    """A `tables` record whose runs' result files carry each phase's raw seconds."""
    runs = [{**canned_result(130.0), "named": {"cycle_ms": [130.0, "ms"], "build_s_raw": [b, "s"],
                                               "verify_s_raw": [v, "s"]}}
            for b, v in zip(build_s, verify_s)]
    return {"workloads": {"tables": record.summarize(runs)}}


def test_tables_phases_are_recorded_and_compared():
    old = tables_record([0.080, 0.078, 0.082, 0.079, 0.081], [0.040, 0.041, 0.039, 0.040, 0.042])
    phases = old["workloads"]["tables"]["phases"]
    assert list(phases) == ["build_s_raw", "verify_s_raw"]
    build = phases["build_s_raw"]
    assert (build["median"], build["q1"], build["q3"], build["unit"]) == (0.080, 0.079, 0.081, "s")
    assert build["values"] == [0.080, 0.078, 0.082, 0.079, 0.081]
    assert phases["verify_s_raw"]["median"] == 0.040

    lines = record.compare(tables_record([0.072] * 5, [0.030] * 5), old)
    (build_line,) = [ln for ln in lines if "build_s_raw" in ln]
    assert build_line.startswith("tables") and build_line.endswith("x0.900")
    (verify_line,) = [ln for ln in lines if "verify_s_raw" in ln]
    assert verify_line.endswith("x0.750")
    assert len(lines) == len(UNITS) + 2
    # a run without phases records none, and a record taken before phases
    # were kept compares its metrics only
    assert record.summarize([canned_result(1.0)])["phases"] == {}
    del old["workloads"]["tables"]["phases"]
    assert len(record.compare(tables_record([0.072] * 5, [0.030] * 5), old)) == len(UNITS)


def test_src_lines_counts_each_module_and_the_total(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    assert record.src_lines(tmp_path) == {"pkg/a.py": 2, "pkg/b.py": 1, "total": 3}


def test_compare_prints_each_modules_line_count_from_both_records():
    old = {"workloads": {}, "src_lines": {"pkg/a.py": 600, "pkg/gone.py": 10, "total": 610}}
    new = {"workloads": {}, "src_lines": {"pkg/a.py": 572, "pkg/new.py": 5, "total": 577}}
    lines = record.compare(new, old)
    assert [ln.split()[:2] for ln in lines] == [["src", "pkg/a.py"], ["src", "total"]]
    assert lines[0].split()[2:5] == ["600", "->", "572"] and lines[0].endswith("x0.953")
    assert lines[1].split()[2:5] == ["610", "->", "577"]
    # a record taken before line counts were kept compares nothing here
    assert record.compare(new, {"workloads": {}}) == []


def test_cli_and_tier1_timings_are_recorded_and_compared():
    def rec(solve_ms, seconds, passed):
        times = {"solve": {"source": solve_ms, "bytecode": [v - 20.0 for v in solve_ms]}}
        closing = f"{passed} passed, 1 failed in {seconds:.2f}s"
        return {"workloads": {}, "cli": record.summarize_cli(times),
                "tier1": record.summarize_tier1(f"....F\n{closing}\n", seconds)}

    old = rec([120.0, 118.0, 125.0, 121.0, 119.0, 122.0, 117.0, 130.0, 120.0], 38.0, 345)
    solve = old["cli"]["commands"]["solve"]
    assert (solve["source"]["median"], solve["bytecode"]["median"]) == (120.0, 100.0)
    assert solve["source"]["values"][0] == 120.0 and old["cli"]["unit"] == "ms"
    assert old["tier1"] == {"seconds": 38.0, "passed": 345, "failed": 1}
    assert record.summarize_tier1("", 1.0) == {"seconds": 1.0, "passed": 0}

    lines = record.compare(rec([110.0] * 9, 19.0, 347), old)
    (source,) = [ln for ln in lines if "(source)" in ln]
    assert source.startswith("cli") and source.endswith("x0.917")
    (seconds,) = [ln for ln in lines if ln.startswith("tier1   seconds")]
    assert seconds.endswith("x0.500")
    (passed,) = [ln for ln in lines if ln.startswith("tier1   passed")]
    assert "345" in passed and "347" in passed
    assert len(lines) == 4
    # an earlier record without these sections compares workloads only
    assert record.compare(rec([110.0] * 9, 19.0, 347), {"workloads": {}}) == []
