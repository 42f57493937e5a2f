"""tools/bench_json.py: the summary of paired benchmark runs, on synthetic runs."""

from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)

# op_p50_loops of ten pairs: the change is lower in 9 of them, by ~10%.
PARENT = [1.30, 1.32, 1.35, 1.31, 1.40, 1.33, 1.36, 1.29, 1.34, 1.38]
CHANGE = [1.18, 1.20, 1.22, 1.19, 1.25, 1.21, 1.24, 1.30, 1.20, 1.23]


def _write_runs(directory: Path, workload: str, parent: list, change: list,
                rss=(40.0, 40.0), setup=(0.0007, 0.0007)) -> list[Path]:
    """One saved run output per seed and side, its last line a run.py result."""
    paths = []
    for side, loops, mb, s in (("parent", parent, rss[0], setup[0]),
                               ("change", change, rss[1], setup[1])):
        for seed, value in enumerate(loops, start=1):
            last = {"correct": True, "attempted": 100 + seed, "failed": 0, "metrics": {
                "setup_s": {"value": s, "unit": "s"},
                "op_p50_loops": {"value": value, "unit": "loops"},
                "peak_rss_mb": {"value": mb, "unit": "MB"}}}
            path = directory / f"{workload}-{seed}-{side}.out"
            path.write_text(f"op_p50_loops = {value} loops\n{json.dumps(last)}\n")
            paths.append(path)
    return paths


def _build(tmp_path: Path, runs: list[Path], *extra: str) -> dict:
    out = tmp_path / "BENCH_1.json"
    argv = ["-o", str(out), "--change", "c", "--parent-commit", "abc", *extra, *map(str, runs)]
    assert bench_json.main(argv) == 0
    return json.loads(out.read_text())


def test_summary_of_synthetic_pairs(tmp_path):
    """Medians, quartile distances (statistics.quantiles), pairs lower, the bound
    from BENCHMARK.json and the verdict, per workload and end-to-end metric."""
    runs = _write_runs(tmp_path, "fleet_minutely", PARENT, CHANGE, rss=(40.0, 43.0))
    runs += _write_runs(tmp_path, "cli_mix", PARENT, [1.3 * x for x in PARENT])
    doc = _build(tmp_path, runs, "--claim", "fleet_minutely:op_p50_loops",
                 "--protocol", "pairing=alternating")
    assert list(doc) == ["change", "parent_commit", "claim", "protocol", "machine",
                         "summary", "runs"]
    loops = doc["summary"]["fleet_minutely"]["op_p50_loops"]
    q_p, q_c = statistics.quantiles(PARENT, n=4), statistics.quantiles(CHANGE, n=4)
    assert loops == {
        "parent_median": round(statistics.median(PARENT), 6),
        "change_median": round(statistics.median(CHANGE), 6),
        "change_vs_parent_pct": round(
            (statistics.median(CHANGE) / statistics.median(PARENT) - 1) * 100, 2),
        "parent_iqr": round(q_p[2] - q_p[0], 6), "change_iqr": round(q_c[2] - q_c[0], 6),
        "change_lower_pairs": "9/10", "bound_pct": 20.0, "verdict": "within the bound",
        "claim_met": True,
    }
    rss = doc["summary"]["fleet_minutely"]["peak_rss_mb"]
    assert (rss["change_vs_parent_pct"], rss["verdict"]) == (7.5, "WORSE than the bound")
    assert rss["change_lower_pairs"] == "0/10" and "claim_met" not in rss
    cli_loops = doc["summary"]["cli_mix"]["op_p50_loops"]
    assert (cli_loops["change_vs_parent_pct"], cli_loops["verdict"]) == (
        30.0, "WORSE than the bound")
    assert doc["claim"]["metric"] == "op_p50_loops" and doc["claim"]["better"] == "lower"
    assert doc["protocol"]["pairing"] == "alternating" and doc["protocol"]["run_seconds"] == 40
    assert len(doc["runs"]) == 40
    assert doc["runs"][0] == {"workload": "cli_mix", "seed": 1, "side": "parent",
                              "correct": True, "attempted": 101, "failed": 0,
                              "setup_s": 0.0007, "op_p50_loops": 1.30, "peak_rss_mb": 40.0}


def test_claim_needs_nine_pairs_and_more_than_the_parent_iqr(tmp_path):
    """A gain within the parent's quartile distance, or in too few pairs, is not met."""
    small = [x - 0.001 for x in PARENT]  # lower in every pair, by far less than the IQR
    doc = _build(tmp_path, _write_runs(tmp_path, "fleet_minutely", PARENT, small),
                 "--claim", "fleet_minutely:op_p50_loops")
    assert doc["summary"]["fleet_minutely"]["op_p50_loops"]["claim_met"] is False
    seven = CHANGE[:8] + PARENT[8:]  # lower in 7 of 10 pairs: pair 8 reads 1.30 > 1.29
    doc = _build(tmp_path, _write_runs(tmp_path, "fleet_minutely", PARENT, seven),
                 "--claim", "fleet_minutely:op_p50_loops")
    assert doc["summary"]["fleet_minutely"]["op_p50_loops"]["change_lower_pairs"] == "7/10"
    assert doc["summary"]["fleet_minutely"]["op_p50_loops"]["claim_met"] is False


@pytest.mark.parametrize(
    ("name", "text", "message"),
    [
        ("fleet_minutely-1-parent.out", "op_p50_loops = 1.3 loops\n", "the last line is no result"),
        ("fleet_minutely-1-child.out", "{}\n", "the name must be"),
        ("fleet_minutely-one-parent.out", "{}\n", "the name must be"),
        ("fleet_minutely-1-parent.out", None, "the seeds [1] have a run of one side only"),
    ],
    ids=["no-json-line", "bad-side", "bad-seed", "unpaired"],
)
def test_rejected_runs_exit_1(tmp_path, capsys, name, text, message):
    """A run the script cannot label or read, or a seed with one side, exits 1."""
    path = tmp_path / name
    if text is None:
        path = _write_runs(tmp_path, "fleet_minutely", [1.0], [1.0])[0]
    else:
        path.write_text(text)
    assert bench_json.main(["-o", str(tmp_path / "b.json"), "--change", "c",
                            "--parent-commit", "abc", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
