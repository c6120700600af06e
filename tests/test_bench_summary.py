"""tools/bench_summary.py on synthetic benchmark reports."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_summary.py")
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def write_report(directory, workload, seed, op_p50, rss, digest="d0", build="b0",
                 failed=0, trace=0):
    os.makedirs(directory, exist_ok=True)
    report = {
        "provenance": {"workload": workload, "seed": seed, "trace": trace,
                       "build_id": build},
        "outputs": {"base_features_sha256": digest},
        "result": {"correct": failed == 0, "attempted": 20, "failed": failed,
                   "metrics": {"op_p50_s": {"value": op_p50, "unit": "s"},
                               "peak_rss_mib": {"value": rss, "unit": "MiB"}}},
    }
    path = os.path.join(directory, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh)


def test_medians_quartiles_and_pair_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for k, seed in enumerate((11, 12, 13, 14, 15)):
        write_report(parent, "ingest_ico4", seed, 0.10 + 0.01 * k, 70.0, build="p")
        # the change is faster on every seed but the last, and uses more memory
        write_report(change, "ingest_ico4", seed, 0.20 if seed == 15 else 0.06 + 0.01 * k,
                     72.0, build="c")
    write_report(change, "ingest_ico4", 16, 0.01, 72.0, build="c")  # no parent pair
    write_report(parent, "ingest_ico4", 11, 9.0, 9.0, build="p", trace=1)  # ignored
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), str(out)]) == 0
    summary = json.loads(out.read_text())["workloads"]["ingest_ico4"]
    assert summary["pairs"] == 5 and summary["outputs_identical"]
    assert summary["parent"]["seeds"] == [11, 12, 13, 14, 15]
    assert summary["change"]["seeds"] == [11, 12, 13, 14, 15, 16]
    assert (summary["parent"]["build_id"], summary["change"]["build_id"]) == ("p", "c")
    p50 = summary["metrics"]["op_p50_s"]
    assert p50["unit"] == "s" and p50["better"] == "lower"
    assert p50["parent"] == pytest.approx({"median": 0.12, "q1": 0.11, "q3": 0.13, "n": 5})
    assert p50["change"]["median"] == pytest.approx(0.075)  # six runs, seed 16 too
    assert p50["change_wins"] == 4
    rss = summary["metrics"]["peak_rss_mib"]
    assert rss["change_wins"] == 0 and rss["change"]["median"] == 72.0


def test_differing_outputs_and_failures_are_reported(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_report(parent, "eqgap_small", 1, 0.1, 80.0)
    write_report(change, "eqgap_small", 1, 0.1, 80.0, digest="other", failed=3)
    summary = bench_summary.summarise(parent, change)["workloads"]["eqgap_small"]
    assert not summary["outputs_identical"]
    assert summary["change"]["failed"] == 3 and summary["parent"]["failed"] == 0
    assert summary["metrics"]["op_p50_s"]["change_wins"] == 0  # a tie wins for neither


@pytest.mark.parametrize("case", ["empty", "mixed_builds"])
def test_unusable_input_is_refused(tmp_path, capsys, case):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_report(parent, "train_ico3", 1, 0.3, 390.0)
    if case == "empty":
        os.makedirs(change)
    else:
        write_report(change, "train_ico3", 1, 0.3, 390.0, build="a")
        write_report(change, "train_ico3", 2, 0.3, 390.0, build="b")
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), str(out)]) == 2
    assert not out.exists()
    assert "bench_summary:" in capsys.readouterr().err


def test_no_paired_seed_leaves_outputs_undecided(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_report(parent, "train_ico3", 1, 0.3, 390.0)
    write_report(change, "train_ico3", 2, 0.3, 390.0, digest="other")
    summary = bench_summary.summarise(parent, change)["workloads"]["train_ico3"]
    assert summary["pairs"] == 0 and summary["outputs_identical"] is None


def test_workload_on_one_side_is_reported(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        write_report(side, "ingest_ico4", 1, 0.1, 70.0)
    write_report(parent, "train_ico3", 1, 0.3, 390.0)
    write_report(change, "eqgap_small", 1, 0.1, 80.0)
    summary = bench_summary.summarise(parent, change)
    assert list(summary["workloads"]) == ["ingest_ico4"]
    assert summary["one_side_only"] == {"parent": ["train_ico3"], "change": ["eqgap_small"]}
