"""The statistics of tools/bench_pairs.py on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(workload, parent, change, metric="item_s.p50"):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "pair": pair, "side": side,
                         "metrics": {metric: value}})
    return runs


def test_summary_medians_quartiles_and_wins():
    runs = _runs("thermal-chain", [4.0, 1.0, 3.0, 2.0], [0.5, 1.0, 0.25, 0.75])
    row = bench_pairs.summarize(runs, {"item_s.p50": "lower"})["thermal-chain"]["item_s.p50"]
    assert row["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert row["change"] == {"median": 0.625, "q1": 0.4375, "q3": 0.8125}
    assert (row["change_wins"], row["pairs"]) == (3, 4)  # the tie in pair 1 is no win
    assert row["beyond_parent_iqr"]  # 2.5 - 0.625 > 3.25 - 1.75


def test_summary_direction_and_incomplete_pairs():
    runs = _runs("quench-ring", [1.0, 2.0, 3.0], [1.1, 2.2, 2.9], metric="trace.coverage")
    runs.append({"workload": "quench-ring", "pair": 3, "side": "parent",
                 "metrics": {"trace.coverage": 9.0}})            # its change never ran
    runs.append({"workload": "quench-ring", "pair": 4, "side": "change", "exit_code": 1})
    row = bench_pairs.summarize(runs, {"trace.coverage": "higher"})["quench-ring"]
    row = row["trace.coverage"]
    assert (row["change_wins"], row["pairs"]) == (2, 3)
    assert row["parent"]["median"] == 2.0 and row["change"]["median"] == 2.2
    assert not row["beyond_parent_iqr"]  # 0.2 < 2.5 - 1.5


def test_single_pair_and_ties():
    runs = _runs("product-soundness", [0.5], [0.5])
    row = bench_pairs.summarize(runs, {})["product-soundness"]["item_s.p50"]
    assert row["parent"] == row["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert row["change_wins"] == 0 and not row["beyond_parent_iqr"]


def test_seeds_and_alternation():
    assert bench_pairs.parse_seeds("101-103, 7") == [101, 102, 103, 7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("a")
    assert [bench_pairs.side_order(k)[0] for k in range(4)] == ["parent", "change"] * 2
