"""The verdict rule and the host-speed probe of tools/bench_pairs.py, the rule
on made-up pairs."""

import argparse
import ast
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
RATE = {"name": "trials_per_s", "better": "higher", "bound": 0.25}


def run(value, name="peak_rss_mb", failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed, name: value}


def pairs_of(parent, change, name="peak_rss_mb"):
    return [{"parent": run(p, name), "change": run(c, name)} for p, c in zip(parent, change)]


def test_nine_of_ten_wins_and_a_gap_over_the_parent_iqr_meet_the_rule():
    parent = [42.0, 42.1, 42.2, 42.2, 42.2, 42.3, 42.2, 42.1, 42.2, 42.3]
    change = [41.5] * 9 + [42.4]
    m = bench_pairs.compare(pairs_of(parent, change), RSS)
    assert m["change_wins"] == 9 and m["pairs"] == 10
    assert m["parent"]["median"] == pytest.approx(42.2) and m["change"]["median"] == pytest.approx(41.5)
    assert m["median_gap_exceeds_parent_iqr"] and m["gain_rule_met"] and not m["worse_than_bound"]
    assert m["relative_gain_of_median"] == pytest.approx(0.7 / 42.2)


def test_eight_wins_or_a_gap_inside_the_iqr_do_not():
    parent = [42.0, 42.1, 42.2, 42.2, 42.2, 42.3, 42.2, 42.1, 42.2, 42.3]
    eight = bench_pairs.compare(pairs_of(parent, [41.5] * 8 + [42.4] * 2), RSS)
    assert eight["change_wins"] == 8 and not eight["gain_rule_met"]
    # every pair won, but by less than the parent's own spread
    close = bench_pairs.compare(pairs_of(parent, [p - 0.01 for p in parent]), RSS)
    assert close["change_wins"] == 10 and not close["median_gap_exceeds_parent_iqr"] and not close["gain_rule_met"]


def test_ties_count_for_neither_side_and_higher_is_better_for_rates():
    parent = [100.0, 110.0, 120.0, 130.0]
    m = bench_pairs.compare(pairs_of(parent, [100.0, 120.0, 110.0, 70.0], "trials_per_s"), RATE)
    assert m["change_wins"] == 1
    slower = bench_pairs.compare(pairs_of(parent, [p * 0.7 for p in parent], "trials_per_s"), RATE)
    assert slower["relative_gain_of_median"] == pytest.approx(-0.3) and slower["worse_than_bound"]


def test_a_failed_run_is_left_out_of_the_pairs():
    pairs = pairs_of([42.0, 42.0], [41.0, 41.0])
    pairs.append({"parent": run(42.0), "change": {"correct": False, "error": "exit 1"}})
    # a run that printed correct: false is not compared either, whatever it measured
    pairs.append({"parent": run(42.0), "change": run(30.0, failed=1)})
    m = bench_pairs.compare(pairs, RSS)
    assert m["pairs"] == 2 and m["pairs_run"] == 4 and m["change"]["median"] == 41.0
    assert bench_pairs.compare([], RSS) == {"pairs_run": 0, "pairs": 0}


def test_too_few_pairs_never_meet_the_rule():
    for n in range(1, 10):
        m = bench_pairs.compare(pairs_of([42.0 + 0.1 * i for i in range(n)], [41.0] * n), RSS)
        assert m["change_wins"] == n and not m["gain_rule_met"]


def test_wins_count_over_every_pair_run():
    parent = [42.0, 42.1, 42.2, 42.2, 42.2, 42.3, 42.2, 42.1, 42.2, 42.3]
    pairs = pairs_of(parent, [41.5] * 10)
    pairs[3]["change"] = {"correct": False, "error": "exit 1"}
    pairs[7]["parent"] = {"correct": False, "error": "exit 1"}
    m = bench_pairs.compare(pairs, RSS)
    # the change won all 8 pairs it could be compared on: 8 of 10 run
    assert m["change_wins"] == 8 and m["pairs"] == 8 and m["pairs_run"] == 10 and not m["gain_rule_met"]


def test_more_failed_operations_void_a_gain():
    parent = [42.0, 42.1, 42.2, 42.2, 42.2, 42.3, 42.2, 42.1, 42.2, 42.3]
    pairs = pairs_of(parent, [41.5] * 10)
    assert bench_pairs.compare(pairs, RSS)["gain_rule_met"]
    pairs.append({"parent": run(42.2), "change": run(41.5, failed=1)})
    m = bench_pairs.compare(pairs, RSS)
    assert m["failed"]["change"] == {"failed": 1, "attempted": 1100} and m["more_failures"]
    assert m["change_wins"] == 10 and m["pairs_run"] == 11 and not m["gain_rule_met"]
    # as many failures on both sides leave the rule as it was
    pairs.append({"parent": run(42.2, failed=1), "change": run(41.5)})
    assert not bench_pairs.compare(pairs, RSS)["more_failures"]


def test_host_probe_times_the_transform_loop_in_a_fresh_interpreter():
    seconds = bench_pairs.host_probe(loops=1)
    assert isinstance(seconds, float) and 0 < seconds < 60


def test_host_probe_pins_the_threads_of_the_benchmark():
    tree = ast.parse((_PATH.parent.parent / "perfbench" / "run.py").read_text())
    pinned = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "THREAD_VARS" for t in node.targets))
    assert bench_pairs.THREAD_VARS == pinned


def test_each_run_records_the_host_probe_and_each_side_its_quartiles(tmp_path, monkeypatch):
    probes = iter(range(1, 2 * bench_pairs.PAIRS + 1))
    monkeypatch.setattr(bench_pairs, "host_probe", lambda: float(next(probes)))
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, *a: run(42.0 if tree == "p" else 41.0))
    args = argparse.Namespace(title="", parent="HEAD", claim=[], out=tmp_path / "bench.json")
    bench = {"end_to_end": [RSS]}
    # the hash is resolved by main, so this needs no git checkout
    bench_pairs.run_sets(args, bench, [("ccdf_sparse", 1)], 0, {"parent": "p", "change": "c"}, "0" * 40)
    record = json.loads(args.out.read_text())
    assert record["parent"] == "0" * 40
    doc = record["workloads"]["ccdf_sparse@seed1"]
    # pair i runs its first side with probe 2i + 1 and its second with 2i + 2
    firsts = [2 * i + 1 for i in range(bench_pairs.PAIRS)]
    parent = [f if i % 2 == 0 else f + 1 for i, f in enumerate(firsts)]
    change = [f + 1 if i % 2 == 0 else f for i, f in enumerate(firsts)]
    assert [p["parent"]["host_probe_s"] for p in doc["pairs"]] == parent
    assert [p["change"]["host_probe_s"] for p in doc["pairs"]] == change
    assert doc["host_probe_s"] == {"parent": bench_pairs.summary(parent), "change": bench_pairs.summary(change)}
    assert doc["metrics"]["peak_rss_mb"]["change_wins"] == bench_pairs.PAIRS


def test_each_pair_records_its_probe_ratio_and_the_report_each_side_s_median_probe(tmp_path, monkeypatch, capsys):
    # the parent side probes 0.10 s and the change side 0.20 s: the two
    # sides ran in different host phases, and the report says so
    # pair i runs the parent first when i is even
    probes = iter(v for i in range(bench_pairs.PAIRS) for v in ((0.10, 0.20) if i % 2 == 0 else (0.20, 0.10)))
    monkeypatch.setattr(bench_pairs, "host_probe", lambda: next(probes))
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, *a: run(42.0 if tree == "p" else 41.0))
    args = argparse.Namespace(title="", parent="HEAD", claim=["ccdf_sparse:peak_rss_mb"], out=tmp_path / "b.json")
    bench_pairs.run_sets(args, {"end_to_end": [RSS]}, [("ccdf_sparse", 1)], 0, {"parent": "p", "change": "c"},
                         "0" * 40)
    doc = json.loads(args.out.read_text())["workloads"]["ccdf_sparse@seed1"]
    assert [p["host_probe_ratio"] for p in doc["pairs"]] == [pytest.approx(2.0)] * bench_pairs.PAIRS
    out = capsys.readouterr().out
    assert "ccdf_sparse@seed1 host_probe_s median: parent 0.1 s, change 0.2 s" in out
    # the probes leave the verdict alone: ten wins by 1 MB meet the rule
    assert doc["metrics"]["peak_rss_mb"]["gain_rule_met"] and "claim met" in out
