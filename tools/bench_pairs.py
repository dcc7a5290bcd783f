"""Alternating parent/change pairs of the benchmark, written to one BENCH_*.json.

Usage, from the root of a checkout:

  python3 tools/bench_pairs.py --parent REF --out BENCH_16.json \
      [--set WORKLOAD@SEED ...] [--claim WORKLOAD:METRIC ...] [--title TEXT]

The parent side is a ``git archive`` of REF; the change side is a copy of
the working tree's tracked and untracked, not ignored, files; both are made
in a new temporary directory, removed at the end. Before every
run each tree loses its ``__pycache__`` directories and ``.perfbench_out``,
and every run has PYTHONDONTWRITEBYTECODE=1, so both sides compile the
package on import and no run reads a stale bytecode cache. The sets run
one after another in the order given (default: every workload of
BENCHMARK.json at seed 1). Each set runs 10 pairs, the fewest the gain
rule is defined on; pair i runs the parent first when i is even and the
change first when i is odd: ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` with T the run_seconds of BENCHMARK.json. The last
stdout line of a run is its result; its ``environment`` line gives the
digest of the package source that ran.

Per set and end-to-end metric of BENCHMARK.json the file holds each side's
median and quartiles (``statistics.quantiles(n=4, method="inclusive")``)
over the pairs in which both runs were correct, the pairs the change won
(strictly better; ties count for neither side), the relative gain of the
median, whether the medians are further apart than the parent's
interquartile distance, whether the change's median is worse than the
parent's by more than the metric's bound, each side's failed operations,
and the verdict of the gain rule: at least 10 pairs were run, the change
won at least nine tenths of all of them, its median is better by more
than the parent's interquartile distance, and no larger share of its
operations failed. The file is rewritten after every pair, so a run that
is stopped keeps the pairs it finished (and reads no gain).

Before every run a host-speed probe (``host_probe``) times PROBE_LOOPS
complex ``np.fft.ifft`` calls over (4096, 4, 64) in a fresh interpreter
with the thread pins of ``perfbench/run.py``. Each run's row keeps its
probe seconds (``host_probe_s``), each pair the change's probe over the
parent's (``host_probe_ratio``), and each set each side's median and
quartiles, so that records made at different times can tell a slow host
from a regression. The report of a set prints each side's median probe,
so a record shows when the two sides ran in different host phases; the
probes do not enter the gain rule.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # per set: the fewest pairs the nine-tenths rule is defined on

# The thread variables perfbench/run.py pins to 1 before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PROBE_LOOPS = 20
PROBE = """
import sys, time
import numpy as np
x = np.random.default_rng(0).standard_normal((4096, 4, 64 * 2)).view(complex)
np.fft.ifft(x)  # the first transform of a shape sets it up
start = time.perf_counter()
for _ in range(int(sys.argv[1])):
    np.fft.ifft(x)
print(time.perf_counter() - start)
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def parent_tree(ref: str, dest: Path):
    """The files of commit ``ref``, as ``git archive`` gives them."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        tar.extractall(dest, filter="data")


def change_tree(dest: Path):
    """The working tree's tracked and untracked files, ignored ones left out."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def clean(tree: Path):
    """Remove what an earlier run left: bytecode caches and benchmark output."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    shutil.rmtree(tree / ".perfbench_out", ignore_errors=True)


def host_probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds that ``loops`` complex ``np.fft.ifft`` calls over (4096, 4, 64)
    take in a fresh interpreter with the benchmark's thread pins: how fast
    the host is at the time of a run, so that a slow host can be told from a
    regression when records are compared."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", PROBE, str(loops)], env=env, capture_output=True, text=True,
                         check=True)
    return float(out.stdout)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    clean(tree)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        env = json.loads(next(line for line in lines if line.startswith("environment "))[len("environment "):])
    except (IndexError, StopIteration, ValueError):
        return {"correct": False, "error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    row = {key: result[key] for key in ("correct", "attempted", "failed")}
    row["src_sha256"] = env["src_sha256"]
    row.update({name: metric["value"] for name, metric in result["metrics"].items()})
    return row


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def failures(pairs: list, side: str) -> dict:
    """Failed and attempted operations of one side over all its runs."""
    return {key: sum(p[side].get(key, 0) for p in pairs) for key in ("failed", "attempted")}


def compare(pairs: list, metric: dict) -> dict:
    """Summaries and the gain rule for one end-to-end metric over the pairs.

    Only pairs in which both runs were correct are compared, but the wins
    must reach nine tenths of every pair run, so a run that fails costs the
    change a win.
    """
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    done = [p for p in pairs if p["parent"].get("correct") is True and p["change"].get("correct") is True]
    if not done:
        return {"pairs_run": len(pairs), "pairs": 0}
    parent = [p["parent"][name] for p in done]
    change = [p["change"][name] for p in done]
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    gain = sign * (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
    iqr = ps["q3"] - ps["q1"]
    gap_over_iqr = abs(cs["median"] - ps["median"]) > iqr
    failed = {side: failures(pairs, side) for side in ("parent", "change")}
    # a larger share of failed operations than the parent's voids any gain
    more_failures = (failed["change"]["failed"] * max(failed["parent"]["attempted"], 1)
                     > failed["parent"]["failed"] * max(failed["change"]["attempted"], 1))
    return {
        "better": metric["better"], "bound": bound, "parent": ps, "change": cs,
        "change_wins": wins, "pairs": len(done), "pairs_run": len(pairs), "relative_gain_of_median": gain,
        "parent_iqr": iqr, "median_gap_exceeds_parent_iqr": gap_over_iqr,
        "worse_than_bound": gain < -bound, "failed": failed, "more_failures": more_failures,
        "gain_rule_met": (len(pairs) >= PAIRS and wins >= 0.9 * len(pairs) and gain > 0 and gap_over_iqr
                          and not more_failures),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--out", required=True, type=Path, help="the BENCH_*.json file to write")
    p.add_argument("--set", action="append", metavar="WORKLOAD@SEED",
                   help="a workload of BENCHMARK.json and a benchmark seed (default: every workload at seed 1)")
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                   help="a metric the change claims a gain on, for the verdict lines")
    p.add_argument("--title", default="")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    sets = []
    for item in args.set or [f"{name}@1" for name in names]:
        workload, _, seed = item.partition("@")
        if workload not in names or not seed.isdigit():
            raise SystemExit(f"error: --set {item!r} is not WORKLOAD@SEED with a workload of BENCHMARK.json")
        sets.append((workload, int(seed)))
    seconds = bench["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        for tree in trees.values():
            tree.mkdir()
        parent = git("rev-parse", args.parent).decode().strip()
        parent_tree(parent, trees["parent"])
        change_tree(trees["change"])
        run_sets(args, bench, sets, seconds, trees, parent)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_sets(args, bench: dict, sets: list, seconds: float, trees: dict, parent: str):
    """Run the pairs of every set; ``parent`` is the commit hash the parent tree was made from."""
    doc = {
        "title": args.title,
        "parent": parent,
        "change": "the working tree at the commit that adds this file",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": (
            f"tools/bench_pairs.py: {PAIRS} pairs per workload and seed, each side run from its own "
            "clean tree (git archive of the parent; the change's tracked and untracked, not ignored, files), "
            "with every __pycache__ and .perfbench_out removed before each run and PYTHONDONTWRITEBYTECODE=1. "
            "The parent runs first in even pairs and the change first in odd pairs. Metrics are compared over "
            "the pairs in which both runs were correct; quartiles use statistics.quantiles(n=4, "
            "method='inclusive'). A pair is a win when the change is strictly better. gain_rule_met: at least "
            f"{PAIRS} pairs run, wins in at least 9/10 of all of them, a better median, a median gap over the "
            "parent's interquartile distance, and no larger share of failed operations than the parent's. "
            f"host_probe_s: before every run, the seconds of {PROBE_LOOPS} complex np.fft.ifft calls over "
            "(4096, 4, 64) in a fresh interpreter with the benchmark's thread pins, per side as quartiles; "
            "host_probe_ratio: per pair, the change's probe over the parent's. The probes do not enter the rule."
        ),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": metadata.version("numpy")},
        "src_sha256": {side: [] for side in trees},
        "claims": args.claim,
        "workloads": {},
    }
    for workload, seed in sets:
        key, pairs = f"{workload}@seed{seed}", []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                probe = host_probe()
                pair[side] = run_once(trees[side], workload, seed, seconds)
                pair[side]["host_probe_s"] = probe
                digest = pair[side].get("src_sha256")
                if digest and digest not in doc["src_sha256"][side]:
                    doc["src_sha256"][side].append(digest)
            pair["host_probe_ratio"] = pair["change"]["host_probe_s"] / pair["parent"]["host_probe_s"]
            pairs.append(pair)
            metrics = {m["name"]: compare(pairs, m) for m in bench["end_to_end"]}
            correct = {side: sum(p[side].get("correct") is True for p in pairs) for side in trees}
            probes = {side: summary([p[side]["host_probe_s"] for p in pairs]) for side in trees}
            doc["workloads"][key] = {"workload": workload, "seed": seed, "correct_runs": correct,
                                     "host_probe_s": probes, "metrics": metrics, "pairs": pairs}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{time.strftime('%H:%M:%S')} {key} pair {i + 1}/{PAIRS} "
                  f"correct={pair['parent'].get('correct')}/{pair['change'].get('correct')}", flush=True)
        report(key, metrics, args.claim, probes)


def report(key: str, metrics: dict, claims: list, probes: dict):
    workload = key.split("@")[0]
    print(f"  {key} host_probe_s median: parent {probes['parent']['median']:.4g} s, "
          f"change {probes['change']['median']:.4g} s", flush=True)
    for name, m in metrics.items():
        if not m.get("pairs"):
            continue
        claimed = f"{workload}:{name}" in claims
        verdict = ("claim met" if m["gain_rule_met"] else "claim NOT met") if claimed else (
            "WORSE THAN BOUND" if m["worse_than_bound"] else "within bound")
        print(f"  {key} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
              f"({m['relative_gain_of_median']:+.2%}, {m['change_wins']}/{m['pairs_run']} wins, "
              f"parent IQR {m['parent_iqr']:.4g}) {verdict}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
