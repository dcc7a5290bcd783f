"""Benchmark of the ofdm-im-slm package, run from the root of a checkout.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): ccdf_sparse, ccdf_dense_os,
library_calls. Each is a closed loop with one caller, driven through
``cli.main(argv)`` and the package's public functions, with BLAS/OpenMP
threads pinned to 1. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` makes a separate traced run for the per-layer metrics. Every
output is checked; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. A result file and, for traced runs,
the spans are written under .perfbench_out/ in the checkout.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 11

# The shared host alternates, in phases of about a second, between a fast
# state and one in which interpreter-bound code such as a single-block
# encode+select call runs about 1.7 times slower, and the share of slow
# phases differs from run to run. A run-wide median of such calls measures
# that share, so the bounded library_calls timings come from the quiet part
# of the run: the quietest window of this many consecutive calls, and the
# fastest iteration's CLI calls. A CCDF call lasts over a second and spans
# several phases, so the CCDF timings are run-wide medians.
QUIET_WINDOW = 256

# Printed and stored with every untraced result but not bounded: their spread
# between runs on the shared host is larger than any bound allowed.
REPORTED_UNITS = {"call_us_p50": "us", "call_us_p99": "us"}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "wall_s": "s",
    "call_us_quiet": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.idft_s": "s",
    "core.idft_calls": "count",
    "core.oversampled_idft_s": "s",
    "core.oversampled_idft_calls": "count",
    "core.transform_flops": "flop",
    "core.transform_bytes": "B",
    "core.block_from_bits_s": "s",
    "ccdf.run_ccdf_self_s": "s",
    "ccdf.batches": "count",
    "ccdf.fanout_efficiency": "ratio",
    "ccdf.instantiate_scheme_s": "s",
    "ccdf.instantiate_scheme_calls": "count",
    "slm.gen_sets_s": "s",
    "slm.slm_select_s": "s",
    "slm.slm_select_calls": "count",
    "analysis.var_rho_empirical_profile_s": "s",
    "analysis.mu_metric_s": "s",
    "analysis.mu_metric_calls": "count",
    "analysis.punctured_spectrum_s": "s",
    "analysis.punctured_spectrum_calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--golden", type=Path, default=BENCH_DIR / "golden.json",
                   help="seed-commit output fingerprints")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def load_library():
    """Import the package from this checkout's src/, and from nowhere else."""
    package = SRC / "ofdm_im_slm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import ofdm_im_slm
    from ofdm_im_slm import analysis, ccdf, cli, core, slm

    if Path(ofdm_im_slm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: ofdm_im_slm was imported from {ofdm_im_slm.__file__}, not {package}")
    return SimpleNamespace(package=ofdm_im_slm, analysis=analysis, ccdf=ccdf, cli=cli, core=core, slm=slm)


def environment(np, lib) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "package_version": getattr(lib.package, "__version__", None),
    }


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Tally:
    """Operations attempted and failed, with the first errors kept for the report."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, op):
        self.attempted += op["attempted"]
        self.failed += op["failed"]
        self.errors += op["errors"][: max(0, 20 - len(self.errors))]
        return op


def measure_setup(workload, seed, tally):
    """Median set-up time over fresh interpreters, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed)]
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
            times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
            errors = [] if out.returncode == 0 else [f"set-up probe exited with {out.returncode}: {out.stderr}"]
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
            errors = [f"set-up probe failed: {e!r}"]
        tally.add({"attempted": 1, "failed": int(bool(errors)), "errors": errors})
    return statistics.median(times) if times else math.nan, len(times)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_loop(seconds, step):
    """Call step(i) until ``seconds`` have passed, at least once."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def ok_walls(ops):
    good = [op["wall_s"] for op in ops if not op["failed"]]
    return good or [op["wall_s"] for op in ops]


# ---------------------------------------------------------------------------
# end-to-end run

def entry_points(work, lib):
    """The package functions ``work.run`` takes."""
    return [getattr(getattr(lib, module), attr) for _, module, attr in work.ENTRY_POINTS]


def measure_ops(work, fns, seconds, tally):
    """One checked but untimed warm-up operation, then operations for ``seconds``."""
    tally.add(work.run(*fns))
    ops = []
    timed_loop(seconds, lambda i: ops.append(tally.add(work.run(*fns))))
    return ops


def ccdf_metrics(work, ops):
    walls = ok_walls(ops)
    n = len(walls)
    median = statistics.median(walls)
    return {
        "trials_per_s": (statistics.median(work.trials / w for w in walls), f"median of {n} CLI calls"),
        "wall_s": (median, f"median of {n} CLI calls"),
        "call_us_quiet": (median * 1e6, f"median of {n} CLI calls"),
        "call_us_p50": (median * 1e6, f"median of {n} CLI calls"),
        "call_us_p99": (percentile(walls, 99) * 1e6, f"nearest-rank p99 of {n} CLI calls"),
    }


def library_metrics(work, ops):
    """Encode+select timings from the quietest windows of consecutive calls
    within an iteration, and the CLI time of the fastest iteration."""
    good = [op for op in ops if not op["failed"]] or ops
    latencies = [t for op in ops for t in op["latencies"]]
    size = min(QUIET_WINDOW, work.calls)
    windows = [op["latencies"][i:i + size] for op in good for i in range(0, len(op["latencies"]) - size + 1, size)]
    n, w = len(latencies), len(windows)
    return {
        "trials_per_s": (max((size / sum(win) for win in windows), default=math.nan),
                         f"encode+select calls per second in the fastest of {w} windows of {size} calls"),
        "wall_s": (min(op["cli_s"] for op in good), f"fastest of {len(good)} iterations' CLI calls"),
        "call_us_quiet": (min((statistics.median(win) for win in windows), default=math.nan) * 1e6,
                          f"lowest median of {w} windows of {size} encode+select calls"),
        "call_us_p50": (percentile(latencies, 50) * 1e6, f"of {n} encode+select calls"),
        "call_us_p99": (percentile(latencies, 99) * 1e6, f"of {n} encode+select calls"),
    }


# ---------------------------------------------------------------------------
# traced run

def run_traced(work, lib, seconds, tally, tracer):
    """Untraced and traced operations alternate, so their ratio gives the
    tracing overhead. With a worker pool, the pool's spans stay in the
    workers, so the layer split comes from an extra traced call with one
    worker; its time against the pooled call's gives the fan-out efficiency.

    Returns the (operation id, result) pairs the layer split comes from, the
    untraced and the traced results, and the fan-out efficiency (0 without
    a pool).
    """
    plain_fns = entry_points(work, lib)
    traced_fns = [tracer.wrap(span, fn) for (span, _, _), fn in zip(work.ENTRY_POINTS, plain_fns)]
    pooled = getattr(work, "workers", 1) > 1

    def traced_op(op, **kwargs):
        with tracer.patched(lib, op):
            return op, tally.add(work.run(*traced_fns, **kwargs))

    tally.add(work.run(*plain_fns))  # warm-up
    plain, traced, single = [], [], []

    def step(i):
        for trace_it in ((False, True) if i % 2 == 0 else (True, False)):
            if trace_it:
                traced.append(traced_op(2 * i))
            else:
                plain.append(tally.add(work.run(*plain_fns)))
        if pooled:
            single.append(traced_op(2 * i + 1, workers=1))

    timed_loop(seconds, step)
    traced_results = [r for _, r in traced]
    fanout = 0.0
    if single:
        fanout = statistics.median(ok_walls([r for _, r in single])) / (
            work.workers * statistics.median(ok_walls(traced_results)))
    return single or traced, plain, traced_results, fanout


def layer_metrics(tracer, layer_ops, plain, traced, fanout):
    """Per-layer metrics per operation (one CLI call, or one iteration).

    Times named ``*self_s`` exclude the time of traced child spans; the other
    times are inclusive span durations.
    """
    n = len(layer_ops)
    t = tracer.totals(op for op, _ in layer_ops)
    transforms = [t["core.idft"], t["core.oversampled_idft"]]
    overhead = statistics.median(ok_walls(traced)) / statistics.median(ok_walls(plain)) - 1.0
    values = {
        "core.idft_s": t["core.idft"]["s"] / n,
        "core.idft_calls": t["core.idft"]["calls"] / n,
        "core.oversampled_idft_s": t["core.oversampled_idft"]["s"] / n,
        "core.oversampled_idft_calls": t["core.oversampled_idft"]["calls"] / n,
        "core.transform_flops": sum(x["flops"] for x in transforms) / n,
        "core.transform_bytes": sum(x["bytes"] for x in transforms) / n,
        "core.block_from_bits_s": t["core.block_from_bits"]["s"] / n,
        "ccdf.run_ccdf_self_s": t["ccdf.run_ccdf"]["self_s"] / n,
        "ccdf.batches": sum(r.get("batches", 0) for _, r in layer_ops) / n,
        "ccdf.fanout_efficiency": fanout,
        "ccdf.instantiate_scheme_s": t["ccdf.instantiate_scheme"]["s"] / n,
        "ccdf.instantiate_scheme_calls": t["ccdf.instantiate_scheme"]["calls"] / n,
        "slm.gen_sets_s": t["slm.gen_sets"]["s"] / n,
        "slm.slm_select_s": t["slm.slm_select"]["s"] / n,
        "slm.slm_select_calls": t["slm.slm_select"]["calls"] / n,
        "analysis.var_rho_empirical_profile_s": t["analysis.var_rho_empirical_profile"]["s"] / n,
        "analysis.mu_metric_s": t["analysis.mu_metric"]["s"] / n,
        "analysis.mu_metric_calls": t["analysis.mu_metric"]["calls"] / n,
        "analysis.punctured_spectrum_s": t["analysis.punctured_spectrum"]["s"] / n,
        "analysis.punctured_spectrum_calls": t["analysis.punctured_spectrum"]["calls"] / n,
        "cli.self_s": t["cli.main"]["self_s"] / n,
        "cli.out_bytes": sum(r["out_bytes"] for _, r in layer_ops) / n,
        "trace.overhead_frac": overhead,
    }
    notes = {
        "ccdf.fanout_efficiency": "median 1-worker over pooled traced call time, per worker",
        "trace.overhead_frac": f"median of {len(traced)} traced over {len(plain)} untraced operations, minus 1",
    }
    note = f"per operation, {n} traced operations"
    return {name: (value, notes.get(name, note)) for name, value in values.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    import numpy as np

    golden = json.loads(args.golden.read_text())["fingerprints"]
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        check = wl.OutputCheck(golden)
        if args.workload == "library_calls":
            work = wl.LibraryWorkload(np, lib, args.seed, args.tiny, Path(tmp), check)
            end_to_end = library_metrics
        else:
            work = wl.CcdfWorkload(args.workload, args.seed, args.tiny, Path(tmp), check)
            end_to_end = ccdf_metrics
        if args.trace:
            measured = layer_metrics(tracer, *run_traced(work, lib, args.seconds, tally, tracer))
            units, all_units = PER_LAYER_UNITS, PER_LAYER_UNITS
        else:
            setup_s, probes = measure_setup(args.workload, args.seed, tally)
            measured = end_to_end(work, measure_ops(work, entry_points(work, lib), args.seconds, tally))
            measured["setup_s"] = (setup_s, f"median of {probes} fresh interpreters")
            measured["peak_rss_mb"] = (peak_rss_mb(), "largest of this process and its children")
            units, all_units = END_TO_END_UNITS, {**END_TO_END_UNITS, **REPORTED_UNITS}
    checked = sum(key in golden for key in check.observed)

    metrics = {name: {"value": measured[name][0], "unit": unit} for name, unit in units.items()}
    failed_frac = tally.failed / max(tally.attempted, 1)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "environment": environment(np, lib),
        "metrics": {name: {"value": measured[name][0], "unit": unit, "samples": measured[name][1],
                           "bounded": name in units} for name, unit in all_units.items()},
        "attempted": tally.attempted, "failed": tally.failed, "failed_frac": failed_frac,
        "errors": tally.errors, "golden_invocations_checked": checked, "fingerprints": check.observed,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(tracer.to_json()) + "\n")

    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"golden: {checked} of {len(check.observed)} invocations checked against seed-commit fingerprints")
    for error in tally.errors:
        print(f"error: {error}", file=sys.stderr)
    for name, unit in all_units.items():
        value, note = measured[name]
        print(f"{name} = {value!r} {unit} ({note}{'' if name in units else '; reported, not bounded'})")
    print(f"failed_frac = {failed_frac!r} ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
