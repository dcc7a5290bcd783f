"""Workloads of the benchmark: the CLI invocations and library calls each one
repeats, and the checks applied to every output.

Nothing here imports the package at module level, so the smoke test and the
golden recorder can build argument lists without loading numpy. The package
modules are passed in as ``lib`` (a namespace with ``cli``, ``core``, ``slm``
and ``analysis``) by the caller, which decides where they are imported from.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import time
import traceback
from pathlib import Path

WORKLOADS = ("ccdf_sparse", "ccdf_dense_os", "library_calls")

N_FFT, GROUP_SIZE, MOD_ORDER, U = 64, 16, 4, 4
CONFIG_ARGS = ["--n-fft", str(N_FFT), "--group-size", str(GROUP_SIZE), "--mod-order", str(MOD_ORDER)]

# Both arms are acceptance traffic of the paper's experiments. The sparse arm
# (8 of 64 subcarriers non-zero) is where a sparse-gather kernel would gain;
# the dense oversampled arm is where it should not, and it is the only one
# that covers the ranked-bits pattern sampler and the worker pool.
CCDF_ARGS = {
    "ccdf_sparse": [
        "--active", "2", "--scheme", "slm", "--u", "4", "--pss", "random",
        "--perm", "random", "--sap-source", "uniform", "--oversample", "1",
        "--workers", "1",
    ],
    "ccdf_dense_os": [
        "--active", "14", "--scheme", "slm", "--u", "4", "--pss", "hadamard",
        "--perm", "identity", "--sap-source", "bits", "--oversample", "4",
        "--workers", "2",
    ],
}

# The same arms as library objects, for the fresh-interpreter set-up probe.
SETUP_PLANS = {
    "ccdf_sparse": dict(active=2, pss_kind="random", perm_kind="random", sap_source="uniform", oversample=1),
    "ccdf_dense_os": dict(active=14, pss_kind="cyclic-hadamard", perm_kind="identity", sap_source="bits", oversample=4),
}

LIBRARY_ACTIVE = 2
ORACLE_EVERY = 8  # one encode+select call in this many is checked by the oracle


def ccdf_trials(tiny: bool) -> int:
    """Trials per CLI call: 16 (tiny: 2) batches of 4096."""
    return (2 if tiny else 16) * 4096


def library_calls_per_iteration(tiny: bool) -> int:
    # Enough calls that the slower first calls after the CLI calls (cold
    # caches) are a small share of an iteration's encode+select time.
    return 16 if tiny else 1024


def ccdf_argv(workload: str, seed: int, tiny: bool, out_base, workers: int | None = None) -> list:
    args = list(CCDF_ARGS[workload])
    if workers is not None:
        args[args.index("--workers") + 1] = str(workers)
    return ["ccdf", *CONFIG_ARGS, *args, "--trials", str(ccdf_trials(tiny)), "--seed", str(seed), "--out", str(out_base)]


def library_cli_argvs(seed: int, tiny: bool, outdir) -> list:
    """(name, argv, output file) for the CLI calls of one library_calls iteration."""
    outdir = Path(outdir)
    var_trials = 20000 if tiny else 100000
    calls = [
        ("var_rho", ["verify-var-rho", *CONFIG_ARGS, "--active", str(LIBRARY_ACTIVE),
                     "--trials", str(var_trials), "--seed", str(seed)], outdir / "var_rho.csv"),
        ("mu_random", ["analyze-perm", *CONFIG_ARGS, "--kind", "random", "--u", str(U),
                       "--seed", str(seed)], outdir / "mu_random.json"),
        ("mu_identity", ["analyze-perm", *CONFIG_ARGS, "--kind", "identity", "--u", "2"],
         outdir / "mu_identity.json"),
        ("spectra", ["analyze-pss", *CONFIG_ARGS, "--active", str(LIBRARY_ACTIVE), "--pss", "hadamard",
                     "--u", "3", "--pair", "1", "2", "--seed", str(seed)], outdir / "spectra.csv"),
    ]
    return [(name, argv + ["--out", str(path)], path) for name, argv, path in calls]


def golden_key(argv) -> str:
    """The invocation with its output path and worker count left out.

    Outputs must not depend on either, so one fingerprint covers every
    worker count.
    """
    key = []
    args = iter(argv)
    for a in args:
        if a in ("--out", "--workers"):
            next(args)
        else:
            key.append(a)
    return " ".join(key)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OutputCheck:
    """Byte-level check of every output file.

    A file is compared with the fingerprint recorded at the seed commit for
    its invocation; when none is recorded, with the first output of the same
    invocation in this run. ``observed`` collects the fingerprints seen.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self.observed: dict = {}

    def errors(self, key: str, kind: str, data: bytes) -> list:
        digest = sha256(data)
        expected = self.golden.get(key, {}).get(kind)
        first = self.observed.setdefault(key, {}).setdefault(kind, digest)
        if expected is not None and digest != expected:
            return [f"{kind} of `{key}` differs from the seed-commit fingerprint"]
        if digest != first:
            return [f"{kind} of `{key}` differs from an earlier repetition"]
        return []


# What reading and parsing a missing or malformed output file can raise.
MALFORMED = (OSError, ValueError, KeyError, IndexError, TypeError)


def call_cli(main, argv) -> tuple:
    """Run ``main(argv)`` with its stdout captured; return (seconds, errors)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
    except Exception:  # counted as a failed operation; the run goes on
        return time.perf_counter() - start, [f"`{' '.join(argv)}` raised:\n{traceback.format_exc()}"]
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"`{' '.join(argv)}` exited with {code}"]
    return elapsed, []


# ---------------------------------------------------------------------------
# ccdf workloads

def ccdf_csv_errors(text: str, trials: int) -> list:
    """Invariants of the CCDF CSV: header, default gamma grid, trials column,
    ccdf == count/trials, counts within [0, trials] and non-increasing."""
    lines = text.splitlines()
    if not lines or lines[0] != "gamma_db,ccdf,count,trials":
        return ["CSV header is wrong"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 91 or any(len(r) != 4 for r in rows):
        return ["CSV does not have 91 rows of 4 fields"]
    errors = []
    counts = []
    for i, (gamma, ccdf, count, n) in enumerate(rows):
        c = int(count)
        counts.append(c)
        if abs(float(gamma) - (4.0 + 0.1 * i)) > 1e-9:
            errors.append(f"gamma {gamma} off the default grid")
        if int(n) != trials or not 0 <= c <= trials:
            errors.append(f"row {i}: count {c} or trials {n} out of range")
        if not math.isclose(float(ccdf), c / trials, rel_tol=1e-8, abs_tol=0.0):
            errors.append(f"row {i}: ccdf {ccdf} != {c}/{trials}")
    if any(b > a for a, b in zip(counts, counts[1:])):
        errors.append("counts increase with gamma")
    return errors


def plan_json_errors(doc: dict, trials: int, seed: int, oversample: int) -> list:
    want = {"trials": trials, "seed": seed, "oversample": oversample}
    errors = [f"plan JSON {k} is {doc.get(k)!r}, expected {v}" for k, v in want.items() if doc.get(k) != v]
    if doc.get("scheme", {}).get("u") != U:
        errors.append("plan JSON scheme.u is not 4")
    return errors


class CcdfWorkload:
    """One ``ofdm-im-slm ccdf`` invocation, repeated."""

    # (span name, module, attribute) of each function ``run`` takes, in order
    ENTRY_POINTS = (("cli.main", "cli", "main"),)

    def __init__(self, name: str, seed: int, tiny: bool, outdir: Path, check: OutputCheck):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.trials = ccdf_trials(tiny)
        self.out_base = outdir / name
        self.check = check
        args = CCDF_ARGS[name]
        self.workers = int(args[args.index("--workers") + 1])
        self.oversample = int(args[args.index("--oversample") + 1])

    def argv(self, workers: int | None = None) -> list:
        return ccdf_argv(self.name, self.seed, self.tiny, self.out_base, workers)

    def run(self, main, workers: int | None = None) -> dict:
        """One CLI call and the checks on its two files."""
        argv = self.argv(workers)
        elapsed, errors = call_cli(main, argv)
        out_bytes = batches = 0
        if not errors:
            key = golden_key(argv)
            try:
                csv = Path(f"{self.out_base}.csv").read_bytes()
                plan = Path(f"{self.out_base}.json").read_bytes()
                out_bytes = len(csv) + len(plan)
                errors += self.check.errors(key, "csv", csv) + self.check.errors(key, "json", plan)
                errors += ccdf_csv_errors(csv.decode(), self.trials)
                doc = json.loads(plan)
                batches = math.ceil(self.trials / doc["batch_trials"])
                errors += plan_json_errors(doc, self.trials, self.seed, self.oversample)
            except MALFORMED as e:
                errors.append(f"output of `{key}` is missing or malformed: {e!r}")
        return {"wall_s": elapsed, "attempted": 1, "failed": int(bool(errors)), "errors": errors,
                "out_bytes": out_bytes, "batches": batches}


# ---------------------------------------------------------------------------
# library_calls workload

def oracle_block(bits, cfg, symbols):
    """Block from bits by brute force: lexicographic subset by enumeration,
    one symbol per active row (MSB first), group g at subcarriers G*r + g."""
    G, n, k = cfg.num_groups, cfg.group_size, cfg.active
    bps = cfg.mod_order.bit_length() - 1
    p = cfg.bits_per_group
    block = [0j] * cfg.n_fft
    for g in range(G):
        word = bits[g * p:(g + 1) * p]
        rank = int("".join(map(str, word[:cfg.index_bits])), 2)
        rows = next(itertools.islice(itertools.combinations(range(n), k), rank, None))
        for i, r in enumerate(rows):
            sym = word[cfg.index_bits + i * bps:cfg.index_bits + (i + 1) * bps]
            block[G * r + g] = symbols[int("".join(map(str, sym)), 2)]
    return block


def oracle_errors(np, bits, block, result, pss, perms, cfg, symbols, dft_matrix) -> list:
    """The encode+select result against the brute-force DFT-matrix oracle."""
    want = np.array(oracle_block(bits, cfg, symbols))
    if np.max(np.abs(block - want)) > 1e-12:
        return ["block_from_bits differs from the brute-force mapping"]
    paprs = []
    for u in range(pss.u):
        permuted = np.empty_like(want)
        permuted[perms.perms[u]] = want
        x = (pss.sequences[u] * permuted) @ dft_matrix
        paprs.append(10.0 * math.log10(float(np.max(np.abs(x) ** 2)) / cfg.mean_power))
    if np.max(np.abs(np.array(paprs) - result.papr_db)) > 1e-9:
        return ["slm_select PAPRs differ from the DFT-matrix oracle"]
    # Branches can tie exactly; rounding then decides the oracle's argmin, so
    # the selection is checked against the PAPRs it reported.
    if result.selected_index != int(np.argmin(result.papr_db)):
        return ["slm_select did not keep the lowest-PAPR branch"]
    return []


def library_cli_errors(var_rho_closed_form, cfg, name: str, text: str) -> list:
    """Oracle checks on the CLI outputs of one iteration."""
    if name == "var_rho":
        errors = []
        for line in text.splitlines()[1:]:
            m, _, empirical, _ = line.split(",")
            closed = var_rho_closed_form(cfg, int(m))
            emp = float(empirical)
            if closed > 0 and abs(emp - closed) / closed >= 0.05:
                errors.append(f"var_rho({m}) = {emp} is not within 5% of {closed}")
            if closed == 0 and abs(emp) >= 1e-20:
                errors.append(f"var_rho({m}) = {emp} at a zero lag")
        return errors
    if name == "mu_identity":
        pairs = json.loads(text)["pairs"]
        if not pairs or any(abs(p["mu"] - (N_FFT - 1)) > 1e-9 for p in pairs):
            return [f"identity-pair mu is not {N_FFT - 1}"]
    if name == "spectra":
        lines = text.splitlines()
        bound = float(lines[1].split("=")[1])
        if any(float(line.split(",")[2]) > bound for line in lines[3:]):
            return ["punctured spectrum exceeds the c + 1 - k/n bound"]
    return []


class LibraryWorkload:
    """One caller: single-block encode+select calls, then the analysis CLI."""

    ENTRY_POINTS = (("cli.main", "cli", "main"),
                    ("core.block_from_bits", "core", "block_from_bits"),
                    ("slm.slm_select", "slm", "slm_select"))

    def __init__(self, np, lib, seed: int, tiny: bool, outdir: Path, check: OutputCheck):
        self.np, self.check = np, check
        self.var_rho_closed_form = lib.analysis.var_rho_closed_form
        self.calls = library_calls_per_iteration(tiny)
        self.cli_calls = library_cli_argvs(seed, tiny, outdir)
        core, slm = lib.core, lib.slm
        self.cfg = core.SystemConfig(N_FFT, GROUP_SIZE, LIBRARY_ACTIVE, MOD_ORDER)
        self.constellation = core.Constellation.psk(MOD_ORDER)
        rng = np.random.default_rng(seed)
        self.pss = slm.gen_random_pss(self.cfg, U, rng)
        self.perms = slm.gen_perm_set(self.cfg, U, "random", rng)
        width = self.cfg.bits_per_group * self.cfg.num_groups
        self.words = rng.integers(0, 2, size=(4 * self.calls, width)).tolist()
        i, m = np.meshgrid(np.arange(N_FFT), np.arange(N_FFT), indexing="ij")
        self.dft_matrix = np.exp(2j * np.pi * i * m / N_FFT) / math.sqrt(N_FFT)
        self.next_word = 0

    def run(self, main, block_from_bits, slm_select) -> dict:
        """One iteration. Its wall time is the time spent in the library and
        the CLI; the checks on their outputs are not timed."""
        np, cfg = self.np, self.cfg
        latencies, errors = [], []
        failed = 0
        for _ in range(self.calls):
            bits = self.words[self.next_word % len(self.words)]
            self.next_word += 1
            t0 = time.perf_counter()
            try:
                block, _ = block_from_bits(bits, cfg, self.constellation)
                result = slm_select(block, self.pss, self.perms, cfg)
                latencies.append(time.perf_counter() - t0)
                bad = []
                if self.next_word % ORACLE_EVERY == 0:
                    bad = oracle_errors(np, bits, block, result, self.pss, self.perms, cfg,
                                        self.constellation.symbols, self.dft_matrix)
            except Exception:  # counted as a failed operation; the run goes on
                bad = [traceback.format_exc()]
            failed += bool(bad)
            errors += bad
        out_bytes = 0
        cli_seconds = 0.0
        for name, argv, path in self.cli_calls:
            elapsed, bad = call_cli(main, argv)
            cli_seconds += elapsed
            if not bad:
                key = golden_key(argv)
                try:
                    data = path.read_bytes()
                    out_bytes += len(data)
                    bad = self.check.errors(key, "out", data) + library_cli_errors(
                        self.var_rho_closed_form, cfg, name, data.decode())
                except MALFORMED as e:
                    bad = [f"output of `{key}` is missing or malformed: {e!r}"]
            failed += bool(bad)
            errors += bad
        return {"wall_s": sum(latencies) + cli_seconds, "cli_s": cli_seconds,
                "attempted": self.calls + len(self.cli_calls), "failed": failed, "errors": errors,
                "latencies": latencies, "out_bytes": out_bytes}
