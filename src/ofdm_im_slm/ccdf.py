"""Seeded Monte-Carlo CCDF estimation of PAPR for configurable schemes.

Reproducibility contract: all randomness in a run derives from the plan
seed. The plan builds what a run derives from it on first use and keeps
it: the generator sets (``TrialPlan.generator_sets``), drawn from stream
(seed, 0) in a fixed order (phase sequences first, then permutations), and
in bits mode the table of ranked patterns (``TrialPlan.subset_table``).
Trial blocks are drawn in fixed-size batches of BATCH_TRIALS, batch b
(``_batch_counts(plan, b)``) using stream (seed, 2, b). Workers receive the
plan, only partition whole batches and the reduction is integer addition,
so identical plans give bit-identical exceedance counts for any worker
count.

Per-batch draw order (per trial block): for each group in order, the
active rows (uniform subset, or ranked-word lookup in bits mode), then all
symbol indices. The batch is never held as blocks: the drawn positions and
symbol values go to one call of ``slm.candidate_paprs_db``, which assembles
one tile of blocks at a time in a buffer reused by every tile (zeroed, then
one flat index write of the tile's values). The candidates are those of
``slm.slm_select``: the kernel permutes and phase-rotates all U candidates
of the tile, transforms them with one batched, unnormalised (zero-padded)
FFT into buffers reused by every tile, and keeps only each candidate's peak
power, scaled by the unitary factor 1/N. So a batch's working set is its
positions and values plus a few tiles, not a BATCH_TRIALS x N block. The
lowest candidate PAPR of each trial is counted against the gamma grid with
one sorted search and a histogram.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import signal
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import Constellation, SystemConfig, draw_active_positions
from .slm import (
    PermutationSet,
    PhaseSequenceSet,
    all_ones_pss,
    candidate_paprs_db,
    gen_hadamard_pss,
    gen_perm_set,
    gen_random_pss,
    perm_set_to_json,
    pss_to_json,
)

BATCH_TRIALS = 4096

# Largest bits-mode pattern table, in entries (patterns x active rows): 32 MiB
# of indices. The table holds all 2^index_bits patterns, so it grows with
# C(n, k); n=32, k=16 would need 2^29 patterns.
MAX_SUBSET_TABLE_ENTRIES = 1 << 22

# Largest array a plan may need, in complex values: 512 MiB at 16 bytes each.
# That is the largest of a batch's drawn positions and values
# (min(trials, BATCH_TRIALS) x K, bounded by x N since K <= N), one kernel
# tile row (U x N*L) and the M constellation symbols; the phase sequences
# (U x N) are never larger than a tile row. A run needs a few arrays of this
# size at once.
MAX_PLAN_ELEMENTS = 1 << 25

PSS_KINDS = ("random", "cyclic-hadamard", "pinned", "all-ones")
PERM_KINDS = ("identity", "random", "pinned")
SAP_SOURCES = ("uniform", "bits")


@dataclass(frozen=True)
class SchemeDescriptor:
    """One experiment arm: original transmission or SLM with U branches."""

    mode: str
    u: int = 1
    pss_kind: str = "random"
    perm_kind: str = "identity"
    sap_source: str = "uniform"
    pss_alphabet: str = "quaternary"
    pinned_pss: PhaseSequenceSet | None = None
    pinned_perms: PermutationSet | None = None

    def __post_init__(self):
        if self.mode not in ("original", "slm"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # original transmission is SLM with one untouched branch
        if self.mode == "original" and (self.pss_kind != "all-ones" or self.perm_kind != "identity"):
            raise ValueError("original mode implies u=1, all-ones PSS, identity permutation")
        if self.u < 1:
            raise ValueError("u must be >= 1")
        if self.pss_kind not in PSS_KINDS or self.perm_kind not in PERM_KINDS:
            raise ValueError(f"unknown pss/perm kind: {self.pss_kind}/{self.perm_kind}")
        if self.pss_kind == "all-ones" and self.u != 1:
            raise ValueError(f"an all-ones PSS has one sequence, so u must be 1, got {self.u}")
        if self.pss_kind == "pinned" and (self.pinned_pss is None or self.pinned_pss.u != self.u):
            raise ValueError("pinned pss_kind requires pinned_pss with matching u")
        if self.perm_kind == "pinned" and (self.pinned_perms is None or self.pinned_perms.u != self.u):
            raise ValueError("pinned perm_kind requires pinned_perms with matching u")
        if self.sap_source not in SAP_SOURCES:
            raise ValueError(f"unknown sap_source {self.sap_source!r}")

    @classmethod
    def original(cls, sap_source: str = "uniform") -> "SchemeDescriptor":
        return cls(mode="original", u=1, pss_kind="all-ones", perm_kind="identity", sap_source=sap_source)


@dataclass(frozen=True)
class TrialPlan:
    """Complete experiment protocol; everything a run needs, seed included."""

    cfg: SystemConfig
    scheme: SchemeDescriptor
    trials: int
    seed: int
    gamma_db: np.ndarray
    oversample: int = 1

    def __post_init__(self):
        gamma = np.asarray(self.gamma_db, dtype=float)
        object.__setattr__(self, "gamma_db", gamma)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if gamma.size == 0:
            raise ValueError("gamma grid is empty")
        if gamma.ndim != 1 or np.any(np.diff(gamma) <= 0):
            raise ValueError("gamma grid must be strictly increasing")
        if self.oversample < 1 or int(self.oversample) != self.oversample:
            raise ValueError("oversample must be a positive integer")
        cfg = self.cfg
        largest = max(
            min(self.trials, BATCH_TRIALS) * cfg.n_fft,
            self.scheme.u * int(self.oversample) * cfg.n_fft,
            cfg.mod_order,
        )
        if largest > MAX_PLAN_ELEMENTS:
            raise ValueError(
                f"the plan needs an array of {largest} complex values (a batch's drawn positions and "
                f"values, a kernel tile row or the constellation), more than {MAX_PLAN_ELEMENTS}"
            )
        if self.scheme.sap_source == "bits" and (cfg.active << cfg.index_bits) > MAX_SUBSET_TABLE_ENTRIES:
            raise ValueError(
                f"bits sap_source needs a table of 2^{cfg.index_bits} patterns of {cfg.active} rows, "
                f"more than {MAX_SUBSET_TABLE_ENTRIES} entries; use the uniform sap_source"
            )

    @cached_property
    def generator_sets(self) -> tuple:
        """(pss, perms) from ``instantiate_scheme``, built on first use and kept."""
        return instantiate_scheme(self)

    @cached_property
    def subset_table(self) -> np.ndarray | None:
        """Bits mode: the pattern of every rank, row r = ``core.subset_unrank(r, n, k)``
        (``combinations`` runs in lexicographic order). None for uniform patterns."""
        if self.scheme.sap_source != "bits":
            return None
        words, k = 1 << self.cfg.index_bits, self.cfg.active
        subsets = itertools.islice(itertools.combinations(range(self.cfg.group_size), k), words)
        table = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.intp, count=words * k)
        return table.reshape(words, k)


@dataclass(frozen=True)
class CcdfCurve:
    """Exceedance counts per gamma; probability is exactly counts/trials."""

    gamma_db: np.ndarray
    counts: np.ndarray
    trials: int

    def __post_init__(self):
        gamma = np.asarray(self.gamma_db, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "gamma_db", gamma)
        object.__setattr__(self, "counts", counts)
        if gamma.shape != counts.shape:
            raise ValueError("gamma grid and counts differ in length")
        if np.any(counts < 0) or np.any(counts > self.trials):
            raise ValueError("counts out of range")
        if np.any(np.diff(counts) > 0):
            raise ValueError("exceedance counts must be nonincreasing in gamma")

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.trials

    @property
    def tail_resolution(self) -> float:
        # levels below ~10 raw counts are not considered resolvable
        return 10.0 / self.trials


def default_gamma_grid() -> np.ndarray:
    """4.0 .. 13.0 dB in 0.1 dB steps."""
    return np.round(np.arange(40, 131), 1) / 10.0


def instantiate_scheme(plan: TrialPlan):
    """Deterministically build (pss, perms) for a plan from stream (seed, 0)."""
    cfg, scheme = plan.cfg, plan.scheme
    setup_rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(0,)))
    if scheme.pss_kind == "all-ones":
        pss = all_ones_pss(cfg)
    elif scheme.pss_kind == "random":
        pss = gen_random_pss(cfg, scheme.u, setup_rng, alphabet=scheme.pss_alphabet)
    elif scheme.pss_kind == "cyclic-hadamard":
        pss = gen_hadamard_pss(cfg, scheme.u)
    else:
        pss = scheme.pinned_pss
    if scheme.perm_kind == "pinned":
        perms = scheme.pinned_perms
    else:
        perms = gen_perm_set(cfg, scheme.u, scheme.perm_kind, setup_rng)
    return pss.check(cfg), perms.check(cfg)


def _batch_counts(plan: TrialPlan, batch_index: int) -> np.ndarray:
    cfg = plan.cfg
    pss, perms = plan.generator_sets
    symbols = Constellation.psk(cfg.mod_order).symbols
    size = min(BATCH_TRIALS, plan.trials - batch_index * BATCH_TRIALS)
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(2, batch_index)))

    if plan.scheme.sap_source == "uniform":
        pos = draw_active_positions(cfg, size, rng)
    else:
        G, table = cfg.num_groups, plan.subset_table
        ranks = [rng.integers(0, table.shape[0], size=size) for _ in range(G)]
        pos = np.concatenate([table[r] * G + g for g, r in enumerate(ranks)], axis=1)
    # int32 indices are the same bounded 32-bit draws as the default int64 in
    # half the bytes, and they are dropped as soon as they are mapped
    values = symbols[rng.integers(0, symbols.size, size=pos.shape, dtype=np.int32)]

    paprs = candidate_paprs_db(pos, values, cfg.n_fft, pss.sequences, perms.inverse, cfg.mean_power, plan.oversample)
    return _exceedance_counts(paprs.min(axis=-1), plan.gamma_db)


def _exceedance_counts(values: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per gamma, how many values are strictly above it (gamma increasing).

    A value equal to a grid point is not above it: side="left" gives the
    number of grid points strictly below each value.
    """
    below = np.bincount(np.searchsorted(gamma, values, side="left"), minlength=gamma.size + 1)
    return values.size - np.cumsum(below[:-1], dtype=np.int64)


_WORKER_PLAN = None


def _worker_init(plan):
    global _WORKER_PLAN
    _WORKER_PLAN = plan
    # Ctrl-C reaches the whole process group: the parent alone handles it and
    # ends the pool, so a worker prints no traceback of its own
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_batch(batch_index):
    return _batch_counts(_WORKER_PLAN, batch_index)


def run_ccdf(plan: TrialPlan, workers: int = 1) -> CcdfCurve:
    """Estimate the PAPR CCDF for a plan; workers never change the counts."""
    # built before the pool starts, so that every worker inherits them
    plan.generator_sets, plan.subset_table
    n_batches = -(-plan.trials // BATCH_TRIALS)
    # a worker takes whole batches, so more workers than batches would idle
    workers = min(workers, n_batches)
    counts = np.zeros(plan.gamma_db.size, dtype=np.int64)
    if workers <= 1:
        for b in range(n_batches):
            counts += _batch_counts(plan, b)
    else:
        # fork keeps workers importable without a __main__ guard in callers
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(workers, initializer=_worker_init, initargs=(plan,)) as pool:
            for c in pool.imap_unordered(_worker_batch, range(n_batches)):
                counts += c
    return CcdfCurve(gamma_db=plan.gamma_db, counts=counts, trials=plan.trials)


# ---------------------------------------------------------------------------
# curve readout

def papr_at_ccdf(curve: CcdfCurve, target: float) -> float:
    """Gamma (dB) where the curve crosses ``target``.

    Interpolates linearly in (gamma, log10 ccdf); a zero-count bracket point
    is read as half a count. Targets below ~10 raw counts, above the curve
    start, or beyond the grid end are rejected.
    """
    if target < curve.tail_resolution:
        raise ValueError(f"target {target} below resolution {curve.tail_resolution} of this curve")
    p = curve.probabilities
    gamma = curve.gamma_db
    if target > p[0]:
        raise ValueError(f"target {target} above curve start {p[0]}")
    below = np.nonzero(p <= target)[0]
    if below.size == 0:
        raise ValueError(f"curve stays above target {target} on this gamma grid")
    j = int(below[0])
    if p[j] == target:
        return float(gamma[j])
    p_hi = p[j - 1]
    p_lo = max(p[j], 0.5 / curve.trials)
    frac = (math.log10(p_hi) - math.log10(target)) / (math.log10(p_hi) - math.log10(p_lo))
    return float(gamma[j - 1] + frac * (gamma[j] - gamma[j - 1]))


@dataclass(frozen=True)
class CurveComparison:
    """Pointwise deltas plus dB gaps at selected CCDF levels (a minus b)."""

    gamma_db: np.ndarray
    delta: np.ndarray
    max_abs_delta: float
    dominance: str
    gaps_db: dict = field(default_factory=dict)


def compare_curves(a: CcdfCurve, b: CcdfCurve, levels=(), min_count: int = 100) -> CurveComparison:
    """Compare two curves on the same gamma grid.

    ``dominance`` is judged only where both arms have at least ``min_count``
    raw exceedances; ``gaps_db[level]`` is (gap, (lo, hi)) where the interval
    comes from shifting each level by two binomial standard deviations.
    """
    if a.gamma_db.shape != b.gamma_db.shape or np.any(a.gamma_db != b.gamma_db):
        raise ValueError("gamma grids differ")
    delta = a.probabilities - b.probabilities
    mask = (a.counts >= min_count) & (b.counts >= min_count)
    if not np.any(mask):
        dominance = "unresolved"
    elif np.all(delta[mask] <= 0) and np.all(delta[mask] >= 0):
        dominance = "equal"
    elif np.all(delta[mask] <= 0):
        dominance = "a<=b"
    elif np.all(delta[mask] >= 0):
        dominance = "b<=a"
    else:
        dominance = "crossing"
    gaps = {}
    for level in levels:
        g_a, g_b = papr_at_ccdf(a, level), papr_at_ccdf(b, level)
        lo, hi = _gap_interval(a, b, level)
        gaps[level] = (g_a - g_b, (lo, hi))
    return CurveComparison(
        gamma_db=a.gamma_db,
        delta=delta,
        max_abs_delta=float(np.max(np.abs(delta))),
        dominance=dominance,
        gaps_db=gaps,
    )


def _shifted_targets(curve: CcdfCurve, level: float):
    sigma = math.sqrt(level * (1.0 - level) / curve.trials)
    hi_t = min(level + 2 * sigma, float(curve.probabilities[0]))
    lo_t = max(level - 2 * sigma, curve.tail_resolution)
    # papr_at_ccdf is decreasing in the target
    return papr_at_ccdf(curve, hi_t), papr_at_ccdf(curve, lo_t)


def _gap_interval(a: CcdfCurve, b: CcdfCurve, level: float):
    a_lo, a_hi = _shifted_targets(a, level)
    b_lo, b_hi = _shifted_targets(b, level)
    return a_lo - b_hi, a_hi - b_lo


# ---------------------------------------------------------------------------
# serialization (shared by the CLI and by byte-identity tests)

def format_sig9(value) -> str:
    """Fixed 9-significant-digit formatting used for all numeric file output."""
    return format(float(value), ".9g")


def curve_csv_text(curve: CcdfCurve) -> str:
    lines = ["gamma_db,ccdf,count,trials"]
    for g, c in zip(curve.gamma_db, curve.counts):
        lines.append(f"{format_sig9(g)},{format_sig9(c / curve.trials)},{int(c)},{curve.trials}")
    return "\n".join(lines) + "\n"


def _fingerprint(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def plan_json_doc(plan: TrialPlan) -> dict:
    cfg = plan.cfg
    pss, perms = plan.generator_sets
    return {
        "config": {
            "n_fft": cfg.n_fft,
            "group_size": cfg.group_size,
            "active": cfg.active,
            "mod_order": cfg.mod_order,
        },
        "scheme": {
            "mode": plan.scheme.mode,
            "u": plan.scheme.u,
            "pss_kind": plan.scheme.pss_kind,
            "perm_kind": plan.scheme.perm_kind,
            "sap_source": plan.scheme.sap_source,
            "pss_alphabet": plan.scheme.pss_alphabet,
        },
        "trials": plan.trials,
        "seed": plan.seed,
        "oversample": plan.oversample,
        "gamma_db": [format_sig9(g) for g in plan.gamma_db],
        "batch_trials": BATCH_TRIALS,
        "tail_resolution_ccdf": 10.0 / plan.trials,
        "pss_sha256": _fingerprint(pss_to_json(pss)),
        "perm_sha256": _fingerprint(perm_set_to_json(perms)),
    }
