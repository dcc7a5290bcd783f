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
count. ``multiprocessing`` is imported only when a run fans out, so
importing the package or running with one worker never loads it.

Per-batch draw order (per trial block): for each group in order, the
active rows (uniform subset, or ranked-word lookup in bits mode), then all
symbol indices. The batch is never held as blocks or as symbol values: the
drawn int32 positions and symbol indices go with the constellation to one
call of ``slm.candidate_paprs_db``, which assembles one tile of blocks at a
time in a buffer reused by every tile (zeroed, then one flat index write of
the tile's symbols, looked up from its indices). The candidates are those of
``slm.slm_select``: the kernel permutes and phase-rotates all U candidates
of the tile, transforms them with one batched, unnormalised (zero-padded)
FFT into buffers reused by every tile, and keeps only each candidate's peak
power, scaled by the unitary factor 1/N. So a batch's working set is its
positions and symbol indices (8 bytes per active subcarrier) plus a few
tiles, not a BATCH_TRIALS x N block. The lowest candidate PAPR of each
trial is counted against the gamma grid with one sorted search and a
histogram.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import signal
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Constellation, SystemConfig, _as_int, _shown, draw_active_positions
from .slm import (
    IDENTITY,
    PERM_DRAWS,
    PermutationSet,
    PhaseSequenceSet,
    _alphabet_draw,
    all_ones_pss,
    candidate_paprs_db,
    gen_hadamard_pss,
    gen_perm_set,
    gen_random_pss,
    perm_set_to_json,
    pss_to_json,
)

BATCH_TRIALS = 4096

# Largest bits-mode pattern table, in entries (patterns x active rows): 16 MiB
# of int32 indices. The table holds all 2^index_bits patterns, so it grows
# with C(n, k); n=32, k=16 would need 2^29 patterns.
MAX_SUBSET_TABLE_ENTRIES = 1 << 22

# Largest array a plan may need, in complex values: 512 MiB at 16 bytes each.
# That is the largest of a batch's drawn positions and symbol indices
# (min(trials, BATCH_TRIALS) x K, bounded by x N since K <= N), one kernel
# tile row (U x N*L) and the M constellation symbols; the phase sequences
# (U x N) are never larger than a tile row. A run needs a few arrays of this
# size at once.
MAX_PLAN_ELEMENTS = 1 << 25

# The choices of a scheme, each listed once; the CLI offers these lists.
# The generated permutation kinds and the PSS alphabets are listed in slm.
MODES = (ORIGINAL, SLM) = ("original", "slm")
SAP_SOURCES = (UNIFORM, BITS) = ("uniform", "bits")
PSS_KINDS = ("random", "cyclic-hadamard", "pinned", "all-ones")
PERM_KINDS = (*PERM_DRAWS, "pinned")


@dataclass(frozen=True)
class SchemeDescriptor:
    """One experiment arm: original transmission or SLM with U branches."""

    mode: str
    u: int = 1
    pss_kind: str = "random"
    perm_kind: str = IDENTITY
    sap_source: str = UNIFORM
    pss_alphabet: str = "quaternary"
    pinned_pss: PhaseSequenceSet | None = None
    pinned_perms: PermutationSet | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # original transmission is SLM with one untouched branch
        if self.mode == ORIGINAL and (self.pss_kind != "all-ones" or self.perm_kind != IDENTITY):
            raise ValueError("original mode implies u=1, all-ones PSS, identity permutation")
        object.__setattr__(self, "u", _as_int("u", self.u, 1))
        if self.pss_kind not in PSS_KINDS or self.perm_kind not in PERM_KINDS:
            raise ValueError(f"unknown pss/perm kind: {self.pss_kind}/{self.perm_kind}")
        if self.pss_kind == "all-ones" and self.u != 1:
            raise ValueError(f"an all-ones PSS has one sequence, so u must be 1, got {self.u}")
        pinned_pss, pinned_perms = self.pinned_pss, self.pinned_perms
        if self.pss_kind == "pinned" and not (isinstance(pinned_pss, PhaseSequenceSet) and pinned_pss.u == self.u):
            raise ValueError("pinned pss_kind requires pinned_pss with matching u")
        if self.perm_kind == "pinned" and not (isinstance(pinned_perms, PermutationSet) and pinned_perms.u == self.u):
            raise ValueError("pinned perm_kind requires pinned_perms with matching u")
        # a run takes a pinned set only from a pinned kind
        if self.pss_kind != "pinned" and self.pinned_pss is not None:
            raise ValueError(f"pinned_pss is given, but pss_kind is {self.pss_kind!r}, not 'pinned'")
        if self.perm_kind != "pinned" and self.pinned_perms is not None:
            raise ValueError(f"pinned_perms is given, but perm_kind is {self.perm_kind!r}, not 'pinned'")
        if self.sap_source not in SAP_SOURCES:
            raise ValueError(f"unknown sap_source {self.sap_source!r}")
        # checked whatever the PSS kind, as the plan JSON records it
        _alphabet_draw(self.pss_alphabet)

    @classmethod
    def original(cls, sap_source: str = UNIFORM) -> "SchemeDescriptor":
        return cls(mode=ORIGINAL, pss_kind="all-ones", sap_source=sap_source)


def _gamma_grid(values) -> np.ndarray:
    """``values`` as a float array if they are one nonempty, finite and
    strictly increasing row of gamma points, else ValueError."""
    gamma = np.asarray(values, dtype=float)
    if gamma.size == 0:
        raise ValueError("gamma grid is empty")
    if gamma.ndim != 1 or not np.all(np.isfinite(gamma)):
        raise ValueError("gamma grid must be one row of finite values")
    # written so that a NaN difference fails too
    if not np.all(np.diff(gamma) > 0):
        raise ValueError("gamma grid must be strictly increasing")
    return gamma


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
        object.__setattr__(self, "trials", _as_int("trials", self.trials, 1))
        object.__setattr__(self, "seed", _as_int("seed", self.seed, 0))
        object.__setattr__(self, "oversample", _as_int("oversample", self.oversample, 1))
        object.__setattr__(self, "gamma_db", _gamma_grid(self.gamma_db))
        cfg = self.cfg
        largest = max(
            min(self.trials, BATCH_TRIALS) * cfg.n_fft,
            self.scheme.u * self.oversample * cfg.n_fft,
            cfg.mod_order,
        )
        if largest > MAX_PLAN_ELEMENTS:
            raise ValueError(
                f"the plan needs an array of {largest} complex values (a batch's drawn positions and "
                f"symbol indices, a kernel tile row or the constellation), more than {MAX_PLAN_ELEMENTS}"
            )
        if self.scheme.sap_source == BITS and (cfg.active << cfg.index_bits) > MAX_SUBSET_TABLE_ENTRIES:
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
        """Bits mode: the int32 pattern of every rank, row r =
        ``core.subset_unrank(r, n, k)`` (``combinations`` runs in
        lexicographic order). None for uniform patterns."""
        if self.scheme.sap_source != BITS:
            return None
        words, k = 1 << self.cfg.index_bits, self.cfg.active
        subsets = itertools.islice(itertools.combinations(range(self.cfg.group_size), k), words)
        table = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.int32, count=words * k)
        return table.reshape(words, k)


@dataclass(frozen=True)
class CcdfCurve:
    """Exceedance counts per gamma; probability is exactly counts/trials."""

    gamma_db: np.ndarray
    counts: np.ndarray
    trials: int

    def __post_init__(self):
        gamma = _gamma_grid(self.gamma_db)
        given = np.asarray(self.counts)
        kind = given.dtype.kind
        # a cast to int64 would truncate 2.7 to 2 without a word
        if kind not in "iu" and not (kind == "f" and np.all(np.isfinite(given) & (np.trunc(given) == given))):
            raise ValueError(f"counts must be whole numbers, got {_shown(self.counts)}")
        trials = _as_int("trials", self.trials, 1)
        if gamma.shape != given.shape:
            raise ValueError("gamma grid and counts differ in length")
        # checked before the cast, which would wrap a count beyond int64
        if np.any(given < 0) or np.any(given > trials):
            raise ValueError("counts out of range")
        counts = given.astype(np.int64)
        if np.any(np.diff(counts) > 0):
            raise ValueError("exceedance counts must be nonincreasing in gamma")
        object.__setattr__(self, "gamma_db", gamma)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "trials", trials)

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
    """Deterministically build (pss, perms) for a plan from stream (seed, 0).

    A generated set fits the config by construction; a pinned one is checked.
    """
    cfg, scheme = plan.cfg, plan.scheme
    setup_rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(0,)))
    if scheme.pss_kind == "all-ones":
        pss = all_ones_pss(cfg)
    elif scheme.pss_kind == "random":
        pss = gen_random_pss(cfg, scheme.u, setup_rng, alphabet=scheme.pss_alphabet)
    elif scheme.pss_kind == "cyclic-hadamard":
        pss = gen_hadamard_pss(cfg, scheme.u)
    else:
        pss = scheme.pinned_pss.check(cfg)
    if scheme.perm_kind == "pinned":
        perms = scheme.pinned_perms.check(cfg)
    else:
        perms = gen_perm_set(cfg, scheme.u, scheme.perm_kind, setup_rng)
    return pss, perms


def _batch_counts(plan: TrialPlan, batch_index: int) -> np.ndarray:
    cfg = plan.cfg
    pss, perms = plan.generator_sets
    symbols = Constellation.psk(cfg.mod_order).symbols
    size = min(BATCH_TRIALS, plan.trials - batch_index * BATCH_TRIALS)
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(2, batch_index)))

    if plan.scheme.sap_source == UNIFORM:
        # sorted: column j of the positions takes column j of the symbol draw
        pos = draw_active_positions(cfg, size, rng)
    else:
        G, table = cfg.num_groups, plan.subset_table
        # group by group, as G draws of size ranks would be
        ranks = rng.integers(0, table.shape[0], size=(G, size)).T
        # one gather of every trial's G row subsets, made flat indices in place
        pos = table[ranks]
        pos *= G
        pos += np.arange(G, dtype=np.int32)[:, None]
        pos = pos.reshape(size, G * cfg.active)
    # int32 indices are the same bounded 32-bit draws as the default int64 in
    # half the bytes; the kernel maps them to symbols one tile at a time
    symbol_index = rng.integers(0, symbols.size, size=pos.shape, dtype=np.int32)

    paprs = candidate_paprs_db(
        pos, symbol_index, symbols, cfg.n_fft, pss.sequences, perms.inverse, cfg.mean_power, plan.oversample
    )
    # the row minimum as one np.minimum per branch column: the same values as
    # paprs.min(axis=-1), whose reduction over a short last axis is slow
    best = paprs[:, 0].copy()
    for u in range(1, paprs.shape[1]):
        np.minimum(best, paprs[:, u], out=best)
    return _exceedance_counts(best, plan.gamma_db)


def _exceedance_counts(values: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per gamma, how many values are strictly above it (gamma increasing).

    A value equal to a grid point is not above it: side="right" counts the
    sorted values at or below each grid point. NaN sorts last, so it is
    above every grid point.
    """
    not_above = np.searchsorted(np.sort(values), gamma, side="right")
    return values.size - not_above.astype(np.int64)


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
    """Estimate the PAPR CCDF for a plan; workers never change the counts.

    With one worker, or one batch, the batches run in this process and
    ``multiprocessing`` is not imported; it is imported, once per process,
    only when a pool starts.
    """
    workers = _as_int("workers", workers, 1)
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
        import multiprocessing

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
    start, or beyond the grid end are rejected, and so is a target that is
    no finite probability above 0.
    """
    if not 0 < target < math.inf:  # NaN fails this too
        raise ValueError(f"target {target} is not a finite probability above 0")
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
