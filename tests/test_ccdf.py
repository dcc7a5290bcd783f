import pickle
import tracemalloc

import numpy as np
import pytest

from ofdm_im_slm import (
    CcdfCurve,
    Constellation,
    PermutationSet,
    SchemeDescriptor,
    SystemConfig,
    TrialPlan,
    candidate_paprs_db,
    ccdf,
    compare_curves,
    default_gamma_grid,
    draw_active_positions,
    instantiate_scheme,
    papr_at_ccdf,
    run_ccdf,
    subset_unrank,
)
from ofdm_im_slm.ccdf import (
    BATCH_TRIALS,
    MAX_PLAN_ELEMENTS,
    MAX_SUBSET_TABLE_ENTRIES,
    SAP_SOURCES,
    _batch_counts,
    _exceedance_counts,
    curve_csv_text,
    plan_json_doc,
)

CFG = SystemConfig(n_fft=64, group_size=16, active=2, mod_order=4)
CFG14 = SystemConfig(n_fft=64, group_size=16, active=14, mod_order=4)
GAMMA = default_gamma_grid()


def make_plan(cfg=CFG, scheme=None, trials=20000, seed=11, gamma=GAMMA, **kw):
    scheme = scheme or SchemeDescriptor.original()
    return TrialPlan(cfg=cfg, scheme=scheme, trials=trials, seed=seed, gamma_db=gamma, **kw)


# ---------------------------------------------------------------------------
# descriptors and plans

def test_scheme_original_invariant():
    s = SchemeDescriptor.original()
    assert s.u == 1 and s.pss_kind == "all-ones" and s.perm_kind == "identity"
    with pytest.raises(ValueError):
        SchemeDescriptor(mode="original", u=4)
    with pytest.raises(ValueError):
        SchemeDescriptor(mode="original", u=1, pss_kind="random")


def test_scheme_validation():
    with pytest.raises(ValueError):
        SchemeDescriptor(mode="slm", u=2, pss_kind="pinned")  # missing pinned set
    with pytest.raises(ValueError):
        SchemeDescriptor(mode="slm", u=2, pss_kind="dither")
    with pytest.raises(ValueError):
        SchemeDescriptor(mode="slm", u=2, sap_source="poisson")
    # an all-ones PSS has one sequence, so it makes one branch only
    with pytest.raises(ValueError, match="all-ones"):
        SchemeDescriptor(mode="slm", u=4, pss_kind="all-ones")
    SchemeDescriptor(mode="slm", u=1, pss_kind="all-ones")


def test_pinned_permutations_must_stay_in_their_groups():
    # a bijection that swaps subcarriers 0 and 1, which lie in different groups
    d = np.arange(CFG.n_fft)
    d[[0, 1]] = 1, 0
    scheme = SchemeDescriptor(
        mode="slm", u=1, pss_kind="all-ones", perm_kind="pinned", pinned_perms=PermutationSet(d)
    )
    with pytest.raises(ValueError, match="residue"):
        run_ccdf(make_plan(scheme=scheme, trials=10))


def test_plan_validation():
    with pytest.raises(ValueError, match="gamma"):
        make_plan(gamma=np.array([]))
    with pytest.raises(ValueError, match="increasing"):
        make_plan(gamma=np.array([5.0, 5.0, 6.0]))
    with pytest.raises(ValueError, match="trials"):
        make_plan(trials=0)
    with pytest.raises(ValueError, match="oversample"):
        make_plan(oversample=0)


def test_curve_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        CcdfCurve(gamma_db=np.array([4.0, 5.0]), counts=np.array([5, 9]), trials=10)
    curve = CcdfCurve(gamma_db=np.array([4.0, 5.0]), counts=np.array([9, 5]), trials=10)
    assert np.allclose(curve.probabilities, [0.9, 0.5])


# ---------------------------------------------------------------------------
# run_ccdf behaviour

def test_probability_one_below_zero_db():
    # sparse blocks always peak above the ensemble mean, so CCDF(-10 dB) = 1
    gamma = np.array([-10.0, 0.0, 4.0, 9.0])
    curve = run_ccdf(make_plan(gamma=gamma, trials=5000))
    assert curve.counts[0] == curve.trials
    assert curve.counts[1] == curve.trials  # PAPR strictly above 0 dB for K < N


def test_counts_are_exact_and_monotone():
    curve = run_ccdf(make_plan(trials=4096 * 3 + 17))
    assert curve.trials == 4096 * 3 + 17
    assert np.all(np.diff(curve.counts) <= 0)
    assert curve.counts.dtype == np.int64
    assert np.array_equal(np.round(curve.probabilities * curve.trials).astype(int), curve.counts)


def test_worker_determinism():
    plan = make_plan(
        scheme=SchemeDescriptor(mode="slm", u=2, pss_kind="random", perm_kind="random"),
        trials=BATCH_TRIALS * 5 + 123,
    )
    c1 = run_ccdf(plan, workers=1)
    c2 = run_ccdf(plan, workers=2)
    c8 = run_ccdf(plan, workers=8)
    assert np.array_equal(c1.counts, c2.counts)
    assert np.array_equal(c1.counts, c8.counts)


class RecordingContext:
    """Stands in for a multiprocessing context: records each pool size and
    runs the pool's work in this process, so no process starts."""

    def __init__(self):
        self.pool_sizes = []

    def Pool(self, processes, initializer, initargs):
        self.pool_sizes.append(processes)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, func, iterable):
        return map(func, iterable)


def test_pool_never_larger_than_batch_count(monkeypatch):
    context = RecordingContext()
    monkeypatch.setattr(ccdf.multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(ccdf, "_WORKER_PLAN", None)
    plan = make_plan(trials=BATCH_TRIALS * 2 + 5)  # 3 batches
    serial = run_ccdf(plan, workers=1)
    for workers, size in ((2, 2), (3, 3), (8, 3), (1000, 3)):
        assert np.array_equal(run_ccdf(plan, workers=workers).counts, serial.counts)
        assert context.pool_sizes.pop() == size
    # one batch, or a worker count below 1, runs here without a pool
    run_ccdf(make_plan(trials=BATCH_TRIALS), workers=8)
    run_ccdf(plan, workers=0)
    assert context.pool_sizes == []


def test_same_plan_same_counts_different_seed_differs():
    plan_a = make_plan(trials=8000, seed=5)
    plan_b = make_plan(trials=8000, seed=5)
    plan_c = make_plan(trials=8000, seed=6)
    a, b, c = run_ccdf(plan_a), run_ccdf(plan_b), run_ccdf(plan_c)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def replayed_oracle_counts(plan):
    """Counts of batch 0 from its replayed draws, selected per block with the
    brute-force (zero-padded) DFT-matrix oracle of acceptance criterion 7."""
    trials, L = plan.trials, plan.oversample
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(2, 0)))
    n, k, G, N = CFG.group_size, CFG.active, CFG.num_groups, CFG.n_fft
    pos = np.empty((trials, k * G), dtype=np.intp)
    for g in range(G):
        rows = np.sort(rng.permuted(np.tile(np.arange(n), (trials, 1)), axis=1)[:, :k], axis=1)
        pos[:, g * k : (g + 1) * k] = rows * G + g
    sym_idx = rng.integers(0, 4, (trials, k * G))
    cs = Constellation.psk(4)
    pss, perms = instantiate_scheme(plan)
    # bins at or above N/2 are negative frequencies of the zero-padded spectrum
    freq = np.where(np.arange(N) < N // 2, np.arange(N), np.arange(N) - N)
    i, m = np.meshgrid(freq, np.arange(N * L), indexing="ij")
    oracle_matrix = np.exp(2j * np.pi * i * m / (N * L)) / np.sqrt(N)  # x = X @ W
    paprs = []
    for t in range(trials):
        block = np.zeros(N, dtype=complex)
        block[pos[t]] = cs.symbols[sym_idx[t]]
        branch = []
        for u in range(pss.u):
            permuted = np.empty_like(block)
            permuted[perms.perms[u]] = block  # out[d[i]] = in[i]
            x = (pss.sequences[u] * permuted) @ oracle_matrix
            branch.append(10 * np.log10(np.max(np.abs(x) ** 2) / CFG.mean_power))
        paprs.append(min(branch))
    return (np.array(paprs)[:, None] > plan.gamma_db[None, :]).sum(axis=0)


def test_batch_path_matches_scalar_pipeline():
    scheme = SchemeDescriptor(mode="slm", u=3, pss_kind="random", perm_kind="random")
    plan = make_plan(scheme=scheme, trials=200, seed=77)
    assert np.array_equal(_batch_counts(plan, 0), replayed_oracle_counts(plan))


def test_oversampled_batch_path_matches_zero_padded_oracle():
    scheme = SchemeDescriptor(mode="slm", u=3, pss_kind="random", perm_kind="random")
    plan = make_plan(scheme=scheme, trials=200, seed=78, oversample=4)
    counts = _batch_counts(plan, 0)
    assert np.array_equal(counts, replayed_oracle_counts(plan))
    # the zero-padded envelope reaches values the Nyquist samples miss
    nyquist = _batch_counts(make_plan(scheme=scheme, trials=200, seed=78), 0)
    assert np.all(counts >= nyquist) and np.any(counts > nyquist)


def dense_batch_counts(plan, batch_index):
    """Counts of one batch from a dense (size, N) block of the batch: the
    assembly that the kernel's per-tile scatter replaced, kept as its oracle.
    The draws are replayed with numpy's default integer types."""
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
    sym_idx = rng.integers(0, symbols.size, size=pos.shape)
    block = np.zeros((size, cfg.n_fft), dtype=complex)
    np.put_along_axis(block, pos, symbols[sym_idx], axis=1)
    dense = np.broadcast_to(np.arange(cfg.n_fft), block.shape)
    paprs = candidate_paprs_db(dense, block, cfg.n_fft, pss.sequences, perms.inverse, cfg.mean_power, plan.oversample)
    return _exceedance_counts(paprs.min(axis=-1), plan.gamma_db)


@pytest.mark.parametrize("sap_source", SAP_SOURCES)
@pytest.mark.parametrize("oversample", [1, 2, 4])
@pytest.mark.parametrize("cfg", [CFG, CFG14], ids=["k2", "k14"])
@pytest.mark.parametrize("perm_kind", ["identity", "random"])
# U=4 tiles hold 128, 64 or 32 blocks at L = 1, 2 or 4: 20 blocks are less
# than one tile and 300 are not a whole number of tiles
@pytest.mark.parametrize("trials", [20, 300])
def test_batch_counts_match_dense_block_oracle(sap_source, oversample, cfg, perm_kind, trials):
    scheme = SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind=perm_kind, sap_source=sap_source)
    plan = make_plan(cfg=cfg, scheme=scheme, trials=trials, seed=trials + oversample, oversample=oversample)
    counts = _batch_counts(plan, 0)
    assert np.array_equal(counts, dense_batch_counts(plan, 0))
    assert np.any((0 < counts) & (counts < trials))  # the grid resolves the batch


def test_batch_counts_match_dense_block_oracle_at_n1024():
    # the second batch, 300 blocks in tiles of 8
    cfg = SystemConfig(n_fft=1024, group_size=16, active=2, mod_order=4)
    scheme = SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind="random")
    plan = make_plan(cfg=cfg, scheme=scheme, trials=BATCH_TRIALS + 300, seed=12)
    assert np.array_equal(_batch_counts(plan, 1), dense_batch_counts(plan, 1))


def test_batch_holds_no_block_of_the_whole_batch():
    # a (4096, 1024) complex block of the batch would take 64 MiB
    cfg = SystemConfig(n_fft=1024, group_size=16, active=2, mod_order=4)
    scheme = SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind="random")
    plan = make_plan(cfg=cfg, scheme=scheme, trials=BATCH_TRIALS, seed=3)
    plan.generator_sets
    tracemalloc.start()
    try:
        _batch_counts(plan, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BATCH_TRIALS * cfg.n_fft * 16 // 4


@pytest.mark.parametrize("sap_source", SAP_SOURCES)
def test_pickled_plan_keeps_what_it_built(sap_source):
    # a worker started by spawn receives the plan pickled, with the sets and
    # table run_ccdf built before starting the pool
    scheme = SchemeDescriptor(mode="slm", u=3, pss_kind="random", perm_kind="random", sap_source=sap_source)
    plan = make_plan(cfg=CFG14, scheme=scheme, trials=500, seed=9)
    plan.generator_sets, plan.subset_table
    copy = pickle.loads(pickle.dumps(plan))
    assert "generator_sets" in vars(copy) and "subset_table" in vars(copy)
    assert (copy.subset_table is None) == (sap_source == "uniform")
    assert np.array_equal(_batch_counts(copy, 0), _batch_counts(plan, 0))


def test_exceedance_counts_match_broadcast_comparison():
    rng = np.random.default_rng(5)
    # random values, values exactly on grid points (never above them), both ends
    values = np.concatenate([rng.uniform(3.0, 14.0, 500), GAMMA[::3], GAMMA[[0, -1]], [-np.inf, np.inf]])
    counts = _exceedance_counts(values, GAMMA)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.sum(values[:, None] > GAMMA[None, :], axis=0))
    on_grid = _exceedance_counts(GAMMA[[10]], GAMMA)
    assert on_grid[10] == 0 and on_grid[9] == 1


def test_generator_sets_built_once_per_plan():
    plan = make_plan(scheme=SchemeDescriptor(mode="slm", u=2, pss_kind="random", perm_kind="random"))
    pss, perms = plan.generator_sets
    assert plan.generator_sets[0] is pss and plan.generator_sets[1] is perms
    fresh_pss, fresh_perms = instantiate_scheme(plan)
    assert np.array_equal(pss.sequences, fresh_pss.sequences)
    assert np.array_equal(perms.perms, fresh_perms.perms)


def test_slm_dominates_original_paired():
    orig = run_ccdf(make_plan(trials=30000, seed=21))
    slm = run_ccdf(
        make_plan(
            scheme=SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind="identity"),
            trials=30000,
            seed=21,
        )
    )
    mask = (orig.counts >= 100) & (slm.counts >= 100)
    p_o, p_s = orig.probabilities[mask], slm.probabilities[mask]
    slack = 3 * np.sqrt(p_o * (1 - p_o) / orig.trials + p_s * (1 - p_s) / slm.trials)
    assert np.all(p_s <= p_o + slack)
    # k=2 original is capped at 9.03 dB, which limits the visible gain
    assert papr_at_ccdf(orig, 1e-2) - papr_at_ccdf(slm, 1e-2) >= 1.0


def test_slm_gain_at_least_2db_for_dense_blocks():
    orig = run_ccdf(make_plan(cfg=CFG14, trials=30000, seed=22))
    slm = run_ccdf(
        make_plan(
            cfg=CFG14,
            scheme=SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind="identity"),
            trials=30000,
            seed=22,
        )
    )
    assert papr_at_ccdf(orig, 1e-2) - papr_at_ccdf(slm, 1e-2) >= 2.0


def test_sparse_tail_has_fewer_resolvable_points():
    # K=8 blocks cannot exceed 10*log10(K) = 9.03 dB; K=56 blocks go beyond
    orig2 = run_ccdf(make_plan(trials=100000, seed=31))
    orig14 = run_ccdf(make_plan(cfg=CFG14, trials=100000, seed=31))
    assert np.all(orig2.counts[orig2.gamma_db >= 9.04] == 0)
    assert np.any(orig14.counts[orig14.gamma_db >= 9.04] >= 10)
    assert np.sum(orig2.counts >= 10) < np.sum(orig14.counts >= 10)


def test_bits_sap_source_runs():
    scheme = SchemeDescriptor(mode="slm", u=2, pss_kind="random", perm_kind="random", sap_source="bits")
    gamma = np.concatenate(([0.0], GAMMA))
    curve = run_ccdf(make_plan(scheme=scheme, trials=5000, gamma=gamma))
    assert curve.counts[0] == 5000  # sparse blocks always exceed 0 dB
    assert np.all(np.diff(curve.counts) <= 0)


@pytest.mark.parametrize("group_size,active", [(16, 8), (32, 3), (4, 1)])
def test_bits_pattern_table_is_subset_unrank(group_size, active):
    cfg = SystemConfig(n_fft=64, group_size=group_size, active=active, mod_order=4)
    scheme = SchemeDescriptor(mode="slm", u=2, sap_source="bits")
    table = make_plan(cfg=cfg, scheme=scheme, trials=10).subset_table
    assert table.shape == (1 << cfg.index_bits, active) and table.dtype == np.intp
    for rank in range(table.shape[0]):
        assert tuple(table[rank]) == subset_unrank(rank, group_size, active)


@pytest.mark.parametrize("n_fft,group_size,active", [(64, 32, 16), (64, 64, 32), (128, 64, 5)])
def test_bits_plan_rejects_a_pattern_table_beyond_the_cap(n_fft, group_size, active):
    # checked from index_bits alone, before any table is built
    cfg = SystemConfig(n_fft=n_fft, group_size=group_size, active=active, mod_order=4)
    assert active << cfg.index_bits > MAX_SUBSET_TABLE_ENTRIES
    with pytest.raises(ValueError, match="uniform sap_source"):
        make_plan(cfg=cfg, scheme=SchemeDescriptor(mode="slm", u=2, sap_source="bits"), trials=10)
    make_plan(cfg=cfg, scheme=SchemeDescriptor(mode="slm", u=2), trials=10)


@pytest.mark.parametrize(
    "at_cap,above",
    [
        # phase sequences and one kernel tile row, U x N
        (dict(n_fft=64, u=MAX_PLAN_ELEMENTS // 64), dict(n_fft=64, u=MAX_PLAN_ELEMENTS // 64 + 1)),
        # one oversampled tile row, U x N*L
        (dict(n_fft=64, u=4, oversample=MAX_PLAN_ELEMENTS // 256), dict(n_fft=64, u=4, oversample=MAX_PLAN_ELEMENTS // 256 + 1)),
        # a batch of blocks, min(trials, BATCH_TRIALS) x N
        (dict(n_fft=2 * MAX_PLAN_ELEMENTS // BATCH_TRIALS, trials=BATCH_TRIALS // 2),
         dict(n_fft=2 * MAX_PLAN_ELEMENTS // BATCH_TRIALS, trials=BATCH_TRIALS // 2 + 1)),
        (dict(n_fft=MAX_PLAN_ELEMENTS // BATCH_TRIALS, trials=10**9),
         dict(n_fft=2 * MAX_PLAN_ELEMENTS // BATCH_TRIALS, trials=10**9)),
        # one block, N
        (dict(n_fft=MAX_PLAN_ELEMENTS), dict(n_fft=2 * MAX_PLAN_ELEMENTS)),
    ],
)
def test_plan_refuses_an_array_beyond_the_cap(at_cap, above):
    # the largest array is worked out from the arguments, so neither plan allocates
    def plan(n_fft, u=1, oversample=1, trials=1):
        cfg = SystemConfig(n_fft=n_fft, group_size=16, active=2, mod_order=4)
        return make_plan(cfg=cfg, scheme=SchemeDescriptor(mode="slm", u=u), trials=trials, oversample=oversample)

    tracemalloc.start()
    try:
        plan(**at_cap)
        with pytest.raises(ValueError, match=f"more than {MAX_PLAN_ELEMENTS}"):
            plan(**above)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oversampled_papr_never_below_nyquist():
    plan1 = make_plan(trials=3000, seed=9)
    plan4 = make_plan(trials=3000, seed=9, oversample=4)
    c1, c4 = run_ccdf(plan1), run_ccdf(plan4)
    assert np.all(c4.counts >= c1.counts)  # oversampled peak >= Nyquist peak per block


def test_papr_at_ccdf_zero_count_bracket():
    # a curve that plunges to zero counts: the empty bin reads as half a count
    curve = CcdfCurve(gamma_db=np.array([5.0, 6.0]), counts=np.array([1000, 0]), trials=10000)
    value = papr_at_ccdf(curve, 1e-2)
    assert 5.0 < value < 6.0


# ---------------------------------------------------------------------------
# papr_at_ccdf

def test_papr_at_ccdf_basics():
    gamma = np.concatenate(([0.0, 2.0], GAMMA))
    curve = run_ccdf(make_plan(trials=50000, seed=41, gamma=gamma))
    assert papr_at_ccdf(curve, 1.0) == curve.gamma_db[0]  # smallest grid point at CCDF 1
    g1 = papr_at_ccdf(curve, 1e-1)
    g2 = papr_at_ccdf(curve, 1e-2)
    g3 = papr_at_ccdf(curve, 3e-3)
    assert g1 < g2 < g3  # decreasing target, increasing gamma
    with pytest.raises(ValueError, match="resolution"):
        papr_at_ccdf(curve, 1e-5)


def test_papr_at_ccdf_interpolates_in_log_space():
    curve = CcdfCurve(gamma_db=np.array([5.0, 6.0]), counts=np.array([1000, 10]), trials=10000)
    target = 1e-2  # geometric mean of 0.1 and 0.001: exact midpoint in log space
    assert abs(papr_at_ccdf(curve, target) - 5.5) < 1e-12


def test_papr_at_ccdf_unreachable_target():
    curve = CcdfCurve(gamma_db=np.array([5.0, 6.0]), counts=np.array([9000, 8000]), trials=10000)
    with pytest.raises(ValueError, match="stays above"):
        papr_at_ccdf(curve, 1e-1)
    with pytest.raises(ValueError, match="above curve start"):
        papr_at_ccdf(curve, 0.95)


# ---------------------------------------------------------------------------
# compare_curves

def test_compare_curve_with_itself():
    curve = run_ccdf(make_plan(trials=20000, seed=51))
    cmp = compare_curves(curve, curve, levels=(1e-1,))
    assert cmp.max_abs_delta == 0.0
    assert cmp.dominance == "equal"
    gap, (lo, hi) = cmp.gaps_db[1e-1]
    assert gap == 0.0 and lo <= 0.0 <= hi


def test_compare_curves_grid_mismatch():
    a = CcdfCurve(gamma_db=np.array([4.0, 5.0]), counts=np.array([9, 5]), trials=10)
    b = CcdfCurve(gamma_db=np.array([4.0, 6.0]), counts=np.array([9, 5]), trials=10)
    with pytest.raises(ValueError, match="grids"):
        compare_curves(a, b)


def test_perm_gap_negligible_for_dense_blocks():
    # at k=14 the activation pattern barely moves rho, so permutation buys nothing
    wo = run_ccdf(
        make_plan(
            cfg=CFG14,
            scheme=SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind="identity"),
            trials=100000,
            seed=71,
        )
    )
    w = run_ccdf(
        make_plan(
            cfg=CFG14,
            scheme=SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind="random"),
            trials=100000,
            seed=71,
        )
    )
    gap, (lo, hi) = compare_curves(w, wo, levels=(1e-2,)).gaps_db[1e-2]
    assert abs(gap) < 0.1
    assert lo <= 0.0 <= hi


def test_compare_curves_dominance_direction():
    orig = run_ccdf(make_plan(cfg=CFG14, trials=30000, seed=61))
    slm = run_ccdf(
        make_plan(
            cfg=CFG14,
            scheme=SchemeDescriptor(mode="slm", u=4, pss_kind="random", perm_kind="identity"),
            trials=30000,
            seed=61,
        )
    )
    cmp = compare_curves(slm, orig, levels=(1e-2,))
    assert cmp.dominance == "a<=b"
    gap, (lo, hi) = cmp.gaps_db[1e-2]
    assert gap < -2.0 and lo <= gap <= hi


# ---------------------------------------------------------------------------
# serialization

def test_curve_csv_text_format():
    curve = CcdfCurve(gamma_db=np.array([4.0, 4.1]), counts=np.array([10, 3]), trials=10)
    text = curve_csv_text(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "gamma_db,ccdf,count,trials"
    assert lines[1] == "4,1,10,10"
    assert lines[2] == "4.1,0.3,3,10"


def test_plan_json_doc_fingerprints():
    plan = make_plan(
        scheme=SchemeDescriptor(mode="slm", u=2, pss_kind="random", perm_kind="random"), trials=10
    )
    doc = plan_json_doc(plan)
    assert doc["trials"] == 10 and doc["seed"] == plan.seed
    assert len(doc["pss_sha256"]) == 64 and len(doc["perm_sha256"]) == 64
    assert doc["scheme"]["pss_kind"] == "random"
    doc2 = plan_json_doc(make_plan(scheme=plan.scheme, trials=10))
    assert doc == doc2  # instantiation is deterministic
