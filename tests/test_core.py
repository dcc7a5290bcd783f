import itertools
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from ofdm_im_slm import (
    cli,
    core,
    Constellation,
    GroupSap,
    Sap,
    SystemConfig,
    block_from_bits,
    draw_active_positions,
    idft,
    sample_random_sap,
    subset_rank,
    subset_unrank,
)
from oracles import assemble_block, dft, oversampled_idft, papr_db

CFG = SystemConfig(n_fft=64, group_size=16, active=2, mod_order=4)
CFG8 = SystemConfig(n_fft=8, group_size=4, active=2, mod_order=4)
# one group: the block is the group's word, row r at subcarrier r
CFG1 = SystemConfig(n_fft=16, group_size=16, active=2, mod_order=4)


def idft_oracle(block):
    """Brute-force O(N^2) unitary inverse DFT."""
    N = len(block)
    return np.array(
        [sum(block[i] * np.exp(2j * np.pi * i * m / N) for i in range(N)) / math.sqrt(N) for m in range(N)]
    )


# ---------------------------------------------------------------------------
# SystemConfig

def test_config_derived_bits():
    assert CFG.index_bits == 6  # floor(log2 C(16,2)) = floor(log2 120)
    assert CFG.symbol_bits == 4
    assert CFG.bits_per_group == 10
    assert CFG.total_active == 8
    small = SystemConfig(n_fft=8, group_size=4, active=2, mod_order=4)
    assert small.index_bits == 2 and small.bits_per_group == 6  # C(4,2)=6 -> 2 bits


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_fft=60, group_size=15, active=2, mod_order=4),  # N not a power of two
        dict(n_fft=64, group_size=12, active=2, mod_order=4),  # n does not divide N
        dict(n_fft=64, group_size=16, active=16, mod_order=4),  # k = n
        dict(n_fft=64, group_size=16, active=0, mod_order=4),
        dict(n_fft=64, group_size=16, active=2, mod_order=3),
    ],
)
def test_config_invalid(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_constellation():
    qpsk = Constellation.psk(4)
    assert qpsk.order == 4
    expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
    got = {complex(round(s.real * math.sqrt(2)), round(s.imag * math.sqrt(2))) for s in qpsk.symbols}
    assert got == expected
    for order in (2, 4, 8, 16):
        cs = Constellation.psk(order)
        assert abs(np.mean(np.abs(cs.symbols) ** 2) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        Constellation(np.array([2.0 + 0j, -2.0 + 0j]))


# ---------------------------------------------------------------------------
# combinadic

def test_unrank_first_and_last():
    assert subset_unrank(0, 16, 2) == (0, 1)
    assert subset_unrank(math.comb(16, 2) - 1, 16, 2) == (14, 15)
    with pytest.raises(ValueError):
        subset_unrank(math.comb(16, 2), 16, 2)


def test_rank_unrank_roundtrip_exhaustive():
    # every rank of C(16,2), which covers all 2^p1 = 64 index words
    for r in range(math.comb(16, 2)):
        rows = subset_unrank(r, 16, 2)
        assert subset_rank(rows, 16) == r
    for r in range(math.comb(6, 3)):
        assert subset_rank(subset_unrank(r, 6, 3), 6) == r


def test_unrank_is_lexicographic():
    subsets = [subset_unrank(r, 8, 3) for r in range(math.comb(8, 3))]
    assert subsets == sorted(subsets)


# ---------------------------------------------------------------------------
# bit mapping

def test_map_bits_all_zero_word():
    cs = Constellation.psk(4)
    block, sap = block_from_bits([0] * CFG1.bits_per_group, CFG1, cs)
    assert sap.groups[0].rows == (0, 1)
    assert np.allclose(block[[0, 1]], cs.symbols[0])


def test_map_bits_symbol_selection():
    cs = Constellation.psk(4)
    # index word 000001 -> subset rank 1 = {0, 2}; symbol words 01 and 10
    bits = [0, 0, 0, 0, 0, 1, 0, 1, 1, 0]
    block, sap = block_from_bits(bits, CFG1, cs)
    assert sap.groups[0].rows == (0, 2)
    assert block[0] == cs.symbols[1] and block[2] == cs.symbols[2]


def test_map_bits_wrong_length():
    with pytest.raises(ValueError, match="expected 10 bits"):
        block_from_bits([0] * 3, CFG1, Constellation.psk(4))


# ---------------------------------------------------------------------------
# assembly

def test_assemble_interleaved_example():
    # groups with rows {1,3} and {0,1} interleave to active set {1,2,3,6}
    sym = np.ones(2, dtype=complex)
    block, sap = assemble_block([(GroupSap((1, 3)), sym), (GroupSap((0, 1)), sym)], CFG8)
    assert sap.active == (1, 2, 3, 6)
    assert np.count_nonzero(block) == CFG8.total_active
    assert np.all(block[[1, 2, 3, 6]] == 1)


def test_assemble_single_group_identity_placement():
    cfg = SystemConfig(n_fft=8, group_size=8, active=3, mod_order=4)
    cs = Constellation.psk(4)
    sym = cs.symbols[[0, 1, 2]]
    block, sap = assemble_block([(GroupSap((0, 4, 6)), sym)], cfg)
    assert np.all(block[[0, 4, 6]] == sym)
    assert sap.active == (0, 4, 6)


def test_assemble_group_count_mismatch():
    with pytest.raises(ValueError):
        assemble_block([(GroupSap((0, 1)), np.ones(2))], CFG8)


def test_assemble_deinterleave_roundtrip():
    rng = np.random.default_rng(3)
    cs = Constellation.psk(4)
    groups = []
    for _ in range(CFG.num_groups):
        rows = tuple(sorted(rng.permutation(16)[:2].tolist()))
        groups.append((GroupSap(rows), cs.symbols[rng.integers(0, 4, 2)]))
    block, sap = assemble_block(groups, CFG)
    G = CFG.num_groups
    for g, (gsap, symbols) in enumerate(groups):
        for r, s in zip(gsap.rows, symbols):
            assert block[G * r + g] == s
    # nonzero entries are constellation members
    for i in sap.active:
        assert np.min(np.abs(cs.symbols - block[i])) < 1e-12


def test_block_from_bits_roundtrip_positions():
    cs = Constellation.psk(4)
    bits = [0] * (CFG.bits_per_group * CFG.num_groups)
    block, sap = block_from_bits(bits, CFG, cs)
    # every group at subset {0,1}: active indices are G*r+g for r in {0,1}
    assert sap.active == tuple(sorted(CFG.num_groups * r + g for g in range(4) for r in (0, 1)))
    assert np.count_nonzero(block) == CFG.total_active


def encoder_oracle(bits, cfg, cs, subsets):
    """Brute force: the index word picks the rank-th of ``subsets`` (the
    k-subsets in the order of itertools.combinations), each symbol word (MSB
    first) one point, and group g fills subcarriers G*r + g."""
    G, p = cfg.num_groups, cfg.bits_per_group
    bps = cfg.mod_order.bit_length() - 1
    block = np.zeros(cfg.n_fft, dtype=complex)
    groups = []
    for g in range(G):
        word = "".join(str(b) for b in bits[g * p : (g + 1) * p])
        rows = subsets[int(word[: cfg.index_bits], 2)]
        for i, r in enumerate(rows):
            start = cfg.index_bits + i * bps
            block[G * r + g] = cs.symbols[int(word[start : start + bps], 2)]
        groups.append(GroupSap(rows))
    return block, Sap(tuple(groups))


@pytest.mark.parametrize("mod_order", [2, 4, 16])
@pytest.mark.parametrize("n_fft,group_size,active", [(16, 4, 1), (16, 4, 2), (16, 4, 3),
                                                      (64, 16, 2), (64, 16, 8), (64, 16, 14)])
def test_block_from_bits_matches_brute_force_oracle(n_fft, group_size, active, mod_order):
    cfg = SystemConfig(n_fft=n_fft, group_size=group_size, active=active, mod_order=mod_order)
    cs = Constellation.psk(mod_order)
    p = cfg.bits_per_group
    subsets = list(itertools.combinations(range(group_size), active))
    words = np.random.default_rng(n_fft + 17 * active + mod_order).integers(0, 2, (300, p * cfg.num_groups))
    for bits in words.tolist():
        block, sap = block_from_bits(bits, cfg, cs)
        want_block, want_sap = encoder_oracle(bits, cfg, cs, subsets)
        assert block.dtype == want_block.dtype and np.array_equal(block, want_block)
        assert sap == want_sap


def test_block_from_bits_accepts_any_bit_equal_to_0_or_1():
    # the fast path reads ints as bytes; other values equal to 0 or 1 still count
    cs = Constellation.psk(4)
    bits = np.random.default_rng(5).integers(0, 2, CFG.bits_per_group * CFG.num_groups).tolist()
    want_block, want_sap = block_from_bits(bits, CFG, cs)
    for as_type in (bool, float, np.int64, np.float64, np.bool_):
        block, sap = block_from_bits([as_type(b) for b in bits], CFG, cs)
        assert block.tobytes() == want_block.tobytes() and sap == want_sap
    block, sap = block_from_bits(np.array(bits, dtype=np.uint8), CFG, cs)
    assert block.tobytes() == want_block.tobytes() and sap == want_sap


@pytest.mark.parametrize("bad", [2, -1, 0.5, "1", 256, None, float("nan")])
@pytest.mark.parametrize("at", [0, 7, 39])
def test_bit_mapping_rejects_non_bits(bad, at):
    cs = Constellation.psk(4)
    bits = [0] * (CFG.bits_per_group * CFG.num_groups)
    bits[at] = bad
    with pytest.raises(ValueError, match="bits must be 0/1"):
        block_from_bits(bits, CFG, cs)
    with pytest.raises(ValueError, match="bits must be 0/1"):
        block_from_bits(bits[at // 10 * 10 : at // 10 * 10 + 10], CFG1, cs)


def test_bit_mapping_length_and_constellation_errors():
    cs = Constellation.psk(4)
    width = CFG.bits_per_group * CFG.num_groups
    for n_bits in (0, width - 1, width + 1):
        with pytest.raises(ValueError, match="expected 40 bits"):
            block_from_bits([0] * n_bits, CFG, cs)
    for order in (2, 16):
        with pytest.raises(ValueError, match="constellation order"):
            block_from_bits([0] * width, CFG, Constellation.psk(order))
        with pytest.raises(ValueError, match="constellation order"):
            block_from_bits([0] * CFG1.bits_per_group, CFG1, Constellation.psk(order))
    # the constellation is checked before the bits, as when each group was mapped in turn
    with pytest.raises(ValueError, match="constellation order"):
        block_from_bits([2] * width, CFG, Constellation.psk(2))


def test_group_pattern_memo_stays_bounded():
    cfg = SystemConfig(n_fft=16, group_size=16, active=8, mod_order=2)  # 2^13 index words
    size = core._group_sap.cache_info().maxsize
    core._group_sap.cache_clear()
    cs = Constellation.psk(2)
    for rank in range(size + 100):
        index_bits = [int(c) for c in format(rank, f"0{cfg.index_bits}b")]
        _, sap = block_from_bits(index_bits + [1] * cfg.symbol_bits, cfg, cs)
        assert sap.groups[0].rows == subset_unrank(rank, 16, 8)
    assert core._group_sap.cache_info().currsize == size


# ---------------------------------------------------------------------------
# Sap

def flat_active(sap):
    """Reference for Sap.active: the sorted flat indices G*r + g of its rows."""
    G = len(sap.groups)
    return tuple(sorted(G * r + g for g, gs in enumerate(sap.groups) for r in gs.rows))


def test_sap_equality_hash_and_pickle():
    a = Sap((GroupSap((0, 3)), GroupSap((1, 2))))
    b = Sap([GroupSap((0, 3)), GroupSap((1, 2))])
    c = Sap((GroupSap((1, 2)), GroupSap((0, 3))))
    assert a == b and hash(a) == hash(b)
    assert a != c and a.active != c.active
    # the hash a dataclass with the fields (groups, active) computes
    assert hash(a) == hash((a.groups, flat_active(a)))
    fresh = Sap((GroupSap((0, 3)), GroupSap((1, 2))))
    for sap in (fresh, a):  # active not yet read, and already read
        copy = pickle.loads(pickle.dumps(sap))
        assert copy == sap and hash(copy) == hash(sap)
        assert copy.active == sap.active == (0, 3, 5, 6)
    assert {a: 1}[b] == 1
    # a group cannot repeat a row, so the flat set cannot repeat an index
    with pytest.raises(ValueError, match="distinct"):
        GroupSap((2, 2))


@pytest.mark.parametrize("rows", [(0.5, 3.7), ("1", "3"), (1, float("nan")), (0, float("inf"))])
def test_group_sap_rejects_non_integer_rows(rows):
    # int() would turn (0.5, 3.7) into (0, 3) and accept ("1", "3")
    with pytest.raises(ValueError, match="integers"):
        GroupSap(rows)


def test_group_sap_takes_integral_values():
    assert GroupSap((1.0, np.int64(3))).rows == (1, 3)
    assert GroupSap(r for r in (0, 2)).rows == (0, 2)


def test_sap_takes_plain_rows_and_checks_them_as_a_group_sap_does():
    plain = Sap(((0, 3), [1.0, np.int64(2)]))
    assert plain == Sap((GroupSap((0, 3)), GroupSap((1, 2))))
    assert all(type(g) is GroupSap for g in plain.groups) and plain.active == (0, 3, 5, 6)
    kept = GroupSap((0, 3))
    assert Sap([kept]).groups[0] is kept
    with pytest.raises(ValueError, match="^rows must be sorted"):
        Sap(((3, 0),))
    with pytest.raises(ValueError, match="^rows must be distinct"):
        Sap(((0, 0.5), (1, 2)))


@pytest.mark.parametrize("groups", [5, None, 2.5, True], ids=repr)
def test_sap_refuses_groups_that_are_no_collection(groups):
    with pytest.raises(ValueError, match=f"^groups must be a collection of row subsets, got {groups!r}$"):
        Sap(groups)


@pytest.mark.parametrize(
    "n_fft,group_size,active",
    [(16, 4, k) for k in (1, 2, 3)] + [(64, 16, k) for k in range(1, 16)] + [(32, 8, 5)],
)
def test_sap_active_is_the_sorted_flat_index_set(tmp_path, n_fft, group_size, active):
    cfg = SystemConfig(n_fft=n_fft, group_size=group_size, active=active, mod_order=4)
    cs = Constellation.psk(4)
    rng = np.random.default_rng(n_fft + active)
    path = tmp_path / "sap.json"
    for _ in range(4):
        bits = rng.integers(0, 2, cfg.bits_per_group * cfg.num_groups).tolist()
        block, sap = block_from_bits(bits, cfg, cs)
        groups = [(gs, cs.symbols[rng.integers(0, 4, active)]) for gs in sample_random_sap(cfg, rng).groups]
        assembled_block, assembled = assemble_block(groups, cfg)
        drawn = sample_random_sap(cfg, rng)
        path.write_text(json.dumps({"groups": [list(gs.rows) for gs in drawn.groups]}))
        loaded = cli._load_sap(str(path), cfg)
        assert loaded == drawn
        for s in (sap, assembled, drawn, loaded):
            assert s.active == flat_active(s)
            assert len(s.active) == cfg.total_active
        # every active subcarrier holds a unit-modulus symbol, every other is 0
        assert sap.active == tuple(np.flatnonzero(block).tolist())
        assert assembled.active == tuple(np.flatnonzero(assembled_block).tolist())


# ---------------------------------------------------------------------------
# sampling

def test_sample_random_sap_structure():
    rng = np.random.default_rng(5)
    sap = sample_random_sap(CFG, rng)
    assert len(sap.active) == CFG.total_active
    for g, gsap in enumerate(sap.groups):
        assert len(gsap.rows) == CFG.active
        members = [i for i in sap.active if i % CFG.num_groups == g]
        assert len(members) == CFG.active


def test_sample_random_sap_is_one_row_of_the_batch_sampler():
    # one pattern consumes the stream exactly like per-group rng.permutation,
    # and like a one-trial draw of the batch sampler
    for seed in range(50):
        a, b, c = (np.random.default_rng(seed) for _ in range(3))
        sap = sample_random_sap(CFG, a)
        assert sap.active == tuple(sorted(draw_active_positions(CFG, 1, b)[0].tolist()))
        legacy = [sorted(c.permutation(CFG.group_size)[: CFG.active].tolist()) for _ in range(CFG.num_groups)]
        assert [list(g.rows) for g in sap.groups] == legacy
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state


def draw_active_positions_oracle(cfg, trials, rng):
    """The sampler as one np.tile, one rng.permuted and one sort per group."""
    n, k, G = cfg.group_size, cfg.active, cfg.num_groups
    cols = []
    for g in range(G):
        rows = rng.permuted(np.tile(np.arange(n), (trials, 1)), axis=1)[:, :k]
        cols.append(np.sort(rows, axis=1) * G + g)
    return np.concatenate(cols, axis=1)


N1024 = SystemConfig(n_fft=1024, group_size=1024, active=2, mod_order=4)


@pytest.mark.parametrize("cfg,trials", [
    (CFG, 0), (CFG, 1), (CFG, 7), (CFG, 4096), (CFG, 4097), (CFG8, 300),
    (SystemConfig(n_fft=64, group_size=16, active=14, mod_order=4), 50),
    # 512 groups of 9 trials share one shuffle call
    (SystemConfig(n_fft=1024, group_size=2, active=1, mod_order=4), 9),
    # 8192 groups of one trial, all in one call
    (SystemConfig(n_fft=16384, group_size=2, active=1, mod_order=4), 1),
    # more groups than fit in one call: 8192 groups at 3640 per call
    (SystemConfig(n_fft=16384, group_size=2, active=1, mod_order=4), 9),
    # one group's trials across calls of 4096 rows of 16: 4096 * 4 + 3616, and 4096 * 2 + 1
    (CFG, 20000), (CFG, 8193),
    (SystemConfig(n_fft=64, group_size=16, active=15, mod_order=4), 8193),
    # a single group of 1024 in calls of 64 rows: 64 + 1, and 64 calls of 64
    (N1024, 65), (N1024, 4096),
    (SystemConfig(n_fft=1024, group_size=1024, active=1023, mod_order=4), 65),
], ids=lambda v: str(v) if isinstance(v, int) else f"N{v.n_fft}n{v.group_size}k{v.active}")
def test_draw_active_positions_equals_one_shuffle_per_group(cfg, trials):
    a, b = np.random.default_rng(trials), np.random.default_rng(trials)
    got = draw_active_positions(cfg, trials, a)
    want = draw_active_positions_oracle(cfg, trials, b)
    assert got.dtype == np.int32 and np.array_equal(got, want)
    # the generator is left in the same state, so the next draw agrees too
    assert np.array_equal(draw_active_positions(cfg, 3, a), draw_active_positions_oracle(cfg, 3, b))
    assert a.bit_generator.state == b.bit_generator.state
    # the unsorted picks: the same stream and state, the oracle once sorted,
    # and column g of every row only indices of group g
    c = np.random.default_rng(trials)
    picks = core._shuffled_picks(cfg, trials, c)
    G = cfg.num_groups
    assert picks.dtype == np.int32 and picks.shape == (trials, G, cfg.active)
    assert np.array_equal(np.sort(picks, axis=-1).reshape(trials, cfg.total_active), want)
    assert np.all(picks % G == np.arange(G)[:, None])
    draw_active_positions(cfg, 3, c)
    assert c.bit_generator.state == b.bit_generator.state


def test_draw_active_positions_refuses_positions_beyond_int32():
    # a valid config whose last subcarrier index, 2^32 - 1, would wrap in int32;
    # refused before the 1 GiB output or anything else is allocated or drawn
    cfg = SystemConfig(n_fft=2**32, group_size=16, active=1, mod_order=4)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="int32"):
        draw_active_positions(cfg, 1, rng)
    assert rng.bit_generator.state == state


def test_draw_active_positions_memory_is_bounded_by_the_shuffle_buffer():
    # a (4096, 4096) intp buffer of every trial's shuffled row would take 128 MiB
    cfg = SystemConfig(n_fft=4096, group_size=4096, active=2, mod_order=4)
    tracemalloc.start()
    try:
        draw_active_positions(cfg, 4096, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_sample_random_sap_marginals():
    # Pr{index i active} -> k/n within 3 sigma at 1e5 draws (seeded)
    rng = np.random.default_rng(41)
    trials = 100000
    hits = np.zeros(CFG.n_fft)
    for _ in range(trials):
        hits[list(sample_random_sap(CFG, rng).active)] += 1
    p = CFG.active / CFG.group_size
    sigma = math.sqrt(p * (1 - p) / trials)
    assert np.max(np.abs(hits / trials - p)) < 3 * sigma


def test_sample_random_sap_pair_moment():
    # E[alpha_i1 alpha_i2] = k(k-1)/(n(n-1)) for two indices of one group
    rng = np.random.default_rng(42)
    trials = 100000
    n, k = CFG.group_size, CFG.active
    i1, i2 = 0, CFG.num_groups * 5  # rows 0 and 5 of group 0
    both = 0
    for _ in range(trials):
        active = set(sample_random_sap(CFG, rng).active)
        both += i1 in active and i2 in active
    p = k * (k - 1) / (n * (n - 1))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(both / trials - p) < 3 * sigma


# ---------------------------------------------------------------------------
# transform and PAPR

def test_idft_impulse_and_flat():
    x = idft(np.eye(8)[0])
    assert np.allclose(x, np.full(8, 1 / math.sqrt(8)))
    x = idft(np.ones(8))
    assert np.allclose(x, math.sqrt(8) * np.eye(8)[0])


def test_idft_matches_oracle_and_parseval():
    rng = np.random.default_rng(7)
    for _ in range(20):
        block = rng.normal(size=16) + 1j * rng.normal(size=16)
        x = idft(block)
        assert np.max(np.abs(x - idft_oracle(block))) < 1e-9
        assert abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(block) ** 2)) < 1e-9 * np.sum(np.abs(block) ** 2)
        assert np.max(np.abs(dft(x) - block)) < 1e-9


def test_papr_classical_all_ones():
    # full activation, all-ones block: impulse, PAPR = N
    x = idft(np.ones(64))
    # against a mean power of 1: papr_db's reference mean power taken back out
    assert abs(papr_db(x, CFG) + 10 * math.log10(CFG.mean_power) - 10 * math.log10(64)) < 1e-9


def test_papr_flat_envelope_zero_db():
    x = np.full(64, math.sqrt(CFG.total_active / 64)) * np.exp(1j * 0.3)
    assert abs(papr_db(x, CFG)) < 1e-9


def test_papr_interleaved_example_vs_oracle():
    # frozen value computed with idft_oracle on the {1,2,3,6} all-ones block
    sym = np.ones(2, dtype=complex)
    block, _ = assemble_block([(GroupSap((1, 3)), sym), (GroupSap((0, 1)), sym)], CFG8)
    peak = np.max(np.abs(idft_oracle(block)) ** 2)
    expected = 10 * math.log10(peak / CFG8.mean_power)
    value = papr_db(idft(block), CFG8)
    assert abs(value - expected) < 1e-9
    assert abs(value - 6.020599913279623) < 1e-9


def test_unit_modulus_block_energy_is_exact():
    # QPSK symbols: block energy is exactly K, so mean |x|^2 is exactly k/n
    rng = np.random.default_rng(23)
    cs = Constellation.psk(4)
    groups = []
    for _ in range(CFG.num_groups):
        rows = tuple(sorted(rng.permutation(16)[:2].tolist()))
        groups.append((GroupSap(rows), cs.symbols[rng.integers(0, 4, 2)]))
    block, _ = assemble_block(groups, CFG)
    assert abs(np.sum(np.abs(block) ** 2) - CFG.total_active) < 1e-12
    x = idft(block)
    assert abs(np.mean(np.abs(x) ** 2) - CFG.mean_power) < 1e-12


def test_papr_uses_ensemble_mean_not_block_mean():
    # one active subcarrier in a k=2 config: block energy 4 but reference stays k/n
    block = np.zeros(8, dtype=complex)
    block[1] = 2.0
    x = idft(block)
    assert abs(papr_db(x, CFG8) - 10 * math.log10((4 / 8) / 0.5)) < 1e-9


def test_oversampled_idft_refines_grid():
    rng = np.random.default_rng(9)
    block = rng.normal(size=16) + 1j * rng.normal(size=16)
    x1 = idft(block)
    x4 = oversampled_idft(block, 4)
    assert x4.shape == (64,)
    assert np.max(np.abs(x4[::4] - x1)) < 1e-9  # Nyquist samples preserved
    assert np.max(np.abs(x4)) >= np.max(np.abs(x1)) - 1e-12
    with pytest.raises(ValueError):
        oversampled_idft(block, 0)
