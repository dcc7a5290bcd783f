import json
import tracemalloc

import numpy as np
import pytest

from ofdm_im_slm import (
    Constellation,
    GroupSap,
    MlsSpec,
    PermutationSet,
    PhaseSequenceSet,
    SystemConfig,
    all_ones_pss,
    candidate_paprs_db,
    cyclic_hadamard_matrix,
    gen_hadamard_pss,
    gen_mls,
    gen_perm_set,
    gen_random_pss,
    idft,
    perm_set_from_json,
    perm_set_to_json,
    pss_from_json,
    pss_to_json,
    punctured_spectrum,
    slm_select,
)
from ofdm_im_slm.slm import PRIMITIVE_POLYS, PSS_ALPHABETS
from oracles import apply_permutation, assemble_block, oversampled_idft, papr_db, permute_sap

CFG = SystemConfig(n_fft=64, group_size=16, active=2, mod_order=4)
CFG8 = SystemConfig(n_fft=8, group_size=4, active=2, mod_order=4)


def random_block(cfg, seed=0):
    rng = np.random.default_rng(seed)
    cs = Constellation.psk(4)
    groups = []
    for _ in range(cfg.num_groups):
        rows = tuple(sorted(rng.permutation(cfg.group_size)[: cfg.active].tolist()))
        groups.append((GroupSap(rows), cs.symbols[rng.integers(0, 4, cfg.active)]))
    return assemble_block(groups, cfg)


def dense_paprs(blocks, pss_seq, perm_inv, mean_power, oversample=1):
    """``candidate_paprs_db`` of dense (rows, N) blocks: every subcarrier is a
    position, and every entry its own symbol."""
    blocks = np.asarray(blocks)
    rows, n = blocks.shape
    positions = np.broadcast_to(np.arange(n), blocks.shape)
    symbol_index = np.arange(rows * n).reshape(rows, n)
    return candidate_paprs_db(positions, symbol_index, blocks.reshape(-1), n, pss_seq, perm_inv, mean_power, oversample)


# ---------------------------------------------------------------------------
# maximal-length sequences

@pytest.mark.parametrize("degree", range(3, 11))
def test_mls_period_and_autocorrelation(degree):
    seq = gen_mls(MlsSpec(degree))
    length = 2**degree - 1
    assert seq.size == length
    assert int(seq.sum()) == 2 ** (degree - 1)  # balance: one extra one
    pm = 1.0 - 2.0 * seq.astype(float)
    for shift in range(1, length):
        assert abs(np.dot(pm, np.roll(pm, shift)) + 1.0) < 1e-9
    assert abs(np.dot(pm, pm) - length) < 1e-9


def test_mls_smallest_case():
    assert gen_mls(MlsSpec(2, (2, 1, 0))).size == 3


def test_mls_rejects_non_primitive_taps():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has period 6, not 15
    with pytest.raises(ValueError, match="period"):
        gen_mls(MlsSpec(4, (4, 2, 0)))


def test_mls_spec_validation():
    with pytest.raises(ValueError):
        MlsSpec(12)  # no table entry, no taps
    with pytest.raises(ValueError):
        MlsSpec(4, (3, 1, 0))  # taps do not span the degree


# ---------------------------------------------------------------------------
# Hadamard phase sequences

@pytest.mark.parametrize("degree", [3, 6])
def test_cyclic_hadamard_orthogonality(degree):
    h = cyclic_hadamard_matrix(degree)
    size = 2**degree
    assert np.array_equal(h @ h.T, size * np.eye(size))
    assert np.all(np.abs(h) == 1)
    assert np.all(h[0] == 1) and np.all(h[:, 0] == 1)


def test_hadamard_core_is_circulant():
    # the one-gather core equals the one built row by row with np.roll, at
    # every built-in degree
    for degree in PRIMITIVE_POLYS:
        b = 1.0 - 2.0 * gen_mls(MlsSpec(degree))  # bit 0 -> +1, bit 1 -> -1
        rolled = np.ones((b.size + 1, b.size + 1))
        for s in range(b.size):
            rolled[1 + s, 1:] = np.roll(b, -s)
        h = cyclic_hadamard_matrix(degree)
        assert h.dtype == rolled.dtype and h.tobytes() == rolled.tobytes()


def test_gen_hadamard_pss():
    pss = gen_hadamard_pss(CFG, 4)
    assert pss.u == 4 and pss.kind == "cyclic-hadamard"
    assert np.array_equal(pss.sequences[0], np.ones(64))
    for u in range(4):
        for v in range(u + 1, 4):
            assert abs(np.vdot(pss.sequences[u], pss.sequences[v])) < 1e-9
    with pytest.raises(ValueError):
        gen_hadamard_pss(CFG, 65)


@pytest.mark.parametrize("n_fft", [4, 2048])
def test_gen_hadamard_pss_names_its_n_fft_range(n_fft):
    # the advice was "no built-in polynomial for degree 11; pass taps", and
    # neither this function nor the CLI takes taps
    cfg = SystemConfig(n_fft=n_fft, group_size=4, active=2, mod_order=4)
    message = rf"^cyclic Hadamard phase sequences need n_fft in 8\.\.1024, got n_fft={n_fft}$"
    with pytest.raises(ValueError, match=message):
        gen_hadamard_pss(cfg, 2)


@pytest.mark.parametrize("u", [0, -1])
def test_gen_hadamard_pss_rejects_nonpositive_u(u):
    # h[:u] with u <= 0 would silently drop rows instead of failing
    with pytest.raises(ValueError, match="not in 1"):
        gen_hadamard_pss(CFG, u)


def test_hadamard_pair_small_c():
    # recorded flat-spectrum constant for rows (1,2) of the 64-point matrix
    pss = gen_hadamard_pss(CFG, 3)
    spec = punctured_spectrum(pss.sequences[1], pss.sequences[2])
    assert abs(spec.c - 0.17726112526404902) < 1e-9
    assert spec.magnitudes[0] < 1e-12  # orthogonal rows: zero at lag 0


# ---------------------------------------------------------------------------
# random phase sequences

def test_gen_random_pss_alphabets():
    rng = np.random.default_rng(1)
    binary = gen_random_pss(CFG, 3, rng, alphabet="binary")
    assert np.all(np.isin(binary.sequences.real, (-1.0, 1.0)))
    assert np.all(binary.sequences.imag == 0)
    quat = gen_random_pss(CFG, 3, rng, alphabet="quaternary")
    grid = np.array([1, 1j, -1, -1j])
    assert np.max(np.min(np.abs(quat.sequences[..., None] - grid), axis=-1)) < 1e-12
    cont = gen_random_pss(CFG, 3, rng, alphabet="continuous")
    assert np.max(np.abs(np.abs(cont.sequences) - 1)) < 1e-12
    with pytest.raises(ValueError):
        gen_random_pss(CFG, 2, rng, alphabet="octal")


@pytest.mark.parametrize("alphabet", ["octal", "", "Binary", ["binary"], None, 2, b"binary"], ids=repr)
def test_gen_random_pss_refuses_an_unknown_alphabet_before_it_draws(alphabet):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^unknown alphabet "):
        gen_random_pss(CFG, 2, rng, alphabet=alphabet)
    assert rng.bit_generator.state == state


def test_gen_random_pss_keeps_the_draw_of_each_alphabet():
    # the numpy calls each alphabet made before the alphabets were one mapping
    shape = (3, CFG.n_fft)
    reference = {
        "binary": lambda rng: (1.0 - 2.0 * rng.integers(0, 2, shape)).astype(complex),
        "quaternary": lambda rng: np.exp(1j * np.pi / 2 * rng.integers(0, 4, shape)),
        "continuous": lambda rng: np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape)),
    }
    assert list(PSS_ALPHABETS) == list(reference)
    for name, draw in reference.items():
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(gen_random_pss(CFG, 3, a, alphabet=name).sequences, draw(b))
        assert a.bit_generator.state == b.bit_generator.state


def test_random_quaternary_pair_below_flat_bound():
    # punctured spectrum of a random pair stays below the all-equal bound K/N
    rng = np.random.default_rng(3)
    pss = gen_random_pss(CFG, 2, rng)
    block, sap = random_block(CFG, seed=3)
    spec = punctured_spectrum(pss.sequences[0], pss.sequences[1], sap)
    bound = CFG.total_active / CFG.n_fft
    assert np.max(spec.magnitudes) <= bound + 1e-12
    assert np.max(spec.magnitudes) < bound - 1e-3  # strict for this seeded draw


def test_pss_validation():
    with pytest.raises(ValueError, match="unit modulus"):
        PhaseSequenceSet(np.array([[1.0, 2.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseSequenceSet(np.array([[1.0, bad], [1.0, -1.0]]))
    with pytest.raises(ValueError, match="unit modulus"):
        pss_from_json({"phases": [[0.0, float("nan")], [0.0, 1.0]]}, CFG)
    with pytest.raises(ValueError, match="identical"):
        PhaseSequenceSet(np.ones((2, 8), dtype=complex))
    rows = np.exp(1j * np.pi / 2 * np.random.default_rng(1).integers(0, 4, (4, 8)))
    rows[3] = rows[1]  # a non-adjacent duplicate
    with pytest.raises(ValueError, match="identical"):
        PhaseSequenceSet(rows)


def test_pss_identical_rows_include_signed_zeros():
    # -0.0 == 0.0, so rows that differ only in the sign of a zero are identical
    row = np.array([1 + 0j, 1j, -1 + 0j, -1j])
    signed = np.array([complex(1, -0.0), complex(-0.0, 1), complex(-1, -0.0), complex(-0.0, -1)])
    with pytest.raises(ValueError, match="identical"):
        PhaseSequenceSet(np.vstack([row, signed]))
    assert PhaseSequenceSet(np.vstack([row, -row])).u == 2


def test_pss_row_check_memory_is_a_small_multiple_of_the_set():
    # a 2 x 2^16 set; a sort over 2N keys of U values each peaked near 170x its bytes
    rows = np.exp(1j * np.pi / 2 * np.random.default_rng(2).integers(0, 4, (2, 1 << 16)))
    tracemalloc.start()
    try:
        PhaseSequenceSet(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows.nbytes


def test_pss_check_against_config():
    pss = gen_random_pss(CFG8, 2, np.random.default_rng(3))
    assert pss.check(CFG8) is pss
    with pytest.raises(ValueError, match="length 8 is not n_fft=64"):
        pss.check(CFG)
    with pytest.raises(ValueError, match="2-D"):
        PhaseSequenceSet(np.ones((2, 4, 8), dtype=complex))


# ---------------------------------------------------------------------------
# permutations

def test_gen_perm_identity():
    perms = gen_perm_set(CFG, 3, "identity")
    assert np.array_equal(perms.perms, np.tile(np.arange(64), (3, 1)))


@pytest.mark.parametrize("u", [0, -1])
@pytest.mark.parametrize("kind", ["identity", "random"])
def test_gen_perm_set_refuses_fewer_than_one_row(kind, u):
    # u = 0 built an empty set and u = -1 ended in numpy's negative dimensions
    with pytest.raises(ValueError, match="not at least 1"):
        gen_perm_set(CFG, u, kind, np.random.default_rng(0))
    with pytest.raises(ValueError, match="not at least 1"):
        gen_random_pss(CFG, u, np.random.default_rng(0))


@pytest.mark.parametrize("kind,rng,message", [
    ("random", None, "random permutation set needs an rng"),
    ("bogus", np.random.default_rng(0), "unknown permutation kind 'bogus'"),
    ("pinned", np.random.default_rng(0), "unknown permutation kind 'pinned'"),
    (["random"], np.random.default_rng(0), r"unknown permutation kind \['random'\]"),
], ids=["random-without-rng", "unknown-kind", "pinned-kind", "kind-no-string"])
def test_gen_perm_set_refuses_an_unknown_kind_or_a_missing_rng(kind, rng, message):
    with pytest.raises(ValueError, match=message):
        gen_perm_set(CFG, 2, kind, rng)


def test_permutation_set_refuses_an_empty_set():
    with pytest.raises(ValueError, match="at least one permutation"):
        PermutationSet(np.empty((0, 64), dtype=np.intp))
    with pytest.raises(ValueError, match="at least one phase sequence"):
        PhaseSequenceSet(np.empty((0, 64), dtype=complex))


def test_gen_perm_random_group_closure():
    rng = np.random.default_rng(4)
    perms = gen_perm_set(CFG, 4, "random", rng)
    G = CFG.num_groups
    idx = np.arange(CFG.n_fft)
    for row in perms.perms:
        assert np.array_equal(np.sort(row), idx)
        assert np.all(row % G == idx % G)
        # image of each residue class is the class itself
        for g in range(G):
            members = idx[idx % G == g]
            assert set(row[members].tolist()) == set(members.tolist())


def test_explicit_perm_closure_violation_rejected():
    d = np.arange(64)
    d[0], d[1] = 1, 0  # swaps residues 0 and 1 mod G=4
    with pytest.raises(ValueError, match="residue"):
        PermutationSet(d).check(CFG)
    with pytest.raises(ValueError, match="permutation"):
        PermutationSet(np.zeros(64, dtype=int)).check(CFG)


def test_permutation_set_rejects_non_integer_entries():
    # a cast to int would turn each of these into the identity
    for bad in (np.arange(64) + 0.5, [str(i) for i in range(64)], [np.nan] * 64):
        with pytest.raises(ValueError, match="permutation"):
            PermutationSet(bad)
        with pytest.raises(ValueError, match="permutation"):
            perm_set_from_json({"perms": [list(bad)]}, CFG)
    assert np.array_equal(PermutationSet(np.arange(64.0)).perms, [np.arange(64)])


def test_permutation_set_rejects_any_non_bijective_row():
    perms = np.tile(np.arange(8), (3, 1))
    perms[2, 5] = 4
    with pytest.raises(ValueError, match="permutation"):
        PermutationSet(perms)
    with pytest.raises(ValueError, match="length"):
        PermutationSet(np.tile(np.arange(8), (2, 1))).check(CFG)


def test_apply_permutation_identity_and_inverse():
    block, _ = random_block(CFG, seed=6)
    ident = np.arange(64)
    assert np.array_equal(apply_permutation(block, ident), block)
    rng = np.random.default_rng(7)
    d = gen_perm_set(CFG, 1, "random", rng).perms[0]
    permuted = apply_permutation(block, d)
    assert np.array_equal(permuted[d], block)  # out[d[i]] == in[i]
    restored = apply_permutation(permuted, np.argsort(d))
    assert np.array_equal(restored, block)


def test_apply_permutation_group_swap_example():
    # swap rows 1 and 3 of group 0 (indices 2 and 6): active set unchanged,
    # the two symbols trade places
    cs = Constellation.psk(4)
    g0 = (GroupSap((1, 3)), cs.symbols[[0, 1]])
    g1 = (GroupSap((0, 1)), cs.symbols[[2, 3]])
    block, sap = assemble_block([g0, g1], CFG8)
    d = np.arange(8)
    d[2], d[6] = 6, 2
    permuted = apply_permutation(block, d)
    new_sap = permute_sap(sap, d, CFG8)
    assert new_sap.active == sap.active
    assert permuted[2] == block[6] and permuted[6] == block[2]
    assert np.array_equal(np.delete(permuted, [2, 6]), np.delete(block, [2, 6]))


def test_permute_sap_matches_applied_block():
    rng = np.random.default_rng(8)
    block, sap = random_block(CFG, seed=8)
    d = gen_perm_set(CFG, 1, "random", rng).perms[0]
    permuted = apply_permutation(block, d)
    new_sap = permute_sap(sap, d, CFG)
    assert tuple(np.nonzero(permuted)[0].tolist()) == new_sap.active


def test_phase_multiply_preserves_energy():
    rng = np.random.default_rng(9)
    block, _ = random_block(CFG, seed=9)
    pss = gen_random_pss(CFG, 2, rng, alphabet="continuous")
    assert np.allclose(np.abs(pss.sequences[1] * block), np.abs(block))


# ---------------------------------------------------------------------------
# SLM selection

def test_slm_passthrough():
    block, _ = random_block(CFG, seed=10)
    result = slm_select(block, all_ones_pss(CFG), gen_perm_set(CFG, 1, "identity"), CFG)
    assert result.selected_index == 0
    assert abs(result.papr_db[0] - papr_db(idft(block), CFG)) < 1e-12
    assert np.allclose(result.signal, idft(block))


def test_slm_argmin_contract():
    rng = np.random.default_rng(11)
    pss = gen_random_pss(CFG, 6, rng)
    perms = gen_perm_set(CFG, 6, "random", rng)
    for seed in range(5):
        block, _ = random_block(CFG, seed=seed)
        result = slm_select(block, pss, perms, CFG)
        assert result.papr_db[result.selected_index] == result.papr_db.min()
        # lowest index wins ties
        ties = np.nonzero(result.papr_db == result.papr_db.min())[0]
        assert result.selected_index == ties[0]
        assert abs(papr_db(result.signal, CFG) - result.papr_db.min()) < 1e-12


def test_slm_never_worse_than_first_branch():
    rng = np.random.default_rng(12)
    pss_rows = np.vstack([np.ones(64), gen_random_pss(CFG, 3, rng).sequences])
    pss = PhaseSequenceSet(pss_rows, kind="explicit")
    rows = gen_perm_set(CFG, 4, "random", rng).perms
    rows[0] = np.arange(64)
    perms = PermutationSet(rows)
    for seed in range(10):
        block, _ = random_block(CFG, seed=100 + seed)
        baseline = papr_db(idft(block), CFG)
        result = slm_select(block, pss, perms, CFG)
        assert result.papr_db.min() <= baseline + 1e-12


@pytest.mark.parametrize("n_fft", [16, 32, 64, 128])
@pytest.mark.parametrize("u", [1, 4])
@pytest.mark.parametrize("alphabet", ["quaternary", "continuous"])
def test_slm_select_bytes_match_idft_and_candidate_paprs(n_fft, u, alphabet):
    # the kept signal is the winner's unitary IDFT to the last bit, and the
    # PAPRs are the batch kernel's on the same block
    cfg = SystemConfig(n_fft=n_fft, group_size=16, active=2, mod_order=4)
    rng = np.random.default_rng(n_fft + u)
    pss = gen_random_pss(cfg, u, rng, alphabet=alphabet)
    perms = gen_perm_set(cfg, u, "random", rng)
    for seed in range(200):
        block, _ = random_block(cfg, seed=500 + seed)
        result = slm_select(block, pss, perms, cfg)
        best = result.selected_index
        assert np.array_equal(result.signal, idft(block[perms.inverse[best]] * pss.sequences[best]))
        assert np.array_equal(result.papr_db, dense_paprs(block[None], pss.sequences, perms.inverse, cfg.mean_power)[0])


def test_slm_select_runs_one_transform(monkeypatch):
    # all U candidates in one FFT, and no second transform for the kept signal
    shapes, in_place = [], []
    ifft = np.fft.ifft

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        in_place.append(kwargs.get("out") is a)
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    rng = np.random.default_rng(19)
    block, _ = random_block(CFG, seed=19)
    slm_select(block, gen_random_pss(CFG, 4, rng), gen_perm_set(CFG, 4, "random", rng), CFG)
    assert shapes == [(4, 64)]
    # the gathered, phase-rotated spectrum is its own output: no FFT output is allocated
    assert in_place == [True]


def test_candidate_paprs_batch_matches_single_blocks():
    rng = np.random.default_rng(16)
    pss = gen_random_pss(CFG, 4, rng)
    perm_inv = np.argsort(gen_perm_set(CFG, 4, "random", rng).perms, axis=1)
    blocks = np.array([random_block(CFG, seed=200 + s)[0] for s in range(5)])
    batch = dense_paprs(blocks, pss.sequences, perm_inv, CFG.mean_power)
    assert batch.shape == (5, 4)
    for t in range(5):
        single = dense_paprs(blocks[t : t + 1], pss.sequences, perm_inv, CFG.mean_power)
        assert np.array_equal(single, batch[t : t + 1])
    # the drawn form: only the active subcarriers, in any order within a row,
    # each with the index of its symbol
    symbols = Constellation.psk(4).symbols
    active = np.array([np.flatnonzero(b)[::-1] for b in blocks])
    symbol_index = np.abs(np.take_along_axis(blocks, active, axis=1)[..., None] - symbols).argmin(axis=-1)
    assert np.array_equal(symbols[symbol_index], np.take_along_axis(blocks, active, axis=1))
    sparse = candidate_paprs_db(active, symbol_index, symbols, CFG.n_fft, pss.sequences, perm_inv, CFG.mean_power)
    assert np.array_equal(sparse, batch)
    # oversampling only adds samples between the Nyquist-rate ones
    over = dense_paprs(blocks, pss.sequences, perm_inv, CFG.mean_power, oversample=4)
    assert np.all(over >= batch - 1e-9)
    # a real-valued block is a complex block with zero imaginary parts
    real = dense_paprs(blocks.real, pss.sequences, perm_inv, CFG.mean_power)
    assert np.array_equal(real, dense_paprs(blocks.real + 0j, pss.sequences, perm_inv, CFG.mean_power))
    with pytest.raises(ValueError, match="oversampling"):
        dense_paprs(blocks, pss.sequences, perm_inv, CFG.mean_power, oversample=0)
    # a position outside the block, or indices that do not match the positions
    for bad in (-1, CFG.n_fft):
        wrong = active.copy()
        wrong[2, 1] = bad
        with pytest.raises(ValueError, match="positions must lie"):
            candidate_paprs_db(wrong, symbol_index, symbols, CFG.n_fft, pss.sequences, perm_inv, CFG.mean_power)
    with pytest.raises(ValueError, match="same"):
        candidate_paprs_db(active, symbol_index[:, :7], symbols, CFG.n_fft, pss.sequences, perm_inv, CFG.mean_power)


@pytest.mark.parametrize("bad", [-1, -4, 4, 5, np.iinfo(np.int32).max, np.iinfo(np.int32).min])
def test_candidate_paprs_refuse_a_symbol_index_outside_the_constellation(bad):
    # -1 would read the last symbol and 4 would be a numpy IndexError; either
    # is a ValueError before any tile is built, in the first or last tile
    rng = np.random.default_rng(21)
    pss = gen_random_pss(CFG, 4, rng)
    perm_inv = gen_perm_set(CFG, 4, "random", rng).inverse
    symbols = Constellation.psk(4).symbols
    positions = np.tile(np.arange(8), (300, 1))
    for row in (0, 299):
        symbol_index = rng.integers(0, 4, size=positions.shape, dtype=np.int32)
        symbol_index[row, 3] = bad
        with pytest.raises(ValueError, match=r"symbol indices must lie in 0\.\.3"):
            candidate_paprs_db(positions, symbol_index, symbols, CFG.n_fft, pss.sequences, perm_inv, CFG.mean_power)
    # the symbols must be one row
    with pytest.raises(ValueError, match="one row"):
        candidate_paprs_db(positions, symbol_index % 4, symbols[None], CFG.n_fft, pss.sequences, perm_inv, 1.0)


@pytest.mark.parametrize("bad", [-1, CFG.n_fft, "shape"])
def test_candidate_paprs_refuse_inverse_permutations_outside_the_block(bad):
    # the candidate gather clips its indices, so the kernel checks them first
    rng = np.random.default_rng(22)
    pss = gen_random_pss(CFG, 4, rng)
    perm_inv = gen_perm_set(CFG, 4, "random", rng).inverse.copy()
    if bad == "shape":
        perm_inv = perm_inv[:3]
    else:
        perm_inv[3, 17] = bad
    positions = np.tile(np.arange(8), (5, 1))
    symbol_index = np.zeros(positions.shape, dtype=np.int32)
    with pytest.raises(ValueError, match="perm_inv"):
        candidate_paprs_db(positions, symbol_index, Constellation.psk(4).symbols, CFG.n_fft, pss.sequences, perm_inv, 1.0)


@pytest.mark.parametrize("name,bad", [
    # a mask would index the block and run without an error
    ("positions", lambda a: a["positions"] > 3),
    ("positions", lambda a: a["positions"].astype(float)),
    # uint64 offsets add to the intp row offsets as floats
    ("positions", lambda a: a["positions"].astype(np.uint64)),
    ("symbol_index", lambda a: a["symbol_index"].astype(float)),
    ("perm_inv", lambda a: a["perm_inv"].astype(float)),
    ("pss_seq", lambda a: a["pss_seq"][:, :32]),
    ("pss_seq", lambda a: a["pss_seq"][0]),
    ("pss_seq", lambda a: a["pss_seq"][:0]),
    ("pss_seq", lambda a: a["pss_seq"][0, 0]),
], ids=["bool-positions", "float-positions", "uint64-positions", "float-symbol-index",
        "float-perm-inv", "short-phase-rows", "one-phase-row", "no-phase-rows", "zero-d-phase-rows"])
def test_candidate_paprs_refuse_malformed_arguments_by_name(name, bad):
    rng = np.random.default_rng(23)
    args = {
        "positions": np.tile(np.arange(8), (5, 1)),
        "symbol_index": np.zeros((5, 8), dtype=np.int32),
        "pss_seq": gen_random_pss(CFG, 4, rng).sequences,
        "perm_inv": gen_perm_set(CFG, 4, "random", rng).inverse,
    }
    args[name] = bad(args)
    symbols = Constellation.psk(4).symbols
    with pytest.raises(ValueError, match=f"^{name} "):
        candidate_paprs_db(
            args["positions"], args["symbol_index"], symbols, CFG.n_fft, args["pss_seq"], args["perm_inv"], 1.0
        )


@pytest.mark.parametrize("oversample", [1, 4])
def test_candidate_paprs_are_the_row_maxima_of_oversampled_idft(oversample):
    # at N=64 and L in {1, 4} every scale factor is a power of two, so each
    # PAPR is exactly that of the largest |x|^2; a NaN block stays NaN
    rng = np.random.default_rng(18)
    pss = gen_random_pss(CFG, 4, rng, alphabet="continuous")
    perm_inv = gen_perm_set(CFG, 4, "random", rng).inverse
    blocks = np.array([random_block(CFG, seed=400 + s)[0] for s in range(200)])
    blocks[7, 3] = np.nan
    got = dense_paprs(blocks, pss.sequences, perm_inv, CFG.mean_power, oversample)
    x = oversampled_idft(blocks[:, perm_inv] * pss.sequences, oversample)
    want = 10.0 * np.log10(np.max(x.real**2 + x.imag**2, axis=-1) / CFG.mean_power)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.all(np.isnan(got[7])) and not np.any(np.isnan(np.delete(got, 7, axis=0)))


@pytest.mark.parametrize("oversample", [1, 4])
def test_candidate_paprs_rows_across_tiles_match_single_blocks(oversample):
    # 300 blocks are tiles of 128 (L=1) or 32 (L=4) rows with a shorter last tile
    rng = np.random.default_rng(17)
    pss = gen_random_pss(CFG, 4, rng)
    perm_inv = gen_perm_set(CFG, 4, "random", rng).inverse
    blocks = np.array([random_block(CFG, seed=300 + s)[0] for s in range(300)])
    batch = dense_paprs(blocks, pss.sequences, perm_inv, CFG.mean_power, oversample)
    for t in range(300):
        single = dense_paprs(blocks[t : t + 1], pss.sequences, perm_inv, CFG.mean_power, oversample)
        assert np.array_equal(single, batch[t : t + 1])


@pytest.mark.parametrize("oversample", [1, 2])
def test_candidate_paprs_of_one_candidate_across_tiles_match_single_blocks(oversample):
    # U = 1: the power buffer, one allocation with the tile's block, is half
    # the block's size at L = 1 and as large at L = 2; 600 rows are two tiles
    # of 512 (L = 1) or 256 (L = 2) rows and a shorter last tile
    rng = np.random.default_rng(23 + oversample)
    pss, perms = gen_random_pss(CFG, 1, rng), gen_perm_set(CFG, 1, "random", rng)
    symbols = Constellation.psk(4).symbols
    blocks = np.array([random_block(CFG, seed=600 + s)[0] for s in range(600)])
    active = np.array([np.flatnonzero(b) for b in blocks], dtype=np.int32)
    symbol_index = np.abs(np.take_along_axis(blocks, active, axis=1)[..., None] - symbols).argmin(axis=-1)
    got = candidate_paprs_db(
        active, symbol_index, symbols, CFG.n_fft, pss.sequences, perms.inverse, CFG.mean_power, oversample
    )
    assert got.shape == (600, 1)
    for t, block in enumerate(blocks):
        x = oversampled_idft(block[perms.inverse[0]] * pss.sequences[0], oversample)
        assert got[t, 0] == 10.0 * np.log10(np.max(x.real**2 + x.imag**2) / CFG.mean_power)
        if oversample == 1:
            assert np.array_equal(got[t], slm_select(block, pss, perms, CFG).papr_db)


@pytest.mark.parametrize("n_fft", [32, 128])
@pytest.mark.parametrize("oversample", [1, 3])
def test_candidate_paprs_match_zero_padded_dft_matrix(n_fft, oversample):
    # N not a power of 4, L not a power of 2: where scaling the peaks alone may
    # round differently from a unitary IDFT of every sample
    rng = np.random.default_rng(n_fft + oversample)
    u, mean_power = 3, 0.5
    pss = np.exp(0.5j * np.pi * rng.integers(0, 4, (u, n_fft)))
    perms = np.array([rng.permutation(n_fft) for _ in range(u)])
    blocks = np.exp(0.5j * np.pi * rng.integers(0, 4, (7, n_fft))) * (rng.random((7, n_fft)) < 0.5)
    got = dense_paprs(blocks, pss, np.argsort(perms, axis=1), mean_power, oversample)
    # bins at or above N/2 are negative frequencies of the zero-padded spectrum
    freq = np.where(np.arange(n_fft) < n_fft // 2, np.arange(n_fft), np.arange(n_fft) - n_fft)
    dft = np.exp(2j * np.pi * np.outer(freq, np.arange(n_fft * oversample)) / (n_fft * oversample))
    for t in range(blocks.shape[0]):
        for v in range(u):
            permuted = np.empty(n_fft, dtype=complex)
            permuted[perms[v]] = blocks[t]  # out[d[i]] = in[i]
            x = (pss[v] * permuted) @ dft / np.sqrt(n_fft)
            assert abs(got[t, v] - 10 * np.log10(np.max(np.abs(x) ** 2) / mean_power)) < 1e-9


def test_slm_size_mismatch():
    block, _ = random_block(CFG, seed=13)
    with pytest.raises(ValueError, match="sequences"):
        slm_select(block, all_ones_pss(CFG), gen_perm_set(CFG, 2, "identity"), CFG)
    # the candidate gather clips its indices: a short block must not reach it
    pss, perms = all_ones_pss(CFG), gen_perm_set(CFG, 1, "identity")
    for bad in (block[:-1], block[:1], np.append(block, 0), np.stack([block, block]), block[0]):
        with pytest.raises(ValueError, match="permutation length"):
            slm_select(bad, pss, perms, CFG)
    short = PhaseSequenceSet(np.ones((1, CFG.n_fft // 2), dtype=complex))
    with pytest.raises(ValueError, match="permutation length"):
        slm_select(block, short, perms, CFG)
    # the PAPRs are scaled by the mean power of cfg, so its n_fft must be the block's
    with pytest.raises(ValueError, match="n_fft=128 must be one row of the permutation length 64"):
        slm_select(block, pss, perms, SystemConfig(n_fft=128, group_size=16, active=8, mod_order=4))


def gen_perm_set_oracle(cfg, u, rng):
    """Random permutation rows as one rng.permutation(n) per (row, group)."""
    N, n, G = cfg.n_fft, cfg.group_size, cfg.num_groups
    perms = np.empty((u, N), dtype=np.intp)
    for i in range(u):
        for g in range(G):
            members = np.arange(n, dtype=np.intp) * G + g
            perms[i, members] = members[rng.permutation(n)]
    return perms


@pytest.mark.parametrize("u,n_fft,groups", [(4, 64, 4), (3, 256, 16), (2, 16, 8), (5, 64, 32), (1, 64, 1)])
def test_gen_perm_random_equals_one_permutation_per_group(u, n_fft, groups):
    cfg = SystemConfig(n_fft=n_fft, group_size=n_fft // groups, active=1, mod_order=4)
    a, b = np.random.default_rng(u * n_fft), np.random.default_rng(u * n_fft)
    got = gen_perm_set(cfg, u, "random", a).perms
    want = gen_perm_set_oracle(cfg, u, b)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(gen_perm_set(cfg, 2, "random", a).perms, gen_perm_set_oracle(cfg, 2, b))
    assert a.bit_generator.state == b.bit_generator.state


def test_gen_perm_identity_draws_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    gen_perm_set(CFG, 4, "identity", rng)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# JSON round trips

def test_pss_json_roundtrip():
    rng = np.random.default_rng(14)
    pss = gen_random_pss(CFG, 3, rng, alphabet="continuous")
    restored = pss_from_json(pss_to_json(pss), CFG)
    assert restored.kind == "random"
    assert np.max(np.abs(restored.sequences - pss.sequences)) < 1e-12


def test_pss_json_roundtrip_hadamard():
    pss = gen_hadamard_pss(CFG, 4)
    restored = pss_from_json(pss_to_json(pss), CFG)
    # +-1 entries survive the radian encoding to float precision
    assert np.max(np.abs(restored.sequences - pss.sequences)) < 1e-12


@pytest.mark.parametrize("n_fft", [32, 128, "banana", None, 64.5, [64]], ids=repr)
def test_pss_json_n_fft_must_be_the_row_length(n_fft):
    doc = {**pss_to_json(gen_random_pss(CFG, 2, np.random.default_rng(0))), "n_fft": n_fft}
    with pytest.raises(ValueError, match="n_fft"):
        pss_from_json(doc, CFG)
    # a document without n_fft takes the length of its rows
    del doc["n_fft"]
    assert pss_from_json(doc, CFG).n_fft == CFG.n_fft


def test_pss_json_is_checked_against_the_config():
    doc = pss_to_json(gen_random_pss(CFG, 2, np.random.default_rng(0)))
    short = SystemConfig(n_fft=16, group_size=4, active=2, mod_order=4)
    with pytest.raises(ValueError, match="^phase sequence length 64 is not n_fft=16$"):
        pss_from_json(doc, short)


def test_set_json_text_is_the_element_by_element_encoding():
    # the plan fingerprints hash this text, so the lists must print as the
    # per-element float() and int() conversions did
    rng = np.random.default_rng(16)
    cfg = SystemConfig(n_fft=256, group_size=16, active=2, mod_order=4)
    pss = gen_random_pss(cfg, 3, rng, alphabet="continuous")
    perms = gen_perm_set(cfg, 3, "random", rng)
    pss_doc = {"kind": pss.kind, "n_fft": pss.n_fft,
               "phases": [[float(p) for p in np.angle(row)] for row in pss.sequences]}
    perm_doc = {"kind": perms.kind, "perms": [[int(i) for i in row] for row in perms.perms]}
    assert json.dumps(pss_to_json(pss)) == json.dumps(pss_doc)
    assert json.dumps(perm_set_to_json(perms)) == json.dumps(perm_doc)


@pytest.mark.parametrize("kind", [None, ["x"], {"nested": [1, 2]}, 3, b"random"], ids=repr)
def test_sets_refuse_a_kind_that_is_no_string(kind):
    # a set file's kind is copied into the analyze-perm report
    with pytest.raises(ValueError, match="^kind must be a string, got "):
        PhaseSequenceSet(np.ones((1, 8)), kind=kind)
    with pytest.raises(ValueError, match="^kind must be a string, got "):
        PermutationSet(np.arange(8), kind=kind)
    rng = np.random.default_rng(0)
    pss_doc = {**pss_to_json(gen_random_pss(CFG, 2, rng)), "kind": kind}
    perm_doc = {**perm_set_to_json(gen_perm_set(CFG, 2, "random", rng)), "kind": kind}
    with pytest.raises(ValueError, match="kind"):
        pss_from_json(pss_doc, CFG)
    with pytest.raises(ValueError, match="kind"):
        perm_set_from_json(perm_doc, CFG)


def test_perm_json_roundtrip_and_validation():
    rng = np.random.default_rng(15)
    perms = gen_perm_set(CFG, 3, "random", rng)
    doc = perm_set_to_json(perms)
    restored = perm_set_from_json(doc, CFG)
    assert np.array_equal(restored.perms, perms.perms)
    doc["perms"][0][0] = doc["perms"][0][1]  # break bijectivity
    with pytest.raises(ValueError):
        perm_set_from_json(doc, CFG)
