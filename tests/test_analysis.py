import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from oracles import cov_alt_signals, rho_profile, var_rho_profile_serial

from ofdm_im_slm import (
    Constellation,
    GroupSap,
    Sap,
    SystemConfig,
    all_ones_pss,
    analysis,
    draw_active_positions,
    gen_hadamard_pss,
    gen_perm_set,
    gen_random_pss,
    mu_metric,
    mu_metric_set,
    punctured_spectrum,
    sample_random_sap,
    spectrum_bound,
    var_rho_closed_form,
    var_rho_empirical,
    var_rho_empirical_profile,
)

CFG = SystemConfig(n_fft=64, group_size=16, active=2, mod_order=4)
CFG8 = SystemConfig(n_fft=8, group_size=4, active=2, mod_order=4)

FIG1_SAP = Sap((GroupSap((1, 3)), GroupSap((0, 1))))  # active set {1,2,3,6}


# ---------------------------------------------------------------------------
# rho profile

def test_rho_zero_lag_is_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        sap = sample_random_sap(CFG, rng)
        rho = rho_profile(sap, CFG)
        assert abs(rho[0] - 1.0) < 1e-12
        assert np.max(np.abs(rho)) <= 1.0 + 1e-12


def test_rho_full_activation_is_delta():
    rho = rho_profile(range(CFG.n_fft), CFG)
    assert abs(rho[0] - 1.0) < 1e-12
    assert np.max(np.abs(rho[1:])) < 1e-12


def test_rho_interleaved_example_direct_sum():
    rho = rho_profile(FIG1_SAP, CFG8)
    for m in range(8):
        direct = sum(np.exp(-2j * np.pi * i * m / 8) for i in (1, 2, 3, 6)) / 4
        assert abs(rho[m] - direct) < 1e-12


@pytest.mark.parametrize("bad", [[3, 3], [-1], [64], [2.5], ["2"], [float("nan")], [1, 70]],
                         ids=["duplicate", "negative", "past-end", "fraction", "string", "nan", "one-past-end"])
def test_rho_profile_and_punctured_spectrum_refuse_bad_indices(bad):
    with pytest.raises(ValueError, match="distinct integer values in 0..63"):
        rho_profile(bad, CFG)
    p = np.ones(64, dtype=complex)
    with pytest.raises(ValueError, match="distinct integer values in 0..63"):
        punctured_spectrum(p, p, bad)


def test_rho_profile_refuses_an_empty_set():
    # rho divides by the size of the set; the punctured spectrum of an empty
    # set is well defined (all zeros)
    for empty in ([], Sap(())):
        with pytest.raises(ValueError, match="at least one active index"):
            rho_profile(empty, CFG)
    p = np.ones(64, dtype=complex)
    assert not punctured_spectrum(p, p, []).magnitudes.any()


def test_index_collections_keep_their_results():
    # any order, numpy integers and integral floats give the Sap's result
    as_sap = rho_profile(FIG1_SAP, CFG8)
    for indices in ([6, 1, 3, 2], np.array([1, 2, 3, 6]), [1.0, 2.0, 3.0, 6.0], (1, 2, 3, 6)):
        assert np.array_equal(rho_profile(indices, CFG8), as_sap)
    p = gen_random_pss(CFG8, 1, np.random.default_rng(1)).sequences[0]
    assert np.array_equal(punctured_spectrum(p, p, [6, 1, 3, 2]).magnitudes,
                          punctured_spectrum(p, p, FIG1_SAP).magnitudes)


# ---------------------------------------------------------------------------
# variance of rho

def test_var_rho_closed_form_values():
    # printed formula at N=64, n=16: (1/64)(16/15)(16/k - 1)
    assert abs(var_rho_closed_form(CFG, 1) - 7 / 60) < 1e-15
    assert var_rho_closed_form(CFG, 16) == 0.0
    assert var_rho_closed_form(CFG, 32) == 0.0
    assert var_rho_closed_form(CFG, 17) == var_rho_closed_form(CFG, 1)
    cfg14 = SystemConfig(64, 16, 14, 4)
    assert abs(var_rho_closed_form(cfg14, 1) - (1 / 64) * (16 / 15) * (16 / 14 - 1)) < 1e-15


def test_var_rho_monotone_decreasing_in_k():
    values = [var_rho_closed_form(SystemConfig(64, 16, k, 4), 3) for k in range(1, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("k", [2, 14])
def test_var_rho_empirical_matches_closed_form(k):
    cfg = SystemConfig(64, 16, k, 4)
    rng = np.random.default_rng(100 + k)
    emp = var_rho_empirical(cfg, 1, 30000, rng)
    closed = var_rho_closed_form(cfg, 1)
    assert abs(emp - closed) / closed < 0.05


def test_var_rho_zero_lags_are_deterministic():
    rng = np.random.default_rng(5)
    for m in (16, 32, 48):
        assert var_rho_empirical(CFG, m, 2000, rng) < 1e-20


def test_var_rho_profile_matches_single_lag():
    rng = np.random.default_rng(6)
    profile = var_rho_empirical_profile(CFG, 30000, rng, chunk=7000)
    assert profile.shape == (64,)
    for m in (1, 3, 7):
        closed = var_rho_closed_form(CFG, m)
        assert abs(profile[m] - closed) / closed < 0.05
    assert profile[16] < 1e-20 and profile[32] < 1e-20


def var_rho_profile_oracle(cfg, trials, rng, chunk):
    """The profile with each chunk as one (b, N) array, transformed out of place."""
    N = cfg.n_fft
    acc_abs2, acc_mean = np.zeros(N), np.zeros(N, dtype=complex)
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        alpha = np.zeros((b, N))
        np.put_along_axis(alpha, draw_active_positions(cfg, b, rng), 1.0, axis=1)
        rho = np.fft.fft(alpha, axis=1) / cfg.total_active
        acc_abs2 += np.sum(np.abs(rho) ** 2, axis=0)
        acc_mean += np.sum(rho, axis=0)
    return acc_abs2 / trials - np.abs(acc_mean / trials) ** 2


@pytest.mark.parametrize("cfg,trials,chunk", [
    # tiles of 512 rows at N = 64: 2500 = 4 * 512 + 452, chunks 2500 + 2500 + 1
    (CFG, 5001, 2500),
    # chunks 7000 + 7000 + 1000
    (CFG, 15000, 7000),
    (CFG, 1, 20000),
    (CFG8, 999, 20000),
    # tiles of 128 rows at N = 256: a chunk of 700 ends in a partial tile
    (SystemConfig(n_fft=256, group_size=16, active=3, mod_order=4), 1401, 700),
    # a tile of one row at N = 2^17
    (SystemConfig(n_fft=1 << 17, group_size=4, active=1, mod_order=4), 3, 2),
], ids=["N64", "N64-15000-7000", "N64-one-trial", "N8", "N256", "N131072"])
def test_var_rho_profile_equals_one_array_per_chunk(cfg, trials, chunk):
    a, b = np.random.default_rng(trials), np.random.default_rng(trials)
    profile = var_rho_empirical_profile(cfg, trials, a, chunk=chunk)
    assert np.array_equal(profile, var_rho_profile_oracle(cfg, trials, b, chunk))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("trials,chunk", [
    (700, 1000),  # fewer trials than one chunk
    (1000, 1000),  # exactly one chunk
    (3000, 1000),  # a whole number of chunks
    (3001, 1000),  # one trial more: a last chunk of one
    (7, 1),  # chunks of one pattern
], ids=["below-chunk", "one-chunk", "whole-chunks", "one-more", "chunk-1"])
@pytest.mark.parametrize("cfg", [
    *(SystemConfig(n_fft=N, group_size=16, active=k, mod_order=4) for N in (64, 256) for k in (1, 2, 7)),
    SystemConfig(n_fft=64, group_size=64, active=7, mod_order=4),  # one group: n = N
], ids=lambda cfg: f"N{cfg.n_fft}-n{cfg.group_size}-k{cfg.active}")
def test_var_rho_profile_equals_the_serial_loop(cfg, trials, chunk):
    # the draw runs a chunk ahead on a helper thread; the bytes and the
    # generator state are those of drawing each chunk just before its transform
    threads = threading.active_count()
    a, b = np.random.default_rng(trials), np.random.default_rng(trials)
    profile = var_rho_empirical_profile(cfg, trials, a, chunk=chunk)
    assert threading.active_count() == threads
    assert profile.tobytes() == var_rho_profile_serial(cfg, trials, b, chunk).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_var_rho_profile_equals_the_serial_loop_under_fast_thread_switches():
    # the interpreter hands the GIL between the draw and the transform every
    # microsecond; a chunk read before its draw ended would change the bytes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trials, chunk in ((2000, 37), (50, 1)):
            a, b = np.random.default_rng(chunk), np.random.default_rng(chunk)
            profile = var_rho_empirical_profile(CFG, trials, a, chunk=chunk)
            assert profile.tobytes() == var_rho_profile_serial(CFG, trials, b, chunk).tobytes()
            assert a.bit_generator.state == b.bit_generator.state
    finally:
        sys.setswitchinterval(interval)


def test_var_rho_profile_draws_on_a_helper_thread_one_chunk_ahead(monkeypatch):
    # chunks of 100 patterns are one tile each at N = 64, so the k-th fft
    # transforms chunk k; by then at most chunk k + 1 has been drawn
    draw, fft = analysis._shuffled_picks, np.fft.fft
    drawn, ahead = [], []

    def recorded_draw(*args):
        drawn.append(threading.get_ident())
        return draw(*args)

    def recorded_fft(*args, **kwargs):
        ahead.append(len(drawn) - len(ahead) - 1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(analysis, "_shuffled_picks", recorded_draw)
    monkeypatch.setattr(np.fft, "fft", recorded_fft)
    var_rho_empirical_profile(CFG, 1000, np.random.default_rng(0), chunk=100)
    assert len(drawn) == len(ahead) == 10
    assert threading.get_ident() not in drawn
    assert all(0 <= n <= 1 for n in ahead)


def test_var_rho_profile_checks_its_arguments_before_any_thread_starts(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a draw thread started"))
    for trials, chunk in ((0, 10), (10, 0), (2.5, 10), (10, True)):
        with pytest.raises(ValueError):
            var_rho_empirical_profile(CFG, trials, np.random.default_rng(0), chunk=chunk)


def test_var_rho_profile_passes_on_an_error_of_the_draw(monkeypatch):
    draw, calls = analysis._shuffled_picks, []

    def second_draw_fails(*args):
        calls.append(args[1])
        if len(calls) == 2:
            raise ValueError("the second draw failed")
        return draw(*args)

    monkeypatch.setattr(analysis, "_shuffled_picks", second_draw_fails)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^the second draw failed$"):
        var_rho_empirical_profile(CFG, 5000, np.random.default_rng(0), chunk=1000)
    assert threading.active_count() == threads
    assert calls == [1000, 1000]


@pytest.mark.parametrize("error", [ValueError("the transform failed"), KeyboardInterrupt()])
def test_var_rho_profile_joins_the_draw_when_the_transform_fails(monkeypatch, error):
    # the transform of chunk 0 fails while chunk 1 is being drawn: the call
    # raises the same exception once that draw has ended, and draws no more
    draw, finished, drawing = analysis._shuffled_picks, [], threading.Event()

    def slow_draw(*args):
        if finished:
            drawing.set()
            time.sleep(0.2)
        out = draw(*args)
        finished.append(args[1])
        return out

    def failing_fft(*args, **kwargs):
        assert drawing.wait(timeout=60)
        raise error

    monkeypatch.setattr(analysis, "_shuffled_picks", slow_draw)
    monkeypatch.setattr(np.fft, "fft", failing_fft)
    threads = threading.active_count()
    with pytest.raises(type(error)) as raised:
        var_rho_empirical_profile(CFG, 5000, np.random.default_rng(0), chunk=1000)
    assert raised.value is error
    assert threading.active_count() == threads
    assert finished == [1000, 1000]


def traced_peak(f, *args, **kwargs):
    """Peak bytes that tracemalloc sees while ``f(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_var_rho_profile_memory_is_bounded_by_the_tile():
    # one chunk of 20000 patterns at N = 64 is 20 MB as one complex array
    # plus 10 MB of magnitudes; with the tiles the whole call peaks at 2.7 MiB
    assert traced_peak(var_rho_empirical_profile, CFG, 20000, np.random.default_rng(0)) < 12e6


def test_var_rho_profile_of_1e5_trials_stays_under_4_mib():
    # the chunk's drawn positions (1.28 MB), one 512 KiB shuffle buffer and
    # two tile buffers: 2.7 MiB, or 3.5 MiB as a process's first FFT; a
    # (20000, 16) shuffle buffer alone took 2.44 MiB
    assert traced_peak(var_rho_empirical_profile, CFG, 100000, np.random.default_rng(0)) < 4 << 20


def test_var_rho_profile_bytes_do_not_depend_on_the_tile(monkeypatch):
    # every sum adds row by row, so the tile size changes no bit
    profiles = []
    for tile in (1 << 13, 1 << 15, 1 << 16):
        monkeypatch.setattr(analysis, "_VAR_RHO_TILE", tile)
        profiles.append(var_rho_empirical_profile(CFG, 5001, np.random.default_rng(4), chunk=2500))
    assert all(p.tobytes() == profiles[0].tobytes() for p in profiles[1:])


@pytest.mark.parametrize("cfg,m,trials", [
    (CFG, 1, 1),
    (CFG, 3, 5001),
    (CFG, -63, 20001),  # lag 1, and more trials than a profile chunk of the CLI
    (SystemConfig(64, 16, 14, 4), 32, 3000),  # a zero lag
    (CFG8, 5, 999),
], ids=["one-trial", "N64", "lag-minus-63", "k14-zero-lag", "N8"])
def test_var_rho_empirical_is_the_profile_lag_of_one_chunk(cfg, m, trials):
    a, b, c = (np.random.default_rng(trials) for _ in range(3))
    emp = var_rho_empirical(cfg, m, trials, a)
    profile = var_rho_empirical_profile(cfg, trials, b, chunk=trials)
    assert np.float64(emp).tobytes() == profile[m % cfg.n_fft].tobytes()
    # one chunk is one draw: the stream of the sorted draw of every pattern
    draw_active_positions(cfg, trials, c)
    assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state


def test_var_rho_empirical_of_1e5_trials_at_k14_stays_under_32_mib():
    # the one chunk's 10^5 x 56 int32 picks (22.4 MB) and two tile buffers;
    # a gather of a (10^5, 56) complex array and its row sums peaked at 108 MiB
    cfg14 = SystemConfig(64, 16, 14, 4)
    assert traced_peak(var_rho_empirical, cfg14, 1, 100000, np.random.default_rng(0)) < 32 << 20


def test_var_rho_empirical_checks_m_and_trials_before_it_draws(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a draw thread started"))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for m, trials in ((2.5, 10), (True, 10), (1, 0), (1, 2.5)):
        with pytest.raises(ValueError):
            var_rho_empirical(CFG, m, trials, rng)
    assert rng.bit_generator.state == state


def test_var_rho_empirical_rejects_bad_trials():
    with pytest.raises(ValueError):
        var_rho_empirical(CFG, 1, 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="trials"):
        var_rho_empirical_profile(CFG, 0, np.random.default_rng(0))


@pytest.mark.parametrize("chunk", [0, -1])
def test_var_rho_profile_refuses_a_chunk_below_one(chunk):
    # these ended in numpy's range() and empty() errors inside the chunk loop
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        var_rho_empirical_profile(CFG, 10, rng, chunk=chunk)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# punctured spectra

def test_self_correlation_full_is_delta():
    rng = np.random.default_rng(7)
    p = gen_random_pss(CFG, 1, rng, alphabet="continuous").sequences[0]
    spec = punctured_spectrum(p, p)
    assert abs(spec.magnitudes[0] - 1.0) < 1e-12
    assert np.max(spec.magnitudes[1:]) < 1e-12
    assert abs(spec.c - 1.0) < 1e-12


def test_self_correlation_punctured_peak_is_density():
    rng = np.random.default_rng(8)
    p = gen_random_pss(CFG, 1, rng).sequences[0]
    sap = sample_random_sap(CFG, rng)
    spec = punctured_spectrum(p, p, sap)
    assert abs(spec.magnitudes[0] - CFG.total_active / CFG.n_fft) < 1e-12
    assert spec.punctured


def test_punctured_magnitudes_never_exceed_density():
    rng = np.random.default_rng(9)
    pss = gen_random_pss(CFG, 2, rng)
    sap = sample_random_sap(CFG, rng)
    spec = punctured_spectrum(pss.sequences[0], pss.sequences[1], sap)
    assert np.max(spec.magnitudes) <= CFG.total_active / CFG.n_fft + 1e-12


@pytest.mark.parametrize("k", [2, 14])
def test_bound_holds_for_hadamard_pair(k):
    cfg = SystemConfig(64, 16, k, 4)
    pss = gen_hadamard_pss(cfg, 3)
    rng = np.random.default_rng(10 + k)
    for _ in range(25):
        sap = sample_random_sap(cfg, rng)
        spec = punctured_spectrum(pss.sequences[1], pss.sequences[2], sap)
        assert np.max(spec.magnitudes) <= spectrum_bound(cfg, spec.c)


def test_hadamard_full_spectrum_zero_at_lag_zero():
    pss = gen_hadamard_pss(CFG, 4)
    for u in range(4):
        for v in range(u + 1, 4):
            spec = punctured_spectrum(pss.sequences[u], pss.sequences[v])
            assert spec.magnitudes[0] < 1e-12


def test_punctured_spectrum_of_a_sap_of_plain_rows():
    # a Sap of plain rows made GroupSaps of them, instead of failing when read
    pss = gen_random_pss(CFG, 2, np.random.default_rng(2)).sequences
    rows = ((0, 1), (2, 3), (0, 5), (1, 2))
    got = punctured_spectrum(pss[0], pss[1], Sap(rows))
    want = punctured_spectrum(pss[0], pss[1], Sap(tuple(GroupSap(r) for r in rows)))
    assert np.array_equal(got.magnitudes, want.magnitudes) and got.c == want.c


def test_punctured_spectrum_length_mismatch():
    for p1, p2, sap in (
        (np.ones(8), np.ones(16), None),
        (1.0, 1.0, None),  # no rows: indexing them raised IndexError
        (np.ones((2, 64)), np.ones((2, 64)), [0, 1]),  # two rows each: a spectrum per row
        (np.ones((1, 64)), np.ones(64), None),
    ):
        with pytest.raises(ValueError, match="must be two rows of equal length"):
            punctured_spectrum(p1, p2, sap)


# ---------------------------------------------------------------------------
# mu metric

def test_mu_identity_pair_is_n_minus_one():
    perms = gen_perm_set(CFG, 2, "identity")
    report = mu_metric(perms.perms[0], perms.perms[1], CFG)
    assert abs(report.mu - 63.0) < 1e-9
    assert report.grid_shape == (64, 64)


def test_mu_equal_permutations_match_identity():
    rng = np.random.default_rng(11)
    d = gen_perm_set(CFG, 1, "random", rng).perms[0]
    assert abs(mu_metric(d, d, CFG).mu - 63.0) < 1e-9


def test_mu_depends_only_on_relative_permutation():
    rng = np.random.default_rng(12)
    d1, d2, sigma = gen_perm_set(CFG, 3, "random", rng).perms
    base = mu_metric(d1, d2, CFG).mu
    composed = mu_metric(d1[sigma], d2[sigma], CFG).mu  # same d1 o d2^{-1}
    assert abs(base - composed) < 1e-9


def test_mu_random_pair_substantially_below_identity():
    rng = np.random.default_rng(0)
    perms = gen_perm_set(CFG, 2, "random", rng)
    mu = mu_metric_set(perms, CFG)
    assert 0.0 <= mu < 40.0  # recorded draws land near 22; identity sits at 63


def test_mu_metric_set_aggregation():
    perms = gen_perm_set(CFG, 5, "identity")
    assert abs(mu_metric_set(perms, CFG) - 63.0) < 1e-9
    rng = np.random.default_rng(13)
    rnd = gen_perm_set(CFG, 4, "random", rng)
    pair_values = [
        mu_metric(rnd.perms[u], rnd.perms[v], CFG).mu for u in range(4) for v in range(u + 1, 4)
    ]
    assert len(pair_values) == 6
    assert abs(mu_metric_set(rnd, CFG) - np.mean(pair_values)) < 1e-12
    two = gen_perm_set(CFG, 2, "random", np.random.default_rng(14))
    assert mu_metric_set(two, CFG) == mu_metric(two.perms[0], two.perms[1], CFG).mu
    with pytest.raises(ValueError):
        mu_metric_set(gen_perm_set(CFG, 1, "identity"), CFG)


# ---------------------------------------------------------------------------
# covariance of alternative signals

def test_cov_self_pair_at_same_sample_is_signal_power():
    # P1 = P2 = all-ones, identity perms, l = m: analytic |cov| = K/N = k/n
    pss_rows = np.ones((2, 64), dtype=complex)
    pss_rows[1, 0] = -1.0  # distinctness; index 0 inactive in the chosen SAP
    sap = Sap(tuple(GroupSap((1, 2)) for _ in range(4)))
    pss = type(all_ones_pss(CFG))(pss_rows)
    perms = gen_perm_set(CFG, 2, "identity")
    check = cov_alt_signals(sap, Constellation.psk(4), pss, perms, 5, 5, CFG, 2000, np.random.default_rng(15))
    assert abs(abs(check.analytic) - CFG.active / CFG.group_size) < 1e-12


def test_cov_analytic_equals_punctured_spectrum_for_identity_perms():
    rng = np.random.default_rng(16)
    pss = gen_random_pss(CFG, 2, rng)
    sap = sample_random_sap(CFG, rng)
    perms = gen_perm_set(CFG, 2, "identity")
    spec = punctured_spectrum(pss.sequences[0], pss.sequences[1], sap)
    for l, m in [(0, 0), (5, 2), (9, 30), (63, 1)]:
        check = cov_alt_signals(sap, Constellation.psk(4), pss, perms, l, m, CFG, 10, rng)
        assert abs(abs(check.analytic) - spec.magnitudes[(l - m) % 64]) < 1e-12


def test_cov_empirical_matches_analytic():
    rng = np.random.default_rng(17)
    pss = gen_random_pss(CFG, 2, rng)
    perms = gen_perm_set(CFG, 2, "random", rng)
    sap = sample_random_sap(CFG, rng)
    for l, m in [(3, 11), (20, 20)]:
        check = cov_alt_signals(sap, Constellation.psk(4), pss, perms, l, m, CFG, 100000, rng)
        assert abs(check.empirical - check.analytic) < 3 * check.stderr + 1e-12


def test_cov_requires_two_candidates():
    sap = sample_random_sap(CFG, np.random.default_rng(18))
    with pytest.raises(ValueError):
        cov_alt_signals(
            sap, Constellation.psk(4), all_ones_pss(CFG), gen_perm_set(CFG, 1, "identity"),
            0, 0, CFG, 10, np.random.default_rng(19),
        )
