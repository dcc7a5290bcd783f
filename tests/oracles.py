"""Reference implementations that the tests check the package against.

None of these is used by the library, the CLI or the benchmark: each is a
plain, direct statement of a rule that the package implements in a faster
or fused form (block placement, permutation, curve comparison, the serial
var_rho profile), or of a quantity that the paper defines and the package
only uses inside a fused kernel: the unitary DFT and the PAPR of one
signal, ``oversampled_idft`` (the zero-padding layout of
``slm.candidate_paprs_db`` at oversample > 1), the correlation profile
``rho_profile`` and the Monte-Carlo branch covariance ``cov_alt_signals``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ofdm_im_slm import (
    CcdfCurve,
    GroupSap,
    PermutationSet,
    PhaseSequenceSet,
    Sap,
    SystemConfig,
    analysis,
    idft,
    papr_at_ccdf,
)
from ofdm_im_slm.analysis import _active_indices
from ofdm_im_slm.core import _as_int, _shuffled_picks


# ---------------------------------------------------------------------------
# block assembly and permutation

def assemble_block(groups, cfg: SystemConfig):
    """Interleave G (GroupSap, symbols) pairs into a length-N block.

    Placement rule: block[G*r + g] = symbols of group g at its r-th active row.
    Returns (block, Sap).
    """
    if len(groups) != cfg.num_groups:
        raise ValueError(f"expected {cfg.num_groups} groups, got {len(groups)}")
    G = cfg.num_groups
    block = np.zeros(cfg.n_fft, dtype=complex)
    saps = []
    for g, (gsap, symbols) in enumerate(groups):
        if len(symbols) != len(gsap.rows):
            raise ValueError("one symbol per active row required")
        for r, s in zip(gsap.rows, symbols):
            block[G * r + g] = s
        saps.append(gsap)
    return block, Sap(tuple(saps)).check(cfg)


def apply_permutation(block: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Move every entry i to position d[i]."""
    block = np.asarray(block)
    out = np.empty_like(block)
    out[..., d] = block
    return out


def permute_sap(sap: Sap, d: np.ndarray, cfg: SystemConfig) -> Sap:
    """Activation pattern of the permuted block, {d(i) : i active}."""
    G = cfg.num_groups
    d = np.asarray(d)
    groups = []
    for g, gs in enumerate(sap.groups):
        rows = sorted(int(d[G * r + g] - g) // G for r in gs.rows)
        groups.append(GroupSap(tuple(rows)))
    return Sap(tuple(groups)).check(cfg)


# ---------------------------------------------------------------------------
# curve comparison

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
# var_rho profile

def var_rho_profile_serial(cfg: SystemConfig, trials: int, rng, chunk: int = analysis.VAR_RHO_CHUNK):
    """``analysis.var_rho_empirical_profile`` with every chunk drawn in the
    caller's thread, just before it is transformed: the same chunks, draw
    calls, tiles and sums, one stage after the other."""
    N = cfg.n_fft
    tile = min(max(1, analysis._VAR_RHO_TILE // N), chunk, trials)
    rho = np.empty((tile + 1, N), dtype=complex)
    abs2 = np.empty((tile + 1, N))
    flat, re_im = rho.reshape(-1), rho.view(float)
    row_start = np.arange(N, (tile + 1) * N, N)[:, None]
    scale = 1.0 / cfg.total_active
    acc_abs2 = np.zeros(N)
    acc_mean = np.zeros(N, dtype=complex)
    for done in range(0, trials, chunk):
        b = min(chunk, trials - done)
        pos = _shuffled_picks(cfg, b, rng).reshape(b, cfg.total_active)
        rho[0] = 0.0
        abs2[0] = 0.0
        for t0 in range(0, b, tile):
            r = min(tile, b - t0)
            rows, mags = rho[1 : r + 1], abs2[1 : r + 1]
            rows[...] = 0.0
            flat[row_start[:r] + pos[t0 : t0 + r]] = 1.0
            np.fft.fft(rows, axis=1, out=rows)
            re_im[1 : r + 1] *= scale
            rho[0] = np.sum(rho[: r + 1], axis=0)
            np.abs(rows, out=mags)
            np.square(mags, out=mags)
            abs2[0] = np.sum(abs2[: r + 1], axis=0)
        acc_mean += rho[0]
        acc_abs2 += abs2[0]
    return acc_abs2 / trials - np.abs(acc_mean / trials) ** 2


# ---------------------------------------------------------------------------
# transform and PAPR of one signal

def dft(signal: np.ndarray) -> np.ndarray:
    """Unitary forward DFT (inverse of idft)."""
    signal = np.asarray(signal)
    n = signal.shape[-1]
    return np.fft.fft(signal, axis=-1) / math.sqrt(n)


def papr_db(signal: np.ndarray, cfg: SystemConfig) -> float:
    """PAPR in dB: peak power over the ensemble mean power active/group_size."""
    peak = float(np.max(np.abs(signal) ** 2))
    return 10.0 * math.log10(peak / cfg.mean_power)


def oversampled_idft(block: np.ndarray, factor: int) -> np.ndarray:
    """Unitary IDFT on a zero-padded spectrum (factor >= 1, integer).

    Indices at or above n_fft/2 are treated as negative frequencies, so the
    result interpolates the Nyquist-rate signal. factor == 1 returns idft().
    """
    factor = _as_int("oversampling factor", factor, 1)
    block = np.asarray(block)
    if factor == 1:
        return idft(block)
    n = block.shape[-1]
    half = n // 2
    padded = np.zeros(block.shape[:-1] + (n * factor,), dtype=complex)
    padded[..., :half] = block[..., :half]
    padded[..., n * factor - (n - half) :] = block[..., half:]
    return np.fft.ifft(padded, axis=-1) * factor * math.sqrt(n)


# ---------------------------------------------------------------------------
# correlation profile of one activation pattern

def rho_profile(sap, cfg: SystemConfig) -> np.ndarray:
    """Correlation coefficients rho(m), m = 0..N-1, for one activation pattern.

    ``sap`` may be a Sap or any non-empty collection of distinct active
    indices in 0..N-1; rho(0) is 1 by construction.
    """
    active = _active_indices(sap, cfg.n_fft)
    if active.size == 0:
        raise ValueError("rho needs at least one active index")
    alpha = np.zeros(cfg.n_fft)
    alpha[active] = 1.0
    # numpy fft applies exp(-j*2*pi*i*m/N), exactly the sign wanted here
    return np.fft.fft(alpha) / active.size


# ---------------------------------------------------------------------------
# covariance between two alternative signals

@dataclass(frozen=True)
class CovarianceCheck:
    """Empirical vs analytic covariance of x_1(l) and x_2(m) for a fixed pattern."""

    empirical: complex
    analytic: complex
    stderr: float


def cov_alt_signals(
    sap: Sap,
    constellation,
    pss: PhaseSequenceSet,
    perms: PermutationSet,
    l: int,
    m: int,
    cfg: SystemConfig,
    trials: int,
    rng: np.random.Generator,
) -> CovarianceCheck:
    """Covariance between branch-1 sample l and branch-2 sample m.

    Random unit-power symbols are drawn on the fixed activation pattern;
    the analytic value is (1/N) sum_{i in I} P1(d1(i)) P2*(d2(i))
    exp(j*2*pi*(d1(i)l - d2(i)m)/N). Both samples have period N, so l and
    m are taken mod N; any integer sample index is valid.
    """
    if pss.u < 2 or perms.u < 2:
        raise ValueError("need two candidates (u = 1, 2)")
    N = cfg.n_fft
    if pss.n_fft != N or perms.perms.shape[1] != N:
        raise ValueError(
            f"pss rows of length {pss.n_fft} and perms rows of length {perms.perms.shape[1]} must be n_fft={N} long"
        )
    l, m, trials = _as_int("l", l) % N, _as_int("m", m) % N, _as_int("trials", trials, 1)
    active = _active_indices(sap, N)
    p1, p2 = pss.sequences[0], pss.sequences[1]
    d1, d2 = np.asarray(perms.perms[0]), np.asarray(perms.perms[1])

    analytic = complex(
        np.sum(
            p1[d1[active]]
            * np.conj(p2[d2[active]])
            * np.exp(2j * np.pi * (d1[active] * l - d2[active] * m) / N)
        )
        / N
    )

    # x_u at one sample only: x_u(t) = sum_{i in I} P_u(d_u(i)) X(i) e^{j2pi d_u(i) t/N}/sqrt(N)
    coeff1 = p1[d1[active]] * np.exp(2j * np.pi * d1[active] * l / N) / np.sqrt(N)
    coeff2 = p2[d2[active]] * np.exp(2j * np.pi * d2[active] * m / N) / np.sqrt(N)
    idx = rng.integers(0, constellation.order, size=(trials, active.size))
    symbols = constellation.symbols[idx]
    x1 = symbols @ coeff1
    x2 = symbols @ coeff2
    products = x1 * np.conj(x2)
    empirical = complex(np.mean(products) - np.mean(x1) * np.conj(np.mean(x2)))
    stderr = float(np.sqrt(np.mean(np.abs(products - np.mean(products)) ** 2) / trials))
    return CovarianceCheck(empirical=empirical, analytic=analytic, stderr=stderr)
