"""Reference implementations that the tests check the package against.

None of these is used by the library, the CLI or the benchmark: each is a
plain, direct statement of a rule that the package implements in a faster
or fused form (block placement, permutation, curve comparison, the serial
var_rho profile).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ofdm_im_slm import CcdfCurve, GroupSap, Sap, SystemConfig, analysis, papr_at_ccdf
from ofdm_im_slm.core import _shuffled_picks


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
