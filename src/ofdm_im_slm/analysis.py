"""Closed-form and empirical diagnostics for activation patterns, phase
sequences, and permutation pairs.

rho(m) is the lag-m correlation coefficient of the time-domain signal,
determined entirely by the activation pattern:
    rho(m) = (1/|I|) * sum_{i in I} exp(-j*2*pi*i*m/N).
Its variance over uniform random patterns has the closed form implemented
in var_rho_closed_form. The variance of a complex quantity is defined as
E|z|^2 - |Ez|^2 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Sap, SystemConfig, _as_indices, _as_int, _shuffled_picks
from .slm import PermutationSet, _permutation_rows


def _active_indices(sap, n: int) -> np.ndarray:
    """Sorted indices of a Sap or of a collection of distinct active indices in 0..n-1."""
    return np.asarray(sorted(_as_indices("sap", sap.active if isinstance(sap, Sap) else sap, n)), dtype=np.intp)


def var_rho_closed_form(cfg: SystemConfig, m: int) -> float:
    """Variance of rho(m) over uniform activation patterns.

    (1/N) * (n/(n-1)) * (n/k - 1) off the zero lags; exactly 0 when
    m = 0 mod n because every group contributes the constant k there.
    """
    n, k, m = cfg.group_size, cfg.active, _as_int("m", m)
    if m % n == 0:
        return 0.0
    return (1.0 / cfg.n_fft) * (n / (n - 1.0)) * (n / k - 1.0)


def var_rho_empirical(cfg: SystemConfig, m: int, trials: int, rng: np.random.Generator) -> float:
    """Sample variance E|rho|^2 - |E rho|^2 of rho(m) over uniform pattern draws.

    rho(m) has period N in m, so any integer lag is valid. The value is lag
    m mod N of ``var_rho_empirical_profile`` over one chunk of ``trials``
    patterns: one ``_shuffled_picks`` draw, the stream of
    ``draw_active_positions(cfg, trials, rng)``.
    """
    m, trials = _as_int("m", m), _as_int("trials", trials, 1)
    return float(var_rho_empirical_profile(cfg, trials, rng, chunk=trials)[m % cfg.n_fft])


# patterns per chunk of var_rho_empirical_profile: the draw of one chunk is one
# _shuffled_picks call, so the chunk size is part of the stream
VAR_RHO_CHUNK = 20000
# complex values (512 KiB) per tile that a chunk's patterns are transformed in;
# the sums add row by row, so the tile size changes no output bit
_VAR_RHO_TILE = 1 << 15


def var_rho_empirical_profile(
    cfg: SystemConfig, trials: int, rng: np.random.Generator, chunk: int = VAR_RHO_CHUNK
) -> np.ndarray:
    """Empirical variance of rho(m) for every lag m at once (chunked FFT).

    Each chunk's patterns are one ``_shuffled_picks`` draw, the stream of
    ``draw_active_positions`` without its sort: a tile scatters 1.0 at
    each active index, which gives the same array in any column order, so
    the profile is the one of the sorted draw, bit for bit. The patterns
    go through tiles of about _VAR_RHO_TILE values.
    Row 0 of both tile buffers carries the chunk's running sums, so each
    sum over [carry, tile rows] adds row by row, in the order of one sum
    over the whole chunk.

    The draws go through a one-worker ThreadPoolExecutor of the call: the
    draw of chunk c+1 is submitted before chunk c is transformed, and every
    chunk, the first and the only one included, is drawn on its thread.
    ``rng.permuted`` releases the GIL, so a draw runs beside the transform,
    which holds it. ``rng`` is thus used from that helper thread during the
    call, and the caller must not draw from it until the call ends. The
    chunks, their draw calls and their order are those of a serial loop, so
    the stream, the final generator state and every output bit are the same.
    The executor is shut down before the call returns or raises, Ctrl-C
    included: a draw not yet started is cancelled, the helper is joined, and
    an exception of either stage reaches the caller as it was raised. One
    thread per call, not one per chunk: a thread that starts before the last
    one has ended takes a malloc arena of its own, which RSS keeps.

    The 1/K scale multiplies the float view by fl(1/K), which is what
    numpy's division of a complex array by a real K computes, at a fraction
    of its cost; a float ``/ K`` would differ in the last bit when K is not
    a power of two.
    """
    trials, chunk, N = _as_int("trials", trials, 1), _as_int("chunk", chunk, 1), cfg.n_fft
    tile = min(max(1, _VAR_RHO_TILE // N), chunk, trials)
    rho = np.empty((tile + 1, N), dtype=complex)
    abs2 = np.empty((tile + 1, N))
    flat, re_im = rho.reshape(-1), rho.view(float)
    # flat index of column 0 of tile row i, which is buffer row i + 1
    row_start = np.arange(N, (tile + 1) * N, N)[:, None]
    scale = 1.0 / cfg.total_active
    acc_abs2 = np.zeros(N)
    acc_mean = np.zeros(N, dtype=complex)
    # imported here, as run_ccdf imports multiprocessing, so that importing the package does not load it
    from concurrent.futures import ThreadPoolExecutor

    draw = ThreadPoolExecutor(max_workers=1, thread_name_prefix="var-rho-draw")
    try:
        ahead = draw.submit(_shuffled_picks, cfg, min(chunk, trials), rng)
        for drawn in range(chunk, trials + chunk, chunk):
            pos = ahead.result().reshape(-1, cfg.total_active)
            if drawn < trials:  # the next chunk is drawn while this one is transformed
                ahead = draw.submit(_shuffled_picks, cfg, min(chunk, trials - drawn), rng)
            b = len(pos)
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
            del pos  # at most two chunks are held: this one and the one drawn ahead
    finally:
        draw.shutdown(wait=True, cancel_futures=True)
    return acc_abs2 / trials - np.abs(acc_mean / trials) ** 2


# ---------------------------------------------------------------------------
# phase-sequence cross-correlation spectra

@dataclass(frozen=True)
class PssSpectrum:
    """Cross-correlation magnitudes of a phase-sequence pair.

    ``magnitudes[m]`` is (1/N)|sum_{i in S} P1(i) P2*(i) exp(j*2*pi*i*m/N)|
    over the requested index set S (all indices, or the punctured active
    set); ``c`` is the maximum of the full-length spectrum, the constant of
    the covariance upper bound c + 1 - k/n.
    """

    magnitudes: np.ndarray
    c: float
    punctured: bool


def punctured_spectrum(p1: np.ndarray, p2: np.ndarray, sap=None) -> PssSpectrum:
    """Spectrum of p1 (x) p2* restricted to ``sap`` (None = all indices)."""
    p1 = np.asarray(p1, dtype=complex)
    p2 = np.asarray(p2, dtype=complex)
    if p1.ndim != 1 or p1.shape != p2.shape:
        raise ValueError(f"phase sequences of shapes {p1.shape} and {p2.shape} must be two rows of equal length")
    q = p1 * np.conj(p2)
    full = np.abs(np.fft.ifft(q))
    c = float(np.max(full))
    if sap is None:
        return PssSpectrum(full, c=c, punctured=False)
    active = _active_indices(sap, len(p1))
    masked = np.zeros_like(q)
    masked[active] = q[active]
    return PssSpectrum(np.abs(np.fft.ifft(masked)), c=c, punctured=True)


def spectrum_bound(cfg: SystemConfig, c: float) -> float:
    """Upper bound c + 1 - k/n on any punctured cross-correlation magnitude."""
    return c + 1.0 - cfg.active / cfg.group_size


# ---------------------------------------------------------------------------
# permutation-pair quality

@dataclass(frozen=True)
class MuReport:
    """Variance of the N x N envelope-magnitude grid of a permutation pair."""

    mu: float
    grid_shape: tuple


def mu_metric(d1: np.ndarray, d2: np.ndarray, cfg: SystemConfig) -> MuReport:
    """Quality metric for a permutation pair; lower is better.

    Builds the magnitude |sum_i' exp(j*2*pi*(i'*m - e(i')*l)/N)| for every
    (l, m), where e = d1 o d2^{-1}, and returns the population variance of
    the N^2 values. Identity pairs give exactly N - 1 (grid is N on the
    diagonal, 0 elsewhere). d1 and d2 must be permutations of 0..N-1.
    """
    N, d1, d2 = cfg.n_fft, np.asarray(d1), np.asarray(d2)
    if d1.shape != (N,) or d2.shape != (N,):
        raise ValueError(f"d1 of shape {d1.shape} and d2 of shape {d2.shape} must each be one row of n_fft={N}")
    d1, d2 = _permutation_rows("d1", d1), _permutation_rows("d2", d2)
    e = d1[np.argsort(d2)]
    phase = np.exp(-2j * np.pi * np.outer(np.arange(N), e) / N)  # rows: l
    grid = np.abs(np.fft.ifft(phase, axis=1)) * N
    return MuReport(mu=float(np.var(grid)), grid_shape=grid.shape)


def mu_metric_set(perms: PermutationSet, cfg: SystemConfig) -> float:
    """Mean of mu_metric over all unordered pairs of the set (needs U >= 2)."""
    if perms.u < 2:
        raise ValueError("need at least two permutations")
    values = [
        mu_metric(perms.perms[u], perms.perms[v], cfg).mu
        for u in range(perms.u)
        for v in range(u + 1, perms.u)
    ]
    return float(np.mean(values))
