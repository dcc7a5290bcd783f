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

from .core import Sap, SystemConfig, draw_active_positions
from .slm import PermutationSet, PhaseSequenceSet


def _active_indices(sap, n: int) -> np.ndarray:
    """Sorted indices of a Sap or of a collection of active indices in 0..n-1.

    An entry that repeats, lies outside 0..n-1 or differs from its integer
    value (2.5, "2") raises ValueError.
    """
    given = tuple(sap.active if isinstance(sap, Sap) else sap)
    try:
        active = tuple(int(i) for i in given)
    except (OverflowError, TypeError, ValueError):  # an entry with no integer value: inf, NaN, "a"
        active = None
    if active != given or len(set(active)) != len(active) or not all(0 <= i < n for i in active):
        raise ValueError(f"active indices must be distinct integer values in 0..{n - 1}")
    return np.asarray(sorted(active), dtype=np.intp)


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


def var_rho_closed_form(cfg: SystemConfig, m: int) -> float:
    """Variance of rho(m) over uniform activation patterns.

    (1/N) * (n/(n-1)) * (n/k - 1) off the zero lags; exactly 0 when
    m = 0 mod n because every group contributes the constant k there.
    """
    n, k = cfg.group_size, cfg.active
    if m % n == 0:
        return 0.0
    return (1.0 / cfg.n_fft) * (n / (n - 1.0)) * (n / k - 1.0)


def var_rho_empirical(cfg: SystemConfig, m: int, trials: int, rng: np.random.Generator) -> float:
    """Sample variance E|rho|^2 - |E rho|^2 of rho(m) over uniform pattern draws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pos = draw_active_positions(cfg, trials, rng)
    w = np.exp(-2j * np.pi * m * np.arange(cfg.n_fft) / cfg.n_fft)
    rho = w[pos].sum(axis=1) / cfg.total_active
    return float(np.mean(np.abs(rho) ** 2) - np.abs(np.mean(rho)) ** 2)


# patterns per chunk of var_rho_empirical_profile: the draw of one chunk is one
# draw_active_positions call, so the chunk size is part of the stream
VAR_RHO_CHUNK = 20000
# complex values (512 KiB) per tile that a chunk's patterns are transformed in;
# the sums add row by row, so the tile size changes no output bit
_VAR_RHO_TILE = 1 << 15


def var_rho_empirical_profile(
    cfg: SystemConfig, trials: int, rng: np.random.Generator, chunk: int = VAR_RHO_CHUNK
) -> np.ndarray:
    """Empirical variance of rho(m) for every lag m at once (chunked FFT).

    Each chunk's patterns go through tiles of about _VAR_RHO_TILE values.
    Row 0 of both tile buffers carries the chunk's running sums, so each
    sum over [carry, tile rows] adds row by row, in the order of one sum
    over the whole chunk.

    The 1/K scale multiplies the float view by fl(1/K), which is what
    numpy's division of a complex array by a real K computes, at a fraction
    of its cost; a float ``/ K`` would differ in the last bit when K is not
    a power of two.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    N = cfg.n_fft
    tile = min(max(1, _VAR_RHO_TILE // N), chunk, trials)
    rho = np.empty((tile + 1, N), dtype=complex)
    abs2 = np.empty((tile + 1, N))
    flat, re_im = rho.reshape(-1), rho.view(float)
    # flat index of column 0 of tile row i, which is buffer row i + 1
    row_start = np.arange(N, (tile + 1) * N, N)[:, None]
    scale = 1.0 / cfg.total_active
    acc_abs2 = np.zeros(N)
    acc_mean = np.zeros(N, dtype=complex)
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        pos = draw_active_positions(cfg, b, rng)
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
        del pos  # before the next chunk is drawn
        done += b
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
    if p1.shape != p2.shape:
        raise ValueError("phase sequences must have equal length")
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
    diagonal, 0 elsewhere).
    """
    N = cfg.n_fft
    e = np.asarray(d1)[np.argsort(np.asarray(d2))]
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
    exp(j*2*pi*(d1(i)l - d2(i)m)/N).
    """
    if pss.u < 2 or perms.u < 2:
        raise ValueError("need two candidates (u = 1, 2)")
    N = cfg.n_fft
    active = sap.active_array()
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
