"""OFDM-IM block construction, unitary transform, and PAPR.

Conventions:
- A frequency block and a time signal are plain complex ndarrays of length
  ``n_fft``; no wrapper types.
- Groups are interleaved: subcarrier ``G*r + g`` is row ``r`` of group ``g``
  (``G`` = number of groups).
- The IDFT is unitary, x(m) = (1/sqrt(N)) * sum_i X(i) exp(j*2*pi*i*m/N),
  so Parseval holds exactly.
- PAPR is referenced to the ensemble mean power ``active/group_size``
  (not the per-block mean) and is returned in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class SystemConfig:
    """Validated OFDM-IM parameter tuple.

    n_fft:      total subcarrier count (power of two)
    group_size: subcarriers per group; n_fft must be a multiple
    active:     active subcarriers per group, 1 <= active < group_size
    mod_order:  constellation order, power of two >= 2
    """

    n_fft: int
    group_size: int
    active: int
    mod_order: int

    def __post_init__(self):
        N, n, k, M = self.n_fft, self.group_size, self.active, self.mod_order
        if N < 2 or N & (N - 1):
            raise ValueError(f"n_fft must be a power of two >= 2, got {N}")
        if n < 2 or N % n:
            raise ValueError(f"group_size must divide n_fft, got {n} for n_fft={N}")
        if not 1 <= k < n:
            raise ValueError(f"active must satisfy 1 <= active < group_size, got {k}")
        if M < 2 or M & (M - 1):
            raise ValueError(f"mod_order must be a power of two >= 2, got {M}")

    @property
    def num_groups(self) -> int:
        return self.n_fft // self.group_size

    @property
    def total_active(self) -> int:
        return self.active * self.num_groups

    @cached_property
    def index_bits(self) -> int:
        # floor(log2 C(n, k)) bits selected by the activation pattern
        return math.comb(self.group_size, self.active).bit_length() - 1

    @cached_property
    def symbol_bits(self) -> int:
        return self.active * (self.mod_order.bit_length() - 1)

    @cached_property
    def bits_per_group(self) -> int:
        return self.index_bits + self.symbol_bits

    @cached_property
    def _word_fields(self) -> tuple:
        """(rank mask, symbol mask, rank shifts, symbol shifts) that read a
        block's bits as one integer, MSB first.

        Group g's word is bits_per_group bits, g = 0 in the top bits: its
        pattern rank, then k symbol indices in row order. One rank shift per
        group and k symbol shifts per group, in group order. The last group's
        word is the lowest, so the last entries read a single group's word.
        """
        G, p, k = self.num_groups, self.bits_per_group, self.active
        bps = self.mod_order.bit_length() - 1
        low = [p * (G - 1 - g) for g in range(G)]
        return (
            (1 << self.index_bits) - 1,
            self.mod_order - 1,
            tuple(b + self.symbol_bits for b in low),
            tuple(b + bps * i for b in low for i in range(k - 1, -1, -1)),
        )

    @property
    def mean_power(self) -> float:
        # ensemble mean of |x(m)|^2 for a unit-power constellation
        return self.active / self.group_size


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power symbol set."""

    symbols: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.symbols, dtype=complex)
        object.__setattr__(self, "symbols", s)
        if s.ndim != 1 or len(s) < 2 or len(s) & (len(s) - 1):
            raise ValueError("constellation size must be a power of two >= 2")
        if abs(np.mean(np.abs(s) ** 2) - 1.0) > 1e-12:
            raise ValueError("constellation average power must be 1")

    @property
    def order(self) -> int:
        return len(self.symbols)

    @classmethod
    def psk(cls, order: int) -> "Constellation":
        """Unit-modulus PSK set; order 4 is the standard QPSK grid (+-1+-j)/sqrt(2)."""
        offset = np.pi / 4 if order == 4 else 0.0
        return cls(np.exp(1j * (offset + 2 * np.pi * np.arange(order) / order)))


@dataclass(frozen=True)
class GroupSap:
    """Sorted k-subset of rows {0..group_size-1} active within one group."""

    rows: tuple

    def __post_init__(self):
        given = tuple(self.rows)
        try:
            rows = tuple(int(r) for r in given)
        except (OverflowError, ValueError):  # an entry with no integer value: inf, NaN, "a"
            rows = None
        # an entry such as 0.5 or "1" differs from its integer value
        if rows != given or sorted(set(rows)) != list(rows) or (rows and rows[0] < 0):
            raise ValueError(f"rows must be sorted, distinct, nonnegative integers: {given}")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class Sap:
    """Block-level activation pattern: per-group subsets plus the flat index set."""

    groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

    @cached_property
    def active(self) -> tuple:
        """Sorted flat indices G*r + g of the active rows, built on first read.

        No index can repeat: each GroupSap's rows are distinct, and G*r + g is
        one-to-one for 0 <= g < G.
        """
        G = len(self.groups)
        return tuple(sorted(G * r + g for g, gs in enumerate(self.groups) for r in gs.rows))

    def __hash__(self):
        # the hash of the (groups, active) pair, as when active was a field
        return hash((self.groups, self.active))

    def check(self, cfg: SystemConfig) -> "Sap":
        if len(self.groups) != cfg.num_groups:
            raise ValueError(f"expected {cfg.num_groups} groups, got {len(self.groups)}")
        for gs in self.groups:
            if len(gs.rows) != cfg.active or any(r >= cfg.group_size for r in gs.rows):
                raise ValueError(f"group rows out of range for cfg: {gs.rows}")
        return self

    def active_array(self) -> np.ndarray:
        return np.array(self.active, dtype=np.intp)


# ---------------------------------------------------------------------------
# combinadic (lexicographic k-subset ranking)

def subset_unrank(rank: int, n: int, k: int) -> tuple:
    """k-subset of {0..n-1} with lexicographic rank ``rank`` (rank 0 -> {0..k-1})."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    out = []
    x = 0
    for remaining in range(k, 0, -1):
        c = math.comb(n - x - 1, remaining - 1)
        while rank >= c:
            rank -= c
            x += 1
            c = math.comb(n - x - 1, remaining - 1)
        out.append(x)
        x += 1
    return tuple(out)


def subset_rank(rows, n: int) -> int:
    """Inverse of subset_unrank for a sorted subset of {0..n-1}."""
    rows = tuple(rows)
    k = len(rows)
    rank = 0
    prev = -1
    for j, c_j in enumerate(rows):
        for x in range(prev + 1, c_j):
            rank += math.comb(n - x - 1, k - j - 1)
        prev = c_j
    return rank


# ---------------------------------------------------------------------------
# bit mapping and block assembly

# bytes 0/1 -> the characters "0"/"1", for int(..., 2)
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_to_int(bits: list) -> int:
    """The bits as one integer, MSB first; ValueError unless each bit is 0 or 1.

    Lists of ints pass in one C-level pass; other entries equal to 0 or 1
    (``1.0``, ``np.True_``) are accepted too, as ``b in (0, 1)`` accepts them.
    """
    try:
        raw = bytes(bits)
    except (TypeError, ValueError):
        raw = None
    # a byte left after deleting every 0 and 1 byte is not a bit
    if raw is None or raw.translate(None, b"\x00\x01"):
        if not all(b in (0, 1) for b in bits):
            raise ValueError("bits must be 0/1")
        raw = bytes(int(b) for b in bits)
    return int(raw.translate(_BIT_CHARS), 2)


@lru_cache(maxsize=1024)
def _group_sap(rank: int, n: int, k: int) -> GroupSap:
    """GroupSap of subset rank ``rank``; GroupSap is immutable, so one is shared."""
    return GroupSap(subset_unrank(rank, n, k))


def _decode_words(word: int, cfg: SystemConfig, groups: int):
    """GroupSaps and symbol indices of the last ``groups`` group words in ``word``.

    The symbol indices come as one list, k per group in group order and, within
    a group, in row order. groups == cfg.num_groups decodes a whole block.
    """
    rank_mask, symbol_mask, rank_at, symbol_at = cfg._word_fields
    n, k = cfg.group_size, cfg.active
    gsaps = [_group_sap((word >> at) & rank_mask, n, k) for at in rank_at[-groups:]]
    return gsaps, [(word >> at) & symbol_mask for at in symbol_at[-groups * k :]]


def map_bits_to_group(bits, cfg: SystemConfig, cs: Constellation):
    """Map one p-bit word to (GroupSap, active-row symbols).

    The first index_bits select the row subset by lexicographic unranking;
    the remaining symbol_bits select one constellation point per active row,
    in row order, MSB first.
    """
    bits = list(bits)
    if len(bits) != cfg.bits_per_group:
        raise ValueError(f"expected {cfg.bits_per_group} bits, got {len(bits)}")
    if cs.order != cfg.mod_order:
        raise ValueError("constellation order does not match cfg.mod_order")
    gsaps, symbols = _decode_words(_bits_to_int(bits), cfg, 1)
    return gsaps[0], cs.symbols[symbols]


# values per in-place shuffle call of draw_active_positions: one 512 KiB buffer
_SHUFFLE_VALUES = 1 << 16


def draw_active_positions(cfg: SystemConfig, trials: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, K) active subcarrier indices, uniform over all C(n,k)^G patterns.

    Columns run group by group, sorted rows within each group; group g draws
    one row-wise shuffle of all trials before group g+1. The shuffles run in
    place in one buffer of about _SHUFFLE_VALUES values: several groups'
    rows, group-major, share one call when trials is small, and one group's
    rows go through several calls when trials is large. ``rng.permuted``
    shuffles rows in order, so either is the stream of one call per group.
    """
    n, k, G = cfg.group_size, cfg.active, cfg.num_groups
    rows_per_call = max(1, _SHUFFLE_VALUES // n)
    per_call = min(G, max(1, rows_per_call // max(trials, 1)))  # groups per call
    step = max(1, min(trials, rows_per_call))  # trials per call
    out = np.empty((trials, G, k), dtype=np.intp)
    buf = np.empty((per_call * step, n), dtype=np.intp)
    for g0 in range(0, G, per_call):
        gc = min(per_call, G - g0)
        for s in range(0, trials, step):
            t = min(step, trials - s)  # gc > 1 only when t == trials
            rows = buf[: gc * t]
            rows[...] = np.arange(n)
            rng.permuted(rows, axis=1, out=rows)
            picks = np.sort(rows[:, :k], axis=1).reshape(gc, t, k).transpose(1, 0, 2)
            dest = out[s : s + t, g0 : g0 + gc]
            np.multiply(picks, G, out=dest)
            dest += np.arange(g0, g0 + gc)[:, None]
    return out.reshape(trials, G * k)


def sample_random_sap(cfg: SystemConfig, rng: np.random.Generator) -> Sap:
    """One uniform activation pattern (the analysis assumption), as a Sap.

    Group by group, the sorted first k entries of one shuffle of 0..n-1: the
    same draws as one trial of ``draw_active_positions``.
    """
    rows = np.arange(cfg.group_size)
    return Sap(tuple(GroupSap(sorted(rng.permuted(rows)[: cfg.active].tolist())) for _ in range(cfg.num_groups)))


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


def block_from_bits(bits, cfg: SystemConfig, cs: Constellation):
    """Map G*bits_per_group bits to a full block: one word per group, in group order.

    Same block and Sap as ``assemble_block`` over ``map_bits_to_group`` of each
    word, in one pass: the bits are checked and read once, and each symbol is
    written straight into the block.
    """
    bits = list(bits)
    G, p = cfg.num_groups, cfg.bits_per_group
    if len(bits) != p * G:
        raise ValueError(f"expected {p * G} bits, got {len(bits)}")
    if cs.order != cfg.mod_order:
        raise ValueError("constellation order does not match cfg.mod_order")
    gsaps, symbols = _decode_words(_bits_to_int(bits), cfg, G)
    points = cs.symbols.tolist()
    block = np.zeros(cfg.n_fft, dtype=complex)
    symbols = iter(symbols)
    for g, gsap in enumerate(gsaps):
        for r in gsap.rows:
            block[G * r + g] = points[next(symbols)]
    # each memoised GroupSap has k rows below n, so Sap.check would pass
    return block, Sap(tuple(gsaps))


# ---------------------------------------------------------------------------
# transform and PAPR

def idft(block: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT; numpy's ifft carries 1/N, so rescale by sqrt(N)."""
    block = np.asarray(block)
    n = block.shape[-1]
    return np.fft.ifft(block, axis=-1) * math.sqrt(n)


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
    if factor < 1 or int(factor) != factor:
        raise ValueError("oversampling factor must be a positive integer")
    block = np.asarray(block)
    if factor == 1:
        return idft(block)
    n = block.shape[-1]
    half = n // 2
    padded = np.zeros(block.shape[:-1] + (n * factor,), dtype=complex)
    padded[..., :half] = block[..., :half]
    padded[..., n * factor - (n - half) :] = block[..., half:]
    return np.fft.ifft(padded, axis=-1) * factor * math.sqrt(n)
