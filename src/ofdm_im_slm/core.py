"""OFDM-IM block construction and the unitary transform.

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
import numbers
import operator
import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


def _as_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int: the one check of every count, index and lag
    that the public API takes.

    Python and numpy integers pass and come back as ``int``, so a stored
    field writes the same JSON and CSV bytes whatever integer type it was
    given. A bool, a float (``2.0`` too), a string or None raises one
    ValueError that names the argument, and so does a value below
    ``minimum``.
    """
    try:
        # operator.index takes a bool as an integer; a count never is one
        out = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        out = None
    if out is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and out < minimum:
        raise ValueError(f"{name} must be >= {minimum}: {out} is not at least {minimum}")
    return out


def _as_index(value) -> int | None:
    """``value`` as an int if it is a real number equal to one, else None."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return None
    try:
        out = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        return None
    return out if out == value else None


def _shown(value) -> str:
    """``value`` shortened to one short line for a refusal message."""
    return " ".join(reprlib.repr(value).split())


def _as_indices(name: str, values, n: int | None = None) -> tuple:
    """``values`` as a tuple of distinct Python ints, each >= 0 and, when ``n``
    is given, below ``n``: the one check of every collection of indices that
    the public API takes.

    An entry equal to its integer value passes (``1.0``, ``np.int64(3)``).
    A bool, an entry with no integer value (0.5, ``"1"``, NaN, inf, None, a
    list, a complex), a repeat or an entry out of range raises one
    ValueError that names the collection, and so does a value that is no
    collection.
    """
    try:
        given = tuple(values)
    except TypeError:  # no collection: refused as one entry that is no index
        given = (None,)
    out = tuple(map(_as_index, given))
    if None in out or len(set(out)) != len(out) or (out and (min(out) < 0 or (n is not None and max(out) >= n))):
        bound = "nonnegative integers" if n is None else f"integer values in 0..{n - 1}"
        raise ValueError(f"{name} must be distinct {bound}, got {_shown(values)}")
    return out


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
        for name in ("n_fft", "group_size", "active", "mod_order"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
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
        group and k symbol shifts per group, in group order.
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
        order = _as_int("order", order)
        offset = np.pi / 4 if order == 4 else 0.0
        return cls(np.exp(1j * (offset + 2 * np.pi * np.arange(order) / order)))


@dataclass(frozen=True)
class GroupSap:
    """Sorted k-subset of rows {0..group_size-1} active within one group."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", _sorted_rows(self.rows))


def _sorted_rows(rows, n: int | None = None) -> tuple:
    """``rows`` as a sorted tuple of distinct indices (below ``n`` if given)."""
    rows = _as_indices("rows", rows, n)
    if list(rows) != sorted(rows):
        raise ValueError(f"rows must be sorted, got {_shown(rows)}")
    return rows


@dataclass(frozen=True)
class Sap:
    """Block-level activation pattern: per-group subsets plus the flat index set."""

    groups: tuple

    def __post_init__(self):
        try:
            groups = tuple(self.groups)
        except TypeError:
            raise ValueError(f"groups must be a collection of row subsets, got {_shown(self.groups)}") from None
        # a group given as plain rows has them checked by GroupSap; when all
        # are GroupSaps, as in every Sap of block_from_bits, the loop costs
        # one type test a group and builds no second tuple
        for g in groups:
            if not isinstance(g, GroupSap):
                groups = tuple(x if isinstance(x, GroupSap) else GroupSap(x) for x in groups)
                break
        object.__setattr__(self, "groups", groups)

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


def sap_from_json(doc: dict, cfg: SystemConfig) -> Sap:
    """The Sap of a SAP document, ``{"groups": [[row, ...], ...]}``, checked against ``cfg``."""
    return Sap(doc["groups"]).check(cfg)


# ---------------------------------------------------------------------------
# combinadic (lexicographic k-subset ranking)

def subset_unrank(rank: int, n: int, k: int) -> tuple:
    """k-subset of {0..n-1} with lexicographic rank ``rank`` (rank 0 -> {0..k-1})."""
    rank, n, k = _as_int("rank", rank), _as_int("n", n), _as_int("k", k)
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
    n = _as_int("n", n)
    rows = _sorted_rows(rows, n)
    k = len(rows)
    rank = 0
    prev = -1
    for j, c_j in enumerate(rows):
        for x in range(prev + 1, c_j):
            rank += math.comb(n - x - 1, k - j - 1)
        prev = c_j
    return rank


# ---------------------------------------------------------------------------
# bit mapping

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


# values per in-place shuffle call of _shuffled_picks: one 512 KiB buffer
_SHUFFLE_VALUES = 1 << 16


def _shuffled_picks(cfg: SystemConfig, trials: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, G, k) int32 flat indices G*r + g of uniform activation patterns.

    Group g draws one row-wise shuffle of all trials before group g+1, and
    each row of ``[:, g]`` holds the first k entries r of its shuffle in
    the order the shuffle leaves them, not sorted. The shuffles run in
    place in one buffer of about _SHUFFLE_VALUES values, so one group's
    rows go through several calls when trials is large; ``rng.permuted``
    shuffles rows in order, so that is the stream of one call per group.
    The buffer stays ``intp``, on which ``rng.permuted`` runs faster; only
    the picks are written as int32, so an n_fft above 2^31, whose indices
    would wrap, is refused before anything is drawn or allocated.
    """
    trials = _as_int("trials", trials, 0)
    if cfg.n_fft > 1 << 31:
        raise ValueError(f"n_fft={cfg.n_fft} is above 2^31: its subcarrier indices do not fit in int32")
    n, k, G = cfg.group_size, cfg.active, cfg.num_groups
    step = max(1, min(trials, _SHUFFLE_VALUES // n))  # trials per call
    out = np.empty((trials, G, k), dtype=np.int32)
    buf = np.empty((step, n), dtype=np.intp)
    for g in range(G):
        for s in range(0, trials, step):
            rows = buf[: min(step, trials - s)]
            rows[...] = np.arange(n)
            rng.permuted(rows, axis=1, out=rows)
            # one contiguous intp array of flat indices, then one casting copy
            picks = rows[:, :k] * G
            picks += g
            out[s : s + len(rows), g] = picks
    return out


def draw_active_positions(cfg: SystemConfig, trials: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, K) int32 active subcarrier indices, uniform over all C(n,k)^G patterns.

    Columns run group by group, sorted within each group: ``_shuffled_picks``
    with each group's k picks sorted in place. The sort draws nothing, so
    the stream and the generator state are those of ``_shuffled_picks``.
    A caller that reads only the set of active indices, such as a scatter
    of ones, can take ``_shuffled_picks`` and skip the sort; a caller that
    pairs columns with other values or adds them in column order needs it.
    """
    out = _shuffled_picks(cfg, trials, rng)
    out.sort(axis=-1)
    return out.reshape(len(out), cfg.total_active)


def sample_random_sap(cfg: SystemConfig, rng: np.random.Generator) -> Sap:
    """One uniform activation pattern (the analysis assumption), as a Sap.

    Group by group, the sorted first k entries of one shuffle of 0..n-1: the
    same draws as one trial of ``draw_active_positions``.
    """
    rows = np.arange(cfg.group_size)
    return Sap(tuple(GroupSap(sorted(rng.permuted(rows)[: cfg.active].tolist())) for _ in range(cfg.num_groups)))


def block_from_bits(bits, cfg: SystemConfig, cs: Constellation):
    """Map G*bits_per_group bits to a block and its Sap: one word per group, in group order.

    A group's first index_bits select its row subset by lexicographic
    unranking; the remaining symbol_bits select one constellation point per
    active row, in row order, MSB first. Group g's symbol at row r goes to
    subcarrier G*r + g. The bits are checked and read as one integer.
    """
    bits = list(bits)
    G, n, k = cfg.num_groups, cfg.group_size, cfg.active
    if len(bits) != cfg.bits_per_group * G:
        raise ValueError(f"expected {cfg.bits_per_group * G} bits, got {len(bits)}")
    if cs.order != cfg.mod_order:
        raise ValueError("constellation order does not match cfg.mod_order")
    word = _bits_to_int(bits)
    rank_mask, symbol_mask, rank_at, symbol_at = cfg._word_fields
    gsaps = [_group_sap((word >> at) & rank_mask, n, k) for at in rank_at]
    points = cs.symbols.tolist()
    block = np.zeros(cfg.n_fft, dtype=complex)
    symbols = iter([(word >> at) & symbol_mask for at in symbol_at])
    for g, gsap in enumerate(gsaps):
        for r in gsap.rows:
            block[G * r + g] = points[next(symbols)]
    # each memoised GroupSap has k rows below n, so Sap.check would pass
    return block, Sap(tuple(gsaps))


# ---------------------------------------------------------------------------
# transform

def idft(block: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT; numpy's ifft carries 1/N, so rescale by sqrt(N)."""
    block = np.asarray(block)
    n = block.shape[-1]
    return np.fft.ifft(block, axis=-1) * math.sqrt(n)
