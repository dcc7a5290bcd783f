"""Phase-sequence sets, per-group permutations, and the SLM selector.

A phase sequence is a unit-modulus complex ndarray of length n_fft; a
permutation is an int ndarray d with out[d[i]] = in[i]. Permutations must
map each residue class mod G onto itself (permutation stays inside each
interleaved group), which together with bijectivity is equivalent to
d[i] % G == i % G for all i.

Generators take an explicit numpy Generator; everything after generation
is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SystemConfig, _as_int

# Feedback polynomials x^m + ... + 1 known to generate maximal-length
# sequences, given as exponent tuples. Each entry is re-verified at
# generation time by the exact-period check.
PRIMITIVE_POLYS = {
    3: (3, 1, 0),
    4: (4, 1, 0),
    5: (5, 2, 0),
    6: (6, 1, 0),
    7: (7, 3, 0),
    8: (8, 4, 3, 2, 0),
    9: (9, 4, 0),
    10: (10, 3, 0),
}
# n_fft range of the cyclic Hadamard PSS: one built-in polynomial per degree.
# No more are added, as the matrix is built N x N (512 MB at N = 8192).
HADAMARD_N_FFT = (1 << min(PRIMITIVE_POLYS), 1 << max(PRIMITIVE_POLYS))


@dataclass(frozen=True)
class MlsSpec:
    """LFSR description: degree and feedback polynomial exponents (incl. degree and 0)."""

    degree: int
    taps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "degree", _as_int("degree", self.degree))
        taps = tuple(self.taps) if self.taps else PRIMITIVE_POLYS.get(self.degree)
        if taps is None:
            raise ValueError(f"no built-in polynomial for degree {self.degree}; pass taps")
        if self.degree < 2 or max(taps) != self.degree or 0 not in taps:
            raise ValueError(f"taps must span x^{self.degree} .. x^0, got {taps}")
        object.__setattr__(self, "taps", tuple(sorted(set(taps), reverse=True)))

    @property
    def period(self) -> int:
        return (1 << self.degree) - 1


def gen_mls(spec: MlsSpec) -> np.ndarray:
    """Maximal-length 0/1 sequence from the all-ones LFSR state.

    Raises if the state does not return to all-ones after exactly
    2^m - 1 steps (non-primitive feedback polynomial).
    """
    m = spec.degree
    length = spec.period
    # recent outputs, most recent first; recurrence s_t = XOR of s_{t-(m-e)}
    state = [1] * m
    offsets = [m - e - 1 for e in spec.taps if 0 < e < m] + [m - 1]
    out = np.empty(length, dtype=np.uint8)
    for t in range(length):
        bit = 0
        for off in offsets:
            bit ^= state[off]
        out[t] = bit
        state = [bit] + state[:-1]
        if state == [1] * m and t != length - 1:
            raise ValueError(f"taps {spec.taps} give period {t + 1}, not {length}")
    if state != [1] * m:
        raise ValueError(f"taps {spec.taps} do not give period {length}")
    return out


def cyclic_hadamard_matrix(degree: int) -> np.ndarray:
    """N x N +-1 matrix, N = 2^degree: all-ones border, circulant MLS core.

    Row u >= 1 is [1, b shifted left by u-1]; the two-valued autocorrelation
    of the sequence makes the rows mutually orthogonal.
    """
    b = 1.0 - 2.0 * gen_mls(MlsSpec(degree)).astype(float)  # bit 0 -> +1, bit 1 -> -1
    shift = np.arange(b.size)
    h = np.ones((b.size + 1, b.size + 1))
    # core row s is b rotated left by s: entry (s, j) is b[(s + j) mod (N - 1)]
    h[1:, 1:] = b[(shift[:, None] + shift) % b.size]
    return h


# ---------------------------------------------------------------------------
# phase sequence sets

@dataclass(frozen=True)
class PhaseSequenceSet:
    """U unit-modulus rows of length n_fft, pairwise distinct.

    Construction checks the rows; ``check`` adds the length against a config.
    """

    sequences: np.ndarray
    kind: str = "explicit"

    def __post_init__(self):
        seq = np.atleast_2d(np.asarray(self.sequences, dtype=complex))
        object.__setattr__(self, "sequences", seq)
        if seq.ndim != 2 or seq.shape[0] < 1:
            raise ValueError("need a 2-D array of at least one phase sequence")
        # written so that a NaN entry fails too
        if not np.all(np.abs(np.abs(seq) - 1.0) <= 1e-12):
            raise ValueError("phase sequence entries must have unit modulus")
        # + 0.0 turns -0.0 into 0.0, so rows equal under == have equal bytes;
        # one row is copied at a time
        if len({(row + 0.0).tobytes() for row in seq}) < seq.shape[0]:
            raise ValueError("phase sequence set has identical rows")

    @property
    def u(self) -> int:
        return self.sequences.shape[0]

    @property
    def n_fft(self) -> int:
        return self.sequences.shape[1]

    def check(self, cfg: SystemConfig) -> "PhaseSequenceSet":
        if self.n_fft != cfg.n_fft:
            raise ValueError(f"phase sequence length {self.n_fft} is not n_fft={cfg.n_fft}")
        return self


def gen_hadamard_pss(cfg: SystemConfig, u: int) -> PhaseSequenceSet:
    """First u rows of the cyclic Hadamard matrix as a PSS (row 0 = all-ones)."""
    u = _as_int("u", u)
    degree = cfg.n_fft.bit_length() - 1
    if degree not in PRIMITIVE_POLYS:
        lo, hi = HADAMARD_N_FFT
        raise ValueError(f"cyclic Hadamard phase sequences need n_fft in {lo}..{hi}, got n_fft={cfg.n_fft}")
    if not 1 <= u <= cfg.n_fft:
        raise ValueError(f"u={u} is not in 1..n_fft={cfg.n_fft}")
    h = cyclic_hadamard_matrix(degree)
    return PhaseSequenceSet(h[:u].astype(complex), kind="cyclic-hadamard")


def gen_random_pss(
    cfg: SystemConfig, u: int, rng: np.random.Generator, alphabet: str = "quaternary"
) -> PhaseSequenceSet:
    """i.i.d. random phase sequences: binary +-1, quaternary +-1/+-j, or continuous phase."""
    n, u = cfg.n_fft, _as_int("u", u, 1)
    if alphabet == "binary":
        seq = (1.0 - 2.0 * rng.integers(0, 2, (u, n))).astype(complex)
    elif alphabet == "quaternary":
        seq = np.exp(1j * np.pi / 2 * rng.integers(0, 4, (u, n)))
    elif alphabet == "continuous":
        seq = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (u, n)))
    else:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    return PhaseSequenceSet(seq, kind="random")


def all_ones_pss(cfg: SystemConfig) -> PhaseSequenceSet:
    return PhaseSequenceSet(np.ones((1, cfg.n_fft), dtype=complex), kind="explicit")


# ---------------------------------------------------------------------------
# permutation sets

@dataclass(frozen=True)
class PermutationSet:
    """U per-group permutations, rows of an int array.

    Construction checks bijectivity; ``check`` adds the length and group
    closure against a config, for rows that come from outside.
    """

    perms: np.ndarray
    kind: str = "explicit"

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.perms))
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("need a 2-D array of at least one permutation")
        object.__setattr__(self, "perms", _permutation_rows("each row", rows))

    @property
    def u(self) -> int:
        return self.perms.shape[0]

    @cached_property
    def inverse(self) -> np.ndarray:
        """Rows d^-1: gathering a block by inverse[u] applies permutation u."""
        return np.argsort(self.perms, axis=1)

    def check(self, cfg: SystemConfig) -> "PermutationSet":
        N, G = cfg.n_fft, cfg.num_groups
        if self.perms.shape[1] != N:
            raise ValueError(f"permutation length {self.perms.shape[1]} is not n_fft={N}")
        if np.any(self.perms % G != np.arange(N) % G):
            raise ValueError("permutation leaves a group (residue class mod G not preserved)")
        return self


def _permutation_rows(name: str, rows: np.ndarray) -> np.ndarray:
    """``rows`` as intp if each row along the last axis is a permutation of
    its indices, else ValueError that names them.

    Checked before the cast, so that an entry such as 2.5 or "2" is refused.
    """
    if rows.dtype.kind not in "iuf" or np.any(np.sort(rows, axis=-1) != np.arange(rows.shape[-1])):
        raise ValueError(f"{name} must be a permutation of 0..n_fft-1")
    return rows.astype(np.intp, copy=False)


def gen_perm_set(
    cfg: SystemConfig, u: int, kind: str = "random", rng: np.random.Generator | None = None
) -> PermutationSet:
    """Build a permutation set.

    random:   each row permutes every group's rows independently and uniformly
    identity: all rows are the identity (draws nothing)
    """
    N, n, G, u = cfg.n_fft, cfg.group_size, cfg.num_groups, _as_int("u", u, 1)
    if kind == "identity":
        perms = np.tile(np.arange(N, dtype=np.intp), (u, 1))
    elif kind == "random":
        if rng is None:
            raise ValueError("random permutation set needs an rng")
        # one in-place shuffle of all (row, group) pairs, row-major: the stream
        # of one rng.permutation(n) per pair; row r of group g is index G*r + g
        shuffled = np.tile(np.arange(n, dtype=np.intp), (u * G, 1))
        rng.permuted(shuffled, axis=1, out=shuffled)
        perms = (shuffled.reshape(u, G, n).transpose(0, 2, 1) * G + np.arange(G)).reshape(u, N)
    else:
        raise ValueError(f"unknown permutation kind {kind!r}")
    return PermutationSet(perms, kind=kind)


# ---------------------------------------------------------------------------
# SLM selection

@dataclass(frozen=True)
class SlmResult:
    """Outcome of one SLM pass: chosen branch, its signal, all candidate PAPRs."""

    selected_index: int
    signal: np.ndarray
    papr_db: np.ndarray


# complex outputs per tile of the candidate kernel (512 KiB): the signals
# stay in cache until their peaks are taken
_TILE_OUTPUTS = 1 << 15


def _candidate_signals(blocks, pss_seq, perm_inv, gathered=None, padded=None, out=None):
    """Unnormalised IDFT of every SLM candidate: a (..., N) ndarray of blocks -> (..., U, width).

    Candidate u gathers the block by perm_inv[u], into ``gathered`` if it is
    given, and multiplies by phase row u. The gather clips perm_inv instead
    of checking it, because numpy's checked mode copies through a temporary
    array of the output's size: every caller checks that perm_inv holds
    indices in 0..N-1 and that the block is N long. With
    a zeroed ``padded`` buffer of the output shape, the spectrum is copied
    into its low band and, from index N/2 on as negative frequencies, its
    high band first. One FFT transforms all candidates, without the 1/width
    factor, into ``out``, or else in place over the spectrum it transforms
    (``padded``, if given).
    """
    spectrum = blocks.take(perm_inv, axis=-1, out=gathered, mode="clip")
    spectrum *= pss_seq
    if padded is not None:
        n, width = spectrum.shape[-1], padded.shape[-1]
        half = n // 2
        padded[..., :half] = spectrum[..., :half]
        padded[..., width - (n - half) :] = spectrum[..., half:]
        spectrum = padded
    return np.fft.ifft(spectrum, axis=-1, norm="forward", out=spectrum if out is None else out)


def _indices(name: str, values) -> np.ndarray:
    """``values`` as an array of integers that index like intp, else ValueError.

    A bool array would index as a mask, and uint64 offsets add to intp ones
    as floats.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu" or not np.can_cast(values.dtype, np.intp):
        raise ValueError(f"{name} must be an array of integer indices, got dtype {values.dtype}")
    return values


def candidate_paprs_db(
    positions: np.ndarray,
    symbol_index: np.ndarray,
    symbols: np.ndarray,
    n_fft: int,
    pss_seq: np.ndarray,
    perm_inv: np.ndarray,
    mean_power: float,
    oversample: int = 1,
) -> np.ndarray:
    """PAPR in dB of every SLM candidate: (rows, K) drawn patterns -> (rows, U).

    Row r stands for the length-``n_fft`` block that holds
    symbols[symbol_index[r]] at the subcarriers positions[r] (distinct within
    a row) and zeros elsewhere; a dense (rows, N) block is ``symbols =
    blocks.reshape(-1)`` with ``symbol_index = np.arange(rows * N).reshape(rows, N)``
    and ``positions = np.broadcast_to(np.arange(N), (rows, N))``. Candidate u
    gathers the block by the inverse of permutation u (entry i lands at
    d_u[i]), multiplies by phase row u and applies the IDFT, zero-padded by
    ``oversample`` with indices at or above N/2 as negative frequencies (the
    layout of the reference ``oversampled_idft`` in ``tests/oracles.py``).
    ``positions``, ``symbol_index`` and ``perm_inv`` are integer arrays
    (int32 positions, as drawn, index as well as intp ones), and
    ``pss_seq`` is U rows of length N.

    The blocks are assembled one tile at a time: the tile's rows of a
    (tile, N) buffer are zeroed, its symbols looked up from its indices and
    written with one flat index write, so neither a (rows, N) block nor a
    (rows, K) array of symbol values is ever built. Each tile then goes
    through the candidate stage that ``slm_select`` shares: one gather, one
    phase multiply and one batched FFT without normalisation. Only the peak
    powers are kept; the unitary factor 1/N scales those peaks alone. The
    gather (the signal buffer itself without oversampling), padded
    spectrum and signal buffers are allocated once per call and reused by
    every tile, and so is one float allocation of which the block and the
    power buffer are both views: a tile's block is dead once the gather has
    read it, and only after that is its power written. So the zero band is
    written once and no tile allocates an array of its own size. When N is
    a power of 4 and ``oversample`` a power of 2 every scale factor is a
    power of two, and the result is bit-identical to taking the peaks of
    the reference ``oversampled_idft``.
    """
    n, oversample = _as_int("n_fft", n_fft), _as_int("oversampling factor", oversample, 1)
    positions, symbol_index = _indices("positions", positions), _indices("symbol_index", symbol_index)
    perm_inv, symbols, pss_seq = _indices("perm_inv", perm_inv), np.asarray(symbols), np.asarray(pss_seq)
    if pss_seq.ndim != 2 or pss_seq.shape[0] < 1 or pss_seq.shape[1] != n:
        raise ValueError(f"pss_seq of shape {pss_seq.shape} must be U >= 1 phase rows of length {n}")
    u = pss_seq.shape[0]
    if positions.ndim != 2 or positions.shape != symbol_index.shape or symbols.ndim != 1:
        raise ValueError(
            f"positions {positions.shape} and symbol indices {symbol_index.shape} must be the same (rows, K) "
            f"shape, and the symbols {symbols.shape} one row"
        )
    if positions.size and (positions.min() < 0 or positions.max() >= n):
        raise ValueError(f"positions must lie in 0..{n - 1}")
    # a negative index would wrap round to the end of the constellation
    if symbol_index.size and (symbol_index.min() < 0 or symbol_index.max() >= symbols.size):
        raise ValueError(f"symbol indices must lie in 0..{symbols.size - 1}")
    # the candidate gather clips its indices instead of checking them
    if perm_inv.shape != (u, n) or perm_inv.min() < 0 or perm_inv.max() >= n:
        raise ValueError(f"perm_inv must be {u} x {n} indices in 0..{n - 1}")
    rows, width = positions.shape[0], n * oversample
    step = max(1, _TILE_OUTPUTS // (u * width))
    tile = min(rows, step)
    # a tile's block is dead once the candidate gather has read it, and its
    # power is written only after that, so both are views of one float
    # buffer; with U * L = 1 the power is half the block's size
    shared = np.empty(max(tile * u * width, 2 * tile * n))
    block = shared[: 2 * tile * n].view(complex).reshape(tile, n)
    power = shared[: tile * u * width].reshape(tile, u, width)
    block_flat = block.reshape(-1)
    # flat offset of each block row, for the scatter of the tile's symbols
    row_offsets = np.arange(0, tile * n, n).reshape(tile, 1)
    padded = np.zeros((tile, u, width), dtype=complex) if width > n else None
    signal = np.empty((tile, u, width), dtype=complex)
    # without padding the candidates are gathered into the signal buffer and
    # transformed in place; a gather that allocated per tile made glibc give
    # its heap back and fault it in again, tile after tile
    gathered = signal if padded is None else np.empty((tile, u, n), dtype=complex)
    # flat offset of each candidate row in power, for the peak gather below
    row_starts = np.arange(0, tile * u * width, width).reshape(tile, u)
    peaks = np.empty((rows, u))
    for start in range(0, rows, step):
        t = min(step, rows - start)
        block[:t] = 0
        block_flat[row_offsets[:t] + positions[start : start + t]] = symbols[symbol_index[start : start + t]]
        _candidate_signals(block[:t], pss_seq, perm_inv, gathered[:t], None if padded is None else padded[:t], signal[:t])
        # |x|^2 as re^2 + im^2: square the float view in place, add into power
        parts = signal[:t].view(np.float64)
        np.square(parts, out=parts)
        np.add(parts[..., 0::2], parts[..., 1::2], out=power[:t])
        # each row's peak as the element argmax picks: the value max(axis=-1)
        # gives (a NaN too), but over short rows argmax and a gather run faster
        at = power[:t].argmax(axis=-1)
        at += row_starts[:t]
        peaks[start : start + t] = power.reshape(-1)[at]
    # 10 * log10(peaks * (1/n) / mean_power), in place, in the order of slm_select
    peaks *= 1.0 / n
    peaks /= mean_power
    np.log10(peaks, out=peaks)
    peaks *= 10.0
    return peaks


def slm_select(
    block: np.ndarray, pss: PhaseSequenceSet, perms: PermutationSet, cfg: SystemConfig
) -> SlmResult:
    """Permute, phase-rotate, transform each branch; keep the minimum-PAPR signal.

    The U candidates go through the candidate stage of ``candidate_paprs_db``
    once, and ``papr_db`` is computed from them with the same operations, so
    it equals that function's result on this block. The winner's signal is
    taken from the same transform, scaled by 1/N and then sqrt(N), which
    gives the bytes of ``core.idft`` of the winning spectrum. Ties go to the
    lowest branch index.
    """
    if pss.u != perms.u:
        raise ValueError(f"pss has {pss.u} sequences but perms has {perms.u}")
    block = np.asarray(block, dtype=complex)
    n = perms.perms.shape[1]
    # the candidate gather clips its indices, so a shorter block is refused here;
    # the mean power that the PAPRs are scaled by is the one of cfg
    if block.shape != (n,) or pss.n_fft != n or cfg.n_fft != n:
        raise ValueError(
            f"block of shape {block.shape}, phase sequences of length {pss.n_fft} and n_fft={cfg.n_fft} "
            f"must be one row of the permutation length {n}"
        )
    signals = _candidate_signals(block, pss.sequences, perms.inverse)
    power = np.square(signals.real)
    power += np.square(signals.imag)
    paprs = 10.0 * np.log10(power.max(axis=-1) * (1.0 / n) / cfg.mean_power)
    best = int(paprs.argmin())
    return SlmResult(selected_index=best, signal=signals[best] * (1.0 / n) * math.sqrt(n), papr_db=paprs)


# ---------------------------------------------------------------------------
# JSON documents (phases in radians, permutations as index arrays)

def pss_to_json(pss: PhaseSequenceSet) -> dict:
    return {
        "kind": pss.kind,
        "n_fft": pss.n_fft,
        "phases": np.angle(pss.sequences).tolist(),
    }


def pss_from_json(doc: dict) -> PhaseSequenceSet:
    phases = np.array(doc["phases"], dtype=float)
    with np.errstate(invalid="ignore"):  # an infinite phase gives NaN, refused as not unit modulus
        return PhaseSequenceSet(np.exp(1j * phases), kind=doc.get("kind", "explicit"))


def perm_set_to_json(perms: PermutationSet) -> dict:
    return {"kind": perms.kind, "perms": perms.perms.tolist()}


def perm_set_from_json(doc: dict, cfg: SystemConfig) -> PermutationSet:
    return PermutationSet(np.array(doc["perms"]), kind=doc.get("kind", "explicit")).check(cfg)
