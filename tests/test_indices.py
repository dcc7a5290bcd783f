"""Collections of indices of the public API: one check, ``core._as_indices``.

``GroupSap`` rows, ``subset_rank`` rows and the index sets of
``punctured_spectrum`` and of the oracles ``rho_profile`` and
``cov_alt_signals`` go through it; ``mu_metric`` takes only permutations,
through ``PermutationSet``'s row check. Every other collection ends in one
ValueError that names it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdm_im_slm import (
    Constellation,
    GroupSap,
    SystemConfig,
    gen_perm_set,
    gen_random_pss,
    mu_metric,
    punctured_spectrum,
    subset_rank,
    subset_unrank,
)
from ofdm_im_slm.core import _as_indices
from oracles import cov_alt_signals, rho_profile

CFG = SystemConfig(n_fft=64, group_size=16, active=2, mod_order=4)
IDENTITY = np.arange(64)
ONES = np.ones(64, dtype=complex)


# ---------------------------------------------------------------------------
# the helper

@pytest.mark.parametrize("values", [(1, 3), [np.int64(1), np.uint8(3)], (1.0, np.float64(3.0)), np.array([1, 3]),
                                    (np.float32(1.0), 3)])
def test_as_indices_returns_python_ints(values):
    out = _as_indices("x", values, 4)
    assert out == (1, 3) and all(type(i) is int for i in out)


def test_as_indices_keeps_the_order_and_takes_an_empty_collection():
    assert _as_indices("x", (5, 0, 2)) == (5, 0, 2)
    assert _as_indices("x", (), 0) == ()
    assert _as_indices("x", iter([2, 1])) == (2, 1)


@pytest.mark.parametrize("values", [
    (True, 2), (np.True_,), (0.5,), ("1",), (float("nan"),), (float("inf"),), (None,), ([1],), (1 + 0j,),
    (np.complex128(1),), (np.array(1),), (2, 2), (-1,), (4,), 5, None, "12",
], ids=["bool", "numpy-bool", "fraction", "string", "nan", "inf", "none", "list", "complex", "numpy-complex",
        "zero-d-array", "repeat", "negative", "past-end", "int", "no-collection", "string-collection"])
def test_as_indices_refuses_by_name(values):
    with pytest.raises(ValueError, match=r"^x must be distinct integer values in 0\.\.3, got "):
        _as_indices("x", values, 4)


def test_as_indices_message_is_one_short_line():
    with pytest.raises(ValueError) as e:
        _as_indices("x", np.full((40, 40), 0.5))
    assert "\n" not in str(e.value) and len(str(e.value)) < 100
    with pytest.raises(ValueError, match=r"^x must be distinct nonnegative integers, got \(2, 2\)$"):
        _as_indices("x", (2, 2))
    for unsorted in (GroupSap, lambda rows: subset_rank(rows, 1000)):
        with pytest.raises(ValueError, match=r"^rows must be sorted, got ") as e:
            unsorted(tuple(range(999, -1, -1)))
        assert "\n" not in str(e.value) and len(str(e.value)) < 100


# ---------------------------------------------------------------------------
# each of these raised a TypeError, was accepted or returned a wrong number

def cov_of(rows):
    rng = np.random.default_rng(1)
    pss, perms = gen_random_pss(CFG, 2, rng), gen_perm_set(CFG, 2, "random", rng)
    return cov_alt_signals(rows, Constellation.psk(4), pss, perms, 1, 2, CFG, 4, rng)


REFUSALS = {
    "group-sap-none": ("rows", lambda: GroupSap((None, 1))),
    "group-sap-list": ("rows", lambda: GroupSap(([1], 2))),
    "group-sap-complex": ("rows", lambda: GroupSap((1 + 0j, 2))),
    "group-sap-bool": ("rows", lambda: GroupSap((True, 2))),
    "group-sap-unsorted": ("rows", lambda: GroupSap((3, 1))),
    "rho-bool": ("sap", lambda: rho_profile([True, 2], CFG)),
    "punctured-numpy-bool": ("sap", lambda: punctured_spectrum(ONES, ONES, [np.True_, 2])),
    "cov-bool": ("sap", lambda: cov_of([True, 2])),
    "cov-past-end": ("sap", lambda: cov_of([1, 64])),
    "subset-rank-unsorted": ("rows", lambda: subset_rank((3, 0), 16)),
    "subset-rank-repeat": ("rows", lambda: subset_rank((1, 1), 16)),
    "subset-rank-at-n": ("rows", lambda: subset_rank((0, 3), 3)),
    "subset-rank-past-n": ("rows", lambda: subset_rank((0, 20), 16)),
    "subset-rank-fraction": ("rows", lambda: subset_rank((0.5, 2), 16)),
    "subset-rank-far-past-n": ("rows", lambda: subset_rank((0, 1 << 40), 16)),
    "mu-zeros": ("d1", lambda: mu_metric(np.zeros(64, int), IDENTITY, CFG)),
    "mu-fractions": ("d1", lambda: mu_metric(IDENTITY * 2.5, IDENTITY, CFG)),
    "mu-shifted": ("d1", lambda: mu_metric(IDENTITY + 64, IDENTITY, CFG)),
    "mu-second-repeats": ("d2", lambda: mu_metric(IDENTITY, np.minimum(IDENTITY, 62), CFG)),
    "mu-bools": ("d2", lambda: mu_metric(IDENTITY, IDENTITY % 2 == 0, CFG)),
    "mu-strings": ("d1", lambda: mu_metric(IDENTITY.astype(str), IDENTITY, CFG)),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_bad_index_collection_is_one_value_error_that_names_it(case):
    name, call = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


def test_valid_index_collections_keep_their_values():
    for rank in range(120):
        rows = subset_unrank(rank, 10, 3)
        assert subset_rank(rows, 10) == subset_rank(np.array(rows), 10) == subset_rank([float(r) for r in rows], 10)
        assert subset_rank(rows, 10) == rank
        assert GroupSap(np.array(rows, dtype=np.int32)).rows == rows
    assert subset_rank((), 0) == 0
    d = gen_perm_set(CFG, 2, "random", np.random.default_rng(4)).perms
    # a permutation given as integral floats is the same permutation
    assert mu_metric(d[0].astype(float), d[1], CFG) == mu_metric(d[0], d[1], CFG)


# ---------------------------------------------------------------------------
# fuzzer: any collection of up to 64 entries ends in a result or a ValueError

ENTRY = st.one_of(
    st.integers(-3, 70),
    st.integers(-3, 70).map(np.int64),
    st.integers(0, 70).map(np.uint8),
    st.integers(-3, 70).map(float),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.floats(),  # NaN and +-inf included
    st.floats(width=32).map(np.float32),
    st.none(),
    st.text(max_size=2),
    st.complex_numbers(max_magnitude=100),
    st.complex_numbers(max_magnitude=100).map(np.complex128),
)


def near_permutation(draw):
    # a permutation of 0..63 with at most two entries replaced
    rows = list(draw(st.permutations(range(64))))
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, 63))] = draw(ENTRY)
    return rows


@st.composite
def collections(draw):
    kind = draw(st.sampled_from(["entries", "subset", "permutation"]))
    if kind == "entries":
        rows = draw(st.lists(ENTRY, max_size=64))
    elif kind == "subset":
        rows = sorted(draw(st.lists(st.integers(0, 70), max_size=64, unique=True)))
    else:
        rows = near_permutation(draw)
    return tuple(rows) if draw(st.booleans()) else rows


TARGETS = {
    "GroupSap.rows": lambda v: GroupSap(v),
    "subset_rank.rows": lambda v: subset_rank(v, 16),
    "rho_profile.sap": lambda v: rho_profile(v, CFG),
    "punctured_spectrum.sap": lambda v: punctured_spectrum(ONES, ONES, v),
    "mu_metric.d1": lambda v: mu_metric(v, IDENTITY, CFG),
    "mu_metric.d2": lambda v: mu_metric(IDENTITY, v, CFG),
}


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=40, deadline=None)
@given(values=collections())
def test_any_index_collection_ends_in_a_result_or_a_value_error(target, values):
    try:
        TARGETS[target](values)
    except ValueError:
        pass
