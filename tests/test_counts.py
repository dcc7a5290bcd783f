"""Counts, indices and lags of the public API: one check, ``core._as_int``.

Every entry point that takes a count stores or uses it as a Python int, so
numpy integers write the bytes that Python ints write, and every other
value ends in one ValueError that names the argument.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdm_im_slm import (
    CcdfCurve,
    Constellation,
    MlsSpec,
    SchemeDescriptor,
    SystemConfig,
    TrialPlan,
    candidate_paprs_db,
    cyclic_hadamard_matrix,
    default_gamma_grid,
    draw_active_positions,
    gen_hadamard_pss,
    gen_perm_set,
    gen_random_pss,
    mu_metric,
    mu_metric_set,
    run_ccdf,
    sample_random_sap,
    subset_rank,
    subset_unrank,
    var_rho_closed_form,
    var_rho_empirical,
    var_rho_empirical_profile,
)
from ofdm_im_slm.ccdf import BATCH_TRIALS, curve_csv_text, plan_json_doc
from ofdm_im_slm.cli import main
from ofdm_im_slm.core import _as_int
from oracles import cov_alt_signals, oversampled_idft

CFG = SystemConfig(n_fft=64, group_size=16, active=2, mod_order=4)
CFG128 = SystemConfig(n_fft=128, group_size=16, active=2, mod_order=4)
# a small arm whose batches take a few milliseconds, for the fuzzed runs
TINY = SystemConfig(n_fft=16, group_size=4, active=1, mod_order=2)
GAMMA = np.array([3.0, 6.0, 9.0])


def plan(**fields):
    args = {"cfg": CFG, "scheme": SchemeDescriptor("slm", u=2), "trials": 3, "seed": 1, "gamma_db": GAMMA}
    return TrialPlan(**{**args, **fields})


# ---------------------------------------------------------------------------
# the helper

@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3), np.array(3)])
def test_as_int_returns_a_python_int(value):
    out = _as_int("x", value, minimum=3)
    assert out == 3 and type(out) is int


@pytest.mark.parametrize("value", [True, np.True_, 2.0, 1.5, np.float64(2.0), float("nan"), "2", None, np.array([2])])
def test_as_int_refuses_what_is_no_integer_by_name(value):
    with pytest.raises(ValueError, match=r"^x must be an integer, got "):
        _as_int("x", value)


def test_as_int_refuses_a_value_below_the_minimum_by_name():
    assert _as_int("x", -5) == -5
    with pytest.raises(ValueError, match=r"^x must be >= 0: -1 is not at least 0$"):
        _as_int("x", np.int64(-1), minimum=0)


# ---------------------------------------------------------------------------
# each of these ended in a TypeError or an IndexError, ran with a count that
# no CLI run writes, or returned a number for arrays of another n_fft

def two_sets(cfg):
    rng = np.random.default_rng(3)
    return gen_random_pss(cfg, 2, rng), gen_perm_set(cfg, 2, "random", rng)


REFUSALS = {
    "trials-1.5": ("trials", lambda: run_ccdf(plan(trials=1.5))),
    "u-2.5": ("u", lambda: run_ccdf(plan(scheme=SchemeDescriptor("slm", u=2.5)))),
    "seed-1.5": ("seed", lambda: run_ccdf(plan(seed=1.5))),
    "float-config": ("n_fft", lambda: SystemConfig(64.0, 16.0, 2.0, 4.0)),
    "random-pss-u-2.0": ("u", lambda: gen_random_pss(CFG, 2.0, np.random.default_rng(0))),
    "perm-set-u-2.0": ("u", lambda: gen_perm_set(CFG, 2.0, "random", np.random.default_rng(0))),
    "oversample-2.0": ("oversample", lambda: plan(oversample=2.0)),
    "trials-True": ("trials", lambda: plan(trials=True)),
    "workers-0": ("workers", lambda: run_ccdf(plan(), workers=0)),
    "workers-minus-3": ("workers", lambda: run_ccdf(plan(), workers=-3)),
    "lag-1.5": ("m", lambda: var_rho_closed_form(CFG, 1.5)),
    "mu-63-of-64": ("d1", lambda: mu_metric(np.arange(63), np.arange(64), CFG)),
    "mu-set-of-128": ("d1", lambda: mu_metric_set(gen_perm_set(CFG128, 2, "identity"), CFG)),
    "cov-of-128": ("pss", lambda: cov_alt_signals(
        sample_random_sap(CFG, np.random.default_rng(1)), Constellation.psk(4), *two_sets(CFG128), 0, 0, CFG, 10,
        np.random.default_rng(2),
    )),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_bad_count_is_one_value_error_that_names_it(case):
    name, call = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


@pytest.mark.parametrize("arm", ["original", "bits"])
def test_numpy_integer_counts_write_the_bytes_of_python_ints(tmp_path, arm):
    # the plan JSON refused numpy integers (not JSON serializable); the CLI
    # run of the same arm is the reference
    def texts(as_int):
        cfg = SystemConfig(as_int(64), as_int(16), as_int(2), as_int(4))
        if arm == "original":
            scheme = SchemeDescriptor.original()
        else:
            scheme = SchemeDescriptor("slm", u=as_int(4), pss_kind="cyclic-hadamard", perm_kind="random",
                                      sap_source="bits")
        p = TrialPlan(cfg, scheme, as_int(300), as_int(7), default_gamma_grid(), oversample=as_int(2))
        doc = plan_json_doc(p)
        return curve_csv_text(run_ccdf(p)), json.dumps(doc, indent=2, sort_keys=True) + "\n"

    flags = ["--scheme", "original"] if arm == "original" else [
        "--u", "4", "--pss", "hadamard", "--perm", "random", "--sap-source", "bits"]
    argv = ["ccdf", "--n-fft", "64", "--group-size", "16", "--active", "2", "--mod-order", "4",
            "--trials", "300", "--seed", "7", "--oversample", "2", *flags, "--out", str(tmp_path / "x")]
    assert main(argv) == 0
    want = ((tmp_path / "x.csv").read_text(), (tmp_path / "x.json").read_text())
    for as_int in (int, np.int64, np.int32):
        assert texts(as_int) == want


# ---------------------------------------------------------------------------
# fuzzer: any value in one count ends in a result or a ValueError

NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.floats(),  # NaN and +-inf included
    st.floats().map(np.float64),
    st.integers(-3, 3).map(float),
    st.text(max_size=2),
    st.none(),
)
SMALL = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(np.int64), st.integers(0, 3).map(np.uint8), NOT_INTEGERS)
# valid but large counts go only to entries that construct, or refuse them
# before anything is sized by them
ANY = st.one_of(SMALL, st.integers(2**62, 2**66), st.integers(2**62, 2**63 - 1).map(np.int64))


def run_if_small(p):
    # a fuzzed plan runs only when it is a few trials
    return run_ccdf(p) if p.trials <= 3 else p


def rng():
    return np.random.default_rng(5)


def kernel(n_fft=CFG.n_fft, oversample=1):
    pss, perms = two_sets(CFG)
    positions = np.tile(np.arange(0, 64, 8), (3, 1))
    return candidate_paprs_db(positions, np.zeros((3, 8), dtype=np.int32), Constellation.psk(4).symbols, n_fft,
                              pss.sequences, perms.inverse, CFG.mean_power, oversample)


def cov(l=1, m=2, trials=4):
    pss, perms = two_sets(CFG)
    return cov_alt_signals(sample_random_sap(CFG, rng()), Constellation.psk(4), pss, perms, l, m, CFG, trials, rng())


# name -> (values, call with the fuzzed value in that one argument)
ENTRIES = {
    "SystemConfig.n_fft": (ANY, lambda v: SystemConfig(v, 16, 2, 4)),
    "SystemConfig.group_size": (ANY, lambda v: SystemConfig(64, v, 2, 4)),
    "SystemConfig.active": (ANY, lambda v: SystemConfig(64, 16, v, 4)),
    "SystemConfig.mod_order": (ANY, lambda v: SystemConfig(64, 16, 2, v)),
    "Constellation.psk.order": (SMALL, lambda v: Constellation.psk(v)),
    "subset_unrank.rank": (ANY, lambda v: subset_unrank(v, 16, 2)),
    "subset_unrank.n": (ANY, lambda v: subset_unrank(0, v, 2)),
    "subset_unrank.k": (ANY, lambda v: subset_unrank(0, 16, v)),
    "subset_rank.n": (ANY, lambda v: subset_rank((0, 3), v)),
    "draw_active_positions.trials": (SMALL, lambda v: draw_active_positions(CFG, v, rng())),
    "oversampled_idft.factor": (SMALL, lambda v: oversampled_idft(np.ones(8), v)),
    "MlsSpec.degree": (ANY, lambda v: MlsSpec(v)),
    "cyclic_hadamard_matrix.degree": (ANY, lambda v: cyclic_hadamard_matrix(v)),
    "gen_hadamard_pss.u": (ANY, lambda v: gen_hadamard_pss(CFG, v)),
    "gen_random_pss.u": (SMALL, lambda v: gen_random_pss(CFG, v, rng())),
    "gen_perm_set.u": (SMALL, lambda v: gen_perm_set(CFG, v, "random", rng())),
    "candidate_paprs_db.n_fft": (ANY, lambda v: kernel(n_fft=v)),
    "candidate_paprs_db.oversample": (SMALL, lambda v: kernel(oversample=v)),
    "SchemeDescriptor.u": (ANY, lambda v: SchemeDescriptor("slm", u=v)),
    "TrialPlan.trials": (ANY, lambda v: run_if_small(plan(trials=v))),
    "TrialPlan.seed": (ANY, lambda v: run_if_small(plan(seed=v))),
    "TrialPlan.oversample": (ANY, lambda v: run_if_small(plan(oversample=v))),
    # two batches of the tiny arm: never more than two worker processes
    "run_ccdf.workers": (ANY, lambda v: run_ccdf(plan(cfg=TINY, trials=BATCH_TRIALS + 1), workers=v)),
    "CcdfCurve.trials": (ANY, lambda v: CcdfCurve(GAMMA, np.array([2, 1, 0]), v)),
    "var_rho_closed_form.m": (ANY, lambda v: var_rho_closed_form(CFG, v)),
    "var_rho_empirical.m": (ANY, lambda v: var_rho_empirical(CFG, v, 5, rng())),
    "var_rho_empirical.trials": (SMALL, lambda v: var_rho_empirical(CFG, 1, v, rng())),
    "var_rho_empirical_profile.trials": (SMALL, lambda v: var_rho_empirical_profile(CFG, v, rng())),
    "var_rho_empirical_profile.chunk": (ANY, lambda v: var_rho_empirical_profile(CFG, 5, rng(), chunk=v)),
    "cov_alt_signals.l": (ANY, lambda v: cov(l=v)),
    "cov_alt_signals.m": (ANY, lambda v: cov(m=v)),
    "cov_alt_signals.trials": (SMALL, lambda v: cov(trials=v)),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_count_ends_in_a_result_or_a_value_error(entry, data):
    values, call = ENTRIES[entry]
    value = data.draw(values, label=entry)
    try:
        call(value)
    except ValueError:
        pass
