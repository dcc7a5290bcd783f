"""The package names that the benchmark in ``perfbench/`` reads.

The benchmark drives the package from outside, through these names only,
so removing or renaming one, or a parameter that it passes, breaks it. Its
own smoke test is slow and sits outside the default test paths; this test
catches such a removal in the tier-1 suite.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import ofdm_im_slm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("analysis", "ccdf", "cli", "core", "slm")
for _module in MODULES:
    importlib.import_module(f"ofdm_im_slm.{_module}")

# lib.<name>... on the package, or <module>.<name>... on one of its modules
DOTTED = re.compile(rf"\b(?:lib|{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*)+")

# names the benchmark's tracer wraps and counts: the CLI's run, the one
# generator-set build per CLI call, and the generators that build calls
TRACED = ("ccdf.instantiate_scheme", "ccdf.gen_hadamard_pss", "ccdf.gen_random_pss",
          "ccdf.gen_perm_set", "cli.run_ccdf")


def names_read(filename: str) -> list:
    return sorted(set(DOTTED.findall((PERFBENCH / filename).read_text())))


def resolve(dotted: str):
    head, *parts = dotted.split(".")
    obj = ofdm_im_slm if head == "lib" else getattr(ofdm_im_slm, head)
    for part in parts:
        obj = getattr(obj, part)
    return obj


def test_the_scan_finds_the_names_in_use():
    assert "lib.instantiate_scheme" in names_read("setup_probe.py")
    assert "slm.slm_select" in names_read("workloads.py")


@pytest.mark.parametrize("dotted", names_read("workloads.py") + names_read("setup_probe.py") + list(TRACED))
def test_benchmark_name_exists(dotted):
    resolve(dotted)


# (name, positional arguments, keywords) of each call that perfbench/workloads.py
# and perfbench/setup_probe.py make, as in gen_perm_set(cfg, U, "random", rng)
CALL_SHAPES = [
    ("slm.gen_random_pss", 3, ()),
    ("slm.gen_perm_set", 4, ()),
    ("ccdf.SchemeDescriptor", 0, ("mode", "u", "pss_kind", "perm_kind", "sap_source")),
    ("ccdf.TrialPlan", 0, ("cfg", "scheme", "trials", "seed", "gamma_db", "oversample")),
    ("ccdf.instantiate_scheme", 1, ()),
    ("ccdf.default_gamma_grid", 0, ()),
    ("core.SystemConfig", 4, ()),
    ("core.Constellation.psk", 1, ()),
    ("core.block_from_bits", 3, ()),
    ("slm.slm_select", 4, ()),
    ("analysis.var_rho_closed_form", 2, ()),
    ("cli.main", 1, ()),
]


@pytest.mark.parametrize("dotted,positional,keywords", CALL_SHAPES, ids=[c[0] for c in CALL_SHAPES])
def test_benchmark_call_shape_binds(dotted, positional, keywords):
    inspect.signature(resolve(dotted)).bind(*[None] * positional, **dict.fromkeys(keywords))
