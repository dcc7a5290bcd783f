"""The package names that the benchmark in ``perfbench/`` reads.

The benchmark drives the package from outside, through these names only,
so removing or renaming one, or a parameter that it passes, breaks it. Its
own smoke test is slow and sits outside the default test paths; this test
catches such a removal in the tier-1 suite.
"""

import ast
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

# wrapped names that the package no longer has: the tracer skips them. The
# transforms' spans read 0 until the benchmark stops listing them; the
# scheme build is still traced under its ccdf name
GONE_PATCH_TARGETS = {"ccdf.idft", "ccdf.oversampled_idft", "slm.idft", "cli.instantiate_scheme"}


def names_read(filename: str) -> list:
    return sorted(set(DOTTED.findall((PERFBENCH / filename).read_text())))


def resolve(dotted: str):
    head, *parts = dotted.split(".")
    obj = ofdm_im_slm if head == "lib" else getattr(ofdm_im_slm, head)
    for part in parts:
        obj = getattr(obj, part)
    return obj


def resolves(dotted: str) -> bool:
    try:
        resolve(dotted)
    except AttributeError:
        return False
    return True


def patch_targets() -> list:
    """<module>.<name> of each entry of PATCH_TARGETS in perfbench/spans.py,
    the names the benchmark's tracer wraps, read without importing it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PATCH_TARGETS" for t in node.targets):
            return sorted({f"{module}.{name}" for module, name, _ in ast.literal_eval(node.value)})
    raise AssertionError("no PATCH_TARGETS assignment in perfbench/spans.py")


def missing(dotted_names) -> set:
    return {dotted for dotted in dotted_names if not resolves(dotted)}


TRACED = [name for name in patch_targets() if name not in GONE_PATCH_TARGETS]


def test_the_scan_finds_the_names_in_use():
    assert "lib.instantiate_scheme" in names_read("setup_probe.py")
    assert "slm.slm_select" in names_read("workloads.py")


@pytest.mark.parametrize("dotted", sorted(set(names_read("workloads.py") + names_read("setup_probe.py") + TRACED)))
def test_benchmark_name_exists(dotted):
    resolve(dotted)


def test_only_the_known_patch_targets_are_gone():
    assert "cli.var_rho_empirical_profile" in TRACED
    assert missing(patch_targets()) == GONE_PATCH_TARGETS


def test_a_renamed_traced_name_is_reported(monkeypatch):
    monkeypatch.delattr(ofdm_im_slm.cli, "var_rho_empirical_profile")
    assert missing(patch_targets()) == GONE_PATCH_TARGETS | {"cli.var_rho_empirical_profile"}


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
