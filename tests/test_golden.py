"""The byte contract: outputs of the benchmark's invocations against the
fingerprints recorded in ``perfbench/golden.json``.

The other tests compare the package with oracles of the same tree, so a
change that moves an output byte, such as one to the frozen pattern draw,
can pass them. Here the benchmark's own workloads run in-process at full
size, as ``perfbench/record_golden.py`` runs them, and every output file is
checked against its recorded SHA-256. ``perfbench/workloads.py`` is loaded
by path; ``perfbench/run.py`` is not imported, because it sets the math
libraries' thread variables of the whole process when it is.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ofdm_im_slm import analysis, ccdf, cli, core, slm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["fingerprints"]
SEEDS = (0, 1, 31)


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = load_workloads()
LIB = SimpleNamespace(analysis=analysis, ccdf=ccdf, cli=cli, core=core, slm=slm)


@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_the_recorded_fingerprints(tmp_path, seed):
    check = wl.OutputCheck(GOLDEN)
    ops = [wl.CcdfWorkload(name, seed, False, tmp_path, check).run(cli.main) for name in wl.CCDF_ARGS]
    library = wl.LibraryWorkload(np, LIB, seed, False, tmp_path, check)
    ops.append(library.run(cli.main, core.block_from_bits, slm.slm_select))
    assert [e for op in ops for e in op["errors"]] == []
    # every output was compared with a recorded fingerprint, none only with itself
    assert len(check.observed) == len(wl.CCDF_ARGS) + len(library.cli_calls)
    for key, kinds in check.observed.items():
        assert set(kinds) == set(GOLDEN[key]), key


def test_a_corrupted_fingerprint_is_reported(tmp_path):
    key = wl.golden_key(wl.ccdf_argv("ccdf_sparse", 0, False, "out"))
    golden = {**GOLDEN, key: {**GOLDEN[key], "csv": "0" * 64}}
    op = wl.CcdfWorkload("ccdf_sparse", 0, False, tmp_path, wl.OutputCheck(golden)).run(cli.main)
    assert op["failed"] == 1
    assert op["errors"] == [f"csv of `{key}` differs from the seed-commit fingerprint"]
