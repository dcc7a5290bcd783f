"""Record the reference output fingerprints into perfbench/golden.json.

Usage: python3 perfbench/record_golden.py [FIRST_SEED LAST_SEED]   (default 0 31)

Runs every workload's invocations once per seed, at full size, and stores
the SHA-256 of each output file by invocation. The stored fingerprints are
the outputs of the commit that recorded them (named in the file); the
benchmark counts any later difference as a failed operation. Re-recording
them to make a mismatch go away would hide exactly what they are there to
catch.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def main(argv) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 31)
    lib = run.load_library()
    import numpy as np

    fingerprints = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for seed in range(first, last + 1):
            check = wl.OutputCheck({})
            ops = [wl.CcdfWorkload(name, seed, False, Path(tmp), check).run(lib.cli.main)
                   for name in wl.CCDF_ARGS]
            library = wl.LibraryWorkload(np, lib, seed, False, Path(tmp), check)
            ops.append(library.run(lib.cli.main, lib.core.block_from_bits, lib.slm.slm_select))
            errors = [e for op in ops for e in op["errors"]]
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            fingerprints.update(check.observed)
            print(f"seed {seed}: {len(check.observed)} invocations")
    doc = {"commit": run.git_commit(), "fingerprints": fingerprints}
    (run.BENCH_DIR / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
