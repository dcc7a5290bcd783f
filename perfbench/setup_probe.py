"""Set-up time of one workload in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED

Times ``import ofdm_im_slm`` plus the workload's first library call (the
first ``instantiate_scheme`` of a CCDF arm, or the first encode+select call)
and prints the seconds as one JSON line. Nothing is imported before the
clock starts, so numpy's import is part of the time.
"""

import sys
import time

start = time.perf_counter()
src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)

import ofdm_im_slm as lib  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by the package)

import workloads  # noqa: E402

if workload in workloads.SETUP_PLANS:
    arm = dict(workloads.SETUP_PLANS[workload])
    cfg = lib.SystemConfig(workloads.N_FFT, workloads.GROUP_SIZE, arm.pop("active"), workloads.MOD_ORDER)
    oversample = arm.pop("oversample")
    scheme = lib.SchemeDescriptor(mode="slm", u=workloads.U, **arm)
    plan = lib.TrialPlan(cfg=cfg, scheme=scheme, trials=workloads.ccdf_trials(False), seed=seed,
                         gamma_db=lib.default_gamma_grid(), oversample=oversample)
    lib.instantiate_scheme(plan)
else:
    rng = np.random.default_rng(seed)
    cfg = lib.SystemConfig(workloads.N_FFT, workloads.GROUP_SIZE, workloads.LIBRARY_ACTIVE, workloads.MOD_ORDER)
    pss = lib.gen_random_pss(cfg, workloads.U, rng)
    perms = lib.gen_perm_set(cfg, workloads.U, "random", rng)
    bits = rng.integers(0, 2, size=cfg.bits_per_group * cfg.num_groups).tolist()
    block, _ = lib.block_from_bits(bits, cfg, lib.Constellation.psk(workloads.MOD_ORDER))
    lib.slm_select(block, pss, perms, cfg)

print(f'{{"setup_s": {time.perf_counter() - start!r}}}')
