import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdm_im_slm import __version__, analysis, ccdf, cli, gen_perm_set, gen_random_pss, SystemConfig
from ofdm_im_slm.cli import main
from ofdm_im_slm.slm import perm_set_to_json, pss_to_json

CFG = SystemConfig(n_fft=64, group_size=16, active=2, mod_order=4)

BASE = ["--n-fft", "64", "--group-size", "16", "--active", "2", "--mod-order", "4"]


def run_cli(args):
    return main(args)


def run_cli_capped(args, headroom=1 << 30):
    """(exit code, stderr) of ``main(args)`` in a forked child whose address
    space may grow by ``headroom`` bytes at most.

    An argument list that should be refused before it allocates runs here, so
    that a run that allocates after all fails in the child with a MemoryError
    instead of taking the host's memory.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into pytest
        code, err = 1, io.StringIO()
        try:
            os.close(read_end)
            with open("/proc/self/statm") as f:
                size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            limit = size + headroom if hard == resource.RLIM_INFINITY else min(hard, size + headroom)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
        except Exception:
            err.write(traceback.format_exc())
        finally:
            os.write(write_end, err.getvalue().encode())
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as f:
        err = f.read()
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), err


CAN_CAP = hasattr(os, "fork") and os.path.exists("/proc/self/statm")
needs_fork_and_statm = pytest.mark.skipif(not CAN_CAP, reason="needs fork and /proc/self/statm")


# ---------------------------------------------------------------------------
# ccdf subcommand

def test_ccdf_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(
        ["ccdf", *BASE, "--scheme", "slm", "--u", "2", "--pss", "random", "--perm", "random",
         "--trials", "2000", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    csv_lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "gamma_db,ccdf,count,trials"
    assert len(csv_lines) == 1 + 91  # default 4:13:0.1 grid
    first = csv_lines[1].split(",")
    assert first[3] == "2000" and int(first[2]) <= 2000
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["seed"] == 3 and doc["trials"] == 2000
    assert doc["scheme"]["mode"] == "slm" and doc["scheme"]["u"] == 2
    assert len(doc["pss_sha256"]) == 64


def test_ccdf_byte_identical_reruns_and_workers(tmp_path):
    args = ["ccdf", *BASE, "--scheme", "slm", "--u", "2", "--trials", "9000", "--seed", "5"]
    rc = run_cli([*args, "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = run_cli([*args, "--out", str(tmp_path / "b")])
    assert rc == 0
    rc = run_cli([*args, "--workers", "4", "--out", str(tmp_path / "c")])
    assert rc == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a == (tmp_path / "c.csv").read_bytes()


def test_ccdf_different_seed_changes_output(tmp_path):
    args = ["ccdf", *BASE, "--trials", "3000"]
    run_cli([*args, "--seed", "1", "--out", str(tmp_path / "a")])
    run_cli([*args, "--seed", "2", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_ccdf_builds_generator_sets_once(tmp_path, monkeypatch):
    calls = []
    original = ccdf.instantiate_scheme
    # patched wherever the CLI could look the name up
    for module in (ccdf, cli):
        monkeypatch.setattr(module, "instantiate_scheme", lambda plan: calls.append(plan) or original(plan),
                            raising=False)
    rc = run_cli(["ccdf", *BASE, "--u", "2", "--perm", "random", "--trials", "100",
                  "--out", str(tmp_path / "once")])
    assert rc == 0 and len(calls) == 1


def test_ccdf_original_rejects_slm_flags(tmp_path):
    rc = run_cli(
        ["ccdf", *BASE, "--scheme", "original", "--u", "4", "--trials", "10",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    rc = run_cli(
        ["ccdf", *BASE, "--scheme", "original", "--pss", "random", "--trials", "10",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 2


def test_ccdf_original_runs(tmp_path):
    rc = run_cli(["ccdf", *BASE, "--scheme", "original", "--trials", "500", "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.loads((tmp_path / "o.json").read_text())
    assert doc["scheme"]["u"] == 1 and doc["scheme"]["pss_kind"] == "all-ones"


def test_ccdf_invalid_config_exit_2(tmp_path, capsys):
    rc = run_cli(["ccdf", "--n-fft", "60", "--group-size", "15", "--active", "2",
                  "--mod-order", "4", "--trials", "10", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_ccdf_unwritable_path_exit_3(tmp_path):
    rc = run_cli(["ccdf", *BASE, "--trials", "10", "--out", "/nonexistent-dir/deep/run"])
    assert rc == 3


def test_ccdf_failed_run_leaves_no_output(tmp_path, monkeypatch, capsys):
    # a MemoryError ends in one line and exit 2; Python's own has no message
    for error, line in [(MemoryError("run failed"), "error: out of memory: run failed\n"),
                        (MemoryError(), "error: out of memory\n")]:
        def fail(plan, workers=1):
            raise error

        monkeypatch.setattr(cli, "run_ccdf", fail)
        assert run_cli(["ccdf", *BASE, "--trials", "10", "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == line
        assert list(tmp_path.iterdir()) == []


def test_ccdf_rewrite_replaces_output_and_keeps_its_mode(tmp_path):
    args = ["ccdf", *BASE, "--trials", "100", "--out", str(tmp_path / "run")]
    assert run_cli([*args, "--seed", "1"]) == 0
    (tmp_path / "run.csv").chmod(0o640)
    assert run_cli([*args, "--seed", "2"]) == 0
    assert (tmp_path / "run.csv").stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.json"]
    assert '"seed": 2' in (tmp_path / "run.json").read_text()


def test_ccdf_pinned_sets_from_files(tmp_path):
    rng = np.random.default_rng(8)
    pss_file = tmp_path / "pss.json"
    perm_file = tmp_path / "perm.json"
    pss_file.write_text(json.dumps(pss_to_json(gen_random_pss(CFG, 2, rng))))
    perm_file.write_text(json.dumps(perm_set_to_json(gen_perm_set(CFG, 2, "random", rng))))
    rc = run_cli(
        ["ccdf", *BASE, "--scheme", "slm", "--u", "2", "--pss", str(pss_file),
         "--perm", str(perm_file), "--trials", "1000", "--out", str(tmp_path / "pinned")]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "pinned.json").read_text())
    assert doc["scheme"]["pss_kind"] == "pinned" and doc["scheme"]["perm_kind"] == "pinned"


def test_ccdf_malformed_pinned_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = run_cli(["ccdf", *BASE, "--scheme", "slm", "--perm", str(bad), "--trials", "10",
                  "--out", str(tmp_path / "x")])
    assert rc == 2


def assert_clean_exit_2(rc, capsys, tmp_path):
    """Exit 2 with a one-line message and no output file left behind."""
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("x.*"))


def test_ccdf_too_many_hadamard_rows_exit_2(tmp_path, capsys):
    rc = run_cli(["ccdf", *BASE, "--pss", "hadamard", "--u", "100", "--trials", "10",
                  "--out", str(tmp_path / "x")])
    assert_clean_exit_2(rc, capsys, tmp_path)


def test_ccdf_wrong_length_pss_file_exit_2(tmp_path, capsys):
    short_cfg = SystemConfig(n_fft=16, group_size=4, active=2, mod_order=4)
    pss_file = tmp_path / "pss16.json"
    pss_file.write_text(json.dumps(pss_to_json(gen_random_pss(short_cfg, 2, np.random.default_rng(0)))))
    rc = run_cli(["ccdf", *BASE, "--u", "2", "--pss", str(pss_file), "--trials", "10",
                  "--out", str(tmp_path / "x")])
    assert_clean_exit_2(rc, capsys, tmp_path)


def test_ccdf_nan_pss_file_exit_2(tmp_path, capsys):
    # NaN phases must not pass the unit-modulus check and yield all-zero counts
    pss_file = tmp_path / "nan.json"
    pss_file.write_text(json.dumps({"kind": "explicit", "n_fft": 64, "phases": [[float("nan")] * 64] * 2}))
    rc = run_cli(["ccdf", *BASE, "--u", "2", "--pss", str(pss_file), "--trials", "100",
                  "--out", str(tmp_path / "x")])
    assert_clean_exit_2(rc, capsys, tmp_path)


@pytest.mark.parametrize("spec", ["4:13:0", "4:13:-0.1", "4:inf:0.1", "-3:10:0", "-inf:3:1"])
def test_ccdf_bad_gamma_step_exit_2(tmp_path, capsys, spec):
    # a separate value with a negative start is refused as the = form is,
    # not as a missing value
    rc = run_cli(["ccdf", *BASE, "--gamma", spec, "--trials", "10", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: bad gamma spec {spec!r}, expected start:stop:step with step > 0\n"
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("spec", ["1e300:1e301:1e299", "0:1e308:1e307", "1.8e299:1.9e299:1e298"])
def test_ccdf_gamma_grid_that_overflows_exit_2(tmp_path, capsys, spec):
    # rounding to 9 decimals scales each point by 10^9: beyond about 1.8e299
    # that was inf, written as an all-inf gamma column after two warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["ccdf", *BASE, "--gamma", spec, "--trials", "10", "--out", str(tmp_path / "x")])
    assert_clean_exit_2(rc, capsys, tmp_path)
    # huge finite points that round without overflow are a valid grid
    assert np.all(np.isfinite(cli._parse_gamma("1e290:1e291:1e289")))


def test_ccdf_negative_gamma_start_with_equals(tmp_path):
    # argparse alone parses this form; cli.main joins a separate value into it
    rc = run_cli(["ccdf", *BASE, "--gamma=-3:10:1", "--trials", "200", "--out", str(tmp_path / "g")])
    assert rc == 0
    lines = (tmp_path / "g.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 14 and lines[1].startswith("-3,")


@pytest.mark.parametrize("spec", ["-3:10:1", "-.5:2:0.5", "-0.5:-0.1:0.1"])
@pytest.mark.parametrize("flag", ["--gamma", "--gam"])
def test_ccdf_negative_gamma_start_as_a_separate_value(tmp_path, flag, spec):
    # the two forms of the flag, or of its abbreviation, write the same files
    argv = ["ccdf", *BASE, "--trials", "200"]
    assert run_cli([*argv, flag, spec, "--out", str(tmp_path / "apart")]) == 0
    assert run_cli([*argv, f"{flag}={spec}", "--out", str(tmp_path / "joined")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"apart{suffix}").read_bytes() == (tmp_path / f"joined{suffix}").read_bytes()
    first_gamma = (tmp_path / "apart.csv").read_text().split("\n")[1].split(",")[0]
    assert float(first_gamma) == float(spec.split(":")[0])


def test_one_worker_run_never_loads_multiprocessing(tmp_path):
    # pytest or hypothesis may load multiprocessing themselves, so the runs
    # go to a fresh interpreter: import, one worker, then two workers
    code = (
        "import sys\n"
        "import ofdm_im_slm, ofdm_im_slm.cli\n"
        "loaded = ['multiprocessing' in sys.modules]\n"
        "for workers in ('1', '2'):\n"
        "    argv = ['ccdf', *sys.argv[2:], '--workers', workers, '--out', sys.argv[1] + '/w' + workers]\n"
        "    assert ofdm_im_slm.cli.main(argv) == 0\n"
        "    loaded.append('multiprocessing' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccdf.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [str(tmp_path), *BASE, "--trials", str(2 * ccdf.BATCH_TRIALS)]  # two batches: a pool of two
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[False, False, True]"
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"w1{suffix}").read_bytes() == (tmp_path / f"w2{suffix}").read_bytes()


def test_only_verify_var_rho_loads_concurrent_futures(tmp_path):
    # the profile imports its draw-ahead executor when it runs, so importing
    # the package and a one-worker ccdf run leave concurrent.futures unloaded
    code = (
        "import sys\n"
        "import ofdm_im_slm, ofdm_im_slm.cli\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        "for argv in (['ccdf', '--workers', '1', '--out', 'c'], ['verify-var-rho', '--out', 'v.csv']):\n"
        "    assert ofdm_im_slm.cli.main([*argv, *sys.argv[1:], '--trials', '100']) == 0\n"
        "    loaded.append('concurrent.futures' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccdf.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", code, *BASE], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[False, False, True]"


@pytest.mark.parametrize("spec", ["0:1e12:1", f"0:{cli.MAX_GAMMA_POINTS}:1"])
def test_ccdf_gamma_grid_beyond_the_cap_exit_2(tmp_path, capsys, spec):
    # 10^12 points would need 7.28 TiB; the point count is checked before
    # any grid is built, so no memory cap is needed here
    rc = run_cli(["ccdf", *BASE, "--gamma", spec, "--trials", "10", "--out", str(tmp_path / "x")])
    assert_clean_exit_2(rc, capsys, tmp_path)
    assert cli._parse_gamma(f"0:{cli.MAX_GAMMA_POINTS - 1}:1").size == cli.MAX_GAMMA_POINTS


@needs_fork_and_statm
@pytest.mark.parametrize("flags", [["--u", "100000000"], ["--n-fft", "1073741824"], ["--oversample", "100000000"],
                                   ["--mod-order", "4294967296", "--active", "15"]])
def test_ccdf_plan_beyond_the_array_cap_exit_2(tmp_path, flags):
    # tens to hundreds of GiB for the phase sequences, a block, a kernel tile
    # row or the constellation: each is refused from the plan's arguments,
    # before anything is allocated
    rc, err = run_cli_capped(["ccdf", *flags, "--trials", "1", "--out", str(tmp_path / "x")])
    assert rc == 2, err
    assert err.startswith("error: invalid plan: ") and err.count("\n") == 1
    assert f"more than {ccdf.MAX_PLAN_ELEMENTS}" in err
    assert list(tmp_path.iterdir()) == []


@needs_fork_and_statm
@pytest.mark.parametrize("argv", [
    ["analyze-pss", "--n-fft", "1073741824"],  # the U x N phase sequences: 16 GiB
    ["analyze-pss", "--u", "100000000"],
    ["analyze-perm", "--n-fft", "65536"],  # the N x N mu grid: 32 GiB
    ["analyze-perm", "--n-fft", "8192"],  # 2^26 values, just above the cap
    ["analyze-perm", "--u", "100000000"],  # the U x N drawn set: 48 GiB
    ["verify-var-rho", "--n-fft", "1073741824", "--trials", "1"],  # one chunk of patterns: 8 GiB
    ["verify-var-rho", "--n-fft", "2048", "--trials", "20000"],  # 20000 x 2048, just above the cap
])
def test_analysis_command_beyond_the_array_cap_exit_2(tmp_path, argv):
    # each command works out its largest array from its arguments and is
    # refused before it allocates or writes anything
    rc, err = run_cli_capped([*argv, "--out", str(tmp_path / "x.out")])
    assert rc == 2, err
    assert err.startswith("error: invalid run: ") and err.count("\n") == 1
    assert f"more than {ccdf.MAX_PLAN_ELEMENTS}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("group_size,active", [(32, 16), (64, 32)])
def test_ccdf_bits_source_with_huge_pattern_table_exit_2(tmp_path, capsys, group_size, active):
    # 2^29 and 2^60 ranked patterns: rejected before any table or batch
    rc = run_cli(["ccdf", "--n-fft", "64", "--group-size", str(group_size), "--active", str(active),
                  "--sap-source", "bits", "--trials", "10", "--out", str(tmp_path / "x")])
    assert_clean_exit_2(rc, capsys, tmp_path)


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_ccdf_nonpositive_workers_exit_2(tmp_path, capsys, workers):
    rc = run_cli(["ccdf", *BASE, "--workers", workers, "--trials", "10", "--out", str(tmp_path / "x")])
    assert_clean_exit_2(rc, capsys, tmp_path)


def child_pids(pid: int) -> list:
    """Processes whose parent is ``pid``, read from /proc/<pid>/stat."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            with contextlib.suppress(OSError):
                with open(f"/proc/{entry}/stat") as f:
                    # the command name in parentheses may hold spaces: fields after it
                    fields = f.read().rsplit(")", 1)[1].split()
                if int(fields[1]) == pid:
                    found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc/<pid>/stat")
def test_ccdf_ctrl_c_ends_a_two_worker_run_with_one_line(tmp_path):
    # Ctrl-C sends SIGINT to the terminal's whole process group, workers included
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccdf.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "ofdm_im_slm.cli", "ccdf", *BASE, "--trials", str(10**8), "--workers", "2", "--out", "run"]
    # as in a terminal's foreground job, SIGINT has its default action in the
    # child even when this process was started with it ignored
    proc = subprocess.Popen(
        cmd, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        while len(child_pids(proc.pid)) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(child_pids(proc.pid)) == 2, "the two workers never started"
        time.sleep(0.5)  # past the workers' initializer
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert err.decode().splitlines() == ["interrupted"]
    assert os.listdir(tmp_path) == []  # no output and no .tmp file
    # the new session's process group is empty: no worker outlived the run
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="needs /proc/<pid>/task")
def test_verify_var_rho_ctrl_c_ends_the_run_and_its_draw_thread_with_one_line(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccdf.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # with the math libraries on one thread, a second thread is the pattern draw
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    cmd = [sys.executable, "-m", "ofdm_im_slm.cli", "verify-var-rho", *BASE, "--trials", str(10**8), "--out", "v.csv"]
    proc = subprocess.Popen(
        cmd, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        threads = 0
        while threads < 2 and proc.poll() is None and time.monotonic() < deadline:
            with contextlib.suppress(OSError):
                threads = len(os.listdir(f"/proc/{proc.pid}/task"))
            time.sleep(0.01)
        assert threads >= 2, "the draw thread never started"
        time.sleep(0.3)  # a few chunks into the run
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        _, err = proc.communicate(timeout=60)
        ended = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert err.decode().splitlines() == ["interrupted"]
    assert os.listdir(tmp_path) == []  # no output and no .tmp file
    assert ended < 5  # at most one chunk's draw is waited for


@pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
def test_run_that_the_caps_admit_but_memory_does_not_ends_with_one_line(tmp_path):
    # u * N is exactly MAX_PLAN_ELEMENTS, so every check passes, but the run
    # holds several 256-512 MiB arrays at once: under 1 GiB of address space
    # this ended in an _ArrayMemoryError traceback and exit 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccdf.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # the math libraries on one thread: their buffers, which grow with the
    # core count, then leave the same room under the limit on any host
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
    argv = ["ccdf", "--n-fft", "8192", "--group-size", "16", "--active", "14", "--u", "4096", "--trials", "10"]
    assert 4096 * 8192 == ccdf.MAX_PLAN_ELEMENTS
    proc = subprocess.run(
        [sys.executable, "-m", "ofdm_im_slm.cli", *argv, "--out", "run"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
        # limits the child only, before it starts the interpreter
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == []  # no output and no .tmp file


@pytest.mark.parametrize("argv", [["analyze-perm", "--u", "4", "--seed", "1"], ["verify-var-rho", "--trials", "200"]])
def test_closed_stdout_ends_quietly_with_exit_141(tmp_path, argv):
    # the read end is closed before the run starts, so every write to stdout
    # fails; this ended in a BrokenPipeError traceback and exit 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccdf.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ofdm_im_slm.cli", *argv, *BASE], cwd=tmp_path, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.returncode == 141 and proc.stderr.count("\n") <= 1
    assert os.listdir(tmp_path) == []


# each value is valid in at least three draws of four, so that runs that
# succeed are common too
SMALL_INT = st.sampled_from(["1", "2"]) | st.sampled_from(["-1", "0", "1", "2"])
# huge finite bounds too, whose points overflow when rounded to 9 decimals
# ("1e290:…" does not)
GAMMA = (st.sampled_from(["4:13:0.1", "0:20:1", "5:5:1", "1e290:1e291:1e289"])
         | st.sampled_from(["13:4:0.1", "4:13:0", "4:inf:0.1", "nan:1:1"])
         | st.sampled_from(["1e300:1e301:1e299", "0:1e308:1e307", "1.8e299:1.9e299:1e298"]))
# negative seeds, and seeds of 64 bits and more, which numpy takes
SEED = st.integers(-3, 3).map(str) | st.integers((1 << 64) - 1, 1 << 66).map(str)


def just_above_the_cap(opts: dict, which: str) -> dict:
    """``opts`` with --u, --oversample, --n-fft or --mod-order raised to the
    least value that takes the plan's largest array over
    ccdf.MAX_PLAN_ELEMENTS."""
    n_fft, trials = int(opts["--n-fft"]), max(1, int(opts["--trials"]))
    u, oversample = max(1, int(opts.get("--u", "1"))), max(1, int(opts["--oversample"]))
    cap, batch = ccdf.MAX_PLAN_ELEMENTS, min(trials, ccdf.BATCH_TRIALS)
    if which == "--u":
        opts["--u"] = str(cap // (n_fft * oversample) + 1)
    elif which == "--oversample":
        opts["--oversample"] = str(cap // (u * n_fft) + 1)
    elif which == "--mod-order":  # M symbols; the least power of two above the cap
        opts["--mod-order"] = str(1 << cap.bit_length())
    else:
        while max(batch, u * oversample) * n_fft <= cap:
            n_fft *= 2
        opts["--n-fft"] = str(n_fft)
    return opts


@st.composite
def ccdf_argvs(draw):
    """ccdf argument lists with n_fft <= 64, any group split, tiny counts.

    One in four instead has --u, --oversample, --n-fft or --mod-order just
    above the plan's array cap: such a run must exit 2 before it allocates.
    """
    n_fft = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    group_size = draw(st.sampled_from([g for g in (2, 4, 8, 16, 32, 64) if g <= n_fft]))
    opts = {"--n-fft": str(n_fft), "--group-size": str(group_size),
            "--active": str(draw(st.integers(1, group_size - 1))),
            "--mod-order": draw(st.sampled_from(["2", "4", "16"])),
            "--scheme": draw(st.sampled_from(["slm", "original"]))}
    if opts["--scheme"] == "slm" or draw(st.integers(0, 3)) == 0:  # SLM flags with original: exit 2
        opts.update({"--u": draw(SMALL_INT), "--pss": draw(st.sampled_from(["random", "hadamard"])),
                     "--perm": draw(st.sampled_from(["identity", "random"]))})
    opts.update({
        "--sap-source": draw(st.sampled_from(["uniform", "bits"])),
        "--trials": draw(SMALL_INT), "--workers": draw(SMALL_INT), "--oversample": draw(SMALL_INT),
        "--gamma": draw(GAMMA), "--seed": draw(SEED),
    })
    knobs = ["--u", "--oversample", "--n-fft", "--mod-order"]
    oversized = draw(st.sampled_from(knobs)) if draw(st.integers(0, 3)) == 0 else None
    if oversized:
        opts = just_above_the_cap(opts, oversized)
    return ["ccdf", *(x for item in opts.items() for x in item)], oversized is not None


@settings(max_examples=200, deadline=None)
@given(case=ccdf_argvs(), writable=st.booleans())
def test_ccdf_any_small_invocation_ends_cleanly(case, writable):
    """Exit 0 with a well-formed CSV and plan JSON, or exit 2/3 with one
    stderr line and nothing left in the output directory."""
    argv, oversized = case
    with tempfile.TemporaryDirectory() as root:
        outdir = root if writable else os.path.join(root, "missing")
        argv = [*argv, "--out", os.path.join(outdir, "run")]
        if oversized:
            if not CAN_CAP:
                return
            rc, err = run_cli_capped(argv)
            # refused from its arguments, not ended by the memory it took
            assert rc == 2 and "out of memory" not in err, err
        else:
            buf = io.StringIO()
            with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            err = buf.getvalue()
        left = sorted(os.listdir(root))
        if rc != 0:
            assert rc in (2, 3)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert left == []
            return
        assert writable and left == ["run.csv", "run.json"]
        opts = dict(zip(argv[1::2], argv[2::2]))
        trials = int(opts["--trials"])
        with open(os.path.join(root, "run.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()]
        assert rows[0] == ["gamma_db", "ccdf", "count", "trials"] and len(rows) > 1
        counts = [int(r[2]) for r in rows[1:]]
        assert all(0 <= c <= trials and r[3] == str(trials) for c, r in zip(counts, rows[1:]))
        assert counts == sorted(counts, reverse=True)
        with open(os.path.join(root, "run.json")) as f:
            doc = json.load(f)
        assert doc["trials"] == trials and doc["seed"] == int(opts["--seed"])
        assert len(doc["gamma_db"]) == len(rows) - 1


# a value each integer flag should refuse, besides the out-of-range ones
MALFORMED_INT = st.sampled_from(["1.5", "x", ""])


@st.composite
def analysis_argvs(draw, command):
    """analyze-perm, analyze-pss or verify-var-rho argument lists with
    n_fft <= 64, any group split, tiny counts, and now and then a malformed
    integer or an unknown flag."""
    n_fft = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    group_size = draw(st.sampled_from([g for g in (2, 4, 8, 16, 32, 64) if g <= n_fft]))
    opts = {"--n-fft": str(n_fft), "--group-size": str(group_size),
            "--active": str(draw(st.integers(0, group_size))),
            "--mod-order": draw(st.sampled_from(["2", "4", "16"])),
            "--seed": draw(SEED | MALFORMED_INT)}
    small = SMALL_INT | MALFORMED_INT
    if command == "analyze-perm":
        opts.update({"--kind": draw(st.sampled_from(["identity", "random", "pinned"])), "--u": draw(small)})
    elif command == "analyze-pss":
        opts.update({"--pss": draw(st.sampled_from(["random", "hadamard"])),
                     "--pss-alphabet": draw(st.sampled_from(["binary", "quaternary", "continuous"])),
                     "--u": draw(small)})
    else:
        opts.update({"--trials": draw(small),
                     "--m-values": draw(st.sampled_from(["0", "0,1", str(n_fft - 1), str(n_fft), "-1", "1,,2", ""]))})
    argv = [command, *(x for item in opts.items() for x in item)]
    if command == "analyze-pss":
        argv += ["--pair", *draw(st.lists(st.sampled_from(["-1", "0", "1", "2"]), min_size=2, max_size=2))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--trials=1", "--u=2"])))
    return argv


@pytest.mark.parametrize("command", ["analyze-perm", "analyze-pss", "verify-var-rho"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_analysis_any_small_invocation_ends_cleanly(command, data):
    """Exit 0 with the output written, or exit 2/3 with one stderr line and
    nothing left in the output directory; never a traceback or SystemExit."""
    argv = data.draw(analysis_argvs(command), label="argv")
    writable = data.draw(st.booleans(), label="writable")
    with tempfile.TemporaryDirectory() as root:
        outdir = root if writable else os.path.join(root, "missing")
        rc, err = run_quietly([*argv, "--out", os.path.join(outdir, "out.txt")])
        left = sorted(os.listdir(root))
    if rc != 0:
        assert rc in (2, 3), err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert left == []
    else:
        assert writable and left == ["out.txt"] and err == ""


def test_ccdf_gamma_flag(tmp_path):
    rc = run_cli(["ccdf", *BASE, "--gamma", "5:8:0.5", "--trials", "200", "--out", str(tmp_path / "g")])
    assert rc == 0
    lines = (tmp_path / "g.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 7
    assert lines[1].startswith("5,") and lines[-1].startswith("8,")


# ---------------------------------------------------------------------------
# analyze-perm

def test_analyze_perm_identity_reports_63(tmp_path, capsys):
    out = tmp_path / "mu.json"
    rc = run_cli(["analyze-perm", "--n-fft", "64", "--group-size", "16", "--kind", "identity",
                  "--u", "2", "--out", str(out)])
    assert rc == 0
    assert "aggregate mu = 63" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert abs(doc["aggregate_mu"] - 63.0) < 1e-9
    assert doc["pairs"][0]["mu"] == doc["aggregate_mu"]


def test_analyze_perm_random_below_identity(tmp_path):
    out = tmp_path / "mu.json"
    rc = run_cli(["analyze-perm", "--n-fft", "64", "--group-size", "16", "--kind", "random",
                  "--u", "4", "--seed", "9", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["pairs"]) == 6
    assert doc["aggregate_mu"] < 63.0


def test_analyze_perm_non_bijective_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "perm.json"
    bad.write_text(json.dumps({"perms": [[0] * 64]}))
    rc = run_cli(["analyze-perm", "--n-fft", "64", "--group-size", "16", "--perm-file", str(bad)])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


def test_analyze_perm_single_perm_exit_2(tmp_path):
    rc = run_cli(["analyze-perm", "--n-fft", "64", "--group-size", "16", "--kind", "identity", "--u", "1"])
    assert rc == 2


def test_analyze_perm_one_row_file_exit_2(tmp_path, capsys):
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(perm_set_to_json(gen_perm_set(CFG, 1, "identity"))))
    rc = run_cli(["analyze-perm", "--n-fft", "64", "--group-size", "16", "--perm-file", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: need at least two permutations to form a pair\n"


def fail_if_called(*args, **kwargs):
    raise AssertionError("ran past the check")


@pytest.mark.parametrize("u", ["-3", "0", "1"])
def test_analyze_perm_fewer_than_two_drawn_perms_exit_2(monkeypatch, capsys, u):
    monkeypatch.setattr(cli, "gen_perm_set", fail_if_called)  # refused before the draw
    rc = run_cli(["analyze-perm", "--n-fft", "64", "--group-size", "16", "--u", u])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: --u must be >= 2 to form a pair, got {u}\n"


@pytest.mark.parametrize("how", ["drawn", "file"])
def test_analyze_perm_beyond_the_work_cap_exit_2(tmp_path, capsys, monkeypatch, how):
    # 1.4 * 10^11 pairs at N = 64 (within the array cap), or 66 pairs of
    # 4096 x 4096 grids from a small file: both are refused from the set's
    # size, before any set is drawn or grid built, which here fails the test
    # instead of running for hours
    monkeypatch.setattr(cli, "gen_perm_set", fail_if_called)
    monkeypatch.setattr(cli, "mu_metric", fail_if_called)
    if how == "drawn":
        argv = ["analyze-perm", "--u", "524288"]
    else:
        cfg = SystemConfig(n_fft=4096, group_size=16, active=1, mod_order=4)
        path = tmp_path / "perm.in"
        path.write_text(json.dumps(perm_set_to_json(gen_perm_set(cfg, 12, "identity", None))))
        argv = ["analyze-perm", "--n-fft", "4096", "--perm-file", str(path)]
    rc = run_cli([*argv, "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: invalid run: ") and err.count("\n") == 1
    assert f"more than {cli.MAX_MU_GRID_VALUES}" in err
    assert not (tmp_path / "x.json").exists()


def test_analyze_perm_work_cap_boundary():
    # at N = 64 the cap allows 2^18 pairs: U = 724 gives 261726, U = 725 262450
    cli._check_mu_work(724, 64)
    with pytest.raises(cli.CliError) as exc:
        cli._check_mu_work(725, 64)
    assert exc.value.code == 2
    for u in (-1000000, 0, 1):
        cli._check_mu_work(u, 1 << 20)  # no pair: gen_perm_set and the pair check refuse these


# ---------------------------------------------------------------------------
# analyze-pss

def test_analyze_pss_hadamard(tmp_path):
    out = tmp_path / "spec.csv"
    rc = run_cli(["analyze-pss", *BASE, "--pss", "hadamard", "--u", "3", "--pair", "1", "2",
                  "--seed", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# c=0.177261125"
    assert lines[1].startswith("# bound=")
    assert lines[2] == "m,full,punctured"
    assert len(lines) == 3 + 64
    # all magnitudes within [0, 1]
    for row in lines[3:]:
        _, full, punct = row.split(",")
        assert 0.0 <= float(full) <= 1.0 and 0.0 <= float(punct) <= 1.0


def test_analyze_pss_identity_pair_rejected(tmp_path):
    rc = run_cli(["analyze-pss", *BASE, "--pair", "0", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_analyze_pss_with_sap_file(tmp_path):
    sap_file = tmp_path / "sap.json"
    sap_file.write_text(json.dumps({"groups": [[0, 1], [2, 3], [4, 5], [6, 7]]}))
    out = tmp_path / "spec.csv"
    rc = run_cli(["analyze-pss", *BASE, "--sap-file", str(sap_file), "--seed", "5", "--out", str(out)])
    assert rc == 0


def test_analyze_pss_bad_sap_file(tmp_path):
    sap_file = tmp_path / "sap.json"
    sap_file.write_text(json.dumps({"groups": [[0, 1]]}))  # wrong group count
    rc = run_cli(["analyze-pss", *BASE, "--sap-file", str(sap_file), "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("n_fft", ["4", "2048"])
@pytest.mark.parametrize("command", ["ccdf", "analyze-pss"])
def test_hadamard_pss_outside_its_n_fft_range_exit_2(tmp_path, capsys, command, n_fft):
    # the message was "no built-in polynomial for degree 11; pass taps", but
    # the CLI takes no taps
    argv = [command, "--n-fft", n_fft, "--group-size", "4", "--active", "2", "--pss", "hadamard", "--u", "2"]
    out = ["--trials", "10", "--out", str(tmp_path / "x")] if command == "ccdf" else ["--out", str(tmp_path / "x.csv")]
    rc = run_cli(argv + out)
    err = capsys.readouterr().err
    assert rc == 2 and not list(tmp_path.iterdir())
    what = "invalid generator sets" if command == "ccdf" else "invalid PSS"
    assert err == f"error: {what}: cyclic Hadamard phase sequences need n_fft in 8..1024, got n_fft={n_fft}\n"


def test_analyze_pss_too_many_hadamard_rows_exit_2(tmp_path, capsys):
    rc = run_cli(["analyze-pss", *BASE, "--pss", "hadamard", "--u", "100", "--out", str(tmp_path / "x.csv")])
    assert_clean_exit_2(rc, capsys, tmp_path)


@pytest.mark.parametrize("u", ["0", "-1"])
def test_analyze_pss_nonpositive_hadamard_u_exit_2(tmp_path, capsys, u):
    rc = run_cli(["analyze-pss", *BASE, "--pss", "hadamard", "--u", u, "--pair", "1", "2",
                  "--out", str(tmp_path / "x.csv")])
    assert_clean_exit_2(rc, capsys, tmp_path)


def test_analyze_pss_length_mismatch_exit_2(tmp_path):
    short_cfg = SystemConfig(n_fft=16, group_size=4, active=2, mod_order=4)
    pss_file = tmp_path / "pss16.json"
    pss_file.write_text(json.dumps(pss_to_json(gen_random_pss(short_cfg, 2, np.random.default_rng(0)))))
    rc = run_cli(["analyze-pss", *BASE, "--pss-file", str(pss_file), "--out", str(tmp_path / "x.csv")])
    assert rc == 2


# ---------------------------------------------------------------------------
# verify-var-rho

def test_verify_var_rho_table(tmp_path):
    out = tmp_path / "var.csv"
    rc = run_cli(["verify-var-rho", *BASE, "--trials", "20000", "--seed", "6",
                  "--m-values", "1,3,16", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,analytic,empirical,rel_error"
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
    assert set(rows) == {1, 3, 16}
    assert rows[1][1] == "0.116666667"  # (1/64)(16/15)(8-1)
    assert float(rows[1][3]) < 0.05
    assert rows[16][1] == "0" and float(rows[16][2]) < 1e-20 and rows[16][3] == ""


def test_verify_var_rho_stdout_all_lags(capsys):
    rc = run_cli(["verify-var-rho", *BASE, "--trials", "2000", "--seed", "7"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 64


def test_verify_var_rho_zero_trials_exit_2(tmp_path, capsys):
    rc = run_cli(["verify-var-rho", *BASE, "--trials", "0", "--out", str(tmp_path / "x.csv")])
    assert_clean_exit_2(rc, capsys, tmp_path)


def test_verify_var_rho_bad_m_values():
    rc = run_cli(["verify-var-rho", *BASE, "--trials", "100", "--m-values", "1,99"])
    assert rc == 2


def test_verify_var_rho_empty_m_values_exit_2(capsys):
    rc = run_cli(["verify-var-rho", *BASE, "--trials", "100", "--m-values", ""])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: bad --m-values ''\n"


# ---------------------------------------------------------------------------
# output names

@pytest.mark.parametrize("argv,out", [
    (["ccdf", "--trials", "10"], ""),
    (["ccdf", "--trials", "10"], ".csv"),
    (["ccdf", "--trials", "10"], "some/dir/"),
    (["ccdf", "--trials", "10"], "some/dir/.csv"),
    (["verify-var-rho", "--trials", "10"], ""),
    (["analyze-perm"], ""),
    (["analyze-pss"], ""),
    (["analyze-pss"], "some/dir/"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v))
def test_out_that_names_no_file_exit_2(tmp_path, monkeypatch, capsys, argv, out):
    # nothing is written, not even a hidden .csv, .json or .tmp file in the
    # working directory or in the named one
    (tmp_path / "some" / "dir").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    rc = run_cli([*argv, *BASE, "--out", out])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: --out {out!r} names no file\n"
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["some", "some/dir"]


@pytest.mark.parametrize("argv,work", [
    (["analyze-pss"], "punctured_spectrum"),
    (["analyze-perm", "--u", "3"], "mu_metric"),
    (["verify-var-rho", "--trials", "10"], "var_rho_empirical_profile"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_analysis_output_is_checked_before_the_work(tmp_path, monkeypatch, capsys, argv, work):
    monkeypatch.setattr(cli, work, fail_if_called)
    rc = run_cli([*argv, *BASE, "--out", str(tmp_path / "missing" / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: cannot write ") and str(tmp_path / "missing" / "x.csv") in err
    assert err.count("\n") == 1 and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# input files: one loader for the five file flags

HALF_STEPS = {"perms": [[i + 0.5 for i in range(64)]] * 2}  # int() would make these the identity


@pytest.mark.parametrize("argv,doc", [
    (["ccdf", "--pss"], {}),
    (["ccdf", "--pss"], []),
    (["ccdf", "--perm"], []),
    (["analyze-pss", "--pss-file"], []),
    (["ccdf", "--u", "2", "--perm"], HALF_STEPS),
    (["analyze-perm", "--perm-file"], HALF_STEPS),
    (["analyze-pss", "--sap-file"], {"groups": [[0.5, 3.7]] + [[0, 1]] * 3}),
    (["analyze-pss", "--sap-file"], {"groups": [["1", "3"]] + [[0, 1]] * 3}),
])
def test_malformed_input_file_exit_2(tmp_path, capsys, argv, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "x.out")]
    if argv[0] == "ccdf":
        out = ["--trials", "10", "--out", str(tmp_path / "x")]
    rc = run_cli([argv[0], *BASE, *argv[1:], str(path), *out])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: malformed ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


@needs_fork_and_statm
@pytest.mark.parametrize("argv", [
    ["ccdf", "--u", "2", "--trials", "1", "--out"],
    ["analyze-pss", "--u", "2", "--out"],
])
def test_large_phase_sequence_set_within_the_memory_cap(tmp_path, argv):
    # 2 x 2^18 phase values, within the array cap: a row check that sorted
    # 2N keys of U values each needed about 170x the set's 8 MiB
    rc, err = run_cli_capped([argv[0], "--n-fft", "262144", *argv[1:], str(tmp_path / "x")])
    assert rc == 0, err


CFG8 = SystemConfig(n_fft=8, group_size=4, active=2, mod_order=4)
BASE8 = ["--n-fft", "8", "--group-size", "4", "--active", "2", "--mod-order", "4"]
_rng = np.random.default_rng(0)
# flag -> (arguments before the file, a valid document, the output name)
FILE_FLAGS = {
    "ccdf --pss": (["ccdf", *BASE8, "--u", "2", "--trials", "2", "--pss"],
                   pss_to_json(gen_random_pss(CFG8, 2, _rng)), "run"),
    "ccdf --perm": (["ccdf", *BASE8, "--u", "2", "--trials", "2", "--perm"],
                    perm_set_to_json(gen_perm_set(CFG8, 2, "random", _rng)), "run"),
    "analyze-perm --perm-file": (["analyze-perm", *BASE8, "--perm-file"],
                                 perm_set_to_json(gen_perm_set(CFG8, 3, "random", _rng)), "mu.json"),
    "analyze-pss --pss-file": (["analyze-pss", *BASE8, "--pss-file"],
                               pss_to_json(gen_random_pss(CFG8, 2, _rng)), "spec.csv"),
    "analyze-pss --sap-file": (["analyze-pss", *BASE8, "--sap-file"], {"groups": [[0, 1], [1, 3]]}, "spec.csv"),
}
JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
             | st.integers(-1, 8) | st.sampled_from([0.5, 1.0, "1", 1e300, 10**30]))
JSON = st.recursive(JSON_LEAF, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=10)


@st.composite
def near_valid(draw, doc):
    """``doc`` with one key dropped or renamed, or one value, row or entry replaced."""
    doc = json.loads(json.dumps(doc))
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["drop", "rename", "value", "row", "entry"]))
    if how in ("drop", "rename"):
        value = doc.pop(key)
        if how == "rename":
            doc[key + "s"] = value
    elif how == "value" or not isinstance(doc[key], list):
        doc[key] = draw(JSON)
    else:
        rows = doc[key]
        i = draw(st.integers(0, len(rows) - 1))
        if how == "row":
            rows[i] = draw(JSON)
        else:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(JSON_LEAF)
    return doc


def run_quietly(argv):
    """(exit code, stderr) of ``main(argv)``; a warning counts as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("flag", sorted(FILE_FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_input_file_ends_cleanly(flag, data):
    """Any small JSON document, or a valid one with one key or entry wrong,
    gives exit 0 with the output, or exit 2 with one stderr line and none."""
    head, valid, name = FILE_FLAGS[flag]
    doc = data.draw(JSON | near_valid(valid), label="doc")
    with tempfile.TemporaryDirectory() as root:
        path, outdir = os.path.join(root, "in.json"), os.path.join(root, "out")
        os.mkdir(outdir)
        with open(path, "w") as f:
            json.dump(doc, f)
        rc, err = run_quietly([*head, path, "--out", os.path.join(outdir, name)])
        left = os.listdir(outdir)
    assert rc in (0, 2), err
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert left == []
    else:
        assert left


def just_above_the_analysis_cap(command: str, knob: str, n_fft: int, u: int, trials: int) -> dict:
    """The least --u or --n-fft that takes the command's largest array over
    ccdf.MAX_PLAN_ELEMENTS: the N x N mu grid or the U x N drawn set of
    analyze-perm, the U x N set of analyze-pss, one chunk of verify-var-rho."""
    cap = ccdf.MAX_PLAN_ELEMENTS
    rows = {"analyze-perm": lambda n: max(u, n), "analyze-pss": lambda n: u,
            "verify-var-rho": lambda n: min(trials, analysis.VAR_RHO_CHUNK)}[command]
    if knob == "--u":
        return {"--u": str(cap // n_fft + 1)}
    while rows(n_fft) * n_fft <= cap:
        n_fft *= 2
    return {"--n-fft": str(n_fft)}


@needs_fork_and_statm
@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(["analyze-perm", "analyze-pss", "verify-var-rho"]), data=st.data())
def test_analysis_command_just_above_its_cap_exit_2(command, data):
    n_fft = data.draw(st.sampled_from([8, 16, 32, 64]), label="n_fft")
    group_size = data.draw(st.sampled_from([g for g in (2, 4, 8) if g <= n_fft]), label="group_size")
    u = data.draw(st.integers(1, 4), label="u")
    trials = data.draw(st.sampled_from([1, 2, 20000, 10**9]), label="trials")
    knobs = ["--n-fft"] if command == "verify-var-rho" else ["--u", "--n-fft"]
    knob = data.draw(st.sampled_from(knobs), label="knob")
    opts = {"--n-fft": str(n_fft), "--group-size": str(group_size),
            "--active": str(data.draw(st.integers(1, group_size - 1), label="active"))}
    opts.update({"--trials": str(trials)} if command == "verify-var-rho" else {"--u": str(u)})
    opts.update(just_above_the_analysis_cap(command, knob, n_fft, u, trials))
    with tempfile.TemporaryDirectory() as root:
        argv = [command, *(x for item in opts.items() for x in item), "--out", os.path.join(root, "x.out")]
        rc, err = run_cli_capped(argv)
        left = os.listdir(root)
    assert rc == 2, err
    assert err.startswith("error: invalid run: ") and err.count("\n") == 1
    assert left == []


# ---------------------------------------------------------------------------
# misc

def test_one_parser_serves_every_call(tmp_path, capsys):
    # a flag given in one call is not carried into the next: each call
    # writes what a call with a newly built parser writes
    def run(argv, name):
        assert run_cli([*argv, "--out", str(tmp_path / name)]) == 0
        return {p.suffix: p.read_bytes() for p in tmp_path.glob(name + "*")}

    ccdf_argv = ["ccdf", *BASE, "--trials", "300", "--gamma", "5:9:1"]
    run([*ccdf_argv, "--u", "2"], "two")
    after = run(ccdf_argv, "after")
    pss_argv = ["analyze-pss", "--pss", "hadamard", "--u", "4"]
    pair_1_2 = run([*pss_argv, "--pair", "1", "2"], "pair-1-2.csv")
    pss_after = run(pss_argv, "pss-after.csv")
    cli.build_parser.cache_clear()
    assert run(ccdf_argv, "fresh") == after
    assert json.loads(after[".json"])["scheme"]["u"] == 4
    fresh = run(pss_argv, "pss-fresh.csv")
    assert fresh == pss_after != pair_1_2
    assert fresh == run([*pss_argv, "--pair", "0", "1"], "pair-0-1.csv")
    assert capsys.readouterr().err == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


SUBCOMMAND_ARGVS = {
    "ccdf": ["ccdf", *BASE, "--trials", "10"],
    "verify-var-rho": ["verify-var-rho", *BASE, "--trials", "10"],
    "analyze-pss": ["analyze-pss", *BASE],
    "analyze-perm": ["analyze-perm", *BASE],
}


@pytest.mark.parametrize("seed", ["-1", "-18446744073709551616", "1.5", "x"])
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGVS))
def test_seed_that_is_no_nonnegative_integer_exit_2(tmp_path, capsys, command, seed):
    # analyze-pss and analyze-perm gave a numpy traceback for -1, exit 1
    rc = run_cli([*SUBCOMMAND_ARGVS[command], "--seed", seed, "--out", str(tmp_path / "x.out")])
    assert rc == 2 and list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err == f"error: ofdm-im-slm {command}: argument --seed: must be a nonnegative integer, got {seed!r}\n"


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGVS))
def test_seed_beyond_64_bits_runs(tmp_path, command):
    assert run_cli([*SUBCOMMAND_ARGVS[command], "--seed", str(1 << 70), "--out", str(tmp_path / "x.out")]) == 0


@pytest.mark.parametrize("argv,message", [
    (["ccdf", "--trials", "10"], "ofdm-im-slm ccdf: the following arguments are required: --out"),
    (["ccdf", "--trials", "ten", "--out", "x"], "ofdm-im-slm ccdf: argument --trials: invalid int value: 'ten'"),
    (["ccdf", "--out", "x", "--bogus"], "ofdm-im-slm: unrecognized arguments: --bogus"),
    (["ccdf", "--gamma", "--out", "x"], "ofdm-im-slm ccdf: argument --gamma: expected one argument"),
    (["analyze-pss", "--pair", "1", "--out", "x"], "ofdm-im-slm analyze-pss: argument --pair: expected 2 arguments"),
    (["verify-var-rho", "--scheme", "slm"], "ofdm-im-slm: unrecognized arguments: --scheme slm"),
    (["nosuch"], "ofdm-im-slm: argument command: invalid choice: 'nosuch'"),
    ([], "ofdm-im-slm: the following arguments are required: command"),
    (["ccdf", "--out", "x", "--gamma"], "ofdm-im-slm ccdf: argument --gamma: expected one argument"),
    (["ccdf", "--gamma", "-h", "--out", "x"], "ofdm-im-slm ccdf: argument --gamma: expected one argument"),
])
def test_command_line_error_is_one_line_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # argparse printed the usage too, 3 to 10 lines, and raised SystemExit
    # out of main where every other refusal returns its code
    monkeypatch.chdir(tmp_path)
    rc = run_cli(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
