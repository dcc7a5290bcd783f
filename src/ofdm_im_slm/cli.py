"""Command-line front end.

Subcommands:
  ccdf            run a Monte-Carlo CCDF experiment, write <out>.csv + <out>.json
  analyze-perm    report the pairwise mu metric of a permutation set
  analyze-pss     write full/punctured cross-correlation spectra of a PSS pair
  verify-var-rho  tabulate analytic vs empirical variance of rho(m)

Flag-to-parameter mapping: --n-fft = total subcarriers, --group-size =
subcarriers per group, --active = active subcarriers per group,
--mod-order = constellation order.

Exit codes: 0 success, 2 a command line that argparse refuses (one line,
not the usage), invalid configuration or malformed input (an
--out that names no file among them), a run
whose largest array would hold more than ccdf.MAX_PLAN_ELEMENTS values, or
an analyze-perm run over MAX_MU_GRID_VALUES grid values, or a run that
the caps admit but that runs out of memory (a MemoryError, reported as one
"error: out of memory" line, with no output left behind); 3 unwritable
output path; 130 interrupted (Ctrl-C), with no output left behind; 141
(128 + SIGPIPE) stdout closed by its reader, as in a pipe into head, with
no line on stderr and no partial output file. All randomized outputs are
fully determined by --seed; --workers never changes results.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analysis import (
    VAR_RHO_CHUNK,
    mu_metric,
    punctured_spectrum,
    spectrum_bound,
    var_rho_closed_form,
    var_rho_empirical_profile,
)
from .ccdf import (
    MAX_PLAN_ELEMENTS,
    MODES,
    ORIGINAL,
    SAP_SOURCES,
    SLM,
    SchemeDescriptor,
    TrialPlan,
    curve_csv_text,
    format_sig9,
    plan_json_doc,
    run_ccdf,
)
from .core import Sap, SystemConfig, _as_int, sample_random_sap, sap_from_json
from .slm import (
    HADAMARD_N_FFT,
    PERM_DRAWS,
    PSS_ALPHABETS,
    gen_hadamard_pss,
    gen_perm_set,
    gen_random_pss,
    perm_set_from_json,
    pss_from_json,
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``CliError`` line, exit 2, like
    every other refusal; the subcommand parsers are made of this class too."""

    def error(self, message):
        raise CliError(2, f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """The --seed of every subcommand: any nonnegative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


def _add_config_args(p: argparse.ArgumentParser, active_default=None):
    p.add_argument("--n-fft", type=int, default=64, help="total subcarriers (power of two)")
    p.add_argument("--group-size", type=int, default=16, help="subcarriers per group")
    p.add_argument("--active", type=int, default=active_default, help="active subcarriers per group")
    p.add_argument("--mod-order", type=int, default=4, help="constellation order")


@contextlib.contextmanager
def _refused(what: str = ""):
    """Exit 2 with ``what`` and the message of a ValueError that the block raises."""
    try:
        yield
    except ValueError as e:
        raise CliError(2, f"{what}{e}")


def _build_cfg(args) -> SystemConfig:
    with _refused("invalid configuration: "):
        return SystemConfig(
            n_fft=args.n_fft,
            group_size=args.group_size,
            active=args.active,
            mod_order=args.mod_order,
        )


# Longest gamma grid, in points: a 0.001 dB step over 100 dB. Every point is
# one CSV row and one count, so a spec such as 0:1e12:1 is refused from its
# point count, before the grid is built.
MAX_GAMMA_POINTS = 100_000


def _parse_gamma(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
        if not step > 0:
            raise ValueError("step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
    except (ValueError, OverflowError):
        raise CliError(2, f"bad gamma spec {spec!r}, expected start:stop:step with step > 0")
    if count > MAX_GAMMA_POINTS:
        raise CliError(2, f"gamma spec {spec!r} gives {count} points, more than {MAX_GAMMA_POINTS}")
    try:
        # rounding to 9 decimals scales by 10^9, which overflows beyond about 1.8e299
        with np.errstate(over="raise", invalid="raise"):
            return np.round(start + step * np.arange(count), 9)
    except FloatingPointError:
        raise CliError(2, f"gamma spec {spec!r} overflows when its points are rounded to 9 decimals")


def _check_array_size(rows: int, cols: int):
    """Exit 2 before a run whose largest array, rows x cols values, would be
    over the cap that ``ccdf`` plans have."""
    if rows * cols > MAX_PLAN_ELEMENTS:
        raise CliError(
            2, f"invalid run: it needs an array of {rows} x {cols} values, more than {MAX_PLAN_ELEMENTS}"
        )


# Most mu grid values an analyze-perm run may compute: each of the U(U-1)/2
# pairs builds an N x N grid, at about 100 ns per value on a 2-core x86-64
# host, so a run at the cap takes about two minutes.
MAX_MU_GRID_VALUES = 1 << 30


def _check_mu_work(u: int, n_fft: int):
    """Exit 2 before an analyze-perm run over more than MAX_MU_GRID_VALUES
    grid values."""
    values = max(u, 0) * (u - 1) // 2 * n_fft * n_fft
    if values > MAX_MU_GRID_VALUES:
        raise CliError(
            2, f"invalid run: {u} permutations of {n_fft} need {values} mu grid values, "
            f"more than {MAX_MU_GRID_VALUES}"
        )


def _load(path: str, what: str, parse):
    """``parse(doc)`` of the JSON document at ``path``. Exit 2 if the file
    cannot be read, or if ``parse`` finds the document malformed."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise CliError(2, f"cannot read {path}: {e}")
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CliError(2, f"malformed {what} file {path}: {e}")


def _write_lines(path: str, lines):
    """Write ``lines`` as they are made to a temporary file in the target
    directory, then rename it over ``path``, so a run that fails leaves no
    partial or empty output. An error names ``path``, never the temporary
    file."""
    target = os.path.realpath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".", suffix=".tmp")
    except OSError as e:
        raise CliError(3, f"cannot write {path}: {e.strerror or e}")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(lines)
        os.chmod(tmp, _open_mode(target))
        os.replace(tmp, target)
    except OSError as e:
        raise CliError(3, f"cannot write {path}: {e.strerror or e}")
    finally:
        # already gone after a successful rename
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _open_mode(target: str) -> int:
    """The mode ``open(target, "w")`` leaves: an existing file keeps its own,
    a new one gets 0o666 less the umask."""
    try:
        return os.stat(target).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _check_out(out: str, base: str | None = None, *paths: str):
    """Before a run, and creating nothing: exit 2 for an --out that names no
    file, then exit 3 for an output that could not be written.

    --out names no file if it is empty or ends in a directory separator;
    ``base`` is checked in place of ``out`` when ``out`` has had a suffix
    taken off (``ccdf --out .csv``). Each output, ``paths`` or else ``out``,
    must open for writing if it exists, and its directory must take the
    temporary file that ``_write_lines`` renames into place.
    """
    if not os.path.basename(out if base is None else base):
        raise CliError(2, f"--out {out!r} names no file")
    for path in paths or (out,):
        target = os.path.realpath(path)
        try:
            if os.path.exists(target):
                with open(target, "a"):
                    pass
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".", suffix=".tmp")
            os.close(fd)
            os.remove(tmp)
        except OSError as e:
            raise CliError(3, f"cannot write {path}: {e.strerror or e}")


def _load_sap(path: str, cfg: SystemConfig) -> Sap:
    return _load(path, "SAP", lambda doc: sap_from_json(doc, cfg))


# The PSS names of ccdf --pss and analyze-pss --pss, each with its scheme PSS kind.
PSS_FLAGS = {"random": "random", "hadamard": "cyclic-hadamard"}


# ---------------------------------------------------------------------------
# ccdf

def cmd_ccdf(args) -> int:
    cfg = _build_cfg(args)
    pinned_pss = pinned_perms = None
    if args.scheme == ORIGINAL:
        if args.u is not None or args.pss is not None or args.perm is not None:
            raise CliError(2, "--u/--pss/--perm are not accepted with --scheme original")
        scheme = SchemeDescriptor.original(sap_source=args.sap_source)
    else:
        u = 4 if args.u is None else args.u
        pss_arg = args.pss or "random"
        perm_arg = args.perm or "identity"
        pss_kind = PSS_FLAGS.get(pss_arg, "pinned")
        if pss_kind == "pinned":
            pinned_pss = _load(pss_arg, "PSS", lambda doc: pss_from_json(doc, cfg))
        perm_kind = perm_arg if perm_arg in PERM_DRAWS else "pinned"
        if perm_kind == "pinned":
            pinned_perms = _load(perm_arg, "permutation", lambda doc: perm_set_from_json(doc, cfg))
        with _refused("invalid scheme: "):
            scheme = SchemeDescriptor(
                mode=SLM,
                u=u,
                pss_kind=pss_kind,
                perm_kind=perm_kind,
                sap_source=args.sap_source,
                pss_alphabet=args.pss_alphabet,
                pinned_pss=pinned_pss,
                pinned_perms=pinned_perms,
            )
    with _refused("invalid plan: "):
        plan = TrialPlan(
            cfg=cfg,
            scheme=scheme,
            trials=args.trials,
            seed=args.seed,
            gamma_db=_parse_gamma(args.gamma),
            oversample=args.oversample,
        )
    with _refused():
        _as_int("--workers", args.workers, 1)
    with _refused("invalid generator sets: "):
        plan.generator_sets  # built and checked once, here

    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    csv_path, json_path = base + ".csv", base + ".json"
    _check_out(args.out, base, csv_path, json_path)

    curve = run_ccdf(plan, workers=args.workers)
    _write_lines(csv_path, [curve_csv_text(curve)])
    _write_lines(json_path, [json.dumps(plan_json_doc(plan), indent=2, sort_keys=True) + "\n"])
    print(f"wrote {csv_path} and {json_path} ({plan.trials} trials)")
    return 0


# ---------------------------------------------------------------------------
# analyze-perm

def cmd_analyze_perm(args) -> int:
    cfg = _build_cfg(args)
    # the N x N grid of mu_metric; a drawn set is U x N
    _check_array_size(cfg.n_fft if args.perm_file else max(args.u, cfg.n_fft), cfg.n_fft)
    if not args.perm_file and args.u < 2:
        raise CliError(2, f"--u must be >= 2 to form a pair, got {args.u}")
    if args.out is not None:
        _check_out(args.out)
    if args.perm_file:
        perms = _load(args.perm_file, "permutation", lambda doc: perm_set_from_json(doc, cfg))
        _check_mu_work(perms.u, cfg.n_fft)
    else:
        _check_mu_work(args.u, cfg.n_fft)  # before the set is drawn
        rng = np.random.default_rng(args.seed)
        with _refused():
            perms = gen_perm_set(cfg, args.u, args.kind, rng)
    if perms.u < 2:
        raise CliError(2, "need at least two permutations to form a pair")

    pairs = []
    for u in range(perms.u):
        for v in range(u + 1, perms.u):
            mu = mu_metric(perms.perms[u], perms.perms[v], cfg).mu
            pairs.append({"u": u, "v": v, "mu": mu})
            print(f"pair ({u},{v}): mu = {format_sig9(mu)}")
    aggregate = float(np.mean([p["mu"] for p in pairs]))
    print(f"aggregate mu = {format_sig9(aggregate)}")

    if args.out is not None:
        doc = {
            "n_fft": cfg.n_fft,
            "num_groups": cfg.num_groups,
            "u": perms.u,
            "kind": perms.kind,
            "pairs": pairs,
            "aggregate_mu": aggregate,
        }
        _write_lines(args.out, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# analyze-pss

def cmd_analyze_pss(args) -> int:
    cfg = _build_cfg(args)
    _check_out(args.out)
    rng = np.random.default_rng(args.seed)
    if args.pss_file:
        pss = _load(args.pss_file, "PSS", lambda doc: pss_from_json(doc, cfg))
    else:
        _check_array_size(args.u, cfg.n_fft)  # the U x N set drawn here
        with _refused("invalid PSS: "):
            if PSS_FLAGS[args.pss] == "cyclic-hadamard":
                pss = gen_hadamard_pss(cfg, args.u)
            else:
                pss = gen_random_pss(cfg, args.u, rng, alphabet=args.pss_alphabet)
    u, v = args.pair
    if not (0 <= u < pss.u and 0 <= v < pss.u and u != v):
        raise CliError(2, f"bad pair ({u},{v}) for a set of {pss.u} sequences")

    sap = _load_sap(args.sap_file, cfg) if args.sap_file else sample_random_sap(cfg, rng)
    full = punctured_spectrum(pss.sequences[u], pss.sequences[v])
    punct = punctured_spectrum(pss.sequences[u], pss.sequences[v], sap)
    head = [f"# c={format_sig9(full.c)}\n", f"# bound={format_sig9(spectrum_bound(cfg, full.c))}\n",
            "m,full,punctured\n"]
    magnitudes = enumerate(zip(full.magnitudes, punct.magnitudes))
    rows = (f"{m},{format_sig9(a)},{format_sig9(b)}\n" for m, (a, b) in magnitudes)
    _write_lines(args.out, itertools.chain(head, rows))
    print(f"wrote {args.out} (c = {format_sig9(full.c)})")
    return 0


# ---------------------------------------------------------------------------
# verify-var-rho

def cmd_verify_var_rho(args) -> int:
    cfg = _build_cfg(args)
    # the run holds two chunks of min(trials, VAR_RHO_CHUNK) x K int32 picks (K <= N
    # active subcarriers), the one transformed and the one drawn ahead: 8K bytes
    # a pattern, which this check of N complex values a pattern still over-estimates
    _check_array_size(min(args.trials, VAR_RHO_CHUNK), cfg.n_fft)
    if args.out is not None:
        _check_out(args.out)
    if args.m_values is not None:
        try:
            m_list = [int(v) for v in args.m_values.split(",")]
        except ValueError:
            raise CliError(2, f"bad --m-values {args.m_values!r}")
        if any(not 0 <= m < cfg.n_fft for m in m_list):
            raise CliError(2, "--m-values out of range")
    else:
        m_list = range(cfg.n_fft)
    with _refused("invalid run: "):
        empirical = var_rho_empirical_profile(cfg, args.trials, np.random.default_rng(args.seed))

    def lines():
        yield "m,analytic,empirical,rel_error\n"
        for m in m_list:
            analytic = var_rho_closed_form(cfg, m)
            emp = float(empirical[m])
            rel = format_sig9(abs(emp - analytic) / analytic) if analytic > 0 else ""
            yield f"{m},{format_sig9(analytic)},{format_sig9(emp)},{rel}\n"

    if args.out is not None:
        _write_lines(args.out, lines())
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(lines())
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one in the process: each ``parse_args`` fills a new namespace."""
    parser = _Parser(prog="ofdm-im-slm", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"ofdm-im-slm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    hadamard = "hadamard (n_fft {}..{})".format(*HADAMARD_N_FFT)

    p = sub.add_parser("ccdf", help="run a Monte-Carlo CCDF experiment")
    _add_config_args(p, active_default=2)
    p.add_argument("--scheme", choices=MODES, default="slm")
    p.add_argument("--u", type=int, default=None, help="SLM branches (default 4)")
    p.add_argument("--pss", default=None, help=f"random, {hadamard}, or a PSS JSON file")
    p.add_argument("--perm", default=None, help="identity, random, or a permutation JSON file")
    p.add_argument("--pss-alphabet", choices=PSS_ALPHABETS, default="quaternary")
    p.add_argument("--sap-source", choices=SAP_SOURCES, default="uniform")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--gamma", default="4:13:0.1",
                   help="gamma grid start:stop:step in dB, such as 4:13:0.1 or -3:10:1")
    p.add_argument("--oversample", type=int, default=1)
    p.add_argument("--workers", type=int, default=1, help="worker processes, >= 1 (at most one per batch is started)")
    p.add_argument("--out", required=True, help="output base path; writes <out>.csv and <out>.json")
    p.set_defaults(func=cmd_ccdf)

    p = sub.add_parser("analyze-perm", help="mu metric of a permutation set")
    _add_config_args(p, active_default=1)
    p.add_argument("--perm-file", default=None, help="permutation set JSON file")
    p.add_argument("--kind", choices=PERM_DRAWS, default="random")
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(func=cmd_analyze_perm)

    p = sub.add_parser("analyze-pss", help="cross-correlation spectra of a PSS pair")
    _add_config_args(p, active_default=2)
    p.add_argument("--pss-file", default=None, help="PSS JSON file")
    p.add_argument("--pss", choices=PSS_FLAGS, default="random", help=f"random, or {hadamard}")
    p.add_argument("--pss-alphabet", choices=PSS_ALPHABETS, default="quaternary")
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--pair", type=int, nargs=2, default=(0, 1), metavar=("U", "V"))
    p.add_argument("--sap-file", default=None, help="SAP JSON file (default: random SAP from --seed)")
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_pss)

    p = sub.add_parser("verify-var-rho", help="analytic vs empirical variance of rho(m)")
    _add_config_args(p, active_default=2)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--m-values", default=None, help="comma-separated lags (default: all)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_var_rho)

    return parser


def _join_negative_gamma(argv: list) -> list:
    """``argv`` with each ``--gamma -VALUE`` written ``--gamma=-VALUE``, so
    that a negative start such as ``-3:10:1`` parses as in the ``=`` form.

    argparse reads a separate value that starts with "-" and is no plain
    number as a flag. The flags of ``ccdf`` are -h and names that start
    with "--"; those after ``--gamma`` are left as they are. argparse also
    takes ``--ga``, ``--gam`` and ``--gamm`` for ``--gamma`` (``--g`` is
    ambiguous with ``--group-size``), so those are joined too.
    """
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 3 and "--gamma".startswith(flag) and arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        try:
            argv = _join_negative_gamma(sys.argv[1:] if argv is None else list(argv))
            # --help and --version still print and raise SystemExit(0)
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            # a reader of stdout that has gone (a pipe into head) shows here,
            # and not in the interpreter's own flush at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout now writes to devnull, so the flush at exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except MemoryError as e:
        # the caps bound single arrays, not all that a run holds at once; an
        # output being written has been removed by _write_lines
        detail = " ".join(str(e).split())
        print(f"error: out of memory{': ' if detail else ''}{detail}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # the worker pool has ended on the way out of run_ccdf, and a partly
        # written output has been removed by _write_lines
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
