"""Command-line surface: parameter sweeps, validation and simulation runs.

Subcommands: ``rates``, ``contour``, ``validate``, ``mc``, ``qsim``.  A
command prints nothing: it returns ``(exit_code, stdout_text, stderr_lines,
table)``, and ``main`` alone renders that, the stderr lines first, then the
stdout text, then the table.  The table is CSV text, or None; it goes to
stdout, or with ``--out`` to that file plus a ``<out>.meta.json`` companion
recording the fully resolved parameter set.  All numeric CSV output uses the
fixed ``%.6e`` format with stable headers and row order.

Exit codes: 0 success, 1 validation failure (also a refused out-of-regime
contour and an F_ent quadrature that does not converge), 2 usage error
(also a count too large to allocate), 3 config error.  Errors print one
line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
# argparse's gettext loads locale on the first parse; load it with the CLI
import locale  # noqa: F401
import math
import os
import sys

import numpy as np

from . import acceptance, fidelity, mcsim, rates
from .params import (ConfigError, ParameterSet, default_parameters,
                     load_config, to_dict, with_link)

_FMT = "%.6e"


def _sweep(variable: str, start: float, stop: float, points: int,
           log: bool = False) -> np.ndarray:
    """``points`` values from ``start`` to ``stop``, evenly spaced, or evenly
    in log10 when ``log``; a bad range is a ValueError naming ``variable``."""
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{variable}: sweep bounds must be finite")
    if points < 2:
        raise ValueError(f"{variable}: a sweep needs at least two points")
    if not start < stop:
        raise ValueError(f"{variable}: sweep start must be below stop")
    if not log:
        return np.linspace(start, stop, points)
    if start <= 0:
        raise ValueError(f"{variable}: log sweeps need a positive start")
    return np.logspace(math.log10(start), math.log10(stop), points)


def _csv(header: str, row_format: str, columns) -> str:
    """CSV text: ``header``, then one ``row_format`` line per row of the
    equal-length ``columns``, all rendered by one ``%``."""
    columns = tuple(columns)
    values = tuple(itertools.chain.from_iterable(zip(*columns)))
    rows = len(values) // len(columns)
    return f"{header}\n" + (row_format + "\n") * rows % values


_CONFIG = ("--config", {"help": "parameter file (flat key = value text)"})
_PARAM = ("--param", {"action": "append", "metavar": "KEY=VALUE",
                      "help": "override one parameter; repeatable"})
_OUT = ("--out", {"help": "write CSV here instead of stdout"})

#: Each subcommand's help text and its ``(flag, add_argument kwargs)``
#: options, in the order ``--help`` lists them.
_SUBCOMMANDS = {
    "rates": ("distribution rate vs distance sweep", (
        _CONFIG, _PARAM, _OUT,
        ("--l-min-km", {"type": float, "default": 100.0}),
        ("--l-max-km", {"type": float, "default": 1000.0}),
        ("--l-points", {"type": int, "default": 19}),
        ("--log", {"action": "store_true",
                   "help": "logarithmic distance spacing"}),
        ("--source-rate", {"type": float, "default": 1e10,
                           "help": "direct-transmission source rate (Hz)"}))),
    "contour": ("overall fidelity on a Purcell x polarization grid", (
        _CONFIG, _PARAM, _OUT,
        ("--fp-min", {"type": float, "default": 100.0}),
        ("--fp-max", {"type": float, "default": 1000.0}),
        ("--fp-points", {"type": int, "default": 10}),
        ("--pol-min", {"type": float}),
        ("--pol-max", {"type": float}),
        ("--pol-points", {"type": int}),
        ("--force", {"action": "store_true",
                     "help": "compose even when validity warnings fire"}))),
    "validate": ("run the full acceptance suite", (_CONFIG, _PARAM)),
    "mc": ("Monte Carlo waiting-time simulation", (
        _CONFIG, _PARAM, _OUT,
        ("--seed", {"type": int, "default": 1, "help": "RNG seed"}),
        ("--trials", {"type": int, "default": 10_000,
                      "help": "Monte Carlo trial count"}),
        ("--p0", {"type": float,
                  "help": "override the derived link success probability"}),
        ("--p-swap", {"type": float, "help": "override the derived swap "
                                             "success probability"}),
        ("--cutoff", {"type": float,
                      "help": "memory storage cutoff in seconds"}))),
    "qsim": ("exact quantum-oracle consistency checks", ()),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand is registered, so the
    top-level help and usage errors list them all, but only those named in
    ``argv`` get their options.  argparse dispatches on one argument of
    ``argv``, so the subcommand it parses is always among them."""
    parser = argparse.ArgumentParser(
        prog="qdrepeater",
        description="performance model of a spin-photon repeater chain")
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(argv)
    for name, (help_text, options) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name in named:
            for flag, kwargs in options:
                command.add_argument(flag, **kwargs)
    return parser


def _load(args: argparse.Namespace) -> ParameterSet:
    if args.config:
        return load_config(args.config, overrides=args.param)
    return default_parameters(overrides=args.param)


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _fail(code: int, line: str) -> tuple:
    """The result of a command that stops with one stderr line."""
    return code, "", [line], None


def _emit(text: str, args: argparse.Namespace, ps: ParameterSet,
          argv: list[str]) -> str | None:
    """Write ``text`` to ``--out`` with its meta.json; the error line when a
    file cannot be written, else None."""
    meta = {"command": argv, "parameters": to_dict(ps),
            "provenance": ps.provenance}
    if "seed" in args:
        meta["seed"] = args.seed
    path = args.out
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        path = args.out + ".meta.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
    except OSError as exc:
        return f"cannot write {path}: {exc.strerror or exc}"
    return None


def _unwritable(path: str) -> str | None:
    """Why ``--out`` cannot be written, judged before any work, or None."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK):
        err = errno.EACCES
    else:
        return None
    return os.strerror(err)


def cmd_rates(args: argparse.Namespace, ps: ParameterSet) -> tuple:
    try:
        grid = _sweep("L_km", args.l_min_km, args.l_max_km, args.l_points,
                      log=args.log)
    except ValueError as exc:
        return _fail(2, f"invalid distance sweep: {exc}")

    # one array pass per curve, each over every distance of the sweep
    distances = grid * 1e3
    try:
        direct = rates.direct_transmission_rate(distances, args.source_rate,
                                                ps.link.L_att)
    except ValueError as exc:
        return _fail(2, f"invalid rates input: {exc}")
    curves = rates.curve_rates(ps, distances)
    pairs = rates.mean_time_two_plus_two(
        with_link(ps, L_total=distances, eta_s=0.65)).rate
    return 0, "", [], _csv("L_km,rate_direct,rate_B,rate_C,rate_D,rate_2plus2",
                           ",".join([_FMT] * 6),
                           (column.tolist()
                            for column in (grid, direct, *curves, pairs)))


def cmd_contour(args: argparse.Namespace, ps: ParameterSet) -> tuple:
    try:
        if args.fp_min <= 0:
            raise ValueError("F_p: sweep must start above zero")
        fp_grid = _sweep("F_p", args.fp_min, args.fp_max, args.fp_points)
        pol = (args.pol_min, args.pol_max, args.pol_points)
        if pol == (None, None, None):   # 0.80 .. 0.99, then 0.999 and 1
            pol_grid = np.append(np.arange(80, 100) / 100, [0.999, 1.0])
        elif None in pol:
            raise ValueError("polarization: a sweep needs --pol-min, "
                             "--pol-max and --pol-points")
        elif args.pol_min < 0.80 or args.pol_max > 1.0:
            raise ValueError("polarization grid must stay within "
                             "[0.80, 1.0] (tabulated transfer data)")
        else:
            pol_grid = _sweep("polarization", *pol)
    except ValueError as exc:
        return _fail(2, f"invalid sweep: {exc}")

    c = fidelity.fidelity_contour(ps, fp_grid, pol_grid)
    warned = [(fp, notes) for fp, notes in zip(c.fp_grid, c.warnings) if notes]
    if warned and not args.force:
        fp, notes = warned[0]
        return _fail(1, f"refusing to compose out-of-regime budgets "
                        f"(first at F_p={fp:g}, pol={c.polarization_grid[0]:g}: "
                        f"{notes[0]}); re-run with --force to override")
    # a note depends on F_p alone
    notes = [f"warning: F_p={fp:g}: {note}"
             for fp, fp_notes in warned for note in fp_notes]

    # one row per grid point, F_p-major: F_p down, polarization across
    grid = np.broadcast_arrays(fp_grid[:, None], pol_grid, c.F_ent[:, None],
                               c.F_transfer, c.F_gate[:, None],
                               c.F_readout[:, None], c.F_total)
    return 0, "", notes, _csv("F_p,polarization,F_ent,F_transfer,F_gate,"
                              "F_readout,F_total", ",".join([_FMT] * 7),
                              (column.ravel().tolist() for column in grid))


def cmd_validate(args: argparse.Namespace, ps: ParameterSet) -> tuple:
    budget = fidelity.fidelity_budget(ps)
    notes = budget.warnings[0]
    results = acceptance.run_all()
    failed = [r for r in results if not r.passed]
    return 1 if failed else 0, _lines([
        *results, *(f"config warning: {note}" for note in notes),
        f"config F_total (n={budget.n_nest}) = {budget.F_total[0, 0]:.4f}"
        + ("  [out of validity regime]" if notes else ""),
        f"{len(results) - len(failed)}/{len(results)} criteria passed"]), [], None


def cmd_mc(args: argparse.Namespace, ps: ParameterSet) -> tuple:
    link = ps.link
    p0 = (args.p0 if args.p0 is not None
          else rates.link_success_probability(link))
    p_swap = (args.p_swap if args.p_swap is not None
              else rates.swap_success_probability(link))
    slot = rates.slot_time(link)
    cutoff = args.cutoff if args.cutoff is not None else math.inf
    try:
        cfg = mcsim.ProtocolConfig(n_nest=link.n_nest, p0=p0, p_swap=p_swap,
                                   slot_time=slot, trials=args.trials,
                                   seed=args.seed, memory_cutoff=cutoff)
        records = mcsim.run_trials(cfg)
    except ValueError as exc:
        return _fail(2, f"invalid Monte Carlo input: {exc}")
    target = rates.parallel_closed_form(p0, p_swap, slot, cfg.n_nest).mean_time
    stored = records.max_storage_time[records.success]
    above = float((stored > 1.0).mean()) if stored.size else math.nan
    report = _lines([
        mcsim.compare_with_analytic(mcsim.timing_stats(records, cfg), target),
        f"success fraction {stored.size / len(records):.4f}; "
        f"max-storage median {mcsim.median(stored):.4g} s; "
        f"fraction exceeding 1 s: {above:.4f}"])
    table = (_csv("trial,total_time_s,swap_failures,max_storage_s",
                  f"%d,{_FMT},%d,{_FMT}",
                  (range(len(records)), records.total_time.tolist(),
                   records.swap_failures.tolist(),
                   records.max_storage_time.tolist()))
             if args.out else None)   # the per-trial CSV goes only to --out
    return 0, report, [], table


def cmd_qsim(args: argparse.Namespace, ps: None) -> tuple:
    measures = acceptance.check_quantum_oracle()
    ok = all(m.passed for m in measures)
    return 0 if ok else 1, _lines(
        [*measures, f"quantum oracle: {'PASS' if ok else 'FAIL'}"]), [], None


_COMMANDS = {"rates": cmd_rates, "contour": cmd_contour,
             "validate": cmd_validate, "mc": cmd_mc, "qsim": cmd_qsim}


def main(argv: list[str] | None = None) -> int:
    """Run ``qdrepeater argv`` and render its result; the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:   # argparse prints help and usage errors itself
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    ps = None
    try:
        ps = _load(args) if "param" in args else None  # qsim reads none
        reason = _unwritable(args.out) if getattr(args, "out", None) else None
        result = (_fail(2, f"cannot write {args.out}: {reason}") if reason
                  else _COMMANDS[args.command](args, ps))
    except ConfigError as exc:
        result = _fail(3, f"config error: {exc}")
    except fidelity.ConvergenceError as exc:
        result = _fail(1, f"F_ent {exc}")
    except MemoryError:
        result = _fail(2, f"out of memory: {args.command} input too large")
    code, text, errors, table = result
    # looked up per call: callers redirect sys.stdout and sys.stderr
    sys.stderr.write(_lines(errors))
    sys.stdout.write(text)
    if table and args.out:
        error = _emit(table, args, ps, ["qdrepeater", *argv])
        if error:
            sys.stderr.write(f"{error}\n")
            return 2
    elif table:
        sys.stdout.write(table)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
