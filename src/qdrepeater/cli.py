"""Command-line surface: parameter sweeps, validation and simulation runs.

Subcommands: ``rates``, ``contour``, ``validate``, ``mc``, ``qsim``.  All
numeric CSV output uses the fixed ``%.6e`` format with stable headers and row
order; passing ``--out`` also writes a ``<out>.meta.json`` companion recording
the fully resolved parameter set.

Exit codes: 0 success, 1 validation failure (also a refused out-of-regime
contour and an F_ent quadrature that does not converge), 2 usage error,
3 config error.  Errors print one line on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
# argparse's gettext loads locale on the first parse; load it with the CLI
import locale  # noqa: F401
import math
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="parameter file (flat key = value text)")
    common.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one parameter; repeatable")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", help="write CSV here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="qdrepeater",
        description="performance model of a spin-photon repeater chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", parents=[common, writes],
                             help="distribution rate vs distance sweep")
    p_rates.add_argument("--l-min-km", type=float, default=100.0)
    p_rates.add_argument("--l-max-km", type=float, default=1000.0)
    p_rates.add_argument("--l-points", type=int, default=19)
    p_rates.add_argument("--log", action="store_true",
                         help="logarithmic distance spacing")
    p_rates.add_argument("--source-rate", type=float, default=1e10,
                         help="direct-transmission source rate (Hz)")

    p_cont = sub.add_parser("contour", parents=[common, writes],
                            help="overall fidelity on a Purcell x polarization grid")
    p_cont.add_argument("--fp-min", type=float, default=100.0)
    p_cont.add_argument("--fp-max", type=float, default=1000.0)
    p_cont.add_argument("--fp-points", type=int, default=10)
    p_cont.add_argument("--pol-min", type=float, default=None)
    p_cont.add_argument("--pol-max", type=float, default=None)
    p_cont.add_argument("--pol-points", type=int, default=None)
    p_cont.add_argument("--force", action="store_true",
                        help="compose even when validity warnings fire")

    sub.add_parser("validate", parents=[common],
                   help="run the full acceptance suite")

    p_mc = sub.add_parser("mc", parents=[common, writes],
                          help="Monte Carlo waiting-time simulation")
    p_mc.add_argument("--seed", type=int, default=1, help="RNG seed")
    p_mc.add_argument("--trials", type=int, default=10_000,
                      help="Monte Carlo trial count")
    p_mc.add_argument("--p0", type=float, default=None,
                      help="override the derived link success probability")
    p_mc.add_argument("--p-swap", type=float, default=None,
                      help="override the derived swap success probability")
    p_mc.add_argument("--cutoff", type=float, default=None,
                      help="memory storage cutoff in seconds")

    sub.add_parser("qsim", help="exact quantum-oracle consistency checks")
    return parser


def _load(args) -> ParameterSet:
    if args.config:
        return load_config(args.config, overrides=args.param)
    return default_parameters(overrides=args.param)


def _emit(text: str, args, ps: ParameterSet, argv: list[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        meta = {"command": argv, "parameters": to_dict(ps),
                "provenance": ps.provenance}
        if "seed" in args:
            meta["seed"] = args.seed
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
    else:
        sys.stdout.write(text)


_CURVE_PRODUCTS = {"B": 0.72, "C": 0.5, "D": 0.4}


def cmd_rates(args, ps: ParameterSet, argv: list[str]) -> int:
    try:
        grid = _sweep("L_km", args.l_min_km, args.l_max_km, args.l_points,
                      log=args.log)
    except ValueError as exc:
        print(f"invalid distance sweep: {exc}", file=sys.stderr)
        return 2

    # Python floats: a tiny L_att gives exp(-inf) = 0, not a numpy warning
    distances = (grid * 1e3).tolist()
    try:
        direct = [rates.direct_transmission_rate(L, args.source_rate,
                                                 ps.link.L_att)
                  for L in distances]
    except ValueError as exc:
        print(f"invalid rates input: {exc}", file=sys.stderr)
        return 2
    curves = [[rates.mean_time_parallel(
                  with_link(ps, L_total=L, p_emit=product, eta_c=1.0,
                            eta_s=product)).rate for L in distances]
              for product in _CURVE_PRODUCTS.values()]
    pair_scheme = with_link(ps, eta_s=0.65)
    pairs = [rates.mean_time_two_plus_two(
                 with_link(pair_scheme, L_total=L)).rate for L in distances]
    _emit(_csv("L_km,rate_direct,rate_B,rate_C,rate_D,rate_2plus2",
               ",".join([_FMT] * 6), (grid, direct, *curves, pairs)),
          args, ps, argv)
    return 0


def _default_pol_grid() -> list[float]:
    grid = [round(0.80 + 0.01 * i, 2) for i in range(20)]  # 0.80 .. 0.99
    return grid + [0.999, 1.0]


def cmd_contour(args, ps: ParameterSet, argv: list[str]) -> int:
    try:
        if args.fp_min <= 0:
            raise ValueError("F_p: sweep must start above zero")
        fp_grid = _sweep("F_p", args.fp_min, args.fp_max, args.fp_points)
        pol = (args.pol_min, args.pol_max, args.pol_points)
        if pol == (None, None, None):
            pol_grid = np.array(_default_pol_grid())
        elif None in pol:
            raise ValueError("polarization: a sweep needs --pol-min, "
                             "--pol-max and --pol-points")
        elif args.pol_min < 0.80 or args.pol_max > 1.0:
            raise ValueError("polarization grid must stay within "
                             "[0.80, 1.0] (tabulated transfer data)")
        else:
            pol_grid = _sweep("polarization", *pol)
    except ValueError as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return 2

    contour = fidelity.fidelity_contour(ps, fp_grid, pol_grid)
    warned = [(fp, pol, b.warnings) for fp, pol, b in contour.rows()
              if b.warnings]
    if warned and not args.force:
        fp, pol, notes = warned[0]
        print(f"refusing to compose out-of-regime budgets "
              f"(first at F_p={fp:g}, pol={pol:g}: {notes[0]}); "
              f"re-run with --force to override", file=sys.stderr)
        return 1
    for fp, pol, notes in warned:
        for note in notes:
            print(f"warning: F_p={fp:g} pol={pol:g}: {note}", file=sys.stderr)

    rows = [(fp, pol, b.F_ent, b.F_transfer, b.F_gate, b.F_readout,
             b.F_total) for fp, pol, b in contour.rows()]
    _emit(_csv("F_p,polarization,F_ent,F_transfer,F_gate,F_readout,F_total",
               ",".join([_FMT] * 7), zip(*rows)), args, ps, argv)
    return 0


def cmd_validate(args, ps: ParameterSet, argv: list[str]) -> int:
    results = acceptance.run_all()
    for result in results:
        print(result)
    budget = fidelity.fidelity_budget(ps)
    for note in budget.warnings:
        print(f"config warning: {note}")
    print(f"config F_total (n={budget.n_nest}) = {budget.F_total:.4f}"
          + ("  [out of validity regime]" if budget.warnings else ""))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def cmd_mc(args, ps: ParameterSet, argv: list[str]) -> int:
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
        print(f"invalid Monte Carlo input: {exc}", file=sys.stderr)
        return 2
    target = rates.parallel_closed_form(p0, p_swap, slot, cfg.n_nest).mean_time
    print(mcsim.compare_with_analytic(mcsim.timing_stats(records, cfg),
                                      target))
    storage = mcsim.StorageHistogram.from_records(records)
    print(f"success fraction {storage.values.size / len(records):.4f}; "
          f"max-storage median {storage.median():.4g} s; "
          f"fraction exceeding 1 s: {storage.fraction_exceeding(1.0):.4f}")
    if args.out:
        _emit(_csv("trial,total_time_s,swap_failures,max_storage_s",
                   f"%d,{_FMT},%d,{_FMT}",
                   (range(len(records)), records.total_time.tolist(),
                    records.swap_failures.tolist(),
                    records.max_storage_time.tolist())), args, ps, argv)
    return 0


def cmd_qsim(args, ps: None, argv: list[str]) -> int:
    measures = acceptance.check_quantum_oracle()
    for measure in measures:
        print(measure)
    ok = all(m.passed for m in measures)
    print("quantum oracle:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


_COMMANDS = {
    "rates": cmd_rates,
    "contour": cmd_contour,
    "validate": cmd_validate,
    "mc": cmd_mc,
    "qsim": cmd_qsim,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        ps = _load(args) if "param" in args else None  # qsim reads none
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        return _COMMANDS[args.command](args, ps, ["qdrepeater"] + argv)
    except fidelity.ConvergenceError as exc:
        print(f"F_ent {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
