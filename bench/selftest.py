"""Self-test of the benchmark: smoke runs, metric names, checks that bite.

    python3 bench/selftest.py

1. Each workload runs briefly with ``--trace 0`` and ``--trace 1``.  The last
   line must hold exactly the contract's keys, every metric named in
   BENCHMARK.json with its unit, names matching ``[A-Za-z0-9_.-]+``, finite
   values and no failed check.
2. Every correctness check passes on a real output and fails on each of a
   set of deliberately wrong ones.

Exits 0 when all of this holds, 1 otherwise.  Takes about three minutes.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import run as bench_run

sys.path.insert(0, os.path.join(bench_run.ROOT, "src"))

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402
from qdrepeater.params import default_parameters, with_physical  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
KEYS = {"correct", "attempted", "failed", "metrics"}
SMOKE_SECONDS = "1"

problems: list[str] = []


def smoke(bench: dict) -> None:
    for w in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            before = len(problems)
            proc = subprocess.run(
                [sys.executable, os.path.join(bench_run.BENCH_DIR, "run.py"),
                 "--workload", w["name"], "--seed", "7", "--seconds",
                 SMOKE_SECONDS, "--trace", str(trace)],
                cwd=bench_run.ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in bench[group]}
            emitted = {k: v.get("unit") for k, v in result["metrics"].items()}
            if set(result) != KEYS:
                problems.append(f"{label}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: checks failed: {proc.stdout[-1000:]}")
            if emitted != declared:
                problems.append(f"{label}: emitted {emitted} != declared {declared}")
            for name, entry in result["metrics"].items():
                value = entry.get("value")
                if not (NAME.fullmatch(name) and len(name) <= 64
                        and isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"{label}: bad metric {name} = {value!r}")
            print(f"smoke {label}: {'ok' if len(problems) == before else 'FAILED'}")


def failures(check, *args) -> list[str]:
    found = ck.Checks()
    check(found, *args)
    return found.failures


def expect_bite(label: str, check, good: tuple, bad: dict[str, tuple]) -> None:
    """``check`` passes on ``good`` and fails on every entry of ``bad``."""
    if failures(check, *good):
        problems.append(f"{label}: fails on correct output: "
                        f"{failures(check, *good)}")
    for what, args in bad.items():
        if not failures(check, *args):
            problems.append(f"{label}: does not notice {what}")
    print(f"bite {label}: {len(bad)} wrong outputs tried")


def edit_csv(text: str, row: int, col: int, fn) -> str:
    lines = text.strip().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = "%.6e" % fn(float(cells[col]))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_last(text: str) -> str:
    return "\n".join(text.strip().splitlines()[:-1]) + "\n"


def bite_all() -> None:
    ps = default_parameters()

    ok = "[PASS] ...\n10/10 criteria passed\n"
    expect_bite("validate", ck.check_validate, (0, ok), {
        "a nonzero exit": (1, ok),
        "9 of 10 criteria": (0, ok.replace("10/10", "9/10")),
        "no summary": (0, "")})

    rates_ref = wl.read_text(os.path.join(wl.REFERENCE, "rates_default.csv"))
    contour_ref = wl.read_text(os.path.join(wl.REFERENCE, "contour_default.csv"))
    _, rates_csv = wl.cli_run(["rates"])
    _, contour_csv = wl.cli_run(["contour"])
    expect_bite("rates reference", ck.check_reference,
                ("rates", rates_csv, rates_ref), {
                    "a value off by 1e-5": ("rates", edit_csv(rates_csv, 5, 3, lambda v: v * (1 + 1e-5)), rates_ref),
                    "a missing row": ("rates", drop_last(rates_csv), rates_ref)})
    expect_bite("contour reference", ck.check_reference,
                ("contour", contour_csv, contour_ref), {
                    "F_total off by 1e-5": ("contour", edit_csv(contour_csv, 100, 6, lambda v: v * (1 + 1e-5)), contour_ref)})
    # default grid row 4*22 + 15 is (F_p 500, polarization 0.95)
    anchor_row = 4 * 22 + 15
    expect_bite("anchors", ck.check_anchors, ("contour", contour_csv), {
        "an anchor off by 0.02": ("contour", edit_csv(contour_csv, anchor_row, 6, lambda v: v + 0.02))})

    def phys_at(fp):
        return with_physical(ps, F_res=fp).physical

    expect_bite("F_ent quadrature", ck.check_ent_quadrature,
                ("contour", contour_csv, phys_at), {
                    "F_ent off by 2e-6": ("contour", edit_csv(contour_csv, 30, 2, lambda v: v + 2e-6), phys_at)})
    expect_bite("grid", ck.check_grid, ("contour", contour_csv, 220), {
        "a missing point": ("contour", drop_last(contour_csv), 220),
        "F_total above 1": ("contour", edit_csv(contour_csv, 7, 6, lambda v: 1.5), 220)})

    os.makedirs(bench_run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench_run.OUT_DIR) as tmp:
        seed = 11
        inputs = wl.mc_cutoff_inputs(seed, ps)
        res = wl.mc_cutoff_run(inputs, ps, tmp)
        csv_text = wl.read_text(res["path"])
        meta = json.loads(wl.read_text(res["path"] + ".meta.json"))
    hist = res["histogram"]
    good = (res["rc"], res["out"], csv_text, meta, wl.MC_TRIALS,
            wl.MC_CUTOFF_S, seed, hist)

    def with_(index, value):
        args = list(good)
        args[index] = value
        return tuple(args)

    short_hist = copy.copy(hist)
    short_hist.values = hist.values[:-1]
    frac = re.search(r"success fraction ([0-9.]+)", res["out"]).group(1)
    expect_bite("mc_cutoff", ck.check_mc_cutoff, good, {
        "a nonzero exit": with_(0, 1),
        "a wrong printed success fraction": with_(1, res["out"].replace(
            f"success fraction {frac}", f"success fraction {float(frac) + 0.01:.4f}")),
        "storage above the cutoff": with_(2, edit_csv(csv_text, 3, 3, lambda v: 4.5)),
        "a missing trial": with_(2, drop_last(csv_text)),
        "a wrong seed in meta.json": with_(3, dict(meta, seed=seed + 1)),
        "a histogram of other trials": with_(7, short_hist)})
    expect_bite("determinism", ck.check_same_output, ("mc", ["a", "a"]), {
        "two different outputs": ("mc", ["a", "b"])})

    inputs = wl.oracle_inputs(3, ps)
    res = wl.oracle_run(inputs, ps, "")
    good = (res["rc"], res["out"], res["transfer"], res["chains"], res["swaps"])
    l, comp, value = res["chains"][0]
    swaps = [list(res["swaps"][0])]
    swaps[0][0] = (0.9 * swaps[0][0][0],) + swaps[0][0][1:]
    expect_bite("oracle", ck.check_oracle, good, {
        "a nonzero exit": (1,) + good[1:],
        "no PASS verdict": (0, "quantum oracle: FAIL") + good[2:],
        "a transfer deviation of 1e-7": good[:2] + ([(9, 1e-7)],) + good[3:],
        "a chain gap of 0.03": good[:3] + ([(l, comp, value + 0.03)],) + good[4:],
        "a chain fidelity below 0.25": good[:3] + ([(l, comp, 0.2)],) + good[4:],
        "swap probabilities not summing to 1": good[:4] + (swaps,)})


def main() -> int:
    bench = bench_run.load_benchmark()
    bite_all()
    smoke(bench)
    for problem in problems:
        print("PROBLEM:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
