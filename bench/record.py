"""Run every workload several times and write one benchmark record.

    python3 bench/record.py --out bench/records/BENCH_1.json

Every workload in BENCHMARK.json runs RUNS times untraced, seeds 1..RUNS,
and TRACED times traced, through ``bench/run.py`` exactly as a single run
would.  The record keeps every run's figures, per metric the median and
quartiles over runs and their spread ((q3 - q1) / median) against the bound
in BENCHMARK.json, the same for the raw times before the machine-speed
correction, the error rate, the environment, and each per-layer figure next
to the ROADMAP baseline it should reproduce.  A table of the
end-to-end metrics, with units and error rate, is printed per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench_run

RUNS = 10
TRACED = 2

#: ROADMAP baseline (2-core sandbox, Python 3.10), as (low, high) ranges
ROADMAP_BASELINE = {
    "mcsim.trial_us.n0": (27.0, 27.0), "mcsim.trial_us.n1": (40.0, 40.0),
    "mcsim.trial_us.n3": (161.0, 161.0), "fidelity.ent_cold_ms": (1.25, 1.25),
    "fidelity.budget_us": (45.0, 45.0), "fidelity.contour_s": (0.36, 0.36),
    "qsim.chain_ms.l4": (5.0, 7.5), "qsim.full_h_ms.n9": (35.0, 35.0),
}


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(bench_run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=bench_run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)} failed "
                         f"({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(result),
            "detail": json.loads(detail)}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def metric_table(runs: list[dict]) -> dict[str, dict]:
    names = runs[0]["result"]["metrics"]
    return {name: {"unit": runs[0]["result"]["metrics"][name]["unit"],
                   **summary([r["result"]["metrics"][name]["value"] for r in runs])}
            for name in names}


def main(argv: list[str] | None = None) -> int:
    bench = bench_run.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the record here (JSON)")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"command": ["python3", "bench/record.py"] + sys.argv[1:],
              "seconds": seconds, "workloads": {}}
    traced_all: list[dict] = []
    for workload in (w["name"] for w in bench["workloads"]):
        plain = [one_run(workload, seed, seconds, False)
                 for seed in range(1, RUNS + 1)]
        traced = [one_run(workload, seed, seconds, True)
                  for seed in range(1, TRACED + 1)]
        traced_all += traced
        attempted = sum(r["result"]["attempted"] for r in plain + traced)
        failed = sum(r["result"]["failed"] for r in plain + traced)
        e2e = metric_table(plain)
        for name, entry in e2e.items():
            entry["bound"] = bounds[name]
            # a spread must stay within the metric's bound; aim for a third
            entry["steady"] = (entry.get("spread") is not None
                               and entry["spread"] < bounds[name] / 3)
        # the same runs' raw times, without the machine-speed correction
        raw = {"raw_wall_s": summary([statistics.median(
                   r["detail"]["samples"]["raw_wall_s"]["values"]) for r in plain]),
               "raw_setup_s": summary([statistics.median(
                   r["detail"]["samples"]["raw_setup_s"]["values"]) for r in plain])}
        walls = [v for r in plain for v in r["detail"]["samples"]["wall_s"]["values"]]
        record["workloads"][workload] = {
            "seeds": [r["seed"] for r in plain],
            "end_to_end": e2e,
            "raw": raw,
            "wall_s_samples": bench_run.tail(walls),
            "error_rate": failed / attempted, "attempted": attempted,
            "failed": failed,
            "failures": [f for r in plain + traced for f in r["detail"]["failures"]],
            "per_layer": metric_table(traced) if traced else {},
            "runs": plain + traced,
        }
        record["env"] = plain[0]["detail"]["env"]

    if traced_all:
        # the probes are the same on every workload: pool them for the baseline
        pooled = metric_table(traced_all)
        rows = []
        for name, (low, high) in ROADMAP_BASELINE.items():
            entry = pooled[name]
            q1, q3 = entry.get("q1", entry["median"]), entry.get("q3", entry["median"])
            spread = q3 - q1
            rows.append({"metric": name, "unit": entry["unit"],
                         "roadmap": [low, high], "median": entry["median"],
                         "q1": q1, "q3": q3,
                         "differs": not low - spread <= entry["median"] <= high + spread})
        record["roadmap_baseline"] = rows

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    print(f"{'workload':<11}" + "".join(
        f"{m['name'] + ' [' + m['unit'] + ']':>22}" for m in bench["end_to_end"])
        + f"{'error_rate':>14}")
    for workload, entry in record["workloads"].items():
        cells = "".join(
            f"{entry['end_to_end'][m['name']]['median']:>13.4f} "
            f"(+-{entry['end_to_end'][m['name']].get('spread') or 0:5.1%})"
            for m in bench["end_to_end"])
        print(f"{workload:<11}{cells}{entry['error_rate']:>9g} "
              f"({entry['failed']}/{entry['attempted']})")
    unsteady = [(w, n, e.get("spread")) for w, entry in record["workloads"].items()
                for n, e in entry["end_to_end"].items()
                if n != "setup_s" and not e["steady"]]
    for workload, name, spread in unsteady:
        print(f"unsteady: {workload} {name} spread {spread} >= bound/3")
    for row in record.get("roadmap_baseline", []):
        print(f"{row['metric']:<24} {row['median']:>10.4g} {row['unit']:<3} "
              f"roadmap {row['roadmap'][0]:g}-{row['roadmap'][1]:g}"
              + ("  DIFFERS" if row["differs"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
