"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
``src/``.  Every sample is a fresh interpreter (``bench/child.py``), one at a
time, with BLAS held to one thread, so the process-level caches start cold as
they do for a CLI user.  Samples repeat until ``--seconds`` is used up.
``wall_s`` and ``setup_s`` are the median body and set-up times over them,
each at nominal machine speed (``bench/speed.py``), and ``peak_rss_mb`` the
median peak memory.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` prints the per-layer metrics: it alternates untraced and
traced bodies of the workload (layer self time, call counts, tracing
overhead; spans go to ``bench/out/``) and then runs the per-layer probes in
one more fresh interpreter.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it holds the raw samples, the tail percentile, the
environment and any check failures.  Exit code 0 on a completed run (even
with failed checks), 1 when a sample could not be taken, 2 when the checkout
has no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import checks
from tracing import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SOURCE = os.path.join(ROOT, "src", "qdrepeater")
#: a run gives up here, well inside the three minutes it is allowed
DEADLINE_S = 170.0
MIN_SETUPS = 5


class BenchError(RuntimeError):
    pass


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SOURCE, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if n else None}
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


class Runner:
    """Spawns samples of one workload, one at a time, before a deadline."""

    def __init__(self, workload: str, seed: int, spans_path: str | None):
        self.workload = workload
        self.seed = seed
        self.spans_path = spans_path
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()
        self.count = 0

    def spawn(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed,
                "trace": trace, "root": ROOT, "tmp": OUT_DIR,
                "spans_path": self.spans_path,
                "run_id": f"{self.workload}-{self.seed}-{os.getpid()}-{self.count}"}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run completed")
        spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} sample exceeded the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} sample exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def bodies(self, seconds: float, kinds: tuple[bool, ...],
               min_rounds: int) -> dict[bool, list[dict]]:
        """Rounds of body samples (one per trace setting) for ``seconds``."""
        samples: dict[bool, list[dict]] = {k: [] for k in kinds}
        start = time.monotonic()
        rounds = 0
        while True:
            for trace in kinds:
                samples[trace].append(self.spawn("body", trace))
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                return samples


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    bodies = runner.bodies(seconds, (False,), min_rounds=2)[False]
    setup_runs = list(bodies)
    while len(setup_runs) < MIN_SETUPS:
        setup_runs.append(runner.spawn("setup"))
    # each time at nominal machine speed: raw time over the slowdown the
    # speed meter saw while it ran (see speed.py)
    walls = [b["wall_s"] / b["slowdown"] for b in bodies]
    setups = [s["setup_s"] / s["setup_slowdown"] for s in setup_runs]
    rss = [b["peak_rss_mb"] for b in bodies]
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    raw_walls = [b["wall_s"] for b in bodies]
    raw_setups = [s["setup_s"] for s in setup_runs]
    samples = {"wall_s": tail(walls) | {"values": walls},
               "setup_s": tail(setups) | {"values": setups},
               "peak_rss_mb": tail(rss) | {"values": rss},
               "raw_wall_s": tail(raw_walls) | {"values": raw_walls},
               "raw_setup_s": tail(raw_setups) | {"values": raw_setups}}
    return metrics, bodies, samples


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    os.makedirs(os.path.dirname(runner.spans_path), exist_ok=True)
    open(runner.spans_path, "w").close()
    by_trace = runner.bodies(seconds, (False, True), min_rounds=1)
    plain, traced = by_trace[False], by_trace[True]
    probe = runner.spawn("probe")
    children = plain + traced + [probe]
    med = statistics.median

    metrics = {name: tuple(vu) for name, vu in probe["metrics"].items()}
    metrics["params.import_s"] = (med([c["import_s"] for c in children]), "s")
    metrics["params.load_s"] = (med([c["load_s"] for c in children]), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med([t["self_s"][layer] for t in traced]), "s")
        metrics[f"{layer}.calls"] = (med([t["calls"][layer] for t in traced]), "count")
    metrics["trace.spans"] = (med([t["spans"] for t in traced]), "count")
    metrics["trace.overhead_s"] = (med([t["wall_s"] for t in traced])
                                   - med([p["wall_s"] for p in plain]), "s")
    samples = {"wall_s_untraced": [p["wall_s"] for p in plain],
               "wall_s_traced": [t["wall_s"] for t in traced],
               "spans_file": os.path.relpath(runner.spans_path, ROOT)}
    return metrics, children, samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, detail line) of one run."""
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; choose from {names}")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    runner = Runner(workload, seed, spans_path if trace else None)
    runner.spawn("setup")   # warm-up: bytecode cache and page cache, untimed
    measure = per_layer if trace else end_to_end
    metrics, children, samples = measure(runner, seconds)

    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: produced "
                         f"{sorted(produced.items() - declared.items())}, "
                         f"declared {sorted(declared.items() - produced.items())}")
    found = checks.Checks()
    digests = [c["digest"] for c in children if c.get("digest")]
    if digests:   # every sample of a run has the same inputs
        checks.check_same_output(found, workload, digests)
    attempted = found.attempted + sum(c["attempted"] for c in children)
    failures = found.failures + [f for c in children for f in c["failures"]]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    env = next((c["env"] for c in children if "env" in c), {})
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "samples": samples,
              "error_rate": len(failures) / attempted if attempted else None,
              "failures": failures[:20],
              "env": env | source_identity() | {"seed": seed}}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"no program source at {SOURCE}", file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                      for k, v in list(result["metrics"].items())[:3])
    print(f"{args.workload} seed {args.seed}: {shown}, error_rate "
          f"{detail['error_rate']:g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
