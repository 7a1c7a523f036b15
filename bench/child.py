"""One sample in a fresh interpreter: set-up, then a workload body or probes.

Started by run.py as ``python3 bench/child.py '<json spec>'``.  Set-up is
measured from the moment the parent spawned this process to the CLI entry
point ``qdrepeater.cli`` imported (with everything it loads) and the default
parameters loaded: the cost a CLI user pays on every call, with the F_ent
cache cold.  The machine's slowdown (``speed.py``) is measured during
set-up and, in untraced samples, during the body.  Prints one JSON line with
the measurements; the program's own output is captured by the workload.
"""

import time
import json
import os
import resource
import sys
import tempfile

import speed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(spec: dict) -> dict:
    with speed.SpeedMeter() as setup_meter:
        t0 = time.monotonic()
        import qdrepeater
        import qdrepeater.cli  # noqa: F401 -- the entry point a CLI user loads
        t_import = time.monotonic()
        from qdrepeater.params import default_parameters
        ps = default_parameters()
        t_ready = time.monotonic()

    expected = os.path.join(spec["root"], "src", "qdrepeater")
    if os.path.realpath(os.path.dirname(qdrepeater.__file__)) != os.path.realpath(expected):
        raise SystemExit(f"qdrepeater imported from {qdrepeater.__file__}, "
                         f"not from {expected}")
    result = {"setup_s": t_ready - spec["spawned"] - setup_meter.overhead_s,
              "import_s": t_import - t0, "load_s": t_ready - t_import,
              "setup_slowdown": setup_meter.slowdown(speed.SETUP_SAMPLES)}
    if spec["mode"] == "setup":
        return result

    import checks
    import probes
    import tracing
    import workloads

    seed = spec["seed"]
    found = checks.Checks()
    with tempfile.TemporaryDirectory(dir=spec["tmp"]) as tmp:
        if spec["mode"] == "probe":
            result["metrics"] = probes.run(ps, seed, tmp, found)
        else:
            make, run, check = workloads.WORKLOADS[spec["workload"]]
            inputs = make(seed, ps)
            if spec["trace"]:
                tracer = tracing.Tracer(spec["run_id"])
                tracing.install(tracer)
                start = time.perf_counter()
                res = run(inputs, ps, tmp)
                result["wall_s"] = time.perf_counter() - start
            else:
                tracer = None
                with speed.SpeedMeter() as meter:
                    start = time.perf_counter()
                    res = run(inputs, ps, tmp)
                    wall = time.perf_counter() - start
                result["wall_s"] = wall - meter.overhead_s
                result["slowdown"] = meter.slowdown()
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                self_s, calls = tracer.layer_totals()
                result.update(self_s=self_s, calls=calls,
                              spans=len(tracer.spans))
                tracer.write(spec["spans_path"])
            result["digest"] = check(found, inputs, res, ps)
            result["env"] = environment()
    result.update(attempted=found.attempted, failures=found.failures)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
