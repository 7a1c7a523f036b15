"""The four workloads: inputs from the seed, the timed body, the checks.

Each body goes through the user-facing entry point ``qdrepeater.cli.main``
in-process with stdout and stderr captured, plus, where a workload needs a
layer the CLI does not reach, the public library call a user would make.
Functions are looked up on their modules at call time, so a traced run sees
every call.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout

from qdrepeater import cli, mcsim, qsim, rates
from qdrepeater.params import with_physical

import checks as ck

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

MC_TRIALS = 10_000
MC_CUTOFF_S = 4.0
DEFAULT_GRID_POINTS = 10 * 22
ORACLE_DRAWS = 8
TRANSFER_NUCLEI = range(1, 10)


def cli_run(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of ``qdrepeater <argv>``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# validate: the acceptance gate as shipped; its inputs are pinned by the
# program, so the seed does not enter.
# ---------------------------------------------------------------------------

def validate_inputs(seed: int, ps) -> dict:
    return {}


def validate_run(inputs: dict, ps, tmp: str) -> dict:
    rc, out = cli_run(["validate"])
    return {"rc": rc, "out": out}


def validate_check(checks: ck.Checks, inputs: dict, res: dict, ps) -> None:
    ck.check_validate(checks, res["rc"], res["out"])


# ---------------------------------------------------------------------------
# sweeps: default rates sweep, default contour, and a contour on a grid
# shifted by the seed (inside [100, 1000] x [0.80, 1.0], the validity regime)
# ---------------------------------------------------------------------------

def sweeps_inputs(seed: int, ps) -> dict:
    rng = random.Random(seed)
    fp_min = 100.0 + 50.0 * rng.random()
    fp_max = 1000.0 - 50.0 * rng.random()
    pol_min = 0.80 + 0.02 * rng.random()
    pol_max = 1.0 - 0.002 * rng.random()
    return {"shifted": ["contour", "--fp-min", repr(fp_min),
                        "--fp-max", repr(fp_max), "--fp-points", "10",
                        "--pol-min", repr(pol_min), "--pol-max", repr(pol_max),
                        "--pol-points", "22"]}


def sweeps_run(inputs: dict, ps, tmp: str) -> dict:
    return {"rates": cli_run(["rates"]), "contour": cli_run(["contour"]),
            "shifted": cli_run(inputs["shifted"])}


def sweeps_check(checks: ck.Checks, inputs: dict, res: dict, ps) -> None:
    def phys_at(fp):
        return with_physical(ps, F_res=fp).physical

    (rc_r, rates_csv), (rc_c, contour_csv), (rc_s, shifted_csv) = (
        res["rates"], res["contour"], res["shifted"])
    ck.check_exit(checks, "rates", rc_r)
    ck.check_reference(checks, "rates", rates_csv,
                       read_text(os.path.join(REFERENCE, "rates_default.csv")))
    for label, rc, text in (("contour", rc_c, contour_csv),
                            ("shifted contour", rc_s, shifted_csv)):
        ck.check_exit(checks, label, rc)
        ck.check_grid(checks, label, text, DEFAULT_GRID_POINTS)
        ck.check_anchors(checks, label, text)
        ck.check_ent_quadrature(checks, label, text, phys_at)
    ck.check_reference(checks, "contour", contour_csv,
                       read_text(os.path.join(REFERENCE, "contour_default.csv")))


# ---------------------------------------------------------------------------
# mc_cutoff: `mc --cutoff 4 --out` at default parameters (n_nest = 3), then
# the storage histogram of the same configuration
# ---------------------------------------------------------------------------

def cutoff_config(ps, trials: int, seed: int) -> mcsim.ProtocolConfig:
    """The configuration `qdrepeater mc --cutoff` runs at parameters ``ps``."""
    link = ps.link
    analytic = rates.mean_time_parallel(ps)
    return mcsim.ProtocolConfig(
        n_nest=link.n_nest, p0=analytic.p0, p_swap=analytic.p_swap,
        slot_time=link.L0 / link.c_fiber + link.tau_init, trials=trials,
        seed=seed, memory_cutoff=MC_CUTOFF_S)


def mc_cutoff_argv(trials: int, seed: int, path: str) -> list[str]:
    return ["mc", "--cutoff", repr(MC_CUTOFF_S), "--trials", str(trials),
            "--seed", str(seed), "--out", path]


def mc_cutoff_inputs(seed: int, ps) -> dict:
    return {"seed": seed, "config": cutoff_config(ps, MC_TRIALS, seed)}


def mc_cutoff_run(inputs: dict, ps, tmp: str) -> dict:
    path = os.path.join(tmp, "trials.csv")
    rc, out = cli_run(mc_cutoff_argv(MC_TRIALS, inputs["seed"], path))
    hist = mcsim.storage_time_histogram(inputs["config"])
    return {"rc": rc, "out": out, "path": path, "histogram": hist}


def mc_cutoff_check(checks: ck.Checks, inputs: dict, res: dict, ps) -> str:
    path = res["path"]
    csv_text = read_text(path) if os.path.exists(path) else ""
    meta = (json.loads(read_text(path + ".meta.json"))
            if os.path.exists(path + ".meta.json") else None)
    ck.check_mc_cutoff(checks, res["rc"], res["out"], csv_text, meta,
                       MC_TRIALS, MC_CUTOFF_S, inputs["seed"],
                       res["histogram"])
    return hashlib.sha256(csv_text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracle: qsim only -- `qdrepeater qsim`, the chain oracle at l = 2 and 4 and
# swap_branches on seed-drawn high-fidelity budgets, and the full-space
# transfer cross-check for 1..9 nuclei
# ---------------------------------------------------------------------------

def _budget(rng: random.Random) -> dict:
    return {"F_ent": rng.uniform(0.990, 0.999),
            "F_transfer": rng.uniform(0.970, 0.999),
            "F_gate": rng.uniform(0.985, 0.999),
            "F_readout": rng.uniform(0.999, 1.0),
            "F_e_init": rng.uniform(0.9999, 1.0)}


def oracle_inputs(seed: int, ps) -> dict:
    rng = random.Random(seed)
    budgets = [_budget(rng) for _ in range(ORACLE_DRAWS)]
    swaps = [(rng.uniform(0.95, 0.999), rng.uniform(0.95, 0.999),
              rng.uniform(0.985, 0.999), rng.uniform(0.999, 1.0))
             for _ in range(ORACLE_DRAWS)]
    transfer = [(n, rng.uniform(0.0, 0.5 * math.pi), rng.uniform(0.1, 0.9))
                for n in TRANSFER_NUCLEI]
    return {"budgets": budgets, "swaps": swaps, "transfer": transfer}


def _transfer_deviation(n: int, theta: float, phase: float) -> float:
    tp = qsim.TransferParams(n_nuclei=n, coupling=2.0e6)
    coll = qsim.collective_state(math.cos(theta), math.sin(theta), n)
    t = phase * math.pi / (2.0 * tp.rabi_rate)
    via_coll = qsim.embed_collective(qsim.evolve_transfer(coll, tp, t))
    via_full = qsim.full_space_oracle(tp, qsim.embed_collective(coll), t)
    return abs(1.0 - abs(via_coll.overlap(via_full)))


def oracle_run(inputs: dict, ps, tmp: str) -> dict:
    rc, out = cli_run(["qsim"])
    chains = [(l, comp, qsim.chain_fidelity_oracle(l, **comp))
              for comp in inputs["budgets"] for l in (2, 4)]
    swaps = [qsim.swap_branches(qsim.werner_pair(fa).tensor(qsim.werner_pair(fb)),
                                gate, readout)
             for fa, fb, gate, readout in inputs["swaps"]]
    transfer = [(n, _transfer_deviation(n, theta, phase))
                for n, theta, phase in inputs["transfer"]]
    return {"rc": rc, "out": out, "chains": chains, "swaps": swaps,
            "transfer": transfer}


def oracle_check(checks: ck.Checks, inputs: dict, res: dict, ps) -> None:
    ck.check_oracle(checks, res["rc"], res["out"], res["transfer"],
                    res["chains"], res["swaps"])


#: name -> (inputs(seed, ps), run(inputs, ps, tmp), check(checks, inputs,
#: result, ps) returning an output digest or None)
WORKLOADS = {
    "validate": (validate_inputs, validate_run, validate_check),
    "sweeps": (sweeps_inputs, sweeps_run, sweeps_check),
    "mc_cutoff": (mc_cutoff_inputs, mc_cutoff_run, mc_cutoff_check),
    "oracle": (oracle_inputs, oracle_run, oracle_check),
}
