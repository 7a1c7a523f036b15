"""Per-layer probes: direct calls into each layer's public functions.

Run in a fresh interpreter with no tracing wrappers installed, so a probe
times only the layer.  Inputs are fixed, except that the Monte Carlo cutoff
probe takes the run's seed.  Every probe reports ``(value, unit)``; see
README.md for what each metric should move.
"""

from __future__ import annotations

import math
import os
import statistics
from time import perf_counter

import numpy as np

from qdrepeater import acceptance, fidelity, mcsim, qsim, rates
from qdrepeater.params import with_link, with_physical

import checks as ck
import workloads

#: criterion-9 Monte Carlo configurations at a tenth of their trial counts
MC_CONFIGS = {"n0": dict(n_nest=0, p0=0.1, p_swap=1.0, trials=10_000, seed=20240801),
              "n1": dict(n_nest=1, p0=0.01, p_swap=0.5, trials=10_000, seed=20240802),
              "n3": dict(n_nest=3, p0=0.01, p_swap=0.5832, trials=2_000, seed=20240803)}
FIXED_TRIALS = 20_000
#: the default `contour` grid
FP_GRID = np.linspace(100.0, 1000.0, 10)
POL_GRID = [round(0.80 + 0.01 * i, 2) for i in range(20)] + [0.999, 1.0]
CUTOFF_TRIALS = 2_000
DEFAULT_COMPONENTS = dict(F_ent=0.995, F_transfer=0.993, F_gate=0.995,
                          F_readout=0.99983, F_e_init=0.99996)


def per_call(fn, *args, repeat: int, number: int = 1) -> float:
    """Median over ``repeat`` batches of the mean seconds per call."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        for _ in range(number):
            fn(*args)
        times.append((perf_counter() - start) / number)
    return statistics.median(times)


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def acceptance_probes(put) -> None:
    # first, so the F_ent cache is as cold as `validate` finds it
    for criterion, _, check in acceptance.CHECKS:
        put(f"acceptance.criterion_s.{criterion:02d}", timed(check)[0], "s")


def fidelity_probes(put, ps) -> None:
    # each repeat shifts F_p so no grid point is a cache hit
    put("fidelity.contour_s", statistics.median(
        timed(fidelity.fidelity_contour, ps, FP_GRID + 0.5 * k, POL_GRID)[0]
        for k in range(1, 4)), "s")
    put("fidelity.points", float(FP_GRID.size * len(POL_GRID)), "count")
    # off-grid polarization: a cache miss every time
    put("fidelity.ent_cold_ms", 1e3 * statistics.median(
        timed(fidelity.entanglement_fidelity,
              with_physical(ps, F_res=ps.physical.F_res + 0.25 * k,
                            nuclear_polarization=0.9123).physical)[0]
        for k in range(1, 16)), "ms")
    phys = ps.physical
    fidelity.entanglement_fidelity(phys)
    put("fidelity.ent_warm_us", 1e6 * per_call(
        fidelity.entanglement_fidelity, phys, repeat=5, number=200), "us")
    for nodes in (21, 42, 84):
        put(f"fidelity.fixed_nodes_ms.{nodes}", 1e3 * per_call(
            fidelity.entanglement_fidelity_fixed_nodes, phys, nodes,
            repeat=9), "ms")
    put("fidelity.budget_us", 1e6 * per_call(
        fidelity.fidelity_budget, ps, repeat=5, number=100), "us")


def rates_probes(put, ps) -> None:
    # the closed forms the default `rates` sweep evaluates, parameters prebuilt
    curves = []
    pair_scheme = with_link(ps, eta_s=0.65)
    for l_km in np.linspace(100.0, 1000.0, 19):
        L = l_km * 1e3
        curves.append((L, [with_link(ps, L_total=L, p_emit=p, eta_c=1.0, eta_s=p)
                           for p in (0.72, 0.5, 0.4)],
                       with_link(pair_scheme, L_total=L)))

    def sweep():
        for L, cfgs, pair in curves:
            rates.direct_transmission_rate(L, 1e10, ps.link.L_att)
            for cfg in cfgs:
                rates.mean_time_parallel(cfg)
            rates.mean_time_two_plus_two(pair)

    put("rates.sweep_s", per_call(sweep, repeat=15), "s")
    curve_b = with_link(ps, p_emit=0.72, eta_c=1.0, eta_s=0.72)
    put("rates.crossover_s", per_call(rates.crossover_distance, curve_b,
                                      repeat=9), "s")


def mcsim_probes(put, ps, seed: int, tmp: str, checks: ck.Checks) -> None:
    for tag, kw in MC_CONFIGS.items():
        cfg = mcsim.ProtocolConfig(slot_time=1.0, **kw)
        put(f"mcsim.trial_us.{tag}",
            1e6 * timed(mcsim.simulate_chain, cfg)[0] / cfg.trials, "us")
    fixed = mcsim.ProtocolConfig(n_nest=0, p0=1.0, p_swap=1.0, slot_time=1.0,
                                 trials=FIXED_TRIALS, seed=1)
    put("mcsim.trial_fixed_us",
        1e6 * timed(mcsim.run_trials, fixed)[0] / fixed.trials, "us")

    cfg = workloads.cutoff_config(ps, CUTOFF_TRIALS, seed)
    seconds, records = timed(mcsim.run_trials, cfg)
    put("mcsim.trial_us.cutoff", 1e6 * seconds / cfg.trials, "us")
    put("mcsim.stats_s", per_call(mcsim.timing_stats, records, cfg, repeat=5), "s")
    put("mcsim.histogram_s", timed(mcsim.storage_time_histogram, cfg)[0], "s")

    # counts come from the CLI's per-trial CSV, so they survive any change
    # to the record types
    path = os.path.join(tmp, "probe.csv")
    rc, _ = workloads.cli_run(workloads.mc_cutoff_argv(CUTOFF_TRIALS, seed, path))
    ck.check_exit(checks, "probe mc", rc)
    _, rows = ck.parse_csv(workloads.read_text(path))
    put("mcsim.trials", float(len(rows)), "count")
    put("mcsim.success_frac",
        sum(r[3] < workloads.MC_CUTOFF_S for r in rows) / len(rows), "ratio")
    put("mcsim.swap_fail_per_trial", sum(r[2] for r in rows) / len(rows),
        "1/trial")


def qsim_probes(put) -> None:
    for l in (2, 4):
        put(f"qsim.chain_ms.l{l}", 1e3 * per_call(
            lambda: qsim.chain_fidelity_oracle(l, **DEFAULT_COMPONENTS),
            repeat=9), "ms")
    pair = qsim.werner_pair(0.97)
    joint = pair.tensor(pair)
    put("qsim.swap_branches_ms", 1e3 * per_call(
        qsim.swap_branches, joint, 0.995, 0.99983, repeat=9), "ms")
    for n, repeat in ((8, 3), (9, 1)):
        tp = qsim.TransferParams(n_nuclei=n, coupling=2.0e6)
        put(f"qsim.full_h_ms.n{n}", 1e3 * per_call(
            qsim.build_full_space_hamiltonian, tp, repeat=5), "ms")
        state = qsim.embed_collective(qsim.collective_state(0.6, 0.8, n))
        t = 0.37 * math.pi / (2.0 * tp.rabi_rate)
        put(f"qsim.full_oracle_ms.n{n}", 1e3 * per_call(
            qsim.full_space_oracle, tp, state, t, repeat=repeat), "ms")
    tp = qsim.TransferParams(n_nuclei=5, coupling=1.0e6)
    state = qsim.collective_state(1.0, 0.0, 5)
    put("qsim.collective_us.n5", 1e6 * per_call(
        qsim.evolve_transfer, state, tp, 1e-7, repeat=5, number=100), "us")


def run(ps, seed: int, tmp: str, checks: ck.Checks) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    acceptance_probes(put)
    fidelity_probes(put, ps)
    rates_probes(put, ps)
    mcsim_probes(put, ps, seed, tmp, checks)
    qsim_probes(put)
    return metrics
