"""End-to-end validation checks against the model's anchor values.

Each check pins its own parameters and tolerances; `run_all` prints one
PASS/FAIL line per criterion.  The same registry backs the test suite and the
``validate`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fidelity, mcsim, qsim, rates
from .params import TWO_PI, default_parameters, with_link, with_physical


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol + 1e-12


# --------------------------------------------------------------------------
# criterion implementations
# --------------------------------------------------------------------------

def check_purcell_detuning():
    f1 = fidelity.purcell_at_detuning(500.0, TWO_PI * 100e9, TWO_PI * 275e9)
    f2 = fidelity.purcell_at_detuning(200.0, TWO_PI * 100e9, TWO_PI * 200e9)
    ok = _within(f1, 16.0, 0.1) and _within(f2, 11.8, 0.2)
    return ok, f"F_p = {f1:.3f} (16 +- 0.1), {f2:.3f} (11.8 +- 0.2)"


def check_entanglement_generation():
    ps = default_parameters()
    phys500 = ps.physical
    f500 = fidelity.entanglement_fidelity(phys500)
    phys200 = with_physical(ps, F_res=200.0, detuning=TWO_PI * 200e9).physical
    f200 = fidelity.entanglement_fidelity(phys200)
    nodes_final = 42  # first doubling of the 21-node start rule
    delta = abs(fidelity.entanglement_fidelity_fixed_nodes(phys500, 2 * nodes_final)
                - fidelity.entanglement_fidelity_fixed_nodes(phys500, nodes_final))
    ok = (_within(f500, 0.995, 0.002) and _within(f200, 0.993, 0.002)
          and delta < 1e-6)
    return ok, (f"F_ent = {f500:.5f} (0.995 +- 0.002), {f200:.5f} "
                f"(0.993 +- 0.002); node-doubling delta {delta:.2e} < 1e-6")


def check_state_transfer():
    fq = fidelity.quadrupolar_factor(5.0e4, 2, 330e-9)
    fe = 0.99996
    f95 = fidelity.transfer_fidelity(fe, fidelity.nuclear_init_fidelity(0.95), fq)
    f80 = fidelity.transfer_fidelity(fe, fidelity.nuclear_init_fidelity(0.80), fq)
    ok = (_within(fq, 0.996, 0.001) and _within(f95, 0.993, 0.002)
          and _within(f80, 0.973, 0.002))
    return ok, (f"F_quad = {fq:.5f} (0.996 +- 0.001); F_transfer = {f95:.5f} "
                f"(0.993 +- 0.002), {f80:.5f} (0.973 +- 0.002)")


def check_gate():
    ps = default_parameters()
    g500 = fidelity.gate_fidelity(ps.physical)
    g200 = fidelity.gate_fidelity(with_physical(ps, F_res=200.0).physical)
    shift = TWO_PI * 5e9
    sym = fidelity.gate_fidelity(
        with_physical(ps, delta_eps1=shift, delta_eps2=shift).physical)
    ok = (_within(g500.fidelity, 0.995, 0.001)
          and _within(g200.fidelity, 0.986, 0.001)
          and sym.fidelity == g500.fidelity)
    return ok, (f"F_gate = {g500.fidelity:.5f} (0.995 +- 0.001), "
                f"{g200.fidelity:.5f} (0.986 +- 0.001); "
                f"equal-detuning term exactly zero: {sym.fidelity == g500.fidelity}")


def check_readout():
    gamma_prime = (1 + 500) * TWO_PI * 0.59e9
    f = fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9, TWO_PI * 1e9,
                                  gamma_prime)
    omega = fidelity.invert_readout_drive(0.99983, 600e-9, 500.0, 0.9, 0.9,
                                          gamma_prime)
    rel = abs(omega - TWO_PI * 1e9) / (TWO_PI * 1e9)
    ok = _within(f, 0.99983, 2e-5) and rel < 0.05
    return ok, (f"F_readout = {f:.6f} (0.99983 +- 2e-5); inverted drive "
                f"{omega / TWO_PI / 1e9:.4f} GHz x 2pi (within 5% of 1)")


def check_splittings():
    s = fidelity.zeeman_splittings(6.6, -0.076, 1.309, 0.80, 31e9)
    ok = (_within(s.dE_g / 1e9, 32.0, 0.5) and _within(s.dE_e / 1e9, 146.0, 1.0))
    return ok, (f"dE_g = {s.dE_g / 1e9:.2f} GHz (32 +- 0.5), "
                f"dE_e = {s.dE_e / 1e9:.2f} GHz (146 +- 1)")


def check_overall_fidelity_anchors():
    ps = default_parameters()
    contour = fidelity.fidelity_contour(ps, [200.0, 500.0],
                                        [0.80, 0.95, 0.999], n_nest=3)
    targets = {(500.0, 0.95): 0.831, (200.0, 0.95): 0.734,
               (500.0, 0.80): 0.596, (200.0, 0.80): 0.526,
               (500.0, 0.999): 0.858}
    details = []
    ok = True
    for (fp, pol), target in targets.items():
        i = contour.fp_grid.index(fp)
        j = contour.polarization_grid.index(pol)
        value = contour.total[i, j]
        good = _within(value, target, 0.01)
        ok = ok and good
        details.append(f"({fp:.0f},{pol:g})={value:.4f}~{target}")
    return ok, "F_total " + ", ".join(details) + " (all +- 0.01)"


def check_rates():
    ps = default_parameters()
    details = []
    ok = True
    for product, target in ((0.72, 0.58), (0.5, 0.41), (0.4, 0.32)):
        link = with_link(ps, p_emit=product, eta_c=1.0, eta_s=product).link
        pg = rates.swap_success_probability(link)
        ok = ok and _within(pg, target, 0.005)
        details.append(f"p_gate({product})={pg:.4f}~{target}")

    base = rates.mean_time_parallel(ps)
    scaled = rates.mean_time_parallel(with_link(ps, eta_fc=0.4))
    ratio = scaled.rate / base.rate
    ok = ok and math.isclose(ratio, 0.16, rel_tol=1e-9)
    details.append(f"eta_fc rate ratio {ratio:.6f} (exactly 0.16)")

    def curve(product, L):
        return rates.mean_time_parallel(
            with_link(ps, p_emit=product, eta_c=1.0, eta_s=product,
                      L_total=L)).rate

    grid = np.linspace(200e3, 1000e3, 9)
    rate_b = [curve(0.72, L) for L in grid]
    rate_c = [curve(0.5, L) for L in grid]
    rate_d = [curve(0.4, L) for L in grid]
    mono = all(b1 > b2 for b1, b2 in zip(rate_b, rate_b[1:]))
    order = all(b > c > d for b, c, d in zip(rate_b, rate_c, rate_d))
    ok = ok and mono and order
    details.append(f"monotone decrease {mono}, B>C>D {order}")

    curve_b = with_link(ps, p_emit=0.72, eta_c=1.0, eta_s=0.72)
    crossover = rates.crossover_distance(curve_b)
    good = crossover is not None and crossover < 1000e3
    ok = ok and good
    details.append(f"crossover at {crossover / 1e3:.0f} km < 1000 km"
                   if crossover else "no crossover found")
    return ok, "; ".join(details)


def check_monte_carlo():
    details = []
    cfg0 = mcsim.ProtocolConfig(n_nest=0, p0=0.1, p_swap=1.0, slot_time=1.0,
                                trials=100_000, seed=20240801)
    stats0 = mcsim.simulate_chain(cfg0)
    z0 = abs(stats0.mean - 10.0) / stats0.stderr
    details.append(f"n=0 mean {stats0.mean:.3f} vs 10 (z={z0:.2f})")

    p0 = 0.01
    exact = (2.0 / p0 - 1.0 / (p0 * (2.0 - p0))) / 0.5
    cfg1 = mcsim.ProtocolConfig(n_nest=1, p0=p0, p_swap=0.5, slot_time=1.0,
                                trials=100_000, seed=20240802)
    stats1 = mcsim.simulate_chain(cfg1)
    z1 = abs(stats1.mean - exact) / stats1.stderr
    details.append(f"n=1 mean {stats1.mean:.2f} vs exact {exact:.2f} (z={z1:.2f})")

    analytic3 = 1.5**3 / (0.01 * 0.5832**3)
    cfg3 = mcsim.ProtocolConfig(n_nest=3, p0=0.01, p_swap=0.5832,
                                slot_time=1.0, trials=20_000, seed=20240803)
    report3 = mcsim.compare_with_analytic(cfg3, analytic3, tolerance=0.15)
    details.append(f"n=3 ratio {report3.ratio:.3f} (within 15%)")

    cfg_d = mcsim.ProtocolConfig(n_nest=1, p0=0.05, p_swap=0.6, slot_time=1.0,
                                 trials=2_000, seed=7)
    identical = mcsim.run_trials(cfg_d) == mcsim.run_trials(cfg_d)
    details.append(f"bit-identical rerun {identical}")

    ok = z0 <= 3.0 and z1 <= 3.0 and report3.passed and identical
    return ok, "; ".join(details)


def check_quantum_oracle():
    details = []
    p = qsim.TransferParams(n_nuclei=5, coupling=1.0e6)
    g = p.rabi_rate
    state = qsim.collective_state(1.0, 0.0, 5)
    idx = qsim.collective_index(0, 1, 5)
    worst = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi / g, 101):
        evolved = qsim.evolve_transfer(state, p, t)
        prob = abs(evolved.amps[idx]) ** 2
        worst = max(worst, abs(prob - math.sin(g * t) ** 2))
    details.append(f"Rabi-law max deviation {worst:.2e} (< 1e-9)")
    ok = worst < 1e-9

    cz_ok = bool(np.array_equal(qsim.CZ_GATE,
                                np.diag([1.0, 1.0, 1.0, -1.0])))
    kick = qsim.DensityMatrix.from_pure(
        np.array([0, 1, 0, -1], dtype=complex) / math.sqrt(2))
    plus = qsim.DensityMatrix.from_pure(
        np.array([0, 1, 0, 1], dtype=complex) / math.sqrt(2))
    kicked = qsim.apply_cz(plus, 0, 1, 1.0)
    cz_ok = cz_ok and np.allclose(kicked.mat, kick.mat, atol=1e-12)
    details.append(f"CZ truth table exact {cz_ok}")
    ok = ok and cz_ok

    pair = qsim.werner_pair(1.0)
    branches = qsim.swap_branches(pair.tensor(pair), 1.0, 1.0)
    fids = [qsim.bell_fidelity(dm) for _, _, dm in branches]
    swap_ok = len(fids) == 4 and all(abs(f - 1.0) < 1e-10 for f in fids)
    details.append(f"ideal swap fidelity 1 on {len(fids)} branches {swap_ok}")
    ok = ok and swap_ok

    worst_overlap = 0.0
    for n in (1, 2, 3, 4):
        tp = qsim.TransferParams(n_nuclei=n, coupling=2.0e6)
        coll = qsim.collective_state(0.6, 0.8, n)
        t = 0.37 * math.pi / (2.0 * tp.rabi_rate)
        via_coll = qsim.embed_collective(qsim.evolve_transfer(coll, tp, t))
        via_full = qsim.full_space_oracle(tp, qsim.embed_collective(coll), t)
        worst_overlap = max(worst_overlap,
                            abs(1.0 - abs(via_coll.overlap(via_full))))
    details.append(f"full-vs-collective deviation {worst_overlap:.2e} (< 1e-8)")
    ok = ok and worst_overlap < 1e-8

    comp = dict(F_ent=0.995, F_transfer=0.993, F_gate=0.995,
                F_readout=0.99983, F_e_init=0.99996)
    budget = fidelity.FidelityBudget(
        **comp, F_n_init=1.0, F_quad=1.0, F_BK_nominal=comp["F_ent"],
        F_total=math.nan, gate_time=0.0, n_nest=0, warnings=())
    gaps = []
    for l, n in ((2, 1), (4, 2)):
        oracle = qsim.chain_fidelity_oracle(l, **comp)
        gaps.append(abs(oracle - fidelity.overall_fidelity(budget, n)))
    chain_ok = all(gap <= 0.02 for gap in gaps)
    details.append(f"chain oracle vs product formula gaps "
                   f"{gaps[0]:.4f}, {gaps[1]:.4f} (<= 0.02)")
    ok = ok and chain_ok
    return ok, "; ".join(details)


CHECKS: list[tuple[int, str, Callable]] = [
    (1, "Purcell factor vs detuning", check_purcell_detuning),
    (2, "entanglement generation fidelity", check_entanglement_generation),
    (3, "state transfer fidelity", check_state_transfer),
    (4, "photon-scattering gate fidelity", check_gate),
    (5, "readout fidelity and drive inversion", check_readout),
    (6, "level splittings", check_splittings),
    (7, "overall fidelity anchors", check_overall_fidelity_anchors),
    (8, "rate model anchors and shape", check_rates),
    (9, "Monte Carlo vs analytic timing", check_monte_carlo),
    (10, "quantum oracle consistency", check_quantum_oracle),
]


def run_all(print_fn: Callable[[str], None] | None = print) -> list[CheckResult]:
    """Run every criterion; one PASS/FAIL line each via ``print_fn``."""
    results = []
    for criterion, name, fn in CHECKS:
        passed, detail = fn()
        results.append(CheckResult(criterion, name, passed, detail))
        if print_fn is not None:
            status = "PASS" if passed else "FAIL"
            print_fn(f"[{status}] criterion {criterion}: {name} -- {detail}")
    return results
