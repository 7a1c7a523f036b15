"""End-to-end validation checks against the model's anchor values.

Each check pins its own parameters and returns its sub-checks as a tuple of
`Measure` records: value, target and tolerance.  A `CheckResult` passes when
every measure does and renders the one PASS/FAIL line per criterion.  The
same registry backs the test suite and the ``validate`` CLI command.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import fidelity, mcsim, qsim, rates
from .params import (TWO_PI, default_parameters, record, with_link,
                     with_physical)


@record
class Measure:
    """One sub-check of a criterion: ``value`` against ``target`` and ``tol``.

    ``op`` "+-" passes when |value - target| <= tol + 1e-12, and only on exact
    equality when tol is 0.  "<" and "<=" compare |value - target| with tol
    and allow no rounding slack; they bound a non-negative value (a deviation,
    a z-score) and are written with target 0.  Yes/no predicates are recorded
    as a count of violations against 0 +- 0.
    """

    label: str
    value: float
    target: float
    tol: float
    op: str = "+-"

    @property
    def passed(self) -> bool:
        gap = abs(self.value - self.target)
        if self.op == "<":
            return gap < self.tol
        if self.op == "<=":
            return gap <= self.tol
        if self.tol == 0:
            return self.value == self.target
        return gap <= self.tol + 1e-12

    def __str__(self) -> str:
        bound = (f"{self.target:.6g} +- {self.tol:.6g}" if self.op == "+-"
                 else f"{self.op} {self.tol:.6g}")
        text = f"{self.label} = {self.value:.6g} ({bound})"
        return text if self.passed else text + " FAIL"


@record
class CheckResult:
    """One criterion's number, name and the measures it passes on."""

    criterion: int
    name: str
    measures: tuple[Measure, ...]

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.measures)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.criterion}: {self.name} -- "
                + "; ".join(map(str, self.measures)))


# --------------------------------------------------------------------------
# criterion implementations
# --------------------------------------------------------------------------

def check_purcell_detuning():
    f1 = fidelity.purcell_at_detuning(500.0, TWO_PI * 100e9, TWO_PI * 275e9)
    f2 = fidelity.purcell_at_detuning(200.0, TWO_PI * 100e9, TWO_PI * 200e9)
    return (Measure("F_p(500, 275 GHz)", f1, 16.0, 0.1),
            Measure("F_p(200, 200 GHz)", f2, 11.8, 0.2))


def check_entanglement_generation():
    ps = default_parameters()
    phys500 = ps.physical
    f500 = fidelity.entanglement_fidelity(phys500)
    phys200 = with_physical(ps, F_res=200.0, detuning=TWO_PI * 200e9).physical
    f200 = fidelity.entanglement_fidelity(phys200)
    nodes_final = 42  # first doubling of the 21-node start rule
    delta = abs(fidelity.entanglement_fidelity_fixed_nodes(phys500, 2 * nodes_final)
                - fidelity.entanglement_fidelity_fixed_nodes(phys500, nodes_final))
    return (Measure("F_ent(500)", f500, 0.995, 0.002),
            Measure("F_ent(200)", f200, 0.993, 0.002),
            Measure("node-doubling delta", delta, 0.0, 1e-6, "<"))


def check_state_transfer():
    fq = fidelity.quadrupolar_factor(5.0e4, 330e-9)
    fe = 0.99996
    f95 = fidelity.transfer_fidelity(fe, fidelity.nuclear_init_fidelity(0.95), fq)
    f80 = fidelity.transfer_fidelity(fe, fidelity.nuclear_init_fidelity(0.80), fq)
    return (Measure("F_quad", fq, 0.996, 0.001),
            Measure("F_transfer(0.95)", f95, 0.993, 0.002),
            Measure("F_transfer(0.8)", f80, 0.973, 0.002))


def check_gate():
    ps = default_parameters()
    g500 = fidelity.gate_fidelity(ps.physical)
    g200 = fidelity.gate_fidelity(with_physical(ps, F_res=200.0).physical)
    shift = TWO_PI * 5e9
    sym = fidelity.gate_fidelity(
        with_physical(ps, delta_eps1=shift, delta_eps2=shift).physical)
    return (Measure("F_gate(500)", g500.fidelity, 0.995, 0.001),
            Measure("F_gate(200)", g200.fidelity, 0.986, 0.001),
            Measure("equal-detuning F_gate", sym.fidelity, g500.fidelity, 0.0))


def check_readout():
    gamma_prime = (1 + 500) * TWO_PI * 0.59e9
    f = fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9, TWO_PI * 1e9,
                                  gamma_prime).fidelity
    omega = fidelity.invert_readout_drive(0.99983, 600e-9, 500.0, 0.9, 0.9,
                                          gamma_prime)
    rel = abs(omega - TWO_PI * 1e9) / (TWO_PI * 1e9)
    return (Measure("F_readout", f, 0.99983, 2e-5),
            Measure("inverted drive relative error", rel, 0.0, 0.05, "<"))


def check_splittings():
    s = fidelity.zeeman_splittings(6.6, -0.076, 1.309, 0.80, 31e9)
    return (Measure("dE_g GHz", s.dE_g / 1e9, 32.0, 0.5),
            Measure("dE_e GHz", s.dE_e / 1e9, 146.0, 1.0))


def check_overall_fidelity_anchors():
    ps = default_parameters()
    contour = fidelity.fidelity_contour(ps, [200.0, 500.0],
                                        [0.80, 0.95, 0.999])
    targets = {(500.0, 0.95): 0.831, (200.0, 0.95): 0.734,
               (500.0, 0.80): 0.596, (200.0, 0.80): 0.526,
               (500.0, 0.999): 0.858}
    return tuple(
        Measure(f"F_total({fp:.0f},{pol:g})",
                contour.F_total[contour.fp_grid.index(fp),
                              contour.polarization_grid.index(pol)],
                target, 0.01)
        for (fp, pol), target in targets.items())


def check_rates():
    ps = default_parameters()
    measures = []
    for curve, target in (("B", 0.58), ("C", 0.41), ("D", 0.32)):
        product = rates.CURVE_PRODUCTS[curve]
        link = rates.curve_parameters(ps, product).link
        measures.append(Measure(f"p_gate({product})",
                                rates.swap_success_probability(link),
                                target, 0.005))

    base = rates.mean_time_parallel(ps)
    scaled = rates.mean_time_parallel(with_link(ps, eta_fc=0.4))
    ratio = scaled.rate / base.rate

    rate_b, rate_c, rate_d = rates.curve_rates(ps,
                                               np.linspace(200e3, 1000e3, 9))
    rises = int(np.sum(~(rate_b[:-1] > rate_b[1:])))
    disorder = int(np.sum(~((rate_b > rate_c) & (rate_c > rate_d))))

    curve_b = rates.curve_parameters(ps, rates.CURVE_PRODUCTS["B"])
    crossover = rates.crossover_distance(curve_b)
    return (*measures,
            # the rate scales as eta_fc**2, so eta_fc = 0.4 gives 0.16
            Measure("eta_fc rate-ratio misses",
                    int(not math.isclose(ratio, 0.16, rel_tol=1e-9)), 0, 0),
            Measure("curve B non-decreasing steps", rises, 0, 0),
            Measure("grid points not B>C>D", disorder, 0, 0),
            Measure("crossover km",
                    math.nan if crossover is None else crossover / 1e3,
                    0.0, 1000.0, "<"))


def check_monte_carlo():
    cfg0 = mcsim.ProtocolConfig(n_nest=0, p0=0.1, p_swap=1.0, slot_time=1.0,
                                trials=100_000, seed=20240801)
    stats0 = mcsim.simulate_chain(cfg0)
    z0 = abs(stats0.mean - 10.0) / stats0.stderr

    p0 = 0.01
    exact = (2.0 / p0 - 1.0 / (p0 * (2.0 - p0))) / 0.5
    cfg1 = mcsim.ProtocolConfig(n_nest=1, p0=p0, p_swap=0.5, slot_time=1.0,
                                trials=100_000, seed=20240802)
    stats1 = mcsim.simulate_chain(cfg1)
    z1 = abs(stats1.mean - exact) / stats1.stderr

    analytic3 = rates.parallel_closed_form(0.01, 0.5832, 1.0, 3).mean_time
    cfg3 = mcsim.ProtocolConfig(n_nest=3, p0=0.01, p_swap=0.5832,
                                slot_time=1.0, trials=20_000, seed=20240803)
    report3 = mcsim.compare_with_analytic(mcsim.simulate_chain(cfg3),
                                          analytic3)

    cfg_d = mcsim.ProtocolConfig(n_nest=1, p0=0.05, p_swap=0.6, slot_time=1.0,
                                 trials=2_000, seed=7)
    identical = mcsim.run_trials(cfg_d) == mcsim.run_trials(cfg_d)
    return (Measure("n=0 mean z-score", z0, 0.0, 3.0, "<="),
            Measure("n=1 mean z-score", z1, 0.0, 3.0, "<="),
            Measure("n=3 closed-form mismatches", int(not report3.passed),
                    0, 0),
            Measure("rerun mismatches", int(not identical), 0, 0))


def check_quantum_oracle():
    p = qsim.TransferParams(n_nuclei=5, coupling=1.0e6)
    g = p.rabi_rate
    state = qsim.collective_state(1.0, 0.0, 5)
    idx = qsim.collective_index(0, 1, 5)
    times = np.linspace(0.0, 2.0 * math.pi / g, 101)
    written = qsim.transfer_propagator(p, times)[:, idx, :] @ state.amps
    # np.max, unlike max(), propagates NaN, so a NaN deviation fails
    worst = float(np.max(np.abs(np.abs(written) ** 2
                                - np.sin(g * times) ** 2)))

    kick = qsim.DensityMatrix.from_pure(
        np.array([0, 1, 0, -1], dtype=complex) / math.sqrt(2))
    plus = qsim.DensityMatrix.from_pure(
        np.array([0, 1, 0, 1], dtype=complex) / math.sqrt(2))
    kicked = plus.apply_kraus([qsim.CZ_GATE], [0, 1])
    cz_misses = (
        int(not np.array_equal(qsim.CZ_GATE, np.diag([1.0, 1.0, 1.0, -1.0])))
        + int(not np.allclose(kicked.mat, kick.mat, atol=1e-12)))

    pair = qsim.werner_pair(1.0)
    branches = qsim.swap_branches(pair.tensor(pair), 1.0, 1.0)
    fids = np.array([qsim.bell_fidelity(dm) for _, _, dm in branches])
    # np.max propagates NaN, so this is "every branch within the bound"
    swap_dev = float(np.max(np.abs(fids - 1.0), initial=0.0))

    overlap_devs = []
    for n in (1, 2, 3, 4):
        tp = qsim.TransferParams(n_nuclei=n, coupling=2.0e6)
        coll = qsim.collective_state(0.6, 0.8, n)
        t = 0.37 * math.pi / (2.0 * tp.rabi_rate)
        via_coll = qsim.embed_collective(qsim.evolve_transfer(coll, tp, t))
        via_full = qsim.full_space_oracle(tp, qsim.embed_collective(coll), t)
        overlap_devs.append(abs(1.0 - abs(via_coll.overlap(via_full))))
    worst_overlap = float(np.max(overlap_devs))

    comp = dict(F_ent=0.995, F_transfer=0.993, F_gate=0.995,
                F_readout=0.99983, F_e_init=0.99996)
    gaps = [Measure(f"chain oracle vs product formula gap (l={l})",
                    abs(qsim.chain_fidelity_oracle(l, **comp)
                        - fidelity.overall_fidelity(n, **comp)),
                    0.0, 0.02, "<=")
            for l, n in ((2, 1), (4, 2))]
    return (Measure("Rabi-law max deviation", worst, 0.0, 1e-9, "<"),
            Measure("CZ truth table mismatches", cz_misses, 0, 0),
            Measure("ideal swap branches", len(fids), 4, 0),
            Measure("ideal swap max |F - 1|", swap_dev, 0.0, 1e-10, "<"),
            Measure("full-vs-collective deviation", worst_overlap, 0.0, 1e-8,
                    "<"),
            *gaps)


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


def run_all() -> list[CheckResult]:
    """Run every criterion, in registry order."""
    return [CheckResult(criterion, name, fn()) for criterion, name, fn in CHECKS]
