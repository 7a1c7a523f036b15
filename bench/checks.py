"""Correctness checks on workload outputs.

Every check must keep passing under a correct optimisation, so none compares
random streams or bytes against a stored golden output: the Monte Carlo is
checked for internal consistency and for determinism between two runs of the
same code, the closed forms against values stored at a known-good commit
within a relative tolerance, and the oracle against its own physics.

Each function takes a ``Checks`` and the outputs it judges, so a self-test
can feed it deliberately wrong outputs and see it fail.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: criterion-7 anchors of F_total at n_nest = 3, keyed by (F_p, polarization).
ANCHORS = {(500.0, 0.95): 0.831, (200.0, 0.95): 0.734, (500.0, 0.80): 0.596,
           (200.0, 0.80): 0.526, (500.0, 0.999): 0.858}
ANCHOR_TOL = 0.01
REFERENCE_RTOL = 1e-6
ENT_ATOL = 1e-6
#: nodes per dimension of the reference product rule; the adaptive rule
#: stops at 42 or 84.
HIGH_ORDER_NODES = 168
MC_HEADER = ["trial", "total_time_s", "swap_failures", "max_storage_s"]
TRANSFER_TOL = 1e-8
CHAIN_GAP_TOL = 0.02
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)


class Checks:
    """Counts checks attempted and keeps a message for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return bool(ok)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().splitlines()
    if not lines:
        return [], []
    return (lines[0].split(","),
            [[float(v) for v in line.split(",")] for line in lines[1:]])


def check_exit(checks: Checks, label: str, rc: int) -> bool:
    return checks.expect(rc == 0, f"{label}: exit code {rc}")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def check_validate(checks: Checks, rc: int, out: str) -> None:
    check_exit(checks, "validate", rc)
    m = re.search(r"^(\d+)/(\d+) criteria passed$", out, re.M)
    checks.expect(m is not None and m.group(1) == m.group(2) == "10",
                  f"validate: expected 10/10 criteria, got "
                  f"{m.group(0) if m else 'no summary line'}")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def check_reference(checks: Checks, label: str, text: str, ref_text: str) -> None:
    """Every value within REFERENCE_RTOL of the stored reference."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref_text)
    if not checks.expect(header == ref_header and len(rows) == len(ref_rows),
                         f"{label}: {len(rows)} rows / header {header} differ "
                         f"from the reference ({len(ref_rows)} rows)"):
        return
    got, want = np.array(rows), np.array(ref_rows)
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    worst = float(rel.max()) if rel.size else 0.0
    checks.expect(worst <= REFERENCE_RTOL,
                  f"{label}: worst relative deviation from the reference "
                  f"{worst:.2e} > {REFERENCE_RTOL:g}")


def check_anchors(checks: Checks, label: str, contour_text: str) -> None:
    """Criterion-7 anchors, on whichever of them the grid contains."""
    header, rows = parse_csv(contour_text)
    col = header.index("F_total") if "F_total" in header else None
    for (fp, pol), target in ANCHORS.items():
        for row in rows:
            if math.isclose(row[0], fp) and math.isclose(row[1], pol):
                value = row[col] if col is not None else math.nan
                checks.expect(abs(value - target) <= ANCHOR_TOL,
                              f"{label}: F_total({fp:g}, {pol:g}) = {value:.4f}, "
                              f"anchor {target} +- {ANCHOR_TOL}")


def reference_ent(phys, nodes: int = HIGH_ORDER_NODES) -> float:
    """High-order product Gauss-Hermite average of the heralding fidelity.

    Written out from the physics rather than calling the library, so it stays
    a fixed reference whatever the library's quadrature becomes.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    off = math.sqrt(2.0) * phys.sigma_sd * x
    det = phys.detuning + off
    fp = phys.F_res * phys.kappa**2 / (4.0 * det**2 + phys.kappa**2)
    gp = phys.gamma_r * (1.0 + fp) + phys.gamma_nr
    big = gp + 2.0 * phys.gamma_star
    num = 4.0 * np.outer(gp, gp)
    den = (big[:, None] + big[None, :]) ** 2 + 4.0 * (off[:, None] - off[None, :]) ** 2
    return float(w @ (0.5 * (1.0 + num / den)) @ w / math.pi)


def check_ent_quadrature(checks: Checks, label: str, contour_text: str,
                         phys_at) -> None:
    """Each F_ent within ENT_ATOL of the high-order rule at its F_p.

    ``phys_at(fp)`` gives the physical parameters at Purcell factor ``fp``.
    F_ent does not depend on polarization, so one reference serves a row.
    """
    header, rows = parse_csv(contour_text)
    if not checks.expect(rows and "F_ent" in header,
                         f"{label}: no F_ent column"):
        return
    col = header.index("F_ent")
    refs: dict[float, float] = {}
    worst = 0.0
    for row in rows:
        if row[0] not in refs:
            refs[row[0]] = reference_ent(phys_at(row[0]))
        worst = max(worst, abs(row[col] - refs[row[0]]))
    checks.expect(worst <= ENT_ATOL,
                  f"{label}: F_ent off the {HIGH_ORDER_NODES}-node rule by "
                  f"{worst:.2e} > {ENT_ATOL:g}")


def check_grid(checks: Checks, label: str, contour_text: str, points: int) -> None:
    header, rows = parse_csv(contour_text)
    totals = [row[-1] for row in rows]
    checks.expect(len(rows) == points and header[-1:] == ["F_total"]
                  and all(0.0 <= f <= 1.0 for f in totals),
                  f"{label}: {len(rows)} rows (want {points}) or F_total "
                  f"outside [0, 1]")


# ---------------------------------------------------------------------------
# mc_cutoff
# ---------------------------------------------------------------------------

def check_mc_cutoff(checks: Checks, rc: int, out: str, csv_text: str,
                    meta: dict | None, trials: int, cutoff: float, seed: int,
                    histogram) -> None:
    """Per-trial CSV, printed summary and storage histogram agree.

    The closed-form comparison that ``mc`` prints is expected to FAIL with a
    cutoff (the closed form has none) and is not checked.  Neither are the
    abort times of failed trials.
    """
    check_exit(checks, "mc", rc)
    header, rows = parse_csv(csv_text)
    if not checks.expect(header == MC_HEADER and len(rows) == trials
                         and [r[0] for r in rows] == list(range(trials)),
                         f"mc: CSV header {header} / {len(rows)} rows, want "
                         f"{MC_HEADER} / {trials} numbered rows"):
        return
    storage = np.array([r[3] for r in rows])
    checks.expect(all(r[1] > 0.0 and r[2] >= 0 and r[2] == int(r[2])
                      for r in rows),
                  "mc: non-positive total time or bad swap-failure count")
    checks.expect(np.all((storage >= 0.0) & (storage <= cutoff)),
                  f"mc: max storage {storage.max():.6g} s exceeds the "
                  f"{cutoff:g} s cutoff")
    # failed trials report exactly the cutoff; successful ones stay below it
    success = storage[storage < cutoff]
    m = re.search(r"success fraction ([0-9.]+)", out)
    printed = float(m.group(1)) if m else math.nan
    checks.expect(abs(printed - success.size / trials) <= 5e-5 + 1e-12,
                  f"mc: printed success fraction {printed} vs CSV "
                  f"{success.size / trials:.4f}")
    m = re.search(r"fraction exceeding 1 s: ([0-9.]+)", out)
    printed = float(m.group(1)) if m else math.nan
    exceed = float((success > 1.0).mean()) if success.size else math.nan
    checks.expect(abs(printed - exceed) <= 5e-5 + 1e-12,
                  f"mc: printed fraction exceeding 1 s {printed} vs CSV "
                  f"{exceed:.4f}")
    checks.expect(meta is not None and meta.get("seed") == seed,
                  f"mc: meta.json missing or seed != {seed}")
    values = np.asarray(histogram.values)
    checks.expect(values.size == success.size
                  and int(np.sum(histogram.counts)) == values.size
                  and (values.size == 0 or values.max() <= cutoff),
                  f"mc: histogram holds {values.size} values, CSV has "
                  f"{success.size} successful trials")


def check_same_output(checks: Checks, label: str, digests: list[str]) -> None:
    """Every run of the same inputs produced the same output."""
    checks.expect(len(set(digests)) == 1,
                  f"{label}: {len(set(digests))} distinct outputs from "
                  f"{len(digests)} runs of one seed")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def product_formula(l: int, F_ent: float, F_transfer: float, F_gate: float,
                    F_readout: float, F_e_init: float) -> float:
    """The paper's multiplicative chain fidelity over l links."""
    return (F_e_init ** (2 * l) * F_readout ** (2 * (l - 1))
            * (F_ent * F_transfer**2) ** l * F_gate ** (l - 1))


def check_oracle(checks: Checks, rc: int, out: str, transfer, chains,
                 swaps) -> None:
    """``transfer``: (n_nuclei, deviation); ``chains``: (l, components,
    oracle value); ``swaps``: branch lists of ``qsim.swap_branches``."""
    check_exit(checks, "qsim", rc)
    checks.expect("quantum oracle: PASS" in out, "qsim: no PASS verdict")
    for n, deviation in transfer:
        checks.expect(deviation < TRANSFER_TOL,
                      f"oracle: full-vs-collective deviation {deviation:.2e} "
                      f"at {n} nuclei")
    for l, comp, value in chains:
        checks.expect(0.25 <= value <= 1.0,
                      f"oracle: chain({l}) fidelity {value} outside [0.25, 1]")
        gap = value - product_formula(l, **comp)
        checks.expect(abs(gap) <= CHAIN_GAP_TOL,
                      f"oracle: chain({l}) minus product formula {gap:+.4f}")
    for branches in swaps:
        total = sum(prob for prob, _, _ in branches)
        fid = sum(prob * float(np.real(PSI_PLUS @ pair.mat @ PSI_PLUS))
                  for prob, _, pair in branches)
        checks.expect(abs(total - 1.0) <= 1e-9 and 0.25 <= fid <= 1.0,
                      f"oracle: swap branch probabilities sum to {total:.12f}, "
                      f"averaged fidelity {fid:.4f}")
