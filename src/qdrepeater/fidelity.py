"""Fidelity budget of the repeater protocol.

Covers heralded entanglement generation between detuned Purcell-enhanced
emitters (including the Gaussian spectral-diffusion average), electron-nuclear
state transfer, the cavity-assisted photon-scattering gate, fluorescence
readout, Zeeman/Overhauser level splittings, and the multiplicative
composition of all components over a nested chain.

Perturbative formulas (notably the gate) can leave their validity regime and
return values outside [0, 1]; they are reported raw together with warnings
rather than clamped.  The gate and the readout return their validity notes,
and a budget carries them in ``warnings``.

F_ent is the heralding fidelity averaged over both dots' Gaussian spectral
diffusion, a product Gauss-Hermite rule.  One kernel evaluates it for a whole
array of resonant Purcell factors, broadcasting (points, nodes, nodes) and
summing each point in the same order as a lone point.  Node doubling
(21, 42, 84, ...) goes on only for the points whose last two estimates still
differ by more than ``rtol``; each point keeps the estimate at which it
converged.  Node tables are built on first use, once per order, and are
read-only.  A single budget is the one-point case of the grid code, and
:func:`fidelity_contour` evaluates each component once on the grid axis it
depends on: F_ent, the gate and the readout per Purcell factor, F_n_init per
polarization.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.constants import physical_constants
from scipy.interpolate import PchipInterpolator

from .params import ParameterSet, PhysicalParams

TWO_PI = 2.0 * math.pi

#: Bohr magneton over Planck constant (Hz/T), CODATA.
MU_B_OVER_H = physical_constants["Bohr magneton in Hz/T"][0]


class ConvergenceError(RuntimeError):
    """Quadrature failed to converge; carries the last two estimates."""

    def __init__(self, estimates: tuple[float, float]):
        self.estimates = estimates
        super().__init__(
            f"quadrature did not converge, last estimates {estimates}")


@dataclass(frozen=True)
class SplittingResult:
    """Electron ground / trion level splittings in Hz."""

    dE_g: float
    dE_e: float
    dE_OH: float


@dataclass(frozen=True)
class GateResult:
    """Photon-scattering gate fidelity with its gate time and validity notes."""

    fidelity: float
    gate_time: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class FidelityBudget:
    """Per-component fidelities and their composition for one configuration."""

    F_e_init: float
    F_n_init: float
    F_quad: float
    F_transfer: float
    F_BK_nominal: float
    F_ent: float
    F_gate: float
    F_readout: float
    F_total: float
    gate_time: float
    n_nest: int
    warnings: tuple[str, ...]

    @property
    def in_regime(self) -> bool:
        """True when every component sits in [0, 1] and no warnings fired."""
        comps = (self.F_e_init, self.F_n_init, self.F_quad, self.F_transfer,
                 self.F_ent, self.F_gate, self.F_readout)
        return not self.warnings and all(0.0 <= c <= 1.0 for c in comps)


# ---------------------------------------------------------------------------
# entanglement generation
# ---------------------------------------------------------------------------

def purcell_at_detuning(F_res: float, kappa: float, delta: float) -> float:
    """Lorentzian suppression of the resonant Purcell factor at detuning delta."""
    if kappa <= 0:
        raise ValueError("cavity linewidth must be positive")
    return F_res * kappa**2 / (4.0 * delta**2 + kappa**2)


def enhanced_rates(gamma_r: float, gamma_nr: float, gamma_star: float,
                   F_p: float):
    """Purcell-enhanced decay and total dephasing rates.

    Returns ``(gamma_prime, Gamma_prime)`` with
    gamma' = gamma_r*(1+F_p) + gamma_nr and Gamma' = gamma' + 2*gamma_star.
    """
    gamma_prime = gamma_r * (1.0 + F_p) + gamma_nr
    return gamma_prime, gamma_prime + 2.0 * gamma_star


def barrett_kok_fidelity(gp_i, gp_j, Gp_i, Gp_j, delta_omega):
    """Two-round single-photon-interference heralding fidelity.

    F = 1/2 * [1 + 4*gamma'_i*gamma'_j / ((Gamma'_i+Gamma'_j)^2 + 4*dw^2)].
    Accepts scalars or arrays.
    """
    num = 4.0 * gp_i * gp_j
    den = (Gp_i + Gp_j) ** 2 + 4.0 * np.asarray(delta_omega) ** 2
    return 0.5 * (1.0 + num / den)


def _nominal_bk(phys: PhysicalParams, F_res: np.ndarray) -> np.ndarray:
    """Heralding fidelity of two identical dots at the mean detuning."""
    fp = purcell_at_detuning(F_res, phys.kappa, phys.detuning)
    gp, Gp = enhanced_rates(phys.gamma_r, phys.gamma_nr, phys.gamma_star, fp)
    return barrett_kok_fidelity(gp, gp, Gp, Gp, 0.0)


@cache
def _gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights (physicists' convention)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


#: Elements of one (rows, nodes, nodes) block of the product rule, 2 MB of
#: float64; a longer F_res array is evaluated a block of rows at a time.
_BLOCK_ELEMENTS = 1 << 18


def _ent_product_rule(phys: PhysicalParams, F_res: np.ndarray,
                      nodes: int) -> np.ndarray:
    """Product-rule average of the heralding fidelity at each resonant F_res.

    Every other input comes from ``phys``.  The Purcell factor is
    re-evaluated per spectral offset: the dot frequency moves while the
    cavity stays fixed.  Each row is summed on its own, in the same order as
    for a single point, so its value does not depend on the other rows.
    """
    x, w = _gauss_hermite(nodes)
    off = math.sqrt(2.0) * phys.sigma_sd * x
    det = phys.detuning + off
    dw = off[:, None] - off[None, :]
    out = np.empty(F_res.size)
    step = max(1, _BLOCK_ELEMENTS // nodes**2)
    for lo in range(0, F_res.size, step):
        fp = purcell_at_detuning(F_res[lo:lo + step, None], phys.kappa, det)
        gp, Gp = enhanced_rates(phys.gamma_r, phys.gamma_nr, phys.gamma_star,
                                fp)
        vals = barrett_kok_fidelity(gp[:, :, None], gp[:, None, :],
                                    Gp[:, :, None], Gp[:, None, :], dw)
        # physicists' convention: sum(w) = sqrt(pi) per dimension
        out[lo:lo + step] = np.einsum("i,j,gij->g", w, w, vals) / math.pi
    return out


def _ent_adaptive(phys: PhysicalParams, F_res: np.ndarray, rtol: float,
                  start_nodes: int = 21, max_doublings: int = 6) -> np.ndarray:
    """Spectral-diffusion-averaged F_ent at each F_res, by node doubling.

    Only the points whose last two estimates still differ by more than
    ``rtol`` go on to the next doubling; each point keeps the estimate at
    which it converged.
    """
    if phys.sigma_sd < 0:
        raise ValueError("sigma_sd must be non-negative")
    if phys.sigma_sd == 0.0:
        return _nominal_bk(phys, F_res)
    nodes = start_nodes
    todo = np.arange(F_res.size)
    prev = _ent_product_rule(phys, F_res, nodes)
    last = np.full(F_res.size, math.nan)  # no estimate before the first
    out = np.empty(F_res.size)
    for _ in range(max_doublings):
        nodes *= 2
        cur = _ent_product_rule(phys, F_res[todo], nodes)
        done = np.abs(cur - prev) <= rtol * np.abs(cur)
        out[todo[done]] = cur[done]
        if done.all():
            return out
        todo, last, prev = todo[~done], prev[~done], cur[~done]
    raise ConvergenceError((float(last[0]), float(prev[0])))


def entanglement_fidelity_fixed_nodes(phys: PhysicalParams, nodes: int) -> float:
    """Gauss-Hermite product-rule average of the heralding fidelity."""
    return float(_ent_product_rule(phys, np.array([phys.F_res]), nodes)[0])


def entanglement_fidelity(phys: PhysicalParams, rtol: float = 1e-6,
                          start_nodes: int = 21, max_doublings: int = 6) -> float:
    """Spectral-diffusion-averaged entanglement-generation fidelity.

    Both dots are drawn from Gaussians of width ``sigma_sd`` around the
    configured mean detuning.  The product Gauss-Hermite rule is refined by
    node doubling until successive estimates agree to ``rtol``.
    """
    return float(_ent_adaptive(phys, np.array([phys.F_res]), rtol,
                               start_nodes, max_doublings)[0])


# ---------------------------------------------------------------------------
# state transfer
# ---------------------------------------------------------------------------

def electron_init_fidelity(phys: PhysicalParams) -> float:
    """Configured optical-pumping initialization fidelity (tabulated input)."""
    return phys.F_e_init


_NUCLEAR_INIT_ANCHORS = ((0.80, 0.977), (0.95, 0.998), (0.999, 0.99999),
                         (1.0, 1.0))
_nuclear_init_curve = PchipInterpolator(
    [a[0] for a in _NUCLEAR_INIT_ANCHORS],
    [a[1] for a in _NUCLEAR_INIT_ANCHORS])


def _nuclear_init(polarization: np.ndarray) -> np.ndarray:
    """:func:`nuclear_init_fidelity` at every entry of an array."""
    outside = ~((0.80 <= polarization) & (polarization <= 1.0))
    if outside.any():
        raise ValueError(
            f"polarization {polarization[outside][0]} outside the tabulated "
            "range [0.80, 1.0]")
    return _nuclear_init_curve(polarization)


def nuclear_init_fidelity(polarization: float) -> float:
    """State-transfer factor from partial nuclear polarization.

    Monotone cubic interpolation through tabulated anchor points; the table
    starts at 80% polarization and no extrapolation below it is allowed.
    """
    return float(_nuclear_init(np.array([polarization], dtype=float))[0])


def quadrupolar_factor(sigma_Q: float, delta_m: int, t: float) -> float:
    """Spin-wave survival under inhomogeneous quadrupolar dephasing.

    exp(-delta_m**4 * sigma_Q**2 * t**2) with sigma_Q in s^-1.
    """
    if delta_m not in (1, 2):
        raise ValueError("delta_m must be 1 or 2")
    if t < 0:
        raise ValueError("time must be non-negative")
    return math.exp(-float(delta_m) ** 4 * sigma_Q**2 * t**2)


def transfer_fidelity(F_e_init: float, F_n_init: float, F_quad: float) -> float:
    """Full write-read transfer fidelity, the product of its three factors."""
    return F_e_init * F_n_init * F_quad


# ---------------------------------------------------------------------------
# gate and readout
# ---------------------------------------------------------------------------

def gate_fidelity(phys: PhysicalParams) -> GateResult:
    """Cavity-assisted photon-scattering gate fidelity, first order in 1/C.

    The cooperativity is identified with the resonant Purcell factor
    (C = F_p when the population lifetime is radiative).  Gate time is twice
    the FWHM duration of the Gaussian gate photon.  Each correction term above
    0.05 triggers a validity warning since the expansion is first order.
    """
    C = phys.F_res
    if C <= 0:
        raise ValueError("cooperativity must be positive")
    if phys.delta_p <= 0:
        raise ValueError("gate photon spectral width must be positive")
    gamma = phys.gamma_r
    xi = 1.0 / (2.0 * phys.T2_electron)
    gate_time = 8.0 * math.pi * math.sqrt(2.0 * math.log(2.0)) / phys.delta_p
    sigma_p = phys.sigma_sd * 2.0 * math.sqrt(2.0 * math.log(2.0))

    term_c = 5.0 / (2.0 * C)
    term_eps = (phys.delta_eps1 - phys.delta_eps2) ** 2 / (2.0 * gamma**2 * C)
    term_xi = xi * gate_time
    ratio = 2.0 * phys.g_cav / phys.kappa
    bracket = 11.0 - 20.0 * ratio**2 + 12.0 * ratio**4
    term_spec = ((sigma_p**2 + phys.delta_p**2) / (4.0 * gamma**2 * C**2)
                 * bracket)

    warn: list[str] = []
    for name, term in (("1/C", term_c), ("detuning-asymmetry", term_eps),
                       ("decoherence", term_xi), ("spectral", term_spec)):
        if term > 0.05:
            warn.append(f"gate {name} correction {term:.3g} exceeds 0.05; "
                        "first-order expansion unreliable")
    value = 1.0 - term_c - term_eps - term_xi - term_spec
    return GateResult(fidelity=value, gate_time=gate_time, warnings=tuple(warn))


def _readout(T: float, D: float, eta_c: float, eta_d: float, Omega: float,
             gamma_prime: float) -> tuple[float, tuple[str, ...]]:
    """Readout fidelity and its validity notes; see :func:`readout_fidelity`.

    The emission-rate formula needs a weak drive, Omega <= gamma'/5.
    """
    if T < 0 or D < 0:
        raise ValueError("readout window and dark-count rate must be non-negative")
    notes: tuple[str, ...] = ()
    if Omega > gamma_prime / 5.0:
        notes = (f"readout drive {Omega / gamma_prime:.3g} x gamma' is not weak "
                 "(above 0.2 x gamma'); emission-rate formula degrades",)
    signal = T * eta_c * eta_d * Omega**2 / gamma_prime
    return 0.5 * (1.0 + math.exp(-T * D) - math.exp(-signal)), notes


def readout_fidelity(T: float, D: float, eta_c: float, eta_d: float,
                     Omega: float, gamma_prime: float) -> float:
    """Spin readout fidelity with Poissonian signal and dark counts.

    F = 1/2 * [1 + exp(-T*D) - exp(-T*eta_c*eta_d*Omega**2/gamma')], with the
    weak continuous drive emitting at rate Omega**2/gamma'.  A drive that is
    not weak raises a ``UserWarning``; :func:`fidelity_budget` reports it in
    its ``warnings`` instead.
    """
    value, notes = _readout(T, D, eta_c, eta_d, Omega, gamma_prime)
    for note in notes:
        _warnings.warn(note, stacklevel=2)
    return value


def invert_readout_drive(F_target: float, T: float, D: float, eta_c: float,
                         eta_d: float, gamma_prime: float) -> float:
    """Drive amplitude (rad/s) that reproduces a target readout fidelity."""
    tail = 1.0 + math.exp(-T * D) - 2.0 * F_target
    if tail <= 0:
        raise ValueError("target fidelity unreachable within the dark-count budget")
    exponent = -math.log(tail)
    return math.sqrt(exponent * gamma_prime / (T * eta_c * eta_d))


# ---------------------------------------------------------------------------
# level structure and pulse engineering
# ---------------------------------------------------------------------------

def zeeman_splittings(B_x: float, g_e: float, g_h: float, polarization: float,
                      dE_OH_max: float) -> SplittingResult:
    """Ground and trion splittings (Hz) from Zeeman plus Overhauser shifts."""
    if B_x < 0:
        raise ValueError("magnetic field must be non-negative")
    dE_OH = polarization * dE_OH_max
    dE_g = abs(MU_B_OVER_H * g_e * B_x) + dE_OH
    dE_e = abs(MU_B_OVER_H * g_h * B_x) + dE_OH
    return SplittingResult(dE_g=dE_g, dE_e=dE_e, dE_OH=dE_OH)


def pulse_spacing(omega_Z_nuclear: float, delta_m: int) -> float:
    """Pulse interval 3*pi/(4*omega_Z*delta_m) selecting the delta_m mode."""
    if omega_Z_nuclear <= 0:
        raise ValueError("nuclear Zeeman splitting must be positive")
    if delta_m not in (1, 2):
        raise ValueError("delta_m must be 1 or 2")
    return 3.0 * math.pi / (4.0 * omega_Z_nuclear * delta_m)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def overall_fidelity(budget: FidelityBudget, n_nest: int) -> float:
    """Multiplicative end-to-end fidelity over l = 2**n_nest links.

    F_total = F_e_init^(2l) * F_readout^(2(l-1)) * (F_ent*F_transfer^2)^l
            * F_gate^(l-1).  Accurate only in the high-fidelity regime.
    """
    l = 2**n_nest
    return (budget.F_e_init ** (2 * l)
            * budget.F_readout ** (2 * (l - 1))
            * (budget.F_ent * budget.F_transfer**2) ** l
            * budget.F_gate ** (l - 1))


def _budget_grid(params: ParameterSet, fp_grid, pol_grid, n_nest: int,
                 rtol: float) -> tuple[tuple[FidelityBudget, ...], ...]:
    """Budgets on a (resonant Purcell factor, polarization) grid.

    Each component is evaluated once on the axis it depends on: F_ent,
    F_BK_nominal, the gate and the readout once per Purcell factor (F_ent for
    the whole axis in one quadrature), F_n_init once per polarization.  Only
    F_transfer's product and the composition run per point.
    """
    phys, link = params.physical, params.link
    fp = np.asarray(fp_grid, dtype=float)
    pol = np.asarray(pol_grid, dtype=float)

    f_ent = _ent_adaptive(phys, fp, rtol).tolist()
    f_bk = _nominal_bk(phys, fp).tolist()
    gamma_prime_res = (phys.gamma_r * (1.0 + fp) + phys.gamma_nr).tolist()

    f_e = electron_init_fidelity(phys)
    f_quad = quadrupolar_factor(phys.sigma_Q, 2, phys.t_transfer)
    f_n = _nuclear_init(pol).tolist()
    f_tr = [transfer_fidelity(f_e, v, f_quad) for v in f_n]

    budgets = []
    for F_res, f_ent_i, f_bk_i, gp_res in zip(fp.tolist(), f_ent, f_bk,
                                              gamma_prime_res):
        gate = gate_fidelity(replace(phys, F_res=F_res))
        f_ro, ro_notes = _readout(phys.T_readout, phys.D_dark, link.eta_c,
                                  link.eta_d, phys.Omega_readout, gp_res)
        row = []
        for f_n_j, f_tr_j in zip(f_n, f_tr):
            budget = FidelityBudget(
                F_e_init=f_e, F_n_init=f_n_j, F_quad=f_quad,
                F_transfer=f_tr_j, F_BK_nominal=f_bk_i, F_ent=f_ent_i,
                F_gate=gate.fidelity, F_readout=f_ro,
                F_total=math.nan, gate_time=gate.gate_time, n_nest=n_nest,
                warnings=gate.warnings + ro_notes)
            row.append(replace(budget,
                               F_total=overall_fidelity(budget, n_nest)))
        budgets.append(tuple(row))
    return tuple(budgets)


def fidelity_budget(params: ParameterSet, n_nest: int | None = None,
                    rtol: float = 1e-6) -> FidelityBudget:
    """Evaluate every component fidelity for one parameter set and compose.

    Entanglement generation runs detuned (Purcell suppressed); the gate and
    readout run on resonance with C = F_res.  The validity notes of the gate
    and the readout are collected in ``warnings``.
    """
    if n_nest is None:
        n_nest = params.link.n_nest
    phys = params.physical
    return _budget_grid(params, [phys.F_res], [phys.nuclear_polarization],
                        n_nest, rtol)[0][0]


@dataclass(frozen=True)
class ContourResult:
    """Grid evaluation of the full pipeline over Purcell factor x polarization."""

    fp_grid: tuple[float, ...]
    polarization_grid: tuple[float, ...]
    total: np.ndarray                    # shape (len(fp), len(pol))
    budgets: tuple[tuple[FidelityBudget, ...], ...]

    def rows(self):
        """Flat (F_p, pol, budget) triplets in deterministic grid order."""
        for i, fp in enumerate(self.fp_grid):
            for j, pol in enumerate(self.polarization_grid):
                yield fp, pol, self.budgets[i][j]


def fidelity_contour(params: ParameterSet, fp_grid, polarization_grid,
                     n_nest: int = 3) -> ContourResult:
    """Evaluate F_total on a (Purcell factor, nuclear polarization) grid.

    Each grid Purcell value sets both the gate cooperativity and the resonant
    factor feeding the detuned entanglement-generation average; the transfer
    duration stays fixed at the configured write-read time.  Every budget
    equals :func:`fidelity_budget` at that point.
    """
    fp_grid = tuple(float(v) for v in fp_grid)
    pol_grid = tuple(float(v) for v in polarization_grid)
    if not fp_grid or not pol_grid:
        raise ValueError("grids must be non-empty")
    budgets = _budget_grid(params, fp_grid, pol_grid, n_nest, rtol=1e-6)
    total = np.array([[b.F_total for b in row] for row in budgets])
    return ContourResult(fp_grid=fp_grid, polarization_grid=pol_grid,
                         total=total, budgets=budgets)
