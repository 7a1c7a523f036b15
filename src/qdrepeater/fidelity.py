"""Fidelity budget of the repeater protocol.

Covers heralded entanglement generation between detuned Purcell-enhanced
emitters (including the Gaussian spectral-diffusion average), electron-nuclear
state transfer, the cavity-assisted photon-scattering gate, fluorescence
readout, Zeeman/Overhauser level splittings, and the multiplicative
composition of all components over a nested chain.

Perturbative formulas (notably the gate) can leave their validity regime and
return values outside [0, 1]; they are reported raw together with warnings
rather than clamped.  The gate and the readout return their validity notes
as data, and a budget carries them in ``warnings``.

F_ent is the heralding fidelity averaged over both dots' Gaussian spectral
diffusion, a product Gauss-Hermite rule.  One kernel evaluates it for a whole
array of resonant Purcell factors, broadcasting (points, nodes, nodes) and
summing each point in the same order as a lone point.  Node doubling
(21, 42, 84, ...) goes on only for the points whose last two estimates still
differ by more than :data:`ENT_RTOL` (1e-6); each point keeps the estimate
at which it converged.  A zero width runs the same rule, with every node at
the mean detuning.  Node tables are built on first use, once per order,
and are read-only.

:func:`fidelity_contour` makes one pass over a (Purcell factor,
polarization) grid and returns one :class:`FidelityBudget`, which holds each
component on the grid axis it depends on: F_ent, the gate and the readout
per Purcell factor, F_transfer per polarization, each in one array call.
F_total is composed once for the whole grid, by squarings and products
only, so each point has the bits it would have alone.  A single
configuration is the 1 x 1 grid (:func:`fidelity_budget`).
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cache

import numpy as np

from .params import ParameterSet, PhysicalParams, record

#: Bohr magneton over Planck constant (Hz/T), CODATA 2022.
MU_B_OVER_H = 13996244917.1

#: Relative tolerance at which F_ent node doubling stops.
ENT_RTOL = 1e-6

#: Gauss-Hermite order of the first F_ent estimate.
_ENT_START_NODES = 21

#: Most node doublings after the first F_ent estimate.
_ENT_DOUBLINGS = 6


class ConvergenceError(RuntimeError):
    """Quadrature failed to converge at one point.

    Carries the point's resonant Purcell factor ``F_res``, the node order
    ``nodes`` of its last estimate, the ``rtol`` it missed and its last two
    ``estimates``.
    """

    def __init__(self, F_res: float, nodes: int, rtol: float,
                 estimates: tuple[float, float]):
        self.F_res = F_res
        self.nodes = nodes
        self.rtol = rtol
        self.estimates = estimates
        super().__init__(
            f"quadrature did not converge at F_res={F_res:g} ({nodes} nodes, "
            f"rtol {rtol:g}), last estimates {estimates}")


@record
class SplittingResult:
    """Electron ground / trion level splittings in Hz."""

    dE_g: float
    dE_e: float


@record
class ComponentResult:
    """A gate or readout fidelity with its validity notes."""

    fidelity: float
    warnings: tuple[str, ...]


@record(eq=False)   # arrays have no one truth value
class FidelityBudget:
    """Component fidelities on a (resonant Purcell factor, polarization)
    grid and their composition; one configuration is the 1 x 1 grid.

    Each component is held on the axis it depends on.  Along ``fp_grid``:
    ``F_ent``, ``F_gate``, ``F_readout``, and ``warnings``, the validity
    notes of the gate and the readout as one tuple per Purcell factor.
    Along ``polarization_grid``: ``F_transfer``.  ``F_total`` is the
    (len(fp_grid), len(polarization_grid)) array.
    """

    fp_grid: tuple[float, ...]
    polarization_grid: tuple[float, ...]
    n_nest: int
    F_ent: np.ndarray
    F_gate: np.ndarray
    F_readout: np.ndarray
    warnings: tuple[tuple[str, ...], ...]
    F_transfer: np.ndarray
    F_total: np.ndarray


# ---------------------------------------------------------------------------
# entanglement generation
# ---------------------------------------------------------------------------

def purcell_at_detuning(F_res: float, kappa: float, delta: float) -> float:
    """Lorentzian suppression of the resonant Purcell factor at detuning delta."""
    if kappa <= 0:
        raise ValueError("cavity linewidth must be positive")
    # numpy scalars: inf, not OverflowError, under the callers' errstate
    kappa, delta = np.float64(kappa), np.float64(delta)
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


def _normed_hermite(x: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal Hermite function of degree ``n`` at ``x``, by the
    normalized recurrence (the unnormalized one overflows from degree 207)."""
    c1 = 1.0 / math.sqrt(math.sqrt(math.pi))
    if n == 0:
        return np.full(x.shape, c1)
    c0, nd = 0.0, float(n)
    for _ in range(n - 1):
        c0, c1 = (-c1 * math.sqrt((nd - 1.0) / nd),
                  c0 + c1 * x * math.sqrt(2.0 / nd))
        nd -= 1.0
    return c0 + c1 * x * math.sqrt(2.0)


def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights (physicists' convention), bit for bit
    those of numpy's ``numpy.polynomial.hermite.hermgauss``.

    The same steps in the same floating-point order: eigenvalues of the
    symmetric tridiagonal companion matrix (off-diagonal sqrt(k/2)), one
    Newton step, weights from the degree n-1 function scaled by its largest
    magnitude, symmetrized and normalized to sqrt(pi).  Ported so that the
    quadrature does not load the whole ``numpy.polynomial`` package.
    """
    if n < 1:
        raise ValueError(f"Gauss-Hermite order must be positive, got {n}")
    off = np.sqrt(0.5 * np.arange(1, n))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x -= _normed_hermite(x, n) / (_normed_hermite(x, n - 1) * math.sqrt(2 * n))
    fm = _normed_hermite(x, n - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= math.sqrt(math.pi) / w.sum()
    return x, w


@cache
def _gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights (physicists' convention).

    The weights overflow at high orders (from about 400 nodes, as numpy's
    do); such a table comes back non-finite, without floating-point
    warnings, and :func:`_finite_rule` tells the callers.
    """
    with np.errstate(all="ignore"):
        x, w = _hermgauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _finite_rule(nodes: int) -> bool:
    """True when the Gauss-Hermite table of this order is finite."""
    x, w = _gauss_hermite(nodes)
    return bool(np.isfinite(x).all() and np.isfinite(w).all())


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
    out = np.empty(F_res.size)
    step = max(1, _BLOCK_ELEMENTS // nodes**2)
    # an extreme input overflows to inf or nan, which _ent_adaptive refuses
    with np.errstate(all="ignore"):
        off = math.sqrt(2.0) * phys.sigma_sd * x
        det = phys.detuning + off
        dw = off[:, None] - off[None, :]
        for lo in range(0, F_res.size, step):
            fp = purcell_at_detuning(F_res[lo:lo + step, None], phys.kappa,
                                     det)
            gp, Gp = enhanced_rates(phys.gamma_r, phys.gamma_nr,
                                    phys.gamma_star, fp)
            vals = barrett_kok_fidelity(gp[:, :, None], gp[:, None, :],
                                        Gp[:, :, None], Gp[:, None, :], dw)
            # physicists' convention: sum(w) = sqrt(pi) per dimension
            out[lo:lo + step] = np.einsum("i,j,gij->g", w, w, vals) / math.pi
    return out


def _ent_adaptive(phys: PhysicalParams, F_res: np.ndarray) -> np.ndarray:
    """Spectral-diffusion-averaged F_ent at each F_res, by node doubling.

    The first estimate uses ``_ENT_START_NODES`` nodes, and at most
    ``_ENT_DOUBLINGS`` doublings follow.  Only the points whose last two
    estimates still differ by more than :data:`ENT_RTOL` go on to the next
    doubling; each point keeps the estimate at which it converged.
    Doubling stops early at an order whose node table is not finite, or at
    a non-finite estimate, which can never converge.
    :class:`ConvergenceError` then carries the first non-finite point, else
    the first unconverged one, and its last two estimates.
    """
    if phys.sigma_sd < 0:
        raise ValueError("sigma_sd must be non-negative")
    nodes = _ENT_START_NODES
    todo = np.arange(F_res.size)
    prev = _ent_product_rule(phys, F_res, nodes)
    last = np.full(F_res.size, math.nan)  # no estimate before the first
    out = np.empty(F_res.size)
    for _ in range(_ENT_DOUBLINGS):
        if not (np.isfinite(prev).all() and _finite_rule(2 * nodes)):
            break
        nodes *= 2
        cur = _ent_product_rule(phys, F_res[todo], nodes)
        done = np.isfinite(cur) & (np.abs(cur - prev)
                                   <= ENT_RTOL * np.abs(cur))
        out[todo[done]] = cur[done]
        if done.all():
            return out
        todo, last, prev = todo[~done], prev[~done], cur[~done]
    i = int(np.argmin(np.isfinite(prev)))  # first non-finite, else first
    raise ConvergenceError(float(F_res[todo[i]]), nodes, ENT_RTOL,
                           (float(last[i]), float(prev[i])))


def entanglement_fidelity_fixed_nodes(phys: PhysicalParams, nodes: int) -> float:
    """Gauss-Hermite product-rule average of the heralding fidelity."""
    if not _finite_rule(nodes):
        raise ValueError(f"no finite Gauss-Hermite rule at {nodes} nodes")
    return float(_ent_product_rule(phys, np.array([phys.F_res]), nodes)[0])


def entanglement_fidelity(phys: PhysicalParams) -> float:
    """Spectral-diffusion-averaged entanglement-generation fidelity.

    Both dots are drawn from Gaussians of width ``sigma_sd`` around the
    configured mean detuning.  The product Gauss-Hermite rule is refined by
    node doubling until successive estimates agree to :data:`ENT_RTOL`.
    """
    return float(_ent_adaptive(phys, np.array([phys.F_res]))[0])


# ---------------------------------------------------------------------------
# state transfer
# ---------------------------------------------------------------------------

_NUCLEAR_INIT_ANCHORS = ((0.80, 0.977), (0.95, 0.998), (0.999, 0.99999),
                         (1.0, 1.0))


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept from breaking monotonicity."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the monotone cubic (PCHIP) through (x, y).

    Row k of the (4, intervals) result multiplies (t - x_i)**(3 - k) on
    interval i.  The slopes are a weighted harmonic mean of the neighbouring
    secants inside (zero at a local extremum or next to a flat secant) and
    the one-sided three-point rule at both ends.  Needs at least three
    points.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0,
                           1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


_NUCLEAR_INIT_X = np.array([a[0] for a in _NUCLEAR_INIT_ANCHORS])
_NUCLEAR_INIT_C = _pchip_coefficients(
    _NUCLEAR_INIT_X, np.array([a[1] for a in _NUCLEAR_INIT_ANCHORS]))


def _nuclear_init(polarization: np.ndarray) -> np.ndarray:
    """:func:`nuclear_init_fidelity` at every entry of an array."""
    outside = ~((0.80 <= polarization) & (polarization <= 1.0))
    if outside.any():
        raise ValueError(
            f"polarization {polarization[outside][0]} outside the tabulated "
            "range [0.80, 1.0]")
    x, c = _NUCLEAR_INIT_X, _NUCLEAR_INIT_C
    i = np.minimum(np.searchsorted(x, polarization, side="right") - 1,
                   x.size - 2)
    s = polarization - x[i]
    out = np.zeros_like(s)
    z = np.ones_like(s)
    for k in (3, 2, 1, 0):  # ascending powers: this order fixes the rounding
        out += c[k, i] * z
        z *= s
    return out


def nuclear_init_fidelity(polarization: float) -> float:
    """State-transfer factor from partial nuclear polarization.

    Monotone cubic interpolation through tabulated anchor points; the table
    starts at 80% polarization and no extrapolation below it is allowed.
    At 1.0 it returns 0.9999999999999999, one ulp below the anchor: the last
    interval's cubic is summed from its left end, as scipy's PCHIP sums it.
    """
    return float(_nuclear_init(np.array([polarization], dtype=float))[0])


def quadrupolar_factor(sigma_Q: float, t: float) -> float:
    """Spin-wave survival of the delta_m = 2 mode under inhomogeneous
    quadrupolar dephasing.

    exp(-delta_m**4 * sigma_Q**2 * t**2) = exp(-16 * sigma_Q**2 * t**2)
    with sigma_Q in s^-1.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    # numpy scalars: a huge sigma_Q or t overflows to inf (factor 0), not an
    # error; math.exp rather than np.exp, which can differ in the last bit
    with np.errstate(all="ignore"):
        return math.exp(-16.0 * np.float64(sigma_Q) ** 2
                        * np.float64(t) ** 2)


def transfer_fidelity(F_e_init: float, F_n_init: float, F_quad: float) -> float:
    """Full write-read transfer fidelity, the product of its three factors."""
    return F_e_init * F_n_init * F_quad


# ---------------------------------------------------------------------------
# gate and readout
# ---------------------------------------------------------------------------

def gate_fidelity(phys: PhysicalParams) -> ComponentResult:
    """Cavity-assisted photon-scattering gate fidelity, first order in 1/C.

    The cooperativity is identified with the resonant Purcell factor
    (C = F_p when the population lifetime is radiative).  Gate time is twice
    the FWHM duration of the Gaussian gate photon.  Each correction term above
    0.05, or not finite, triggers a validity warning since the expansion is
    first order.  An array ``phys.F_res`` gives an array and one tuple of
    warnings per element, each as that Purcell factor alone gives it.
    """
    if np.count_nonzero(phys.F_res <= 0):
        raise ValueError("cooperativity must be positive")
    if phys.delta_p <= 0:
        raise ValueError("gate photon spectral width must be positive")
    # numpy: an extreme input overflows to +-inf or nan, not an error
    f = np.float64
    C, gamma, delta_p = f(phys.F_res), f(phys.gamma_r), f(phys.delta_p)
    with np.errstate(all="ignore"):
        xi = 1.0 / (2.0 * f(phys.T2_electron))
        gate_time = 8.0 * math.pi * math.sqrt(2.0 * math.log(2.0)) / delta_p
        sigma_p = f(phys.sigma_sd) * 2.0 * math.sqrt(2.0 * math.log(2.0))

        term_c = 5.0 / (2.0 * C)
        term_eps = (f(phys.delta_eps1 - phys.delta_eps2) ** 2
                    / (2.0 * gamma**2 * C))
        term_xi = xi * gate_time
        ratio = 2.0 * phys.g_cav / f(phys.kappa)
        bracket = 11.0 - 20.0 * ratio**2 + 12.0 * ratio**4
        # C * C, not C**2: numpy squares an array but pow()s a scalar
        term_spec = ((sigma_p**2 + delta_p**2) / (4.0 * gamma**2 * (C * C))
                     * bracket)
        value = 1.0 - term_c - term_eps - term_xi - term_spec
    names = ("1/C", "detuning-asymmetry", "decoherence", "spectral")
    notes = tuple(tuple(f"gate {name} correction {term:.3g} exceeds 0.05; "
                        "first-order expansion unreliable"
                        for name, term in zip(names, r) if not term <= 0.05)
                  for r in np.broadcast(term_c, term_eps, term_xi, term_spec))
    return ComponentResult(fidelity=value if value.ndim else float(value),
                           warnings=notes if value.ndim else notes[0])


def readout_fidelity(T: float, D: float, eta_c: float, eta_d: float,
                     Omega: float, gamma_prime) -> ComponentResult:
    """Spin readout fidelity with Poissonian signal and dark counts.

    F = 1/2 * [1 + exp(-T*D) - exp(-T*eta_c*eta_d*Omega**2/gamma')], with the
    weak continuous drive emitting at rate Omega**2/gamma'.  The formula
    needs a weak drive, Omega <= gamma'/5; a stronger one adds a note to
    ``warnings``, which :func:`fidelity_budget` carries over.  An array
    ``gamma_prime`` gives an array and one tuple of warnings per element.
    """
    if T < 0 or D < 0:
        raise ValueError("readout window and dark-count rate must be non-negative")
    # numpy: a huge Omega saturates the signal, not an OverflowError
    with np.errstate(all="ignore"):
        signal = T * eta_c * eta_d * np.float64(Omega)**2 / gamma_prime
        value = 0.5 * (1.0 + math.exp(-T * D) - np.exp(-signal))
        strong = zip(np.ravel(Omega > gamma_prime / 5.0).tolist(),
                     np.ravel(np.divide(Omega, gamma_prime)).tolist())
    notes = tuple((f"readout drive {ratio:.3g} x gamma' is not weak (above 0.2 "
                   "x gamma'); emission-rate formula degrades",) if flag else ()
                  for flag, ratio in strong)
    return ComponentResult(fidelity=value if value.ndim else float(value),
                           warnings=notes if value.ndim else notes[0])


def invert_readout_drive(F_target: float, T: float, D: float, eta_c: float,
                         eta_d: float, gamma_prime: float) -> float:
    """Drive amplitude (rad/s) that reproduces a target readout fidelity."""
    tail = 1.0 + math.exp(-T * D) - 2.0 * F_target
    if tail <= 0:
        raise ValueError("target fidelity unreachable within the dark-count budget")
    exponent = -math.log(tail)
    return math.sqrt(exponent * gamma_prime / (T * eta_c * eta_d))


# ---------------------------------------------------------------------------
# level structure
# ---------------------------------------------------------------------------

def zeeman_splittings(B_x: float, g_e: float, g_h: float, polarization: float,
                      dE_OH_max: float) -> SplittingResult:
    """Ground and trion splittings (Hz) from Zeeman plus Overhauser shifts."""
    if B_x < 0:
        raise ValueError("magnetic field must be non-negative")
    dE_OH = polarization * dE_OH_max
    dE_g = abs(MU_B_OVER_H * g_e * B_x) + dE_OH
    dE_e = abs(MU_B_OVER_H * g_h * B_x) + dE_OH
    return SplittingResult(dE_g=dE_g, dE_e=dE_e)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def overall_fidelity(n_nest: int, *, F_ent, F_transfer, F_gate, F_readout,
                     F_e_init):
    """Multiplicative end-to-end fidelity over l = 2**n_nest links.

    F_total = F_e_init^(2l) * F_readout^(2(l-1)) * (F_ent*F_transfer^2)^l
            * F_gate^(l-1).  Accurate only in the high-fidelity regime.  The
    components are named as :func:`qsim.chain_fidelity_oracle` names them.

    Composed level by level, as the chain is built: a link has
    F_e_init^2 * F_ent * F_transfer^2, and each nesting level squares the
    chain and multiplies in one swap, F_gate * F_readout^2.  That is n_nest
    squarings and products and no ``**``, so every element of a broadcast
    array has exactly the bits of the same components composed alone, on
    any CPU.  The components broadcast against one another: scalars give a
    float, arrays their broadcast shape, in one pass.  A component far
    outside [0, 1] gives +-inf or nan, never an error.
    """
    e, t, r = (np.asarray(v, dtype=float)
               for v in (F_e_init, F_transfer, F_readout))
    with np.errstate(all="ignore"):
        total = e * e * F_ent * (t * t)
        swap = F_gate * (r * r)
        for _ in range(n_nest):
            total = total * total * swap
    return total if total.ndim else float(total)


def fidelity_contour(params: ParameterSet, fp_grid,
                     polarization_grid) -> FidelityBudget:
    """The budget on a (resonant Purcell factor, nuclear polarization) grid,
    composed over the parameter set's own nesting level.

    Each grid Purcell value sets both the gate cooperativity and the resonant
    factor feeding the detuned entanglement-generation average; the transfer
    duration stays fixed at the configured write-read time.  Each component
    is evaluated once on the axis it depends on: F_ent for the whole Purcell
    axis in one quadrature, the gate and the readout in one call each,
    F_transfer for the whole polarization axis.  F_total is composed
    over the whole grid in one :func:`overall_fidelity` call.
    """
    fp_grid = tuple(float(v) for v in fp_grid)
    pol_grid = tuple(float(v) for v in polarization_grid)
    if not fp_grid or not pol_grid:
        raise ValueError("grids must be non-empty")
    phys, link = params.physical, params.link
    fp = np.array(fp_grid)

    f_ent = _ent_adaptive(phys, fp)
    with np.errstate(over="ignore"):     # inf at an extreme Purcell factor
        gamma_prime_res = enhanced_rates(phys.gamma_r, phys.gamma_nr,
                                         phys.gamma_star, fp)[0]

    f_e = phys.F_e_init
    f_tr = transfer_fidelity(
        f_e, _nuclear_init(np.array(pol_grid)),
        quadrupolar_factor(phys.sigma_Q, phys.t_transfer))

    gate = gate_fidelity(replace(phys, F_res=fp))
    readout = readout_fidelity(phys.T_readout, phys.D_dark, link.eta_c,
                               link.eta_d, phys.Omega_readout, gamma_prime_res)
    return FidelityBudget(
        fp_grid=fp_grid, polarization_grid=pol_grid, n_nest=link.n_nest,
        F_ent=f_ent,
        F_gate=gate.fidelity, F_readout=readout.fidelity,
        warnings=tuple(map(tuple.__add__, gate.warnings, readout.warnings)),
        F_transfer=f_tr,
        F_total=overall_fidelity(
            link.n_nest, F_ent=f_ent[:, None], F_transfer=f_tr,
            F_gate=gate.fidelity[:, None], F_readout=readout.fidelity[:, None],
            F_e_init=f_e))


def fidelity_budget(params: ParameterSet) -> FidelityBudget:
    """The budget of one parameter set: :func:`fidelity_contour` on the
    1 x 1 grid of its own Purcell factor and polarization.

    Entanglement generation runs detuned (Purcell suppressed); the gate and
    readout run on resonance with C = F_res.
    """
    phys = params.physical
    return fidelity_contour(params, [phys.F_res], [phys.nuclear_polarization])
