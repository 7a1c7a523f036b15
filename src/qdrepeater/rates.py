"""Closed-form entanglement-distribution rate model for a nested repeater chain.

All functions are pure; a chain configuration is summarized by a
:class:`RateResult`.  Unreachable configurations (a vanishing success
probability) are flagged rather than raised.

The distance-dependent forms broadcast over an array of lengths, so a
whole sweep is one array pass: a link whose ``L_total`` is an array gives
arrays, and scalar inputs give Python floats.  Every element has the bits
of the same distance evaluated alone.
"""

from __future__ import annotations

import math

import numpy as np

from .params import LinkParams, ParameterSet, record, with_link

#: Extraction-efficiency products p*eta_c of the rate curves B, C and D.
CURVE_PRODUCTS = {"B": 0.72, "C": 0.5, "D": 0.4}


@record
class RateResult:
    """Success probabilities and mean waiting time for one chain
    configuration, or for each distance of a sweep."""

    p0: float          # elementary-link success probability per attempt
    p_swap: float      # swap success probability per attempt
    mean_time: float   # seconds; inf when unreachable
    rate: float        # Hz; 0 when unreachable


def transmission_probability(L0, L_att):
    """Photon transmission probability over half a link, exp(-L0/(2*L_att)),
    per element of ``L0``."""
    if np.count_nonzero(L_att <= 0):
        raise ValueError("attenuation length must be positive")
    if np.count_nonzero(L0 < 0):
        raise ValueError("link length must be non-negative")
    with np.errstate(over="ignore"):     # a tiny L_att: exp(-inf) = 0
        eta_t = np.exp(np.negative(L0) / (2.0 * L_att))
    return eta_t if eta_t.ndim else float(eta_t)


def link_success_probability(link: LinkParams):
    """Two-photon heralding success probability of one elementary link.

    p0 = 0.5 * (zeta * eta_t * p * eta_c * eta_d * eta_fc)**2.  Frequency
    conversion enters per photon, so its efficiency is squared along with the
    rest of the per-photon budget.
    """
    eta_t = transmission_probability(link.L0, link.L_att)
    amp = (link.zeta * eta_t * link.p_emit * link.eta_c * link.eta_d
           * link.eta_fc)
    return 0.5 * amp * amp


def swap_success_probability(link: LinkParams) -> float:
    """Heralded photon-scattering gate success, eta_s*eta_c*eta_cav*eta_d."""
    return link.eta_s * link.eta_c * link.eta_cav * link.eta_d


def slot_time(link: LinkParams):
    """Duration of one heralded attempt, L0/c + tau_init, in seconds."""
    with np.errstate(over="ignore"):     # a tiny c_fiber: an infinite slot
        return link.L0 / link.c_fiber + link.tau_init


def parallel_closed_form(p0, p_swap, slot, n: int) -> RateResult:
    """<T> = (3/2)**n * slot / (p0 * p_swap**n), all links generated in
    parallel, or unreachable when the denominator vanishes.

    The n = 0 case is the plain geometric mean slot/p0.  This is the closed
    form the Monte Carlo is checked against.  Each element of array inputs
    is flagged on its own.
    """
    denom = np.multiply(p0, p_swap**n)   # numpy even for scalars: x/0 = inf
    with np.errstate(all="ignore"):      # unreachable quotients are dropped
        mean = np.where(denom <= 0.0, math.inf, 1.5**n * slot / denom)
        rate = np.where(mean > 0.0, 1.0 / mean, math.inf)
    if not mean.ndim:
        mean, rate = float(mean), float(rate)
    return RateResult(p0=p0, p_swap=p_swap, mean_time=mean, rate=rate)


def mean_time_parallel(params: ParameterSet) -> RateResult:
    """Mean distribution time with all links generated in parallel.

    ``parallel_closed_form`` at the chain's own p0, p_swap and slot time.
    """
    link = params.link
    return parallel_closed_form(link_success_probability(link),
                                swap_success_probability(link),
                                slot_time(link), link.n_nest)


def mean_time_two_plus_two(params: ParameterSet) -> RateResult:
    """Mean distribution time for the photon-pair-source comparison scheme.

    p0' = 0.5*(eta_t*eta_s*eta_d)**2 per link and p_s' = 0.5*eta_d**2*eta_m**4
    per two-photon Bell measurement; valid when memory initialization and
    decay are negligible, so no tau_init term appears.
    """
    link = params.link
    eta_t = transmission_probability(link.L0, link.L_att)
    amp = eta_t * link.eta_s * link.eta_d
    p_swap = 0.5 * link.eta_d**2 * link.eta_m**4
    with np.errstate(over="ignore"):     # a tiny c_fiber: an infinite slot
        slot = link.L0 / link.c_fiber
    return parallel_closed_form(0.5 * amp * amp, p_swap, slot, link.n_nest)


def curve_parameters(params: ParameterSet, product: float,
                     **changes) -> ParameterSet:
    """``params`` on a rate curve: the extraction-efficiency product
    p*eta_c folded into p_emit (eta_c = 1), and a gate photon source of the
    same efficiency, plus any other link ``changes``."""
    return with_link(params, p_emit=product, eta_c=1.0, eta_s=product,
                     **changes)


def curve_rates(params: ParameterSet, distances) -> list:
    """The rates of curves B, C and D (:data:`CURVE_PRODUCTS`) at each of
    ``distances`` (m), one array pass per curve."""
    return [mean_time_parallel(curve_parameters(params, product,
                                                L_total=distances)).rate
            for product in CURVE_PRODUCTS.values()]


def direct_transmission_rate(L, source_rate: float, L_att: float):
    """Photon arrival rate of a repeaterless source through lossy fiber, per
    element of ``L``."""
    if np.count_nonzero(L < 0):
        raise ValueError("distance must be non-negative")
    if np.count_nonzero(L_att <= 0):
        raise ValueError("attenuation length must be positive")
    if not (math.isfinite(source_rate) and source_rate > 0):
        raise ValueError(f"source rate must be positive and finite, "
                         f"got {source_rate:g}")
    with np.errstate(over="ignore"):     # a tiny L_att: exp(-inf) = 0
        rate = source_rate * np.exp(np.negative(L) / L_att)
    return rate if rate.ndim else float(rate)


def crossover_distance(params: ParameterSet,
                       source_rate: float = 1e10) -> float | None:
    """Distance where the repeater rate first beats direct transmission.

    Bisection to 1 m on the (monotone-difference) closed forms between 1 and
    2000 km; returns None when no sign change exists there.  Every point the
    bisection can visit is 1 km + k*h with h = 1999 km / 2**21, exact in
    float64, and it always takes 21 steps, since h < 1 m <= 2*h.  So three
    array passes, at strides 2**14, 2**7 and 1, each evaluate the gap at
    the 129 grid points that the next seven steps can visit; the steps then
    make the scalar bisection's own comparisons on them, NaN included.
    """
    lo, h = 1e3, (2000e3 - 1e3) / 2**21
    k = 0                       # the current cell starts at lo + k*h
    for stride in (2**14, 2**7, 1):
        grid = lo + h * (k + stride * np.arange(129))
        r = mean_time_parallel(with_link(params, L_total=grid)).rate
        gaps = r - direct_transmission_rate(grid, source_rate,
                                            params.link.L_att)
        if stride == 2**14 and gaps[0] > 0:
            return lo
        if stride == 2**14 and gaps[-1] < 0:
            return None
        j = 0
        for step in (64, 32, 16, 8, 4, 2, 1):
            if not gaps[j + step] > 0:
                j += step
        k += j * stride
    return 0.5 * (float(grid[j]) + float(grid[j + 1]))
