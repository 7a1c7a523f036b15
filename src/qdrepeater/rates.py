"""Closed-form entanglement-distribution rate model for a nested repeater chain.

All functions are pure; a chain configuration is summarized by a
:class:`RateResult`.  Unreachable configurations (a vanishing success
probability) are flagged rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import LinkParams, ParameterSet, with_link


@dataclass(frozen=True)
class RateResult:
    """Success probabilities and mean waiting time for one chain configuration."""

    p0: float          # elementary-link success probability per attempt
    p_swap: float      # swap success probability per attempt
    mean_time: float   # seconds; inf when unreachable
    rate: float        # Hz; 0 when unreachable


def transmission_probability(L0: float, L_att: float) -> float:
    """Photon transmission probability over half a link, exp(-L0/(2*L_att))."""
    if L_att <= 0:
        raise ValueError("attenuation length must be positive")
    if L0 < 0:
        raise ValueError("link length must be non-negative")
    return math.exp(-L0 / (2.0 * L_att))


def link_success_probability(link: LinkParams) -> float:
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


def slot_time(link: LinkParams) -> float:
    """Duration of one heralded attempt, L0/c + tau_init, in seconds."""
    return link.L0 / link.c_fiber + link.tau_init


def parallel_closed_form(p0: float, p_swap: float, slot: float,
                         n: int) -> RateResult:
    """<T> = (3/2)**n * slot / (p0 * p_swap**n), all links generated in
    parallel, or unreachable when the denominator vanishes.

    The n = 0 case is the plain geometric mean slot/p0.  This is the closed
    form the Monte Carlo is checked against.
    """
    denom = p0 * p_swap**n
    if denom <= 0.0:
        return RateResult(p0=p0, p_swap=p_swap, mean_time=math.inf, rate=0.0)
    mean = 1.5**n * slot / denom
    rate = 1.0 / mean if mean > 0.0 else math.inf
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
    p0 = 0.5 * (eta_t * link.eta_s * link.eta_d) ** 2
    p_swap = 0.5 * link.eta_d**2 * link.eta_m**4
    return parallel_closed_form(p0, p_swap, link.L0 / link.c_fiber,
                                link.n_nest)


def direct_transmission_rate(L: float, source_rate: float, L_att: float) -> float:
    """Photon arrival rate of a repeaterless source through lossy fiber."""
    if L < 0:
        raise ValueError("distance must be non-negative")
    if L_att <= 0:
        raise ValueError("attenuation length must be positive")
    if not (math.isfinite(source_rate) and source_rate > 0):
        raise ValueError(f"source rate must be positive and finite, "
                         f"got {source_rate:g}")
    return source_rate * math.exp(-L / L_att)


def crossover_distance(params: ParameterSet,
                       source_rate: float = 1e10) -> float | None:
    """Distance where the repeater rate first beats direct transmission.

    Bisection to 1 m on the (monotone-difference) closed forms between 1 and
    2000 km; returns None when no sign change exists there.
    """
    def gap(L: float) -> float:
        r = mean_time_parallel(with_link(params, L_total=L)).rate
        return r - direct_transmission_rate(L, source_rate, params.link.L_att)

    lo, hi = 1e3, 2000e3
    if gap(lo) > 0:
        return lo
    if gap(hi) < 0:
        return None
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
