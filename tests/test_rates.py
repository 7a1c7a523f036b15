import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrepeater import rates
from qdrepeater.params import default_parameters, with_link


@pytest.fixture(scope="module")
def curve_b(params=None):
    # p*eta_c = 0.72 folded into p_emit, zeta = 0.94, eta_d = eta_cav = 0.9
    return with_link(default_parameters(),
                     p_emit=0.72, eta_c=1.0, eta_s=0.72)


# ------------------------------------------------------------ transmission

def test_transmission_zero_distance():
    assert rates.transmission_probability(0.0, 25e3) == 1.0


def test_transmission_direct_evaluation():
    # independent arithmetic: 125 km over 25 km attenuation -> exp(-2.5)
    assert rates.transmission_probability(125e3, 25e3) == pytest.approx(
        math.exp(-2.5), rel=1e-12)
    assert math.exp(-2.5) == pytest.approx(0.082085, abs=1e-6)


def test_transmission_half_life():
    L_att = 25e3
    assert rates.transmission_probability(2 * L_att * math.log(2), L_att) == \
        pytest.approx(0.5, rel=1e-12)


def test_transmission_rejects_bad_attenuation():
    with pytest.raises(ValueError):
        rates.transmission_probability(1e3, 0.0)


# ------------------------------------------------------------ branching

def test_branching_anchor():
    # the zeta default is the branching ratio (1 + F_p)/(2 + F_p) of two equal
    # decay paths, one Purcell-enhanced, at an effective Purcell factor of 16
    zeta = default_parameters().link.zeta
    assert zeta == pytest.approx((1.0 + 16.0) / (2.0 + 16.0), abs=5e-3)


# ------------------------------------------------------------ probabilities

def test_link_success_curve_b_example(curve_b):
    # 0.5 * (0.94 * 1 * 0.72 * 0.9 * 1)^2 evaluated by hand
    amplitude = 0.94 * 1.0 * 0.72 * 0.9
    expected = 0.5 * amplitude**2
    assert expected == pytest.approx(0.18551, abs=1e-4)
    at_source = with_link(curve_b, L_total=0.0).link
    assert rates.link_success_probability(at_source) == \
        pytest.approx(expected, rel=1e-12)


def test_link_success_zero_factor(curve_b):
    dead = with_link(curve_b, eta_d=0.0, L_total=0.0)
    assert rates.link_success_probability(dead.link) == 0.0


def test_conversion_efficiency_enters_squared(curve_b):
    full = rates.link_success_probability(curve_b.link)
    lossy = rates.link_success_probability(with_link(curve_b, eta_fc=0.4).link)
    assert lossy / full == pytest.approx(0.16, rel=1e-12)


def test_swap_success_anchors(curve_b):
    assert rates.swap_success_probability(curve_b.link) == \
        pytest.approx(0.5832, rel=1e-12)
    curve_c = with_link(curve_b, p_emit=0.5, eta_s=0.5)
    assert rates.swap_success_probability(curve_c.link) == \
        pytest.approx(0.405, rel=1e-12)
    perfect = with_link(curve_b, p_emit=1.0, eta_s=1.0, eta_c=1.0,
                        eta_cav=1.0, eta_d=1.0)
    assert rates.swap_success_probability(perfect.link) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0))
def test_link_success_is_degree_two_homogeneous(scale):
    base = default_parameters().link
    p_base = rates.link_success_probability(base)
    scaled = with_link(default_parameters(), eta_fc=scale).link
    assert rates.link_success_probability(scaled) == \
        pytest.approx(scale**2 * p_base, rel=1e-9)


# ------------------------------------------------------------ mean times

def test_parallel_n0_geometric_mean():
    ps = with_link(default_parameters(), n_nest=0)
    result = rates.mean_time_parallel(ps)
    slot = ps.link.L0 / ps.link.c_fiber + ps.link.tau_init
    assert result.mean_time == pytest.approx(slot / result.p0, rel=1e-12)
    assert result.rate * result.mean_time == pytest.approx(1.0, rel=1e-12)


def test_parallel_curve_b_1000km(curve_b):
    # independent evaluation of the nested waiting-time formula
    cfg = with_link(curve_b, L_total=1000e3, n_nest=3)
    L0 = 125e3
    eta_t = math.exp(-L0 / (2 * 25e3))
    p0 = 0.5 * (0.94 * eta_t * 0.72 * 0.9) ** 2
    ps = 0.72 * 0.9 * 0.9
    slot = L0 / 2e8 + 0.2e-6
    expected = 1.5**3 * slot / (p0 * ps**3)
    assert p0 == pytest.approx(1.25e-3, rel=2e-4)
    assert expected == pytest.approx(8.5101, abs=2e-3)
    result = rates.mean_time_parallel(cfg)
    assert result.mean_time == pytest.approx(expected, rel=1e-12)
    assert result.rate == pytest.approx(0.1175, abs=2e-4)


def test_parallel_structure_one_level(curve_b):
    t0 = rates.mean_time_parallel(with_link(curve_b, n_nest=0)).mean_time
    t1 = rates.mean_time_parallel(with_link(curve_b, n_nest=1)).mean_time
    link = with_link(curve_b, n_nest=1).link
    p_s = rates.swap_success_probability(link)
    # moving 0 -> 1 at fixed L_total halves L0 and adds one (3/2)/p_s factor
    p0_0 = rates.link_success_probability(with_link(curve_b, n_nest=0).link)
    p0_1 = rates.link_success_probability(link)
    slot0 = curve_b.link.L_total / 2e8 + 0.2e-6
    slot1 = curve_b.link.L_total / 2 / 2e8 + 0.2e-6
    expected_ratio = (1.5 * slot1 / (p0_1 * p_s)) / (slot0 / p0_0)
    assert t1 / t0 == pytest.approx(expected_ratio, rel=1e-12)


def test_two_plus_two_swap_probability():
    ps = with_link(default_parameters(), eta_s=0.65)
    result = rates.mean_time_two_plus_two(ps)
    assert result.p_swap == pytest.approx(0.5 * 0.81 * 0.9**4, rel=1e-12)
    assert result.p_swap == pytest.approx(0.26572, abs=1e-5)
    ideal = with_link(default_parameters(), eta_m=1.0, eta_d=1.0)
    assert rates.mean_time_two_plus_two(ideal).p_swap == pytest.approx(0.5)
    unit = with_link(default_parameters(), eta_s=1.0, eta_d=1.0,
                     L_att=1e18)
    assert rates.mean_time_two_plus_two(unit).p0 == pytest.approx(0.5)


def test_two_plus_two_has_no_reinit_term():
    a = with_link(default_parameters(), tau_init=0.0)
    b = with_link(default_parameters(), tau_init=1.0)
    assert rates.mean_time_two_plus_two(a).mean_time == \
        rates.mean_time_two_plus_two(b).mean_time


# ------------------------------------------------------------ direct + misc

def test_direct_transmission_values():
    assert rates.direct_transmission_rate(0.0, 1e10, 25e3) == 1e10
    assert rates.direct_transmission_rate(500e3, 1e10, 25e3) == \
        pytest.approx(1e10 * math.exp(-20), rel=1e-12)
    assert rates.direct_transmission_rate(500e3, 1e10, 25e3) == \
        pytest.approx(20.6, abs=0.1)
    assert rates.direct_transmission_rate(1000e3, 1e10, 25e3) == \
        pytest.approx(4.25e-8, rel=1e-2)


@pytest.mark.parametrize("source_rate", [0.0, -1.0, math.inf, math.nan])
def test_direct_transmission_rejects_bad_source_rate(source_rate):
    with pytest.raises(ValueError, match="source rate"):
        rates.direct_transmission_rate(100e3, source_rate, 25e3)


def test_parallel_closed_form_is_what_the_chain_forms_use(curve_b):
    link = curve_b.link
    slot = rates.slot_time(link)
    assert slot == link.L0 / link.c_fiber + link.tau_init
    p0 = rates.link_success_probability(link)
    p_swap = rates.swap_success_probability(link)
    assert rates.mean_time_parallel(curve_b) == rates.parallel_closed_form(
        p0, p_swap, slot, link.n_nest)
    pair = rates.mean_time_two_plus_two(curve_b)
    assert pair.mean_time == rates.parallel_closed_form(
        pair.p0, pair.p_swap, link.L0 / link.c_fiber, link.n_nest).mean_time


def test_unreachable_flagged_not_raised():
    dead = with_link(default_parameters(), eta_d=0.0)
    result = rates.mean_time_parallel(dead)
    assert result.rate == 0.0
    assert math.isinf(result.mean_time)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=100e3, max_value=1900e3))
def test_mean_time_monotone_in_distance(L):
    ps = with_link(default_parameters(), L_total=L)
    longer = with_link(default_parameters(), L_total=L + 50e3)
    assert rates.mean_time_parallel(longer).mean_time > \
        rates.mean_time_parallel(ps).mean_time


@pytest.mark.parametrize("field", ["eta_d", "eta_c", "zeta", "p_emit"])
def test_mean_time_decreases_with_each_efficiency(field):
    lo = with_link(default_parameters(), **{field: 0.7})
    hi = with_link(default_parameters(), **{field: 0.8})
    assert rates.mean_time_parallel(hi).mean_time < \
        rates.mean_time_parallel(lo).mean_time


def test_crossover_exists_below_1000km(curve_b):
    crossover = rates.crossover_distance(curve_b)
    assert crossover is not None
    assert 100e3 < crossover < 1000e3
    # repeater loses just below, wins just above
    lo = with_link(curve_b, L_total=crossover - 20e3)
    hi = with_link(curve_b, L_total=crossover + 20e3)
    assert rates.mean_time_parallel(lo).rate < \
        rates.direct_transmission_rate(lo.link.L_total, 1e10, 25e3)
    assert rates.mean_time_parallel(hi).rate > \
        rates.direct_transmission_rate(hi.link.L_total, 1e10, 25e3)
