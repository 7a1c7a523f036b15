import math
import warnings

import numpy as np
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


def _reference_crossover(params, source_rate=1e10):
    """The crossover by one scalar closed-form evaluation per bisection
    step, as ``crossover_distance`` computed it before its array passes."""
    def gap(L):
        r = rates.mean_time_parallel(with_link(params, L_total=L)).rate
        return r - rates.direct_transmission_rate(L, source_rate,
                                                  params.link.L_att)

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


@pytest.mark.parametrize("overrides, product, source_rate", [
    ([], "B", 1e10), ([], "C", 1e10), ([], "D", 1e10), ([], None, 1e10),
    (["n_nest=1"], "B", 1e10), (["n_nest=6"], "B", 1e12),
    (["L_att=50 km"], "C", 1e8),
    ([], "B", 1.0),                 # the repeater wins at 1 km: lo
    ([], "B", 1e300),               # direct wins at 2000 km: None
    (["eta_d=0"], "B", 1e10),       # no repeater rate anywhere: None
], ids=["B", "C", "D", "defaults", "n_nest-1", "n_nest-6", "L_att-50km",
        "wins-at-1km", "loses-at-2000km", "dead-detector"])
def test_crossover_passes_equal_the_scalar_bisection(
        monkeypatch, overrides, product, source_rate):
    ps = default_parameters(overrides)
    if product is not None:
        ps = rates.curve_parameters(ps, rates.CURVE_PRODUCTS[product])
    expected = _reference_crossover(ps, source_rate)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return with_link(*args, **kwargs)

    monkeypatch.setattr(rates, "with_link", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = rates.crossover_distance(ps, source_rate)
    assert found == expected and type(found) is type(expected)
    if source_rate == 1.0:
        assert found == 1e3
    if source_rate == 1e300 or overrides == ["eta_d=0"]:
        assert found is None
    # one array pass per seven of the 21 bisection steps; one to return early
    assert len(calls) == (1 if found in (None, 1e3) else 3)


_CROSSOVER_CONFIGS = st.fixed_dictionaries({
    "n_nest": st.integers(0, 64),
    "L_att": st.floats(0.1, 1e6),
    "eta_d": st.one_of(st.sampled_from([0.0, 1e-9, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True)),
    "tau_init": st.floats(1e-12, 100.0),
    "c_fiber": st.floats(1e-3, 1e9),
})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_CROSSOVER_CONFIGS,
       st.one_of(st.sampled_from(list(rates.CURVE_PRODUCTS.values())),
                 st.floats(0.0, 1.0, exclude_min=True)),
       st.floats(-300.0, 300.0))
def test_crossover_equals_the_scalar_bisection_anywhere(link, product,
                                                        log_source_rate):
    # far outside the regime the gap need not be monotone, and the passes
    # still make the bisection's own comparisons
    ps = rates.curve_parameters(default_parameters(), product, **link)
    source_rate = 10.0**log_source_rate
    expected = _reference_crossover(ps, source_rate)
    found = rates.crossover_distance(ps, source_rate)
    assert found == expected and type(found) is type(expected)


# ------------------------------------------------------------ array pass

GRIDS = {"default": np.linspace(100e3, 1000e3, 19),
         "log": np.logspace(0.0, math.log10(2000.0), 200) * 1e3}


def _configs(ps):
    """Curves B, C and D, then the comparison scheme's pair source."""
    return [rates.curve_parameters(ps, product)
            for product in rates.CURVE_PRODUCTS.values()] + [
        with_link(ps, eta_s=0.65)]


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("overrides", [[], ["eta_d=0"], ["L_att=100 m"]],
                         ids=["defaults", "dead-detector", "mixed-reach"])
def test_array_pass_equals_per_point(grid, overrides):
    ps = default_parameters(overrides)
    points = grid.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg in _configs(ps):
            whole = with_link(cfg, L_total=grid).link
            alone = [with_link(cfg, L_total=L).link for L in points]
            for form in (lambda link: link.L0, rates.slot_time,
                         rates.link_success_probability,
                         lambda link: rates.transmission_probability(
                             link.L0, link.L_att)):
                each = [form(link) for link in alone]
                assert all(type(v) is float for v in each)
                assert form(whole).tolist() == each
            for chain in (rates.mean_time_parallel,
                          rates.mean_time_two_plus_two):
                whole_result = chain(with_link(cfg, L_total=grid))
                each = [chain(with_link(cfg, L_total=L)) for L in points]
                for name in ("p0", "mean_time", "rate"):
                    values = [getattr(r, name) for r in each]
                    assert all(type(v) is float for v in values)
                    assert getattr(whole_result, name).tolist() == values
        direct = [rates.direct_transmission_rate(L, 1e10, ps.link.L_att)
                  for L in points]
        assert all(type(v) is float for v in direct)
        assert rates.direct_transmission_rate(
            grid, 1e10, ps.link.L_att).tolist() == direct
        curves = rates.curve_rates(ps, grid)
    assert [curve.tolist() for curve in curves] == [
        [rates.mean_time_parallel(cfg).rate
         for cfg in (with_link(c, L_total=L) for L in points)]
        for c in _configs(ps)[:3]]
    if overrides == ["eta_d=0"]:
        for cfg in _configs(ps):
            for chain in (rates.mean_time_parallel,
                          rates.mean_time_two_plus_two):
                result = chain(with_link(cfg, L_total=grid))
                assert (result.rate == 0.0).all()
                assert np.isinf(result.mean_time).all()
    if overrides == ["L_att=100 m"]:
        # the shortest links reach, the longest do not, in one array
        rate = curves[0]
        assert rate[0] > 0.0 and rate[-1] == 0.0


def test_negative_length_in_an_array_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        rates.transmission_probability(np.array([1e3, -1.0]), 25e3)
    with pytest.raises(ValueError, match="non-negative"):
        rates.direct_transmission_rate(np.array([1e3, -1.0]), 1e10, 25e3)
    with pytest.raises(ValueError, match="attenuation"):
        rates.transmission_probability(np.array([1e3]), 0.0)
