import itertools
import math
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrepeater import fidelity
from qdrepeater.params import (TWO_PI, default_parameters, with_link,
                               with_physical)

# Frozen oracle values, computed independently with adaptive 2D quadrature
# (scipy dblquad, epsrel 1e-10) over the Gaussian-weighted heralding fidelity.
F_ENT_500_AT_275 = 0.9946133416
F_ENT_200_AT_200 = 0.9926551476
F_BK_NOMINAL_500 = 0.9950519849

# the `contour` command's default grid
DEFAULT_FP_GRID = np.linspace(100.0, 1000.0, 10)
DEFAULT_POL_GRID = [round(0.80 + 0.01 * i, 2) for i in range(20)] + [0.999, 1.0]


def _reference_fixed_nodes(phys, nodes):
    """Per-point product rule: a fresh hermgauss table and a meshgrid."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    off = math.sqrt(2.0) * phys.sigma_sd * x
    xi, xj = np.meshgrid(off, off, indexing="ij")
    fp_i = fidelity.purcell_at_detuning(phys.F_res, phys.kappa,
                                        phys.detuning + xi)
    fp_j = fidelity.purcell_at_detuning(phys.F_res, phys.kappa,
                                        phys.detuning + xj)
    gp_i, Gp_i = fidelity.enhanced_rates(phys.gamma_r, phys.gamma_nr,
                                         phys.gamma_star, fp_i)
    gp_j, Gp_j = fidelity.enhanced_rates(phys.gamma_r, phys.gamma_nr,
                                         phys.gamma_star, fp_j)
    vals = fidelity.barrett_kok_fidelity(gp_i, gp_j, Gp_i, Gp_j, xi - xj)
    return float(np.einsum("i,j,ij->", w, w, vals) / math.pi)


def _reference_adaptive(phys, rtol=1e-6, start_nodes=21, max_doublings=6):
    """Per-point node doubling of the reference rule: (value, final nodes)."""
    nodes = start_nodes
    prev = _reference_fixed_nodes(phys, nodes)
    for _ in range(max_doublings):
        nodes *= 2
        cur = _reference_fixed_nodes(phys, nodes)
        if abs(cur - prev) <= rtol * abs(cur):
            return cur, nodes
        prev = cur
    raise AssertionError("reference quadrature did not converge")


# ------------------------------------------------------------ purcell / BK

def test_purcell_on_resonance(params):
    assert fidelity.purcell_at_detuning(500.0, params.physical.kappa, 0.0) == 500.0


def test_purcell_paper_anchors():
    kappa = TWO_PI * 100e9
    assert fidelity.purcell_at_detuning(500, kappa, TWO_PI * 275e9) == \
        pytest.approx(16.0, abs=0.1)
    # hand evaluation: 200 * 100^2 / (4*200^2 + 100^2)
    expected = 200 * 100.0**2 / (4 * 200.0**2 + 100.0**2)
    assert fidelity.purcell_at_detuning(200, kappa, TWO_PI * 200e9) == \
        pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(11.76, abs=0.01)


def test_enhanced_rates():
    gp, Gp = fidelity.enhanced_rates(1.0, 0.0, 0.0, 0.0)
    assert (gp, Gp) == (1.0, 1.0)
    gamma_r = TWO_PI * 0.59e9
    gp, Gp = fidelity.enhanced_rates(gamma_r, 0.0, 0.0, 16.0)
    assert gp == pytest.approx(17 * gamma_r, rel=1e-12)
    assert gp == pytest.approx(TWO_PI * 10.03e9, rel=1e-3)
    _, Gp = fidelity.enhanced_rates(1.0, 0.0, 0.25, 0.0)
    assert Gp == 1.5


def test_barrett_kok_symmetric_ideal():
    assert fidelity.barrett_kok_fidelity(1.0, 1.0, 1.0, 1.0, 0.0) == 1.0


def test_barrett_kok_hand_case():
    # gamma' = 1, gamma* = 0.5 each, so Gamma' = 2: 0.5*(1 + 4/16)
    assert fidelity.barrett_kok_fidelity(1.0, 1.0, 2.0, 2.0, 0.0) == \
        pytest.approx(0.625, rel=1e-12)


def test_barrett_kok_large_detuning_limit():
    assert fidelity.barrett_kok_fidelity(1.0, 1.0, 1.0, 1.0, 1e12) == \
        pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------ F_ent

def test_entanglement_fidelity_zero_width_equals_nominal(params):
    phys = with_physical(params, sigma_sd=0.0).physical
    f = fidelity.entanglement_fidelity(phys)
    gp, Gp = fidelity.enhanced_rates(phys.gamma_r, phys.gamma_nr,
                                     phys.gamma_star, 16.0)
    assert f == pytest.approx(
        float(fidelity.barrett_kok_fidelity(gp, gp, Gp, Gp, 0.0)), rel=1e-12)
    assert f == pytest.approx(F_BK_NOMINAL_500, abs=1e-9)


def test_entanglement_fidelity_paper_anchors(params):
    f500 = fidelity.entanglement_fidelity(params.physical)
    assert f500 == pytest.approx(0.995, abs=0.002)
    assert f500 == pytest.approx(F_ENT_500_AT_275, abs=1e-8)
    phys200 = with_physical(params, F_res=200.0,
                            detuning=TWO_PI * 200e9).physical
    f200 = fidelity.entanglement_fidelity(phys200)
    assert f200 == pytest.approx(0.993, abs=0.002)
    assert f200 == pytest.approx(F_ENT_200_AT_200, abs=1e-8)


def test_entanglement_fidelity_quadrature_converges(params):
    a = fidelity.entanglement_fidelity_fixed_nodes(params.physical, 42)
    b = fidelity.entanglement_fidelity_fixed_nodes(params.physical, 84)
    assert abs(a - b) < 1e-6
    assert 0.5 <= fidelity.entanglement_fidelity(params.physical) <= 1.0


def _exhausting_doubling(monkeypatch, doublings):
    """A one-node start, an unreachable tolerance and ``doublings`` steps."""
    monkeypatch.setattr(fidelity, "ENT_RTOL", 1e-300)
    monkeypatch.setattr(fidelity, "_ENT_START_NODES", 1)
    monkeypatch.setattr(fidelity, "_ENT_DOUBLINGS", doublings)


def test_entanglement_fidelity_nonconvergence_raises(params, monkeypatch):
    # a one-node start cannot resolve the integrand; force exhaustion
    _exhausting_doubling(monkeypatch, 1)
    with pytest.raises(fidelity.ConvergenceError) as err:
        fidelity._ent_adaptive(params.physical,
                               np.array([params.physical.F_res]))
    assert len(err.value.estimates) == 2
    assert err.value.nodes == 2


@pytest.mark.parametrize("nodes", [21, 42, 84])
def test_grid_kernel_matches_per_point_reference(params, monkeypatch, nodes):
    phys = params.physical
    f_res = np.array([37.5, 100.0, 250.0, 500.0, 1000.0])
    ref = [_reference_fixed_nodes(replace(phys, F_res=f), nodes) for f in f_res]
    with monkeypatch.context() as m:
        # rows evaluated two at a time
        m.setattr(fidelity, "_BLOCK_ELEMENTS", 2 * nodes**2)
        blocked = fidelity._ent_product_rule(phys, f_res, nodes)
    grid = fidelity._ent_product_rule(phys, f_res, nodes)
    assert grid.tolist() == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert np.array_equal(blocked, grid)


def test_adaptive_grid_matches_per_point_doubling(params):
    phys = replace(params.physical, sigma_sd=TWO_PI * 1.0e9)
    f_res = np.array([10.0, 50.0, 100.0, 500.0])
    grid = fidelity._ent_adaptive(phys, f_res)
    ref = [_reference_adaptive(replace(phys, F_res=f)) for f in f_res]
    assert len({nodes for _, nodes in ref}) >= 2
    assert grid.tolist() == pytest.approx([v for v, _ in ref], rel=1e-15,
                                          abs=0.0)


def test_grid_nonconvergence_carries_two_estimates(params, monkeypatch):
    _exhausting_doubling(monkeypatch, 2)
    with pytest.raises(fidelity.ConvergenceError) as err:
        fidelity._ent_adaptive(params.physical, np.array([200.0, 500.0]))
    phys200 = replace(params.physical, F_res=200.0)
    assert (err.value.F_res, err.value.nodes, err.value.rtol) == (200.0, 4,
                                                                  1e-300)
    assert err.value.estimates == pytest.approx(
        (_reference_fixed_nodes(phys200, 2), _reference_fixed_nodes(phys200, 4)),
        rel=1e-15, abs=0.0)


def test_doubling_stops_at_the_last_finite_node_table(params):
    # numpy's hermgauss weights overflow from about 400 nodes, so the
    # doubling 21, 42, ..., 1344 cannot run to its end
    phys = replace(params.physical, sigma_sd=TWO_PI * 2e9, F_res=10.0)
    finite = list(itertools.takewhile(fidelity._finite_rule,
                                      (21 * 2**k for k in range(7))))
    assert len(finite) < 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fidelity.ConvergenceError) as err:
            fidelity.entanglement_fidelity(phys)
    assert err.value.estimates == tuple(
        fidelity.entanglement_fidelity_fixed_nodes(phys, n)
        for n in finite[-2:])
    assert (err.value.F_res, err.value.nodes, err.value.rtol) == (
        10.0, finite[-1], 1e-6)
    with pytest.raises(ValueError, match="no finite Gauss-Hermite rule"):
        fidelity.entanglement_fidelity_fixed_nodes(phys, 2 * finite[-1])


def test_non_finite_estimate_stops_the_doubling_at_once(params, monkeypatch):
    # F_res = 1e300 overflows the integrand to nan at every order, which can
    # never converge: one quadrature at the start order, no warning, and the
    # error names the non-finite point rather than the first one
    orders = []
    rule = fidelity._ent_product_rule
    monkeypatch.setattr(fidelity, "_ent_product_rule",
                        lambda phys, f, nodes: orders.append(nodes)
                        or rule(phys, f, nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fidelity.ConvergenceError) as err:
            fidelity._ent_adaptive(params.physical, np.array([500.0, 1e300]))
    assert orders == [21]
    assert (err.value.F_res, err.value.nodes) == (1e300, 21)
    assert all(math.isnan(e) for e in err.value.estimates)


@pytest.mark.parametrize("nodes", [1, 2, 3, 21, 42, 84, 168, 336, 400, 672,
                                   1344])
def test_hermgauss_port_is_numpy_bit_for_bit(nodes):
    # non-finite weights from about 400 nodes on included, NaNs and all
    with np.errstate(all="ignore"):
        want = np.polynomial.hermite.hermgauss(nodes)
        got = fidelity._hermgauss(nodes)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_gauss_hermite_tables_are_read_only_and_built_once(params,
                                                           monkeypatch):
    calls = Counter()
    hermgauss = fidelity._hermgauss

    def counting(nodes):
        calls[nodes] += 1
        return hermgauss(nodes)

    monkeypatch.setattr(fidelity, "_hermgauss", counting)
    fidelity._gauss_hermite.cache_clear()
    for _ in range(2):
        fidelity.fidelity_contour(params, DEFAULT_FP_GRID, DEFAULT_POL_GRID)
        fidelity.entanglement_fidelity(params.physical)
    assert calls == Counter({21: 1, 42: 1})
    x, w = fidelity._gauss_hermite(21)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert not hasattr(fidelity.entanglement_fidelity, "cache_info")


# ------------------------------------------------------------ transfer

def test_electron_init_is_configured_value(params):
    for ps in (params, with_physical(params, F_e_init=1.0)):
        phys = ps.physical
        assert fidelity.fidelity_budget(ps).F_transfer[0] == \
            fidelity.transfer_fidelity(
                phys.F_e_init,
                fidelity.nuclear_init_fidelity(phys.nuclear_polarization),
                fidelity.quadrupolar_factor(phys.sigma_Q, phys.t_transfer))
    assert params.physical.F_e_init == 0.99996


def test_nuclear_init_anchors():
    assert fidelity.nuclear_init_fidelity(0.95) == pytest.approx(0.998, abs=1e-12)
    assert fidelity.nuclear_init_fidelity(0.80) == pytest.approx(0.977, abs=1e-12)
    # the cubic is summed from the left end of the last interval, so the
    # anchor at 1.0 comes back one ulp low, as it does from scipy's PCHIP
    assert fidelity.nuclear_init_fidelity(1.0) == 0.9999999999999999


def test_nuclear_init_no_extrapolation():
    with pytest.raises(ValueError, match="tabulated range"):
        fidelity.nuclear_init_fidelity(0.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.80, max_value=0.999))
def test_nuclear_init_monotone(p):
    assert fidelity.nuclear_init_fidelity(p + 1e-3) >= \
        fidelity.nuclear_init_fidelity(p)


def test_nuclear_init_curve_and_constant_match_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    constants = pytest.importorskip("scipy.constants")
    x = np.array([a[0] for a in fidelity._NUCLEAR_INIT_ANCHORS])
    y = np.array([a[1] for a in fidelity._NUCLEAR_INIT_ANCHORS])
    curve = interpolate.PchipInterpolator(x, y)
    assert np.array_equal(fidelity._NUCLEAR_INIT_C, curve.c)
    grid = np.concatenate([np.linspace(0.80, 1.0, 200_001), x])
    assert np.array_equal(fidelity._nuclear_init(grid), curve(grid))
    assert fidelity.MU_B_OVER_H == \
        constants.physical_constants["Bohr magneton in Hz/T"][0]


def test_quadrupolar_factor_values():
    assert fidelity.quadrupolar_factor(5e4, 0.0) == 1.0
    # hand evaluation: exp(-16 * (5e4 * 330e-9)^2) = exp(-16 * 0.0165^2)
    expected = math.exp(-16 * (5e4 * 330e-9) ** 2)
    assert expected == pytest.approx(0.99565, abs=1e-5)
    assert fidelity.quadrupolar_factor(5e4, 330e-9) == \
        pytest.approx(expected, rel=1e-12)
    # sigma_Q**2 * t**2 beyond float64: fully dephased, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fidelity.quadrupolar_factor(1e300, 330e-9) == 0.0
        assert fidelity.quadrupolar_factor(5e4, 1e300) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e3, max_value=1e6),
       st.floats(min_value=1e-9, max_value=1e-5))
def test_quadrupolar_mode_power_law(sigma, t):
    # the delta_m = 2 mode dephases as exp(-delta_m**4 * (sigma * t)**2)
    assert fidelity.quadrupolar_factor(sigma, t) == pytest.approx(
        math.exp(-2**4 * (sigma * t) ** 2), rel=1e-12)


def test_transfer_fidelity_products():
    f95 = fidelity.transfer_fidelity(0.99996, 0.998, 0.9956534736)
    assert f95 == pytest.approx(0.993, abs=0.002)
    assert f95 == pytest.approx(0.99996 * 0.998 * 0.9956534736, rel=1e-12)
    f80 = fidelity.transfer_fidelity(0.99996, 0.977, 0.9956534736)
    assert f80 == pytest.approx(0.973, abs=0.002)
    assert fidelity.transfer_fidelity(1.0, 1.0, 1.0) == 1.0


# ------------------------------------------------------------ gate

def test_gate_fidelity_anchors(params):
    g500 = fidelity.gate_fidelity(params.physical)
    assert g500.fidelity == pytest.approx(0.995, abs=0.001)
    assert g500.fidelity == pytest.approx(0.9948039404, abs=1e-9)
    assert g500.warnings == ()
    # the decoherence term is xi * gate time, with a 2 ns gate
    no_xi = fidelity.gate_fidelity(replace(params.physical,
                                           T2_electron=math.inf))
    assert (no_xi.fidelity - g500.fidelity) * 2.0 * \
        params.physical.T2_electron == pytest.approx(2e-9, abs=5e-11)
    g200 = fidelity.gate_fidelity(with_physical(params, F_res=200.0).physical)
    assert g200.fidelity == pytest.approx(0.986, abs=0.001)
    assert g200.fidelity == pytest.approx(0.9863776511, abs=1e-9)


def test_gate_detuning_symmetry_term_vanishes(params):
    base = fidelity.gate_fidelity(params.physical).fidelity
    shifted = fidelity.gate_fidelity(
        with_physical(params, delta_eps1=TWO_PI * 3e9,
                      delta_eps2=TWO_PI * 3e9).physical).fidelity
    assert shifted == base


def test_gate_asymmetric_detuning_costs_fidelity(params):
    skew = fidelity.gate_fidelity(
        with_physical(params, delta_eps1=TWO_PI * 1e9).physical).fidelity
    assert skew < fidelity.gate_fidelity(params.physical).fidelity


def test_gate_ideal_limit(params):
    ideal = with_physical(params, F_res=1e12, T2_electron=1e12).physical
    assert fidelity.gate_fidelity(ideal).fidelity == pytest.approx(1.0, abs=1e-9)


def test_gate_validity_warning_out_of_regime(params):
    weak = fidelity.gate_fidelity(with_physical(params, F_res=20.0).physical)
    assert weak.warnings
    assert "1/C" in weak.warnings[0]


# ------------------------------------------------------------ readout

def test_readout_anchor():
    gamma_prime = 501 * TWO_PI * 0.59e9
    readout = fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9,
                                        TWO_PI * 1e9, gamma_prime)
    assert readout.warnings == ()
    f = readout.fidelity
    assert f == pytest.approx(0.99983, abs=2e-5)
    assert f == pytest.approx(0.9998337131, abs=1e-9)


def test_readout_no_window_is_coin_flip():
    assert fidelity.readout_fidelity(0.0, 500.0, 0.9, 0.9, 1e9,
                                     1e12).fidelity == 0.5


def test_readout_dark_free_limit():
    f = fidelity.readout_fidelity(1.0, 0.0, 0.9, 0.9, 1e9, 1e12).fidelity
    assert f == pytest.approx(1.0, abs=1e-12)


def test_readout_strong_drive_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        readout = fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9, 1e12,
                                            1e12)
    assert len(readout.warnings) == 1
    assert "weak" in readout.warnings[0]


def test_invert_readout_drive_round_trip():
    gamma_prime = 501 * TWO_PI * 0.59e9
    omega = fidelity.invert_readout_drive(0.99983, 600e-9, 500.0, 0.9, 0.9,
                                          gamma_prime)
    assert abs(omega - TWO_PI * 1e9) / (TWO_PI * 1e9) < 0.05
    back = fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9, omega,
                                     gamma_prime).fidelity
    assert back == pytest.approx(0.99983, abs=1e-12)


# ------------------------------------------------------------ splittings

def test_zeeman_splittings_anchor():
    s = fidelity.zeeman_splittings(6.6, -0.076, 1.309, 0.80, 31e9)
    assert s.dE_g == pytest.approx(32e9, abs=0.5e9)
    assert s.dE_e == pytest.approx(146e9, abs=1e9)
    # at zero field only the Overhauser shift is left
    s = fidelity.zeeman_splittings(0.0, -0.076, 1.309, 0.80, 31e9)
    assert (s.dE_g, s.dE_e) == pytest.approx((24.8e9, 24.8e9), rel=1e-12)


def test_zeeman_splittings_zero_field():
    s = fidelity.zeeman_splittings(0.0, -0.076, 1.309, 0.0, 31e9)
    assert (s.dE_g, s.dE_e) == (0.0, 0.0)


def _components(F_e, F_ro, F_ent, F_tr, F_gate):
    return dict(F_e_init=F_e, F_readout=F_ro, F_ent=F_ent, F_transfer=F_tr,
                F_gate=F_gate)


def test_overall_fidelity_composition_value():
    comp = _components(0.99996, 0.99983, 0.995, 0.99397, 0.9948)
    value = fidelity.overall_fidelity(3, **comp)
    # independent arithmetic for l = 8
    expected = (0.99996**16 * 0.99983**14
                * (0.995 * 0.99397**2) ** 8 * 0.9948**7)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.831, abs=0.01)


def test_overall_fidelity_trivial_cases():
    assert fidelity.overall_fidelity(4, **_components(1, 1, 1, 1, 1)) == 1.0
    comp = _components(0.9, 0.8, 0.7, 0.6, 0.5)
    # l = 1: no readout or gate factors
    assert fidelity.overall_fidelity(0, **comp) == \
        pytest.approx(0.9**2 * 0.7 * 0.6**2, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.9, max_value=1.0),
       st.integers(min_value=0, max_value=4))
def test_overall_fidelity_monotone(f, n):
    lo = _components(f, f, f, f, f)
    hi = _components(min(1.0, f + 1e-3), f, f, f, f)
    assert (fidelity.overall_fidelity(n, **hi)
            >= fidelity.overall_fidelity(n, **lo))
    if f < 1.0 and n < 4:
        assert fidelity.overall_fidelity(n + 1, **lo) < \
            fidelity.overall_fidelity(n, **lo)


def _python_pow_product(n_nest, F_ent, F_transfer, F_gate, F_readout,
                        F_e_init):
    """The closed form with Python-float ``**``, or None where a power or a
    partial product leaves the normal range (1e-300 to inf in magnitude) and
    with it float64 precision; raises OverflowError where a power
    overflows."""
    l = 2**n_nest
    value = 1.0
    for factor in (F_e_init ** (2 * l), F_readout ** (2 * (l - 1)),
                   (F_ent * F_transfer**2) ** l, F_gate ** (l - 1)):
        value *= factor
        if not (abs(factor) > 1e-300 and abs(value) > 1e-300):
            return None
    return value if math.isfinite(value) else None


def _python_squaring_chain(n_nest, F_ent, F_transfer, F_gate, F_readout,
                           F_e_init):
    """Level-by-level composition in Python floats: a link, then one
    squaring and one swap per nesting level."""
    value = F_e_init * F_e_init * F_ent * (F_transfer * F_transfer)
    swap = F_gate * (F_readout * F_readout)
    for _ in range(n_nest):
        value = value * value * swap
    return value


def _same(a, b):
    return a == b or math.isnan(a) and math.isnan(b)


def test_overall_fidelity_equals_python_float_product():
    rng = np.random.default_rng(196)
    names = ("F_ent", "F_transfer", "F_gate", "F_readout", "F_e_init")
    gaps = []
    for i in range(3000):
        n_nest = int(rng.integers(0, 13)) if i % 100 else 62 + i // 100 % 3
        comp = dict(zip(names, rng.uniform(0.5, 1.0, len(names)).tolist()))
        if rng.random() < 0.2:
            comp[names[rng.integers(len(names))]] = float(rng.uniform(-2, 3))
        value = fidelity.overall_fidelity(n_nest, **comp)
        assert type(value) is float
        assert _same(value, _python_squaring_chain(n_nest, **comp)), (
            n_nest, comp)
        # the squarings round differently from pow, by at most 8 l 2^-52
        try:
            pow_value = _python_pow_product(n_nest, **comp)
        except OverflowError:
            continue
        if pow_value is not None:
            gaps.append(abs(value - pow_value) / abs(pow_value) / 2**n_nest)
    assert len(gaps) > 1900
    assert max(gaps) <= 8 * 2**-52


def test_overall_fidelity_of_arrays_equals_it_per_element():
    rng = np.random.default_rng(21)
    for n_nest in (0, 1, 3, 6, 12, 64):
        comp = dict(F_ent=rng.uniform(0.5, 1.0, (7, 1)),
                    F_transfer=rng.uniform(0.5, 1.0, 5),
                    F_gate=rng.uniform(-2.0, 3.0, (7, 1)),
                    F_readout=rng.uniform(0.5, 1.0, (7, 1)),
                    F_e_init=0.99996)
        grid = fidelity.overall_fidelity(n_nest, **comp)
        assert grid.shape == (7, 5)
        for i, j in itertools.product(range(7), range(5)):
            alone = fidelity.overall_fidelity(
                n_nest, F_ent=float(comp["F_ent"][i, 0]),
                F_transfer=float(comp["F_transfer"][j]),
                F_gate=float(comp["F_gate"][i, 0]),
                F_readout=float(comp["F_readout"][i, 0]), F_e_init=0.99996)
            assert _same(float(grid[i, j]), alone), (n_nest, i, j)


def test_electron_init_override_propagates_linearly(params):
    base = fidelity.fidelity_budget(params)
    poor = fidelity.fidelity_budget(with_physical(params, F_e_init=0.9))
    assert poor.F_transfer[0] / base.F_transfer[0] == pytest.approx(
        0.9 / 0.99996, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1.0, max_value=1000.0),
       st.floats(min_value=0.0, max_value=TWO_PI * 400e9),
       st.floats(min_value=0.0, max_value=TWO_PI * 500e6))
def test_entanglement_fidelity_stays_in_physical_range(f_res, det, sigma):
    phys = with_physical(default_parameters(), F_res=f_res, detuning=det,
                         sigma_sd=sigma).physical
    value = fidelity.entanglement_fidelity(phys)
    assert 0.5 <= value <= 1.0


def test_budget_pipeline_matches_components(params):
    b = fidelity.fidelity_budget(params)
    phys = params.physical
    assert (b.fp_grid, b.polarization_grid) == ((phys.F_res,),
                                                (phys.nuclear_polarization,))
    (F_ent,), (F_gate,), (F_readout,) = b.F_ent, b.F_gate, b.F_readout
    (F_transfer,) = b.F_transfer
    F_n_init = fidelity.nuclear_init_fidelity(phys.nuclear_polarization)
    F_quad = fidelity.quadrupolar_factor(phys.sigma_Q, phys.t_transfer)
    assert F_ent == pytest.approx(F_ENT_500_AT_275, abs=1e-8)
    nominal = fidelity.fidelity_budget(with_physical(params, sigma_sd=0.0))
    assert nominal.F_ent[0] == pytest.approx(F_BK_NOMINAL_500, abs=1e-9)
    assert F_transfer == pytest.approx(
        phys.F_e_init * F_n_init * F_quad, rel=1e-12)
    assert b.F_total.shape == (1, 1)
    assert b.F_total[0, 0] == fidelity.overall_fidelity(
        params.link.n_nest, F_ent=float(F_ent), F_transfer=float(F_transfer),
        F_gate=float(F_gate), F_readout=float(F_readout),
        F_e_init=phys.F_e_init)
    assert b.warnings == ((),)
    assert all(0.0 <= c <= 1.0 for c in (phys.F_e_init, F_n_init, F_quad,
                                          F_transfer, F_ent, F_gate,
                                          F_readout))


def test_contour_anchors(params):
    assert params.link.n_nest == 3
    contour = fidelity.fidelity_contour(params, [200.0, 500.0],
                                        [0.80, 0.95, 0.999])
    def at(fp, pol):
        return contour.F_total[contour.fp_grid.index(fp),
                             contour.polarization_grid.index(pol)]
    assert at(500.0, 0.95) == pytest.approx(0.831, abs=0.01)
    assert at(200.0, 0.95) == pytest.approx(0.734, abs=0.01)
    assert at(500.0, 0.80) == pytest.approx(0.596, abs=0.01)
    assert at(200.0, 0.80) == pytest.approx(0.526, abs=0.01)
    assert at(500.0, 0.999) == pytest.approx(0.858, abs=0.01)
    assert at(200.0, 0.999) == pytest.approx(0.758, abs=0.01)
    # regression pin for the headline point
    assert at(500.0, 0.95) == pytest.approx(0.8310932545, abs=1e-8)


def test_overflowing_gate_terms_are_notes_not_errors(params):
    # 1/(2 T2) and 2 g/kappa overflow: the terms come back inf or nan
    for change in (dict(T2_electron=1e-300), dict(kappa=1e-300),
                   dict(F_res=1e-300), dict(gamma_r=1e-300)):
        gate = fidelity.gate_fidelity(
            with_physical(params, **change).physical)
        assert not math.isfinite(gate.fidelity) or gate.fidelity < -1e200
        assert gate.warnings, change
    assert fidelity.overall_fidelity(
        3, F_ent=0.99, F_transfer=0.99, F_gate=-1e291, F_readout=0.99,
        F_e_init=0.99) == -math.inf


def _same(array_value, scalar_value):
    return array_value == scalar_value or (math.isnan(array_value)
                                           and math.isnan(scalar_value))


@pytest.mark.parametrize("overrides, fp_grid", [
    ((), DEFAULT_FP_GRID),
    # the readout note is on below F_p of about 41 and off above it
    (("Omega_readout=2pi*5 GHz",), np.logspace(0.0, 6.0, 200)),
    # numpy scalars square by pow(), arrays by a product; these two
    # differ in the last bit, and so would F_gate if the gate wrote C**2
    ((), np.array([7.964, 12.457])),
    ((), np.array([1e-300, 1.0, 500.0])),
    (("T2_electron=1e-300 s",), DEFAULT_FP_GRID),
    (("kappa=1e-300 rad/s",), DEFAULT_FP_GRID),
    (("gamma_r=1e-300 rad/s",), DEFAULT_FP_GRID)],
    ids=["default", "readout-note-switches", "pow-vs-product", "tiny-F_res",
         "tiny-T2", "tiny-kappa", "tiny-gamma_r"])
def test_gate_and_readout_arrays_equal_per_point_calls(overrides, fp_grid):
    ps = default_parameters(list(overrides))
    phys, link = ps.physical, ps.link
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma_prime = fidelity.enhanced_rates(phys.gamma_r, phys.gamma_nr,
                                              phys.gamma_star, fp_grid)[0]

        def readout(gp):
            return fidelity.readout_fidelity(phys.T_readout, phys.D_dark,
                                             link.eta_c, link.eta_d,
                                             phys.Omega_readout, gp)

        gate = fidelity.gate_fidelity(replace(phys, F_res=fp_grid))
        ro = readout(gamma_prime)
        assert len(gate.warnings) == len(ro.warnings) == len(fp_grid)
        for i, fp in enumerate(fp_grid.tolist()):
            g = fidelity.gate_fidelity(replace(phys, F_res=fp))
            r = readout(gamma_prime[i].item())
            for result in (g, r):
                assert type(result.fidelity) is float
                assert type(result.warnings) is tuple
                assert all(type(note) is str for note in result.warnings)
            assert _same(gate.fidelity[i], g.fidelity), fp
            assert _same(ro.fidelity[i], r.fidelity), fp
            assert (gate.warnings[i], ro.warnings[i]) == (g.warnings,
                                                          r.warnings)
    if overrides == ("Omega_readout=2pi*5 GHz",):
        assert 0 < sum(map(bool, ro.warnings)) < len(fp_grid)


def test_readout_at_zero_gamma_prime_is_a_note_not_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lone = fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9, 1e9, 0.0)
        array = fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9, 1e9,
                                          np.array([0.0]))
    assert (lone.fidelity, lone.warnings) == (array.fidelity[0],
                                              array.warnings[0])
    assert lone.warnings[0].startswith("readout drive inf x gamma'")


def test_contour_composes_at_the_parameter_sets_nesting_level(params):
    two_levels = with_link(params, n_nest=2)
    budget = fidelity.fidelity_budget(two_levels)
    contour = fidelity.fidelity_contour(two_levels, [500.0], [0.95])
    assert _values(contour) == _values(budget)
    assert budget.n_nest == 2
    assert budget.F_total[0, 0] == pytest.approx(0.914, abs=5e-4)


def _values(budget):
    """Every field of a budget as plain Python values, for ``==``."""
    values = {f.name: getattr(budget, f.name) for f in fields(budget)}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v
            for name, v in values.items()}


def test_contour_rejects_empty_grid(params):
    with pytest.raises(ValueError):
        fidelity.fidelity_contour(params, [], [0.9])


def test_contour_equals_budget_at_every_point(params):
    contour = fidelity.fidelity_contour(params, DEFAULT_FP_GRID,
                                        DEFAULT_POL_GRID)
    assert contour.F_total.shape == (10, 22)
    c = contour
    for i, fp in enumerate(c.fp_grid):
        for j, pol in enumerate(c.polarization_grid):
            point = with_physical(params, F_res=fp, nuclear_polarization=pol)
            b = fidelity.fidelity_budget(point)
            assert c.n_nest == b.n_nest
            assert (c.F_ent[i], c.F_gate[i], c.F_readout[i],
                    c.warnings[i]) == (b.F_ent[0], b.F_gate[0],
                                       b.F_readout[0], b.warnings[0])
            assert c.F_transfer[j] == b.F_transfer[0]
            assert c.F_total[i, j] == b.F_total[0, 0]


def test_contour_composes_the_whole_grid_in_one_call(params, monkeypatch):
    calls = []
    compose = fidelity.overall_fidelity

    def counting(n_nest, **components):
        calls.append(n_nest)
        return compose(n_nest, **components)

    monkeypatch.setattr(fidelity, "overall_fidelity", counting)
    # and one gate call, one readout call and one parameter copy per grid
    evaluations = Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            evaluations[name] += 1
            return original(*args, **kwargs)
        return call

    for name in ("gate_fidelity", "readout_fidelity", "replace"):
        monkeypatch.setattr(fidelity, name,
                            counted(name, getattr(fidelity, name)))
    for fp_grid in (DEFAULT_FP_GRID[:2], DEFAULT_FP_GRID):
        calls.clear()
        evaluations.clear()
        contour = fidelity.fidelity_contour(params, fp_grid, DEFAULT_POL_GRID)
        assert calls == [params.link.n_nest]
        assert evaluations == {"gate_fidelity": 1, "readout_fidelity": 1,
                               "replace": 1}
        assert contour.F_total.shape == (len(fp_grid), 22)


def test_default_contour_f_ent_matches_high_order_rule(params):
    contour = fidelity.fidelity_contour(params, DEFAULT_FP_GRID,
                                        DEFAULT_POL_GRID)
    for fp, f_ent in zip(contour.fp_grid, contour.F_ent):
        ref = _reference_fixed_nodes(with_physical(params, F_res=fp).physical,
                                     168)
        assert abs(f_ent - ref) <= 1e-6


def test_budget_carries_readout_drive_note():
    strong = default_parameters(["Omega_readout=2pi*500 GHz"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        budget = fidelity.fidelity_budget(strong)
    assert caught == []
    assert any("readout drive" in note and "weak" in note
               for note in budget.warnings[0])
