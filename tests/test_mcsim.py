import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qdrepeater import mcsim, rates
from qdrepeater.params import default_parameters, with_link


def exact_max_of_two_geometrics(p):
    """E[max(G1, G2)] for iid geometrics on {1, 2, ...}: 2/p - 1/(p(2-p))."""
    return 2.0 / p - 1.0 / (p * (2.0 - p))


def cfg(**kw):
    base = dict(n_nest=0, p0=0.1, p_swap=1.0, slot_time=1.0,
                trials=10_000, seed=1234)
    base.update(kw)
    return mcsim.ProtocolConfig(**base)


# ------------------------------------------------------------ means

def test_single_link_matches_geometric_mean():
    c = cfg(trials=100_000, seed=7)
    records = mcsim.run_trials(c)
    stats = mcsim.timing_stats(records, c)
    assert abs(stats.mean - 10.0) <= 3 * stats.stderr
    assert np.count_nonzero(records.success) == c.trials == len(records)


def test_two_links_match_exact_closed_form():
    p0 = 0.01
    exact = exact_max_of_two_geometrics(p0) / 0.5
    assert exact == pytest.approx(299.4975, abs=1e-3)
    stats = mcsim.simulate_chain(cfg(n_nest=1, p0=p0, p_swap=0.5,
                                     trials=30_000, seed=99))
    assert abs(stats.mean - exact) <= 3 * stats.stderr


def test_ratio_to_analytic_approaches_one_for_small_p0():
    # the exact formula ratio (2 - 1/(2-p0))/1.5 climbs monotonically to 1
    exact = [(2.0 - 1.0 / (2.0 - p0)) / 1.5 for p0 in (0.1, 0.01, 0.001)]
    assert exact[0] < exact[1] < exact[2] < 1.0
    # and the simulation tracks it
    for p0 in (0.1, 0.01):
        stats = mcsim.simulate_chain(cfg(n_nest=1, p0=p0, p_swap=0.5,
                                         trials=20_000, seed=5))
        analytic = 1.5 / (p0 * 0.5)
        expected = (2.0 - 1.0 / (2.0 - p0)) / 1.5
        assert stats.mean / analytic == pytest.approx(expected, abs=0.02)


def test_three_levels_within_band_of_analytic():
    p0, ps = 0.02, 0.5832
    analytic = 1.5**3 / (p0 * ps**3)
    report = mcsim.compare_with_analytic(
        mcsim.simulate_chain(cfg(n_nest=3, p0=p0, p_swap=ps, trials=5_000,
                                 seed=31)),
        analytic)
    assert report.passed
    assert 0.85 <= report.ratio <= 1.15


def test_single_link_formula_is_exact_geometric_mean():
    # cross-module: the analytic n = 0 mean is the exact expectation the
    # simulator samples from
    ps = with_link(default_parameters(), n_nest=0, L_total=50e3)
    analytic = rates.mean_time_parallel(ps)
    slot = ps.link.L0 / ps.link.c_fiber + ps.link.tau_init
    stats = mcsim.simulate_chain(mcsim.ProtocolConfig(
        n_nest=0, p0=analytic.p0, p_swap=analytic.p_swap, slot_time=slot,
        trials=50_000, seed=17))
    assert abs(stats.mean - analytic.mean_time) <= 3 * stats.stderr


def test_three_levels_curve_b_within_band():
    # the (3/2)^n approximation against the simulator at the headline
    # operating point: 1000 km, eight links, p*eta_c = 0.72
    ps = with_link(default_parameters(), p_emit=0.72, eta_c=1.0, eta_s=0.72)
    analytic = rates.mean_time_parallel(ps)
    slot = ps.link.L0 / ps.link.c_fiber + ps.link.tau_init
    report = mcsim.compare_with_analytic(
        mcsim.simulate_chain(mcsim.ProtocolConfig(
            n_nest=3, p0=analytic.p0, p_swap=analytic.p_swap, slot_time=slot,
            trials=4_000, seed=23)),
        analytic.mean_time)
    assert report.passed
    assert 0.85 <= report.ratio <= 1.15


# ------------------------------------------------------------ determinism

def test_rerun_is_bit_identical():
    c = cfg(n_nest=1, p0=0.05, p_swap=0.6, trials=2_000)
    assert mcsim.run_trials(c) == mcsim.run_trials(c)


def test_trial_streams_are_independent_of_campaign_size(trial_slice):
    short = mcsim.run_trials(cfg(trials=100))
    long = mcsim.run_trials(cfg(trials=300))
    assert trial_slice(long, np.s_[:100]) == short
    with pytest.raises(TypeError):
        long[0]


def test_different_seeds_differ():
    a = mcsim.simulate_chain(cfg(seed=1, trials=2_000))
    b = mcsim.simulate_chain(cfg(seed=2, trials=2_000))
    assert a.mean != b.mean


def test_common_random_numbers_monotone_in_p0():
    lo = mcsim.run_trials(cfg(n_nest=2, p0=0.05, p_swap=0.5, trials=1_000))
    hi = mcsim.run_trials(cfg(n_nest=2, p0=0.10, p_swap=0.5, trials=1_000))
    assert (hi.total_time <= lo.total_time).all()


def test_mean_monotone_in_p_swap_with_common_randoms():
    lo = mcsim.simulate_chain(cfg(n_nest=2, p0=0.1, p_swap=0.4, trials=3_000))
    hi = mcsim.simulate_chain(cfg(n_nest=2, p0=0.1, p_swap=0.7, trials=3_000))
    assert hi.mean < lo.mean


# ------------------------------------------------------------ records/stats

def test_stats_invariants():
    c = cfg(trials=5_000)
    records = mcsim.run_trials(c)
    times = records.total_time[records.success]
    stats = mcsim.timing_stats(records, c)
    assert stats == mcsim.simulate_chain(c)
    assert stats.stderr == pytest.approx(
        np.std(times, ddof=1) / math.sqrt(times.size), rel=1e-12)
    # the statistics are those of the campaign's seed, 1234: another seed
    # draws other records
    assert records != mcsim.run_trials(replace(c, seed=1235))


def test_stderr_needs_two_successful_trials():
    c = cfg(trials=3)
    times = np.array([4.0, 6.0, 9.0])
    for success, mean, stderr in (([0, 0, 0], math.nan, math.nan),
                                  ([1, 0, 0], 4.0, math.nan),
                                  ([1, 1, 0], 5.0, 1.0)):
        records = mcsim.TrialRecords(times, np.array(success, dtype=bool),
                                     np.zeros(3, dtype=int), np.zeros(3))
        stats = mcsim.timing_stats(records, c)
        assert (stats.mean, stats.stderr) == pytest.approx(
            (mean, stderr), nan_ok=True), success


def _order_statistic_cases():
    """Seeded arrays: sizes 1, 2, 3 and odd and even sizes up to 20k, with
    distinct values, ties, whole slots in seconds as ``mc`` records them,
    and values spread over many decades."""
    yield np.array([15.91, 0.1])    # (a + b)/2 8.005, b - (b - a)/2 8.0049..
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 4, 5, 19, 20, 101, 1000, 4999, 19_999, 20_000):
        yield rng.random(n)
        yield rng.integers(1, 4, n).astype(float)
        yield np.ceil(rng.exponential(300.0, n)) * 0.0123
        yield rng.lognormal(0.0, 10.0, n)
    records = mcsim.run_trials(cfg(n_nest=3, p0=0.05, p_swap=0.6, trials=5_000,
                                   slot_time=3.7e-4, memory_cutoff=0.05))
    yield records.total_time[records.success]
    yield records.max_storage_time[records.success]


def test_storage_median_is_numpy_median_bit_for_bit():
    # np.median averages the middle pair where np.percentile interpolates,
    # and the two can round apart; the median must follow np.median
    rounded_apart = 0
    for values in _order_statistic_cases():
        want = float(np.median(values))
        assert mcsim.median(values) == want, values.size
        rounded_apart += want != float(np.percentile(values, 50))
    assert rounded_apart >= 1


def test_records_have_consistent_attempts():
    records = mcsim.run_trials(cfg(n_nest=1, p0=0.3, p_swap=0.5, trials=500))
    assert records.success.all()
    slots = records.total_time       # at a one-second slot
    assert (slots == np.floor(slots)).all()
    # every swap round, the failed ones and the last, takes an attempt
    assert (slots >= records.swap_failures + 1).all()
    assert (records.max_storage_time < records.total_time).all()


def test_certain_success_takes_exactly_one_slot():
    for n_nest in (0, 2):
        records = mcsim.run_trials(cfg(n_nest=n_nest, p0=1.0, trials=50))
        assert (records.total_time == 1.0).all()
        assert records.success.all()
        assert (records.swap_failures == 0).all()
        assert (records.max_storage_time == 0.0).all()


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(p0=0.0)
    with pytest.raises(ValueError):
        cfg(p_swap=1.5)
    with pytest.raises(ValueError):
        cfg(trials=0)
    with pytest.raises(ValueError):
        cfg(slot_time=0.0)


@pytest.mark.parametrize("slot", [math.nan, math.inf, -math.inf, -1.0])
def test_slot_time_must_be_finite_and_positive(slot):
    with pytest.raises(ValueError, match="slot_time"):
        cfg(slot_time=slot)
    with pytest.raises(ValueError, match="slot_time"):
        cfg(slot_time=slot, memory_cutoff=4.0)


@pytest.mark.parametrize("field", ["trials", "n_nest", "seed"])
@pytest.mark.parametrize("value", [10.5, 2.0, True, "3"])
def test_counts_and_seed_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        cfg(**{field: value})


def test_numpy_integers_are_accepted_as_python_ints():
    plain = cfg(n_nest=1, p0=0.3, p_swap=0.6, trials=200, seed=42)
    numpy_ints = cfg(n_nest=np.int8(1), p0=0.3, p_swap=0.6,
                     trials=np.int64(200), seed=np.uint64(42))
    assert numpy_ints == plain
    assert all(type(getattr(numpy_ints, f)) is int
               for f in ("n_nest", "trials", "seed"))
    assert mcsim.run_trials(numpy_ints) == mcsim.run_trials(plain)


def test_expected_tree_beyond_the_node_budget_is_refused():
    # (2/p_swap)**k summed over k = 0..n_nest; at p_swap 0.5, 4**10 alone
    # passes the budget of 2**20 nodes
    assert mcsim._expected_nodes(9, 0.5) == (4**10 - 1) / 3
    assert cfg(n_nest=9, p_swap=0.5).n_nest == 9
    for n_nest in (10, 40, 10**12):
        with pytest.raises(ValueError, match="tree nodes per trial"):
            cfg(n_nest=n_nest, p_swap=0.5)
    with pytest.raises(ValueError, match="tree nodes per trial"):
        cfg(n_nest=1, p_swap=5e-324)


#: traced peak bytes per CHUNK_NODES node of one chunk's sampling, its
#: output columns excluded and the campaign's workspace, built for this one
#: chunk, included.  Over five chunks each, the campaigns below read at
#: most 10 (n = 0), 15 (n = 1), 25 (n = 3) and 26 (cutoff); swap failures
#: counted over every round, and the abort pass's inputs copied, read 10,
#: 17, 26 and 32.  Fresh arrays per chunk read 8, 19, 28 and 29
#: without a workspace; sampling that held each level's temporaries to the
#: end of its chunk read 55 and 73 at n = 3 and the cutoff, and chunks
#: sized by tree nodes alone, which copied each chunk's columns into the
#: output, 181 at n = 0 and 51 at n = 1.
WORKING_SET_BOUND = 32


#: criterion 9's Monte Carlo campaigns (acceptance.check_monte_carlo)
CRITERION_9 = {
    "criterion 9, n = 0": dict(n_nest=0, p0=0.1, p_swap=1.0, seed=20240801),
    "criterion 9, n = 1": dict(n_nest=1, p0=0.01, p_swap=0.5, seed=20240802),
    "criterion 9, n = 3": dict(n_nest=3, p0=0.01, p_swap=0.5832,
                               seed=20240803),
}


@pytest.mark.parametrize("campaign", [*CRITERION_9, "mc --cutoff 4"])
def test_working_memory_per_chunk_node_stays_small(campaign):
    link = default_parameters().link
    base = (mcsim.ProtocolConfig(
                n_nest=link.n_nest, p0=rates.link_success_probability(link),
                p_swap=rates.swap_success_probability(link),
                slot_time=rates.slot_time(link), trials=1, seed=1,
                memory_cutoff=4.0)
            if campaign == "mc --cutoff 4" else
            cfg(trials=1, **CRITERION_9[campaign]))
    step = mcsim._trials_per_chunk(base)
    mcsim.run_trials(replace(base, trials=10))   # numpy's first-call set-up
    # the middle chunk of three, written into views of the output columns,
    # which are allocated before tracing starts
    columns = [np.empty(3 * step), np.empty(3 * step, dtype=bool),
               np.empty(3 * step, dtype=np.int64), np.empty(3 * step)]
    views = [column[step:2 * step] for column in columns]
    root = mcsim._root(base.seed)
    limit = mcsim._cutoff_slots(base.memory_cutoff, base.slot_time)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with np.errstate(over="ignore", invalid="ignore"):
            # the campaign's workspace is built here, so the bound counts it
            mcsim._sample_chunk(base, root, limit, step, views,
                                mcsim._Workspace())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert views[1].any()    # some trial of the chunk succeeded
    assert peak / mcsim.CHUNK_NODES < WORKING_SET_BOUND


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=9),
       st.floats(min_value=0.05, max_value=1.0, exclude_min=True))
def test_chunk_fills_its_budget_of_nodes_and_trials(n_nest, p_swap):
    try:
        c = cfg(n_nest=n_nest, p_swap=p_swap)
    except ValueError:
        reject()    # expects more than MAX_TRIAL_NODES nodes
    weight = mcsim._expected_nodes(n_nest, p_swap) + mcsim.TRIAL_NODES
    step = mcsim._trials_per_chunk(c)
    assert step >= 1
    assert step == 1 or step * weight <= mcsim.CHUNK_NODES
    assert (step + 1) * weight > mcsim.CHUNK_NODES


# ------------------------------------------------------------ storage

def test_no_storage_without_siblings():
    hist = mcsim.storage_time_histogram(cfg(n_nest=0, p_swap=1.0, trials=2_000))
    assert np.all(hist.values == 0.0)


def test_storage_matches_enumeration_oracle():
    # n = 1, p0 = 0.5, ideal swap: max storage is |G1 - G2| slots.
    # Enumerate the distribution over a 20x20 grid of geometric outcomes.
    p = 0.5
    probs = {}
    for g1 in range(1, 21):
        for g2 in range(1, 21):
            w = (p * (1 - p) ** (g1 - 1)) * (p * (1 - p) ** (g2 - 1))
            d = abs(g1 - g2)
            probs[d] = probs.get(d, 0.0) + w
    trials = 40_000
    hist = mcsim.storage_time_histogram(
        cfg(n_nest=1, p0=p, p_swap=1.0, trials=trials, seed=77))
    for d in (0, 1, 2, 3):
        observed = float((hist.values == d).mean())
        sigma = math.sqrt(probs[d] * (1 - probs[d]) / trials)
        assert abs(observed - probs[d]) <= 4 * sigma + 1e-4


def test_storage_histogram_without_successes_is_empty():
    # mc's share above 1 s reads nan without a warning in the golden corpus:
    # mc-cutoff-0; the share of all and of no values, mc-trials-1 and
    # mc-storage-below-1s
    c = cfg(n_nest=2, p0=0.01, p_swap=0.5, trials=200, seed=1,
            memory_cutoff=0.0)
    records = mcsim.run_trials(c)
    stored = records.max_storage_time[records.success]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = mcsim.storage_time_histogram(c)
        assert math.isnan(mcsim.median(stored))
    assert hist.values.size == stored.size == 0
    assert hist.counts.sum() == 0
    assert hist.counts.size == mcsim.HISTOGRAM_BINS


# ------------------------------------------------------------ memory cutoff

def test_unlimited_cutoff_never_fails():
    records = mcsim.run_trials(cfg(n_nest=2, p0=0.05, p_swap=0.5,
                                   trials=2_000))
    assert records.success.all()


def test_finite_cutoff_fails_trials_and_truncates_storage():
    # cutoff below the median |G1 - G2| storage (median is 1 slot at p0=0.5)
    c = cfg(n_nest=1, p0=0.5, p_swap=1.0, trials=10_000, seed=21,
            memory_cutoff=0.5)
    records = mcsim.run_trials(c)
    frac = records.success.mean()
    assert frac < 1.0
    # only same-slot completions survive: P(G1 == G2) = p/(2-p) = 1/3
    assert frac == pytest.approx(1.0 / 3.0, abs=0.02)
    assert (records.max_storage_time[~records.success] == 0.5).all()
    # conditioning on success selects tightly-matched (shorter) rounds
    uncut = mcsim.simulate_chain(cfg(n_nest=1, p0=0.5, p_swap=1.0,
                                     trials=10_000, seed=21))
    cut = mcsim.simulate_chain(c)
    assert np.count_nonzero(records.success) < c.trials
    assert cut.mean < uncut.mean


def test_cutoff_only_source_of_failure():
    records = mcsim.run_trials(cfg(n_nest=1, p0=0.3, p_swap=0.5,
                                   trials=1_000, memory_cutoff=math.inf))
    assert records.success.all()


@pytest.mark.parametrize("n_nest", [1, 2, 3])
@pytest.mark.parametrize("slot, cutoff", [(1.0, 6.0), (0.37, 2.9)])
def test_cutoff_aborts_exactly_the_trials_that_store_too_long(n_nest, slot,
                                                             cutoff):
    # common random numbers: the cut campaign draws the uncut one's trees
    uncut = mcsim.run_trials(cfg(n_nest=n_nest, p0=0.3, p_swap=0.6,
                                 slot_time=slot, trials=3_000, seed=13))
    cut = mcsim.run_trials(cfg(n_nest=n_nest, p0=0.3, p_swap=0.6,
                               slot_time=slot, trials=3_000, seed=13,
                               memory_cutoff=cutoff))
    assert_cut_aborts_what_stores_too_long(cut, uncut, cutoff)


def test_cutoff_beyond_2_53_slots_aborts_what_stores_too_long():
    # p0 = 1e-18: links take about 1e18 slots, and the cutoff is 1.6e17
    # slots, past 2**53, where not every count has its own float64
    kwargs = dict(n_nest=1, p0=1e-18, p_swap=0.6, slot_time=6.25e-4,
                  trials=3_000, seed=13)
    uncut = mcsim.run_trials(cfg(**kwargs))
    cut = mcsim.run_trials(cfg(**kwargs, memory_cutoff=1e14))
    assert 1e14 / 6.25e-4 > 2.0**53
    assert_cut_aborts_what_stores_too_long(cut, uncut, 1e14)


def assert_cut_aborts_what_stores_too_long(cut, uncut, cutoff):
    """A cut campaign's trials succeed exactly where the uncut campaign on
    the same trees stored no state longer than ``cutoff`` seconds."""
    ok = cut.success
    assert 0 < ok.sum() < ok.size
    np.testing.assert_array_equal(ok, uncut.max_storage_time <= cutoff)
    np.testing.assert_array_equal(cut.total_time[ok], uncut.total_time[ok])
    np.testing.assert_array_equal(cut.max_storage_time[ok],
                                  uncut.max_storage_time[ok])
    np.testing.assert_array_equal(cut.swap_failures[ok],
                                  uncut.swap_failures[ok])
    # an abort comes before the stored state's consumption, so before delivery
    assert (cut.total_time[~ok] < uncut.total_time[~ok]).all()
    assert (cut.swap_failures[~ok] <= uncut.swap_failures[~ok]).all()


def nudged(x: float, ulps: int) -> float:
    """``x`` moved ``ulps`` representable steps up (or down, if negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=1e-12, max_value=1e6, allow_subnormal=False),
       st.integers(min_value=0, max_value=2**62),
       st.integers(min_value=-3, max_value=3))
def test_cutoff_as_whole_slots_decides_holds_as_seconds_do(slot, whole, ulps):
    # cutoffs within a few ulps of a whole number of slots, where rounding
    # the product decides, below and above 2**53 slots
    cutoff = nudged(float(whole) * slot, ulps)
    if not 0.0 <= cutoff < math.inf:
        reject()
    limit = mcsim._cutoff_slots(cutoff, slot)
    assert limit == math.floor(limit) and limit * slot <= cutoff
    for hold in (limit - 1.0, limit, limit + 1.0):
        seconds = np.array([hold]) * slot    # as the sampler multiplies
        assert (hold > limit) == bool(seconds[0] > cutoff)


@pytest.mark.parametrize("cutoff, slot, limit", [
    (math.inf, 6.25e-4, math.inf), (0.0, 1.0, 0.0), (0.0, 6.25e-4, 0.0),
    (6.0, 1.0, 6.0), (2.9, 0.37, 7.0), (0.3, 0.1, 2.0), (0.7, 0.1, 6.0),
    (4.0, 6.25e-4, 6400.0), (1e-300, 1.0, 0.0),
    (17534.719999999998, 6.592, 2660.0),
    (3714.0472633437107, 6.865152057936619, 540.0),
    (2.0**53, 1.0, 2.0**53), (math.nextafter(2.0**53, 0.0), 1.0, 2.0**53 - 1.0),
    (1e13, 6.25e-4, 1.6e16), (1.0, 1e-300, 1e300),
    (1.7e308, 1e-10, sys.float_info.max), (0.0, 1e-12, 0.0)])
def test_cutoff_as_whole_slots_at_its_edges(cutoff, slot, limit):
    # 3 * 0.1 and 7 * 0.1 round above 0.3 and 0.7; 17534.72 / 6.592 rounds
    # below 2660, whose product is the cutoff, and 3714.05 / 6.865 rounds up
    # to 541, whose product exceeds it.  Past 2**53 every float64 is a whole
    # count; a tiny slot times any finite count stays within a huge cutoff,
    # and one times the smallest counts rounds to a zero cutoff
    assert mcsim._cutoff_slots(cutoff, slot) == limit


@pytest.mark.parametrize("cutoff", [0.0, 10.0, 30.0])
def test_one_level_cutoff_matches_exact_success_probability(cutoff):
    # n = 1, slot 1: a round stores |A - B| slots for iid Geometric(p0) A, B,
    # q = P(|A - B| <= c) = 1 - 2 (1 - p0)^(c+1) / (2 - p0), and a trial keeps
    # every round of its Geometric(p_swap) count within the cutoff with
    # probability p_swap q / (1 - (1 - p_swap) q)
    p0, ps, trials = 0.05, 0.6, 200_000
    q = 1.0 - 2.0 * (1.0 - p0)**(cutoff + 1) / (2.0 - p0)
    exact = ps * q / (1.0 - (1.0 - ps) * q)
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    cut = mcsim.run_trials(cfg(n_nest=1, p0=p0, p_swap=ps, trials=trials,
                               seed=5, memory_cutoff=cutoff))
    uncut = mcsim.run_trials(cfg(n_nest=1, p0=p0, p_swap=ps, trials=trials,
                                 seed=5))
    assert abs(cut.success.mean() - exact) <= 3 * sigma
    assert abs((uncut.max_storage_time <= cutoff).mean() - exact) <= 3 * sigma


# ------------------------------------------------------------ comparison

def test_comparison_report_fields_and_str():
    report = mcsim.compare_with_analytic(
        mcsim.simulate_chain(cfg(trials=20_000)), 10.0)
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=0.05)
    text = str(report)
    assert "PASS" in text and "ratio" in text and "tol 15%" in text
