"""The batched Monte Carlo against a scalar replay of each trial.

``Trial`` runs one trial as the plain recursion the protocol describes, in
absolute time, drawing from the same address-keyed uniforms as
``qdrepeater.mcsim``: the SplitMix64 hash of (seed, trial, the (round, side)
path down the tree).  Times are exact slot counts, converted to seconds only
to compare and report them, so the batched records must match the replay
bit for bit, column by column.  The replay takes its logarithms from numpy,
as the sampler does: libm's ``math.log1p`` can differ from numpy's by one
ulp, which flips a draw once counts near 1e13 slots.
"""

import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from qdrepeater import mcsim, rates
from qdrepeater.params import default_parameters

MASK = (1 << 64) - 1
COLUMNS = [f.name for f in fields(mcsim.TrialRecords)]


def mix(x):
    """SplitMix64 step on a Python integer."""
    z = (x + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def geometric(key, p):
    """Draw on {1, 2, ...} by inverse transform of the key's top 53 bits."""
    u = (key >> 11) * 2.0**-53
    log_q = -math.inf if p >= 1.0 else math.log1p(-p)
    return max(1, math.ceil(np.log1p(-u) / log_q))


class Trial:
    """One trial replayed by recursion."""

    def __init__(self, cfg, trial):
        self.cfg = cfg
        self.holds = []          # (slots stored, absolute write slot)
        self.failed_swaps = []   # absolute slots
        key = mix(mix(cfg.seed & MASK) ^ trial)
        self.delivery, left, right = self.subtree(cfg.n_nest, key, 0)
        if cfg.n_nest:
            # the end memories hold until delivery
            self.hold(self.delivery, left, 0)
            self.hold(self.delivery, right, 0)

    def seconds(self, slots):
        return slots * self.cfg.slot_time

    def hold(self, consumed, written, origin):
        """A memory written and consumed at these offsets from ``origin``."""
        self.holds.append((consumed - written, origin + written))

    def subtree(self, level, key, start):
        """(duration, left memory write, right memory write), from ``start``."""
        if level == 0:
            slots = geometric(key, self.cfg.p0)
            return slots, slots, slots
        rounds = geometric(key, self.cfg.p_swap)
        elapsed = 0
        for r in range(rounds):
            at = start + elapsed
            dur_a, left_a, right_a = self.subtree(
                level - 1, mix(key ^ (2 * r + 1)), at)
            dur_b, left_b, right_b = self.subtree(
                level - 1, mix(key ^ (2 * r + 2)), at)
            d = max(dur_a, dur_b)
            self.hold(d, right_a, at)       # the swap consumes the mid pair
            self.hold(d, left_b, at)
            if r < rounds - 1:
                self.hold(d, left_a, at)    # a failure empties the outer pair
                self.hold(d, right_b, at)
                self.failed_swaps.append(at + d)
            else:
                left, right = elapsed + left_a, elapsed + right_b
            elapsed += d
        return elapsed, left, right

    def expiries(self):
        cutoff = self.cfg.memory_cutoff
        return [self.seconds(w) + cutoff for s, w in self.holds
                if self.seconds(s) > cutoff]

    def record(self):
        """The trial's value in each of ``COLUMNS``, in that order."""
        expiries = self.expiries()
        if not expiries:
            return (self.seconds(self.delivery), True, len(self.failed_swaps),
                    max([0.0] + [self.seconds(s) for s, _ in self.holds]))
        abort = min(expiries)
        return (abort, False,
                sum(self.seconds(t) <= abort for t in self.failed_swaps),
                self.cfg.memory_cutoff)


def first_mismatch(records, cfg):
    """First trial whose columns differ from its replay, or None."""
    rows = zip(*(getattr(records, name).tolist() for name in COLUMNS))
    for i, row in enumerate(rows):
        want = Trial(cfg, i).record()
        if row != want:
            return i, dict(zip(COLUMNS, row)), dict(zip(COLUMNS, want))
    return None


@pytest.mark.parametrize("n_nest", [0, 1, 2, 3])
@pytest.mark.parametrize("slot, swap_loss, cutoff", [
    (1.0, 0.0, math.inf), (1.0, 0.4, math.inf),
    (1.0, 0.5, 6.0), (0.37, 0.11, 2.9)])
def test_batched_records_match_scalar_replay(n_nest, slot, swap_loss, cutoff):
    # swap_loss = 1 - p_swap: 0 means every swap succeeds at once
    cfg = mcsim.ProtocolConfig(n_nest=n_nest, p0=0.3, p_swap=1.0 - swap_loss,
                               slot_time=slot, trials=300, seed=11,
                               memory_cutoff=cutoff)
    records = mcsim.run_trials(cfg)
    assert len(records) == cfg.trials
    assert first_mismatch(records, cfg) is None
    if n_nest and math.isfinite(cutoff):
        # the abort path is exercised, and so is the delivery path
        assert 0 < records.success.sum() < cfg.trials


def mc_cutoff_config(trials):
    """The campaign `qdrepeater mc --cutoff 4 --seed 1` runs."""
    link = default_parameters().link
    return mcsim.ProtocolConfig(
        n_nest=link.n_nest, p0=rates.link_success_probability(link),
        p_swap=rates.swap_success_probability(link),
        slot_time=rates.slot_time(link), trials=trials, seed=1,
        memory_cutoff=4.0)


#: criterion 9's campaigns (acceptance.check_monte_carlo)
CRITERION_9 = {
    "criterion 9, n = 0": mcsim.ProtocolConfig(
        n_nest=0, p0=0.1, p_swap=1.0, slot_time=1.0, trials=100_000,
        seed=20240801),
    "criterion 9, n = 1": mcsim.ProtocolConfig(
        n_nest=1, p0=0.01, p_swap=0.5, slot_time=1.0, trials=100_000,
        seed=20240802),
    "criterion 9, n = 3": mcsim.ProtocolConfig(
        n_nest=3, p0=0.01, p_swap=0.5832, slot_time=1.0, trials=20_000,
        seed=20240803),
    "criterion 9, rerun": mcsim.ProtocolConfig(
        n_nest=1, p0=0.05, p_swap=0.6, slot_time=1.0, trials=2_000, seed=7),
}


def test_mc_cutoff_default_configuration_matches_scalar_replay():
    # `qdrepeater mc --cutoff 4` at the default parameters: n_nest 3,
    # p0 ~ 1.25e-3 and a 0.625 ms slot, so the cutoff is 6400 slots and the
    # holds run to thousands of slots
    cfg = mc_cutoff_config(300)
    assert cfg.n_nest == 3
    assert cfg.p0 == pytest.approx(1.25e-3, rel=1e-3)
    assert cfg.slot_time == pytest.approx(6.25e-4, rel=1e-3)
    records = mcsim.run_trials(cfg)
    assert first_mismatch(records, cfg) is None
    assert 0 < records.success.sum() < cfg.trials
    longest = max(s for i in range(cfg.trials) for s, _ in Trial(cfg, i).holds)
    assert longest * cfg.slot_time > cfg.memory_cutoff


@pytest.mark.parametrize("campaign", ["criterion 9, n = 3", "mc --cutoff 4"])
def test_records_match_scalar_replay_across_production_chunks(campaign):
    # three and a half chunks of the production chunk size: the n = 3
    # campaign keeps nothing for an abort pass, the cutoff one runs it
    cfg = (mc_cutoff_config(1) if campaign == "mc --cutoff 4" else
           CRITERION_9[campaign])
    step = mcsim._trials_per_chunk(cfg)
    cfg = replace(cfg, trials=3 * step + step // 2)
    assert 3 * step < cfg.trials
    records = mcsim.run_trials(cfg)
    assert first_mismatch(records, cfg) is None
    assert records.success.all() == math.isinf(cfg.memory_cutoff)


@pytest.mark.parametrize("n_nest", [1, 2])
@pytest.mark.parametrize("cutoff", [math.inf, 1e12])
def test_huge_slot_counts_match_scalar_replay(n_nest, cutoff):
    # p0 = 1e-13: links take about 1e13 slots, so a chunk's times add up
    # past 2**53 while each trial's stay far below it, and a one-ulp
    # difference in log1p can move a draw by one slot
    cfg = mcsim.ProtocolConfig(n_nest=n_nest, p0=1e-13, p_swap=0.5,
                               slot_time=1.0, trials=1000, seed=3,
                               memory_cutoff=cutoff)
    records = mcsim.run_trials(cfg)
    assert records.total_time.max() > 1e13
    assert first_mismatch(records, cfg) is None


@pytest.mark.parametrize("n_nest", [2, 3])
def test_tied_write_times_match_scalar_replay(n_nest):
    # at p0 = 1 every link takes one slot, so both outer memories of a
    # subtree are written together and sibling subtrees often tie
    cfg = mcsim.ProtocolConfig(n_nest=n_nest, p0=1.0, p_swap=0.5,
                               slot_time=1.0, trials=300, seed=11,
                               memory_cutoff=2.0)
    records = mcsim.run_trials(cfg)
    assert first_mismatch(records, cfg) is None
    assert 0 < records.success.sum() < cfg.trials
    holds = [Trial(cfg, i).holds for i in range(cfg.trials)]
    assert any(len({w for _, w in trial}) < len(trial) for trial in holds)


def test_slot_counts_beyond_int64_stay_exact_and_positive():
    # a direct 1000 km link at the default parameters: p0 ~ 7.9e-19; at
    # n_nest 0 and a one-second slot the delivery time is the slot count
    p0 = 0.5 * (0.94 * math.exp(-20) * 0.8 * 0.9 * 0.9)**2
    cfg = mcsim.ProtocolConfig(n_nest=0, p0=p0, p_swap=0.58, slot_time=1.0,
                               trials=10_000, seed=7)
    records = mcsim.run_trials(cfg)
    assert (records.total_time > 2.0**63).any()
    assert (records.total_time >= 1.0).all()
    assert (records.total_time == np.floor(records.total_time)).all()
    mean_slots = records.total_time.mean() / cfg.slot_time
    assert abs(mean_slots * p0 - 1.0) < 5 / math.sqrt(cfg.trials)
    big = int(np.argmax(records.total_time))
    key = mix(mix(cfg.seed & MASK) ^ big)
    assert records.total_time[big] == geometric(key, p0) > 2**63


def test_cutoff_abort_is_the_earliest_expiry():
    cutoff = 20.0
    cfg = mcsim.ProtocolConfig(n_nest=2, p0=0.05, p_swap=0.5, slot_time=1.0,
                               trials=2_000, seed=3, memory_cutoff=cutoff)
    records = mcsim.run_trials(cfg)
    failed = np.flatnonzero(~records.success)
    assert failed.size > 0
    for i in failed:
        trial = Trial(cfg, int(i))
        assert records.total_time[i] <= min(trial.expiries())
        assert records.swap_failures[i] <= len(trial.failed_swaps)


def test_prefix_stable_across_a_chunk_boundary(trial_slice):
    cfg = mcsim.ProtocolConfig(n_nest=3, p0=0.3, p_swap=0.6, slot_time=1.0,
                               trials=1, seed=5, memory_cutoff=8.0)
    n = mcsim._trials_per_chunk(cfg) - 3
    short = mcsim.run_trials(replace(cfg, trials=n))
    long = mcsim.run_trials(replace(cfg, trials=n + 7))
    assert trial_slice(long, np.s_[:n]) == short
    assert trial_slice(long, np.s_[n:]) != trial_slice(short, np.s_[:7])


def test_records_do_not_depend_on_chunk_size(monkeypatch):
    cfg = mcsim.ProtocolConfig(n_nest=2, p0=0.2, p_swap=0.5, slot_time=1.0,
                               trials=500, seed=9, memory_cutoff=12.0)
    whole = mcsim.run_trials(cfg)
    monkeypatch.setattr(mcsim, "CHUNK_NODES", 64)
    assert mcsim._trials_per_chunk(cfg) < 10
    assert mcsim.run_trials(cfg) == whole


@pytest.mark.parametrize("campaign", ["criterion 9, n = 0",
                                      "criterion 9, n = 1", "n = 1, cutoff"])
def test_records_do_not_depend_on_chunk_size_where_trials_dominate(
        monkeypatch, campaign):
    """At n_nest 0 and 1 the per-trial term is much of a trial's weight
    against the budget, and a tiny budget gives chunks of a few trials.

    The records here stay below 5e4 slots at p0 >= 1.2e-3, where a one-ulp
    difference in ``log1p`` between the SIMD body and the tail of an array
    would have to land within about 1e-11 of a whole slot count to move a
    draw, so chunk boundaries cannot realistically change one.
    """
    cfg = (replace(mc_cutoff_config(3000), n_nest=1, memory_cutoff=1.0)
           if campaign == "n = 1, cutoff" else
           replace(CRITERION_9[campaign], trials=3000))
    whole = mcsim.run_trials(cfg)
    assert whole.total_time.max() / cfg.slot_time < 5e4
    if math.isfinite(cfg.memory_cutoff):
        assert 0 < whole.success.sum() < cfg.trials
    monkeypatch.setattr(mcsim, "CHUNK_NODES", 64)
    assert mcsim._trials_per_chunk(cfg) < 20
    assert mcsim.run_trials(cfg) == whole


#: SHA-256 of the TrialRecords columns' bytes, in field order, of criterion
#: 9's four campaigns and of `qdrepeater mc --cutoff 4 --trials 10000
#: --seed 1`, each column's ``tobytes()`` hashed in turn as the test does.
#: Recorded while chunks were still sized by tree nodes alone; a sampler
#: change that keeps every record keeps them, while a change of numpy build
#: or CPU dispatch may move them (see mcsim).
RECORD_DIGESTS = {
    "criterion 9, n = 0":
        "cc0468c331cef6cfe0b83e2c651275f55276cafba577d0ca0b0014ef1d2da117",
    "criterion 9, n = 1":
        "b0c6e60f3f8e2cb0cede47d489bc707bcc6347d2a338d24dfe5f0948d47ae791",
    "criterion 9, n = 3":
        "57bd2ff47bc20acc27c8e7dcfbaed9a3cbe7981dc3a9bc0359c5edb1a50efd89",
    "criterion 9, rerun":
        "f1d786b3156e93538dd11245fe6d2c291ef05d6f4cced077f88a556286254f4f",
    "mc --cutoff 4":
        "8e9e9fd9a1f243746f15fd127d649a862595c0a59fe810daaaac5f93061fba81",
}


@pytest.mark.parametrize("campaign", RECORD_DIGESTS)
def test_records_are_pinned_by_digest(campaign):
    cfg = (mc_cutoff_config(10_000) if campaign == "mc --cutoff 4" else
           CRITERION_9[campaign])
    records = mcsim.run_trials(cfg)
    digest = hashlib.sha256()
    for name in COLUMNS:
        digest.update(getattr(records, name).tobytes())
    assert digest.hexdigest() == RECORD_DIGESTS[campaign]


def test_abort_times_do_not_depend_on_chunk_size_at_huge_counts(monkeypatch):
    # each trial's times stay below 2**53 slots, but a chunk's sum does not
    cfg = mcsim.ProtocolConfig(n_nest=1, p0=1e-13, p_swap=0.5, slot_time=1.0,
                               trials=4000, seed=3, memory_cutoff=1e12)
    whole = mcsim.run_trials(cfg)
    assert whole.total_time.max() < 2.0**53
    assert whole.total_time.sum() > 2.0**53
    assert 0 < whole.success.sum() < cfg.trials
    monkeypatch.setattr(mcsim, "CHUNK_NODES", 64)
    assert mcsim._trials_per_chunk(cfg) < 20
    assert mcsim.run_trials(cfg) == whole
