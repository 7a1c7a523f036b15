"""Discrete-event Monte Carlo of the nested repeater protocol.

Time is slotted at one entanglement-generation attempt per slot
(slot = L0/c + tau_init).  All elementary links attempt in parallel; sibling
subtrees wait on each other, and a failed swap regenerates both child
subtrees starting from the failure time.

A subtree's duration does not depend on when it starts, so trials are
sampled whole arrays at a time, one nesting level at a time.  A level-0
subtree (one link) takes Geometric(p0) slots.  A level-k subtree runs
Geometric(p_swap) rounds; each round lasts max(A, B) for two fresh
level-(k-1) subtrees A and B started together, and only the last swap
succeeds.  Each count is drawn by inverse transform from one uniform: the
SplitMix64 hash of its address, (seed, trial, the (round, side) path down
the tree).  A draw therefore depends on its address alone, never on the
other trials or on how trials are split into chunks, so records are
bit-reproducible per (seed, trial), a longer campaign extends a shorter one,
and campaigns that differ only in p0 or p_swap share their random numbers
(common random numbers, monotone pathwise).  Bit-reproducible means on a
given numpy build and CPU dispatch: numpy's ``log1p`` can differ by one ulp
between dispatch targets, and that can move a draw by one slot once counts
reach about 1e13 slots.  Trials run in chunks of about ``CHUNK_NODES`` tree
nodes, which bounds the working memory; a configuration whose trial alone is
expected to grow more than ``MAX_TRIAL_NODES`` is refused.

Times are held as slot counts, whole numbers in float64: exact below 2**53,
and wide enough for the counts of a link with tiny p0 (a direct 1000 km link
draws counts beyond the int64 range).  Every sum is taken within one trial,
so records do not depend on the chunks while each trial's own times stay
below 2**53 slots.  Times are converted to seconds (times ``slot_time``)
only to compare them with the cutoff and to report them.

A finite ``memory_cutoff`` bounds how long any nuclear memory may hold a
state; a trial aborts unsuccessfully at the earliest moment a stored state
would exceed it (see TrialRecords).  Each swap round carries one hold: its
swap consumes the mid pair of memories, and a failed swap also empties the
outer pair, all at the same moment, so the round's longest hold is that of
its earliest-written memory among those.  That one hold decides both the
round's share of the storage time and, as subtraction and the conversion to
seconds are monotone, whether and when the round's memories first expire.
The end memories of a trial add one more hold, until delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

#: expected tree nodes sampled per chunk of trials
CHUNK_NODES = 1 << 14

#: most tree nodes a trial may be expected to grow.  Sampling takes about
#: 60-80 bytes of working memory per node (peak traced allocations over
#: chunks of 16k to 256k nodes, n_nest 1-8), so an expected trial stays
#: below about 80 MB, and one ten times its expected size below 1 GB.
MAX_TRIAL_NODES = 1 << 20

#: bins of the storage-time histogram
HISTOGRAM_BINS = 50

#: relative band within which a Monte Carlo mean matches a closed form
ANALYTIC_BAND = 0.15

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one simulation campaign.

    ``n_nest``, ``trials`` and ``seed`` must be integers; numpy integers are
    stored as Python ints.
    """

    n_nest: int
    p0: float
    p_swap: float
    slot_time: float
    trials: int
    seed: int
    memory_cutoff: float = math.inf

    def __post_init__(self):
        for name in ("n_nest", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, "
                                 f"not {type(value).__name__}")
            object.__setattr__(self, name, int(value))
        if not 0.0 < self.p0 <= 1.0:
            raise ValueError("p0 must lie in (0, 1]")
        if not 0.0 < self.p_swap <= 1.0:
            raise ValueError("p_swap must lie in (0, 1]")
        if not 0.0 < self.slot_time < math.inf:
            raise ValueError("slot_time must be finite and positive")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.n_nest < 0:
            raise ValueError("n_nest must be non-negative")
        if not self.memory_cutoff >= 0.0:
            raise ValueError("memory_cutoff must be non-negative")
        if _expected_nodes(self.n_nest, self.p_swap) > MAX_TRIAL_NODES:
            raise ValueError(f"n_nest {self.n_nest} at p_swap {self.p_swap:.3g} "
                             f"expects more than {MAX_TRIAL_NODES} tree nodes "
                             f"per trial")


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Columnar records of a campaign, one row per trial in trial order.

    A successful trial reports its delivery time, every swap failure, and
    the longest time any memory held a state.  A trial in which some memory
    would hold a state longer than the cutoff aborts at the earliest such
    expiry (write time + cutoff): it reports that time, ``max_storage_time``
    equal to the cutoff, and only the swap failures that ended by then.
    Both are read from one hold per swap round, that of the round's
    earliest-written memory (the mid pair, and the outer pair when the swap
    fails), and one for the end memories.

    Slicing gives the ``TrialRecords`` of a range of trials, and ``==``
    compares every column exactly.  One trial is read from the columns.
    """

    total_time: np.ndarray          # seconds
    success: np.ndarray             # bool
    swap_failures: np.ndarray       # int
    max_storage_time: np.ndarray    # seconds

    def __len__(self) -> int:
        return self.total_time.size

    def __getitem__(self, trials: slice) -> "TrialRecords":
        if not isinstance(trials, slice):
            raise TypeError("TrialRecords takes a slice; read one trial "
                            "from the columns")
        return TrialRecords(*(getattr(self, f.name)[trials]
                              for f in fields(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialRecords):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class TimingStats:
    """Aggregate waiting-time statistics over the successful trials."""

    mean: float
    variance: float
    stderr: float
    p50: float
    p90: float
    p99: float
    trials: int
    n_success: int
    seed: int


@dataclass(frozen=True)
class ComparisonReport:
    mc_mean: float
    mc_stderr: float
    analytic_time: float
    ratio: float
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"MC mean {self.mc_mean:.6e} +- {self.mc_stderr:.2e} s | "
                f"analytic {self.analytic_time:.6e} s | "
                f"ratio {self.ratio:.4f} | tol {ANALYTIC_BAND:.0%} | {verdict}")


@dataclass
class StorageHistogram:
    """Distribution of the maximum memory storage time of successful trials."""

    values: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_records(cls, records: TrialRecords) -> "StorageHistogram":
        values = records.max_storage_time[records.success]
        counts, edges = np.histogram(values, bins=HISTOGRAM_BINS)
        return cls(values=values, bin_edges=edges, counts=counts)

    def median(self) -> float:
        """Median storage time; NaN when no trial succeeded.

        np.median's value bit for bit, the mean of the middle one or two
        values, without the ``numpy.ma`` import that np.median costs.
        """
        n = self.values.size
        if not n:
            return math.nan
        lo, hi = (n - 1) // 2, n // 2
        return float(np.partition(self.values, (lo, hi))[lo:hi + 1].mean())

    def fraction_exceeding(self, threshold: float) -> float:
        """Share of values above ``threshold``; NaN when there are none."""
        if not self.values.size:
            return math.nan
        return float((self.values > threshold).mean())


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 step on a uint64 array, in place: a bijection with full
    avalanche."""
    z += _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _geometric(keys: np.ndarray, p: float) -> np.ndarray:
    """One draw on {1, 2, ...} of success probability ``p`` per key.

    Inverse transform of one uniform, the key's top 53 bits, so the draw at
    a given address can only shrink as ``p`` grows.
    """
    # ceil(log1p(-uniform) / log1p(-p)), at least 1
    u = np.multiply(keys >> np.uint64(11), -(2.0**-53))
    np.log1p(u, out=u)
    u /= -math.inf if p >= 1.0 else math.log1p(-p)
    np.ceil(u, out=u)
    return np.maximum(u, 1.0, out=u)


def _expected_nodes(n_nest: int, p_swap: float) -> float:
    """Expected tree nodes of one trial: the sum over k of (2/p_swap)**k.

    The sum stops once it passes MAX_TRIAL_NODES, which ProtocolConfig
    refuses; as each term at least doubles the last, that takes few terms
    however large ``n_nest`` is.
    """
    branching = 2.0 / p_swap    # subtrees started per parent
    nodes = 0.0
    for k in range(n_nest + 1):
        nodes += branching**k
        if nodes > MAX_TRIAL_NODES:
            break
    return nodes


def _trials_per_chunk(cfg: ProtocolConfig) -> int:
    """Trials whose trees hold about CHUNK_NODES nodes on average."""
    return max(1, int(CHUNK_NODES // _expected_nodes(cfg.n_nest, cfg.p_swap)))


def _sample_chunk(cfg: ProtocolConfig, first: int, count: int):
    """TrialRecords columns of trials ``first`` .. ``first + count - 1``."""
    slot, cutoff = cfg.slot_time, cfg.memory_cutoff
    # top-down: draw each level's round counts and address its subtrees.
    # The two subtrees of the j-th of a level's r rounds sit side-major in
    # the level below, at j (side 0) and r + j (side 1); their addresses are
    # 2i + 1 and 2i + 2, where i numbers the round among its parent's.
    # Every round but a subtree's last ends in a failed swap, so a trial's
    # swap failures are its rounds less its subtrees, summed per level.
    root = _mix(np.array([cfg.seed & _MASK], dtype=np.uint64))
    keys = _mix(root ^ np.arange(first, first + count, dtype=np.uint64))
    trial = np.arange(count)
    failures = np.zeros(count)
    levels = []
    for _ in range(cfg.n_nest):
        rounds = _geometric(keys, cfg.p_swap)
        failures += np.bincount(trial, weights=rounds - 1.0, minlength=count)
        rounds = rounds.astype(np.int64)
        owner = np.repeat(np.arange(rounds.size), rounds)
        last = np.cumsum(rounds) - 1
        head = last - rounds + 1
        trial_of = trial[owner]
        levels.append((owner, head, last, trial_of))
        r = owner.size
        address = np.arange(1, 2 * r, 2, dtype=np.uint64)
        address -= (2 * head).astype(np.uint64)[owner]
        parent = keys[owner]
        keys = np.empty(2 * r, dtype=np.uint64)
        np.bitwise_xor(parent, address, out=keys[:r])
        address += np.uint64(1)
        np.bitwise_xor(parent, address, out=keys[r:])
        _mix(keys)
        trial = np.concatenate((trial_of, trial_of))

    # bottom-up: each subtree's duration and the write offsets of its outer
    # memories, relative to its own start, and each trial's longest hold.
    # A round holds the mid pair until its swap, and the outer pair too when
    # the swap fails; its longest hold is the one written first.  A link
    # writes both its memories as it completes, so on the bottom level the
    # outer pair is never written before the mid pair.  A subtree's duration
    # is the sum of its rounds', added in round order by one bincount over
    # the rounds' owners.
    dur = left = right = _geometric(keys, cfg.p0)
    longest = np.zeros(count)
    rounds_up = []
    for depth, (owner, head, last, trial_of) in enumerate(reversed(levels)):
        r = owner.size
        d = np.maximum(dur[:r], dur[r:])
        first_write = np.minimum(right[:r], left[r:])
        if depth:       # above the links
            outer = np.minimum(left[:r], right[r:])
            outer[last] = first_write[last]
            np.minimum(first_write, outer, out=first_write)
        hold = d - first_write
        np.maximum.at(longest, trial_of, hold)
        dur = np.bincount(owner, weights=d, minlength=head.size)
        before_last = dur - d[last]
        rounds_up.append((d, first_write, hold, before_last))
        left = before_last + left[:r][last]
        right = before_last + right[r:][last]
    # the end memories hold until delivery (nothing is stored at n_nest 0)
    first_write = np.minimum(left, right)
    hold = dur - first_write
    max_storage = np.maximum(longest, hold) * slot
    success = ~(max_storage > cutoff)

    abort = np.full(count, math.inf)
    if not success.all():
        # abort time: the earliest expiry (write + cutoff) of any hold
        # exceeding the cutoff, from absolute write times found top-down;
        # the swap failures that end after it do not count
        over = hold * slot > cutoff
        abort[over] = first_write[over] * slot + cutoff
        start = np.zeros(count)
        ends = []     # seconds at which each round's swap happened, top-down
        for level, up in zip(levels, reversed(rounds_up)):
            owner, head, _, trial_of = level
            d, first_write, hold, before_last = up
            # a round's offset in its subtree: the running sum of the rounds
            # before it, which restarts at zero at each head, where it adds
            # minus the previous subtree's time before its last round.  The
            # sum thus holds one subtree's offsets at a time and is exact
            # while each trial's own times stay below 2**53 slots.
            offset = np.empty(owner.size)
            offset[0] = 0.0
            offset[1:] = d[:-1]
            offset[head[1:]] = -before_last[:-1]
            round_start = start[owner]
            round_start += np.cumsum(offset, out=offset)
            over = hold * slot > cutoff
            np.minimum.at(abort, trial_of[over],
                          (round_start[over] + first_write[over]) * slot
                          + cutoff)
            ends.append((round_start + d) * slot)
            start = np.concatenate((round_start, round_start))
        for (_, _, last, trial_of), end in zip(levels, ends):
            late = end > abort[trial_of]
            late[last] = False
            failures -= np.bincount(trial_of[late], minlength=count)
    return (np.where(success, dur * slot, abort), success,
            failures.astype(np.int64), np.where(success, max_storage, cutoff))


def run_trials(cfg: ProtocolConfig) -> TrialRecords:
    """All trial records, in trial order (deterministic for a given cfg).

    Raises ValueError when a time is not finite: slot counts at a tiny
    ``p0``, or counts times a huge ``slot_time``, can overflow float64.
    """
    n = cfg.trials
    columns = (np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=np.int64),
               np.empty(n))
    step = _trials_per_chunk(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            chunk = _sample_chunk(cfg, lo, min(step, n - lo))
            for column, part in zip(columns, chunk):
                column[lo:lo + len(part)] = part
    if not (np.isfinite(columns[0]).all() and np.isfinite(columns[3]).all()):
        raise ValueError(f"trial times overflow float64 at p0 {cfg.p0:.3g}, "
                         f"slot_time {cfg.slot_time:.3g} s")
    return TrialRecords(*columns)


def _quantiles(values: np.ndarray, q) -> list[float]:
    """Quantiles ``q`` (in [0, 1]) of a non-empty array without NaN.

    np.percentile's value bit for bit (its default linear method, at
    percentile 100*q): the order statistics either side of the virtual index
    (n - 1)*q, joined by numpy's two-sided interpolation.  np.percentile
    loads ``numpy.ma`` (through np.unique) for a step this does not need.
    """
    n = values.size
    at = [(n - 1) * p for p in q]
    lo = [math.floor(v) for v in at]
    hi = [min(i + 1, n - 1) for i in lo]
    part = np.partition(values, lo + hi)
    out = []
    for v, i, j in zip(at, lo, hi):
        a, b, t = part[i], part[j], v - i
        d = b - a
        out.append(float(b - d * (1 - t) if t >= 0.5 else a + d * t))
    return out


def timing_stats(records: TrialRecords, cfg: ProtocolConfig) -> TimingStats:
    """Aggregate statistics over the successful trials of a campaign."""
    times = records.total_time[records.success]
    n_success = times.size
    if n_success == 0:
        nan = math.nan
        return TimingStats(nan, nan, nan, nan, nan, nan,
                           trials=cfg.trials, n_success=0, seed=cfg.seed)
    mean = float(times.mean())
    with np.errstate(over="ignore"):  # times near 1e300 s: variance inf
        var = float(times.var(ddof=1)) if n_success > 1 else 0.0
    p50, p90, p99 = _quantiles(times, (0.5, 0.9, 0.99))
    return TimingStats(mean=mean, variance=var,
                       stderr=math.sqrt(var / n_success),
                       p50=p50, p90=p90, p99=p99,
                       trials=cfg.trials, n_success=n_success, seed=cfg.seed)


def simulate_chain(cfg: ProtocolConfig) -> TimingStats:
    """Run the campaign and aggregate waiting-time statistics."""
    return timing_stats(run_trials(cfg), cfg)


def compare_with_analytic(stats: TimingStats,
                          target: float) -> ComparisonReport:
    """Monte Carlo mean against a closed-form mean time, with a pass band.

    Passes when |ratio - 1| <= ANALYTIC_BAND or the gap is within three
    standard errors (whichever is looser), so tight statistics are not
    penalized.
    """
    ratio = stats.mean / target
    within_band = abs(ratio - 1.0) <= ANALYTIC_BAND
    within_noise = abs(stats.mean - target) <= 3.0 * stats.stderr
    return ComparisonReport(mc_mean=stats.mean, mc_stderr=stats.stderr,
                            analytic_time=target, ratio=ratio,
                            passed=within_band or within_noise)


def storage_time_histogram(cfg: ProtocolConfig) -> StorageHistogram:
    """Storage-time distribution of the campaign's successful trials."""
    return StorageHistogram.from_records(run_trials(cfg))
