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
reach about 1e13 slots.  Trials run in chunks whose expected tree nodes,
plus ``TRIAL_NODES`` per trial, come to about ``CHUNK_NODES``, so that a
chunk's working set (some 30 bytes per node and 30-120 per trial, about
1 MB) stays in a 2 MiB per-core L2 cache; a configuration whose trial alone
is expected to grow more than ``MAX_TRIAL_NODES`` is refused.  A chunk's
arrays are freed level by level as soon as they are dead, the per-round
arrays that only the abort pass reads are kept only under a finite cutoff,
and records go straight into the output columns, so the next chunk mostly
reuses heap the allocator still holds instead of faulting in pages that
were handed back to the OS.

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
from dataclasses import fields
from numbers import Integral

import numpy as np

from .params import record

#: budget of a chunk of trials, in tree nodes.  Sampling takes about 25-45
#: bytes of working memory per node and 30-120 more per trial, its output
#: columns included (peak traced allocations over chunks of this budget,
#: n_nest 0-8, with and without a cutoff), so a chunk of one budget peaks
#: at 0.5-1.1 MiB.
CHUNK_NODES = 1 << 15

#: nodes each trial of a chunk counts against CHUNK_NODES for its own arrays
#: (the output columns, its swap failures, longest hold, end memories and
#: abort time), about three nodes' worth of bytes
TRIAL_NODES = 3

#: most tree nodes a trial may be expected to grow: at 25-45 bytes per node
#: an expected trial stays below about 45 MB, and one ten times its
#: expected size below 0.5 GB.
MAX_TRIAL_NODES = 1 << 20

#: bins of the storage-time histogram
HISTOGRAM_BINS = 50

#: relative band within which a Monte Carlo mean matches a closed form
ANALYTIC_BAND = 0.15

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@record
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


@record(eq=False)
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


@record
class TimingStats:
    """Aggregate waiting-time statistics over the successful trials."""

    mean: float
    stderr: float


@record
class ComparisonReport:
    """Monte Carlo mean against a closed-form time: ratio and pass/fail."""

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


@record(eq=False, frozen=False)
class StorageHistogram:
    """Longest storage times of successful trials, binned (the benchmark's)."""

    values: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_records(cls, records: TrialRecords) -> "StorageHistogram":
        values = records.max_storage_time[records.success]
        counts, _ = np.histogram(values, bins=HISTOGRAM_BINS)
        return cls(values=values, counts=counts)


def median(values: np.ndarray) -> float:
    """Median of ``values``; NaN when there are none.

    np.median's value bit for bit, the mean of the middle one or two values,
    without the ``numpy.ma`` import that np.median costs.
    """
    n = values.size
    if not n:
        return math.nan
    lo, hi = (n - 1) // 2, n // 2
    return float(np.partition(values, (lo, hi))[lo:hi + 1].mean())


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 step on a uint64 array, in place: a bijection with full
    avalanche."""
    z += _GOLDEN
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _geometric(keys: np.ndarray, p: float) -> np.ndarray:
    """One draw on {1, 2, ...} of success probability ``p`` per key.

    Inverse transform of one uniform, the key's top 53 bits, so the draw at
    a given address can only shrink as ``p`` grows.
    """
    # ceil(log1p(-uniform) / log1p(-p)), at least 1
    u = np.empty(keys.shape)
    np.right_shift(keys, np.uint64(11), out=u, casting="unsafe")
    u *= -(2.0**-53)
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
    """Trials whose trees and per-trial arrays weigh about CHUNK_NODES nodes
    on average, and at least one."""
    weight = _expected_nodes(cfg.n_nest, cfg.p_swap) + TRIAL_NODES
    return max(1, int(CHUNK_NODES // weight))


def _children(keys: np.ndarray, owner: np.ndarray,
              head: np.ndarray) -> np.ndarray:
    """Keys of the two subtrees of each round, side-major: those of the j-th
    of r rounds sit at j (side 0) and r + j (side 1), at addresses 2i + 1
    and 2i + 2 under the key of the subtree that owns the round, where i
    numbers the round among that subtree's; ``head``, each subtree's first
    round, is doubled in place."""
    r = owner.size
    children = np.empty(2 * r, dtype=np.uint64)
    side0, side1 = children[:r], children[r:]
    # side 1 first serves as scratch for twice each round's head, 2(j - i);
    # mode "clip" writes to ``out`` unbuffered (the indices are in range)
    head <<= 1
    np.take(head, owner, out=side1.view(np.int64), mode="clip")
    address = np.arange(2, 2 * r + 1, 2, dtype=np.uint64)
    address -= side1
    np.take(keys, owner, out=side0, mode="clip")
    np.bitwise_xor(side0, address, out=side1)
    address -= np.uint64(1)
    side0 ^= address
    del address
    return _mix(children)


def _descend(cfg: ProtocolConfig, root: np.ndarray, first: int, count: int):
    """Top-down: each level's round counts, and the links' slot counts.

    Returns the swap failures per trial, the levels top first, each as
    (owner, last, trial_of) -- the subtree each round belongs to, each
    subtree's last round and each round's trial -- and the links' slot
    counts, side-major under the bottom level's rounds.  Every round but a
    subtree's last ends in a failed swap, so a trial's swap failures are its
    rounds less its subtrees, summed per level.
    """
    keys = _mix(root ^ np.arange(first, first + count, dtype=np.uint64))
    failures = np.zeros(count)
    levels = []
    for depth in range(cfg.n_nest):
        # the trial of each subtree on this level
        trial = (np.concatenate((trial_of, trial_of)) if depth
                 else np.arange(count))
        rounds = _geometric(keys, cfg.p_swap)
        failures += np.bincount(trial, weights=rounds - 1.0, minlength=count)
        rounds = rounds.astype(np.int64)
        owner = np.repeat(np.arange(rounds.size), rounds)
        last = np.cumsum(rounds)
        head = last - rounds
        last -= 1
        del rounds
        trial_of = trial[owner]
        del trial
        levels.append((owner, last, trial_of))
        keys = _children(keys, owner, head)
        del head
    return failures, levels, _geometric(keys, cfg.p0)


def _ascend(cfg: ProtocolConfig, root: np.ndarray, first: int, count: int):
    """Bottom-up over the tree ``_descend`` draws: each subtree's duration
    and the write offsets of its outer memories, relative to its own start,
    and each trial's longest hold.

    A round holds the mid pair until its swap, and the outer pair too when
    the swap fails; its longest hold is the one written first.  A link
    writes both its memories as it completes, so on the bottom level the
    outer pair is never written before the mid pair.  A subtree's duration
    is the sum of its rounds', added in round order by one bincount over the
    rounds' owners.  Each level is dropped once summed, unless the cutoff is
    finite: then the abort pass gets, per level top first, (owner, last,
    trial_of, d, before_last, over, over_write) -- each round's duration,
    each subtree's time before its last round, and the rounds whose hold
    exceeds the cutoff with their first writes.  Returns the swap failures,
    the trials' durations, the first write of their end memories, the
    longest hold per trial and that list.
    """
    slot, cutoff = cfg.slot_time, cfg.memory_cutoff
    failures, levels, dur = _descend(cfg, root, first, count)
    left = right = dur
    longest = np.zeros(count)
    kept = []
    for depth in range(len(levels)):
        owner, last, trial_of = levels.pop()
        r = owner.size
        d = np.maximum(dur[:r], dur[r:])
        first_write = np.minimum(right[:r], left[r:])
        if depth:       # above the links
            outer = np.minimum(left[:r], right[r:])
            outer[last] = first_write[last]
            np.minimum(first_write, outer, out=first_write)
            del outer
        left_last, right_last = left[:r][last], right[r:][last]
        del dur, left, right
        hold = d - first_write
        np.maximum.at(longest, trial_of, hold)
        dur = np.bincount(owner, weights=d, minlength=last.size)
        before_last = dur - d[last]
        left = before_last + left_last
        right = before_last + right_last
        del left_last, right_last
        if cutoff < math.inf:
            over = np.flatnonzero(hold * slot > cutoff)
            kept.append((owner, last, trial_of, d, before_last, over,
                         first_write[over]))
        del owner, last, trial_of, d, first_write, hold, before_last
    kept.reverse()
    return failures, dur, np.minimum(left, right), longest, kept


def _abort_pass(kept: list, abort: np.ndarray, failures: np.ndarray,
                slot: float, cutoff: float) -> None:
    """Lower ``abort`` to the earliest expiry (write + cutoff) of any round's
    hold exceeding the cutoff, from absolute write times found top-down, and
    take off ``failures`` the swap failures that end after it."""
    round_start = np.zeros(abort.size)
    for owner, last, trial_of, d, before_last, over, over_write in kept:
        # each subtree starts with its round on the level above, and the
        # trials at zero
        start = np.concatenate((round_start, round_start))
        # a round's offset in its subtree: the running sum of the rounds
        # before it, which restarts at zero at each head, where it adds
        # minus the previous subtree's time before its last round.  The
        # sum thus holds one subtree's offsets at a time and is exact
        # while each trial's own times stay below 2**53 slots.
        offset = np.empty(owner.size)
        offset[0] = 0.0
        offset[1:] = d[:-1]
        offset[last[:-1] + 1] = -before_last[:-1]     # each head but the first
        round_start = start[owner]
        round_start += np.cumsum(offset, out=offset)
        del offset
        np.minimum.at(abort, trial_of[over],
                      (round_start[over] + over_write) * slot + cutoff)
        # d becomes the second at which the round's swap happened
        d += round_start
        d *= slot
    for _, last, trial_of, end, *_ in kept:
        late = end > abort[trial_of]
        late[last] = False
        failures -= np.bincount(trial_of[late], minlength=abort.size)


def _sample_chunk(cfg: ProtocolConfig, root: np.ndarray, first: int,
                  out: list) -> None:
    """Write into the TrialRecords column views ``out`` the records of trials
    ``first`` onwards, under the campaign's mixed seed ``root``.

    Each helper's temporaries die as it returns, and each level's arrays as
    soon as they are read, but for what the abort pass reads under a finite
    cutoff; without one, no trial aborts.
    """
    slot, cutoff = cfg.slot_time, cfg.memory_cutoff
    total, success, swap_failures, max_storage = out
    failures, dur, first_write, longest, kept = _ascend(cfg, root, first,
                                                        total.size)
    np.multiply(dur, slot, out=total)
    # the end memories hold until delivery (nothing is stored at n_nest 0)
    hold = np.subtract(dur, first_write, out=dur)
    np.maximum(longest, hold, out=longest)
    np.multiply(longest, slot, out=max_storage)
    np.logical_not(np.greater(max_storage, cutoff, out=success), out=success)
    if not success.all():
        abort = np.full(total.size, math.inf)
        over = hold * slot > cutoff
        abort[over] = first_write[over] * slot + cutoff
        _abort_pass(kept, abort, failures, slot, cutoff)
        failed = ~success
        total[failed] = abort[failed]
        max_storage[failed] = cutoff
    swap_failures[:] = failures


def run_trials(cfg: ProtocolConfig) -> TrialRecords:
    """All trial records, in trial order (deterministic for a given cfg).

    Raises ValueError when a time is not finite: slot counts at a tiny
    ``p0``, or counts times a huge ``slot_time``, can overflow float64.
    """
    n = cfg.trials
    columns = (np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=np.int64),
               np.empty(n))
    step = _trials_per_chunk(cfg)
    root = _mix(np.array([cfg.seed & _MASK], dtype=np.uint64))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            _sample_chunk(cfg, root, lo,
                          [column[lo:lo + step] for column in columns])
    if not (np.isfinite(columns[0]).all() and np.isfinite(columns[3]).all()):
        raise ValueError(f"trial times overflow float64 at p0 {cfg.p0:.3g}, "
                         f"slot_time {cfg.slot_time:.3g} s")
    return TrialRecords(*columns)


def timing_stats(records: TrialRecords, cfg: ProtocolConfig) -> TimingStats:
    """Aggregate statistics over the successful trials of a campaign.

    The stderr is NaN unless at least two trials succeeded.  ``cfg`` is not
    used; it stays in the signature because the benchmark passes it.
    """
    times = records.total_time[records.success]
    if times.size < 2:
        mean = float(times[0]) if times.size else math.nan
        return TimingStats(mean, math.nan)
    with np.errstate(over="ignore"):  # times near 1e300 s: variance inf
        var = float(times.var(ddof=1))
    return TimingStats(mean=float(times.mean()),
                       stderr=math.sqrt(var / times.size))


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
