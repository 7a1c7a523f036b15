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
plus ``TRIAL_NODES`` per trial, come to about ``CHUNK_NODES``; a
configuration whose trial alone is expected to grow more than
``MAX_TRIAL_NODES`` is refused.  A chunk pays a fixed cost in numpy calls
whatever its size, 0.15-0.3 ms in ``mc --cutoff 4`` and at n_nest 3, so
fewer and larger chunks save time until their working set (10-40 bytes per
node) outgrows the 2 MiB per-core L2 cache (``lscpu`` prints 4 MiB for a
2-core machine, the sum over both cores).

A campaign's chunks share one workspace, two buffers of words grown to the
largest chunk's need, whose pages they reuse instead of faulting fresh ones
in.  Each level writes its keys, round draws and per-round arrays into
them, alternating between the two; only what outlives a level is allocated
per chunk: each level's round owners, subtree bounds and trials, and under
a finite cutoff the abort pass's steps.  Records go straight into the
output columns.

Times are held as slot counts, whole numbers in float64: exact below 2**53,
and wide enough for the counts of a link with tiny p0 (a direct 1000 km link
draws counts beyond the int64 range).  Every sum is taken within one trial,
so records do not depend on the chunks while each trial's own times stay
below 2**53 slots.  The cutoff is compared in whole slots, as the largest
count K with K * ``slot_time`` <= cutoff, which decides every count, past
2**53 too, exactly as its product with ``slot_time`` would; times are
converted to seconds only to place an abort and to report them.

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
import struct
from dataclasses import fields
from numbers import Integral

import numpy as np

from .params import record

#: budget of a chunk of trials, in tree nodes.  Sampling takes 10-40 bytes
#: of working memory per node, the campaign's workspace included (peak
#: traced allocations of one chunk, n_nest 0-8, with and without a cutoff),
#: so a chunk peaks at 0.6-2.5 MiB.  In fresh interpreters on a 2-core VM,
#: 2**16 ran ``mc --cutoff 4`` and criterion 9's campaigns faster than 2**15,
#: 3 * 2**15 or 2**17; the larger two also raised peak RSS by 1-6%.
CHUNK_NODES = 1 << 16

#: nodes each trial of a chunk counts against CHUNK_NODES for its own arrays
#: (the output columns, its swap failures, longest hold, end memories and
#: abort time), about three nodes' worth of bytes
TRIAL_NODES = 3

#: most tree nodes a trial may be expected to grow: at 10-40 bytes per node
#: an expected trial stays below about 42 MB, and one ten times its
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
_INF_BITS = 0x7FF0000000000000      # bit pattern of float64 inf


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

    ``==`` compares every column exactly.  One trial is read from the
    columns.
    """

    total_time: np.ndarray          # seconds
    success: np.ndarray             # bool
    swap_failures: np.ndarray       # int
    max_storage_time: np.ndarray    # seconds

    def __len__(self) -> int:
        return self.total_time.size

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


class _Workspace:
    """Two buffers of words that one campaign's chunks write their per-node
    arrays into.

    A buffer grows to the most any chunk has needed of it and never shrinks.
    Words are only taken through ``other``, as a buffer that an array still
    to be read does not lie in, so each caller names what it must not
    overwrite and keeps all its other live arrays outside the buffers.
    """

    def __init__(self):
        self._words = [np.empty(0, dtype=np.uint64)] * 2

    def other(self, live: np.ndarray, n: int) -> np.ndarray:
        """The first ``n`` words of a buffer that ``live`` does not lie in:
        the second if it lies in the first, else the first.  A buffer that
        grows drops its words; views of them stay valid."""
        i = int(np.may_share_memory(live, self._words[0]))
        if self._words[i].size < n:
            self._words[i] = None     # let the old go before the new is made
            self._words[i] = np.empty(n, dtype=np.uint64)
        return self._words[i][:n]


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 step on a uint64 array, in place: a bijection with full
    avalanche.  ``scratch``, as many words, is overwritten."""
    z += _GOLDEN
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _root(seed: int) -> np.ndarray:
    """A campaign's mixed seed, the key its trials' keys derive from."""
    root = np.array([seed & _MASK], dtype=np.uint64)
    return _mix(root, np.empty_like(root))


def _geometric(keys: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """One draw on {1, 2, ...} of success probability ``p`` per key, into
    the float64 array ``out``.

    Inverse transform of one uniform, the key's top 53 bits, so the draw at
    a given address can only shrink as ``p`` grows.
    """
    # ceil(log1p(-uniform) / log1p(-p)), at least 1
    np.right_shift(keys, np.uint64(11), out=out, casting="unsafe")
    out *= -(2.0**-53)
    np.log1p(out, out=out)
    out /= -math.inf if p >= 1.0 else math.log1p(-p)
    np.ceil(out, out=out)
    return np.maximum(out, 1.0, out=out)


def _cutoff_slots(cutoff: float, slot: float) -> float:
    """The cutoff as whole slots: the largest whole K with K * slot <= cutoff
    in float64, or inf for an infinite cutoff.

    x -> fl(x * slot) never falls as x grows, and non-negative floats are
    ordered as their bit patterns, so bisecting those finds the largest
    float x with fl(x * slot) <= cutoff in at most 63 steps, whatever the
    quotient; K is its floor.  For every whole hold, as slot counts are at
    any size, hold > K then holds exactly when hold * slot > cutoff.
    """
    if cutoff == math.inf:
        return math.inf
    lo, hi = 0, _INF_BITS    # fl(lo * slot) <= cutoff < fl(hi * slot)
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if _float_of_bits(mid) * slot <= cutoff:
            lo = mid
        else:
            hi = mid
    return float(math.floor(_float_of_bits(lo)))


def _float_of_bits(bits: int) -> float:
    """The float64 whose bit pattern is ``bits``."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


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


def _children(keys: np.ndarray, owner: np.ndarray, head: np.ndarray,
              children: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Keys of the two subtrees of each round, side-major, in ``children``:
    those of the j-th of r rounds sit at j (side 0) and r + j (side 1), at
    addresses 2i + 1 and 2i + 2 under the key of the subtree that owns the
    round, where i numbers the round among that subtree's; ``head`` holds
    each subtree's first round.  ``spare``, 2r words, may share memory with
    ``keys``: it is written only once they are read."""
    r = owner.size
    side0, side1 = children[:r], children[r:]
    # mode "clip" writes to ``out`` unbuffered (the indices are in range)
    np.take(head, owner, out=side1.view(np.int64), mode="clip")
    np.take(keys, owner, out=side0, mode="clip")
    address = np.arange(1, r + 1, dtype=np.uint64)
    address -= side1
    address <<= np.uint64(1)
    np.bitwise_xor(side0, address, out=side1)
    address -= np.uint64(1)
    side0 ^= address
    del address
    return _mix(children, spare)


def _descend(cfg: ProtocolConfig, root: np.ndarray, first: int, count: int,
             ws: _Workspace):
    """Top-down: each level's round counts, and the links' slot counts.

    Returns the swap failures per trial, the levels top first, each as
    (owner, last, trial_of) -- the subtree each round belongs to, each
    subtree's last round and each round's trial -- and the links' slot
    counts, side-major under the bottom level's rounds.  Every round but a
    subtree's last ends in a failed swap, so each subtree adds its rounds
    less one to its trial's failures: at the top one subtree per trial, and
    below the two subtrees of each round on the level above, added to that
    round's trial by one bincount per level.

    Each level's keys lie in one buffer of ``ws``.  The other takes their
    round counts, then their children's keys, and theirs is then the
    children's scratch.  The links' slot counts go to the buffer that their
    keys are not in.
    """
    keys = np.bitwise_xor(root, np.arange(first, first + count, dtype=np.uint64),
                          out=ws.other(root, count))
    _mix(keys, ws.other(keys, count))
    failures = np.zeros(count)
    levels = []
    for depth in range(cfg.n_nest):
        s = keys.size
        dead = ws.other(keys, 2 * s)
        rounds = _geometric(keys, cfg.p_swap, dead[:s].view(np.float64))
        counts = dead[s:].view(np.int64)
        np.copyto(counts, rounds, casting="unsafe")
        owner = np.repeat(np.arange(s), counts)
        # bounds[k] is subtree k's first round, bounds[k + 1] - 1 its last
        bounds = np.empty(s + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(counts, out=bounds[1:])
        # below the top, subtrees k and s/2 + k are those of round k above;
        # each pair's failures go over the counts, read by now
        if depth:
            pair = np.add(rounds[:s // 2], rounds[s // 2:],
                          out=counts[:s // 2].view(np.float64))
            pair -= 2.0
            failures += np.bincount(trial_of, weights=pair, minlength=count)
            del pair
        else:
            np.subtract(rounds, 1.0, out=failures)
        del dead, rounds, counts
        trial_of = np.take(trial_of, owner, mode="wrap") if depth else owner
        r = owner.size
        children = ws.other(keys, 2 * r)
        keys = _children(keys, owner, bounds[:-1], children,
                         ws.other(children, 2 * r))
        last = bounds[1:]
        last -= 1
        levels.append((owner, last, trial_of))
    links = ws.other(keys, keys.size).view(np.float64)
    return failures, levels, _geometric(keys, cfg.p0, links)


def _ascend(cfg: ProtocolConfig, root: np.ndarray, limit: float, first: int,
            count: int, ws: _Workspace):
    """Bottom-up over the tree ``_descend`` draws: each subtree's duration
    and the write offsets of its outer memories, relative to its own start,
    and each trial's longest hold.

    A round holds the mid pair until its swap, and the outer pair too when
    the swap fails; its longest hold is the one written first.  A link
    writes both its memories as it completes, so on the bottom level the
    outer pair is never written before the mid pair.  A subtree's duration
    is the sum of its rounds', added in round order by one bincount over the
    rounds' owners.  Each level is dropped once summed, unless the cutoff is
    finite: then the abort pass gets, per level top first, (owner, trial_of,
    steps, over, over_write) -- the steps whose running sum is each round's
    offset in its subtree, and the rounds whose hold exceeds ``limit`` slots
    with their first writes.  Returns the swap failures, the trials'
    durations, the first write of their end memories, the longest hold per
    trial and that list.

    A level's first writes, and its outer memories' offsets for the level
    above, go to the buffer of ``ws`` that its inputs' offsets are not in.
    Its round durations (under a cutoff, the steps instead), then its holds
    and then its rewinds overwrite its inputs' durations once read.
    """
    failures, levels, dur = _descend(cfg, root, first, count, ws)
    left = right = dur
    longest = np.zeros(count)
    kept = []
    cut = limit < math.inf
    for depth in range(len(levels)):
        owner, last, trial_of = levels.pop()
        r, s = owner.size, last.size
        words = ws.other(left, r + 2 * s).view(np.float64)
        first_write, left_last, right_last = (words[:r], words[r:r + s],
                                              words[r + s:])
        np.minimum(right[:r], left[r:], out=first_write)
        if depth:       # above the links, a failed swap empties the outer pair
            np.take(first_write, last, out=left_last, mode="clip")
            np.minimum(first_write, left[:r], out=first_write)
            np.minimum(first_write, right[r:], out=first_write)
            first_write[last] = left_last
        np.take(left[:r], last, out=left_last, mode="clip")
        np.take(right[r:], last, out=right_last, mode="clip")
        # at the links, left and right are dur, read by now.  Under a
        # cutoff the durations go one word into the abort pass's steps
        if cut:
            steps = np.empty(r + 1)
            steps[0] = 0.0
        d = np.maximum(dur[:r], dur[r:], out=steps[1:] if cut else dur[:r])
        hold = np.subtract(d, first_write, out=dur[r:])
        np.maximum.at(longest, trial_of, hold)
        if cut:
            over = np.flatnonzero(hold > limit)
            over_write = first_write[over]
        # the holds are read by now; rewind is minus each subtree's time
        # before its last round
        rewind = np.take(d, last, out=dur[r:r + s], mode="clip")
        dur = np.bincount(owner, weights=d, minlength=s)
        np.subtract(rewind, dur, out=rewind)
        left = np.subtract(left_last, rewind, out=left_last)
        right = np.subtract(right_last, rewind, out=right_last)
        if cut:
            # a round's offset in its subtree is the running sum of the
            # steps up to it: the durations of the rounds before it, and at
            # each head the previous subtree's rewind, back to zero
            d[last] = rewind
            kept.append((owner, trial_of, steps[:-1], over, over_write))
        del owner, last, trial_of, d, hold, rewind
    kept.reverse()
    return failures, dur, np.minimum(left, right), longest, kept


def _abort_pass(kept: list, abort: np.ndarray, failures: np.ndarray,
                slot: float, cutoff: float, ws: _Workspace) -> None:
    """Lower ``abort`` to the earliest expiry (write + cutoff) of any round's
    hold exceeding the cutoff, and take off ``failures`` the swap failures
    that end after it.  Top-down, each level's steps become in place its
    rounds' absolute starts.

    A failed swap ends as the next round of its subtree starts, so the late
    failures are the rounds that start after the abort less the heads among
    them.  A head starts with its round on the level above, two heads per
    round there, and no trial starts after its abort, so a trial's late
    failures are its late starts on the bottom level less those on every
    level above.
    """
    above = np.zeros(abort.size)     # the trials start at 0
    for owner, trial_of, start, over, over_write in kept:
        # the running sum holds one subtree's offsets at a time, so it is
        # exact while each trial's own times stay below 2**53 slots.  Each
        # subtree starts with its round on the level above (side-major, so
        # subtree k's round is k modulo their count)
        np.cumsum(start, out=start)
        start += np.take(above, owner, mode="wrap",
                         out=ws.other(above, owner.size).view(np.float64))
        np.minimum.at(abort, trial_of[over],
                      (start[over] + over_write) * slot + cutoff)
        above = start
    late = []
    for _, trial_of, start, *_ in kept:
        start *= slot
        after = start > np.take(abort, trial_of, mode="clip",
                                out=ws.other(start, start.size).view(np.float64))
        late.append(np.bincount(np.compress(after, trial_of),
                                minlength=abort.size))
    failures -= late.pop()
    for count in late:
        failures += count


def _sample_chunk(cfg: ProtocolConfig, root: np.ndarray, limit: float,
                  first: int, out: list, ws: _Workspace) -> None:
    """Write into the TrialRecords column views ``out`` the records of trials
    ``first`` onwards, under the campaign's mixed seed ``root``, with its
    cutoff as ``limit`` whole slots, in its workspace ``ws``.

    Each level's keys, draws and per-round times live in ``ws``; those the
    abort pass reads are written outside it only under a finite cutoff,
    since without one no trial aborts.
    """
    slot, cutoff = cfg.slot_time, cfg.memory_cutoff
    total, success, swap_failures, max_storage = out
    failures, dur, first_write, longest, kept = _ascend(
        cfg, root, limit, first, total.size, ws)
    np.multiply(dur, slot, out=total)
    # the end memories hold until delivery (nothing is stored at n_nest 0)
    hold = np.subtract(dur, first_write, out=dur)
    np.maximum(longest, hold, out=longest)
    np.multiply(longest, slot, out=max_storage)
    np.logical_not(np.greater(longest, limit, out=success), out=success)
    if not success.all():
        abort = np.full(total.size, math.inf)
        over = hold > limit
        abort[over] = first_write[over] * slot + cutoff
        _abort_pass(kept, abort, failures, slot, cutoff, ws)
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
    root = _root(cfg.seed)
    limit = _cutoff_slots(cfg.memory_cutoff, cfg.slot_time)
    ws = _Workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            _sample_chunk(cfg, root, limit, lo,
                          [column[lo:lo + step] for column in columns], ws)
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
