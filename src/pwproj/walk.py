"""Sampleable measures on piecewise projective groups and walk experiments.

Walks are simulated on the induced point orbit: only the current image of
the marked point is kept, never the full group product.  Configuration
values change exactly when the point enters the slope-change support of
the sampled increment, so value tracking is incremental and exact.
"""

from __future__ import annotations

import math
import os
import random
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import (
    ExtendedPoint,
    QuadraticNumber,
    canonical_key,
    point_to_text,
    qn_compare,
    qn_floor_times,
    sorted_points,
)
from .piecewise import (
    Configuration,
    PiecewiseProjectiveMap,
    configuration,
)

DEFAULT_FREEZE_BITS = 1500


def _zeta_tail(s: float, n: int) -> float:
    # Euler-Maclaurin tail of sum_{j>n} j^-s
    return (
        n ** (1.0 - s) / (s - 1.0)
        - 0.5 * n**-s
        + s * n ** (-s - 1.0) / 12.0
    )


def _float_sum(values) -> float:
    """Floats added left to right, as sum() does before Python 3.12.

    From 3.12 on, sum() compensates float rounding, which would change the
    last digit of seeded reports from one Python version to the next.
    """
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _zeta(s: float, upto: int = 4096) -> float:
    return _float_sum(j**-s for j in range(1, upto + 1)) + _zeta_tail(s, upto)


# the least tail exponent PowerLawSampler accepts
ALPHA_MIN = Fraction(1, 1000)


class PowerLawSampler:
    """Zeta-normalized law P(j) = j**-(1+alpha) / zeta(1+alpha) on j >= 1.

    Inverse-CDF sampling with an explicit table head and an analytic tail:
    a search on the tail's cdf up to 2**62 and, above cdf(2**62), its
    leading term inverted in log space, so the support is unbounded (no
    truncation).  The largest draw is bounded only by the uniform draw's
    resolution, 1 - u >= 2**-53.  A draw has about 1/alpha bits at the
    median and up to 53/alpha bits, so alpha is held to ALPHA_MIN or more.

    The table search is guided (Devroye, Non-Uniform Random Variate
    Generation, 1986, sec. III.2.4): _guide[i] = bisect_left(_table, i/G)
    for i = 0, ..., G.  For u <= _table[-1] < 1, i = int(u*G) is exact
    (G is a power of two), so i/G <= u < (i + 1)/G, and since bisect_left
    is monotone in its key, bisect_left(_table, u) lies in [_guide[i],
    _guide[i + 1]]: a search of that range alone gives the same index.
    _MeasureWalker.run and lamplighter_demo's run loop inline this draw.
    """

    TABLE = 1 << 14
    GUIDE = 1 << 12
    # the cdf search covers j up to here; the log-space inverse goes beyond
    SEARCH_TOP = 1 << 62

    def __init__(self, alpha: Fraction):
        if not (ALPHA_MIN <= alpha < 1):
            raise ValueError(f"alpha must lie in [{ALPHA_MIN}, 1)")
        self.alpha = alpha
        self.s = 1.0 + float(alpha)
        self.norm = _zeta(self.s)
        acc = 0.0
        table = []
        for j in range(1, self.TABLE + 1):
            acc += j**-self.s / self.norm
            table.append(acc)
        self._table = table
        self._guide = [bisect_left(table, i / self.GUIDE) for i in range(self.GUIDE + 1)]
        self._search_top_cdf = self._cdf(self.SEARCH_TOP)

    def _cdf(self, j: int) -> float:
        if j <= self.TABLE:
            return self._table[j - 1]
        return 1.0 - _zeta_tail(self.s, j) / self.norm

    def sample_signed(self, rng: random.Random) -> int:
        """A magnitude j from the law, with a fair sign: the walk's tail draw."""
        u = rng.random()
        table = self._table
        if u <= table[-1]:
            i = int(u * self.GUIDE)
            mag = bisect_left(table, u, self._guide[i], self._guide[i + 1]) + 1
        else:
            mag = self._beyond_table(u)
        return mag if rng.random() < 0.5 else -mag

    def _beyond_table(self, u: float) -> int:
        """The least j > TABLE with cdf(j) >= u, for u above the table's last cdf.

        Above cdf(SEARCH_TOP), 1 - cdf(j) is its leading term
        j**(1-s) / ((s-1) * norm) to a relative 2**-62, so j is that term's
        inverse, from its base-2 log L: 53 bits of 2**L, rounded up, then
        shifted.  That is O(1) and never overflows a float; the result is
        monotone in u and exceeds SEARCH_TOP.
        """
        if u > self._search_top_cdf:
            s1 = self.s - 1.0
            log2_j = -math.log2((1.0 - u) * s1 * self.norm) / s1
            shift = int(log2_j) - 52
            j = math.ceil(2.0 ** (log2_j - shift)) << shift
            return max(j, self.SEARCH_TOP + 1)
        lo = self.TABLE
        hi = 2 * lo
        while self._cdf(hi) < u and hi < self.SEARCH_TOP:
            lo, hi = hi, hi * 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self._cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
        return hi


@dataclass
class TailSpec:
    """Heavy-tail component: powers of a base element with P(n) ~ |n|**-(1+alpha)."""

    base: PiecewiseProjectiveMap
    alpha: Fraction
    weight: Fraction


class GroupMeasure:
    """Finite atoms plus an optional heavy-tail cyclic part."""

    def __init__(
        self,
        atoms: Sequence[Tuple[PiecewiseProjectiveMap, Fraction]],
        tail: Optional[TailSpec] = None,
    ):
        self.atoms = [(m, Fraction(w)) for m, w in atoms]
        self.tail = tail
        total = sum(w for _, w in self.atoms)
        if tail is not None:
            total += tail.weight
        if total != 1:
            raise ValueError(f"weights must sum to 1, got {total}")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("atom weights must be positive")
        if tail is not None and tail.weight < 0:
            raise ValueError("tail weight must be nonnegative")
        self._cuts = []
        acc = Fraction(0)
        for _, w in self.atoms:
            acc += w
            self._cuts.append(float(acc))
        self._sampler = PowerLawSampler(tail.alpha) if tail is not None else None

    def sample(self, rng: random.Random) -> PiecewiseProjectiveMap:
        i = bisect_right(self._cuts, rng.random())
        if i < len(self.atoms):
            return self.atoms[i][0]
        return self.tail.base.power(self._sampler.sample_signed(rng))


def uniform_measure(elements: Sequence[PiecewiseProjectiveMap]) -> GroupMeasure:
    w = Fraction(1, len(elements))
    return GroupMeasure([(e, w) for e in elements])


def witness_measure(
    hs: PiecewiseProjectiveMap,
    companion: PiecewiseProjectiveMap,
    translation: PiecewiseProjectiveMap,
    epsilon: Fraction = Fraction(1, 4),
    alpha: Fraction = Fraction(4, 5),
) -> GroupMeasure:
    """Uniform atoms on the two bumps and inverses, heavy tail on a translation."""
    w = (1 - Fraction(epsilon)) / 4
    atoms = [
        (hs, w),
        (hs.inverse(), w),
        (companion, w),
        (companion.inverse(), w),
    ]
    return GroupMeasure(atoms, TailSpec(translation, Fraction(alpha), Fraction(epsilon)))


def trajectory_rng(master_seed: int, index: int) -> random.Random:
    """Splittable per-trajectory stream: stable across runs and platforms."""
    return random.Random(f"pwproj:{master_seed}:{index}")


# -- incremental configuration walk ----------------------------------------


class _MeasureWalker:
    """Shared exact-step engine over interned orbit points.

    Points with small coordinates are interned to dense ids.  Each interned
    point has one row in rows, shared across trajectories: per atom, the
    row of its image, or None while the walk has not yet taken that atom
    there or where that atom changes the configuration value at the point.
    Then comes a tail slot, always None: a tail draw rebuilds the point,
    and one that leaves span enters the far state below instead of the
    table.  The point's id comes last.  So a walk on the table costs one
    lookup a step (see run).  Deeper points are handled verbatim until
    they shrink back or hit the freeze bound.  Configuration deltas can
    only occur at interned points because every slope-change support point
    of the measure is itself small; a point's delta row is None unless some
    atom's configuration is nonzero there.  An atom fixes a point on one of
    its identity pieces through its own apply, which returns the point
    itself.  The tail base must be a translation x -> x + t, so a tail draw
    n is one integer add, A += t*n*D.

    An atom whose end pieces are the identity fixes every point outside its
    first and last break.  When every atom is such and the measure has a
    tail, span is the exact closed interval from the least first break to
    the greatest last break, which holds every atom's hull and every
    configuration entry, and far_bounds holds two integers around it,
    floor(span[0]) <= span[0] and floor(span[1]) + 1 > span[1].  run keeps
    points that a tail draw takes outside span, interned or raw, in a far
    state (see run); otherwise span and far_bounds are None.
    """

    RAW = -1

    def __init__(self, mu: GroupMeasure, s: ExtendedPoint):
        self.mu = mu
        self.atom_confs: List[Configuration] = [
            configuration(m, s) for m, _ in mu.atoms
        ]
        self.tail_shift = 0
        if mu.tail is not None:
            # a translation x -> x + t, which has empty configuration
            base = mu.tail.base
            m = base.pieces[0]
            if base.breaks or m.c != 0 or m.a != 1 or m.d != 1:
                raise ValueError("tail base must be a translation x -> x + t")
            self.tail_shift = m.b
        self.span: Optional[Tuple[QuadraticNumber, QuadraticNumber]] = None
        self.far_bounds: Optional[Tuple[int, int]] = None
        if mu.tail is not None and mu.atoms and all(
            m.breaks and m.pieces[0].is_identity and m.pieces[-1].is_identity
            for m, _ in mu.atoms
        ):
            lo = sorted_points(m.breaks[0] for m, _ in mu.atoms)[0]
            hi = sorted_points(m.breaks[-1] for m, _ in mu.atoms)[-1]
            self.span = (lo, hi)
            self.far_bounds = (qn_floor_times(lo, 1), qn_floor_times(hi, 1) + 1)
        entry_bits = [_bits(p) for conf in self.atom_confs for p in conf.entries]
        # only decides caching: above every entry, below the freeze bound
        self.share_bits = max(128, max(entry_bits, default=0) + 1)
        # the row table pays on returns-z, where nearly every step is a hit
        self.registry: Dict[tuple, int] = {}
        self.points: List[QuadraticNumber] = []
        self.rows: List[list] = []
        self.deltas: List[Optional[List[int]]] = []

    def intern(self, x: QuadraticNumber) -> int:
        key = canonical_key(x)
        pid = self.registry.get(key)
        if pid is None:
            pid = len(self.points)
            self.registry[key] = pid
            self.points.append(x)
            self.rows.append([None] * (len(self.atom_confs) + 1) + [pid])
            row = [conf.entries.get(x, 0) for conf in self.atom_confs]
            # the last slot, 0, is for tail draws: translations move nothing
            self.deltas.append(row + [0] if any(row) else None)
        return pid

    def far_entry(self, x: QuadraticNumber, freeze_bits: Optional[int]):
        """(off_lo, off_hi, lim): the far state's bounds at its entry point x.

        For an int off, x + off lies strictly below span when off <= off_lo
        and strictly above it when off >= off_hi, and it is within
        freeze_bits when |off| < lim (see run for both proofs).
        """
        A, B, D, _ = x
        below, above = self.far_bounds
        m = qn_floor_times(x, 1)
        if freeze_bits is None:
            lim = math.inf
        else:
            room = freeze_bits - 1 - B.bit_length() - D.bit_length()
            cap = room - D.bit_length()
            lim = 1 << cap if cap >= 0 and A.bit_length() <= room else 0
        return below - m - 1, above - m, lim

    def run(
        self,
        start: QuadraticNumber,
        steps: int,
        rng: random.Random,
        freeze_bits: Optional[int],
    ):
        """Walk `steps` mu-steps from `start`, the module's one step loop.

        Returns (changes, visits, x, frozen_at): the (n, delta) of each step
        n whose increment changed the configuration value at the walking
        point, the steps that ended on `start`, the last point, and the
        step at which the walk froze (None if it ran to the end).  A step
        freezes the walk when its point is not interned and the bit sizes
        of its A, B and D sum past freeze_bits.  The start point is always
        interned, so a return to it is recognized by its id or its row (or,
        for a start above the intern bound, by comparing points).  Each step
        takes one uniform draw u: the tail when u >= the atoms' mass, else
        the atom bisect_right(cuts, u).  An atom step off the table is the
        atom's apply, which fixes a point on an identity piece.  A tail step
        is the loop's one tail-draw site, PowerLawSampler.sample_signed
        written out: a uniform draw for the magnitude, searched through the
        sampler's guide, and one for the sign.

        Table runs.  A step from an interned point whose slot holds a row
        starts a table run: an inner loop over the same step iterator that
        draws, bisects, looks the slot up in the current row and moves to
        the row it holds, counting a visit when that is the start's row.  It
        breaks at the first None slot, reads the point's id from the end of
        the row and takes that step off the table, with the same atom: the
        configuration delta, the exact apply or the tail draw, intern and
        the fill, which sets the slot to the new point's row unless the
        step changes the configuration.  Such a slot stays None, so a run
        never passes over a change, and that step is an exact apply each
        time; it happens only at configuration entries.  The table holds
        only what an exact apply gave, so it never decides a result.

        The far state.  A run has one when far_bounds exists, the start is
        not raw and the start lies in span, checked once by two exact
        compares.  The walking point is then kept as x0 + off, x0 = (A0 +
        B0*sqrt(k0))/D0 the point where the walk entered and off an int,
        and far_entry turns x0 into three ints.  The walk stays far exactly
        while
          -lim < off <= off_lo  or  off_hi <= off < lim.
        A tail draw enters the far state, after the freeze check, iff off = 0
        passes this test, so entry and stay are one test.  While far, an
        atom step is the step's uniform draw and one compare, and a tail
        draw n adds t*n to off and takes the test again: integer work alone.
        A draw that fails the test builds the point A0 + off*D0 once, and
        that point takes the checks of any tail step: the freeze, then the
        entry test, then the intern table if it is small.

        Why the bounds are sound.  m = floor(x0) is exact, from x0's
        integers (qn_floor_times), so m <= x0 < m + 1; far_bounds holds
        below = floor(span[0]) and above = floor(span[1]) + 1, and far_entry
        sets off_lo = below - m - 1 and off_hi = above - m.  For off <=
        off_lo, x0 + off < m + 1 + off_lo = below <= span[0]; for off >=
        off_hi, x0 + off >= m + off_hi = above > span[1].  So a far point
        lies strictly outside span: it is neither the start nor a
        configuration entry (each entry is a break of its atom), and every
        atom fixes it, since span holds every atom's hull.  The walk can
        neither visit the start nor change the configuration there.  Only a
        tail draw can reach such a point: an atom maps its closed hull onto
        itself and fixes every point outside it.  lim is the freeze bound
        as a bound on off: A = A0 + off*D0 has at most max(bits(A0),
        bits(off) + bits(D0)) + 1 bits, so with room = freeze_bits - 1 -
        bits(B0) - bits(D0) and cap = room - bits(D0), the point cannot
        freeze while bits(A0) <= room and bits(off) <= cap, that is while
        |off| < 2**cap.  lim is 2**cap, or 0 when bits(A0) > room or cap < 0
        (the walk does not enter), and unbounded without freeze_bits.  So
        every draw, decision and result is that of the walk without the far
        state, which would take each atom there from the table as a fixed
        point or apply it as the identity.
        """
        raw = self.RAW
        share_bits = self.share_bits
        intern = self.intern
        points = self.points
        atoms = [m for m, _ in self.mu.atoms]
        natoms = len(atoms)
        cuts = self.mu._cuts
        rows = self.rows
        deltas = self.deltas
        sampler = self.mu._sampler
        if sampler is not None:
            table = sampler._table
            top = table[-1]
            guide = sampler._guide
            buckets = float(sampler.GUIDE)
            beyond = sampler._beyond_table
        shift = self.tail_shift
        uniform = rng.random
        new_point = tuple.__new__
        # the walking point is points[pid], or x while pid is raw; a table
        # run moves the row alone, so x may be stale while pid is interned
        x = start
        pid = start_pid = intern(start)
        start_row = rows[start_pid]
        # a start above the intern bound is seen again only by comparing points
        raw_start = _bits(start) > share_bits
        far_bounds = self.far_bounds
        if far_bounds is not None:
            lo, hi = self.span
            if raw_start or qn_compare(lo, start) > 0 or qn_compare(start, hi) > 0:
                far_bounds = None
            else:
                far_entry = self.far_entry
                atom_mass = cuts[-1]
        # while far, the walking point is x0 + off, x0 = (A0, B0, D0, k0),
        # x is stale, and ai stays natoms, the tail's index
        far = False
        changes: List[Tuple[int, int]] = []
        visits: List[int] = []
        steps_left = iter(range(1, steps + 1))
        for n in steps_left:
            u = uniform()
            if far:
                if u < atom_mass:
                    continue
            else:
                ai = bisect_right(cuts, u)
                if pid != raw:
                    row = rows[pid]
                    nxt = row[ai]
                    if nxt is not None:
                        # a table run, one lookup a step
                        row = nxt
                        if row is start_row:
                            visits.append(n)
                        for n in steps_left:
                            ai = bisect_right(cuts, uniform())
                            nxt = row[ai]
                            if nxt is None:
                                break
                            row = nxt
                            if row is start_row:
                                visits.append(n)
                        else:
                            # the run took the walk's last step
                            pid = row[-1]
                            break
                        pid = row[-1]
                    # step n off the table, from the interned point pid
                    delta = deltas[pid]
                    if delta is not None and delta[ai]:
                        changes.append((n, delta[ai]))
                    x = points[pid]
            if ai < natoms:
                x = atoms[ai].apply(x)
            else:
                # the tail draw: sample_signed's guided search and sign
                u = uniform()
                if u <= top:
                    i = int(u * buckets)
                    j = guide[i]
                    end = guide[i + 1]
                    if j < end:
                        j = bisect_left(table, u, j, end)
                    j += 1
                else:
                    j = beyond(u)
                if uniform() >= 0.5:
                    j = -j
                if far:
                    off += shift * j
                    if -lim < off <= off_lo or off_hi <= off < lim:
                        continue
                    far = False
                    x = new_point(QuadraticNumber, (A0 + off * D0, B0, D0, k0))
                else:
                    # x + t*n keeps B and D, and gcd(A + t*n*D, B, D) is
                    # gcd(A, B, D) = 1, so the point stays canonical
                    A, B, D, k = x
                    x = new_point(QuadraticNumber, (A + shift * j * D, B, D, k))
            A, B, D, _ = x
            bits = A.bit_length() + B.bit_length() + D.bit_length()
            if bits > share_bits:
                pid = raw
                if raw_start and x == start:
                    visits.append(n)
                elif freeze_bits is not None and bits > freeze_bits:
                    return changes, visits, x, n
            if far_bounds is not None and ai == natoms:
                # the far state's entry test, after every tail draw
                off_lo, off_hi, lim = far_entry(x, freeze_bits)
                off = 0
                if -lim < off <= off_lo or off_hi <= off < lim:
                    far = True
                    pid = raw
                    A0, B0, D0, k0 = x
                    continue
            if bits > share_bits:
                continue
            nid = intern(x)
            if pid != raw and ai < natoms:
                delta = deltas[pid]
                if delta is None or not delta[ai]:
                    rows[pid][ai] = rows[nid]
            pid = nid
            if pid == start_pid:
                visits.append(n)
        if far:
            x = new_point(QuadraticNumber, (A0 + off * D0, B0, D0, k0))
        return changes, visits, (x if pid == raw else points[pid]), None


def _bits(x: QuadraticNumber) -> int:
    A, B, D, _ = x
    return A.bit_length() + B.bit_length() + D.bit_length()


def simulate_config_walk(
    mu: GroupMeasure,
    s: ExtendedPoint,
    gamma: ExtendedPoint,
    steps: int,
    rng: random.Random,
    freeze_bits: Optional[int] = DEFAULT_FREEZE_BITS,
) -> dict:
    """Track C_{g_n}(gamma) for the left walk g_{n+1} = h_n g_n, exactly.

    Only x_n = g_n(gamma) is kept.  When the exact coordinates of x_n
    exceed freeze_bits the trajectory is frozen and the walk stopped.  That
    is a heuristic: a later change needs a long exactly-cancelling move
    sequence, and such sequences occur (tests/test_walk.py pins a walk that
    visits its start 9 more times after the step where it would freeze).
    """
    _check_positive("steps", steps)
    changes, _, x, frozen_at = _MeasureWalker(mu, s).run(gamma, steps, rng, freeze_bits)
    return {
        "value": sum(delta for _, delta in changes),
        "last_change": changes[-1][0] if changes else -1,
        "changes": len(changes),
        "frozen_at": frozen_at,
        "final_point": point_to_text(x),
    }


# -- returns ------------------------------------------------------------------


@dataclass
class ReturnsReport:
    horizons: List[int]
    means: List[float]
    stderrs: List[float]
    trajectories: int

    def as_dict(self):
        return {
            "horizons": self.horizons,
            "mean_returns": self.means,
            "stderr": self.stderrs,
            "trajectories": self.trajectories,
        }


def _worker_count() -> int:
    """Processes a trajectory loop may use: one per CPU of the affinity mask.

    1 where os.fork or os.sched_getaffinity is missing, and while the
    process runs more than one thread, since a forked child would inherit
    locks that those threads hold.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


# The token pipe of _run_trajectories holds at most this many 4-byte records,
# written at once: 4096 bytes, PIPE_BUF on Linux, which any pipe holds.
_MAX_TOKENS = 1024
_TOKEN_BYTES = 4


def _run_tokens(run, tokens: int, block: int, trajectories: int, master_seed: int) -> list:
    """(t, row) for each trajectory t of each token read from fd tokens, to EOF.

    A token is a block number i, which stands for the indices i*block up to
    (i + 1)*block, cut at the trajectory count.
    """
    out = []
    while True:
        token = os.read(tokens, _TOKEN_BYTES)
        if not token:
            return out
        if len(token) != _TOKEN_BYTES:
            raise RuntimeError(f"token pipe gave a partial token of {len(token)} bytes")
        first = int.from_bytes(token, "little") * block
        for t in range(first, min(first + block, trajectories)):
            out.append((t, run(trajectory_rng(master_seed, t))))


def _run_trajectories(run, trajectories: int, master_seed: int) -> list:
    """[run(trajectory_rng(master_seed, t)) for t in range(trajectories)].

    The module's one trajectory loop.  With W processes, W the number of
    CPUs of the affinity mask but at most the trajectory count M, it hands
    out the trajectories on demand, so a process that drew short
    trajectories takes more of them.  Before forking W - 1 children, the
    parent writes the tokens into one pipe and closes its write end: at
    most _MAX_TOKENS records of _TOKEN_BYTES bytes, in one write of at most
    PIPE_BUF bytes, which fits any pipe and never blocks, each naming a
    block of ceil(M / _MAX_TOKENS) consecutive indices (one index per token
    when M <= _MAX_TOKENS).  Every process, the parent too, then reads one
    token per os.read(fd, 4) until EOF and runs its block.  A 4-byte read
    takes one whole token: the pipe holds only whole records, and Linux
    serializes the readers of one pipe, so no read splits a record.
    Every index has its own random stream and run's caches (the intern and
    row tables) never decide a result, so each row depends only on
    the seed and its index, and the list, put in index order, is the same
    for any W and any hand-out.  A child sends its (t, row) pairs, or the
    exception it raised, back through its own pipe; the parent re-raises
    that exception with its type and message, and reaps every child before
    it returns or raises, killing them first when it raises.  When a fork
    fails, the processes already running, the parent among them, take the
    tokens that child would have.  No option sets the count: `taskset -c 0`
    gives one process, and the threads keyword of the entry points still
    selects nothing.
    """
    workers = max(1, min(_worker_count(), trajectories))
    if workers == 1:
        return [run(trajectory_rng(master_seed, t)) for t in range(trajectories)]
    import pickle
    import signal

    block = -(-trajectories // _MAX_TOKENS)
    count = -(-trajectories // block)
    tokens, wr = os.pipe()
    children = []
    pipes = {}  # pid -> read end of its pipe, until read
    try:
        try:
            os.write(wr, b"".join(i.to_bytes(_TOKEN_BYTES, "little") for i in range(count)))
        finally:
            os.close(wr)
        for _ in range(1, workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                break
            if pid == 0:
                os.close(r)
                for fd in pipes.values():
                    os.close(fd)
                _child_main(wr, run, tokens, block, trajectories, master_seed)
            os.close(wr)
            children.append(pid)
            pipes[pid] = r
        rows = [None] * trajectories
        for t, row in _run_tokens(run, tokens, block, trajectories, master_seed):
            rows[t] = row
        for pid in children:
            with os.fdopen(pipes.pop(pid), "rb") as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"trajectory worker {pid} exited without a result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            for t, row in payload:
                rows[t] = row
        return rows
    finally:
        for pid, fd in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
        for pid in children:
            os.waitpid(pid, 0)
        os.close(tokens)


def _child_main(wr: int, run, tokens: int, block: int, trajectories: int, master_seed: int):
    """In a forked child: run tokens until the pipe tokens is empty, write
    (True, its (t, row) pairs) or (False, the exception it raised) to the
    pipe wr, and exit; never returns."""
    import pickle

    try:
        try:
            result = (True, _run_tokens(run, tokens, block, trajectories, master_seed))
        except BaseException as exc:  # the parent raises it
            result = (False, exc)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                # an exception that does not survive pickling keeps its text
                result = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
        with os.fdopen(wr, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        # the frames below belong to the parent's call: leave without unwinding
        os._exit(0)


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def _sorted_horizons(horizons: Sequence[int]) -> List[int]:
    """The horizons in increasing order, at least one and each positive."""
    horizons = sorted(horizons)
    if not horizons:
        raise ValueError("horizons must not be empty")
    if horizons[0] < 1:
        raise ValueError(f"horizons must be positive, got {horizons[0]}")
    return horizons


def estimate_returns(
    mu: GroupMeasure,
    start: ExtendedPoint,
    horizons: Sequence[int],
    trajectories: int,
    master_seed: int,
    freeze_bits: Optional[int] = DEFAULT_FREEZE_BITS,
    threads: int = 1,
) -> ReturnsReport:
    """Monte-Carlo mean visit counts to the start point at several horizons.

    The trajectories run in forked processes (see _run_trajectories).
    threads must be 1 and still selects nothing: perfbench's returns-z
    workload passes it, and it goes once perfbench stops.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    _check_positive("trajectories", trajectories)
    horizons = _sorted_horizons(horizons)
    top = horizons[-1]
    walker = _MeasureWalker(mu, start)

    def run(rng):
        visits = walker.run(start, top, rng, freeze_bits)[1]
        return [bisect_right(visits, h) for h in horizons]

    rows = _run_trajectories(run, trajectories, master_seed)
    means, errs = [], []
    for hi in range(len(horizons)):
        col = [row[hi] for row in rows]
        m = sum(col) / trajectories
        var = _float_sum((v - m) ** 2 for v in col) / max(trajectories - 1, 1)
        means.append(m)
        errs.append(math.sqrt(var / trajectories))
    return ReturnsReport(horizons, means, errs, trajectories)


# The recurrence of tree_mean_returns, sum_{i=0..5} P_i(n) g_{n+i} = 0: row i
# holds the coefficients of P_i, constant term first.
_TREE_RECURRENCE = (
    (7455840, 17937136, 15342880, 5723984, 909440, 47040),
    (-14558040, -24942716, -16139960, -4852564, -660880, -31440),
    (2262960, 3280040, 1767560, 437740, 49360, 2100),
    (4333560, 5349026, 2590445, 609709, 68635, 2865),
    (-1859760, -2091652, -917830, -195428, -20030, -780),
    (208320, 217264, 88000, 17276, 1640, 60),
)
# g_0, ..., g_4, which seed it
_TREE_ROOT_SEED = (1, 2, 6, 18, 60)


def tree_mean_returns(horizons: Sequence[int]) -> List[Fraction]:
    """Exact mean root visits of the walk on the prechain tree, by each horizon.

    The orbit graph of b under a certified 2-prechain (f, g) is a rooted
    binary tree inside [b, c] with a one-sided ray hanging off every vertex.
    Left and right children move alike, so the walk uniform on f^+-1 and
    g^+-1 is a Markov chain on (tree depth, depth on the current ray): on a
    ray it steps out 1/4, in 1/4 and stays 1/2; the root steps to its child
    1/4, onto its ray 1/4 and stays 1/2; any other tree vertex steps to its
    parent 1/4, to a child 1/2 and onto its ray 1/4.

    First passages give the generating functions: F = z/4 + (z/2)F +
    (z/4)F^2 (one level down a ray), U = z/4 + (z/2)U^2 + (z/4)FU (from a
    tree vertex to its parent), R = z/2 + (z/4)(U + F) (first return to the
    root) and G = 1/(1 - R), whose n-th coefficient is the chance of being
    at the root after step n.  At z = 1, F = 1, U = 1/2 (the smaller root of
    2U^2 - 3U + 1 = 0) and R = 7/8, so G(1) = 8: the means rise to
    G(1) - 1 = 7, step 0 left out.  F and U solve quadratics, so G is algebraic
    and hence D-finite (Stanley, Europ. J. Combin. 1, 1980): the integers
    g_n = 4^n [z^n] G satisfy a linear recurrence with polynomial
    coefficients.  _TREE_RECURRENCE is one of order 5 and degree 5, found by
    exact elimination over Q on g_0, ..., g_69, where the null space is
    one-dimensional; it holds exactly for every n < 395, and the tests check
    its terms against the series to n = 1000.  P_5 has positive
    coefficients, so it is never 0 at n >= 0.

    The mean by horizon h is sum_{n=1..h} g_n / 4^n = S_h / 4^h, with
    S_h = 4 S_{h-1} + g_h.  The loop keeps S and the last five g, all
    integers, and checks that each division by P_5 is exact, the one guard
    on the table.  g_n and S_h have about 2n bits, so a step costs O(n) and
    horizon h costs O(h^2): in one process on a 2-vCPU VM, 0.6-1.0 s at
    h = 20000, 3.7-3.8 s at 50000 and 15-18 s at 100000.
    """
    horizons = _sorted_horizons(horizons)
    window = list(_TREE_ROOT_SEED)
    total = 0
    out: List[Fraction] = []
    hi = 0
    for n in range(1, horizons[-1] + 1):
        if n < 5:
            term = window[n]
        else:
            m = n - 5
            p = [sum(c * m**j for j, c in enumerate(row)) for row in _TREE_RECURRENCE]
            # window holds g_m, ..., g_{m+4}; zip stops before P_5
            term, rest = divmod(-sum(pi * g for pi, g in zip(p, window)), p[5])
            if rest:
                raise ArithmeticError(f"the tree recurrence does not divide at n = {n}")
            window = window[1:] + [term]
        total = 4 * total + term
        while hi < len(horizons) and horizons[hi] == n:
            out.append(Fraction(total, 4**n))
            hi += 1
    return out


# -- summability diagnostic ---------------------------------------------------


def summability_diagnostic(
    mu: GroupMeasure,
    s: ExtendedPoint,
    origin: ExtendedPoint,
    steps: int,
    trajectories: int,
    master_seed: int,
    freeze_bits: Optional[int] = DEFAULT_FREEZE_BITS,
) -> dict:
    """Per-step hit mass of the walk against the measure's slope supports.

    Reports the empirical probability that step n changes the value at the
    walking image of origin, its cumulative sum, and the exact l1 mass of
    the measure's configuration-support function restricted to atoms.
    """
    _check_positive("trajectories", trajectories)
    _check_positive("steps", steps)
    walker = _MeasureWalker(mu, s)

    def run(rng):
        return walker.run(origin, steps, rng, freeze_bits)[0]

    hits = [0] * (steps + 1)
    for changes in _run_trajectories(run, trajectories, master_seed):
        for n, _ in changes:
            hits[n] += 1
    per_step = [h / trajectories for h in hits[1:]]
    cumulative = []
    acc = 0.0
    for v in per_step:
        acc += v
        cumulative.append(acc)
    l1_mass = sum(
        w * len(conf.entries)
        for (_, w), conf in zip(mu.atoms, walker.atom_confs)
    )
    return {
        "per_step_hit_mass": per_step,
        "cumulative": cumulative,
        "atom_l1_mass": str(l1_mass),
        "steps": steps,
        "trajectories": trajectories,
    }


# -- boundary non-triviality witness -------------------------------------------

WITNESS_STABILIZATION_FRACTION = 0.95
WITNESS_VALUE_FREQUENCY = 0.10
# Trajectories per walker: each process of the trajectory loop makes a fresh
# walker, and with it a fresh intern table, every so many of its own runs,
# which keeps memory flat in the run count; interning only decides caching,
# so the runs are the same.
WITNESS_WALKER_TRAJECTORIES = 50


def nontriviality_witness(
    mu: GroupMeasure,
    s: ExtendedPoint,
    steps: int,
    trajectories: int,
    master_seed: int,
    freeze_bits: Optional[int] = DEFAULT_FREEZE_BITS,
    threads: int = 1,
) -> dict:
    """Empirical boundary witness from the marked-point configuration value.

    A run stabilizes when its value does not change after steps/2.  The
    witness succeeds when at least WITNESS_STABILIZATION_FRACTION of the runs
    stabilize and at least two distinct stabilized values each carry
    WITNESS_VALUE_FREQUENCY of them.  The trajectories run in forked
    processes (see _run_trajectories).  threads must be 1 and still selects
    nothing: perfbench's witness workload passes it, and it goes once
    perfbench stops.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    _check_positive("trajectories", trajectories)
    _check_positive("steps", steps)
    half = steps // 2
    walker = None
    done = 0

    def run(rng):
        nonlocal walker, done
        if done % WITNESS_WALKER_TRAJECTORIES == 0:
            walker = _MeasureWalker(mu, s)
        done += 1
        changes, _, _, frozen_at = walker.run(s, steps, rng, freeze_bits)
        return changes, frozen_at

    histogram: Dict[int, int] = {}
    stabilized = 0
    frozen_runs = 0
    for changes, frozen_at in _run_trajectories(run, trajectories, master_seed):
        if frozen_at is not None:
            frozen_runs += 1
        if not changes or changes[-1][0] <= half:
            stabilized += 1
            value = sum(delta for _, delta in changes)
            histogram[value] = histogram.get(value, 0) + 1
    stab_frac = stabilized / trajectories
    frequent = {
        v: c for v, c in histogram.items() if c / trajectories >= WITNESS_VALUE_FREQUENCY
    }
    succeed = stab_frac >= WITNESS_STABILIZATION_FRACTION and len(frequent) >= 2
    return {
        "steps": steps,
        "trajectories": trajectories,
        "stabilization_horizon": half,
        "stabilized_fraction": stab_frac,
        "value_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "frequent_values": sorted(frequent),
        "frozen_runs": frozen_runs,
        "verdict": "SUCCEED" if succeed else "FAIL",
    }


# -- lamplighter demonstration --------------------------------------------------


def lamplighter_demo(
    alpha: Fraction,
    steps: int,
    trajectories: int,
    master_seed: int,
    heavy_tail: bool = True,
) -> dict:
    """Wreath-product walk over Z with Z/2 lamps, tracking the origin lamp.

    Position increments are the symmetric zeta power law (heavy_tail=True)
    or simple +-1 steps (the recurrent control); each step is a coin flip
    between moving and toggling the lamp at the current position.
    """
    _check_positive("trajectories", trajectories)
    _check_positive("steps", steps)
    if heavy_tail:
        sampler = PowerLawSampler(Fraction(alpha))
        table, guide, beyond = sampler._table, sampler._guide, sampler._beyond_table
        top, buckets = table[-1], float(sampler.GUIDE)
    half = steps // 2

    def run(rng):
        uniform = rng.random
        pos = 0
        last_origin_toggle = -1
        for n in range(1, steps + 1):
            if uniform() >= 0.5:
                if pos == 0:
                    last_origin_toggle = n
            elif not heavy_tail:
                pos += 1 if uniform() < 0.5 else -1
            else:
                # the tail draw: sample_signed's guided search and sign
                u = uniform()
                if u <= top:
                    i = int(u * buckets)
                    j = guide[i]
                    end = guide[i + 1]
                    if j < end:
                        j = bisect_left(table, u, j, end)
                    j += 1
                else:
                    j = beyond(u)
                pos += j if uniform() < 0.5 else -j
        return last_origin_toggle

    last_toggles = _run_trajectories(run, trajectories, master_seed)
    stabilized = sum(1 for last in last_toggles if last <= half)
    return {
        "alpha": str(alpha) if heavy_tail else None,
        "heavy_tail": heavy_tail,
        "steps": steps,
        "trajectories": trajectories,
        "stabilization_horizon": half,
        "stabilized_fraction": stabilized / trajectories,
        "late_toggle_runs": trajectories - stabilized,
    }
