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
    qn_approx,
)
from .piecewise import (
    Configuration,
    PiecewiseProjectiveMap,
    configuration,
    pm_identity,
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
    """

    TABLE = 1 << 14
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
        self._search_top_cdf = self._cdf(self.SEARCH_TOP)

    def prob(self, j: int) -> float:
        return j**-self.s / self.norm

    def _cdf(self, j: int) -> float:
        if j <= self.TABLE:
            return self._table[j - 1]
        return 1.0 - _zeta_tail(self.s, j) / self.norm

    def sample_signed(self, rng: random.Random) -> int:
        """A magnitude j from the law, with a fair sign: the walk's tail draw."""
        u = rng.random()
        table = self._table
        mag = bisect_left(table, u) + 1 if u <= table[-1] else self._beyond_table(u)
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

    def is_symmetric(self) -> bool:
        bag: Dict[PiecewiseProjectiveMap, Fraction] = {}
        for m, w in self.atoms:
            bag[m] = bag.get(m, Fraction(0)) + w
        return all(bag.get(m.inverse(), Fraction(0)) == w for m, w in bag.items())

    def sample(self, rng: random.Random) -> PiecewiseProjectiveMap:
        i = bisect_right(self._cuts, rng.random())
        if i < len(self.atoms):
            return self.atoms[i][0]
        return self.tail.base.power(self._sampler.sample_signed(rng))


def point_mass(element: PiecewiseProjectiveMap) -> GroupMeasure:
    return GroupMeasure([(element, Fraction(1))])


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
    point has a successor row, shared across trajectories: per atom, the id
    of its image, or RAW until the walk first takes that atom there.  The
    row has one more slot, for tail draws, that stays RAW.  Deeper points
    are handled verbatim until they shrink back or hit the freeze bound.
    Configuration deltas can only occur at interned points because every
    slope-change support point of the measure is itself small; a point's
    delta row is None unless some atom's configuration is nonzero there.

    An atom whose end pieces are the identity fixes every point outside its
    first and last break.  On a raw point such an atom is skipped when float
    enclosures place the point outside, by the test piece_index uses; an
    overlap, or a point without an enclosure, takes the exact apply.  The
    tail base must be a translation x -> x + t, so a tail draw n is one
    integer add, A += t*n*D.

    When every atom has such a hull and the measure has a tail, far_hull
    encloses their union: the least first-break float with the largest
    error, and the greatest last-break float with the largest error.  A
    point outside far_hull by the hull test is outside every atom's hull by
    that atom's own test, since rounding is monotone; run keeps raw points
    outside far_hull in a far state (see run).
    """

    RAW = -1

    def __init__(self, mu: GroupMeasure, s: ExtendedPoint):
        self.mu = mu
        self.s = s
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
        # Float enclosures of the first and last break of each atom whose
        # end pieces are the identity; the atom fixes every point outside.
        self.hulls: List[Optional[Tuple[float, float, float, float]]] = []
        for m, _ in mu.atoms:
            hull = None
            if m.breaks and m.pieces[0].is_identity and m.pieces[-1].is_identity:
                lo, hi = qn_approx(m.breaks[0]), qn_approx(m.breaks[-1])
                if lo is not None and hi is not None:
                    hull = (*lo, *hi)
            self.hulls.append(hull)
        self.far_hull: Optional[Tuple[float, float, float, float]] = None
        if mu.tail is not None and self.hulls and None not in self.hulls:
            lo_f, lo_e, hi_f, hi_e = zip(*self.hulls)
            self.far_hull = (min(lo_f), max(lo_e), max(hi_f), max(hi_e))
        entry_bits = [_bits(p) for conf in self.atom_confs for p in conf.entries]
        # only decides caching: above every entry, below the freeze bound
        self.share_bits = max(128, max(entry_bits, default=0) + 1)
        # these rows pay on returns-z, where nearly every step is a hit
        # (about 11x against apply and intern on every step)
        self.registry: Dict[tuple, int] = {}
        self.points: List[QuadraticNumber] = []
        self.succ: List[List[int]] = []
        self.deltas: List[Optional[List[int]]] = []

    def intern(self, x: QuadraticNumber) -> int:
        key = canonical_key(x)
        pid = self.registry.get(key)
        if pid is None:
            pid = len(self.points)
            self.registry[key] = pid
            self.points.append(x)
            self.succ.append([self.RAW] * (len(self.atom_confs) + 1))
            row = [conf.entries.get(x, 0) for conf in self.atom_confs]
            # the last slot, 0, is for tail draws: translations move nothing
            self.deltas.append(row + [0] if any(row) else None)
        return pid

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
        interned, so a return to it is recognized by its id (or, for a
        start above the intern bound, by comparing points).

        The far state.  An exact apply or a tail add that leaves the point
        raw, with bits(B) + bits(D) > share_bits, enters it when qn_approx
        gives the point an enclosure (f0, e0) outside far_hull by the hull
        test, with |f0| < 2**1000, and the start is not raw.  A tail keeps B
        and D, so from there no tail draw brings the point back under the
        intern bound, and while it stays outside far_hull every atom fixes
        it: the walk can neither visit the interned start nor change the
        configuration.  The point is kept
        as x0 + off, x0 = (A0 + B*sqrt(k))/D the entry point and off an
        int.  An atom draw is one uniform() and one compare with the atoms'
        mass; a tail draw n adds t*n to off and stays far when
          - bits(off) <= 1000, so every float below is finite;
          - the bit bound holds: A = A0 + off*D has at most
            max(bits(A0), bits(off) + bits(D)) + 1 bits, and that plus
            bits(B) + bits(D) is at most freeze_bits, so the point cannot
            freeze;
          - the enclosure (f, e) = (f0 + F, e0 + 2**-49 * (|f0| + |F|)),
            F = float(off), computed in floats, is outside far_hull by the
            hull test.
        Otherwise the point A0 + off*D is built once and takes the checks
        of any raw step: the freeze, then the entry test.  So every draw,
        decision and result is that of the walk without the far state,
        which would skip each atom there or apply it as the identity.

        Why (f, e) decides the hull test soundly (u = 2**-53, S = |f0| +
        |F|): float(off) and the sum are correctly rounded, so
        |x - f| < e0/2 + u*|F| + u*S <= e0/2 + 2u*S.  If fl(lo - f) >
        fl(e + lo_e), then lo - f > (1 - 2u)(e + lo_e), and the computed e
        is at least (1 - u)(e0 + 2**-49 * S * (1 - u)) - 2**-1075, the last
        term for a subnormal product.  Every first break of an atom lies
        above lo - lo_e/2, so it exceeds x by more than
        (1/2 - 3u) e0 + (2**-49 (1 - 4u) - 2u) S - 2**-1075 > 0, as
        e0 >= 2**-1000.  The upper side is the same.
        """
        raw = self.RAW
        share_bits = self.share_bits
        intern = self.intern
        points = self.points
        atoms = [m for m, _ in self.mu.atoms]
        natoms = len(atoms)
        hulls = self.hulls
        cuts = self.mu._cuts
        succ = self.succ
        deltas = self.deltas
        sampler = self.mu._sampler
        shift = self.tail_shift
        uniform = rng.random
        new_point = tuple.__new__
        # the walking point is points[pid], or x while pid is raw; a table
        # hit moves pid alone, so x may be stale while pid is interned
        x = start
        pid = start_pid = intern(start)
        # a start above the intern bound is seen again only by comparing points
        raw_start = _bits(start) > share_bits
        # None, or the qn_approx enclosure of x; set only while pid is raw
        ax = None
        far_hull = None if raw_start else self.far_hull
        if far_hull is not None:
            lo_f, lo_e, hi_f, hi_e = far_hull
            atom_mass = cuts[-1]
        # while far, the walking point is x0 + off, x0 = (A0, B0, D0, k0),
        # and x is stale; a tail draw stays far while bits(off) <= cap
        far = False
        changes: List[Tuple[int, int]] = []
        visits: List[int] = []
        for n in range(1, steps + 1):
            if far:
                if uniform() < atom_mass:
                    continue
                off += shift * sampler.sample_signed(rng)
                if off.bit_length() <= cap:
                    fo = float(off)
                    f = f0 + fo
                    e = e0 + 2.0**-49 * (abs_f0 + abs(fo))
                    if lo_f - f > e + lo_e or f - hi_f > e + hi_e:
                        continue
                far = False
                x = new_point(QuadraticNumber, (A0 + off * D0, B0, D0, k0))
            else:
                ai = bisect_right(cuts, uniform())
                if pid != raw:
                    row = deltas[pid]
                    if row is not None and row[ai]:
                        changes.append((n, row[ai]))
                    # the table hit: a known successor of an interned point
                    nid = succ[pid][ai]
                    if nid != raw:
                        pid = nid
                        if nid == start_pid:
                            visits.append(n)
                        continue
                    x = points[pid]
                elif ai < natoms:
                    hull = hulls[ai]
                    if hull is not None:
                        # the float test of piece_index: x lies strictly
                        # below the first break or above the last, on
                        # identity pieces, so the atom fixes x
                        if ax is None:
                            ax = qn_approx(x)
                        if ax is not None:
                            fx, ex = ax
                            lo, lo_err, hi, hi_err = hull
                            if lo - fx > ex + lo_err or fx - hi > ex + hi_err:
                                if raw_start and x == start:
                                    visits.append(n)
                                continue
                if ai < natoms:
                    x = atoms[ai].apply(x)
                else:
                    # x + t*n keeps B and D, and gcd(A + t*n*D, B, D) is
                    # gcd(A, B, D) = 1, so the point stays canonical
                    A, B, D, k = x
                    A += shift * sampler.sample_signed(rng) * D
                    x = new_point(QuadraticNumber, (A, B, D, k))
            ax = None
            A, B, D, _ = x
            bd = B.bit_length() + D.bit_length()
            bits = A.bit_length() + bd
            if bits > share_bits:
                pid = raw
                if raw_start and x == start:
                    visits.append(n)
                elif freeze_bits is not None and bits > freeze_bits:
                    return changes, visits, x, n
                elif far_hull is not None and bd > share_bits:
                    # the far state's entry test; ax serves the hull skip
                    ax = qn_approx(x)
                    if ax is not None:
                        f0, e0 = ax
                        abs_f0 = abs(f0)
                        far = abs_f0 < 2.0**1000 and (
                            lo_f - f0 > e0 + lo_e or f0 - hi_f > e0 + hi_e
                        )
                    if far:
                        A0, B0, D0, k0 = x
                        off = 0
                        cap = 1000
                        if freeze_bits is not None:
                            # the bit bound as a bound on bits(off)
                            room = freeze_bits - 1 - bd
                            if A.bit_length() > room:
                                cap = -1
                            else:
                                cap = min(cap, room - D.bit_length())
                continue
            nid = intern(x)
            if pid != raw and ai < natoms:
                succ[pid][ai] = nid
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
    exceed freeze_bits the trajectory is frozen: reaching any point where
    the configuration can still change would require shedding thousands
    of coordinate bits through a long exactly-cancelling move sequence,
    an event of vanishing probability; the walk is stopped there.
    """
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


def _run_slice(run, trajectories: int, master_seed: int, first: int, stride: int) -> list:
    return [
        run(trajectory_rng(master_seed, t)) for t in range(first, trajectories, stride)
    ]


def _run_trajectories(run, trajectories: int, master_seed: int) -> list:
    """[run(trajectory_rng(master_seed, t)) for t in range(trajectories)].

    The module's one trajectory loop.  It forks W - 1 children, W the
    number of CPUs of the affinity mask but at most the trajectory count,
    and process w runs the trajectories t = w (mod W), the parent slice 0.
    Every index has its own random stream and run's caches (the intern and
    successor tables) never decide a result, so each row depends only on
    the seed and its index, and the merged list is the same for any W.  A
    child sends its rows, or the exception it raised, back through a pipe;
    the parent re-raises that exception with its type and message, and
    reaps every child before it returns or raises, killing them first when
    it raises.  A slice whose fork fails runs in the parent.  No option sets
    the count: `taskset -c 0` gives one process, and the threads keyword
    of the entry points still selects nothing.
    """
    workers = max(1, min(_worker_count(), trajectories))
    if workers == 1:
        return _run_slice(run, trajectories, master_seed, 0, 1)
    import pickle
    import signal

    own = [0]
    children = []  # (slice, pid)
    pipes = {}  # pid -> read end of its pipe, until read
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                own.extend(range(w, workers))
                break
            if pid == 0:
                os.close(r)
                for fd in pipes.values():
                    os.close(fd)
                _child_main(wr, run, trajectories, master_seed, w, workers)
            os.close(wr)
            children.append((w, pid))
            pipes[pid] = r
        rows = [None] * trajectories
        for w in own:
            rows[w::workers] = _run_slice(run, trajectories, master_seed, w, workers)
        for w, pid in children:
            with os.fdopen(pipes.pop(pid), "rb") as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"trajectory worker {pid} exited without a result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            rows[w::workers] = payload
        return rows
    finally:
        for pid, fd in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
        for _, pid in children:
            os.waitpid(pid, 0)


def _child_main(wr: int, run, trajectories: int, master_seed: int, first: int, stride: int):
    """In a forked child: run one slice, write (True, rows) or (False, the
    exception it raised) to the pipe wr, and exit; never returns."""
    import pickle

    try:
        try:
            result = (True, _run_slice(run, trajectories, master_seed, first, stride))
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


def _returns_report(run, horizons: List[int], trajectories: int, master_seed: int):
    """Mean and standard error, per horizon, of the rows of run's visit counts."""
    rows = _run_trajectories(run, trajectories, master_seed)
    means, errs = [], []
    for hi in range(len(horizons)):
        col = [row[hi] for row in rows]
        m = sum(col) / trajectories
        var = _float_sum((v - m) ** 2 for v in col) / max(trajectories - 1, 1)
        means.append(m)
        errs.append(math.sqrt(var / trajectories))
    return ReturnsReport(horizons, means, errs, trajectories)


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
    horizons = sorted(horizons)
    top = horizons[-1]
    walker = _MeasureWalker(mu, start)

    def run(rng):
        visits = walker.run(start, top, rng, freeze_bits)[1]
        return [bisect_right(visits, h) for h in horizons]

    return _returns_report(run, horizons, trajectories, master_seed)


def estimate_tree_returns(
    horizons: Sequence[int], trajectories: int, master_seed: int
) -> ReturnsReport:
    """Monte-Carlo mean root visits of the walk on the prechain tree model.

    The orbit graph of b under a certified 2-prechain (f, g) is a rooted
    binary tree inside [b, c] with a one-sided ray hanging off every
    vertex; the simple random walk runs on that model with integer state
    (see tree_root_visits), which is exact and keeps no coordinates.
    """
    horizons = sorted(horizons)
    top = horizons[-1]

    def run(rng):
        return tree_root_visits(top, rng, horizons)

    return _returns_report(run, horizons, trajectories, master_seed)


def tree_root_visits(
    steps: int, rng: random.Random, horizons: Sequence[int]
) -> List[int]:
    """Root visit counts by each horizon, walking on (depth, ray).

    A vertex's children are g^-1(x) and f(x); the root keeps a g-loop and
    the ray through f^-1.  Every non-root tree vertex moves to its parent,
    to one of its two children or onto its ray with the same draws whether
    it is a left or a right child, so the walk needs only the tree depth of
    the current vertex and the depth on its ray.
    """
    horizons = sorted(horizons)
    depth = 0
    ray = 0  # > 0 means on the ray attached at the current vertex
    visits = 0
    out: List[int] = []
    hi = 0
    rnd = rng.random
    for n in range(1, steps + 1):
        u = rnd()
        if ray:
            # f-type rays (left children and root) move under f;
            # g-type rays (right children) move under g; other
            # generator loops in place. Outward with probability 1/4,
            # inward 1/4, loop 1/2 regardless of type.
            if u < 0.25:
                ray += 1
            elif u < 0.5:
                ray -= 1
        elif depth == 0:
            # moves at the root: f -> right child, f^-1 -> ray,
            # g and g^-1 are loops
            if u < 0.25:
                depth = 1
            elif u < 0.5:
                ray = 1
        # x in A (a left child): g -> parent, g^-1 -> left child,
        # f -> right child, f^-1 -> ray; x in B (a right child):
        # f^-1 -> parent, f -> right child, g^-1 -> left child, g -> ray
        elif u < 0.25:
            depth -= 1
        elif u < 0.75:
            depth += 1
        else:
            ray = 1
        if depth == 0 and ray == 0:
            visits += 1
        while hi < len(horizons) and horizons[hi] == n:
            out.append(visits)
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


# -- entropy ------------------------------------------------------------------


def entropy_estimate(
    mu: GroupMeasure, n: int, samples: int, master_seed: int
) -> dict:
    """Plug-in entropy of the n-step convolution from sampled products.

    Biased low for small sample counts; diagnostic only.
    """

    def run(rng):
        prod = pm_identity()
        for _ in range(n):
            prod = mu.sample(rng) * prod
        return prod.to_text()

    counts: Dict[str, int] = {}
    for key in _run_trajectories(run, samples, master_seed):
        counts[key] = counts.get(key, 0) + 1
    entropy = 0.0
    for c in counts.values():
        p = c / samples
        entropy -= p * math.log(p)
    return {
        "n": n,
        "samples": samples,
        "entropy_nats": entropy,
        "entropy_rate": entropy / n,
        "distinct_products": len(counts),
        "bias_note": "plug-in estimate, biased low",
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
    sampler = PowerLawSampler(Fraction(alpha)) if heavy_tail else None
    half = steps // 2

    def run(rng):
        pos = 0
        last_origin_toggle = -1
        for n in range(1, steps + 1):
            if rng.random() < 0.5:
                if sampler is not None:
                    pos += sampler.sample_signed(rng)
                else:
                    pos += 1 if rng.random() < 0.5 else -1
            else:
                if pos == 0:
                    last_origin_toggle = n
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
