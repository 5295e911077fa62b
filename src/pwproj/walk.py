"""Sampleable measures on piecewise projective groups and walk experiments.

Walks are simulated on the induced point orbit: only the current image of
the marked point is kept, never the full group product.  Configuration
values change exactly when the point enters the slope-change support of
the sampled increment, so value tracking is incremental and exact.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exactnum import ExtendedPoint, QuadraticNumber, canonical_key, qn_approx
from .piecewise import (
    Configuration,
    PiecewiseProjectiveMap,
    Prechain,
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


def _zeta(s: float, upto: int = 4096) -> float:
    return sum(j**-s for j in range(1, upto + 1)) + _zeta_tail(s, upto)


class PowerLawSampler:
    """Zeta-normalized law P(j) = j**-(1+alpha) / zeta(1+alpha) on j >= 1.

    Inverse-CDF sampling with an explicit table head and an analytic tail,
    so the support is genuinely unbounded (no truncation).
    """

    TABLE = 1 << 14

    def __init__(self, alpha: Fraction):
        if not (0 < alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        self.alpha = alpha
        self.s = 1.0 + float(alpha)
        self.norm = _zeta(self.s)
        acc = 0.0
        table = []
        for j in range(1, self.TABLE + 1):
            acc += j**-self.s / self.norm
            table.append(acc)
        self._table = table

    def prob(self, j: int) -> float:
        return j**-self.s / self.norm

    def _cdf(self, j: int) -> float:
        if j <= self.TABLE:
            return self._table[j - 1]
        return 1.0 - _zeta_tail(self.s, j) / self.norm

    def sample_magnitude(self, rng: random.Random) -> int:
        u = rng.random()
        if u <= self._table[-1]:
            return bisect_left(self._table, u) + 1
        lo = self.TABLE
        hi = 2 * lo
        while self._cdf(hi) < u and hi < 1 << 62:
            lo, hi = hi, hi * 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self._cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
        return hi

    def sample_signed(self, rng: random.Random) -> int:
        mag = self.sample_magnitude(rng)
        return mag if rng.random() < 0.5 else -mag


@dataclass
class TailSpec:
    """Heavy-tail component: powers of a base element with P(n) ~ |n|**-(1+alpha)."""

    base: PiecewiseProjectiveMap
    alpha: Fraction
    weight: Fraction


class GroupMeasure:
    """Finite atoms plus an optional heavy-tail cyclic part and smoothing."""

    def __init__(
        self,
        atoms: Sequence[Tuple[PiecewiseProjectiveMap, Fraction]],
        tail: Optional[TailSpec] = None,
        smoothing: bool = False,
    ):
        self.atoms = [(m, Fraction(w)) for m, w in atoms]
        self.tail = tail
        self.smoothing = smoothing
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

    def _sample_once(self, rng: random.Random) -> Tuple[int, PiecewiseProjectiveMap]:
        """Returns (atom index or -1 for tail draws, element)."""
        i = bisect_right(self._cuts, rng.random())
        if i < len(self.atoms):
            return i, self.atoms[i][0]
        return -1, self.tail.base.power(self._sampler.sample_signed(rng))

    def sample(self, rng: random.Random) -> PiecewiseProjectiveMap:
        if not self.smoothing:
            return self._sample_once(rng)[1]
        count = _poisson_one(rng)
        out = pm_identity()
        for _ in range(count):
            out = self._sample_once(rng)[1] * out
        return out


def _poisson_one(rng: random.Random) -> int:
    # Knuth product method at rate 1
    limit = math.exp(-1.0)
    count = 0
    prod = rng.random()
    while prod > limit:
        count += 1
        prod *= rng.random()
    return count


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


@dataclass
class ConfigTracker:
    """State of the marked-point configuration value along one walk."""

    gamma: ExtendedPoint
    x: ExtendedPoint
    value: int = 0
    last_change: int = -1
    change_log: List[int] = field(default_factory=list)
    steps: int = 0
    frozen_at: Optional[int] = None


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
            self.deltas.append(row if any(row) else None)
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
        smoothing = self.mu.smoothing
        uniform = rng.random
        new_point = tuple.__new__
        # the walking point is points[pid], or x while pid is raw; a table
        # hit moves pid alone, so x may be stale while pid is interned
        x = start
        pid = start_pid = intern(start)
        # a start above the intern bound is seen again only by comparing points
        raw_start = _bits(start) > share_bits
        bits = 0
        # None, or the qn_approx enclosure of x; set only while pid is raw
        ax = None
        changes: List[Tuple[int, int]] = []
        visits: List[int] = []
        for n in range(1, steps + 1):
            if smoothing:
                draws = _poisson_one(rng)
            else:
                # the table hit: a known successor of an interned point
                ai = bisect_right(cuts, uniform())
                if pid != raw:
                    nid = succ[pid][ai]
                    if nid != raw:
                        row = deltas[pid]
                        if row is not None and row[ai]:
                            changes.append((n, row[ai]))
                        pid = nid
                        if nid == start_pid:
                            visits.append(n)
                        continue
                draws = 1
            delta = 0
            for _ in range(draws):
                if smoothing:
                    ai = bisect_right(cuts, uniform())
                if ai < natoms:
                    if pid != raw:
                        row = deltas[pid]
                        if row is not None:
                            delta += row[ai]
                        nid = succ[pid][ai]
                        if nid != raw:  # a table hit inside a smoothed step
                            pid = nid
                            continue
                        x = points[pid]
                    else:
                        hull = hulls[ai]
                        if hull is not None:
                            # the float test of piece_index: x lies strictly
                            # below the first break or above the last, on
                            # identity pieces, so the atom fixes x
                            if ax is None:
                                ax = qn_approx(x)
                            if ax is not None:
                                fx, ex = ax
                                lo_f, lo_e, hi_f, hi_e = hull
                                if lo_f - fx > ex + lo_e or fx - hi_f > ex + hi_e:
                                    continue
                    x = atoms[ai].apply(x)
                else:
                    if pid != raw:
                        x = points[pid]
                    # x + t*n keeps B and D, and gcd(A + t*n*D, B, D) is
                    # gcd(A, B, D) = 1, so the point stays canonical
                    A, B, D, k = x
                    A += shift * sampler.sample_signed(rng) * D
                    x = new_point(QuadraticNumber, (A, B, D, k))
                ax = None
                A, B, D, _ = x
                bits = A.bit_length() + B.bit_length() + D.bit_length()
                if bits > share_bits:
                    pid = raw
                    continue
                nid = intern(x)
                if pid != raw and ai < natoms:
                    succ[pid][ai] = nid
                pid = nid
            if delta:
                changes.append((n, delta))
            if pid == start_pid:
                visits.append(n)
            elif pid == raw:
                if raw_start and x == start:
                    visits.append(n)
                elif freeze_bits is not None and bits > freeze_bits:
                    return changes, visits, x, n
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
) -> ConfigTracker:
    """Track C_{g_n}(gamma) for the left walk g_{n+1} = h_n g_n, exactly.

    Only x_n = g_n(gamma) is kept.  When the exact coordinates of x_n
    exceed freeze_bits the trajectory is frozen: reaching any point where
    the configuration can still change would require shedding thousands
    of coordinate bits through a long exactly-cancelling move sequence,
    an event of vanishing probability; the walk is stopped there.
    """
    walker = _MeasureWalker(mu, s)
    return _run_config_walk(walker, gamma, steps, rng, freeze_bits)


def _run_config_walk(walker, gamma, steps, rng, freeze_bits):
    changes, _, x, frozen_at = walker.run(gamma, steps, rng, freeze_bits)
    return ConfigTracker(
        gamma=gamma,
        x=x,
        value=sum(delta for _, delta in changes),
        last_change=changes[-1][0] if changes else -1,
        change_log=[n for n, _ in changes],
        steps=steps,
        frozen_at=frozen_at,
    )


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


def _run_trajectories(run, trajectories: int, master_seed: int) -> list:
    """[run(trajectory_rng(master_seed, t)) for t in range(trajectories)].

    The module's one trajectory loop: every index has its own random
    stream, so each row depends only on the seed and its index.
    """
    return [run(trajectory_rng(master_seed, t)) for t in range(trajectories)]


def estimate_returns(
    walk_target: Union[GroupMeasure, "PrechainTreeModel"],
    start: ExtendedPoint,
    horizons: Sequence[int],
    trajectories: int,
    master_seed: int,
    freeze_bits: Optional[int] = DEFAULT_FREEZE_BITS,
    threads: int = 1,
) -> ReturnsReport:
    """Monte-Carlo mean visit counts to the start point at several horizons.

    threads must be 1 and selects nothing: perfbench's returns-z workload
    still passes it, and it goes once perfbench stops.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    horizons = sorted(horizons)
    top = horizons[-1]
    tree = isinstance(walk_target, PrechainTreeModel)
    walker = None if tree else _MeasureWalker(walk_target, start)

    def run(rng):
        if tree:
            return walk_target.root_visits(top, rng, horizons)
        visits = walker.run(start, top, rng, freeze_bits)[1]
        return [bisect_right(visits, h) for h in horizons]

    rows = _run_trajectories(run, trajectories, master_seed)
    means, errs = [], []
    for hi in range(len(horizons)):
        col = [row[hi] for row in rows]
        m = sum(col) / trajectories
        var = sum((v - m) ** 2 for v in col) / max(trajectories - 1, 1)
        means.append(m)
        errs.append(math.sqrt(var / trajectories))
    return ReturnsReport(list(horizons), means, errs, trajectories)


class PrechainTreeModel:
    """Symbolic simple random walk on the certified prechain orbit graph.

    The graph of the orbit of b is a rooted binary tree inside [b, c]
    (children g^-1(x) and f(x), the root keeping a g-loop and the ray
    through f^-1) with a one-sided ray hanging off every vertex; the walk
    is simulated on that combinatorial model with integer state, which is
    exact and avoids unbounded coordinate growth.
    """

    def __init__(self, prechain: Prechain):
        self.prechain = prechain

    def root_visits(
        self, steps: int, rng: random.Random, horizons: Sequence[int]
    ) -> List[int]:
        horizons = sorted(horizons)
        parent: List[int] = [-1]
        left: List[int] = [-1]
        right: List[int] = [-1]
        is_left_child: List[bool] = [False]
        node = 0
        ray_depth = 0  # > 0 means on the ray attached at `node`
        visits = 0
        out: List[int] = []
        hi = 0
        rnd = rng.random
        for n in range(1, steps + 1):
            u = rnd()
            if ray_depth:
                # f-type rays (left children and root) move under f;
                # g-type rays (right children) move under g; other
                # generator loops in place. Outward with probability 1/4,
                # inward 1/4, loop 1/2 regardless of type.
                if u < 0.25:
                    ray_depth += 1
                elif u < 0.5:
                    ray_depth -= 1
            else:
                if node == 0:
                    # moves at the root: f -> right child, f^-1 -> ray,
                    # g and g^-1 are loops
                    if u < 0.25:
                        node = _child(right, node, parent, left, right, is_left_child, False)
                    elif u < 0.5:
                        ray_depth = 1
                elif is_left_child[node]:
                    # x in A: g -> parent, g^-1 -> left child, f -> right
                    # child, f^-1 -> ray
                    if u < 0.25:
                        node = parent[node]
                    elif u < 0.5:
                        node = _child(left, node, parent, left, right, is_left_child, True)
                    elif u < 0.75:
                        node = _child(right, node, parent, left, right, is_left_child, False)
                    else:
                        ray_depth = 1
                else:
                    # x in B: f^-1 -> parent, f -> right child,
                    # g^-1 -> left child, g -> ray
                    if u < 0.25:
                        node = parent[node]
                    elif u < 0.5:
                        node = _child(right, node, parent, left, right, is_left_child, False)
                    elif u < 0.75:
                        node = _child(left, node, parent, left, right, is_left_child, True)
                    else:
                        ray_depth = 1
            if node == 0 and ray_depth == 0:
                visits += 1
            while hi < len(horizons) and horizons[hi] == n:
                out.append(visits)
                hi += 1
        return out


def _child(table, node, parent, left, right, is_left_child, make_left):
    nxt = table[node]
    if nxt == -1:
        nxt = len(parent)
        parent.append(node)
        left.append(-1)
        right.append(-1)
        is_left_child.append(make_left)
        table[node] = nxt
    return nxt


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
    WITNESS_VALUE_FREQUENCY of them.  threads must be 1 and selects nothing:
    perfbench's witness workload still passes it, and it goes once
    perfbench stops.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    half = steps // 2
    walker = _MeasureWalker(mu, s)

    def run(rng):
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
