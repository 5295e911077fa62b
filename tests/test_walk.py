import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from fractions import Fraction

import pytest

from pwproj.exactnum import QuadraticNumber, point_to_text, qn_approx, qn_compare
from pwproj.piecewise import (
    configuration,
    construct_prechain,
    pm_from_matrix,
    pm_identity,
    pm_new,
)
from pwproj.psl2 import ProjectiveMatrix
from pwproj.walk import (
    GroupMeasure,
    PowerLawSampler,
    TailSpec,
    entropy_estimate,
    estimate_returns,
    estimate_tree_returns,
    lamplighter_demo,
    nontriviality_witness,
    point_mass,
    simulate_config_walk,
    summability_diagnostic,
    trajectory_rng,
    uniform_measure,
    witness_measure,
)
from pwproj import walk
from pwproj.walk import _MeasureWalker, _float_sum, _run_trajectories


def q(a, b=0, k=1):
    return QuadraticNumber(Fraction(a), Fraction(b), k)


SQRT3 = q(0, 1, 3)
A1 = pm_from_matrix(ProjectiveMatrix.translation(1))


@pytest.fixture(scope="module")
def pre3():
    return construct_prechain(SQRT3)


@pytest.fixture(scope="module")
def wmu(pre3):
    return witness_measure(pre3.hs.map, pre3.companion, A1)


def test_measure_validation(pre3):
    with pytest.raises(ValueError):
        GroupMeasure([(A1, Fraction(1, 2))])
    # a tail base with nonzero configuration at the base point is rejected
    bad = GroupMeasure(
        [(A1, Fraction(3, 4))],
        TailSpec(pre3.hs.map, Fraction(4, 5), Fraction(1, 4)),
    )
    with pytest.raises(ValueError):
        _MeasureWalker(bad, SQRT3)
    # so is one that is not a translation, although its configuration at
    # the base point is empty (its breaks are rational)
    x1 = pm_new(
        [q(0), q(Fraction(1, 2)), q(1)],
        [
            ProjectiveMatrix.identity(),
            ProjectiveMatrix.make(1, 0, -1, 1),
            ProjectiveMatrix.make(3, -1, 1, 0),
            ProjectiveMatrix.translation(1),
        ],
    )
    assert configuration(x1, SQRT3).is_zero
    with pytest.raises(ValueError, match="translation"):
        _MeasureWalker(
            GroupMeasure([(A1, Fraction(3, 4))], TailSpec(x1, Fraction(4, 5), Fraction(1, 4))),
            SQRT3,
        )


def test_measure_rejects_negative_tail_weight():
    # the weights sum to 1, but the tail would take a negative share
    with pytest.raises(ValueError, match="tail weight"):
        GroupMeasure(
            [(A1, Fraction(3, 4)), (A1.inverse(), Fraction(3, 4))],
            TailSpec(A1, Fraction(4, 5), Fraction(-1, 2)),
        )


def test_point_mass_always_same(pre3):
    mu = point_mass(pre3.hs.map)
    rng = random.Random(0)
    for _ in range(5):
        assert mu.sample(rng) == pre3.hs.map


def test_power_law_head_probability():
    sampler = PowerLawSampler(Fraction(4, 5))
    rng = random.Random(3)
    n = 100_000
    plus_ones = 0
    ones = 0
    for _ in range(n):
        v = sampler.sample_signed(rng)
        if v == 1:
            plus_ones += 1
            ones += 1
        elif v == -1:
            ones += 1
    expect = sampler.prob(1)
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(ones / n - expect) < 3 * sigma
    half = expect / 2
    sigma_half = math.sqrt(half * (1 - half) / n)
    assert abs(plus_ones / n - half) < 3 * sigma_half


def test_power_law_unbounded_tail():
    sampler = PowerLawSampler(Fraction(1, 2))
    rng = random.Random(11)
    big = max(abs(sampler.sample_signed(rng)) for _ in range(50_000))
    assert big > PowerLawSampler.TABLE  # analytic tail actually fires


def test_float_sum_rounds_every_addition():
    # the same on every Python version: 3.12's sum() would give 1.0 here
    assert _float_sum([1e16, 1.0, -1e16]) == 0.0


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 1001), Fraction(1, 10**8), Fraction(1)])
def test_power_law_rejects_alpha_outside_its_range(alpha):
    # below 1/1000 a single draw could need megabytes
    with pytest.raises(ValueError):
        PowerLawSampler(alpha)


class _FixedUniform:
    """Stands in for a Random whose next uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("alpha", [Fraction(4, 5), Fraction(1, 2)])
def test_power_law_tail_returns_least_quantile(alpha):
    # beyond the table, the magnitude is the least j with cdf(j) >= u
    sampler = PowerLawSampler(alpha)
    head = sampler._cdf(PowerLawSampler.TABLE)
    rng = random.Random(5)
    for _ in range(2000):
        u = head + (1 - head) * rng.random()
        if u <= head:
            continue
        j = abs(sampler.sample_signed(_FixedUniform(u)))
        assert sampler._cdf(j - 1) < u <= sampler._cdf(j), (u, j)


@pytest.mark.parametrize("alpha", [Fraction(1, 1000), Fraction(1, 100), Fraction(1, 20)])
def test_power_law_tail_beyond_the_search_top(alpha):
    # above cdf(2^62) the law goes on: the magnitude passes 2^62 and grows
    # with u, and its leading tail term j^(1-s) / ((s-1) * norm) is 1 - u
    sampler = PowerLawSampler(alpha)
    top = 2**62
    s1 = sampler.s - 1
    mags = []
    for u in (1 - 2.0**-20, 1 - 2.0**-40, 1 - 2.0**-53):
        j = abs(sampler.sample_signed(_FixedUniform(u)))
        if sampler._cdf(top) < u:
            assert j > top, (u, j)
            log2_tail = -s1 * math.log2(j) - math.log2(s1 * sampler.norm)
            assert abs(log2_tail - math.log2(1 - u)) < 1e-9, (u, j)
        mags.append(j)
    assert mags == sorted(mags)


def test_power_law_share_beyond_the_search_top():
    # at alpha = 1/100 about 65% of the mass lies above 2^62
    sampler = PowerLawSampler(Fraction(1, 100))
    top = 2**62
    p = 1 - sampler._cdf(top)
    rng = random.Random(13)
    n = 20_000
    above = sum(abs(sampler.sample_signed(rng)) > top for _ in range(n))
    assert abs(above / n - p) < 3 * math.sqrt(p * (1 - p) / n), (above / n, p)


def test_measure_frequencies(wmu):
    rng = random.Random(5)
    n = 100_000
    index = {m: i for i, (m, _) in enumerate(wmu.atoms)}
    counts = {}
    for _ in range(n):
        idx = index.get(wmu.sample(rng), -1)  # -1: a tail draw
        counts[idx] = counts.get(idx, 0) + 1
    for i, (_, w) in enumerate(wmu.atoms):
        p = float(w)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) < 3 * sigma
    assert abs(counts[-1] / n - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n)


def test_symmetric_measure_drift(wmu):
    assert wmu.is_symmetric()
    rng = random.Random(21)
    walker = _MeasureWalker(wmu, SQRT3)
    signs = 0
    n = 300
    for t in range(n):
        x = walker.run(SQRT3, 60, trajectory_rng(77, t), 1500)[2]
        diff = x - SQRT3 if x.k in (1, 3) else None
        if diff is None:
            continue
        signs += diff.sign()
    assert abs(signs) < 3 * math.sqrt(n)


def test_simulate_config_walk_degenerate(pre3):
    mu = point_mass(pre3.hs.map)
    report = simulate_config_walk(mu, SQRT3, SQRT3, 50, random.Random(1))
    assert report["value"] == 50  # value climbs every step, point stays put
    assert report["final_point"] == point_to_text(SQRT3)
    mu2 = point_mass(A1)
    report2 = simulate_config_walk(mu2, SQRT3, q(0), 30, random.Random(1))
    assert report2["value"] == 0
    assert report2["final_point"] == point_to_text(q(30))


def test_incremental_matches_full_product(wmu):
    for seed in range(100):
        rng = random.Random(f"oracle:{seed}")
        increments = [wmu.sample(rng) for _ in range(15)]
        product = pm_identity()
        for inc in increments:
            product = inc * product
        expected = configuration(product, SQRT3).value_at(SQRT3)
        report = simulate_config_walk(
            wmu, SQRT3, SQRT3, 15, random.Random(f"oracle:{seed}"), None
        )
        assert report["value"] == expected, seed


def _bit_size(x):
    A, B, D, _ = x
    return A.bit_length() + B.bit_length() + D.bit_length()


def _exact_apply(f, x):
    """f(x) from integer compares alone: the piece index counts the breaks <= x."""
    i = sum(qn_compare(x, b) >= 0 for b in f.breaks)
    return f.pieces[i].apply(x)


def _oracle_path(mu, steps, rng, freeze_bits, confs=None, start=SQRT3):
    """One walk from start stepped by _exact_apply: (points, changes).

    points are the points after steps 1, 2, ..., up to the first one whose
    bit size passes freeze_bits (None: no bound).  With confs, a dict
    caching each sampled increment's configuration, changes lists the
    (n, delta) of each step that changed the value at the walking point;
    otherwise it is None.
    """
    x, points = start, []
    changes = None if confs is None else []
    for n in range(1, steps + 1):
        h = mu.sample(rng)
        if confs is not None:
            if h not in confs:
                confs[h] = configuration(h, SQRT3)
            delta = confs[h].value_at(x)
            if delta:
                changes.append((n, delta))
        x = _exact_apply(h, x)
        points.append(x)
        if freeze_bits is not None and _bit_size(x) > freeze_bits:
            break
    return points, changes


def _frozen_at(points, freeze_bits):
    if freeze_bits is not None and _bit_size(points[-1]) > freeze_bits:
        return len(points)
    return None


def _oracle_run(mu, start, steps, rng, freeze_bits):
    """What _MeasureWalker(mu, SQRT3).run returns, from the stepwise oracle."""
    points, changes = _oracle_path(mu, steps, rng, freeze_bits, {}, start)
    visits = [n for n, x in enumerate(points, 1) if x == start]
    return changes, visits, points[-1], _frozen_at(points, freeze_bits)


@pytest.mark.parametrize("freeze_bits", [1500, 600])
def test_walk_kernel_matches_stepwise_oracle(wmu, freeze_bits):
    walker = _MeasureWalker(wmu, SQRT3)
    steps = 1000
    frozen = 0
    for seed in range(50):
        points, _ = _oracle_path(wmu, steps, random.Random(f"kernel:{seed}"), freeze_bits)
        frozen_at = _frozen_at(points, freeze_bits)
        _, _, x, run_frozen_at = walker.run(
            SQRT3, steps, random.Random(f"kernel:{seed}"), freeze_bits
        )
        assert (x, run_frozen_at) == (points[-1], frozen_at), seed
        frozen += frozen_at is not None
    assert 0 < frozen < 50  # both outcomes are exercised


@pytest.mark.parametrize("case", ["no_hull", "one_no_hull", "tail_3", "intern_bound"])
def test_walk_kernel_paths_match_stepwise_oracle(pre3, wmu, case):
    """The hull skip, the integer tail and the intern bound against the oracle.

    no_hull: two atoms are hs after a translation, whose end pieces are not
    the identity, so they always take the exact apply.  one_no_hull: only
    the first atom is; a measure without a hull on every atom has no far
    state.  tail_3: the tail adds 3n.  intern_bound: the witness measure,
    whose walks cross share_bits both ways (raw points shrink back into the
    intern table).
    """
    hs, companion = pre3.hs.map, pre3.companion
    if case == "no_hull":
        mu = witness_measure(hs * A1, companion, A1)
    elif case == "one_no_hull":
        atoms = [hs * A1, hs.inverse(), companion, companion.inverse()]
        tail = TailSpec(A1, Fraction(4, 5), Fraction(1, 4))
        mu = GroupMeasure([(m, Fraction(3, 16)) for m in atoms], tail)
    elif case == "tail_3":
        mu = witness_measure(hs, companion, pm_from_matrix(ProjectiveMatrix.translation(3)))
    else:
        mu = wmu
    walker = _MeasureWalker(mu, SQRT3)
    if case == "no_hull":
        assert [h is None for h in walker.hulls] == [True, True, False, False]
    elif case == "one_no_hull":
        assert [h is None for h in walker.hulls] == [True, False, False, False]
    else:
        assert None not in walker.hulls
    assert (walker.far_hull is None) == (case in ("no_hull", "one_no_hull"))
    assert walker.tail_shift == (3 if case == "tail_3" else 1)
    share = walker.share_bits
    freeze_bits = 1500
    confs = {}
    down = up = 0
    for seed in range(30):
        rng = random.Random(f"paths:{seed}")
        points, changes = _oracle_path(mu, 1000, rng, freeze_bits, confs)
        got = walker.run(SQRT3, 1000, random.Random(f"paths:{seed}"), freeze_bits)
        visits = [n for n, x in enumerate(points, 1) if x == SQRT3]
        want = (changes, visits, points[-1], _frozen_at(points, freeze_bits))
        assert got == want, seed
        sizes = [_bit_size(x) > share for x in points]
        down += sum(a and not b for a, b in zip(sizes, sizes[1:]))
        up += sum(b and not a for a, b in zip(sizes, sizes[1:]))
    if case == "intern_bound":
        assert down > 0 and up > 0


class _Draws:
    """Stands in for a Random whose uniform draws are the given ones, in order."""

    def __init__(self, draws):
        self.random = iter(draws).__next__


def _sqrt_convergents(k, lo_bits, hi_bits):
    """Convergents p/q of sqrt(k) with lo_bits < bit length of p <= hi_bits."""
    a0 = math.isqrt(k)
    m, d, a = 0, 1, a0
    p0, q0, p, q = 1, 0, a0, 1
    out = []
    while p.bit_length() <= hi_bits:
        if p.bit_length() > lo_bits:
            out.append((p, q))
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    return out


def test_hull_skip_near_breaks_takes_exact_apply(wmu):
    """Raw points within 2^-60 of an atom's first or last break, on either
    side: the float test cannot place them, so the step is the exact apply.

    Two kinds of point: b +- 2^-64, and b +- (p - q*sqrt(k)) for
    convergents p/q of sqrt(k) with p of 71 to 110 bits, whose float value
    cancels so badly that it can lie on the wrong side of b.
    """
    tail = TailSpec(A1, Fraction(4, 5), Fraction(1, 2))
    tiny = q(Fraction(1, 2**64))
    moved = wrong_side = 0
    for atom, _ in wmu.atoms:
        walker = _MeasureWalker(GroupMeasure([(atom, Fraction(1, 2))], tail), SQRT3)
        assert walker.hulls[0] is not None
        for b in (atom.breaks[0], atom.breaks[-1]):
            near = [tiny] + [q(p, -q_, b.k) for p, q_ in _sqrt_convergents(b.k, 70, 110)]
            fb = qn_approx(b)[0]
            for x in [b + d for d in near] + [b - d for d in near]:
                assert q(Fraction(-1, 2**60)) < x - b < q(Fraction(1, 2**60))
                assert _bit_size(x) > walker.share_bits  # x is a raw point
                # step 1: the tail, magnitude 1, sign +; step 2: the atom
                rng = _Draws([0.75, 0.0, 0.0, 0.25])
                _, _, y, _ = walker.run(x - 1, 2, rng, None)
                assert y == atom.apply(x) == _exact_apply(atom, x)
                moved += y != x
                fx = qn_approx(x)[0]
                wrong_side += fx != fb and (fx > fb) != (qn_compare(x, b) > 0)
    assert moved  # some of these points lie inside the atom's support
    assert wrong_side  # and only the error bound keeps them from a skip


@pytest.mark.parametrize("reuse", [True, False])
def test_z_walk_visits_match_integer_walk(reuse):
    """The +-1 walk on Z against a plain integer walk on the same draws.

    A reused walker takes nearly every step from its successor rows; a
    fresh one fills them as it goes.
    """
    mu = uniform_measure([A1, A1.inverse()])
    start = q(0)
    walker = _MeasureWalker(mu, start)
    steps = 3000
    for seed in range(8):
        if not reuse:
            walker = _MeasureWalker(mu, start)
        got = walker.run(start, steps, trajectory_rng(31, seed), 1500)
        rng = trajectory_rng(31, seed)
        pos, visits = 0, []
        for n in range(1, steps + 1):
            pos += 1 if bisect_right(mu._cuts, rng.random()) == 0 else -1
            if pos == 0:
                visits.append(n)
        assert got == ([], visits, q(pos), None), seed
        assert visits  # the walk comes back to 0


def test_reused_walker_matches_fresh_walkers(wmu):
    """Known successor rows change no trajectory: a walker reused across
    trajectories gives what a fresh walker gives on each one."""
    reused = _MeasureWalker(wmu, SQRT3)
    hits = 0
    for seed in range(30):
        before = len(reused.points)
        got = reused.run(SQRT3, 1000, trajectory_rng(41, seed), 1500)
        fresh = _MeasureWalker(wmu, SQRT3).run(SQRT3, 1000, trajectory_rng(41, seed), 1500)
        assert got == fresh, seed
        hits += len(reused.points) == before
    assert hits  # some trajectories found every point they needed interned


def _atom_draw(mu, ai):
    """A uniform draw that picks atom ai of mu."""
    lo = mu._cuts[ai - 1] if ai else 0.0
    return (lo + mu._cuts[ai]) / 2


def test_table_hits_keep_the_walking_point(wmu):
    """A table hit moves the point id alone; the point is read back where it
    is used.  A run whose last step is a hit returns that point; an exact
    apply and a tail draw right after hits start from it."""
    atoms = [m for m, _ in wmu.atoms]
    walker = _MeasureWalker(wmu, SQRT3)

    def points_on(path):
        xs = [SQRT3]
        for ai in path:
            xs.append(atoms[ai].apply(xs[-1]))
        return xs

    # three steps, each to a new point small enough to be interned
    path = next(
        path
        for path in itertools.product(range(len(atoms)), repeat=3)
        if len(set(points_on(path))) == 4
        and all(_bit_size(y) <= walker.share_bits for y in points_on(path))
    )
    x = points_on(path)[-1]
    draws = [_atom_draw(wmu, ai) for ai in path]
    # first run: every step an exact apply, which fills the successor rows
    first = walker.run(SQRT3, len(path), _Draws(draws), None)
    assert first[2] == x
    pid = walker.intern(SQRT3)
    for ai in path:
        assert walker.succ[pid][ai] != walker.RAW
        pid = walker.succ[pid][ai]
    # the same steps again: all table hits, the last one included
    assert walker.run(SQRT3, len(path), _Draws(draws), None) == first
    # hits, then the tail: magnitude 1, sign +
    tail = [1 - 1 / 1024, 0.0, 0.0]
    _, _, y, _ = walker.run(SQRT3, len(path) + 1, _Draws(draws + tail), None)
    assert y == x + 1
    # hits, then an atom at a point where its successor is not yet known
    ai = next(i for i in range(len(atoms)) if walker.succ[pid][i] == walker.RAW)
    _, _, y, _ = walker.run(SQRT3, len(path) + 1, _Draws(draws + [_atom_draw(wmu, ai)]), None)
    assert y == atoms[ai].apply(x)


# -- the far state: raw points outside the union of the atoms' hulls ----------


# A walk's draws are written as a list of steps, each a list of the uniform
# draws it takes.


def _tail_draw(mu, u, sign):
    """One step: mu takes its tail, with the magnitude that u draws."""
    return [[(1 + mu._cuts[-1]) / 2, u, 0.25 if sign > 0 else 0.75]]


def _tail_to(mu, n):
    """One step: a tail draw of exactly n, 0 < |n| < 2^28."""
    sampler = mu._sampler
    j = abs(n)
    u = sampler._table[j - 1] if j <= PowerLawSampler.TABLE else sampler._cdf(j)
    assert abs(sampler.sample_signed(_FixedUniform(u))) == j
    return _tail_draw(mu, u, n)


def _far_start(hs, target):
    """A start (A + sqrt 3)/2^60, small enough to intern, whose image under
    hs lies above target by at most 2^-36, for target in [2, 2046].

    hs is increasing, so A is found by bisection on exact compares.  The
    image has B and D of more than 128 bits together, so a tail draw that
    takes it outside every hull enters the far state.
    """

    def start(A):
        return q(Fraction(A, 2**60), Fraction(1, 2**60), 3)

    lo, hi = 7 * 2**58, 2**61 - 2**49  # hs maps these starts to 2 and about 2046
    assert hs.apply(start(lo)) <= target < hs.apply(start(hi))
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if hs.apply(start(mid)) > target:
            hi = mid
        else:
            lo = mid
    assert hs.apply(start(hi)) <= target + q(Fraction(1, 2**36))
    return start(hi)


def _enters_far_state(walker, x):
    """The far state's entry test at a raw point x reached by a move."""
    A, B, D, _ = x
    f, e = qn_approx(x)
    lo_f, lo_e, hi_f, hi_e = walker.far_hull
    return (
        B.bit_length() + D.bit_length() > walker.share_bits
        and abs(f) < 2.0**1000
        and (lo_f - f > e + lo_e or f - hi_f > e + hi_e)
    )


def _random_steps(seed, steps):
    """Random steps, with three draws each: enough for an atom or a tail."""
    rng = random.Random(f"far:{seed}")
    return [[rng.random() for _ in range(3)] for _ in range(steps)]


def _each_atom(mu):
    return [[_atom_draw(mu, ai)] for ai in range(len(mu.atoms))]


def _assert_run_matches_oracle(walker, mu, start, steps, freeze_bits):
    draws = [u for step in steps for u in step]
    got = walker.run(start, len(steps), _Draws(draws), freeze_bits)
    want = _oracle_run(mu, start, len(steps), _Draws(draws), freeze_bits)
    assert got == want
    return got


@pytest.mark.parametrize("freeze_bits", [1500, None])
@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("edge", ["lo", "hi"])
def test_far_state_near_a_hull_edge_after_a_large_offset(pre3, wmu, edge, side, freeze_bits):
    """A far walk is taken about 3e7 out and brought back to within 2^-29 of
    an edge of the union hull, on either side.  Its widened enclosure
    cannot place the point, so the walk builds it; just inside, the atom
    of that edge moves it.  The lower edge belongs to the companion atoms,
    whose hull is not the first atom's."""
    walker = _MeasureWalker(wmu, SQRT3)
    breaks = [m.breaks for m, _ in wmu.atoms]
    if edge == "lo":
        at, m = min(b[0] for b in breaks), -1000
        assert at < breaks[0][0]
    else:
        at, m = max(b[-1] for b in breaks), 5000
    delta = q(Fraction(side, 2**30))
    hs = wmu.atoms[0][0]
    start = _far_start(hs, at + delta - m)
    assert _bit_size(start) <= walker.share_bits
    y = hs.apply(start)
    big = 3 * 10**7
    assert _enters_far_state(walker, y + big)
    assert (y + m > at) == (side > 0)  # within 2^-29 of the edge, on that side
    steps = [[_atom_draw(wmu, 0)]] + _tail_to(wmu, big) + _each_atom(wmu)
    steps += _tail_to(wmu, m - big) + _each_atom(wmu) + _random_steps(edge, 200)
    _, _, x, _ = _assert_run_matches_oracle(walker, wmu, start, steps, freeze_bits)
    assert x != y + m  # the walk went on from the edge


@pytest.mark.parametrize("freeze_bits", [1500, None])
def test_far_state_offsets_above_2_53(pre3, freeze_bits):
    """A tail of t = 2^53 + 1: float(off) rounds for every offset, and the
    walk comes back to the entry point's image under the atom."""
    hs, companion = pre3.hs.map, pre3.companion
    t = 2**53 + 1
    mu = witness_measure(hs, companion, pm_from_matrix(ProjectiveMatrix.translation(t)))
    walker = _MeasureWalker(mu, SQRT3)
    start = _far_start(hs, q(1000))
    y = hs.apply(start)
    assert _enters_far_state(walker, y + t)
    assert float(t) != t
    steps = [[_atom_draw(mu, 0)]] + _tail_to(mu, 1)
    for n in (1, 2, -1, 5, -8):  # offsets t, 3t, 2t, 7t and -t: back at y
        steps += _each_atom(mu) + _tail_to(mu, n)
    steps += _each_atom(mu) + _random_steps("2^53", 200)
    _assert_run_matches_oracle(walker, mu, start, steps, freeze_bits)


@pytest.mark.parametrize("freeze_bits", [1500, None])
def test_far_state_left_when_float_of_the_offset_overflows(pre3, freeze_bits):
    """A tail of t = 2^970 draws a magnitude near 2^61, an offset beyond the
    float range: the walk leaves the far state, and enters it again when a
    draw brings the offset back."""
    hs, companion = pre3.hs.map, pre3.companion
    t = 2**970
    mu = witness_measure(hs, companion, pm_from_matrix(ProjectiveMatrix.translation(t)))
    walker = _MeasureWalker(mu, SQRT3)
    start = _far_start(hs, q(1000))
    assert _enters_far_state(walker, hs.apply(start) + t)
    u = 1 - 2.0**-50
    with pytest.raises(OverflowError):
        float(abs(mu._sampler.sample_signed(_FixedUniform(u))) * t)
    steps = [[_atom_draw(mu, 0)]] + _tail_to(mu, 1) + _each_atom(mu)
    steps += _tail_draw(mu, u, 1) + _each_atom(mu) + _tail_draw(mu, u, -1) + _each_atom(mu)
    steps += _tail_to(mu, -1) + _each_atom(mu) + _random_steps("2^1030", 100)
    _assert_run_matches_oracle(walker, mu, start, steps, freeze_bits)


def test_far_state_tail_crosses_the_freeze_bound(pre3, wmu):
    """Freeze bounds a few bits above the far state's entry point x0: the
    tail draw that passes the bound must freeze the walk at the oracle's step.

    The first case is tight: a draw n with bits(n) + bits(D0) at least two
    bits above bits(A0), whose add carries, so that A0 + n*D0 has one bit
    more than both terms (the bit bound's + 1), and a bound that this one
    bit passes.  (The start is chosen for a D0 whose leading bits allow it.)
    """
    walker = _MeasureWalker(wmu, SQRT3)
    hs = wmu.atoms[0][0]
    start = _far_start(hs, q(257))
    x0 = hs.apply(start) + 6100
    assert _enters_far_state(walker, x0)
    A0, B0, D0, _ = x0
    bd = B0.bit_length() + D0.bit_length()
    enter = [[_atom_draw(wmu, 0)]] + _tail_to(wmu, 6100) + _each_atom(wmu)
    carry = next(
        n
        for n in range(1, PowerLawSampler.TABLE + 1)
        if (A0 + n * D0).bit_length() == n.bit_length() + D0.bit_length() + 1
        and A0.bit_length() <= n.bit_length() + D0.bit_length() - 1
    )
    freeze_bits = (A0 + carry * D0).bit_length() - 1 + bd
    steps = enter + _tail_to(wmu, carry) + _random_steps("carry", 20)
    got = _assert_run_matches_oracle(walker, wmu, start, steps, freeze_bits)
    assert got[3] == 7
    for extra in range(8):
        freeze_bits = _bit_size(x0) + extra
        steps = list(enter)
        for n in (3, -40, 700, 9000, 16384, 10**5, 3 * 10**6):
            steps += _tail_to(wmu, n) + _each_atom(wmu)
        got = _assert_run_matches_oracle(walker, wmu, start, steps, freeze_bits)
        assert got[3] is not None and got[3] > 2


@pytest.mark.parametrize("freeze_bits", [1500, None])
def test_far_state_off_for_a_start_above_the_intern_bound(pre3, wmu, freeze_bits):
    """A raw start outside every hull, with B and D past the intern bound:
    the walk keeps its visits to the start, counted by comparing points."""
    walker = _MeasureWalker(wmu, SQRT3)
    hs = wmu.atoms[0][0]
    start = hs.apply(_far_start(hs, q(1000))) + 7000
    assert _bit_size(start) > walker.share_bits
    assert _enters_far_state(walker, start)
    steps = _each_atom(wmu) + _tail_to(wmu, 3) + _each_atom(wmu)
    steps += _tail_to(wmu, -3) + _each_atom(wmu) + _random_steps("raw", 200)
    got = _assert_run_matches_oracle(walker, wmu, start, steps, freeze_bits)
    assert got[1][:8] == [1, 2, 3, 4, 10, 11, 12, 13]


def test_far_state_off_for_points_raw_by_their_a_alone(wmu):
    """A start outside every hull and just inside the intern bound, left by
    a tail draw whose A alone passes the bound: its B and D could come back
    into the table, so the walk must not go far, and it sees the return."""
    walker = _MeasureWalker(wmu, SQRT3)
    start = q(Fraction(-(2**64) - 1, 2**63 - 1))
    assert _bit_size(start) <= walker.share_bits < _bit_size(start - 6)
    steps = _tail_to(wmu, -6) + _each_atom(wmu) + _tail_to(wmu, 6) + _random_steps("a", 50)
    got = _assert_run_matches_oracle(walker, wmu, start, steps, 1500)
    assert got[1][0] == 6


# SHA-256 over (changes, visits, x, frozen_at) of 40 witness trajectories
# (T = 5000, seed 7), recorded with the kernel before it had a far state
PINNED_WITNESS_DIGESTS = {
    1500: "f9c9045e7f28f2c7e7efebabc3eedd5ff2904ac358ee3d8509a55b78637d07bb",
    None: "0e0389f90058150195164cf3325dc693f254ae09e9ecd1958568638301691ef0",
}


@pytest.mark.parametrize("freeze_bits", [1500, None])
def test_witness_trajectories_are_pinned(wmu, freeze_bits):
    walker = _MeasureWalker(wmu, SQRT3)
    digest = hashlib.sha256()
    for t in range(40):
        changes, visits, x, frozen_at = walker.run(SQRT3, 5000, trajectory_rng(7, t), freeze_bits)
        digest.update(repr((changes, visits, tuple(x), frozen_at)).encode())
    assert digest.hexdigest() == PINNED_WITNESS_DIGESTS[freeze_bits]


def test_seed_determinism(wmu):
    r1 = nontriviality_witness(wmu, SQRT3, 400, 40, 123)
    r2 = nontriviality_witness(wmu, SQRT3, 400, 40, 123)
    assert r1 == r2
    r3 = nontriviality_witness(wmu, SQRT3, 400, 40, 124)
    assert r3 != r1


def test_threads_keyword_selects_nothing(wmu):
    # threads=1 is still passed by the perfbench workloads; no other value runs
    witness = nontriviality_witness(wmu, SQRT3, 300, 24, 9)
    assert nontriviality_witness(wmu, SQRT3, 300, 24, 9, threads=1) == witness
    mu = uniform_measure([A1, A1.inverse()])
    returns = estimate_returns(mu, q(0), [500], 40, 3)
    assert estimate_returns(mu, q(0), [500], 40, 3, threads=1) == returns
    with pytest.raises(ValueError):
        nontriviality_witness(wmu, SQRT3, 300, 24, 9, threads=2)
    with pytest.raises(ValueError):
        estimate_returns(mu, q(0), [500], 40, 3, threads=2)


# -- the forked trajectory loop -------------------------------------------------


@pytest.fixture
def workers(monkeypatch):
    """Sets the loop's worker count; afterwards, asserts that no child is left."""

    def use(count):
        monkeypatch.setattr(walk, "_worker_count", lambda: count)

    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _six_reports(wmu):
    z = uniform_measure([A1, A1.inverse()])
    return [
        nontriviality_witness(wmu, SQRT3, 300, 7, 9),
        estimate_returns(z, q(0), [150, 300], 7, 3).as_dict(),
        estimate_tree_returns([150, 300], 7, 3).as_dict(),
        summability_diagnostic(wmu, SQRT3, SQRT3, 200, 7, 5),
        lamplighter_demo(Fraction(4, 5), 300, 7, 11, True),
        entropy_estimate(wmu, 4, 7, 13),
    ]


def test_reports_equal_at_every_worker_count(wmu, workers):
    workers(1)
    serial = _six_reports(wmu)
    rows = [trajectory_rng(4, t).getrandbits(64) for t in range(7)]
    for count in (2, 3, 50):
        workers(count)
        assert _six_reports(wmu) == serial, count
        assert _run_trajectories(lambda rng: rng.getrandbits(64), 7, 4) == rows, count


class _PairError(Exception):
    # unpickling calls _PairError(message), which needs two arguments
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_exception_in_a_child_reaches_the_caller(workers):
    parent = os.getpid()

    def fails_in_children(error):
        def run(rng):
            if os.getpid() != parent:
                raise error
            return 0

        return run

    workers(3)
    with pytest.raises(ValueError, match="^trajectory failed$"):
        _run_trajectories(fails_in_children(ValueError("trajectory failed")), 7, 1)
    with pytest.raises(RuntimeError, match="^_PairError: 7: no row$"):
        _run_trajectories(fails_in_children(_PairError(7, "no row")), 7, 1)


def test_exception_in_the_parent_slice_kills_the_children(workers):
    parent = os.getpid()

    def run(rng):
        if os.getpid() == parent:
            raise KeyError("parent slice")
        time.sleep(20)
        return 0

    workers(3)
    start = time.perf_counter()
    with pytest.raises(KeyError, match="parent slice"):
        _run_trajectories(run, 7, 1)
    assert time.perf_counter() - start < 10


def test_failed_fork_runs_the_slice_in_the_parent(workers, monkeypatch):
    def no_fork():
        raise BlockingIOError("no process available")

    monkeypatch.setattr(os, "fork", no_fork)
    workers(3)
    rows = _run_trajectories(lambda rng: rng.getrandbits(64), 7, 4)
    assert rows == [trajectory_rng(4, t).getrandbits(64) for t in range(7)]


def test_one_worker_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert walk._worker_count() == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_import_loads_neither_multiprocessing_nor_pickle():
    code = (
        "import sys, pwproj, pwproj.cli, pwproj.walk\n"
        "print(sorted({'multiprocessing', 'pickle'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _returns_on_z_exact(n):
    """E #{1 <= m <= n : S_m = 0} for the simple +-1 walk: sum_j C(2j, j) / 4^j."""
    j = n // 2
    return Fraction((2 * j + 1) * math.comb(2 * j, j), 4**j) - 1


def test_returns_on_z():
    mu = uniform_measure([A1, A1.inverse()])
    rep = estimate_returns(mu, q(0), [4000], 400, 42)
    expect = math.sqrt(2 * 4000 / math.pi)
    assert abs(rep.means[0] - expect) / expect < 0.10
    exact = float(_returns_on_z_exact(4000))
    assert abs(rep.means[0] - exact) <= 3 * rep.stderrs[0]


def test_returns_on_z_exact_oracle():
    for n in range(1, 13):
        visits = 0
        for path in itertools.product((1, -1), repeat=n):
            pos = 0
            for step in path:
                pos += step
                visits += pos == 0
        assert Fraction(visits, 2**n) == _returns_on_z_exact(n)


@pytest.mark.parametrize("bits", [200, 600])
def test_returns_from_a_start_above_the_intern_bound(bits):
    # a walk on Z + 2^bits is the walk on Z: the same returns, although
    # its points are too large for the intern table
    mu = uniform_measure([A1, A1.inverse()])
    start = q(2**bits)
    assert _bit_size(start) > _MeasureWalker(mu, start).share_bits
    small = estimate_returns(mu, q(0), [50, 300], 30, 4)
    large = estimate_returns(mu, start, [50, 300], 30, 4)
    assert small.means[-1] > 0
    assert large.means == small.means


def test_hull_skips_at_a_start_above_the_intern_bound(pre3):
    # 2^200 lies far outside the hull of hs and above share_bits: the first
    # step is an exact apply that fixes the point, and every later step is
    # a hull skip that must still count the visit to the start
    hs = pre3.hs.map
    mu = uniform_measure([hs, hs.inverse()])
    start = q(2**200)
    assert _bit_size(start) > _MeasureWalker(mu, start).share_bits
    assert estimate_returns(mu, start, [50], 3, 1).means == [50.0]


def test_returns_point_mass_fixed(pre3):
    mu = point_mass(pre3.hs.map)
    rep = estimate_returns(mu, SQRT3, [50], 3, 1)
    assert rep.means[0] == 50  # fixed point: returns every step


def test_returns_prechain_saturates():
    rep = estimate_tree_returns([5000, 10000], 400, 7)
    assert rep.means[1] >= rep.means[0]
    assert rep.means[1] - rep.means[0] < 0.05 * rep.means[0]


def _tree_root_weights(h):
    """4^n P(the prechain tree walk is at the root after step n), n = 0..h.

    A DP over (tree depth, ray depth) states with integer path weights:
    a move has weight 1 (probability 1/4), a loop weight 2 (1/2).  A state
    with depth + ray > h - n cannot reach the root by step h and is dropped.
    """
    weights = [1]
    states = {(0, 0): 1}
    for n in range(1, h + 1):
        reach = h - n
        nxt = {}
        for (d, r), w in states.items():
            if r:
                moves = (((d, r + 1), w), ((d, r - 1), w), ((d, r), 2 * w))
            elif d == 0:
                moves = (((1, 0), w), ((0, 1), w), ((0, 0), 2 * w))
            else:
                moves = (((d - 1, 0), w), ((d + 1, 0), 2 * w), ((d, 1), w))
            for state, v in moves:
                if sum(state) <= reach:
                    nxt[state] = nxt.get(state, 0) + v
        states = nxt
        weights.append(states.get((0, 0), 0))
    return weights


def _tree_root_series(h):
    """4^n [z^n] G, n = 0..h, from the first-passage generating functions.

    F = z/4 + (z/2)F + (z/4)F^2 (a ray excursion), U = z/4 + (z/2)U^2 +
    (z/4)FU (first passage to the parent), R = z/2 + (z/4)U + (z/4)F (first
    return to the root) and G = 1/(1 - R).  Scaled by 4^n, every
    coefficient is an integer.
    """
    f, u, r, g = [0], [0], [0], [1]
    for n in range(1, h + 1):
        m = n - 1
        f.append((n == 1) + 2 * f[m] + sum(f[i] * f[m - i] for i in range(n)))
        u.append(
            (n == 1)
            + 2 * sum(u[i] * u[m - i] for i in range(n))
            + sum(f[i] * u[m - i] for i in range(n))
        )
        r.append(2 * (n == 1) + u[m] + f[m])
        g.append(sum(r[i] * g[n - i] for i in range(1, n + 1)))
    return g


def _tree_mean_visits(horizons):
    """Exact mean root visits of the prechain tree walk by each horizon."""
    weights = _tree_root_weights(max(horizons))
    return [sum(Fraction(weights[n], 4**n) for n in range(1, h + 1)) for h in horizons]


def test_prechain_tree_exact_means():
    assert _tree_root_weights(60) == _tree_root_series(60)
    at10, at100 = _tree_mean_visits([10, 100])
    assert round(float(at10), 7) == 2.2685051
    assert round(float(at100), 7) == 4.6752234


def test_prechain_returns_match_exact_means():
    horizons = [10, 60, 100]
    rep = estimate_tree_returns(horizons, 4000, 11)
    for mean, se, exact in zip(rep.means, rep.stderrs, _tree_mean_visits(horizons)):
        assert abs(mean - exact) <= 4 * se, (mean, se, float(exact))


def test_summability_translation_never_hits():
    mu = uniform_measure([A1, A1.inverse()])
    rep = summability_diagnostic(mu, SQRT3, SQRT3, 100, 20, 3)
    assert all(v == 0 for v in rep["per_step_hit_mass"])
    assert rep["atom_l1_mass"] == "0"


def test_summability_degenerate_diverges(pre3):
    mu = point_mass(pre3.hs.map)
    rep = summability_diagnostic(mu, SQRT3, SQRT3, 50, 5, 3)
    assert rep["per_step_hit_mass"] == [1.0] * 50
    assert rep["cumulative"][-1] == 50.0


def test_summability_witness_flattens(wmu):
    rep = summability_diagnostic(wmu, SQRT3, SQRT3, 2000, 150, 11)
    cum = rep["cumulative"]
    last_decile = cum[-1] - cum[int(0.9 * len(cum))]
    assert last_decile < 0.10 * cum[-1]
    assert rep["atom_l1_mass"] == "3/8"  # two delta atoms at weight 3/16


def test_witness_abelian_control_fails():
    mu = uniform_measure([A1, A1.inverse()])
    rep = nontriviality_witness(mu, SQRT3, 400, 60, 5)
    assert rep["verdict"] == "FAIL"
    assert rep["value_histogram"] == {"0": 60}


def test_witness_deterministic_drift_fails(pre3):
    mu = point_mass(pre3.hs.map)
    rep = nontriviality_witness(mu, SQRT3, 100, 10, 5)
    assert rep["stabilized_fraction"] == 0.0
    assert rep["verdict"] == "FAIL"


def test_witness_succeeds_modest_scale(wmu):
    rep = nontriviality_witness(wmu, SQRT3, 4000, 150, 7)
    assert rep["verdict"] == "SUCCEED"
    assert rep["stabilized_fraction"] >= 0.95
    assert len(rep["frequent_values"]) >= 2


def test_entropy_point_mass(pre3):
    rep = entropy_estimate(point_mass(pre3.hs.map), 4, 50, 3)
    assert rep["entropy_nats"] == 0.0


def test_entropy_two_atoms():
    mu = uniform_measure([A1, A1.inverse()])
    rep = entropy_estimate(mu, 1, 4000, 9)
    sigma = 3 * math.log(2) / math.sqrt(4000)
    assert abs(rep["entropy_nats"] - math.log(2)) < max(0.05, sigma)


def test_entropy_rate_nonincreasing(wmu):
    rates = [
        entropy_estimate(wmu, n, 400, 13)["entropy_rate"] for n in (2, 4, 8)
    ]
    # true rates are subadditive; allow plug-in bias slack
    assert rates[1] <= rates[0] + 0.05
    assert rates[2] <= rates[1] + 0.05


def test_lamplighter_heavy_vs_control():
    heavy = lamplighter_demo(Fraction(4, 5), 4000, 300, 7, True)
    control = lamplighter_demo(Fraction(4, 5), 4000, 300, 7, False)
    assert heavy["stabilized_fraction"] >= 0.95
    # recurrent control: the last origin toggle follows the arcsine law, so
    # the fraction concentrates near 1/2 (approached from above), far from
    # the transient run
    assert 0.40 <= control["stabilized_fraction"] <= 0.62
    assert heavy["stabilized_fraction"] - control["stabilized_fraction"] >= 0.30
    longer = lamplighter_demo(Fraction(4, 5), 8000, 300, 7, True)
    assert longer["stabilized_fraction"] >= heavy["stabilized_fraction"] - 0.02
