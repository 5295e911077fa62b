import hashlib
import itertools
import json
import math
import os
import random
import select
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from pwproj.exactnum import (
    QuadraticNumber,
    canonical_key,
    point_to_text,
    qn_approx,
    qn_compare,
    qn_normalize,
)
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
    estimate_returns,
    lamplighter_demo,
    nontriviality_witness,
    simulate_config_walk,
    summability_diagnostic,
    trajectory_rng,
    tree_mean_returns,
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
    assert configuration(x1, SQRT3).entries == {}
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
    mu = GroupMeasure([(pre3.hs.map, Fraction(1))])
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
    expect = 1 / sampler.norm  # P(1) = 1 / zeta(1 + alpha)
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


def _guide_probes(sampler):
    """Uniform draws where a guided search could go wrong: each bucket edge
    i/G, each cdf value of the table, both float neighbours of each, 0, the
    table's last cdf and the next float above it."""
    table = sampler._table
    probes = {0.0, table[-1], math.nextafter(table[-1], 1)}
    edges = [i / PowerLawSampler.GUIDE for i in range(PowerLawSampler.GUIDE + 1)]
    for v in edges + table:
        probes |= {v, math.nextafter(v, 0), math.nextafter(v, 1)}
    return sorted(u for u in probes if 0 <= u < 1)


@pytest.mark.parametrize(
    "alpha", [Fraction(1, 1000), Fraction(1, 2), Fraction(4, 5), Fraction(999, 1000)], ids=str
)
def test_power_law_guided_search_matches_a_full_bisection(alpha):
    # the guide narrows bisect_left(_table, u) to one bucket's range: the
    # same index as a search of the whole table, at every edge of a bucket
    # or of a table entry; above the table the analytic tail takes over
    sampler = PowerLawSampler(alpha)
    table = sampler._table
    assert len(sampler._guide) == PowerLawSampler.GUIDE + 1
    for u in _guide_probes(sampler):
        want = bisect_left(table, u) + 1 if u <= table[-1] else sampler._beyond_table(u)
        assert abs(sampler.sample_signed(_FixedUniform(u))) == want, u


def test_walk_kernel_tail_draw_matches_a_full_bisection():
    # the walk kernel's own copy of the guided draw: one tail step of +j
    # from 0, with a translation atom, so that no far state takes the step
    sampler = PowerLawSampler(Fraction(4, 5))
    mu = GroupMeasure([(A1, Fraction(3, 4))], TailSpec(A1, Fraction(4, 5), Fraction(1, 4)))
    walker = _MeasureWalker(mu, q(0))
    table = sampler._table
    for u in _guide_probes(sampler):
        want = bisect_left(table, u) + 1 if u <= table[-1] else sampler._beyond_table(u)
        assert walker.run(q(0), 1, _Draws([0.875, u, 0.25]), None)[2] == q(want), u


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
    # each atom's inverse is an atom of the same weight
    weights = dict(wmu.atoms)
    assert all(weights.get(m.inverse()) == w for m, w in wmu.atoms)
    rng = random.Random(21)
    walker = _MeasureWalker(wmu, SQRT3)
    signs = 0
    n = 300
    for t in range(n):
        x = walker.run(SQRT3, 60, trajectory_rng(77, t), 1500)[2]
        diff = x - SQRT3 if x.k in (1, 3) else None
        if diff is None:
            continue
        signs += (diff > 0) - (diff < 0)
    assert abs(signs) < 3 * math.sqrt(n)


def test_simulate_config_walk_degenerate(pre3):
    mu = GroupMeasure([(pre3.hs.map, Fraction(1))])
    report = simulate_config_walk(mu, SQRT3, SQRT3, 50, random.Random(1))
    assert report["value"] == 50  # value climbs every step, point stays put
    assert report["final_point"] == point_to_text(SQRT3)
    mu2 = GroupMeasure([(A1, Fraction(1))])
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
        expected = configuration(product, SQRT3).entries.get(SQRT3, 0)
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
            delta = confs[h].entries.get(x, 0)
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
    """Atoms with and without identity end pieces, the integer tail and the
    intern bound against the oracle.

    no_hull: two atoms are hs after a translation, whose end pieces are not
    the identity, so they fix no point outside their breaks.  one_no_hull: only
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
    ends = [m.pieces[0].is_identity and m.pieces[-1].is_identity for m, _ in mu.atoms]
    if case == "no_hull":
        assert ends == [False, False, True, True]
    elif case == "one_no_hull":
        assert ends == [False, True, True, True]
    else:
        assert all(ends)
    assert (walker.far_bounds is None) == (case in ("no_hull", "one_no_hull"))
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


def test_apply_near_breaks_is_exact(wmu):
    """Raw points within 2^-60 of an atom's first or last break, on either
    side: piece_index's float test cannot place them, so apply decides by
    exact compares, and a walk step there is that exact apply.  Points
    strictly outside the first and last break are the atom's fixed points:
    apply returns the point itself.

    Two kinds of point: b +- 2^-64, and b +- (p - q*sqrt(k)) for
    convergents p/q of sqrt(k) with p of 71 to 110 bits, whose float value
    cancels so badly that it can lie on the wrong side of b.
    """
    tail = TailSpec(A1, Fraction(4, 5), Fraction(1, 2))
    tiny = q(Fraction(1, 2**64))
    moved = outside = wrong_side = 0
    for atom, _ in wmu.atoms:
        walker = _MeasureWalker(GroupMeasure([(atom, Fraction(1, 2))], tail), SQRT3)
        assert walker.far_bounds is not None  # the atom's end pieces are the identity
        first, last = atom.breaks[0], atom.breaks[-1]
        for x in (first - 7000, first - 1, last + 1, last + 7000):
            assert atom.apply(x) is x
        for b in (first, last):
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
                if qn_compare(x, first) < 0 or qn_compare(x, last) > 0:
                    assert atom.apply(x) is x
                    outside += 1
                fx = qn_approx(x)[0]
                wrong_side += fx != fb and (fx > fb) != (qn_compare(x, b) > 0)
    assert moved  # some of these points lie inside the atom's support
    assert outside  # and some outside it
    assert wrong_side  # and only the error bound keeps them from the wrong piece


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
    """A table hit moves the walk's row alone; the point is read back, by
    the id at the row's end, where it is used.  A run whose last step is a
    hit returns that point; an exact apply and a tail draw right after hits
    start from it."""
    atoms = [m for m, _ in wmu.atoms]
    walker = _MeasureWalker(wmu, SQRT3)

    def points_on(path):
        xs = [SQRT3]
        for ai in path:
            xs.append(atoms[ai].apply(xs[-1]))
        return xs

    def changes_at(y, ai):
        return walker.atom_confs[ai].entries.get(y, 0)

    # three steps, each to a new point small enough to be interned, and
    # none of them a step that changes the configuration (which the table
    # never holds)
    path = next(
        path
        for path in itertools.product(range(len(atoms)), repeat=3)
        if len(set(points_on(path))) == 4
        and all(_bit_size(y) <= walker.share_bits for y in points_on(path))
        and not any(changes_at(y, ai) for y, ai in zip(points_on(path), path))
    )
    x = points_on(path)[-1]
    draws = [_atom_draw(wmu, ai) for ai in path]
    # first run: every step an exact apply, which fills the rows
    first = walker.run(SQRT3, len(path), _Draws(draws), None)
    assert first[2] == x
    row = walker.rows[walker.intern(SQRT3)]
    for ai in path:
        assert row[ai] is not None
        row = row[ai]
    assert walker.points[row[-1]] == x
    # the same steps again: all table hits, the last one included
    assert walker.run(SQRT3, len(path), _Draws(draws), None) == first
    # hits, then the tail: magnitude 1, sign +
    tail = [1 - 1 / 1024, 0.0, 0.0]
    _, _, y, _ = walker.run(SQRT3, len(path) + 1, _Draws(draws + tail), None)
    assert y == x + 1
    # hits, then an atom at a point where its successor is not yet known
    ai = next(i for i in range(len(atoms)) if row[i] is None)
    _, _, y, _ = walker.run(SQRT3, len(path) + 1, _Draws(draws + [_atom_draw(wmu, ai)]), None)
    assert y == atoms[ai].apply(x)


def _assert_rows_are_the_atoms_images(walker, atoms):
    """Every row ends in a None tail slot and its own id; every per-atom
    slot that the walk filled holds the row of the point that the atom's
    exact apply gives, and a slot whose step changes the configuration
    holds none.  Returns the counts of filled slots that the atom fixes,
    that it moves, and of slots that change the configuration."""
    natoms = len(atoms)
    fixed = moved = changing = 0
    for pid, (x, row) in enumerate(zip(walker.points, walker.rows)):
        assert len(row) == natoms + 2
        assert row[natoms] is None and row[-1] == pid
        delta = walker.deltas[pid]
        for ai, slot in enumerate(row[:natoms]):
            if delta is not None and delta[ai]:
                assert slot is None
                changing += 1
            elif slot is not None:
                assert slot is walker.rows[slot[-1]]
                assert canonical_key(atoms[ai].apply(x)) == canonical_key(walker.points[slot[-1]])
                fixed += slot is row
                moved += slot is not row
    return fixed, moved, changing


def test_filled_successor_slots_are_the_atoms_images(wmu):
    # every successor slot that the walk learned holds the row of the point
    # that the atom's exact apply gives, the point's own row where the atom
    # fixes it
    walker = _MeasureWalker(wmu, SQRT3)
    changes = 0
    for t in range(20):
        changes += len(walker.run(SQRT3, 2000, trajectory_rng(3, t), 1500)[0])
    fixed, moved, changing = _assert_rows_are_the_atoms_images(walker, [m for m, _ in wmu.atoms])
    assert fixed and moved, (fixed, moved)
    # the walks changed the configuration, at interned points whose slots
    # for those steps hold no row
    assert changes and changing, (changes, changing)


def test_table_runs_match_the_oracle_on_the_prechain_measure(pre3):
    """The walk uniform on f^+-1 and g^+-1 from b, which is the base point:
    g and g^-1 change the configuration at b, an interned point, so a table
    run breaks there and that step takes the exact apply.  A walker reused
    across the runs gives what the stepwise oracle gives on every run, when
    the run's last step is a table hit and when it is an exact apply."""
    f, g = pre3.f, pre3.g
    mu = uniform_measure([f, f.inverse(), g, g.inverse()])
    start = pre3.b
    assert start == SQRT3
    walker = _MeasureWalker(mu, SQRT3)
    assert any(conf.entries.get(start) for conf in walker.atom_confs)
    last_hit = last_apply = changes = visits = 0
    for seed in range(40):
        rng = random.Random(f"table-runs:{seed}")
        steps = rng.randrange(1, 80)
        draws = [rng.random() for _ in range(steps)]
        # the last step's point and atom; a slot the table knew before the
        # run makes that step a table hit
        points, _ = _oracle_path(mu, steps, _Draws(draws), None, start=start)
        pid = walker.registry.get(canonical_key(([start] + points)[-2]))
        hit = pid is not None and walker.rows[pid][bisect_right(mu._cuts, draws[-1])] is not None
        got = walker.run(start, steps, _Draws(draws), 1500)
        assert got == _oracle_run(mu, start, steps, _Draws(draws), 1500), seed
        last_hit += hit
        last_apply += not hit
        changes += len(got[0])
        visits += len(got[1])
    assert last_hit and last_apply, (last_hit, last_apply)
    assert changes and visits, (changes, visits)
    _assert_rows_are_the_atoms_images(walker, [m for m, _ in mu.atoms])


# -- the far state: points a tail draw takes outside the atoms' hulls -----------


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
    image has B and D of more than 128 bits together, a raw point.  The
    start lies in hs's hull, and so in the walker's span, so a tail draw
    that takes the image outside every hull enters the far state.
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


def _enters_far_state(walker, x, freeze_bits=1500):
    """The far state's entry test at a point x, interned or raw, reached by
    a tail draw in a run whose start is not raw and lies in walker.span:
    off = 0 passes the stay test."""
    off_lo, off_hi, lim = walker.far_entry(x, freeze_bits)
    return -lim < 0 <= off_lo or off_hi <= 0 < lim


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
    an edge of the span, on either side.  The integer bounds cannot place
    the point, so the walk builds it; just inside, the atom of that edge
    moves it.  The lower edge belongs to the companion atoms, whose hull is
    not the first atom's."""
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
def test_far_state_offsets_beyond_the_float_range(pre3, freeze_bits):
    """A tail of t = 2^970 draws a magnitude near 2^61, an offset beyond the
    float range: the integer bounds keep the walk far, the opposite draw
    brings the offset back to 0, and a last draw of -t leaves the far
    state at the entry point's image under the atom."""
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
    a tail draw whose A alone passes the bound.  The start lies below the
    span, so the run has no far state, and it sees the return; in a far
    state the tail back to the start would stay outside span."""
    walker = _MeasureWalker(wmu, SQRT3)
    start = q(Fraction(-(2**64) - 1, 2**63 - 1))
    assert _bit_size(start) <= walker.share_bits < _bit_size(start - 6)
    steps = _tail_to(wmu, -6) + _each_atom(wmu) + _tail_to(wmu, 6) + _random_steps("a", 50)
    got = _assert_run_matches_oracle(walker, wmu, start, steps, 1500)
    assert got[1][0] == 6


@pytest.mark.parametrize("freeze_bits", [1500, None])
def test_far_state_from_an_interned_point(wmu, freeze_bits):
    """A tail draw at the interned start SQRT3 lands outside span with
    small B and D: it goes far without interning, and the exactly opposite
    tail after further draws brings it back, a visit at the oracle's step."""
    walker = _MeasureWalker(wmu, SQRT3)
    assert _enters_far_state(walker, SQRT3 + 7000)
    assert _bit_size(SQRT3 + 7000) <= walker.share_bits
    steps = _tail_to(wmu, 7000) + _each_atom(wmu) + _tail_to(wmu, 5) + _each_atom(wmu)
    steps += _tail_to(wmu, -7005)
    got = _assert_run_matches_oracle(walker, wmu, SQRT3, steps, freeze_bits)
    assert got[1] == [11]
    assert walker.points == [SQRT3]  # the excursion interned nothing
    _assert_run_matches_oracle(
        walker, wmu, SQRT3, steps + _random_steps("interned", 300), freeze_bits
    )


@pytest.mark.parametrize("freeze_bits", [1500, None])
@pytest.mark.parametrize("where", ["lo", "hi", "below_lo", "above_hi"])
def test_far_state_for_a_start_at_an_edge_of_the_span(wmu, where, freeze_bits):
    """A start at the least first break or the greatest last break lies in
    the closed span, so its excursions go far; 2^-20 outside, the run has
    no far state, where a far walk would miss the return.  Every atom fixes
    each of these starts, so every atom step visits it."""
    walker = _MeasureWalker(wmu, SQRT3)
    lo, hi = walker.span
    assert lo == min(m.breaks[0] for m, _ in wmu.atoms)
    assert hi == max(m.breaks[-1] for m, _ in wmu.atoms)
    tiny = q(Fraction(1, 2**20))
    start = {"lo": lo, "hi": hi, "below_lo": lo - tiny, "above_hi": hi + tiny}[where]
    away = -7000 if where.endswith("lo") else 7000
    assert _enters_far_state(walker, start + away)
    steps = _each_atom(wmu) + _tail_to(wmu, away) + _each_atom(wmu) + _tail_to(wmu, -away)
    steps += _each_atom(wmu)
    got = _assert_run_matches_oracle(walker, wmu, start, steps, freeze_bits)
    assert got[1] == [1, 2, 3, 4, 10, 11, 12, 13, 14]
    assert (walker.points == [start]) == (where in ("lo", "hi"))
    _assert_run_matches_oracle(walker, wmu, start, steps + _random_steps(where, 300), freeze_bits)


def _far_entry_points(pre3, wmu):
    """Entry points of the far-state tests above, and seeded random points
    of up to about 2^999 in size, rational and in Q(sqrt 3)."""
    hs = wmu.atoms[0][0]
    breaks = [m.breaks for m, _ in wmu.atoms]
    lo_edge, hi_edge = min(b[0] for b in breaks), max(b[-1] for b in breaks)
    points = []
    for at, m in ((lo_edge, -1000), (hi_edge, 5000)):
        for side in (1, -1):
            y = hs.apply(_far_start(hs, at + q(Fraction(side, 2**30)) - m))
            points += [y + 3 * 10**7, y + m]
    y = hs.apply(_far_start(hs, q(1000)))
    t = 2**970
    points += [y + 2**53 + 1, y + 7 * (2**53 + 1), y + t, y + t + 2**61 * t]
    points += [lo_edge, hi_edge, lo_edge - 7000, hi_edge + 7000, SQRT3 + 7000, SQRT3 - 7000]
    rng = random.Random("far-entry")
    for _ in range(300):
        size = rng.randrange(1000)
        D = rng.getrandbits(rng.randrange(1, 200)) | 1
        A = rng.choice((-1, 1)) * rng.getrandbits(size) * D + rng.getrandbits(64)
        B = rng.choice((0, -1, 1)) * rng.getrandbits(rng.randrange(1, 100))
        points.append(qn_normalize(A, B, D, 3 if B else 1))
    return points


def test_far_state_bounds_lie_outside_the_span(pre3, wmu):
    """At every entry point x0, x0 + off_lo lies strictly below the span and
    x0 + off_hi strictly above it, by exact compares, and neither bound is
    more than 2 away from the least or greatest such offset.  Below lim,
    x0 + off stays within the freeze bound."""
    walker = _MeasureWalker(wmu, SQRT3)
    lo, hi = walker.span
    entered = 0
    for x0 in _far_entry_points(pre3, wmu):
        off_lo, off_hi, lim = walker.far_entry(x0, None)
        assert lim == math.inf
        assert qn_compare(x0 + off_lo, lo) < 0 < qn_compare(x0 + off_lo + 2, lo), x0
        assert qn_compare(x0 + off_hi, hi) > 0 > qn_compare(x0 + off_hi - 2, hi), x0
        entered += _enters_far_state(walker, x0, None)
        if _bit_size(x0) <= 1500:
            assert walker.far_entry(x0, 1500)[:2] == (off_lo, off_hi)
            lim = walker.far_entry(x0, 1500)[2]
            for off in (lim - 1, 1 - lim) if lim else ():
                assert _bit_size(x0 + off) <= 1500, (x0, off)
    assert entered > 250  # most of them lie outside the span
    # 1500 bits, with A too long for the bound on A0 + off*D0: no far state,
    # since an offset of 2^1298 - 1 would carry A to 1400 bits
    x0 = qn_normalize(-(2**1399 - 1), 1, 2**99 + 1, 3)
    assert _bit_size(x0) == 1500 < _bit_size(x0 - (2**1298 - 1))
    assert walker.far_entry(x0, 1500)[2] == 0
    assert not _enters_far_state(walker, x0)


# SHA-256 of the witness report, and over (changes, visits, x, frozen_at) of
# its 20 trajectories, at alpha = 1/100 (T = 2000, seed 7), recorded before
# the walk kernel drew its tail inline: there about 65% of the tail draws lie
# above 2^62, beyond the table
PINNED_HEAVY_TAIL_DIGESTS = (
    "5678223cccb02636b3adb6cdcd0d74ed03e34f1359526979859c748cd2d65d67",
    "57f523a36c5f516f836ecebd3a7ac4d68304e53fe6868c4447e25aca319b3e6f",
)


def test_heavy_tail_witness_is_pinned(pre3):
    mu = witness_measure(pre3.hs.map, pre3.companion, A1, alpha=Fraction(1, 100))
    report = nontriviality_witness(mu, SQRT3, 2000, 20, 7)
    runs = hashlib.sha256()
    walker = _MeasureWalker(mu, SQRT3)
    for t in range(20):
        changes, visits, x, frozen_at = walker.run(SQRT3, 2000, trajectory_rng(7, t), 1500)
        runs.update(repr((changes, visits, tuple(x), frozen_at)).encode())
    digests = (hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(), runs.hexdigest())
    assert digests == PINNED_HEAVY_TAIL_DIGESTS


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


@pytest.mark.parametrize("trajectories", [0, -1])
def test_walk_experiments_reject_no_trajectories(wmu, trajectories):
    mu = uniform_measure([A1, A1.inverse()])
    with pytest.raises(ValueError, match="trajectories must be positive"):
        estimate_returns(mu, q(0), [10], trajectories, 1)
    with pytest.raises(ValueError, match="trajectories must be positive"):
        nontriviality_witness(wmu, SQRT3, 10, trajectories, 1)
    with pytest.raises(ValueError, match="trajectories must be positive"):
        summability_diagnostic(wmu, SQRT3, SQRT3, 10, trajectories, 1)
    with pytest.raises(ValueError, match="trajectories must be positive"):
        lamplighter_demo(Fraction(4, 5), 10, trajectories, 1)


@pytest.mark.parametrize("steps", [0, -5])
def test_walk_experiments_reject_no_steps(wmu, steps):
    # steps below 1 gave a negative stabilization horizon, a FAIL verdict,
    # a stabilized fraction of 0 or empty series, all without an error
    with pytest.raises(ValueError, match="steps must be positive"):
        simulate_config_walk(wmu, SQRT3, SQRT3, steps, random.Random(1))
    with pytest.raises(ValueError, match="steps must be positive"):
        nontriviality_witness(wmu, SQRT3, steps, 10, 1)
    with pytest.raises(ValueError, match="steps must be positive"):
        summability_diagnostic(wmu, SQRT3, SQRT3, steps, 10, 1)
    with pytest.raises(ValueError, match="steps must be positive"):
        lamplighter_demo(Fraction(4, 5), steps, 10, 1)


@pytest.mark.parametrize("horizons", [[], [0], [-3, 10]])
def test_returns_reject_bad_horizons(horizons):
    # an empty list had no top horizon, and one <= 0 gave a mean of 0
    mu = uniform_measure([A1, A1.inverse()])
    with pytest.raises(ValueError, match="horizons must"):
        estimate_returns(mu, q(0), horizons, 10, 1)
    with pytest.raises(ValueError, match="horizons must"):
        tree_mean_returns(horizons)


# -- the forked trajectory loop -------------------------------------------------


@pytest.fixture
def workers(monkeypatch):
    """Sets the loop's worker count; afterwards, asserts that no child is left."""

    def use(count):
        monkeypatch.setattr(walk, "_worker_count", lambda: count)

    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _four_reports(wmu):
    z = uniform_measure([A1, A1.inverse()])
    return [
        nontriviality_witness(wmu, SQRT3, 300, 7, 9),
        estimate_returns(z, q(0), [150, 300], 7, 3).as_dict(),
        summability_diagnostic(wmu, SQRT3, SQRT3, 200, 7, 5),
        lamplighter_demo(Fraction(4, 5), 300, 7, 11, True),
    ]


def test_reports_equal_at_every_worker_count(wmu, workers):
    workers(1)
    serial = _four_reports(wmu)
    rows = [trajectory_rng(4, t).getrandbits(64) for t in range(7)]
    for count in (2, 3, 50):
        workers(count)
        assert _four_reports(wmu) == serial, count
        assert _run_trajectories(lambda rng: rng.getrandbits(64), 7, 4) == rows, count


class _PairError(Exception):
    # unpickling calls _PairError(message), which needs two arguments
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_exception_in_a_child_reaches_the_caller(workers):
    parent = os.getpid()

    def fails_in_children(error, taken):
        # the parent's run waits until a child has taken an index, so it
        # cannot run all seven itself before either child reads a token
        def run(rng):
            if os.getpid() != parent:
                os.write(taken[1], b"t")
                raise error
            assert select.select([taken[0]], [], [], 30)[0], "no child took an index"
            return 0

        return run

    workers(3)
    for error, raises, match in [
        (ValueError("trajectory failed"), ValueError, "^trajectory failed$"),
        (_PairError(7, "no row"), RuntimeError, "^_PairError: 7: no row$"),
    ]:
        taken = os.pipe()
        try:
            with pytest.raises(raises, match=match):
                _run_trajectories(fails_in_children(error, taken), 7, 1)
        finally:
            os.close(taken[0])
            os.close(taken[1])


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


@pytest.mark.parametrize("trajectories, count", [(1000, 16), (5000, 16), (100_000, 2)])
def test_token_pipe_under_more_workers_than_cores(workers, trajectories, count):
    # more processes than CPUs contend for the tokens; above 1024
    # trajectories a token is a block, and no trajectory count can make the
    # parent's one token write block
    rows = [trajectory_rng(4, t).getrandbits(64) for t in range(trajectories)]
    workers(count)
    start = time.perf_counter()
    assert _run_trajectories(lambda rng: rng.getrandbits(64), trajectories, 4) == rows
    assert time.perf_counter() - start < 30


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


def test_fixed_start_above_the_intern_bound_counts_every_visit(pre3):
    # 2^200 lies far outside the hull of hs and above share_bits: every step
    # is an apply that returns the point itself, never interned, and each
    # must count the visit to the start by comparing points
    hs = pre3.hs.map
    mu = uniform_measure([hs, hs.inverse()])
    start = q(2**200)
    assert _bit_size(start) > _MeasureWalker(mu, start).share_bits
    assert estimate_returns(mu, start, [50], 3, 1).means == [50.0]


def test_returns_point_mass_fixed(pre3):
    mu = GroupMeasure([(pre3.hs.map, Fraction(1))])
    rep = estimate_returns(mu, SQRT3, [50], 3, 1)
    assert rep.means[0] == 50  # fixed point: returns every step


def test_prechain_means_rise_to_seven():
    # G(1) - 1 = 7 bounds the means, and the gap closes like a constant
    # over sqrt(h), from below: 26.60, 26.83, 26.95 and 27.02
    horizons = [1250, 2500, 5000, 10000]
    means = tree_mean_returns(horizons)
    assert all(m < 7 for m in means)
    scaled = [float(7 - m) * math.sqrt(h) for m, h in zip(means, horizons)]
    assert all(a < b for a, b in zip(scaled, scaled[1:])), scaled


def test_returns_prechain_saturates():
    at5000, at10000 = tree_mean_returns([5000, 10000])
    assert at10000 >= at5000
    assert at10000 - at5000 < Fraction(5, 100) * at5000


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


def test_tree_mean_returns_match_the_oracles():
    horizons = [10, 60, 100]
    assert tree_mean_returns(horizons) == _tree_mean_visits(horizons)
    # a horizon the loop never reaches would silently drop every later one
    with pytest.raises(ValueError, match="positive"):
        tree_mean_returns([0, 10])
    # the recurrence's terms are the series': g_n = 4^n (mean_n - mean_{n-1})
    top = 1000
    means = [Fraction(0)] + tree_mean_returns(range(1, top + 1))
    terms = [1] + [(means[n] - means[n - 1]) * 4**n for n in range(1, top + 1)]
    assert terms == _tree_root_series(top)


@pytest.mark.parametrize("s", [SQRT3, q(Fraction(1, 3), 2, 5)], ids=["sqrt3", "1/3+2sqrt5"])
def test_measure_walker_returns_match_exact_tree_means(s):
    # the walk on the points themselves, from b under f^+-1 and g^+-1: its
    # points grow without bound, f and g have hulls, and its mean returns
    # are the tree model's exact ones
    pre = construct_prechain(s)
    mu = uniform_measure([pre.f, pre.f.inverse(), pre.g, pre.g.inverse()])
    horizons = [10, 100]
    rep = estimate_returns(mu, pre.b, horizons, 4000, 11)
    for mean, se, exact in zip(rep.means, rep.stderrs, _tree_mean_visits(horizons)):
        assert abs(mean - exact) <= 4 * se, (mean, se, float(exact))


def test_freeze_drops_returns_after_it(pre3):
    # the freeze is a heuristic, and here it changes a result: after passing
    # 1500 bits at step 3,557, the exact walk comes back to the root 9 times
    mu = uniform_measure([pre3.f, pre3.f.inverse(), pre3.g, pre3.g.inverse()])
    walker = _MeasureWalker(mu, pre3.b)
    _, visits, _, frozen_at = walker.run(pre3.b, 20000, trajectory_rng(11, 5), 1500)
    assert (frozen_at, len(visits)) == (3557, 10)
    _, visits, _, frozen_at = walker.run(pre3.b, 20000, trajectory_rng(11, 5), None)
    assert frozen_at is None
    assert len(visits) == 19 and visits[10] == 14768


def test_summability_translation_never_hits():
    mu = uniform_measure([A1, A1.inverse()])
    rep = summability_diagnostic(mu, SQRT3, SQRT3, 100, 20, 3)
    assert all(v == 0 for v in rep["per_step_hit_mass"])
    assert rep["atom_l1_mass"] == "0"


def test_summability_degenerate_diverges(pre3):
    mu = GroupMeasure([(pre3.hs.map, Fraction(1))])
    rep = summability_diagnostic(mu, SQRT3, SQRT3, 50, 5, 3)
    assert rep["per_step_hit_mass"] == [1.0] * 50
    assert rep["cumulative"][-1] == 50.0


def test_summability_witness_flattens(wmu):
    rep = summability_diagnostic(wmu, SQRT3, SQRT3, 2000, 150, 11)
    cum = rep["cumulative"]
    last_decile = cum[-1] - cum[int(0.9 * len(cum))]
    assert last_decile < 0.10 * cum[-1]
    assert rep["atom_l1_mass"] == "3/8"  # two delta atoms at weight 3/16


def test_summability_matches_the_exact_change_count(pre3):
    """The walk uniform on f^+-1 and g^+-1 from b at sqrt 3, which has no
    tail.  f's configuration is empty on the orbit and g's is 1 at b, so a
    step changes the value exactly when it leaves the root by g^+-1, with
    chance 1/2 at each root visit, step 0 included: E[changes by T] =
    (1 + m_{T-1})/2, m the exact tree means.  cumulative[-1] is the mean
    of the per-run change counts, which simulate_config_walk gives on the
    same streams, and lies within 4 standard errors of that value."""
    mu = uniform_measure([pre3.f, pre3.f.inverse(), pre3.g, pre3.g.inverse()])
    T, M, seed = 100, 2000, 5
    rep = summability_diagnostic(mu, SQRT3, pre3.b, T, M, seed, None)
    counts = [
        simulate_config_walk(mu, SQRT3, pre3.b, T, trajectory_rng(seed, t), None)["changes"]
        for t in range(M)
    ]
    mean = sum(counts) / M
    assert rep["cumulative"][-1] == pytest.approx(mean, rel=1e-12)
    se = math.sqrt(_float_sum((c - mean) ** 2 for c in counts) / (M - 1) / M)
    exact = (1 + tree_mean_returns([T - 1])[0]) / 2
    assert abs(rep["cumulative"][-1] - exact) <= 4 * se, (mean, se, float(exact))


def test_witness_abelian_control_fails():
    mu = uniform_measure([A1, A1.inverse()])
    rep = nontriviality_witness(mu, SQRT3, 400, 60, 5)
    assert rep["verdict"] == "FAIL"
    assert rep["value_histogram"] == {"0": 60}


def test_witness_deterministic_drift_fails(pre3):
    mu = GroupMeasure([(pre3.hs.map, Fraction(1))])
    rep = nontriviality_witness(mu, SQRT3, 100, 10, 5)
    assert rep["stabilized_fraction"] == 0.0
    assert rep["verdict"] == "FAIL"


def test_witness_succeeds_modest_scale(wmu):
    rep = nontriviality_witness(wmu, SQRT3, 4000, 150, 7)
    assert rep["verdict"] == "SUCCEED"
    assert rep["stabilized_fraction"] >= 0.95
    assert len(rep["frequent_values"]) >= 2


# the arithmetic dunders that perfbench's tracer counts as exactnum.arith
QN_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def test_library_uses_no_quadratic_number_arithmetic(monkeypatch):
    def forbid(name):
        def call(*args):
            raise AssertionError(f"QuadraticNumber.{name} called")

        return call

    for name in QN_ARITHMETIC:
        monkeypatch.setattr(QuadraticNumber, name, forbid(name))
    # both branches of the hs construction
    points = [SQRT3, q(Fraction(1, 3), 2, 5), q(-1, -1, 2)]
    for s in points:
        pre = construct_prechain(s)
        for element in (pre.f, pre.g, pre.hs.map, pre.companion):
            configuration(element, s)
    pre = construct_prechain(SQRT3)
    mu = witness_measure(pre.hs.map, pre.companion, A1)
    assert nontriviality_witness(mu, SQRT3, 2000, 20, 7)["verdict"] == "SUCCEED"


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
