import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from pwproj.exactnum import QuadraticNumber, qn_approx, qn_compare
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
    PrechainTreeModel,
    TailSpec,
    entropy_estimate,
    estimate_returns,
    lamplighter_demo,
    nontriviality_witness,
    point_mass,
    simulate_config_walk,
    summability_diagnostic,
    trajectory_rng,
    uniform_measure,
    witness_measure,
)
from pwproj.walk import _MeasureWalker, _run_config_walk


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
    big = max(sampler.sample_magnitude(rng) for _ in range(50_000))
    assert big > PowerLawSampler.TABLE  # analytic tail actually fires


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
        j = sampler.sample_magnitude(_FixedUniform(u))
        assert sampler._cdf(j - 1) < u <= sampler._cdf(j), (u, j)


def test_measure_frequencies(wmu):
    rng = random.Random(5)
    n = 100_000
    counts = {}
    for _ in range(n):
        idx, _ = wmu._sample_once(rng)
        counts[idx] = counts.get(idx, 0) + 1
    for i, (_, w) in enumerate(wmu.atoms):
        p = float(w)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) < 3 * sigma
    assert abs(counts[-1] / n - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n)


def test_smoothing_mean_displacement():
    mu = GroupMeasure([(A1, Fraction(1))], smoothing=True)
    rng = random.Random(9)
    n = 20_000
    total = 0
    for _ in range(n):
        inc = mu.sample(rng)
        total += inc(q(0)).a
    mean = total / n
    assert abs(mean - 1.0) < 0.03  # Poisson(1) expectation


def test_symmetric_measure_drift(wmu):
    assert wmu.is_symmetric()
    rng = random.Random(21)
    walker = _MeasureWalker(wmu, SQRT3)
    signs = 0
    n = 300
    for t in range(n):
        tr = _run_config_walk(walker, SQRT3, 60, trajectory_rng(77, t), 1500)
        diff = tr.x - SQRT3 if tr.x.k in (1, 3) else None
        if diff is None:
            continue
        signs += diff.sign()
    assert abs(signs) < 3 * math.sqrt(n)


def test_simulate_config_walk_degenerate(pre3):
    mu = point_mass(pre3.hs.map)
    tracker = simulate_config_walk(mu, SQRT3, SQRT3, 50, random.Random(1))
    assert tracker.value == 50  # value climbs every step, point stays put
    assert tracker.x == SQRT3
    mu2 = point_mass(A1)
    tracker2 = simulate_config_walk(mu2, SQRT3, q(0), 30, random.Random(1))
    assert tracker2.value == 0
    assert tracker2.x == q(30)


def test_incremental_matches_full_product(wmu):
    for seed in range(100):
        rng = random.Random(f"oracle:{seed}")
        increments = [wmu.sample(rng) for _ in range(15)]
        product = pm_identity()
        for inc in increments:
            product = inc * product
        expected = configuration(product, SQRT3).value_at(SQRT3)
        walker = _MeasureWalker(wmu, SQRT3)
        tracker = _run_config_walk(
            walker, SQRT3, 15, random.Random(f"oracle:{seed}"), None
        )
        assert tracker.value == expected, seed


def _bit_size(x):
    A, B, D, _ = x
    return A.bit_length() + B.bit_length() + D.bit_length()


def _exact_apply(f, x):
    """f(x) from integer compares alone: the piece index counts the breaks <= x."""
    i = sum(qn_compare(x, b) >= 0 for b in f.breaks)
    return f.pieces[i].apply(x)


def _oracle_path(mu, steps, rng, freeze_bits, confs=None):
    """One walk from SQRT3 stepped by _exact_apply: (points, changes).

    points are the points after steps 1, 2, ..., up to the first one whose
    bit size passes freeze_bits.  With confs, a dict caching each sampled
    increment's configuration, changes lists the (n, delta) of each step
    that changed the value at the walking point; otherwise it is None.
    """
    x, points = SQRT3, []
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
        if _bit_size(x) > freeze_bits:
            break
    return points, changes


def _frozen_at(points, freeze_bits):
    return len(points) if _bit_size(points[-1]) > freeze_bits else None


@pytest.mark.parametrize("smoothing", [False, True])
@pytest.mark.parametrize("freeze_bits", [1500, 600])
def test_walk_kernel_matches_stepwise_oracle(wmu, smoothing, freeze_bits):
    mu = GroupMeasure(wmu.atoms, wmu.tail, smoothing=smoothing)
    walker = _MeasureWalker(mu, SQRT3)
    steps = 1000
    frozen = 0
    for seed in range(50):
        points, _ = _oracle_path(mu, steps, random.Random(f"kernel:{seed}"), freeze_bits)
        frozen_at = _frozen_at(points, freeze_bits)
        tracker = _run_config_walk(
            walker, SQRT3, steps, random.Random(f"kernel:{seed}"), freeze_bits
        )
        assert (tracker.x, tracker.frozen_at) == (points[-1], frozen_at), seed
        frozen += frozen_at is not None
    assert 0 < frozen < 50  # both outcomes are exercised


@pytest.mark.parametrize("case", ["no_hull", "tail_3", "intern_bound"])
def test_walk_kernel_paths_match_stepwise_oracle(pre3, wmu, case):
    """The hull skip, the integer tail and the intern bound against the oracle.

    no_hull: two atoms are hs after a translation, whose end pieces are not
    the identity, so they always take the exact apply.  tail_3: the tail
    adds 3n.  intern_bound: the witness measure, whose walks cross
    share_bits both ways (raw points shrink back into the intern table).
    """
    hs, companion = pre3.hs.map, pre3.companion
    if case == "no_hull":
        mu = witness_measure(hs * A1, companion, A1)
    elif case == "tail_3":
        mu = witness_measure(hs, companion, pm_from_matrix(ProjectiveMatrix.translation(3)))
    else:
        mu = wmu
    walker = _MeasureWalker(mu, SQRT3)
    if case == "no_hull":
        assert [h is None for h in walker.hulls] == [True, True, False, False]
    else:
        assert None not in walker.hulls
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


def test_incremental_with_smoothing_matches_full_product(pre3):
    mu = GroupMeasure(
        [
            (pre3.hs.map, Fraction(1, 2)),
            (pre3.hs.map.inverse(), Fraction(1, 2)),
        ],
        smoothing=True,
    )
    for seed in range(20):
        rng = random.Random(f"smooth:{seed}")
        increments = [mu.sample(rng) for _ in range(8)]
        product = pm_identity()
        for inc in increments:
            product = inc * product
        expected = configuration(product, SQRT3).value_at(SQRT3)
        walker = _MeasureWalker(mu, SQRT3)
        tracker = _run_config_walk(
            walker, SQRT3, 8, random.Random(f"smooth:{seed}"), None
        )
        assert tracker.value == expected, seed


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


def test_returns_point_mass_fixed(pre3):
    mu = point_mass(pre3.hs.map)
    rep = estimate_returns(mu, SQRT3, [50], 3, 1)
    assert rep.means[0] == 50  # fixed point: returns every step


def test_returns_prechain_saturates(pre3):
    model = PrechainTreeModel(pre3)
    rep = estimate_returns(model, pre3.b, [5000, 10000], 400, 7)
    assert rep.means[1] >= rep.means[0]
    assert rep.means[1] - rep.means[0] < 0.05 * rep.means[0]


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
