import hashlib
import random
import signal
from fractions import Fraction

import pytest

from pwproj import piecewise
from pwproj.exactnum import (
    INFINITY,
    QuadraticNumber,
    normalize_radicand,
    qn_approx,
    qn_compare,
    qn_from_text,
    qn_normalize,
    qn_to_text,
)
from pwproj.piecewise import (
    Configuration,
    DiscontinuousError,
    EndGermNotTranslationError,
    NotIncreasingError,
    PiecewiseProjectiveMap,
    PoleInsidePieceError,
    build_hs,
    config_act,
    configuration,
    construct_prechain,
    in_hz,
    pm_from_matrix,
    pm_identity,
    pm_new,
)
from pwproj.psl2 import ProjectiveMatrix, mat_fixed_points, stabilizer_generator
from pwproj.walk import trajectory_rng, witness_measure


def q(a, b=0, k=1):
    return QuadraticNumber(Fraction(a), Fraction(b), k)


def _break_count(f):
    """Breaks of f, counting the one at infinity when its end germs differ."""
    return len(f.breaks) + (f.pieces[0] != f.pieces[-1])


SQRT3 = q(0, 1, 3)
IDENT = ProjectiveMatrix.identity()


@pytest.fixture(scope="module")
def hs3():
    return build_hs(SQRT3)


@pytest.fixture(scope="module")
def pre3():
    return construct_prechain(SQRT3)


def test_pm_new_translation():
    a3 = pm_new([], [ProjectiveMatrix.translation(3)])
    assert a3.is_identity is False
    assert a3(q(2)) == q(5)
    assert _break_count(a3) == 0


def test_pm_new_validation_errors():
    with pytest.raises(DiscontinuousError):
        pm_new([q(0)], [IDENT, ProjectiveMatrix.translation(1)])
    with pytest.raises(NotIncreasingError):
        pm_new([q(1), q(0)], [IDENT, IDENT, IDENT])
    with pytest.raises(EndGermNotTranslationError):
        pm_new([], [ProjectiveMatrix.make(2, 3, 1, 2)])
    # continuous gluing of (2x+3)/(x+2) on [-3, -1], whose pole -2 is inside
    with pytest.raises(PoleInsidePieceError, match="^pole -2 of piece 1 lies inside its interval$"):
        pm_new(
            [q(-3), q(-1)],
            [
                ProjectiveMatrix.translation(6),
                ProjectiveMatrix.make(2, 3, 1, 2),
                ProjectiveMatrix.translation(2),
            ],
        )


def _pm_new_by_images(breaks, pieces):
    """pm_new as it validated before the checks on integers: each break's
    two images built with apply and compared, then each piece's pole built
    and compared with the ends of its closed interval."""
    breaks = list(breaks)
    pieces = list(pieces)
    if len(pieces) != len(breaks) + 1:
        raise piecewise.PiecewiseMapError("need exactly one more piece than breaks")
    for i in range(len(breaks) - 1):
        if qn_compare(breaks[i], breaks[i + 1]) >= 0:
            raise NotIncreasingError("break points must be strictly increasing")
    if not pieces[0].is_translation or not pieces[-1].is_translation:
        raise EndGermNotTranslationError("unbounded pieces must be translations")
    for i, beta in enumerate(breaks):
        left = pieces[i].apply(beta)
        right = pieces[i + 1].apply(beta)
        if left is INFINITY or right is INFINITY or left != right:
            raise DiscontinuousError(beta)
    for i, piece in enumerate(pieces):
        pole = piece.pole()
        if pole is None:
            continue
        lo = breaks[i - 1] if i > 0 else None
        hi = breaks[i] if i < len(breaks) else None
        inside_lo = lo is None or qn_compare(pole, lo) >= 0
        inside_hi = hi is None or qn_compare(pole, hi) <= 0
        if inside_lo and inside_hi:
            raise PoleInsidePieceError(f"pole {pole} of piece {i} lies inside its interval")
    red_breaks, red_pieces = [], [pieces[0]]
    for beta, piece in zip(breaks, pieces[1:]):
        if piece != red_pieces[-1]:
            red_breaks.append(beta)
            red_pieces.append(piece)
    return PiecewiseProjectiveMap(red_breaks, red_pieces)


def _outcome(build, breaks, pieces):
    try:
        f = build(breaks, pieces)
    except piecewise.PiecewiseMapError as exc:
        return type(exc), str(exc)
    return f.breaks, f.pieces


def _assert_pm_new_as_by_images(breaks, pieces):
    outcome = _outcome(pm_new, breaks, pieces)
    assert outcome == _outcome(_pm_new_by_images, breaks, pieces)
    return outcome[0] if isinstance(outcome[0], type) else None


def _random_point(rng, k):
    D = rng.randint(1, 6)
    B = rng.choice((-1, 1)) * rng.randint(1, 3) if k > 1 else 0
    return qn_normalize(rng.randint(-12, 12), B, D, k)


def _closing(rng, piece, after):
    """A break beyond `after` and a translation to its right: a fixed point
    of piece up to a translation, where the two agree, when a few tries find
    one, else after + 1, where they do not."""
    for _ in range(6):
        v = rng.randint(-8, 8)
        closing = ProjectiveMatrix.translation(-v) * piece
        if closing.c == 0 or abs(closing.trace()) < 2:
            continue
        top = mat_fixed_points(closing)[-1]
        if qn_compare(top, after) > 0:
            return top, ProjectiveMatrix.translation(v)
    return after + 1, ProjectiveMatrix.translation(rng.randint(-3, 3))


def _glued(rng, k):
    """Breaks in Q(sqrt k) with each piece the last one times a stabilizer
    power at the break between them, so the pieces agree at every break as
    Moebius maps; poles land anywhere, inside a piece or at a break."""
    breaks = sorted({_random_point(rng, k) for _ in range(rng.randint(1, 4))})
    pieces = [ProjectiveMatrix.translation(rng.randint(-3, 3))]
    for beta in breaks:
        pieces.append(pieces[-1] * stabilizer_generator(beta).power(rng.randint(-2, 2)))
    if not pieces[-1].is_translation:
        beta, piece = _closing(rng, pieces[-1], breaks[-1])
        breaks.append(beta)
        pieces.append(piece)
    return breaks, pieces


def _mutated(rng, breaks, pieces):
    breaks, pieces = list(breaks), list(pieces)
    # kind 5, and a kind that does not fit the input, leaves it as it is
    kind = rng.randrange(6)
    i = rng.randrange(len(pieces))
    if kind == 0 and breaks:
        j = rng.randrange(len(breaks))
        breaks[j] = breaks[j] + Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    elif kind == 1:
        pieces[i] = pieces[i] * ProjectiveMatrix.make(0, -1, 1, rng.randint(-3, 3))
    elif kind == 2 and 0 < i < len(breaks):
        # keeps the piece glued at its right end only
        pieces[i] = pieces[i] * stabilizer_generator(breaks[i]).power(rng.choice((-1, 1)))
    elif kind == 3 and len(breaks) > 1:
        j = rng.randrange(len(breaks) - 1)
        breaks[j], breaks[j + 1] = breaks[j + 1], breaks[j]
    elif kind == 4:
        del pieces[i]
    return breaks, pieces


def test_pm_new_checks_as_by_images(pre3):
    rng = random.Random(20)
    seen = {}
    for _ in range(300):
        breaks, pieces = _glued(rng, rng.choice((1, 2, 3)))
        for case in ((breaks, pieces), _mutated(rng, breaks, pieces)):
            kind = _assert_pm_new_as_by_images(*case)
            seen[kind] = seen.get(kind, 0) + 1
    letters = [pre3.f, pre3.g, pre3.companion, pre3.hs.map]
    letters += [f.inverse() for f in letters]
    for _ in range(100):
        f = pm_identity()
        for _ in range(rng.randint(1, 3)):
            f = rng.choice(letters) * f
        for case in ((f.breaks, f.pieces), _mutated(rng, f.breaks, f.pieces)):
            kind = _assert_pm_new_as_by_images(*case)
            seen[kind] = seen.get(kind, 0) + 1
    # every outcome is exercised, valid maps and each error class
    assert set(seen) == {
        None,
        piecewise.PiecewiseMapError,
        NotIncreasingError,
        EndGermNotTranslationError,
        DiscontinuousError,
        PoleInsidePieceError,
    }, seen
    assert min(seen.values()) >= 10, seen


def test_pm_new_poles_and_breaks_named_cases():
    s = ProjectiveMatrix.make(0, -1, 1, 0)  # -1/x, pole at 0
    g = stabilizer_generator(q(0))
    cases = [
        # both pieces send the break 0 to INFINITY (s**-1 (s g) = g fixes 0);
        # the bad break 2 after it must not be the one reported
        (
            [q(-1), q(0), q(1), q(2)],
            [
                ProjectiveMatrix.translation(2),
                s,
                s * g.inverse(),
                ProjectiveMatrix.translation(-3),
                ProjectiveMatrix.translation(5),
            ],
        ),
        # the left piece's pole 0 is the right end of its closed interval
        ([q(-1), q(0)], [ProjectiveMatrix.translation(2), s, IDENT]),
        # the right piece's pole 0 is the left end of its closed interval
        ([q(0), q(1)], [IDENT, s, ProjectiveMatrix.translation(-2)]),
        # a removable break: two equal pieces, which reduction would merge,
        # both with pole 0 at the break between them
        ([q(-1), q(0), q(1)], [ProjectiveMatrix.translation(2), s, s, ProjectiveMatrix.translation(-2)]),
    ]
    for breaks, pieces in cases:
        assert _assert_pm_new_as_by_images(breaks, pieces) is DiscontinuousError
        with pytest.raises(DiscontinuousError) as info:
            pm_new(breaks, pieces)
        assert info.value.point == q(0)
    # (2x+3)/(x+2) on [-3, m] and on [m, -1], pieces that reduction merges:
    # its pole -2 is named in the piece given, 2 for m = -5/2, 1 for m = -3/2
    m23 = ProjectiveMatrix.make(2, 3, 1, 2)
    for middle, index in ((Fraction(-5, 2), 2), (Fraction(-3, 2), 1)):
        breaks = [q(-3), q(middle), q(-1)]
        pieces = [ProjectiveMatrix.translation(6), m23, m23, ProjectiveMatrix.translation(2)]
        assert _assert_pm_new_as_by_images(breaks, pieces) is PoleInsidePieceError
        message = f"^pole -2 of piece {index} lies inside its interval$"
        with pytest.raises(PoleInsidePieceError, match=message):
            pm_new(breaks, pieces)
    # L**-1 R = [[1, 2], [1, 3]] at sqrt(2): the rational part 1*2 + 2*0 - 2
    # is 0 and only the sqrt(2) part, 2*1*0 + 2*1, is not
    breaks, pieces = [q(0, 1, 2), q(5)], [IDENT, ProjectiveMatrix.make(1, 2, 1, 3), IDENT]
    assert _assert_pm_new_as_by_images(breaks, pieces) is DiscontinuousError
    with pytest.raises(DiscontinuousError) as info:
        pm_new(breaks, pieces)
    assert info.value.point == q(0, 1, 2)


def test_pm_new_reduces_equal_pieces():
    m = pm_new([q(1)], [IDENT, IDENT])
    assert m.is_identity
    assert len(m.breaks) == 0


def test_hs_is_valid_four_piece(hs3):
    assert len(hs3.map.breaks) == 3
    assert hs3.map.pieces[1] == stabilizer_generator(hs3.base)
    assert in_hz(hs3.map)


def test_compose_inverse_identity(hs3):
    f = hs3.map
    assert f.compose(f.inverse()).is_identity
    assert pm_identity().compose(f) == f
    assert pm_identity().inverse().is_identity
    assert pm_from_matrix(ProjectiveMatrix.translation(4)).inverse() == pm_from_matrix(
        ProjectiveMatrix.translation(-4)
    )


def test_compose_pointwise(hs3, pre3):
    rng = random.Random(9)
    maps = [
        hs3.map,
        hs3.map.inverse(),
        pre3.companion,
        pm_from_matrix(ProjectiveMatrix.translation(2)),
    ]
    composites = []
    for _ in range(20):
        g1 = rng.choice(maps)
        g2 = rng.choice(maps)
        composites.append((g2.compose(g1), g1, g2))
    for _ in range(10_000):
        comp, g1, g2 = composites[rng.randrange(len(composites))]
        x = q(Fraction(rng.randint(-400, 400), rng.randint(1, 40)))
        assert comp(x) == g2(g1(x))


def _compose_by_search(outer, inner):
    """outer o inner as compose built it before the merge: each break of
    outer pulled back through the inner piece found by a binary search over
    the images of inner's breaks, the candidates sorted, and the germs on
    each candidate's right looked up again."""
    candidates = list(inner.breaks)
    for beta in outer.breaks:
        lo, hi = 0, len(inner.breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            if qn_compare(beta, inner.apply(inner.breaks[mid])) >= 0:
                lo = mid + 1
            else:
                hi = mid
        pre = inner.pieces[lo].inverse().apply(beta)
        if pre is not INFINITY:
            candidates.append(pre)
    candidates = sorted(set(candidates))
    pieces = [outer.pieces[0] * inner.pieces[0]]
    for beta in candidates:
        inner_right = inner.pieces[inner.piece_index(beta)]
        image = inner_right.apply(beta)
        pieces.append(outer.pieces[outer.piece_index(image)] * inner_right)
    return pm_new(candidates, pieces)


def _assert_same_composite(outer, inner):
    new = outer.compose(inner)
    old = _compose_by_search(outer, inner)
    assert new.breaks == old.breaks
    assert new.pieces == old.pieces


def test_compose_matches_search_composite(pre3):
    translation = pm_from_matrix(ProjectiveMatrix.translation(1))
    mu = witness_measure(pre3.hs.map, pre3.companion, translation)
    letters = [pre3.f, pre3.g, pre3.f.inverse(), pre3.g.inverse(), pre3.hs.map]
    letters += [pre3.companion, translation, pm_identity()]
    rng = random.Random(17)

    def word():
        prod = pm_identity()
        for _ in range(rng.randint(1, 3)):
            letter = mu.sample(rng) if rng.random() < 0.5 else rng.choice(letters)
            prod = letter * prod
        return prod

    samples = letters + [word() for _ in range(40)]
    for x in samples:
        # x o x^-1 has every image of an inner break equal to a break of x
        _assert_same_composite(x, x)
        _assert_same_composite(x, x.inverse())
        _assert_same_composite(translation, x)
        _assert_same_composite(x, translation)
    for _ in range(1000):
        _assert_same_composite(rng.choice(samples), rng.choice(samples))


def test_product_words_pinned(pre3):
    """h, g, h o g and h^-1 for the products words of perfbench, seed 0."""
    translation = pm_from_matrix(ProjectiveMatrix.translation(1))
    mu = witness_measure(pre3.hs.map, pre3.companion, translation)
    digest = hashlib.sha256()
    for t in range(40):
        rng = trajectory_rng(0, t)
        h, g = pm_identity(), pm_identity()
        for _ in range(4):
            h = mu.sample(rng) * h
        for _ in range(4):
            g = mu.sample(rng) * g
        for f in (h, g, h * g, h.inverse()):
            digest.update((f.to_text() + "\n").encode())
    assert digest.hexdigest() == "f764545b151f361b166534ac85fdd9280531aa5ad54fdd4c42f3a07370a61761"


def test_inverse_of_hs_configuration(hs3):
    conf = configuration(hs3.map.inverse(), SQRT3)
    assert conf.entries == {SQRT3: -1}


def _thompson_x1():
    """x1 of Thompson's group F, whose x0 is translation(1): breaks 0, 1/2, 1."""
    return pm_new(
        [q(0), q(Fraction(1, 2)), q(1)],
        [
            IDENT,
            ProjectiveMatrix.make(1, 0, -1, 1),
            ProjectiveMatrix.make(3, -1, 1, 0),
            ProjectiveMatrix.translation(1),
        ],
    )


def _word(*letters):
    """The map of a word that acts first letter first: w1...wk is wk * ... * w1."""
    out = pm_identity()
    for letter in letters:
        out = letter * out
    return out


def test_configuration_on_rational_orbit():
    # every rational is on the orbit of 0
    x1 = _thompson_x1()
    conf = configuration(x1, q(0))
    assert conf.as_text_dict() == {"0": 1, "1/2": -1, "1": 1}
    # rational points are found by equal points built on their own
    assert conf.entries[qn_from_text("0")] == 1
    assert conf.entries[qn_from_text("1/2")] == -1
    assert conf.entries[QuadraticNumber(Fraction(1, 2))] == -1
    assert conf.entries[qn_from_text("1")] == 1
    assert qn_from_text("1/3") not in conf.entries
    assert config_act(x1, conf) == configuration(x1 * x1, q(0))


def test_thompson_group_f_relations():
    # x0 and x1 satisfy F's two defining relations and do not commute; every
    # proper quotient of F is abelian, so they generate F
    x0 = pm_from_matrix(ProjectiveMatrix.translation(1))
    x1 = _thompson_x1()
    a = _word(x0, x1.inverse())
    for c in (x0, x0 * x0):
        # [x0 x1^-1, x0^-1 x1 x0] = 1 and [x0 x1^-1, x0^-2 x1 x0^2] = 1
        b = _word(c.inverse(), x1, c)
        assert a * b == b * a
    assert x0 * x1 != x1 * x0


def test_configuration_examples(hs3):
    f = hs3.map
    assert configuration(f, SQRT3).as_text_dict() == {"0+1*sqrt(3)": 1}
    assert configuration(pm_identity(), SQRT3).entries == {}
    assert configuration(f.power(2), SQRT3).entries == {SQRT3: 2}
    assert configuration(pm_from_matrix(ProjectiveMatrix.translation(5)), SQRT3).entries == {}


def _power_by_compose(f, n):
    """f^n by square-and-multiply over compose, as power does for a map with breaks."""
    base = f if n >= 0 else f.inverse()
    n, out = abs(n), pm_identity()
    while n:
        if n & 1:
            out = out.compose(base)
        n >>= 1
        base = base.compose(base)
    return out


def _power_by_repeat(f, n):
    step = f if n >= 0 else f.inverse()
    out = pm_identity()
    for _ in range(abs(n)):
        out = step * out
    return out


@pytest.mark.parametrize("t", [1, -3])
def test_power_of_translation_is_its_matrix_power(t):
    f = pm_from_matrix(ProjectiveMatrix.translation(t))
    for n in range(-9, 10):
        want = _power_by_repeat(f, n)
        assert f.power(n) == want
        assert f.power(n).to_text() == want.to_text()
    for n in (123456, -123456):
        want = _power_by_compose(f, n)
        assert f.power(n).to_text() == want.to_text()
        assert f.power(n) == pm_from_matrix(ProjectiveMatrix.translation(t * n))


def test_power_of_map_with_breaks_is_unchanged(hs3, pre3):
    for f in (hs3.map, pre3.companion):
        for n in range(-9, 10):
            want = _power_by_repeat(f, n)
            got = f.power(n)
            assert got == want and got.to_text() == want.to_text(), n


def test_membership_examples(hs3):
    assert in_hz(hs3.map)
    assert in_hz(pm_from_matrix(ProjectiveMatrix.translation(1)))
    # rational breaks
    assert not in_hz(_thompson_x1())
    # irrational breaks, but end germs x -> x + 1 and x -> x
    golden = qn_normalize(-1, 1, 2, 5)
    pieces = [ProjectiveMatrix.translation(1), ProjectiveMatrix.make(2, 3, 1, 2), IDENT]
    assert not in_hz(pm_new([golden, SQRT3], pieces))


def test_config_act_identities(hs3):
    conf = configuration(hs3.map, SQRT3)
    acted = config_act(pm_identity(), conf)
    assert acted == conf
    empty = configuration(pm_identity(), SQRT3)
    assert config_act(hs3.map, empty).as_text_dict() == {"0+1*sqrt(3)": 1}


def test_config_act_matches_composition(hs3, pre3):
    # exact identity: config_act(g, C_h) == configuration(h o g)
    rng = random.Random(77)
    gens = [hs3.map, hs3.map.inverse(), pre3.companion, pre3.companion.inverse()]
    for _ in range(120):
        h = rng.choice(gens)
        g = rng.choice(gens)
        left = config_act(g, configuration(h, SQRT3))
        right = configuration(h.compose(g), SQRT3)
        assert left == right


def _config_act_by_inverse(g, conf):
    """config_act as it read C o g before: at each point, the map g**-1."""
    result = configuration(g, conf.base)
    g_inv = g.inverse()
    for point, value in conf.entries.items():
        gamma = g_inv.apply(point)
        result.entries[gamma] = result.entries.get(gamma, 0) + value
    result.entries = {p: v for p, v in result.entries.items() if v}
    return result


def test_config_act_on_words(pre3):
    # words of the witness measure, tail translation included; C holds the
    # images of g's breaks, where g**-1 changes piece, and points beside them
    translation = pm_from_matrix(ProjectiveMatrix.translation(1))
    mu = witness_measure(pre3.hs.map, pre3.companion, translation)
    s = pre3.hs.base
    rng = random.Random(73)
    tails = on_images = 0
    for _ in range(80):
        g = h = pm_identity()
        for _ in range(rng.randint(1, 4)):
            letter = mu.sample(rng)
            tails += not letter.breaks
            g = letter * g
            h = mu.sample(rng) * h
        images = g.inverse().breaks
        on_images += len(images)
        entries = {p: 1 for p in images}
        entries.update({p + Fraction(1, 3): -2 for p in images})
        for conf in (configuration(h, s), Configuration(s, entries)):
            assert config_act(g, conf) == _config_act_by_inverse(g, conf)
    assert tails >= 10 and on_images >= 100, (tails, on_images)


def test_no_fixed_configuration_under_hs(hs3):
    # acting by the delta element always increments the value at the base
    conf = configuration(pm_identity(), SQRT3)
    for _ in range(5):
        new = config_act(hs3.map, conf)
        assert new.entries[SQRT3] == conf.entries.get(SQRT3, 0) + 1
        conf = new


def test_cocycle_words(hs3, pre3):
    rng = random.Random(5)
    gens = [hs3.map, hs3.map.inverse(), pre3.companion, pre3.companion.inverse()]
    for _ in range(60):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
        prod = pm_identity()
        for letter in word:
            prod = prod * letter
        folded = configuration(pm_identity(), SQRT3)
        for letter in word:
            folded = config_act(letter, folded)
        assert configuration(prod, SQRT3) == folded


def test_br_subadditive(hs3, pre3):
    rng = random.Random(15)
    gens = [hs3.map, hs3.map.inverse(), pre3.companion, pre3.companion.inverse()]
    for _ in range(150):
        g = pm_identity()
        h = pm_identity()
        for _ in range(rng.randint(1, 3)):
            g = g * rng.choice(gens)
            h = h * rng.choice(gens)
        assert _break_count(g * h) <= _break_count(g) + _break_count(h)
        assert _break_count(g.inverse()) == _break_count(g)


def test_breaks_stay_in_finitely_many_fields(hs3, pre3):
    rng = random.Random(25)
    gens = [hs3.map, hs3.map.inverse(), pre3.companion, pre3.companion.inverse()]
    base_fields = set()
    for g in gens:
        base_fields |= {b.k for b in g.breaks}
    for _ in range(40):
        prod = pm_identity()
        for _ in range(rng.randint(1, 6)):
            prod = prod * rng.choice(gens)
        assert {b.k for b in prod.breaks} <= base_fields


def test_construct_h_s_contract_multiple_fields():
    for s in [q(0, 1, 2), q(Fraction(1, 2), 1, 2), q(0, -1, 3)]:
        built = build_hs(s)
        conf = configuration(built.map, s)
        assert conf.as_text_dict() == {qn_to_text(s): 1}
        for b in built.map.breaks:
            if b != s:
                assert b.k != s.k
        assert in_hz(built.map)
        assert len(built.map.support_intervals()) == 1


def test_construct_h_s_rejects_rationals():
    with pytest.raises(ValueError):
        build_hs(q(Fraction(1, 2)))


def test_one_sided(hs3):
    # strictly above the identity at rational probes inside the support
    lo, hi = hs3.map.support_intervals()[0]
    probes = []
    n = 2
    while len(probes) < 3 and n < 10**9:
        x = q(n)
        if qn_compare(x, lo) > 0 and qn_compare(x, hi) < 0:
            probes.append(x)
        n *= 3
    assert probes
    for x in probes:
        assert qn_compare(hs3.map(x), x) > 0


def test_prechain_contract(pre3):
    a, b, c, d = pre3.a, pre3.b, pre3.c, pre3.d
    assert qn_compare(a, b) < 0 < qn_compare(c, b)
    assert qn_compare(c, d) < 0
    assert b == SQRT3 and d == pre3.hs.far_end
    assert pre3.f.support_intervals() == [(a, c)]
    assert pre3.g.support_intervals() == [(b, d)]
    assert pre3.g(b) == b
    assert pre3.f(c) == c
    assert qn_compare(pre3.g.inverse()(c), pre3.f(b)) < 0


def test_prechain_below_branch():
    pre = construct_prechain(q(0, -1, 3))
    assert qn_compare(pre.a, pre.b) < 0
    assert qn_compare(pre.b, pre.c) < 0
    assert qn_compare(pre.c, pre.d) < 0
    assert pre.f.support_intervals() == [(pre.a, pre.c)]
    assert pre.g.support_intervals() == [(pre.b, pre.d)]
    assert qn_compare(pre.g.inverse()(pre.c), pre.f(pre.b)) < 0


@pytest.mark.parametrize("k", (13, 29, 43, 58, 61, 65, 77))
def test_prechain_builds_within_deadline(k):
    # these radicands once stalled in trial division of hundred-bit traces
    def expire(signum, frame):
        raise TimeoutError(f"construct_prechain(sqrt({k})) took over 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        pre = construct_prechain(q(0, 1, k))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert pre.b == q(0, 1, k)
    assert pre.f.support_intervals() == [(pre.a, pre.c)]
    assert pre.g.support_intervals() == [(pre.b, pre.d)]
    assert qn_compare(pre.g.inverse()(pre.c), pre.f(pre.b)) < 0


# sqrt(k) for every square-free k <= 100, then points with a rational part
# and a non-unit or negative irrational coefficient, on both branches
PINNED_PRECHAIN_BASES = [f"sqrt({k})" for k in range(2, 101) if normalize_radicand(k)[0] == k] + [
    "1/3+2*sqrt(5)",
    "-1-1*sqrt(2)",
    "5/7-3*sqrt(11)",
    "-sqrt(3)",
    "2+1/5*sqrt(13)",
]


def test_prechain_constructions_pinned():
    digest = hashlib.sha256()
    for text in PINNED_PRECHAIN_BASES:
        pre = construct_prechain(qn_from_text(text))
        fields = [
            pre.f.to_text(),
            pre.g.to_text(),
            *(qn_to_text(p) for p in (pre.a, pre.b, pre.c, pre.d)),
            str(pre.f_power),
            str(pre.g_power),
            str(pre.hs.prime),
        ]
        digest.update(("\t".join(fields) + "\n").encode())
    assert len(PINNED_PRECHAIN_BASES) == 65
    assert digest.hexdigest() == "d139f8fd2b41b1fda3751ffcfc361245749c5bbbaacd1b37882e99dc0835c13f"


def test_map_text_round_trip(hs3, pre3):
    for f in (hs3.map, _thompson_x1(), pre3.f, pre3.g, pm_identity()):
        assert PiecewiseProjectiveMap.from_text(f.to_text()) == f


MALFORMED_MAP_TEXTS = {
    "empty": "",
    "break-without-piece": "[[1,1],[0,1]] @1",
    "break-at-inf": "[[1,1],[0,1]] @inf [[1,2],[0,1]]",
    "break-without-at": "[[1,1],[0,1]] 1 [[1,2],[0,1]]",
    "piece-is-a-break": "[[1,1],[0,1]] @1 @2",
    "zero-denominator": "[[1,0],[0,1]] @1/0 [[1,0],[0,1]]",
    "bad-break": "[[1,0],[0,1]] @x [[1,0],[0,1]]",
    "determinant-2": "[[2,0],[0,1]]",
    "discontinuous": "[[1,0],[0,1]] @1 [[1,1],[0,1]]",
}


@pytest.mark.parametrize("text", MALFORMED_MAP_TEXTS.values(), ids=MALFORMED_MAP_TEXTS.keys())
def test_map_from_malformed_text(text):
    # a PiecewiseMapError, for pieces that do not form a map, is a ValueError
    with pytest.raises(ValueError):
        PiecewiseProjectiveMap.from_text(text)


def _exact_piece_index(f, x):
    """The number of breaks b <= x, by integer compares."""
    return sum(qn_compare(x, b) >= 0 for b in f.breaks)


def _check_piece_index(f, points):
    for x in points:
        assert f.piece_index(x) == _exact_piece_index(f, x), (f, x)


@pytest.fixture
def exact_compares(monkeypatch):
    """Counts the qn_compare calls piece_index falls back to."""
    calls = [0]

    def counting(x, y):
        calls[0] += 1
        return qn_compare(x, y)

    monkeypatch.setattr(piecewise, "qn_compare", counting)
    return calls


def _near(points, eps):
    return [p + d for p in points for d in (QuadraticNumber(eps), QuadraticNumber(-eps))]


def test_piece_index_at_and_near_breaks(pre3, exact_compares):
    maps = [pre3.hs.map, pre3.companion]
    maps += [f.inverse() for f in maps]
    breaks = [b for f in maps for b in f.breaks]
    for f in maps:
        _check_piece_index(f, breaks)
        _check_piece_index(f, _near(breaks, Fraction(1, 2**60)))
    for f in maps:
        # 2**-200 from a break is below the filter's reach: its probe falls back
        exact_compares[0] = 0
        _check_piece_index(f, _near(f.breaks, Fraction(1, 2**200)))
        assert exact_compares[0] >= 2 * len(f.breaks)


def _walk_points(mu, count, rng):
    """Points of witness walks from sqrt(3), as many of each 100-bit size
    class up to 1500 bits; a walk restarts once it grows past 1500 bits."""
    quota = [count // 15 + 1] * 15
    points, x = [], SQRT3
    while len(points) < count:
        x = mu.sample(rng).apply(x)
        A, B, D, _ = x
        bits = A.bit_length() + B.bit_length() + D.bit_length()
        if bits > 1500:
            x = SQRT3
        elif quota[bits // 100]:
            quota[bits // 100] -= 1
            points.append(x)
    return points


def test_piece_index_on_walk_points(pre3, exact_compares):
    translation = pm_from_matrix(ProjectiveMatrix.translation(1))
    mu = witness_measure(pre3.hs.map, pre3.companion, translation)
    atoms = [f for f, _ in mu.atoms]
    points = _walk_points(mu, 2000, random.Random(11))
    exact_compares[0] = 0
    for f in atoms:
        _check_piece_index(f, points)
    # the float filter settles all but a few calls (points within float
    # resolution of a break, near the fixed points the walk accumulates at)
    assert exact_compares[0] < len(atoms) * len(points) // 20


def test_piece_index_many_breaks(pre3):
    translation = pm_from_matrix(ProjectiveMatrix.translation(1))
    mu = witness_measure(pre3.hs.map, pre3.companion, translation)
    atoms = [f for f, _ in mu.atoms]
    rng = random.Random(3)
    f = pm_identity()
    while len(f.breaks) <= 16:
        f = rng.choice(atoms) * f
    _check_piece_index(f, f.breaks)
    _check_piece_index(f, _near(f.breaks, Fraction(1, 2**60)))
    _check_piece_index(f, _near(f.breaks, Fraction(1, 2**200)))
    _check_piece_index(f, _walk_points(mu, 300, random.Random(12)))


def test_piece_index_points_without_float(pre3):
    # square-free radicand >= 2**53, where qn_approx gives no enclosure
    k = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    for f in (pre3.hs.map, pre3.companion, pre3.companion.inverse()):
        points = [q(10**400), q(-(10**400)), qn_normalize(10**400, 1, 3, 3)]
        for b in f.breaks:
            r = Fraction(float(b))
            for sign in (1, -1):
                # r + sign*sqrt(k)/2**200 with r = float(b), next to the break b
                points.append(
                    qn_normalize(r.numerator << 200, sign * r.denominator, r.denominator << 200, k)
                )
        assert all(qn_approx(x) is None for x in points)
        _check_piece_index(f, points)
