import random
from fractions import Fraction

import mpmath
import pytest

from pwproj.exactnum import (
    INFINITY,
    MixedFieldError,
    QuadraticNumber,
    canonical_key,
    normalize_radicand,
    qn_approx,
    qn_compare,
    qn_from_text,
    qn_normalize,
    qn_to_text,
    squarefree_of_factors,
)


def q(a, b=0, k=1):
    return QuadraticNumber(Fraction(a), Fraction(b), k)


def test_normalize_radicand_examples():
    assert normalize_radicand(12) == (3, 2)
    assert normalize_radicand(1) == (1, 1)
    assert normalize_radicand(49) == (1, 7)
    assert normalize_radicand(2 * 2 * 3 * 5 * 5 * 7) == (21, 10)


def test_squarefree_of_factors_matches_direct():
    rng = random.Random(1)
    for _ in range(200):
        parts = [rng.randint(1, 5000) for _ in range(rng.randint(1, 3))]
        prod = 1
        for p in parts:
            prod *= p
        assert squarefree_of_factors(parts) == normalize_radicand(prod)


def test_canonical_form():
    assert q(0, 1, 12) == q(0, 2, 3)
    assert q(0, 1, 49) == q(7)
    assert q(1, 0, 5).k == 1
    x = q(Fraction(4, 2), 0, 5)
    assert canonical_key(x) == canonical_key(q(2))


def test_product_of_conjugates():
    x = q(2, 1, 3)
    assert x * x.conjugate() == q(1)


def test_identity_and_mixed_field():
    x = q(Fraction(1, 2), Fraction(3, 4), 7)
    assert x + q(0) == x
    assert x * q(1) == x
    with pytest.raises(MixedFieldError):
        _ = q(1, 1, 2) + q(1, 1, 3)
    with pytest.raises(ZeroDivisionError):
        _ = x / q(0)


def test_division():
    x = q(2, 1, 3)
    y = q(5, -2, 3)
    assert (x / y) * y == x
    assert q(1) / q(2, 1, 3) == q(2, -1, 3)  # (2+r3)(2-r3) = 1


def test_compare_examples():
    assert qn_compare(q(1, 1, 2), q(Fraction(5, 2))) < 0
    assert qn_compare(q(0, 1, 3), q(0, 1, 2)) > 0
    assert qn_compare(q(2, 1, 3), q(2, 1, 3)) == 0


def test_compare_cross_field_against_mpmath():
    rng = random.Random(7)
    mpmath.mp.dps = 100
    for _ in range(1000):
        k = rng.choice([1, 2, 3, 5, 6, 7, 10, 11])
        l = rng.choice([1, 2, 3, 5, 6, 7, 10, 11])
        x = q(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            k,
        )
        y = q(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            l,
        )
        xv = mpmath.mpf(x.a.numerator) / x.a.denominator + mpmath.mpf(
            x.b.numerator
        ) / x.b.denominator * mpmath.sqrt(x.k)
        yv = mpmath.mpf(y.a.numerator) / y.a.denominator + mpmath.mpf(
            y.b.numerator
        ) / y.b.denominator * mpmath.sqrt(y.k)
        got = qn_compare(x, y)
        if xv == yv:
            assert got == 0
        else:
            assert got == (1 if xv > yv else -1), (x, y)


def test_compare_antisymmetric_transitive():
    rng = random.Random(13)
    pts = []
    for _ in range(60):
        pts.append(
            q(
                Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                rng.choice([1, 2, 3, 5, 7]),
            )
        )
    for x in pts:
        for y in pts:
            assert qn_compare(x, y) == -qn_compare(y, x)
    ordered = sorted(pts, key=float)
    for i in range(len(ordered) - 1):
        assert qn_compare(ordered[i], ordered[i + 1]) <= 0


def test_field_axioms_random():
    rng = random.Random(5)
    for _ in range(1000):
        k = rng.choice([2, 3, 5, 11])
        def rnd():
            if rng.random() < 0.3:
                return q(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            return q(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                k,
            )
        x, y, z = rnd(), rnd(), rnd()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_conjugation_is_ring_morphism():
    rng = random.Random(17)
    for _ in range(300):
        k = rng.choice([2, 3, 7])
        x = q(rng.randint(-9, 9), rng.randint(-9, 9), k)
        y = q(rng.randint(-9, 9), rng.randint(-9, 9), k)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_infinity_ordering():
    assert INFINITY > q(10**12)
    assert q(-(10**12)) < INFINITY
    assert INFINITY == INFINITY
    assert not (INFINITY < INFINITY)


def test_text_round_trip():
    samples = [
        q(Fraction(1, 2), Fraction(1), 2),
        q(Fraction(-3, 4), Fraction(-2, 7), 5),
        q(Fraction(5)),
        q(0, 1, 3),
    ]
    for x in samples:
        assert qn_from_text(qn_to_text(x)) == x
    assert qn_from_text("sqrt(3)") == q(0, 1, 3)
    assert qn_from_text("-7/3") == q(Fraction(-7, 3))
    with pytest.raises(ValueError):
        qn_from_text("2 + sqrt(x)")


def test_keys_injective():
    assert canonical_key(q(2, 1, 3)) == canonical_key(q(2, 1, 3))
    assert canonical_key(q(0, 1, 3)) != canonical_key(q(0, 1, 2))
    assert canonical_key(INFINITY) != canonical_key(q(0))


def _assert_encloses(x):
    """qn_approx(x) = (f, e) with f - e/2 < x < f + e/2, decided exactly."""
    approx = qn_approx(x)
    assert approx is not None, x
    f, e = approx
    half = Fraction(e) / 2
    assert qn_compare(x, QuadraticNumber(Fraction(f) - half)) > 0, x
    assert qn_compare(x, QuadraticNumber(Fraction(f) + half)) < 0, x
    return f, e


def test_qn_approx_encloses_random_points():
    rng = random.Random(5)
    for k in (1, 2, 3, 23):
        for _ in range(300):
            bits = rng.randint(1, 3000)
            # A and B within 2**60 of D, so that x fits a float
            D = rng.getrandbits(bits) | 1 << (bits - 1)
            A = rng.choice((-1, 1)) * rng.getrandbits(max(1, bits + rng.randint(-60, 60)))
            B = rng.choice((-1, 1)) * rng.getrandbits(max(1, bits + rng.randint(-60, 60)))
            _assert_encloses(qn_normalize(A, B if k > 1 else 0, D, k))


def test_qn_approx_encloses_near_cancelling_points():
    # p - q*sqrt(3) from the convergents p/q of sqrt(3): |x| ~ 1/q while A, B ~ q
    p, q_ = 1, 1
    checked = 0
    while p.bit_length() < 1100:
        for D in (1, 7, 1 << 40):
            for sign in (1, -1):
                x = qn_normalize(sign * p, -sign * q_, D, 3)
                if p < 2**1000:
                    _assert_encloses(x)
                    checked += 1
                elif p // D >= 2**1024:
                    assert qn_approx(x) is None
        p, q_ = p + 3 * q_, p + q_
    assert checked > 100


def test_qn_approx_subnormal_and_overflow():
    D = 2**1100
    for A, B, k in ((3, 5, 2), (2**80 + 1, 0, 1), (-(2**60), 2**61, 3), (0, 1, 23)):
        f, e = _assert_encloses(qn_normalize(A, B, D, k))
        assert abs(f) < 2.0**-1000 and e >= 2.0**-1000
    assert qn_approx(qn_normalize(10**400, 0, 1, 1)) is None
    assert qn_approx(qn_normalize(-(10**400), 3, 1, 2)) is None
    assert qn_approx(qn_normalize(1, 10**400, 1, 3)) is None
    # sqrt(k) of a square-free k >= 2**53 would be rounded twice
    k = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    assert k >= 2**53 and qn_approx(qn_normalize(1, 1, 1, k)) is None
