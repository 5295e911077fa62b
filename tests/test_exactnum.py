import copy
import math
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key

import mpmath
import pytest

from pwproj.exactnum import (
    INFINITY,
    MixedFieldError,
    QuadraticNumber,
    _factor_trial,
    canonical_key,
    int_from_text,
    int_to_text,
    normalize_radicand,
    point_order_key,
    qn_approx,
    qn_compare,
    qn_floor_times,
    qn_from_text,
    qn_normalize,
    qn_to_text,
    sorted_points,
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


def test_copy_and_pickle_keep_the_canonical_tuple():
    # k is the product of two Mersenne primes: rebuilding must not factor it
    k = (2**61 - 1) * (2**89 - 1)
    x = qn_normalize(1, 1, 2, k)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is QuadraticNumber
        assert tuple(y) == (1, 1, 2, k)


def _factor_plain(n):
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_factor_trial_matches_plain_trial_division():
    rng = random.Random(11)
    composites = [rng.randint(2, 10**11) for _ in range(300)]
    # products of two primes above the trial-division bound
    composites += [10007 * 10009, 999983 * 1000003, 10007 * 10007 * 10009]
    squares = [p * p for p in (9973, 10007, 65537, 999983, 1000003)] + [10007**3]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                  5394826801, 232250619601, 9746347772161]
    for n in composites + squares + carmichael + [1, 2, 9973, 10007]:
        assert _factor_trial(n) == _factor_plain(n), n


def test_factor_trial_splits_large_semiprimes():
    p, q_, r = 2**61 - 1, 2**31 - 1, 10**9 + 7
    assert _factor_trial(p * q_ * q_ * r) == {p: 1, q_: 2, r: 1}
    assert _factor_trial(q_**3) == {q_: 3}
    # a strong pseudoprime to each of the first 11 prime bases, 2 to 31
    n = 3825123056546413051
    assert _factor_trial(n) == {149491: 1, 747451: 1, 34233211: 1}


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
        xv = (mpmath.mpf(x[0]) + mpmath.mpf(x[1]) * mpmath.sqrt(x[3])) / x[2]
        yv = (mpmath.mpf(y[0]) + mpmath.mpf(y[1]) * mpmath.sqrt(y[3])) / y[2]
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


def _random_point(rng):
    k = rng.choice((1, 2, 3))
    D = rng.choice((1, rng.randint(1, 50), rng.getrandbits(rng.randint(1, 200)) | 1))
    A = rng.randint(-(10**6), 10**6) * rng.choice((1, D))
    B = rng.randint(-(10**6), 10**6) if k > 1 else 0
    return qn_normalize(A, B, D, k)


def _assert_floors_exact(pts):
    """qn_floor_times(x, m) is the n with n <= x*m < n + 1, by exact compares."""
    for x in pts:
        for m in (1, 7, 63, 2**64):
            n = qn_floor_times(x, m)
            scaled = x * m
            assert qn_compare(q(n), scaled) <= 0 < qn_compare(q(n + 1), scaled), (x, m)


def test_point_order_key_matches_exact_compare():
    rng = random.Random(17)
    pts = [_random_point(rng) for _ in range(600)]
    pts += [QuadraticNumber(0), q(0, 1, 2), q(0, -1, 3), q(Fraction(-1, 3))]
    exact = sorted(pts, key=cmp_to_key(qn_compare))
    assert sorted(pts, key=point_order_key) == exact
    assert sorted_points(pts) == exact
    _assert_floors_exact(pts)


def test_point_order_key_on_points_closer_than_the_shift():
    # x = p - q*sqrt(k) from the convergents p/q of sqrt(k) shrinks like 1/q,
    # next to the rationals 1/q**2; x and x +- 2**-70 tie on floor(x * 2**64),
    # so the exact comparison decides their order
    pts = []
    for k in (2, 3):
        a = math.isqrt(k)
        p, q_ = a, 1
        for _ in range(60):
            for x in (qn_normalize(p, -q_, 1, k), qn_normalize(-p, q_, 1, k)):
                pts.append(x)
                pts.append(x + QuadraticNumber(Fraction(1, 2**70)))
                pts.append(x - QuadraticNumber(Fraction(1, 2**70)))
            pts.append(QuadraticNumber(Fraction(1, q_ * q_)))
            # next convergent of the continued fraction [a; ...] of sqrt(k)
            p, q_ = (p + k * q_, p + q_) if k == 2 else (2 * p + 3 * q_, p + 2 * q_)
    keys = [point_order_key(x)[0] for x in pts]
    assert len(set(keys)) < len(set(pts))
    exact = sorted(pts, key=cmp_to_key(qn_compare))
    assert sorted(pts, key=point_order_key) == exact
    assert sorted_points(pts) == exact
    _assert_floors_exact(pts)


def test_point_order_key_puts_infinity_last():
    pts = [INFINITY, q(10**40), q(-3, 1, 2), q(0)]
    assert sorted(pts, key=point_order_key)[-1] is INFINITY
    assert sorted_points(pts) == [q(-3, 1, 2), q(0), q(10**40), INFINITY]


def _text_by_fractions(x):
    """The text form built from Fractions of the integers, as the reference."""
    A, B, D, k = x
    a, b = Fraction(A, D), Fraction(B, D)
    if k == 1:
        return str(a)
    sign = "+" if b >= 0 else "-"
    return f"{a}{sign}{abs(b)}*sqrt({k})"


def test_qn_to_text_matches_fraction_form():
    rng = random.Random(23)
    pts = [_random_point(rng) for _ in range(1000)]
    pts += [q(0), q(0, 1, 2), q(0, -5, 3), q(Fraction(-7, 4)), q(Fraction(6, 4), -2, 2)]
    pts += [qn_normalize(0, rng.randint(-99, 99) or 1, rng.randint(1, 99), 3) for _ in range(50)]
    for x in pts:
        text = qn_to_text(x)
        assert text == _text_by_fractions(x)
        assert qn_from_text(text) == x


def _power_text(k, d):
    """Decimal text of 10**k + d for d in (-1, 0, 1), built without str()."""
    return {-1: "9" * k, 0: "1" + "0" * k, 1: "1" + "0" * (k - 1) + "1"}[d]


def test_int_text_past_the_digit_limit():
    # str() and int() refuse more than 4300 digits from Python 3.11 on
    for k in (4299, 4300, 4301, 14000, 50000):
        for d in (-1, 0, 1):
            n, text = 10**k + d, _power_text(k, d)
            assert int_to_text(n) == text and int_to_text(-n) == "-" + text
            assert int_from_text(text) == n and int_from_text("-" + text) == -n
    rng = random.Random(5)
    for bits in (13999, 14000, 14001, 40000, 166097):
        n = rng.getrandbits(bits)
        assert int_from_text(int_to_text(n)) == n
        assert int_from_text(int_to_text(-n)) == -n


def test_point_text_round_trip_at_50000_digits():
    big = 10**50000
    x = qn_normalize(big + 1, 3, 7, 2)
    assert qn_to_text(x) == f"{_power_text(50000, 1)}/7+3/7*sqrt(2)"
    assert qn_from_text(qn_to_text(x)) == x
    for x in (qn_normalize(-3, big - 1, 3 * big + 1, 5), qn_normalize(-big - 1, 0, big - 1, 1)):
        assert qn_from_text(qn_to_text(x)) == x
    quarter = "25" + "0" * 49998
    assert repr(qn_normalize(big, -2, 4, 3)) == f"QuadraticNumber(Fraction({quarter}, 1), Fraction(-1, 2), 3)"


@pytest.mark.parametrize("x", [q(0), q(Fraction(-7, 4)), q(Fraction(6, 4), -2, 2), q(3, Fraction(1, 5), 7)])
def test_repr_matches_fraction_repr(x):
    a, b = Fraction(x[0], x[2]), Fraction(x[1], x[2])
    assert repr(x) == f"QuadraticNumber({a!r}, {b!r}, {x[3]})"
