"""Exact arithmetic over Q and real quadratic fields Q(sqrt k).

Every value is canonical integers (A + B*sqrt(k)) / D: the radicand is
square-free, rationals are the k == 1 case, and equality/ordering are
decided with integer arithmetic.  qn_approx gives a float with a proven
error bound, for callers that filter comparisons before deciding them
exactly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple, Union


class MixedFieldError(ArithmeticError):
    """Combination of irrationals from two distinct quadratic fields."""


# Trial division covers the primes below this bound; a cofactor left below
# its square is therefore prime.
_TRIAL_BOUND = 10_000


def _primes_below(n: int) -> List[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)
# The first 13 primes: as Miller-Rabin bases they decide primality exactly
# below 3.3 * 10**24 (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with _MR_BASES, for an odd n with no prime factor below
    _TRIAL_BOUND.

    Exact below 3317044064679887385961981, the smallest composite that
    passes all 13 bases; above it, n is taken as prime when it is a strong
    probable prime to every base.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A nontrivial divisor of an odd composite n, by Pollard-Brent rho.

    The polynomials x*x + c are tried for c = 1, 2, ... in turn, so the
    divisor found is the same on every run.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                done += 128
            r *= 2
        if g == n:
            # the batched product hit 0 mod n: redo the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_trial(n: int) -> Dict[int, int]:
    """Prime factorization {p: e} of n >= 1.

    Trial division by the primes below _TRIAL_BOUND, then Miller-Rabin and
    Pollard-Brent rho on what is left.
    """
    factors: Dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return factors


def normalize_radicand(n: int) -> Tuple[int, int]:
    """Write n = m*m*k with k square-free; return (k, m)."""
    if n < 1:
        raise ValueError("radicand must be a positive integer")
    return squarefree_of_factors([n])


def squarefree_of_factors(parts: Iterable[int]) -> Tuple[int, int]:
    """normalize_radicand of a product given through its integer parts.

    Useful when the product is too large to factor directly but the parts
    are not (for example tr*tr - 4 == (tr - 2)*(tr + 2)).
    """
    merged: Dict[int, int] = {}
    for part in parts:
        if part < 1:
            raise ValueError("parts must be positive")
        for p, e in _factor_trial(part).items():
            merged[p] = merged.get(p, 0) + e
    k = m = 1
    for p, e in merged.items():
        if e % 2:
            k *= p
        m *= p ** (e // 2)
    return k, m


def _join(k: int, l: int) -> int:
    if k == 1:
        return l
    if l == 1 or l == k:
        return k
    raise MixedFieldError(f"cannot combine sqrt({k}) with sqrt({l})")


def _sign_root(u: int, v: int, k: int) -> int:
    """Sign of u + v*sqrt(k) for integers u, v and k >= 1."""
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if (u > 0) == (v > 0):
        return 1 if u > 0 else -1
    s = 1 if u > 0 else -1
    n = u * u - v * v * k
    return s * ((n > 0) - (n < 0))


class QuadraticNumber(tuple):
    """Element (A + B*sqrt(k)) / D of Q(sqrt k) over the integers.

    The number is the immutable tuple (A, B, D, k) in canonical form:
    D > 0, gcd(A, B, D) == 1, k square-free, and B == 0 forces k == 1 (the
    rationals).  QuadraticNumber(a, b, k) builds a + b*sqrt(k) from
    rationals and factors k, for text parsing and outside callers; the
    library builds points from integers with qn_normalize.
    """

    __slots__ = ()

    def __new__(cls, a=0, b=0, k: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        k = int(k)
        if k < 0:
            raise ValueError("radicand must be nonnegative")
        if k == 0 or b == 0:
            b = Fraction(0)
            k = 1
        elif k == 1:
            a, b = a + b, Fraction(0)
        else:
            k, m = normalize_radicand(k)
            if k == 1:
                a, b = a + b * m, Fraction(0)
            else:
                b = b * m
        ad, bd = a.denominator, b.denominator
        D = ad * bd // math.gcd(ad, bd)
        # a, b in lowest terms and D = lcm of their denominators: gcd is 1
        return _new(cls, (a.numerator * (D // ad), b.numerator * (D // bd), D, k))

    k = property(itemgetter(3), doc="square-free radicand (1 on Q)")

    def __reduce__(self):
        # copy and pickle rebuild the canonical tuple, without factoring k
        return (qn_normalize, tuple(self))

    @property
    def is_rational(self) -> bool:
        return self[3] == 1

    def conjugate(self) -> "QuadraticNumber":
        A, B, D, k = self
        return _new(QuadraticNumber, (A, -B, D, k))

    def sign(self) -> int:
        return _sign_root(self[0], self[1], self[3])

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        A, B, D, k = self
        E, F, G, l = o
        return qn_normalize(A * G + E * D, B * G + F * D, D * G, _join(k, l))

    __radd__ = __add__

    def __neg__(self):
        A, B, D, k = self
        return _new(QuadraticNumber, (-A, -B, D, k))

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        A, B, D, k = self
        E, F, G, l = o
        return qn_normalize(A * G - E * D, B * G - F * D, D * G, _join(k, l))

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        A, B, D, k = self
        E, F, G, l = o
        return qn_normalize(E * D - A * G, F * D - B * G, D * G, _join(k, l))

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        A, B, D, k = self
        E, F, G, l = o
        k = _join(k, l)
        return qn_normalize(A * E + B * F * k, A * F + B * E, D * G, k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide(self, o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide(o, self)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if other is INFINITY:
            return False
        o = _parts(other)
        if o is None:
            return NotImplemented
        return tuple.__eq__(self, o)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        c = _order(self, other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = _order(self, other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = _order(self, other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = _order(self, other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        A, B, D, _ = self
        if B:
            return tuple.__hash__(self)
        # a rational point hashes like the equal int or Fraction
        return hash(A) if D == 1 else hash(Fraction(A, D))

    def __float__(self):
        # diagnostics only; all decisions in the library are exact
        A, B, D, k = self
        return A / D + B / D * math.sqrt(k)

    def __repr__(self):
        A, B, D, k = self
        a, b = (_fraction_repr(n, D) for n in (A, B))
        return f"QuadraticNumber({a}, {b}, {k})"

    def __str__(self):
        return qn_to_text(self)


_new = tuple.__new__


def qn_normalize(A: int, B: int, D: int, k: int) -> QuadraticNumber:
    """The point (A + B*sqrt(k)) / D for integers, D nonzero, k square-free."""
    if D < 0:
        A, B, D = -A, -B, -D
    g = math.gcd(A, B, D)
    if g > 1:
        A //= g
        B //= g
        D //= g
    if B == 0:
        k = 1
    return _new(QuadraticNumber, (A, B, D, k))


_ONE = qn_normalize(1, 0, 1, 1)


def _parts(x):
    """(A, B, D, k) of a quadratic number, int or Fraction; None otherwise."""
    if isinstance(x, QuadraticNumber):
        return x
    if isinstance(x, int):
        return (x, 0, 1, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator, 1)
    return None


def _order(x: QuadraticNumber, other):
    """Sign of x - other, with INFINITY above every point; None if not a number."""
    if other is INFINITY:
        return -1
    o = _parts(other)
    return None if o is None else qn_compare(x, o)


def _divide(x, y) -> QuadraticNumber:
    A, B, D, k = x
    E, F, G, l = y
    if E == 0 and F == 0:
        raise ZeroDivisionError("division by zero quadratic number")
    k = _join(k, l)
    # (A + B r) / D * G / (E + F r) with r = sqrt(k), times (E - F r) / (E - F r)
    return qn_normalize(
        (A * E - B * F * k) * G, (B * E - A * F) * G, D * (E * E - F * F * k), k
    )


class _InfinityType:
    """The single point at infinity of the projective line."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("pwproj-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INFINITY = _InfinityType()

ExtendedPoint = Union[QuadraticNumber, _InfinityType]


def is_infinity(p: ExtendedPoint) -> bool:
    return p is INFINITY


def qn_compare(x: QuadraticNumber, y: QuadraticNumber) -> int:
    """Exact sign of x - y, valid across distinct quadratic fields."""
    A, B, D, k = x
    E, F, G, l = y
    # x - y = (u + v*sqrt(k) + w*sqrt(l)) / (D*G) with D*G > 0
    u = A * G - E * D
    v = B * G
    w = -F * D
    if k == l:
        return _sign_root(u, v + w, k)
    if v == 0:
        return _sign_root(u, w, l)
    if w == 0:
        return _sign_root(u, v, k)
    # both radicands >= 2 and distinct: p = u + v*sqrt(k) against w*sqrt(l)
    sp = _sign_root(u, v, k)
    sw = 1 if w > 0 else -1
    if sp == 0 or sp == sw:
        return sw if sp == 0 else sp
    return sp * _sign_root(u * u + v * v * k - w * w * l, 2 * u * v, k)


_INF = math.inf


def qn_approx(x: QuadraticNumber) -> Optional[Tuple[float, float]]:
    """A float f and an error bound e with |x - f| < e/2; None if x does not fit.

    With a = A/D, b = B/D and r = sqrt(k) rounded to floats,
    f = a + b*r and e = 2**-48 * (|a| + |b|*r) + 2**-1000, in floats.

    Why the bound holds (u = 2**-53): int/int true division and math.sqrt
    are correctly rounded, and every float operation returns z*(1 + d) + h
    with |d| <= u and |h| <= 2**-1075, where h is nonzero only when the
    result underflows into the subnormals (never for a sum or difference).
    For k < 2**53, float(k) is exact, so r = sqrt(k)*(1 + d).  Adding the
    errors of the five roundings and bounding the exact |A/D| and
    |B/D|*sqrt(k) by the computed |a| and |b|*r gives
    |x - f| <= 4u(1 + 3u)(|a| + |b|*r) + 2**-1075 * (2r + 3),
    below 2**-51 (1 + 3u)(|a| + |b|*r) + 2**-1047 since r < 2**27.
    Rounding e itself costs at most a relative 4u and 2 * 2**-1075, so
    e/2 >= 2**-49 (1 - 4u)(|a| + |b|*r) + 2**-1001 (1 - u) - 2**-1075,
    which is larger.  The 2**-1000 term covers points whose parts
    underflow to zero.

    None when A/D or B/D is too large for a float (OverflowError), when f
    or e is not finite (an overflow in a product or sum, or inf - inf), or
    when k >= 2**53, where float(k) would round.
    """
    A, B, D, k = x
    if k >= 1 << 53:
        return None
    try:
        a = A / D
        b = B / D
    except OverflowError:
        return None
    r = math.sqrt(k)
    f = a + b * r
    e = 2.0**-48 * (abs(a) + abs(b) * r) + 2.0**-1000
    if -_INF < f < _INF and e < _INF:
        return f, e
    return None


def qn_floor_times(x: QuadraticNumber, m: int) -> int:
    """floor(x * m) for an integer m >= 1, in integer arithmetic alone."""
    A, B, D, k = x
    if B == 0:
        return A * m // D
    # B*m*sqrt(k) lies strictly between t and t + 1: (B*m)**2 * k is not a square
    Bm = B * m
    t = math.isqrt(Bm * Bm * k)
    if B < 0:
        t = -t - 1
    return (A * m + t) // D


def point_order_key(p: ExtendedPoint, n: int = 64):
    """Sort key (floor(p * 2**n), p) of an extended point; INFINITY sorts last.

    The floor is exact integer arithmetic and monotone in p, so the keys
    order points as the points do: two points closer than 2**-n tie on the
    integer and are then compared exactly.  A larger n leaves fewer ties.
    """
    if p is INFINITY:
        return (_INF, p)
    return (qn_floor_times(p, 1 << n), p)


def sorted_points(points: Iterable[ExtendedPoint]) -> List[ExtendedPoint]:
    """The points in increasing order, INFINITY last.

    Sorted by point_order_key with n the largest denominator bit length
    (at least 64), so that few pairs tie on the integer part.
    """
    points = list(points)
    n = max([64] + [p[2].bit_length() for p in points if p is not INFINITY])
    return sorted(points, key=lambda p: point_order_key(p, n))


def canonical_key(p: ExtendedPoint):
    """Injective, hashable, run-stable key for an extended point.

    A point is itself a dictionary key; this plain tuple is for the walk's
    intern table, where its hash (in C, unlike the point's own) is worth
    about 7% of witness throughput.  A rational point's key does not find
    the point in a point-keyed table.
    """
    if p is INFINITY:
        return ("inf",)
    return tuple(p)


# -- text form ----------------------------------------------------------

_QN_RE = re.compile(
    r"""^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*
         (?P<sign>[+-])\s*
         (?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(?P<k>\d+)\s*\)\s*$""",
    re.VERBOSE,
)
_RAT_RE = re.compile(r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*$")
_ROOT_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<b>\d+(?:/\d+)?)?\s*\*?\s*sqrt\(\s*(?P<k>\d+)\s*\)\s*$"
)


# str() and int() refuse integers of more than sys.get_int_max_str_digits()
# digits: 4300 by default from Python 3.11 (and 3.10.7) on, and never fewer
# than 640 where set; an integer of at most _STR_BITS bits, or a text of at
# most _STR_DIGITS digits, is within any such limit
_STR_BITS = 2000
_STR_DIGITS = 600


def int_to_text(n: int) -> str:
    """str(n) at any size, whatever the interpreter's digit limit.

    A large n is split by a power of 10 near half its digits and each half
    printed on its own, the low half padded with zeros.
    """
    if n < 0:
        return "-" + int_to_text(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits, as log10(2) ~ 3/10
    high, low = divmod(n, 10**half)
    return int_to_text(high) + int_to_text(low).zfill(half)


def int_from_text(text: str) -> int:
    """int(text) at any size, for an optional sign and decimal digits."""
    if len(text) <= _STR_DIGITS:
        return int(text)
    if text[0] in "+-":
        value = int_from_text(text[1:])
        return -value if text[0] == "-" else value
    half = len(text) // 2
    return int_from_text(text[:-half]) * 10**half + int_from_text(text[-half:])


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    if g != d:
        return f"{int_to_text(n // g)}/{int_to_text(d // g)}"
    return int_to_text(n // g)


def _fraction_repr(n: int, d: int) -> str:
    """repr(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    return f"Fraction({int_to_text(n // g)}, {int_to_text(d // g)})"


def _ratio_from_text(text: str) -> Fraction:
    """Fraction(text) for the grammar's [+-]n or [+-]n/d."""
    num, _, den = text.partition("/")
    return Fraction(int_from_text(num), int_from_text(den) if den else 1)


def qn_to_text(x: QuadraticNumber) -> str:
    A, B, D, k = x
    if k == 1:
        return _ratio_text(A, D)
    sign = "+" if B >= 0 else "-"
    return f"{_ratio_text(A, D)}{sign}{_ratio_text(abs(B), D)}*sqrt({k})"


def qn_from_text(text: str) -> QuadraticNumber:
    m = _QN_RE.match(text)
    if m:
        b = _ratio_from_text(m.group("b"))
        if m.group("sign") == "-":
            b = -b
        return QuadraticNumber(_ratio_from_text(m.group("a")), b, int_from_text(m.group("k")))
    m = _RAT_RE.match(text)
    if m:
        return QuadraticNumber(_ratio_from_text(m.group("a")))
    m = _ROOT_RE.match(text)
    if m:
        b = _ratio_from_text(m.group("b")) if m.group("b") else Fraction(1)
        if m.group("sign") == "-":
            b = -b
        return QuadraticNumber(0, b, int_from_text(m.group("k")))
    raise ValueError(f"cannot parse quadratic number: {text!r}")


def point_to_text(p: ExtendedPoint) -> str:
    return "inf" if p is INFINITY else qn_to_text(p)


def point_from_text(text: str) -> ExtendedPoint:
    if text.strip() == "inf":
        return INFINITY
    return qn_from_text(text)
