"""PSL2(Z): normalized matrices, Moebius action, stabilizers.

Matrices are sign-normalized so each group element has one representation.
Point stabilizers are infinite cyclic; the canonical generator of the
stabilizer of a rational is a closed form in its integers, that of a
quadratic irrational is the automorph of its primitive form for the least
unit of norm 1, and exponents in the stabilizer are read off the entries
or the trace.  One continued-fraction walk, bounded at 2**20 quotients,
finds that unit and decides orbit equivalence.
"""

from __future__ import annotations

import re
from math import gcd, isqrt, log, sqrt
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .exactnum import (
    INFINITY,
    ExtendedPoint,
    QuadraticNumber,
    int_from_text,
    int_to_text,
    qn_normalize,
    squarefree_of_factors,
)

_new = tuple.__new__


class DeterminantError(ValueError):
    """Integer 2x2 matrix whose determinant is not 1."""


class LongPeriodError(ValueError):
    """Continued-fraction period longer than the 2**20-quotient bound."""


class IdentityMatrixError(ValueError):
    """Operation undefined on the identity."""


class NotInStabilizerError(ValueError):
    """Matrix does not fix the given point."""


class NotAPowerError(ValueError):
    """Matrix fixes the point but is not a power of the canonical generator."""


class ProjectiveMatrix(tuple):
    """Element of PSL2(Z): integer matrix of determinant 1, sign-normalized.

    The matrix [[a, b], [c, d]] is the immutable tuple (a, b, c, d).  It
    equals only matrices, never a plain tuple or a QuadraticNumber with the
    same integers, and hashes like the tuple (a, b, c, d).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "ProjectiveMatrix":
        return _new(cls, (a, b, c, d))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))
    d = property(itemgetter(3))

    def __reduce__(self):
        return (ProjectiveMatrix, tuple(self))

    def __eq__(self, other):
        return isinstance(other, ProjectiveMatrix) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self):
        a, b, c, d = self
        return f"ProjectiveMatrix(a={a!r}, b={b!r}, c={c!r}, d={d!r})"

    @classmethod
    def make(cls, a: int, b: int, c: int, d: int) -> "ProjectiveMatrix":
        if a * d - b * c != 1:
            raise DeterminantError(f"determinant of {cls(a, b, c, d).to_text()} is not 1")
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        return _new(cls, (a, b, c, d))

    @classmethod
    def identity(cls) -> "ProjectiveMatrix":
        return _new(cls, (1, 0, 0, 1))

    @classmethod
    def translation(cls, n: int) -> "ProjectiveMatrix":
        return _new(cls, (1, n, 0, 1))

    @property
    def is_identity(self) -> bool:
        return tuple.__eq__(self, (1, 0, 0, 1))

    @property
    def is_translation(self) -> bool:
        return self[2] == 0

    def trace(self) -> int:
        return self[0] + self[3]

    def __mul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        a, b, c, d = self
        e, f, g, h = other
        # make's checks, inline: products are the hottest path through it
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        if a * d - b * c != 1:
            raise DeterminantError(f"determinant of {ProjectiveMatrix(a, b, c, d).to_text()} is not 1")
        if c < 0 or (c == 0 and d < 0):
            return _new(ProjectiveMatrix, (-a, -b, -c, -d))
        return _new(ProjectiveMatrix, (a, b, c, d))

    def inverse(self) -> "ProjectiveMatrix":
        a, b, c, d = self
        return ProjectiveMatrix.make(d, -b, -c, a)

    def power(self, n: int) -> "ProjectiveMatrix":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = ProjectiveMatrix.identity()
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def apply(self, p: ExtendedPoint) -> ExtendedPoint:
        """Moebius action (a p + b) / (c p + d); poles map to INFINITY."""
        a, b, c, d = self
        if p is INFINITY:
            return INFINITY if c == 0 else qn_normalize(a, 0, c, 1)
        A, B, D, k = p
        # p = (A + B r) / D with r = sqrt(k)
        nA = a * A + b * D
        nB = a * B
        if c == 0:
            return qn_normalize(nA, nB, d * D, k)
        dA = c * A + d * D
        dB = c * B
        den = dA * dA - dB * dB * k
        if den == 0:
            return INFINITY
        # (nA + nB r) / (dA + dB r), times (dA - dB r) / (dA - dB r)
        return qn_normalize(nA * dA - nB * dB * k, nB * dA - nA * dB, den, k)

    def fixes(self, p: ExtendedPoint) -> bool:
        """Whether c p**2 + (d - a) p - b == 0, on p's integers; INFINITY if c == 0."""
        a, b, c, d = self
        if p is INFINITY:
            return c == 0
        A, B, D, k = p
        # times D**2: rational part, then the coefficient of sqrt(k) over B
        if c * (A * A + B * B * k) + (d - a) * A * D != b * D * D:
            return False
        return B == 0 or 2 * c * A == (a - d) * D

    def pole(self) -> Optional[QuadraticNumber]:
        """The point -d/c sent to INFINITY; None for a translation."""
        if self.c == 0:
            return None
        return qn_normalize(-self.d, 0, self.c, 1)

    def to_text(self) -> str:
        a, b, c, d = (int_to_text(v) for v in self)
        return f"[[{a},{b}],[{c},{d}]]"

    @classmethod
    def from_text(cls, text: str) -> "ProjectiveMatrix":
        m = re.match(
            r"^\s*\[\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*,\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\]\s*$",
            text,
        )
        if not m:
            raise ValueError(f"cannot parse matrix: {text!r}")
        return cls.make(*(int_from_text(g) for g in m.groups()))

    def __str__(self):
        return self.to_text()


def mat_classify(m: ProjectiveMatrix) -> str:
    if m.is_identity:
        return "identity"
    t = abs(m.trace())
    if t > 2:
        return "hyperbolic"
    if t == 2:
        return "parabolic"
    return "elliptic"


def mat_fixed_points(m: ProjectiveMatrix) -> List[ExtendedPoint]:
    """Exact solutions of c x**2 + (d - a) x - b = 0, plus INFINITY if c == 0."""
    if m.is_identity:
        raise IdentityMatrixError("every point is fixed by the identity")
    if m.c == 0:
        # normalized c == 0 forces a == d == 1: a translation fixing only inf
        return [INFINITY]
    kind = mat_classify(m)
    if kind == "elliptic":
        return []
    if kind == "parabolic":
        return [qn_normalize(m.a - m.d, 0, 2 * m.c, 1)]
    # x = (a - d -+ sqrt(t*t - 4)) / (2c) with c > 0, so -sqrt is the lower root
    t = abs(m.trace())
    k, mult = squarefree_of_factors([t - 2, t + 2])
    return [
        qn_normalize(m.a - m.d, -mult, 2 * m.c, k),
        qn_normalize(m.a - m.d, mult, 2 * m.c, k),
    ]


# -- Pell equations and stabilizers ------------------------------------


# A step takes 0.5-1 us on a 2-vCPU VM, so a walk gives up after about 1 s.  The
# longest period among 400 seeded points (k <= 400, parts up to 30) is 275,196.
_MAX_QUOTIENTS = 1 << 20


def _complete_quotients(P: int, Q: int, disc: int) -> Iterator[Tuple[int, int, int]]:
    """Yield (a, P', Q') per step x -> 1 / (x - a), a = floor(x), of x = (P + sqrt(disc)) / Q:
    the next complete quotient is (P' + sqrt(disc)) / Q', and Q | disc - P**2 stays true.
    Raises LongPeriodError after _MAX_QUOTIENTS steps."""
    root = isqrt(disc)
    for _ in range(_MAX_QUOTIENTS):
        # sqrt(disc) is irrational, so for Q < 0 the floor is one below -ceil
        a = (P + root) // Q if Q > 0 else (P + root + 1) // Q
        P = a * Q - P
        Q = (disc - P * P) // Q
        yield a, P, Q
    raise LongPeriodError(f"discriminant {disc}: no period within {_MAX_QUOTIENTS} quotients")


def _least_unit(disc: int) -> Tuple[int, int]:
    """Least positive (t, u) with t*t - disc*u*u == 4, for non-square disc = 0, 1 mod 4.

    (t + u sqrt(disc)) / 2 is then the least unit > 1 of norm 1 in the order
    of discriminant disc.  By the classical theorem (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, Sec. 5.7; Buchmann and
    Vollmer, Binary Quadratic Forms, 2007) the fundamental unit is
    p - q w' for the convergent p/q = [a_0; ..., a_{L-1}] of
    w = (s + sqrt(disc)) / 2, s = disc mod 2, whose period a_1 ... a_L
    starts at the reduced first complete quotient; its norm is (-1)**L.
    The quotients' matrices [[a, 1], [1, 0]] are multiplied by a balanced
    product tree.
    """
    s = disc & 1
    steps = _complete_quotients(s, 2, disc)
    a, P, Q = next(steps)
    first = (P, Q)
    quotients = [a]
    for a, P, Q in steps:
        if (P, Q) == first:
            break
        quotients.append(a)
    # the product is [[p, p'], [q, q']] with p/q = [a_0; ..., a_{L-1}]
    mats = [(a, 1, 1, 0) for a in quotients]
    while len(mats) > 1:
        paired = [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (a, b, c, d), (e, f, g, h) in zip(mats[::2], mats[1::2])
        ]
        if len(mats) & 1:
            paired.append(mats[-1])
        mats = paired
    p, q = mats[0][0], mats[0][2]
    t, u = 2 * p - s * q, q
    if len(quotients) & 1:
        # norm -1: square the unit
        t, u = (t * t + disc * u * u) // 2, t * u
    return t, u


# pays on products (1,530 against 1,360 pairs/s): 142 lookups for 51 distinct points per 40 pairs
_STABILIZER_CACHE: Dict[ExtendedPoint, ProjectiveMatrix] = {}


def stabilizer_generator(p: ExtendedPoint) -> ProjectiveMatrix:
    """Canonical generator of the cyclic stabilizer of p in PSL2(Z)."""
    cached = _STABILIZER_CACHE.get(p)
    if cached is not None:
        return cached
    gen = _stabilizer_generator(p)
    _STABILIZER_CACHE[p] = gen
    return gen


def _stabilizer_generator(p: ExtendedPoint) -> ProjectiveMatrix:
    if p is INFINITY:
        return ProjectiveMatrix.translation(1)
    A, B, D, k = p
    if B == 0:
        # conj**-1 * T * conj for any conj = [[m, n], [-D, A]] of
        # determinant 1, written out: m and n cancel
        return ProjectiveMatrix.make(1 - A * D, A * A, -D * D, 1 + A * D)

    # p is the root (-b + sqrt(disc)) / (2a) of its primitive form
    # (a, b, c).  The stabilizer is generated by the form's automorph for
    # the least unit (t + u sqrt(disc)) / 2 > 1 of norm 1.  The matrix below
    # has lower row (-a u, (t - b u) / 2), which is (t - u sqrt(disc)) / 2
    # at p, so its derivative at p is the unit squared, > 1: the canonical
    # generator.
    a, b, c = _form_of(p)
    t, u = _least_unit(b * b - 4 * a * c)
    gen = ProjectiveMatrix.make((t + b * u) // 2, c * u, -a * u, (t - b * u) // 2)
    if not gen.fixes(p):
        raise AssertionError("stabilizer generator does not fix point")
    return gen


def germ_exponent(m: ProjectiveMatrix, p: ExtendedPoint) -> int:
    """The unique n with m == stabilizer_generator(p) ** n.

    |n| is read from m, then one power of g gives the sign or shows that m
    is no power of g.

    At a rational A/D (INFINITY is 1/0), g**n is
    +-[[1 - nAD, nA^2], [-nD^2, 1 + nAD]], so |b| + |c| = |n| (A^2 + D^2).

    At a quadratic irrational, m == g**n has |tr m| = v**|n| + v**-|n| with
    v + 1/v = |tr g| >= 3, so log|tr m| / log v lies in [|n|, |n| + 0.142]
    (0.142 bounds log(1 + v**-2) / log v, largest at v = (3 + sqrt(5)) / 2)
    and rounds to |n|.  log is accurate to a relative 2**-52 on ints of any
    size, so the float error, about |n| * 2**-50, stays under the remaining
    0.358 for |n| < 10**14; g**|n| would have more than |n| bits.
    """
    if not m.fixes(p):
        raise NotInStabilizerError(f"{m} does not fix {p}")
    if m.is_identity:
        return 0
    gen = stabilizer_generator(p)
    if p is INFINITY or p.is_rational:
        A, D = (1, 0) if p is INFINITY else (p[0], p[2])
        n = (abs(m.b) + abs(m.c)) // (A * A + D * D)
    else:
        t = abs(gen.trace())
        log_v = log(t) + log((1 + sqrt(1 - 4 / (t * t))) / 2)
        n = round(log(abs(m.trace())) / log_v)
    power = gen.power(n)
    if power == m:
        return n
    if power.inverse() == m:
        return -n
    raise NotAPowerError(f"{m} is not a generator power at {p}")


# -- orbit equivalence on the continued-fraction cycle ------------------


def _form_of(x: QuadraticNumber) -> Tuple[int, int, int]:
    """Primitive integral (A, B, C) with A x^2 + B x + C = 0.

    Sign convention: sign(A) == sign of the irrational part of x, so that
    x is the root (-B + sqrt(disc)) / (2A).  This makes the PSL2(Z) action
    on points match proper equivalence of forms.
    """
    # x = (P + Q sqrt(k)) / D is a root of (D x - P)^2 - Q^2 k
    P, Q, D, k = x
    A, B, C = D * D, -2 * P * D, P * P - Q * Q * k
    g = gcd(A, B, C)
    A, B, C = A // g, B // g, C // g
    if Q < 0:
        A, B, C = -A, -B, -C
    return A, B, C


def _first_reduced(P: int, Q: int, disc: int) -> Tuple[int, Tuple[int, int]]:
    """(n, (P_n, Q_n)) of the first reduced complete quotient x_n = (P_n + sqrt(disc)) / Q_n
    of (P + sqrt(disc)) / Q: x_n > 1 > 0 > x_n' > -1, so by Galois it starts the cycle."""
    root = isqrt(disc)
    n = 0
    steps = _complete_quotients(P, Q, disc)
    while not 0 <= root - P < Q <= root + P:
        _, P, Q = next(steps)
        n += 1
    return n, (P, Q)


def orbit_equivalent(p: ExtendedPoint, q: ExtendedPoint) -> bool:
    """Whether some element of PSL2(Z) maps p to q.

    Irrationals of one discriminant are GL2(Z)-equivalent exactly when their
    continued fractions share a complete quotient (Serret): when q's first
    reduced quotient y_j is x_{i + h} on the cycle of p's, x_i.  Each step
    x -> 1 / (x - a) is the matrix [[0, 1], [1, -a]] of determinant -1, so
    that gives a map from p to q of determinant (-1)**(i + h + j).  An odd
    period gives a unit of norm -1, a determinant -1 map fixing p, which
    supplies the missing sign; with an even period every map fixing p has
    determinant 1.  So sqrt(3), of period 2, is not PSL2-equivalent to -sqrt(3).
    """
    k = 1 if p is INFINITY else p.k
    if k != (1 if q is INFINITY else q.k):
        return False
    if k == 1 or p == q:
        # rationals and INFINITY form a single orbit
        return True
    # p is the root (-b + sqrt(disc)) / (2a) of its primitive form (a, b, c)
    a, b, c = _form_of(p)
    e, f, g = _form_of(q)
    disc = b * b - 4 * a * c
    if f * f - 4 * e * g != disc:
        return False
    i, start = _first_reduced(-b, 2 * a, disc)
    j, target = _first_reduced(-f, 2 * e, disc)
    # once round p's cycle from x_i, or until an even i + h + j
    h = 0 if target == start else None
    for L, (_, P, Q) in enumerate(_complete_quotients(*start, disc), 1):
        if h is not None and (i + h + j) % 2 == 0:
            return True
        if (P, Q) == start:
            return h is not None and L % 2 == 1
        if (P, Q) == target:
            h = L
