"""PSL2(Z): normalized matrices, Moebius action, Pell solvers, stabilizers.

Matrices are sign-normalized so each group element has one representation.
Point stabilizers are infinite cyclic; the canonical generator of the
stabilizer of a quadratic irrational is the one of minimal derivative > 1
at the point, and exponents in the stabilizer are read off derivatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Dict, List, Optional, Tuple

from .exactnum import (
    _ONE,
    INFINITY,
    ExtendedPoint,
    QuadraticNumber,
    int_from_text,
    int_to_text,
    is_infinity,
    qn_normalize,
    squarefree_of_factors,
)


class DeterminantError(ValueError):
    """Integer 2x2 matrix whose determinant is not 1."""


class SquareRadicandError(ValueError):
    """Pell radicand that is a perfect square or below 2."""


class IdentityMatrixError(ValueError):
    """Operation undefined on the identity."""


class NotInStabilizerError(ValueError):
    """Matrix does not fix the given point."""


class NotAPowerError(ValueError):
    """Matrix fixes the point but is not a power of the canonical generator."""


@dataclass(frozen=True)
class ProjectiveMatrix:
    """Element of PSL2(Z): integer matrix of determinant 1, sign-normalized."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def make(cls, a: int, b: int, c: int, d: int) -> "ProjectiveMatrix":
        if a * d - b * c != 1:
            raise DeterminantError(f"determinant of {cls(a, b, c, d).to_text()} is not 1")
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        return cls(a, b, c, d)

    @classmethod
    def identity(cls) -> "ProjectiveMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, n: int) -> "ProjectiveMatrix":
        return cls(1, n, 0, 1)

    @property
    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0 and self.c == 0 and self.d == 1

    @property
    def is_translation(self) -> bool:
        return self.c == 0

    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        return ProjectiveMatrix.make(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ProjectiveMatrix":
        return ProjectiveMatrix.make(self.d, -self.b, -self.c, self.a)

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
        a, b, c, d = self.a, self.b, self.c, self.d
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

    def derivative_at(self, p: QuadraticNumber) -> QuadraticNumber:
        """Exact derivative 1 / (c p + d)**2 at a finite non-pole point."""
        denom = p * self.c + self.d
        if denom.sign() == 0:
            raise ZeroDivisionError("derivative at a pole")
        return _ONE / (denom * denom)

    def pole(self) -> Optional[QuadraticNumber]:
        """The point -d/c sent to INFINITY; None for a translation."""
        if self.c == 0:
            return None
        return qn_normalize(-self.d, 0, self.c, 1)

    def to_text(self) -> str:
        a, b, c, d = (int_to_text(v) for v in (self.a, self.b, self.c, self.d))
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


# -- Pell equations -----------------------------------------------------


def _pell_one(d: int) -> Tuple[int, int]:
    """Minimal positive solution of x*x - d*y*y == 1 for non-square d >= 2."""
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise SquareRadicandError(f"{d} is a perfect square")
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    q_prev, q = 0, 1
    while h * h - d * q * q != 1:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev
    return h, q


def _icbrt(n: int) -> int:
    """floor(cbrt(n)) for n >= 0, by integer Newton iteration.

    Starting at or above the root, each step stays at or above floor(cbrt(n))
    (AM-GM) and strictly decreases until it reaches it.
    """
    if n < 0:
        raise ValueError("cube root of a negative integer")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def pell_fundamental(k: int, rhs: int = 1) -> Tuple[int, int]:
    """Minimal positive (x, y) with x*x - k*y*y == rhs, rhs in {1, 4}."""
    if rhs not in (1, 4):
        raise ValueError("rhs must be 1 or 4")
    if k < 2 or isqrt(k) ** 2 == k:
        raise SquareRadicandError(f"radicand {k} is a square or below 2")
    x1, y1 = _pell_one(k)
    if rhs == 1:
        return x1, y1
    # Solutions of x*x - k*y*y == 4 with x, y odd exist only for k = 5 mod 8;
    # their generator is the real cube root of x1 + y1*sqrt(k).
    if k % 8 == 5:
        x0 = _icbrt(2 * x1)
        for cand in (x0 - 1, x0, x0 + 1):
            if cand > 1 and cand ** 3 - 3 * cand == 2 * x1:
                if (2 * y1) % (cand * cand - 1) == 0:
                    y0 = (2 * y1) // (cand * cand - 1)
                    if cand * cand - k * y0 * y0 == 4:
                        return cand, y0
    return 2 * x1, 2 * y1


# -- stabilizers ---------------------------------------------------------


@dataclass(frozen=True)
class StabilizerDescriptor:
    """Canonical generator of the stabilizer of a point in PSL2(Z).

    For quadratic irrationals phi is the generator's derivative at the
    point (> 1); for rationals and INFINITY the generator is a conjugate
    of the unit translation and phi is None.  to_infinity conjugates the
    point to INFINITY in the rational case.
    """

    point: ExtendedPoint
    generator: ProjectiveMatrix
    phi: Optional[QuadraticNumber]
    to_infinity: Optional[ProjectiveMatrix]


# pays on products (375 against 346 pairs/s): 287 lookups for 86 distinct points per 80 pairs
_STABILIZER_CACHE: Dict[ExtendedPoint, StabilizerDescriptor] = {}


def _bezout(p: int, q: int) -> Tuple[int, int]:
    """Deterministic (m, n) with p*m + q*n == 1 and 0 <= m < q for q > 1."""
    g = gcd(p, q)
    if g != 1:
        raise ValueError("arguments must be coprime")
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    m, n = old_s, old_t
    if q > 1:
        shift = m // q
        m -= shift * q
        n += shift * p
    return m, n


def stabilizer_generator(p: ExtendedPoint) -> StabilizerDescriptor:
    cached = _STABILIZER_CACHE.get(p)
    if cached is not None:
        return cached
    desc = _stabilizer_generator(p)
    _STABILIZER_CACHE[p] = desc
    return desc


def _stabilizer_generator(p: ExtendedPoint) -> StabilizerDescriptor:
    if is_infinity(p):
        return StabilizerDescriptor(p, ProjectiveMatrix.translation(1), None, None)
    A, B, D, k = p
    if B == 0:
        m, n = _bezout(A, D)
        conj = ProjectiveMatrix.make(m, n, -D, A)
        gen = conj.inverse() * ProjectiveMatrix.translation(1) * conj
        if gen.apply(p) != p:
            raise AssertionError("rational stabilizer generator does not fix point")
        return StabilizerDescriptor(p, gen, None, conj)

    # A unit u = (t + w sqrt(k))/2 pulls back to the matrix with
    # c = w D / (2B), a = (t D + 2 A c) / (2D), d = t - a and
    # b = -(A^2 - B^2 k) c / D^2: both roots of c x^2 + (d - a) x - b are
    # (A +- B sqrt(k)) / D, c p + d = u, and the determinant is
    # (t^2 - k w^2) / 4 = 1.  The stabilizer is generated by the pullback of
    # the least power of the fundamental unit that is integral; each step
    # below multiplies by the fundamental unit once.  The pullback's
    # derivative at p is 1 / u^2 < 1, so its inverse is the canonical
    # generator, with phi = u^2.
    t1, w1 = pell_fundamental(k, rhs=4)
    norm = A * A - B * B * k
    t, w = t1, w1
    for _ in range(1_000_000):
        c, rem = divmod(w * D, 2 * B)
        if rem == 0:
            a, rem = divmod(t * D + 2 * A * c, 2 * D)
            if rem == 0:
                b, rem = divmod(-norm * c, D * D)
                if rem == 0:
                    gen = ProjectiveMatrix.make(t - a, -b, -c, a)
                    if gen.apply(p) != p:
                        raise AssertionError("stabilizer generator does not fix point")
                    phi = qn_normalize(t * t + k * w * w, 2 * t * w, 4, k)
                    return StabilizerDescriptor(p, gen, phi, None)
        t, w = (t * t1 + k * w * w1) // 2, (t * w1 + w * t1) // 2
    raise ArithmeticError("stabilizer exponent search exceeded cap")


def germ_exponent(m: ProjectiveMatrix, p: ExtendedPoint) -> int:
    """The unique n with m == stabilizer_generator(p).generator ** n."""
    if m.apply(p) != p:
        raise NotInStabilizerError(f"{m} does not fix {p}")
    if m.is_identity:
        return 0
    desc = stabilizer_generator(p)
    if is_infinity(p):
        n = m.b
    elif p.is_rational:
        conj = desc.to_infinity
        moved = conj * m * conj.inverse()
        if not moved.is_translation:
            raise NotAPowerError(f"{m} is not conjugate to a translation at {p}")
        n = moved.b
    else:
        deriv = m.derivative_at(p)
        phi = desc.phi
        n = 0
        acc = _ONE
        if deriv > _ONE:
            while acc != deriv:
                acc = acc * phi
                n += 1
                if n > 100_000:
                    raise NotAPowerError("derivative is not a power of phi")
        elif deriv < _ONE:
            inv_phi = _ONE / phi
            while acc != deriv:
                acc = acc * inv_phi
                n -= 1
                if n < -100_000:
                    raise NotAPowerError("derivative is not a power of phi")
    if desc.generator.power(n) != m:
        raise NotAPowerError(f"{m} is not a generator power at {p}")
    return n


# -- orbit equivalence via cycles of reduced indefinite forms ------------


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


def _rho(form: Tuple[int, int, int], disc: int, sq: int) -> Tuple[int, int, int]:
    """Reduction / cycle step for indefinite forms."""
    a, b, c = form
    ac = abs(c)
    if ac > sq:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = sq - ((sq + b) % (2 * ac))
    return c, r, (r * r - disc) // (4 * c)


def _is_reduced(form: Tuple[int, int, int], disc: int, sq: int) -> bool:
    a, b, c = form
    if b <= 0 or b * b >= disc:
        return False
    ta = 2 * abs(a)
    return (ta - b) * (ta - b) < disc and (ta + b) * (ta + b) > disc


def _reduce_form(form: Tuple[int, int, int], disc: int, sq: int) -> Tuple[int, int, int]:
    seen = 0
    while not _is_reduced(form, disc, sq):
        form = _rho(form, disc, sq)
        seen += 1
        if seen > 100_000:
            raise ArithmeticError("form reduction failed to terminate")
    return form


def _form_cycle(form: Tuple[int, int, int], disc: int, sq: int):
    start = form
    cycle = {start}
    cur = _rho(start, disc, sq)
    while cur != start:
        cycle.add(cur)
        cur = _rho(cur, disc, sq)
        if len(cycle) > 1_000_000:
            raise ArithmeticError("form cycle did not close")
    return cycle


def orbit_equivalent(p: ExtendedPoint, q: ExtendedPoint) -> bool:
    """Whether some element of PSL2(Z) maps p to q."""
    p_rat = is_infinity(p) or p.is_rational
    q_rat = is_infinity(q) or q.is_rational
    if p_rat or q_rat:
        # rationals and INFINITY form a single orbit
        return p_rat and q_rat
    if p.k != q.k:
        return False
    if p == q:
        return True
    fp = _form_of(p)
    fq = _form_of(q)
    disc_p = fp[1] * fp[1] - 4 * fp[0] * fp[2]
    disc_q = fq[1] * fq[1] - 4 * fq[0] * fq[2]
    if disc_p != disc_q:
        return False
    sq = isqrt(disc_p)
    rp = _reduce_form(fp, disc_p, sq)
    rq = _reduce_form(fq, disc_q, sq)
    if rp == rq:
        return True
    return rq in _form_cycle(rp, disc_p, sq)
