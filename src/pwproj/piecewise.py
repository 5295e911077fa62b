"""Piecewise projective homeomorphisms of the line with pieces in PSL2(Z).

A map is a sorted list of finite break points plus one matrix per interval;
the unbounded pieces are translations, so every map fixes infinity and is
an increasing bijection of R.  The break-point configuration of a map
records, at each orbit point of a base point, the exponent of the slope
change germ in the canonical stabilizer generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import (
    INFINITY,
    ExtendedPoint,
    QuadraticNumber,
    is_infinity,
    point_to_text,
    point_from_text,
    qn_approx,
    qn_compare,
)
from .psl2 import (
    ProjectiveMatrix,
    element_fixing_point,
    germ_exponent,
    mat_fixed_points,
    orbit_equivalent,
    stabilizer_generator,
)


class PiecewiseMapError(ValueError):
    """Base class for invalid piecewise map definitions."""


class DiscontinuousError(PiecewiseMapError):
    def __init__(self, point):
        super().__init__(f"adjacent pieces disagree at break {point}")
        self.point = point


class NotIncreasingError(PiecewiseMapError):
    pass


class PoleInsidePieceError(PiecewiseMapError):
    pass


class EndGermNotTranslationError(PiecewiseMapError):
    pass


class NotFixedError(PiecewiseMapError):
    pass


class ConstructionFailedError(RuntimeError):
    """Bounded parameter search exhausted; indicates an implementation bug."""


_ONE = QuadraticNumber(1)
_INF = float("inf")


class PiecewiseProjectiveMap:
    """Increasing piecewise-PSL2(Z) bijection of R fixing infinity."""

    __slots__ = ("breaks", "pieces", "_approx")

    def __init__(self, breaks: Sequence[QuadraticNumber], pieces: Sequence[ProjectiveMatrix]):
        # use pm_new for validated construction
        self.breaks: Tuple[QuadraticNumber, ...] = tuple(breaks)
        self.pieces: Tuple[ProjectiveMatrix, ...] = tuple(pieces)
        # qn_approx of each break, filled by the first piece_index call
        self._approx: Optional[List[Optional[Tuple[float, float]]]] = None

    # -- structure -------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.breaks and self.pieces[0].is_identity

    def br(self) -> int:
        """Number of break points, counting the one at infinity if present."""
        extra = 0 if self.pieces[0] == self.pieces[-1] else 1
        return len(self.breaks) + extra

    def piece_index(self, x: QuadraticNumber, side: int = 1) -> int:
        """Index of the piece governing x; side=-1 gives the left germ at x.

        Each probe of the binary search first compares float enclosures
        (qn_approx) of x and the break: when |fl(f_x - f_b)| > e_x + e_b, the
        float gap has the sign of x - b (the enclosures leave room for the
        rounding of the gap and of the sum).  Otherwise, or when either
        side has no enclosure, qn_compare decides that break exactly, so the
        result is always the exact one.
        """
        breaks = self.breaks
        lo, hi = 0, len(breaks)
        if not hi:
            return 0
        approx = self._approx
        if approx is None:
            approx = self._approx = [qn_approx(b) for b in breaks]
        ax = qn_approx(x)
        fx, ex = ax if ax is not None else (0.0, _INF)
        while lo < hi:
            mid = (lo + hi) // 2
            ab = approx[mid]
            if ab is not None:
                gap = fx - ab[0]
                err = ex + ab[1]
                if gap > err:
                    lo = mid + 1
                    continue
                if -gap > err:
                    hi = mid
                    continue
            cmp = qn_compare(x, breaks[mid])
            if cmp > 0 or (cmp == 0 and side > 0):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def right_germ(self, x: QuadraticNumber) -> ProjectiveMatrix:
        return self.pieces[self.piece_index(x, 1)]

    # -- action ----------------------------------------------------------

    def apply(self, x: ExtendedPoint) -> ExtendedPoint:
        if x is INFINITY:
            return INFINITY
        return self.pieces[self.piece_index(x)].apply(x)

    def __call__(self, x: ExtendedPoint) -> ExtendedPoint:
        return self.apply(x)

    # -- group structure ---------------------------------------------------

    def inverse(self) -> "PiecewiseProjectiveMap":
        new_breaks = [self.apply(b) for b in self.breaks]
        new_pieces = [p.inverse() for p in self.pieces]
        return pm_new(new_breaks, new_pieces)

    def compose(self, inner: "PiecewiseProjectiveMap") -> "PiecewiseProjectiveMap":
        """Exact composite self o inner."""
        inner_inv_pieces = [p.inverse() for p in inner.pieces]
        candidates = list(inner.breaks)
        for beta in self.breaks:
            # pull back through inner: inner is a bijection of R, preimage finite
            idx = _preimage_piece_index(inner, beta)
            pre = inner_inv_pieces[idx].apply(beta)
            if not is_infinity(pre):
                candidates.append(pre)
        candidates = sorted(set(candidates))
        pieces = [self.pieces[0] * inner.pieces[0]]
        for beta in candidates:
            inner_right = inner.right_germ(beta)
            image = inner_right.apply(beta)
            pieces.append(self.right_germ(image) * inner_right)
        return pm_new(candidates, pieces)

    def __mul__(self, other: "PiecewiseProjectiveMap") -> "PiecewiseProjectiveMap":
        return self.compose(other)

    def power(self, n: int) -> "PiecewiseProjectiveMap":
        if not self.breaks:
            # one global translation: its matrix power, with no compose
            return pm_from_matrix(self.pieces[0].power(n))
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = pm_identity()
        while n:
            if n & 1:
                result = result.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return result

    # -- support ----------------------------------------------------------

    def support_intervals(self) -> List[Tuple[Optional[QuadraticNumber], Optional[QuadraticNumber]]]:
        """Maximal open intervals where the map moves points; None is +-infinity."""
        events: List[Tuple[Optional[QuadraticNumber], Optional[QuadraticNumber]]] = []
        bounds: List[Optional[QuadraticNumber]] = [None, *self.breaks, None]
        for i, piece in enumerate(self.pieces):
            lo, hi = bounds[i], bounds[i + 1]
            if piece.is_identity:
                continue
            fixed = [
                f
                for f in mat_fixed_points(piece)
                if not is_infinity(f)
                and (lo is None or qn_compare(f, lo) > 0)
                and (hi is None or qn_compare(f, hi) < 0)
            ]
            cuts = [lo, *sorted(fixed), hi]
            for j in range(len(cuts) - 1):
                events.append((cuts[j], cuts[j + 1]))
        # merge adjacent moved intervals that share an endpoint the map moves
        merged: List[Tuple[Optional[QuadraticNumber], Optional[QuadraticNumber]]] = []
        for lo, hi in events:
            if merged and lo is not None and merged[-1][1] == lo:
                if self.apply(lo) != lo:
                    merged[-1] = (merged[-1][0], hi)
                    continue
            merged.append((lo, hi))
        return merged

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PiecewiseProjectiveMap):
            return NotImplemented
        return self.breaks == other.breaks and self.pieces == other.pieces

    def __hash__(self):
        return hash((self.breaks, self.pieces))

    def to_text(self) -> str:
        parts = [p.to_text() for p in self.pieces]
        brs = [point_to_text(b) for b in self.breaks]
        chunks = [parts[0]]
        for br_text, piece_text in zip(brs, parts[1:]):
            chunks.append(f"@{br_text}")
            chunks.append(piece_text)
        return " ".join(chunks)

    @classmethod
    def from_text(cls, text: str) -> "PiecewiseProjectiveMap":
        tokens = text.split()
        pieces = [ProjectiveMatrix.from_text(tokens[0])]
        breaks = []
        i = 1
        while i < len(tokens):
            if not tokens[i].startswith("@"):
                raise ValueError("malformed piecewise map text")
            breaks.append(point_from_text(tokens[i][1:]))
            pieces.append(ProjectiveMatrix.from_text(tokens[i + 1]))
            i += 2
        return pm_new(breaks, pieces)

    def __repr__(self):
        return f"PiecewiseProjectiveMap({self.to_text()!r})"


def _preimage_piece_index(f: PiecewiseProjectiveMap, y: QuadraticNumber) -> int:
    """Index of the piece of f whose image interval contains y (right side)."""
    lo, hi = 0, len(f.breaks)
    while lo < hi:
        mid = (lo + hi) // 2
        cmp = qn_compare(y, f.apply(f.breaks[mid]))
        if cmp > 0 or cmp == 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def pm_identity() -> PiecewiseProjectiveMap:
    return PiecewiseProjectiveMap((), (ProjectiveMatrix.identity(),))


def pm_from_matrix(m: ProjectiveMatrix) -> PiecewiseProjectiveMap:
    """Global single-piece map; must be a translation to fix infinity."""
    return pm_new([], [m])


def pm_new(
    breaks: Sequence[QuadraticNumber], pieces: Sequence[ProjectiveMatrix]
) -> PiecewiseProjectiveMap:
    """Validate, reduce and build a piecewise projective map."""
    breaks = list(breaks)
    pieces = list(pieces)
    if len(pieces) != len(breaks) + 1:
        raise PiecewiseMapError("need exactly one more piece than breaks")
    for i in range(len(breaks) - 1):
        cmp = qn_compare(breaks[i], breaks[i + 1])
        if cmp >= 0:
            raise NotIncreasingError("break points must be strictly increasing")
    if not pieces[0].is_translation or not pieces[-1].is_translation:
        raise EndGermNotTranslationError("unbounded pieces must be translations")
    for i, beta in enumerate(breaks):
        left = pieces[i].apply(beta)
        right = pieces[i + 1].apply(beta)
        if is_infinity(left) or is_infinity(right) or left != right:
            raise DiscontinuousError(beta)
    for i, piece in enumerate(pieces):
        pole = piece.pole()
        if pole is None:
            continue
        pole_qn = QuadraticNumber(pole)
        lo = breaks[i - 1] if i > 0 else None
        hi = breaks[i] if i < len(breaks) else None
        inside_lo = lo is None or qn_compare(pole_qn, lo) >= 0
        inside_hi = hi is None or qn_compare(pole_qn, hi) <= 0
        if inside_lo and inside_hi:
            raise PoleInsidePieceError(
                f"pole {pole} of piece {i} lies inside its interval"
            )
    # reduce: drop breaks whose two germs agree
    red_breaks: List[QuadraticNumber] = []
    red_pieces: List[ProjectiveMatrix] = [pieces[0]]
    for beta, piece in zip(breaks, pieces[1:]):
        if piece == red_pieces[-1]:
            continue
        red_breaks.append(beta)
        red_pieces.append(piece)
    return PiecewiseProjectiveMap(red_breaks, red_pieces)


def pm_restrict(
    f: PiecewiseProjectiveMap, a: QuadraticNumber, b: QuadraticNumber
) -> PiecewiseProjectiveMap:
    """The map equal to f on (a, b) and to the identity outside."""
    if qn_compare(a, b) >= 0:
        raise NotFixedError("restriction needs a < b")
    if f.apply(a) != a or f.apply(b) != b:
        raise NotFixedError("restriction endpoints must be fixed by the map")
    ident = ProjectiveMatrix.identity()
    new_breaks = [a]
    new_pieces = [ident]
    for beta in f.breaks:
        if qn_compare(beta, a) > 0 and qn_compare(beta, b) < 0:
            new_breaks.append(beta)
    for i, beta in enumerate(new_breaks):
        if i == 0:
            new_pieces.append(f.right_germ(a))
        else:
            new_pieces.append(f.right_germ(beta))
    new_breaks.append(b)
    new_pieces.append(ident)
    return pm_new(new_breaks, new_pieces)


# -- configurations -------------------------------------------------------


@dataclass
class Configuration:
    """Finite integer-valued slope-change record on the orbit of a base point."""

    base: ExtendedPoint
    field: int
    entries: Dict[ExtendedPoint, int] = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def value_at(self, p: ExtendedPoint) -> int:
        return self.entries.get(p, 0)

    def items(self) -> List[Tuple[ExtendedPoint, int]]:
        return sorted(self.entries.items(), key=itemgetter(0))

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.entries == other.entries

    def as_text_dict(self) -> Dict[str, int]:
        return {point_to_text(p): v for p, v in self.items()}


def _field_class(p: ExtendedPoint) -> int:
    if is_infinity(p):
        return 1
    return p.k


def configuration(f: PiecewiseProjectiveMap, s: ExtendedPoint) -> Configuration:
    """Slope-change configuration of f on the PSL2(Z)-orbit of s."""
    conf = Configuration(s, _field_class(s))
    for i, beta in enumerate(f.breaks):
        if _field_class(beta) != conf.field:
            continue
        if not orbit_equivalent(beta, s):
            continue
        left = f.pieces[i]
        right = f.pieces[i + 1]
        change = left.inverse() * right
        value = germ_exponent(change, beta)
        if value:
            conf.entries[beta] = value
    return conf


def config_act(g: PiecewiseProjectiveMap, conf: Configuration) -> Configuration:
    """Action (g, C) -> C_g + C o g of the group on configurations."""
    result = configuration(g, conf.base)
    g_inv = g.inverse()
    for point, value in conf.entries.items():
        gamma = g_inv.apply(point)
        new_val = result.entries.get(gamma, 0) + value
        if new_val:
            result.entries[gamma] = new_val
        else:
            result.entries.pop(gamma, None)
    return result


def membership(f: PiecewiseProjectiveMap, kind: str, s: Optional[ExtendedPoint] = None) -> bool:
    """Membership tests: kind in {"HZ", "GTILDE", "HS"}."""
    kind = kind.upper()
    if kind == "HZ":
        if f.pieces[0] != f.pieces[-1]:
            return False
        return all(not b.is_rational for b in f.breaks)
    if kind == "GTILDE":
        # any validated map qualifies: breaks are fixed points of germ changes
        return True
    if kind == "HS":
        if s is None:
            raise ValueError("HS membership needs the base point")
        return configuration(f, s).is_zero
    raise ValueError(f"unknown membership kind: {kind}")


# -- construction of the delta-configuration element ----------------------


def _primes_from(start: int):
    n = max(start, 2)
    while True:
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


def _padic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass
class HsConstruction:
    """Verified element with delta configuration at the base point.

    branch is "above" (support right of the base point) or "below";
    prime is the auxiliary prime separating the new break fields.
    """

    map: PiecewiseProjectiveMap
    base: QuadraticNumber
    generator: ProjectiveMatrix
    partner: ProjectiveMatrix
    crossing: QuadraticNumber
    far_end: QuadraticNumber
    prime: int
    branch: str

    def support(self) -> Tuple[QuadraticNumber, QuadraticNumber]:
        if self.branch == "above":
            return self.base, self.far_end
        return self.far_end, self.base


def build_hs(s: QuadraticNumber) -> HsConstruction:
    """Build a validated map whose configuration at s is exactly {s: +1}.

    The support is an open interval with endpoint s; the two auxiliary
    break points land in quadratic fields marked by a fresh prime, hence
    outside the orbit of s.  Every postcondition is checked exactly.
    """
    if s.is_rational:
        raise ValueError("base point must be a quadratic irrational")
    k = s.k
    desc = stabilizer_generator(s)
    gen = desc.generator
    above = s.b > 0
    # slope element whose product with the partner must fix the crossing
    w_mat = gen.inverse() if above else gen
    b_w = w_mat.b
    tau = w_mat.trace()
    if b_w == 0:
        raise ConstructionFailedError("stabilizer generator fixes infinity")
    pole = gen.pole()
    ident = ProjectiveMatrix.identity()

    for prime in _primes_from(k + 1):
        if prime == 2 or b_w % prime == 0 or (tau * tau - 4) % prime == 0:
            continue
        if prime > 10_000:
            raise ConstructionFailedError("prime escalation exhausted")
        inv_bw = pow(b_w % prime, -1, prime)
        base_residues = sorted({(inv_bw * (tau - 2)) % prime, (inv_bw * (tau + 2)) % prime})
        for n_scale in range(1, 6):
            for res in base_residues:
                if res == 0:
                    continue
                for lift in range(0, prime):
                    a_par = res + prime * lift
                    built = _try_hs_candidate(
                        s, gen, w_mat, prime, a_par, n_scale, above, pole, ident
                    )
                    if built is not None:
                        return built
    raise ConstructionFailedError("parameter search exhausted")


def _try_hs_candidate(
    s: QuadraticNumber,
    gen: ProjectiveMatrix,
    w_mat: ProjectiveMatrix,
    prime: int,
    a_par: int,
    n_scale: int,
    above: bool,
    pole: Optional[Fraction],
    ident: ProjectiveMatrix,
) -> Optional[HsConstruction]:
    core = n_scale * n_scale * a_par * a_par * prime**5
    x_par = core - 1
    ell = prime * (core - 2)
    if ell <= 0:
        return None
    n_full = prime * prime * n_scale
    if _padic_valuation(ell, prime) != 1:
        return None
    # partner fixing +-n_full*sqrt(ell), greater than the identity in between
    partner = ProjectiveMatrix.make(
        x_par, n_full * n_full * ell * a_par, a_par, x_par
    )
    theta_plus = QuadraticNumber(0, n_full, ell)
    theta_minus = -theta_plus
    # the partner's fixed interval must straddle the base point
    if not (qn_compare(theta_minus, s) < 0 < qn_compare(theta_plus, s)):
        return None
    # ordering constraint: the far end clears the generator's pole
    if pole is not None:
        pole_qn = QuadraticNumber(pole)
        if above and qn_compare(theta_plus, pole_qn) <= 0:
            return None
        if not above and qn_compare(theta_minus, pole_qn) >= 0:
            return None
    crossing_elem = w_mat * partner
    tr_cross = abs(crossing_elem.trace())
    if tr_cross <= 2:
        return None
    if _padic_valuation((tr_cross - 2) * (tr_cross + 2), prime) % 2 == 0:
        return None
    roots = mat_fixed_points(crossing_elem)
    if len(roots) != 2:
        return None
    if above:
        # the generator piece [s, crossing] must not contain the pole
        window_lo, window_hi = s, theta_plus
        if pole is not None:
            pole_qn = QuadraticNumber(pole)
            if qn_compare(pole_qn, s) > 0 and qn_compare(pole_qn, theta_plus) < 0:
                window_hi = pole_qn
    else:
        # the inverse generator has no pole below s; the whole gap works
        window_lo, window_hi = theta_minus, s
    crossing = None
    for root in roots:
        if is_infinity(root):
            continue
        if qn_compare(root, window_lo) > 0 and qn_compare(root, window_hi) < 0:
            crossing = root
            break
    if crossing is None:
        return None
    if crossing.k == s.k:
        return None
    try:
        if above:
            built = pm_new([s, crossing, theta_plus], [ident, gen, partner, ident])
        else:
            built = pm_new(
                [theta_minus, crossing, s], [ident, partner, gen.inverse(), ident]
            )
    except PiecewiseMapError:
        return None
    # exact postconditions
    conf = configuration(built, s)
    if conf.as_text_dict() != {point_to_text(s): 1}:
        return None
    if not membership(built, "HZ"):
        return None
    support = built.support_intervals()
    if len(support) != 1:
        return None
    lo, hi = support[0]
    if above:
        if lo != s or hi != theta_plus:
            return None
        far = theta_plus
    else:
        if lo != theta_minus or hi != s:
            return None
        far = theta_minus
    return HsConstruction(
        map=built,
        base=s,
        generator=gen,
        partner=partner,
        crossing=crossing,
        far_end=far,
        prime=prime,
        branch="above" if above else "below",
    )


# -- 2-prechain construction ----------------------------------------------


@dataclass
class Prechain:
    """Pair (f, g) with supp(f) = (a, c), supp(g) = (b, d), a < b < c < d.

    For a base point with positive irrational part, g is a power of the
    delta element at the base and b is the base point itself.
    """

    f: PiecewiseProjectiveMap
    g: PiecewiseProjectiveMap
    a: QuadraticNumber
    b: QuadraticNumber
    c: QuadraticNumber
    d: QuadraticNumber
    hs: HsConstruction
    companion: PiecewiseProjectiveMap
    f_power: int
    g_power: int


def _positive_between(gmat: ProjectiveMatrix, lo: QuadraticNumber) -> ProjectiveMatrix:
    """Orient a hyperbolic matrix to exceed the identity between its fixed points."""
    deriv = gmat.derivative_at(lo)
    if deriv > _ONE:
        return gmat
    return gmat.inverse()


def build_companion(hs: HsConstruction) -> Tuple[PiecewiseProjectiveMap, QuadraticNumber, QuadraticNumber]:
    """Single-bump element whose support straddles the base of hs.

    Break points live in Q(sqrt(prime)); the search over anchor rationals is
    breadth-first over denominators, so the result is reproducible.
    """
    s = hs.base
    prime = hs.prime
    lo_lim, hi_lim = hs.support()
    for den in range(1, 64):
        # largest fraction with this denominator strictly below s
        num = _floor_times(s, den)
        anchor = Fraction(num, den)
        for num_b in range(1, 8):
            rad = Fraction(num_b, den)
            sigma = QuadraticNumber(anchor, rad, prime)
            sigma_bar = QuadraticNumber(anchor, -rad, prime)
            if hs.branch == "above":
                # need sigma_bar < s < sigma < far end
                if not (
                    qn_compare(sigma_bar, s) < 0 < qn_compare(sigma, s)
                    and qn_compare(sigma, hi_lim) < 0
                ):
                    continue
            else:
                # need far end < sigma_bar < s < sigma
                if not (
                    qn_compare(sigma_bar, lo_lim) > 0
                    and qn_compare(sigma_bar, s) < 0 < qn_compare(sigma, s)
                ):
                    continue
            gmat = _positive_between(element_fixing_point(sigma), sigma_bar)
            bump = pm_new(
                [sigma_bar, sigma],
                [ProjectiveMatrix.identity(), gmat, ProjectiveMatrix.identity()],
            )
            support = bump.support_intervals()
            if support != [(sigma_bar, sigma)]:
                continue
            return bump, sigma_bar, sigma
    raise ConstructionFailedError("companion search exhausted")


def _floor_times(x: QuadraticNumber, den: int) -> int:
    """floor(x * den) for a quadratic number x, exactly."""
    scaled = x * den
    n = int(float(scaled))  # float is a seed guess; the loops certify exactly
    while qn_compare(QuadraticNumber(n), scaled) > 0:
        n -= 1
    while qn_compare(QuadraticNumber(n + 1), scaled) <= 0:
        n += 1
    return n


PRECHAIN_MAX_POWER = 24


def construct_prechain(s: QuadraticNumber) -> Prechain:
    """2-prechain (f, g) built from the delta element at s and a companion.

    Powers of the two bases are tried up to a total of 2 * PRECHAIN_MAX_POWER.
    """
    hs = build_hs(s)
    bump, sigma_bar, sigma = build_companion(hs)
    if hs.branch == "above":
        # supp(f) = (sigma_bar, sigma), supp(g) = (s, far)
        a, b, c, d = sigma_bar, s, sigma, hs.far_end
        f_base, g_base = bump, hs.map
    else:
        # mirrored roles: supp(f) = (far, s), supp(g) = (sigma_bar, sigma)
        a, b, c, d = hs.far_end, sigma_bar, s, sigma
        f_base, g_base = hs.map, bump
    for total in range(2, 2 * PRECHAIN_MAX_POWER + 1):
        for g_pow in range(1, total):
            f_pow = total - g_pow
            f_cand = f_base.power(f_pow)
            g_cand = g_base.power(g_pow)
            pull = g_cand.inverse().apply(c)
            push = f_cand.apply(b)
            if qn_compare(pull, push) < 0:
                return Prechain(
                    f=f_cand,
                    g=g_cand,
                    a=a,
                    b=b,
                    c=c,
                    d=d,
                    hs=hs,
                    companion=bump,
                    f_power=f_pow,
                    g_power=g_pow,
                )
    raise ConstructionFailedError("power search for the 2-prechain exhausted")
