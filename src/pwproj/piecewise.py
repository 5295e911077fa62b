"""Piecewise projective homeomorphisms of the line with pieces in PSL2(Z).

A map is a sorted list of finite break points plus one matrix per interval;
the unbounded pieces are translations, so every map fixes infinity and is
an increasing bijection of R.  The break-point configuration of a map
records, at each orbit point of a base point, the exponent of the slope
change germ in the canonical stabilizer generator.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import (
    _TRIAL_PRIMES,
    _sign_root,
    INFINITY,
    ExtendedPoint,
    QuadraticNumber,
    normalize_radicand,
    point_to_text,
    qn_approx,
    qn_compare,
    qn_floor_times,
    qn_from_text,
    qn_normalize,
)
from .psl2 import (
    ProjectiveMatrix,
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


class ConstructionFailedError(RuntimeError):
    """Bounded parameter search exhausted; indicates an implementation bug."""


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

    def piece_index(self, x: QuadraticNumber) -> int:
        """Index of the piece governing x: the number of breaks at or below x.

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
            if qn_compare(x, breaks[mid]) >= 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- action ----------------------------------------------------------

    def apply(self, x: ExtendedPoint) -> ExtendedPoint:
        """The image of x; x itself when its piece is the identity."""
        if x is INFINITY:
            return INFINITY
        piece = self.pieces[self.piece_index(x)]
        return x if piece.is_identity else piece.apply(x)

    def __call__(self, x: ExtendedPoint) -> ExtendedPoint:
        return self.apply(x)

    # -- group structure ---------------------------------------------------

    def inverse(self) -> "PiecewiseProjectiveMap":
        new_breaks = [p.apply(b) for p, b in zip(self.pieces[1:], self.breaks)]
        new_pieces = [p.inverse() for p in self.pieces]
        return pm_new(new_breaks, new_pieces)

    def compose(self, inner: "PiecewiseProjectiveMap") -> "PiecewiseProjectiveMap":
        """Exact composite self o inner, by one merge of the two break lists.

        The composite can break only at inner's breaks and at the preimages
        of self's breaks.  inner is increasing, so these come in the order
        of their images under inner: merging the images of inner's breaks
        with self's breaks walks the pieces of both maps left to right, and
        an image equal to a break of self is one break of the composite.
        An identity factor leaves the other, already validated, as it is.
        """
        if inner.is_identity:
            return self
        if self.is_identity:
            return inner
        xs = inner.breaks
        betas = self.breaks
        n, m = len(xs), len(betas)
        # with no break of self to merge, no image is compared
        images = [p.apply(x) for p, x in zip(inner.pieces[1:], xs)] if m else None
        i = j = 0
        breaks = []
        pieces = [self.pieces[0] * inner.pieces[0]]
        # the inverse of inner's piece pulled_i, once for all its pulled-back breaks
        pulled_i, pulled = -1, None
        while i < n or j < m:
            cmp = 1 if i == n else -1 if j == m else qn_compare(images[i], betas[j])
            if cmp > 0:
                # a break of self inside the image of inner's piece i; that
                # piece has no pole on its interval, so the preimage is finite
                if pulled_i != i:
                    pulled_i, pulled = i, inner.pieces[i].inverse()
                point = pulled.apply(betas[j])
                j += 1
            else:
                point = xs[i]
                i += 1
                if cmp == 0:
                    j += 1
            breaks.append(point)
            pieces.append(self.pieces[j] * inner.pieces[i])
        return pm_new(breaks, pieces)

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
                if f is not INFINITY
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
        """The map written by to_text; ValueError on malformed text."""
        tokens = text.split()
        marks = tokens[1::2]
        if len(tokens) % 2 == 0 or not all(t.startswith("@") for t in marks):
            raise ValueError(f"malformed piecewise map text: {text!r}")
        breaks = [qn_from_text(t[1:]) for t in marks]
        return pm_new(breaks, [ProjectiveMatrix.from_text(t) for t in tokens[::2]])

    def __repr__(self):
        return f"PiecewiseProjectiveMap({self.to_text()!r})"


def pm_identity() -> PiecewiseProjectiveMap:
    return PiecewiseProjectiveMap((), (ProjectiveMatrix.identity(),))


def pm_from_matrix(m: ProjectiveMatrix) -> PiecewiseProjectiveMap:
    """Global single-piece map; must be a translation to fix infinity."""
    return pm_new([], [m])


def pm_new(
    breaks: Sequence[QuadraticNumber], pieces: Sequence[ProjectiveMatrix]
) -> PiecewiseProjectiveMap:
    """Validate, reduce and build a piecewise projective map.

    One pass over the breaks checks continuity and keeps the breaks whose
    two pieces differ; the poles are then checked on the kept pieces over
    their merged intervals.
    """
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
    # the index of each kept break among all breaks, to name a pole's piece
    kept: List[int] = []
    for i, beta in enumerate(breaks):
        left = pieces[i]
        right = pieces[i + 1]
        aL, bL, cL, dL = left
        A, B, D, k = beta
        if cL * A + dL * D == 0 and cL * B == 0:
            # c_L beta + d_L == 0: L sends beta to INFINITY, and R must too
            raise DiscontinuousError(beta)
        if right == left:
            # L**-1 R is the identity, which fixes beta: a removable break
            continue
        # L and R agree at beta = (A + B sqrt(k)) / D when L**-1 R fixes
        # beta: p beta**2 + q beta + r == 0, whose rational and sqrt(k)
        # parts, times D**2, are checked on the integers
        aR, bR, cR, dR = right
        p = aL * cR - aR * cL
        q = aL * dR + bL * cR - aR * dL - bR * cL
        r = bL * dR - bR * dL
        if p * (A * A + B * B * k) + q * A * D + r * D * D or B and 2 * p * A + q * D:
            raise DiscontinuousError(beta)
        kept.append(i)
    red_breaks = [breaks[i] for i in kept]
    red_pieces = [pieces[0]] + [pieces[i + 1] for i in kept]
    # c x + d is monotone and, after the pass above, nonzero at every break,
    # so a piece's pole lies in its interval iff the signs at its ends differ,
    # and in a merged interval iff in one of its parts; the end pieces are
    # translations, so every other piece has two finite ends
    for r in range(1, len(kept)):
        _, _, c, d = red_pieces[r]
        if c == 0:
            continue
        lo_A, lo_B, lo_D, lo_k = red_breaks[r - 1]
        hi_A, hi_B, hi_D, hi_k = red_breaks[r]
        lo_sign = _sign_root(c * lo_A + d * lo_D, c * lo_B, lo_k)
        if lo_sign != _sign_root(c * hi_A + d * hi_D, c * hi_B, hi_k):
            # the part whose right end has the other sign holds the pole
            i = kept[r - 1] + 1
            while True:
                A, B, D, k = breaks[i]
                if _sign_root(c * A + d * D, c * B, k) != lo_sign:
                    break
                i += 1
            raise PoleInsidePieceError(
                f"pole {red_pieces[r].pole()} of piece {i} lies inside its interval"
            )
    return PiecewiseProjectiveMap(red_breaks, red_pieces)


# -- configurations -------------------------------------------------------


@dataclass
class Configuration:
    """Finite integer-valued slope-change record on the orbit of a base point."""

    base: ExtendedPoint
    entries: Dict[ExtendedPoint, int] = field(default_factory=dict)

    def items(self) -> List[Tuple[ExtendedPoint, int]]:
        return sorted(self.entries.items(), key=itemgetter(0))

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.entries == other.entries

    def as_text_dict(self) -> Dict[str, int]:
        return {point_to_text(p): v for p, v in self.items()}


def configuration(f: PiecewiseProjectiveMap, s: ExtendedPoint) -> Configuration:
    """Slope-change configuration of f on the PSL2(Z)-orbit of s."""
    conf = Configuration(s)
    for i, beta in enumerate(f.breaks):
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
    """Action (g, C) -> C_g + C o g of the group on configurations.

    C o g is read at g**-1 of each point of C.  g**-1 breaks at the images
    of g's breaks and its pieces are the inverses of g's, so it is read
    from g's pieces without building the inverse map.
    """
    result = configuration(g, conf.base)
    pieces = g.pieces
    images = [p.apply(b) for p, b in zip(pieces[1:], g.breaks)]
    for point, value in conf.entries.items():
        # the piece of g**-1 at point: the number of images at or below it
        piece = pieces[bisect_right(images, point)]
        gamma = point if piece.is_identity else piece.inverse().apply(point)
        new_val = result.entries.get(gamma, 0) + value
        if new_val:
            result.entries[gamma] = new_val
        else:
            result.entries.pop(gamma, None)
    return result


def in_hz(f: PiecewiseProjectiveMap) -> bool:
    """Whether f lies in H(Z): equal end germs and no rational break."""
    return f.pieces[0] == f.pieces[-1] and all(not b.is_rational for b in f.breaks)


# -- construction of the delta-configuration element ----------------------


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
    gen = stabilizer_generator(s)
    above = s[1] > 0
    # slope element whose product with the partner must fix the crossing
    w_mat = gen.inverse() if above else gen
    b_w = w_mat.b
    tau = w_mat.trace()
    if b_w == 0:
        raise ConstructionFailedError("stabilizer generator fixes infinity")
    pole = gen.pole()
    ident = ProjectiveMatrix.identity()

    # the primes above k and below 10,000
    for prime in _TRIAL_PRIMES[bisect_right(_TRIAL_PRIMES, k) :]:
        if b_w % prime == 0 or (tau * tau - 4) % prime == 0:
            continue
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
    raise ConstructionFailedError("prime escalation exhausted")


def _try_hs_candidate(
    s: QuadraticNumber,
    gen: ProjectiveMatrix,
    w_mat: ProjectiveMatrix,
    prime: int,
    a_par: int,
    n_scale: int,
    above: bool,
    pole: Optional[QuadraticNumber],
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
    # ell has valuation 1 at prime, so it is not a square and ell_k > 1
    ell_k, ell_m = normalize_radicand(ell)
    theta_plus = qn_normalize(0, n_full * ell_m, 1, ell_k)
    theta_minus = qn_normalize(0, -n_full * ell_m, 1, ell_k)
    # the partner's fixed interval must straddle the base point
    if not (qn_compare(theta_minus, s) < 0 < qn_compare(theta_plus, s)):
        return None
    # ordering constraint: the far end clears the generator's pole
    if pole is not None:
        if above and qn_compare(theta_plus, pole) <= 0:
            return None
        if not above and qn_compare(theta_minus, pole) >= 0:
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
        if pole is not None and qn_compare(pole, s) > 0 and qn_compare(pole, theta_plus) < 0:
            window_hi = pole
    else:
        # the inverse generator has no pole below s; the whole gap works
        window_lo, window_hi = theta_minus, s
    crossing = None
    for root in roots:
        if root is INFINITY:
            continue
        if qn_compare(root, window_lo) > 0 and qn_compare(root, window_hi) < 0:
            crossing = root
            break
    if crossing is None:
        return None
    # crossing.k != s.k: the odd valuation above puts prime in crossing.k, and prime > s.k
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
    if not in_hz(built):
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
        num = qn_floor_times(s, den)
        for num_b in range(1, 8):
            # (num +- num_b*sqrt(prime)) / den; a prime is square-free
            sigma = qn_normalize(num, num_b, den, prime)
            sigma_bar = qn_normalize(num, -num_b, den, prime)
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
            # the canonical generator's derivative 1 / (c x + d)**2 is phi > 1
            # at sigma and 1 / phi at its conjugate sigma_bar, because
            # c*sigma + d is a unit of norm 1; so its inverse exceeds the
            # identity between them
            gmat = stabilizer_generator(sigma).inverse()
            bump = pm_new(
                [sigma_bar, sigma],
                [ProjectiveMatrix.identity(), gmat, ProjectiveMatrix.identity()],
            )
            support = bump.support_intervals()
            if support != [(sigma_bar, sigma)]:
                continue
            return bump, sigma_bar, sigma
    raise ConstructionFailedError("companion search exhausted")


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
