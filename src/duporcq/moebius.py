"""Photogrammetric pictures of planar 5-tuples under isotropic projections.

A direction of projection is a point c on the conic x^2+y^2+z^2=0.  A planar
picture reads only (c1 : c2), so ConicDirection is that rational pair.  A
planar point M projects to z = M.x*c1 + M.y*c2; the pairwise differences
D_ij = z_i - z_j assemble into six quintic products phi_0..phi_5 whose
projective class is a Moebius invariant of the five projected values.  The
vanishing pattern of the phi tuple decides membership in the ten lines L_ij,
which is what the reconstruction filter consumes.

For a direction along which a collinear triple projects to one point, all six
phi vanish; the extended picture divides out the common linear factor of the
six binary forms in (c1, c2) and evaluates the quotient.  This is exact, and
it agrees projectively with parametrizing the conic by
c(t) = (2t : 1-t^2 : i(1+t^2)) and cancelling the polynomial gcd in t,
without ever leaving the rationals (the t of a special direction is usually
irrational even when the direction itself is rational).

picture is the one place that falls back from the plain to the extended
picture; same_picture, candidate_report and membership_report all go through
it, and membership_report reads DelPezzoPoint.extended to tell which one it
got.  candidate_report returns, for each candidate, the name of its first
failing direction, or None when the slot is accepted.  It takes each base
picture once per direction and compares with DelPezzoPoint.proportional; a
candidate is pictured in direction order up to and including its first
failure, and at no direction after it.  A random direction that repeats an
earlier one, found by its primitive integer (c1 : c2) in a set, is skipped,
and no direction past the first DECISIVE_DIRECTIONS = 11 distinct ones is
pictured: every plain cross minor of two pictures is a binary form of
degree 10 in (c1, c2), so pictures that agree at 11 distinct directions
agree at all of them (the proof is candidate_report's docstring).  The six
special directions come first, so random directions past the fifth
distinct one cannot change the report.

A picture is a projective point, so candidate_report pictures integer
representatives: scaling the points or (c1 : c2) scales every phi by one
common factor, and translating the points changes no D_ij.  integral_points
clears a tuple's denominators, from_direction a direction's, and
random_directions takes t = n/d as (2nd : d^2 - n^2); zero patterns and
proportionality, hence the report, come out as on the Fractions.  The
picture functions compute in the type they are given, ints included (an
extended picture's multiples lam may be Fractions).  membership_report
prints phi, whose values depend on the representative, so it undoes both
scalings: it pictures integral_points at the primitive integer
(c1 : c2) = e * (u2 : -u1) of from_direction.  Every D_ij, lam and
nonvanishing value is linear in the points, which scales each phi by den^5
(den the tuple's common denominator); a nonvanishing value is linear and lam
inversely linear in the direction, so a component with m vanishing factors
scales by e^(5 - 2m), m being DelPezzoPoint.lam_power (0 for a plain
picture).  Each printed phi is the integer picture's divided by
den^5 * e^(5 - 2m).

profile takes the common factor of the six phi(t) from the parallel classes
of the segments M_iM_j, not from gcds; ProfileCurve checks it with one gcd
of the six components, which stops at the first constant.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import and_

from .exactpoly import MPoly, gcd, generators, proportional
from .geometry import (
    BaseParams,
    InvariantViolation,
    cleared,
    collinear,
    common_denominator,
    integral_points,
    primitive_key,
)

PAIRS = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
         (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))

# factor lists of phi_0..phi_5; repeated pair means a squared factor
PHI_FACTORS = (
    ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)),
    ((1, 2), (2, 5), (1, 5), (3, 4), (3, 4)),
    ((1, 2), (2, 3), (1, 3), (4, 5), (4, 5)),
    ((2, 3), (3, 4), (2, 4), (1, 5), (1, 5)),
    ((3, 4), (4, 5), (3, 5), (1, 2), (1, 2)),
    ((1, 4), (4, 5), (1, 5), (2, 3), (2, 3)),
)

SUPPORT = {pair: frozenset(k for k in range(6) if pair in PHI_FACTORS[k])
           for pair in PAIRS}

# a plain cross minor of two pictures has degree 2 * 5 in (c1, c2), so
# pictures that agree at one direction more than that agree at all of them
DECISIVE_DIRECTIONS = 2 * len(PHI_FACTORS[0]) + 1

# PHI_FACTORS as positions in PAIRS
_PHI_SLOTS = tuple(tuple(PAIRS.index(pair) for pair in factors)
                   for factors in PHI_FACTORS)


class AllZero(ArithmeticError):
    """All six picture components vanish; use the extended picture."""


class NotCollinearDirection(ValueError):
    """Extension requested along a direction with no unique collinear triple."""


_REAL = (int, Fraction)


def _den5(points) -> int:
    """den^5, den the common denominator of the tuple's coordinates: the
    factor by which integral_points scales each phi."""
    return common_denominator([v for p in points for v in (p.x, p.y)]) ** 5


@dataclass(frozen=True)
class ConicDirection:
    """Planar part (c1 : c2) of a point c of the conic x^2+y^2+z^2=0.

    A planar picture reads c1 and c2 only, so c3 = +-i*sqrt(c1^2 + c2^2)
    stays implicit.  The coordinates are ints or Fractions, kept as given.
    """

    c1: int | Fraction
    c2: int | Fraction

    def __post_init__(self):
        for v in (self.c1, self.c2):
            if not isinstance(v, _REAL):
                raise TypeError(f"direction coordinates are rational: {v!r}")
        if not self.c1 and not self.c2:
            raise ValueError("c1 = c2 = 0 projects every planar point to 0")

    @classmethod
    def from_direction(cls, u) -> "ConicDirection":
        """Projection direction parallel to the planar vector u, as the
        primitive integer (c1 : c2) = (u2 : -u1) with denominators cleared."""
        n1, n2 = cleared(_as_uv(u))
        g = math.gcd(n1, n2)
        return cls(n2 // g, -n1 // g)


def _as_uv(u) -> tuple:
    """The two components of a planar direction, ints or Fractions kept as
    given; TypeError for any other component, as in ConicDirection."""
    u1, u2 = u
    if not (isinstance(u1, _REAL) and isinstance(u2, _REAL)):
        raise TypeError(f"direction components are rational: {u!r}")
    if u1 == 0 and u2 == 0:
        raise ValueError("zero direction")
    return u1, u2


@dataclass(frozen=True)
class DelPezzoPoint:
    """Six picture components; extended marks a picture that extended_del_pezzo
    computed at a collapsing direction, and lam_power is the least number of
    vanishing factors in a component there (0 for a plain picture)."""

    phi: tuple
    extended: bool = field(default=False, compare=False)
    lam_power: int = field(default=0, compare=False)

    def __post_init__(self):
        phi = tuple(self.phi)
        if len(phi) != 6:
            raise ValueError("need six components")
        if not any(phi):
            raise AllZero("all six components vanish")
        object.__setattr__(self, "phi", phi)

    def zeros(self) -> frozenset:
        return frozenset(k for k, v in enumerate(self.phi) if not v)

    def proportional(self, other: "DelPezzoPoint") -> bool:
        return proportional(self.phi, other.phi)


def project(points, c: ConicDirection) -> list:
    return [c.c1 * p.x + c.c2 * p.y for p in points]


def dij(points, c: ConicDirection, i: int, j: int):
    """Projected difference z_i - z_j; zero iff M_i M_j is parallel to the
    direction of c."""
    if i == j:
        raise ValueError("need two distinct indices")
    p, q = points[i - 1], points[j - 1]
    return c.c1 * (p.x - q.x) + c.c2 * (p.y - q.y)


def phi_from_projections(z) -> tuple:
    """Six picture components from five already-projected values, in
    their own exact type."""
    d = [z[i - 1] - z[j - 1] for (i, j) in PAIRS]
    return tuple(d[a] * d[b] * d[c] * d[e] * d[f]
                 for a, b, c, e, f in _PHI_SLOTS)


def del_pezzo(points, c: ConicDirection) -> DelPezzoPoint:
    phi = phi_from_projections(project(points, c))
    if not any(phi):
        raise AllZero("collinear-triple direction; use extended_del_pezzo")
    return DelPezzoPoint(phi)


def collinear_triples(points) -> list:
    out = []
    for i in range(1, 6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                if collinear(points[i - 1], points[j - 1], points[k - 1]):
                    out.append((i, j, k))
    return out


def _ratio(a, b):
    """a / b exactly: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return q if not r else Fraction(a, b)


def extended_del_pezzo(points, direction) -> DelPezzoPoint:
    """Picture at a direction carrying exactly one collinear triple.

    Every D_ij vanishing along the direction is a rational multiple of one
    linear form; dividing the six products by the minimal common power of
    that form and evaluating is exact and matches the conic-parameter gcd
    construction projectively.  The triple and the nonvanishing D values are
    found in the coordinates' own type; only the multiples lam may be
    Fractions.
    """
    u1, u2 = _as_uv(direction)

    def along(T):
        p, q = points[T[0] - 1], points[T[1] - 1]
        return (q.x - p.x) * u2 == (q.y - p.y) * u1

    matching = [T for T in collinear_triples(points) if along(T)]
    if len(matching) != 1:
        raise NotCollinearDirection(
            f"direction ({u1},{u2}) carries {len(matching)} collinear triples")
    val = {}     # nonvanishing D values at c = (u2, -u1)
    lam = {}     # D = lam * L for the vanishing ones
    for (i, j) in PAIRS:
        p, q = points[i - 1], points[j - 1]
        dx, dy = p.x - q.x, p.y - q.y
        v = u2 * dx - u1 * dy
        if v:
            val[(i, j)] = v
        else:
            # D_ij = a*x1 + b*x2 with (a,b) = d, proportional to L = -u1*x1 - u2*x2
            zero = v     # 0 in the coordinates' type
            lam[(i, j)] = _ratio(dx, -u1) if u1 != 0 else _ratio(dy, -u2)
    mults = [sum(1 for pair in factors if pair in lam) for factors in PHI_FACTORS]
    m = min(mults)
    out = []
    for k, factors in enumerate(PHI_FACTORS):
        if mults[k] > m:
            out.append(zero)
            continue
        out.append(math.prod(lam[pair] if pair in lam else val[pair]
                             for pair in factors))
    return DelPezzoPoint(tuple(out), extended=True, lam_power=m)


def picture(points, c: ConicDirection) -> DelPezzoPoint:
    """Plain picture, falling back to the extended one at special
    directions; the only place the fallback happens."""
    try:
        return del_pezzo(points, c)
    except AllZero:
        return extended_del_pezzo(points, (-c.c2, c.c1))


def line_membership(p: DelPezzoPoint) -> set:
    z = p.zeros()
    return {frozenset(pair) for pair in PAIRS if SUPPORT[pair] == z}


def _membership(p: DelPezzoPoint) -> list:
    return sorted(sorted(pair) for pair in line_membership(p))


def same_picture(tuple_a, tuple_b, c: ConicDirection) -> bool:
    """True iff the two pictures agree as projective points; each side is
    taken by picture, so it may be extended independently."""
    return picture(tuple_a, c).proportional(picture(tuple_b, c))


def special_directions(points) -> list:
    """The six decisive directions of a two-triple tuple, by defining points:
    the two triple carriers and the four remaining connecting lines."""
    M1, M2, _, M4, M5 = points
    return [
        ("d123", M2 - M1),
        ("d345", M5 - M4),
        ("d15", M5 - M1),
        ("d14", M4 - M1),
        ("d25", M5 - M2),
        ("d24", M4 - M2),
    ]


def random_directions(seed: int, samples: int):
    """Seeded conic points c(t) at rational t = n/d in lowest terms, each as
    the integer (c1 : c2) of d^2 * c(t) = (2nd : d^2 - n^2), whose gcd is 1
    or 2; c3 = i(d^2 + n^2) stays implicit, since a planar picture reads c1
    and c2 only.  Drawn lazily, so the first k are the same for every
    samples >= k."""
    rng = random.Random(seed)
    for _ in range(samples):
        t = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        n, d = t.numerator, t.denominator
        yield "t=" + str(t), ConicDirection(2 * n * d, d * d - n * n)


def candidate_report(base: BaseParams, candidates, seed: int = 0,
                     samples: int = 20) -> dict:
    """{tag: name of the candidate's first failing direction, or None when
    its slot is accepted}; the base pictures are taken once and shared by
    all candidates.

    Every tuple is pictured through its integral_points and every direction
    is an integer (c1 : c2), so each plain picture is a product of ints.
    The directions are the six special ones, then the random ones, a repeat
    of an earlier direction skipped, and only the first DECISIVE_DIRECTIONS
    of them are taken; a candidate is pictured in that order up to its first
    failure.  The cap decides nothing away:
    - a plain cross minor phi_k psi_l - phi_l psi_k of two tuples is a
      binary form in (c1, c2) of degree 10 (or zero), each phi_k being a
      product of five linear forms;
    - wherever the two pictures agree, every plain cross minor vanishes:
      where both plain pictures are taken they are proportional, and where
      one side's plain picture collapses to 0 the minors vanish trivially;
    - agreement at 11 distinct directions thus makes every minor zero, so
      phi and psi are proportional as vectors of forms, and then so are
      their pictures at every direction, plain or extended: the extended
      picture is (phi / L^m)(c), with the same linear form L on both sides.
    So a slot's first failure always lies among the first 11 directions:
    once samples yields 5 distinct random ones, the report is the one every
    direction would give, whatever the seed."""
    directions, seen = [], set()
    specials = ((name, ConicDirection.from_direction(u))
                for name, u in special_directions(base.points))
    for name, c in chain(specials, random_directions(seed, samples)):
        key = primitive_key(c.c1, c.c2)
        if key not in seen:
            seen.add(key)
            directions.append((name, c))
            if len(directions) == DECISIVE_DIRECTIONS:
                break
    pts = integral_points(base.points)
    base_pictures = [(name, c, picture(pts, c)) for name, c in directions]
    report = {}
    for cand in candidates:
        platform = integral_points(cand.platform)
        report[cand.tag] = next(
            (name for name, c, base_p in base_pictures
             if not base_p.proportional(picture(platform, c))), None)
    return report


def membership_report(points, directions) -> list:
    """JSON-ready membership summary for a list of (name, planar direction);
    pictures integral_points at the primitive integer direction and prints
    each phi / (den^5 * e^(5 - 2m)), the given tuple's phi at (u2 : -u1)
    (see the module docstring)."""
    den5 = _den5(points)
    ints = integral_points(points)
    out = []
    for name, u in directions:
        u1, u2 = _as_uv(u)
        c = ConicDirection.from_direction((u1, u2))
        p = picture(ints, c)
        # (c1, c2) = e * (u2, -u1)
        e = (Fraction(c.c1 * u2.denominator, u2.numerator) if u2
             else Fraction(c.c2 * u1.denominator, -u1.numerator))
        s = e ** (5 - 2 * p.lam_power)
        n, d = s.numerator * den5, s.denominator    # den^5 * e^(5 - 2m) = n/d
        out.append({
            "direction": name,
            "vector": [str(u1), str(u2)],
            "extended": p.extended,
            "membership": _membership(p),
            "phi": [str(Fraction(v.numerator * d, v.denominator * n))
                    if v else "0" for v in p.phi],
        })
    return out


@dataclass(frozen=True)
class ProfileCurve:
    """Six conic-parameter polynomials with their common factor removed."""

    components: tuple
    removed: MPoly

    def __post_init__(self):
        if gcd(*self.components).degree() != 0:
            raise InvariantViolation("profile components share a factor")


def profile(points) -> ProfileCurve:
    """The six phi_k(t) along c(t) = (2t : 1-t^2 : i(1+t^2)), with their
    common factor removed.

    Each difference is D_ij(t) = -dy*t^2 + 2dx*t + dy, with (dx, dy) =
    M_i - M_j.  Its discriminant 4(dx^2 + dy^2) is positive, so D_ij is
    squarefree (of degree 1 when dy = 0), and a root t makes c(t) orthogonal
    to (dx, dy).  c(t) is never 0, so two differences share a root iff
    their segments are parallel, and then they are proportional.  Hence the
    gcd of the nonzero phi_k is the product, over the parallel classes of
    the nonzero differences, of one D of the class raised to the least
    multiplicity of that class in a nonzero phi_k; it is made monic as gcd
    makes its result.  A lone nonzero phi_k is its own gcd, as gcd's fold
    leaves it.  A coincident pair gives D_ij = 0, and every phi_k with that
    factor stays 0.

    The phi_k are built from integral_points, which scales each of them by
    den^5 (den the tuple's common denominator) and leaves the monic common
    factor as it is; the den^5 comes off the components at the end, or off
    the removed factor where that is a lone nonzero phi_k.
    """
    (t,) = generators(("t",))
    one = MPoly.const(("t",), 1)
    ints = integral_points(points)
    c1, c2 = 2 * t, one - t * t
    z = [c1 * p.x + c2 * p.y for p in ints]
    dd = {(i, j): z[i - 1] - z[j - 1] for (i, j) in PAIRS}
    phis = [math.prod(dd[pair] for pair in factors) for factors in PHI_FACTORS]
    key = {}        # the parallel class of each nonzero difference
    for (i, j) in PAIRS:
        p, q = ints[i - 1], ints[j - 1]
        if p != q:
            key[(i, j)] = primitive_key(p.x - q.x, p.y - q.y)
    counts = [Counter(key[pair] for pair in factors)
              for factors in PHI_FACTORS if all(pair in key for pair in factors)]
    if not counts:
        raise AllZero("degenerate tuple: identically zero profile")
    den5 = _den5(points)
    if len(counts) == 1:
        # the lone phi_k is printed as the removed factor, so the den^5
        # comes off it
        divisor = next(p for p in phis if not p.is_zero())
        removed = divisor * Fraction(1, den5)
    else:
        rep = {k: dd[pair] for pair, k in key.items()}
        removed = math.prod((rep[k] ** m
                             for k, m in reduce(and_, counts).items()),
                            start=one).monic()
        divisor = removed * den5    # takes the den^5 off each component
    components = tuple(p.exact_div(divisor) if not p.is_zero() else p
                       for p in phis)
    return ProfileCurve(components, removed)


def profile_rows(curve: ProfileCurve, ts) -> list:
    """CSV rows (t, phi0..phi5) at rational parameter values."""
    rows = []
    for t in ts:
        vals = [comp.evaluate({"t": t}).scalar() for comp in curve.components]
        rows.append([str(Fraction(t))] + [str(v) for v in vals])
    return rows


def cross_ratio(a, b, c, d):
    """(a - c)(b - d) / ((b - c)(a - d)) in the exact type given, ints taken
    as Fractions."""
    a, b, c, d = (Fraction(v) if isinstance(v, int) else v
                  for v in (a, b, c, d))
    return ((a - c) * (b - d)) / ((b - c) * (a - d))
