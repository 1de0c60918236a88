"""Planar pentapod and hexapod designs: canonical base, kappa-map platforms,
complete-quadrilateral completion, affine ratios, reconstruction candidates.

All coordinates are exact Fractions embedded at z=0; floating point never
enters this module, so every degeneracy predicate is decidable.

The canonical base is
    M1=(0,0), M2=(1,0), M4=(A4,B4), M5=(A5,B5),
    M3=((B4*A5-A4*B5)/(B4-B5), 0),
which places M3 on both carrier lines M1M2 and M4M5.  The nondegeneracy
values are
    U1=(B4-B5)(B4*A5-A4*B5)(B4*A5-A4*B5-B4+B5),
    U2=B4*A5+B5-A4*B5,  U3=B4*A5-B4-A4*B5.
U1=0 iff M3 coincides with M1 or M2; U2=0 iff M1M5 is parallel to M2M4
(the quadrilateral vertex M1M5∩M2M4 escapes to infinity); U3=0 iff
M1M4 is parallel to M2M5.

This module is the one home of that frame: BaseParams builds its five
points once, BaseParams.from_points and kappa2_mu invert the base and the
kappa_2 platform, and affine_match compares a platform with a candidate.
A kappa_3 design is read in the same frame: kappa2_twin relabels it to its
kappa_2 twin by exchanging legs 4 and 5 (swap_4_5), so no kappa_3 formula
is written out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple


class DegenerateBase(ValueError):
    """Base parameters violate a nondegeneracy constraint."""


class DegeneratePlatform(ValueError):
    """Constructed platform has a vertex at infinity or a coincidence."""


class NotCollinear(ValueError):
    """tv_ratio input points are not on one line."""


class CoincidentBase(ValueError):
    """tv_ratio base pair coincides."""


class NotDuporcq(ValueError):
    """Design is not a pair of congruent complete quadrilaterals."""


class SchemaError(ValueError):
    """Design JSON does not match the expected schema."""


class InvariantViolation(ArithmeticError):
    """An identity a construction relies on failed on computed data."""


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class PlanarPoint:
    x: Fraction
    y: Fraction

    def __init__(self, x, y):
        object.__setattr__(self, "x", _fr(x))
        object.__setattr__(self, "y", _fr(y))

    def __sub__(self, other: "PlanarPoint") -> "PlanarPoint":
        return PlanarPoint(self.x - other.x, self.y - other.y)

    def __add__(self, other: "PlanarPoint") -> "PlanarPoint":
        return PlanarPoint(self.x + other.x, self.y + other.y)

    def scale(self, s) -> "PlanarPoint":
        s = _fr(s)
        return PlanarPoint(self.x * s, self.y * s)

    def __iter__(self):
        return iter((self.x, self.y))


def cross(u: PlanarPoint, v: PlanarPoint) -> Fraction:
    return u.x * v.y - u.y * v.x


def common_denominator(values) -> int:
    """The lcm of the rationals' denominators."""
    return math.lcm(*(v.denominator for v in values))


def cleared(values) -> list:
    """Rationals times the lcm of their denominators, as ints."""
    den = common_denominator(values)
    return [v.numerator * (den // v.denominator) for v in values]


class IntPoint(NamedTuple):
    """A planar point with int coordinates, the integer representative of a
    PlanarPoint in a tuple that integral_points scaled."""

    x: int
    y: int


def integral_points(points) -> tuple:
    """The tuple scaled by the common denominator of its coordinates, with
    int coordinates: the same Moebius pictures and affine matches."""
    xy = cleared([v for p in points for v in (p.x, p.y)])
    return tuple(IntPoint(*xy[k:k + 2]) for k in range(0, len(xy), 2))


def primitive_key(a: int, b: int) -> tuple:
    """The primitive integer vector of (a, b) != (0, 0), first nonzero
    entry positive: equal exactly for parallel (a, b)."""
    g = math.gcd(a, b)
    k = (a // g, b // g)
    return k if k > (0, 0) else (-k[0], -k[1])


def collinear(p, q, r) -> bool:
    """Whether three points with .x/.y coordinates, of any exact type, are
    collinear."""
    return (q.x - p.x) * (r.y - p.y) == (q.y - p.y) * (r.x - p.x)


def dist2(p: PlanarPoint, q: PlanarPoint) -> Fraction:
    d = p - q
    return d.x * d.x + d.y * d.y


def intersect_lines(p: PlanarPoint, du: PlanarPoint,
                    q: PlanarPoint, dv: PlanarPoint) -> PlanarPoint | None:
    """Intersection of p + s*du and q + t*dv; None if parallel."""
    denom = cross(du, dv)
    if denom == 0:
        return None
    s = cross(q - p, dv) / denom
    return p + du.scale(s)


class BaseQuantities:
    """V, U1, U2, U3 of the canonical base from A4, B4, A5, B5 attributes."""

    @cached_property
    def V(self):
        return self.B4 * self.A5 - self.A4 * self.B5

    @cached_property
    def U1(self):
        return (self.B4 - self.B5) * self.V * (self.V - self.B4 + self.B5)

    @cached_property
    def U2(self):
        return self.V + self.B5

    @cached_property
    def U3(self):
        return self.V - self.B4


@dataclass(frozen=True)
class BaseParams(BaseQuantities):
    """(A4, B4, A5, B5) of a canonical base; points holds its five points
    M1..M5, built once when the parameters pass the U checks."""

    A4: Fraction
    B4: Fraction
    A5: Fraction
    B5: Fraction
    points: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, A4, B4, A5, B5):
        object.__setattr__(self, "A4", _fr(A4))
        object.__setattr__(self, "B4", _fr(B4))
        object.__setattr__(self, "A5", _fr(A5))
        object.__setattr__(self, "B5", _fr(B5))
        if self.B4 * self.B5 == 0:
            raise DegenerateBase("B4*B5 = 0")
        if self.B4 == self.B5:
            raise DegenerateBase("B4 = B5 (M3 at infinity)")
        if self.U1 == 0 or self.U2 == 0 or self.U3 == 0:
            raise DegenerateBase(
                f"U1,U2,U3 = {self.U1},{self.U2},{self.U3} (zero value signals "
                "a coincident vertex or a quadrilateral vertex at infinity)")
        object.__setattr__(self, "points", (
            PlanarPoint(0, 0), PlanarPoint(1, 0),
            PlanarPoint(self.V / (self.B4 - self.B5), 0),
            PlanarPoint(self.A4, self.B4), PlanarPoint(self.A5, self.B5)))

    @classmethod
    def from_points(cls, base) -> "BaseParams":
        """The parameters of a canonical-form base point tuple."""
        M1, M2, M3, M4, M5 = base
        if M1 != PlanarPoint(0, 0) or M2 != PlanarPoint(1, 0) or M3.y != 0:
            raise DegenerateBase(
                "base not in canonical form M1=(0,0), M2=(1,0), M3 on the "
                "x-axis")
        params = cls(M4.x, M4.y, M5.x, M5.y)
        if tuple(base) != params.points:
            raise DegenerateBase("M3 is not the diagonal point of M4, M5")
        return params


@dataclass(frozen=True)
class AffineMap2:
    """Upper-triangular affine normalization (x,y) -> (mu1*x+mu2*y, mu3*y)."""

    mu1: Fraction
    mu2: Fraction
    mu3: Fraction

    def __init__(self, mu1, mu2, mu3):
        object.__setattr__(self, "mu1", _fr(mu1))
        object.__setattr__(self, "mu2", _fr(mu2))
        object.__setattr__(self, "mu3", _fr(mu3))
        if self.mu1 * self.mu3 == 0:
            raise ValueError("mu1*mu3 must be nonzero")
        if self.mu1 <= 0:
            raise ValueError("mu1 must be positive")

    @classmethod
    def identity(cls) -> "AffineMap2":
        return cls(1, 0, 1)

    def apply(self, p: PlanarPoint) -> PlanarPoint:
        return PlanarPoint(self.mu1 * p.x + self.mu2 * p.y, self.mu3 * p.y)


@dataclass(frozen=True)
class PentapodDesign:
    base: tuple
    platform: tuple
    radii2: tuple

    def __init__(self, base, platform, radii2):
        base = tuple(base)
        platform = tuple(platform)
        radii2 = tuple(_fr(r) for r in radii2)
        if len(base) != 5 or len(platform) != 5 or len(radii2) != 5:
            raise SchemaError("need 5 base points, 5 platform points, 5 radii")
        for pts, label in ((base, "base"), (platform, "platform")):
            for i in range(5):
                for j in range(i + 1, 5):
                    if pts[i] == pts[j]:
                        raise SchemaError(f"{label} points {i+1},{j+1} coincide")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "radii2", radii2)


@dataclass(frozen=True)
class HexapodDesign:
    pentapod: PentapodDesign
    M6: PlanarPoint
    m6: PlanarPoint


def build_platform(base: BaseParams, A: AffineMap2):
    """Platform anchors of the kappa_2 correspondence: M1->m4, M2->m5,
    M4->m1, M5->m2 (anchor images under A in the normalized frame), and m3
    the intersection of the carrier lines m1m5 and m2m4.  That is the image
    of the quadrilateral vertex M1M5∩M2M4, which U2 != 0 keeps finite and
    U1 != 0 off the anchors.  A kappa_3 platform is the kappa_2 platform of
    its twin base, relabelled (kappa2_twin).
    """
    M1, M2, _, M4, M5 = base.points
    m1, m2, m4, m5 = A.apply(M4), A.apply(M5), A.apply(M1), A.apply(M2)
    m3 = intersect_lines(m1, m5 - m1, m2, m4 - m2)
    # the collinearity constraints must hold exactly
    if not (collinear(m1, m3, m5) and collinear(m2, m3, m4)):
        raise InvariantViolation("kappa_2 m3 is off its carrier lines")
    return (m1, m2, m3, m4, m5)


def kappa2_mu(base: BaseParams, platform) -> AffineMap2:
    """The normalization mu of a kappa_2 platform: the one with
    build_platform(base, mu) == platform; DegeneratePlatform if none."""
    m1, _, _, m4, m5 = platform
    if m4 != PlanarPoint(0, 0) or m5.y != 0:
        raise DegeneratePlatform(
            "platform not normalized: expected m4=(0,0) and m5 on the x-axis")
    mu1 = m5.x
    try:
        mu = AffineMap2(mu1, (m1.x - mu1 * base.A4) / base.B4, m1.y / base.B4)
    except ValueError as exc:
        raise DegeneratePlatform(str(exc)) from exc
    if build_platform(base, mu) != tuple(platform):
        raise DegeneratePlatform("platform is not a kappa_2 image of the base")
    return mu


def swap_4_5(seq) -> tuple:
    """seq with its entries 4 and 5 exchanged; an involution."""
    return (*seq[:3], seq[4], seq[3])


def kappa2_twin(design: PentapodDesign) -> tuple:
    """(case, twin) of a Duporcq design: case 2 if {m1,m3,m5}, {m2,m3,m4}
    are collinear, and the design is its own twin; case 3 if {m1,m3,m4},
    {m2,m3,m5} are, and the twin has base points, platform points and
    radii 4 and 5 exchanged: its canonical base has parameters (A5, B5,
    A4, B4) and the same M3.  NotDuporcq for any other platform."""
    m1, m2, m3, m4, m5 = design.platform
    if collinear(m1, m3, m5) and collinear(m2, m3, m4):
        return 2, design
    if collinear(m1, m3, m4) and collinear(m2, m3, m5):
        return 3, PentapodDesign(*map(swap_4_5, (
            design.base, design.platform, design.radii2)))
    raise NotDuporcq("platform has no case-2/case-3 collinearity pattern")


def platform_m3_closed_form(base: BaseParams, A: AffineMap2) -> PlanarPoint:
    """kappa_2 closed form: m3 = (B4(A5 mu1 + B5 mu2)/U2, B4 B5 mu3/U2)."""
    return PlanarPoint(
        base.B4 * (base.A5 * A.mu1 + base.B5 * A.mu2) / base.U2,
        base.B4 * base.B5 * A.mu3 / base.U2,
    )


def tv_ratio(X: PlanarPoint, Y: PlanarPoint, Z: PlanarPoint) -> Fraction:
    """Affine ratio r with Z = X + r*(Y-X) for collinear X,Y,Z."""
    if X == Y:
        raise CoincidentBase("X = Y")
    d = Y - X
    w = Z - X
    if cross(d, w) != 0:
        raise NotCollinear(f"{Z} not on line {X},{Y}")
    return w.x / d.x if d.x != 0 else w.y / d.y


# leg i joins base vertex i to the platform image of its opposite vertex,
# in the kappa_2 frame
OPPOSITE = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}


def duporcq_hexapod(design: PentapodDesign) -> HexapodDesign:
    """Complete a Duporcq pentapod to its architecturally singular hexapod.

    M6 is the remaining vertex of the base quadrilateral, m6 the remaining
    vertex of the platform quadrilateral; the two quadrilaterals of the
    kappa_2 twin must be congruent under the OPPOSITE pairing.  Exchanging
    legs 4 and 5 moves neither vertex, so the hexapod keeps the file's leg
    order.
    """
    if not (collinear(*design.base[:3]) and collinear(*design.base[2:])):
        raise NotDuporcq("base triples (1,2,3) and (3,4,5) not collinear")
    case, twin = kappa2_twin(design)
    M1, M2, M3, M4, M5 = twin.base
    m1, m2, m3, m4, m5 = twin.platform
    M6 = intersect_lines(M1, M5 - M1, M2, M4 - M2)
    m6 = intersect_lines(m1, m2 - m1, m4, m5 - m4)
    if M6 is None or m6 is None:
        raise NotDuporcq("completion vertex at infinity")
    Mpts = {1: M1, 2: M2, 3: M3, 4: M4, 5: M5, 6: M6}
    mpts = {1: m1, 2: m2, 3: m3, 4: m4, 5: m5, 6: m6}
    # the twin's vertex k is the file's vertex label[k]
    label = (0, 1, 2, 3, 5, 4, 6) if case == 3 else range(7)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            if dist2(Mpts[i], Mpts[j]) != dist2(mpts[OPPOSITE[i]],
                                                mpts[OPPOSITE[j]]):
                raise NotDuporcq(
                    f"edge M{label[i]}M{label[j]} not congruent to "
                    f"m{label[OPPOSITE[i]]}m{label[OPPOSITE[j]]}")
    return HexapodDesign(design, M6, m6)


@dataclass(frozen=True)
class Candidate:
    """One slot of the reconstruction case tree; the picture filter
    (moebius.candidate_report) decides whether it is accepted."""

    tag: str
    platform: tuple
    case: int


def reconstruct_candidates(base: BaseParams) -> list:
    """All six candidate reconstructions of the case tree.

    The free anchor choices are pinned: slots 1a/1b/2a anchor m1:=M1, m4:=M4;
    slots 2bi/2bii anchor m1:=M4, m4:=M1; slot 3 anchors m1:=M5, m5:=M1.
    """
    M1, M2, _, M4, M5 = base.points
    d12, d15, d24, d45 = M2 - M1, M5 - M1, M4 - M2, M5 - M4

    out = []

    # case 1: platform triples mirror the base split {m1,m2,m3},{m3,m4,m5}
    m1, m4 = M1, M4
    m2 = intersect_lines(m1, d12, m4, d24)
    m5 = intersect_lines(m4, d45, m1, d15)
    m3 = intersect_lines(m1, m2 - m1, m4, m5 - m4)
    out.append(Candidate("1a", (m1, m2, m3, m4, m5), 1))

    m2 = intersect_lines(m1, d45, m4, d24)
    m5 = intersect_lines(m4, d12, m1, d15)
    m3 = intersect_lines(m1, m2 - m1, m4, m5 - m4)
    out.append(Candidate("1b", (m1, m2, m3, m4, m5), 1))

    # case 2(a): same anchor parallels as 1a but the case-2 m3
    m2 = intersect_lines(m1, d12, m4, d24)
    m5 = intersect_lines(m4, d45, m1, d15)
    m3 = intersect_lines(m1, m5 - m1, m2, m4 - m2)
    out.append(Candidate("2a", (m1, m2, m3, m4, m5), 2))

    # case 2(b): anchors swapped to m1:=M4, m4:=M1; 2(b)i is the identity
    # kappa_2 platform
    identity = AffineMap2.identity()
    out.append(Candidate("2bi", build_platform(base, identity), 2))

    m1, m4 = M4, M1
    m2 = intersect_lines(m1, d45, m4, d24)
    m5 = intersect_lines(m4, d12, m1, d15)
    m3 = intersect_lines(m1, m5 - m1, m2, m4 - m2)
    out.append(Candidate("2bii", (m1, m2, m3, m4, m5), 2))

    # case 3: the twin base's 2(b)i, relabelled 4<->5 (kappa2_twin)
    twin = BaseParams(base.A5, base.B5, base.A4, base.B4)
    out.append(Candidate("3", swap_4_5(build_platform(twin, identity)), 3))

    for cand in out:
        if cand.platform[2] is None or any(p is None for p in cand.platform):
            raise DegeneratePlatform(f"candidate {cand.tag} degenerates")
    return out


def affine_match(src, dst) -> bool:
    """True when an affine plane map sends src[i] -> dst[i] for all i.

    Scaling either tuple keeps an affine match, so both are taken through
    integral_points.  With p0 = src[0], q0 = dst[0] and a pivot pair (j, k)
    whose u1, u2 = src[j] - p0, src[k] - p0 span the plane, v1, v2 their
    images from q0, the one candidate map sends s to q0 + V U^-1 (s - p0);
    it is tested as det(U) (t - q0) = V adj(U) (s - p0), in ints.  False
    when the five source points are collinear."""
    src, dst = integral_points(src), integral_points(dst)
    pivot = next(((j, k) for j in range(1, 5) for k in range(j + 1, 5)
                  if not collinear(src[0], src[j], src[k])), None)
    if pivot is None:
        return False
    p0, q0 = src[0], dst[0]
    (u1, v1), (u2, v2) = ((IntPoint(src[i].x - p0.x, src[i].y - p0.y),
                           IntPoint(dst[i].x - q0.x, dst[i].y - q0.y))
                          for i in pivot)
    det = cross(u1, u2)
    for s, t in zip(src, dst):
        wx, wy = s.x - p0.x, s.y - p0.y
        # adj(U) w = (a, b), so det * w = a u1 + b u2
        a, b = u2.y * wx - u2.x * wy, u1.x * wy - u1.y * wx
        if (det * (t.x - q0.x) != a * v1.x + b * v2.x
                or det * (t.y - q0.y) != a * v1.y + b * v2.y):
            return False
    return True


# ------------------------------------------------------------------ JSON I/O

def _point_to_json(p: PlanarPoint) -> list:
    return [str(p.x), str(p.y), "0"]


def _point_from_json(v) -> PlanarPoint:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise SchemaError(f"point must be [x,y,z]: {v!r}")
    try:
        x, y, z = (Fraction(str(c)) for c in v)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational in point {v!r}: {exc}") from exc
    if z != 0:
        raise SchemaError("only planar designs (z=0) are supported")
    return PlanarPoint(x, y)


def design_to_dict(design: PentapodDesign, hexapod: HexapodDesign | None = None) -> dict:
    d = {
        "base": [_point_to_json(p) for p in design.base],
        "platform": [_point_to_json(p) for p in design.platform],
        "radii2": [str(r) for r in design.radii2],
    }
    if hexapod is not None:
        d["sixth"] = {"M": _point_to_json(hexapod.M6),
                      "m": _point_to_json(hexapod.m6)}
    return d


def design_from_dict(d: dict) -> tuple:
    """Returns (PentapodDesign, sixth-pair-or-None)."""
    if not isinstance(d, dict):
        raise SchemaError("design must be a JSON object")
    for key in ("base", "platform", "radii2"):
        if key not in d:
            raise SchemaError(f"missing key {key!r}")
    base = d["base"]
    platform = d["platform"]
    radii2 = d["radii2"]
    if not all(isinstance(v, (list, tuple))
               for v in (base, platform, radii2)):
        raise SchemaError("base, platform, radii2 must be lists")
    if len(base) != 5 or len(platform) != 5 or len(radii2) != 5:
        raise SchemaError("base, platform, radii2 must have 5 entries each")
    try:
        radii = tuple(Fraction(str(r)) for r in radii2)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational in radii2: {exc}") from exc
    design = PentapodDesign(
        tuple(_point_from_json(p) for p in base),
        tuple(_point_from_json(p) for p in platform),
        radii,
    )
    sixth = None
    if "sixth" in d:
        s = d["sixth"]
        if not isinstance(s, dict) or "M" not in s or "m" not in s:
            raise SchemaError('"sixth" must contain "M" and "m"')
        sixth = (_point_from_json(s["M"]), _point_from_json(s["m"]))
    return design, sixth


def load_design(path: str) -> tuple:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read design JSON: {exc}") from exc
    return design_from_dict(d)


WORKED_PARAMS = BaseParams(0, 1, 2, 3)


def worked_design() -> PentapodDesign:
    """The Duporcq design used throughout: base (0,1,2,3), kappa_2 platform
    under the identity normalization, leg radii admitting a self-motion."""
    platform = build_platform(WORKED_PARAMS, AffineMap2.identity())
    radii = (Fraction(1), Fraction(18), Fraction(18, 25),
             Fraction(1), Fraction(18))
    return PentapodDesign(WORKED_PARAMS.points, platform, radii)
