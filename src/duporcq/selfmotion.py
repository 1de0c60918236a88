"""Two-parameter self-motions of canonical pentapods: the radii constraint G,
a numeric pose sampler on the motion, the translational circle at the
half-turn, similarity bonds, and the architectural-singularity test for the
hexapod extension.

Legs at opposite vertices of the congruent quadrilaterals share a length:
motion_radii copies r1^2, r2^2 onto legs 4, 5, and the hexapod's sixth leg
takes r3^2 (sixth_radius), so the hexapod carries its pentapod's motion.

The motion lives on e0 = 0: for each rotation direction (0:e1:e2:e3) the
Study condition and the differences of the leg conditions cut a linear slice
of translations f, and leg 1 cuts that slice in a sphere around a center in
kernel coordinates: the translation fiber, generically two points.  One SVD
of the slice gives its rank, its kernel and its least-norm point, and the
sampler returns the least-norm point of the fiber that closes every leg.  A
design carries such a motion exactly when its squared radii satisfy the
linear relation G = 0.  build_G derives G once over the base ring
Q[A4, B4, A5, B5] (identity mu); derive_G builds it on its first call, keeps
it for the process and evaluates it at each numeric base, so motion_radii
computes no K_e.  sample_pose, the one sampler, takes a whole grid of
directions through one sphere_linear call, one stacked SVD and one
residuals_at call; verify_selfmotion, its one caller, samples its first
grid and the three tangent directions at the half-turn in one call, so a
motion op whose first grid holds enough poses makes one sampler call.
sample_pose alone accepts or rejects a direction, and no NaN passes its
bounds; a MotionSample is the plain record of an accepted pose.

The float path has no leg model of its own: each public call reads its
design once into a FloatLegs, whose float SphereConstraint stacked over
the legs study.sphere_linear splits into rows, and poses act through
study.rotation_numerator and translation_numerator.

numpy is imported inside the functions that use it, so importing this
module, as the CLI does for every subcommand, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactpoly import MPoly
from .geometry import (
    AffineMap2,
    BaseParams,
    CoincidentBase,
    HexapodDesign,
    InvariantViolation,
    NotCollinear,
    PentapodDesign,
    PlanarPoint,
    build_platform,
    cleared,
    collinear,
    cross,
    primitive_key,
    tv_ratio,
)
from .study import (
    GENS,
    RADII_SYMBOLS,
    CanonicalDesign,
    SphereConstraint,
    compute_Ke,
    rotation_numerator,
    sphere_linear,
    translation_numerator,
)


TOL_LEG = 1e-9      # leg residual bound, scaled by 1 + max r^2
TOL_F0 = 1e-12      # bound on |f0| of a sample


class Unrealizable(ValueError):
    """The requested radii do not yield a movable design."""


class InconsistentSystem(ArithmeticError):
    """Leg equations fail to close within tolerance; not a motion design."""


class FloatOverflow(ValueError):
    """An exact design value has no finite float."""


class NoRealSolution(ArithmeticError):
    """The translation fiber for this direction has no real point."""


class RankTooHigh(ArithmeticError):
    """The half-turn difference system exceeds rank one; no circle."""


class ConstructionDegenerate(ValueError):
    """A bond construction step is undefined for this design."""


# --------------------------------------------------------------- radii relation

def build_G() -> MPoly:
    """The radii constraint over the base ring Q[A4, B4, A5, B5], identity
    mu: K_e restricted to e0 = 0 splits off the factor e1^2 + e2^2 + e3^2;
    the quotient G is linear in the squared radii."""
    g = GENS
    mu = AffineMap2.identity()
    design = CanonicalDesign(g["A4"], g["B4"], g["A5"], g["B5"],
                             mu.mu1, mu.mu2, mu.mu3,
                             tuple(g[r] for r in RADII_SYMBOLS))
    restricted = compute_Ke(design).poly.evaluate({"e0": 0})
    e123 = g["e1"] * g["e1"] + g["e2"] * g["e2"] + g["e3"] * g["e3"]
    quotient = restricted.exact_div(e123)
    if any(quotient.degree_in(v) for v in ("e0", "e1", "e2", "e3")):
        raise InvariantViolation("K_e(e0=0) / (e1^2+e2^2+e3^2) is not e-free")
    return quotient


# build_G()'s polynomial, built on the first derive_G call; it depends on
# no design, so one build serves every base of the process
_ring_G = None


def derive_G(params: BaseParams) -> MPoly:
    """G at a numeric base: build_G()'s polynomial evaluated at (A4, B4,
    A5, B5), which leaves a polynomial in the squared radii."""
    global _ring_G
    if _ring_G is None:
        _ring_G = build_G()
    return _ring_G.evaluate({"A4": params.A4, "B4": params.B4,
                             "A5": params.A5, "B5": params.B5})


def g_coefficients(gpoly: MPoly) -> tuple:
    """(g0, g1, ..., g5): constant term and the r1sq..r5sq coefficients."""
    coeffs = gpoly.coefficients(RADII_SYMBOLS)
    keys = [tuple(int(k == i) for k in range(5)) for i in range(-1, 5)]
    return tuple(coeffs[key].scalar() if key in coeffs else Fraction(0)
                 for key in keys)


def motion_radii(params: BaseParams, r1sq, r2sq) -> tuple:
    """Squared radii (r1^2, r2^2, r3^2, r1^2, r2^2) with a self-motion:
    legs 4,5 copy legs 1,2 and G = 0 fixes leg 3."""
    r1sq, r2sq = Fraction(r1sq), Fraction(r2sq)
    if r1sq <= 0 or r2sq <= 0:
        raise Unrealizable("squared radii must be positive")
    g = derive_G(params)
    coeff = g_coefficients(g)
    a = coeff[3]
    if a == 0:
        raise InvariantViolation("r3sq coefficient of G vanishes")
    b = (coeff[0] + (coeff[1] + coeff[4]) * r1sq + (coeff[2] + coeff[5]) * r2sq)
    r3sq = -b / a
    if r3sq < 0:
        raise Unrealizable(f"forced r3^2 = {r3sq} < 0")
    return (r1sq, r2sq, r3sq, r1sq, r2sq)


def build_motion_design(params: BaseParams, r1sq, r2sq) -> PentapodDesign:
    """Concrete pentapod with the kappa_2 identity platform and motion radii."""
    platform = build_platform(params, AffineMap2.identity())
    return PentapodDesign(params.points, platform,
                          motion_radii(params, r1sq, r2sq))


# ------------------------------------------------------------------ numeric legs

def design_legs(design):
    """(base points, platform points, squared radii) as exact lists; a
    hexapod contributes its sixth leg last."""
    if isinstance(design, HexapodDesign):
        penta = design.pentapod
        return (list(penta.base) + [design.M6],
                list(penta.platform) + [design.m6],
                list(penta.radii2) + [sixth_radius(design)])
    return list(design.base), list(design.platform), list(design.radii2)


class FloatLegs(NamedTuple):
    """One design's float legs: arrays M, m (one row per leg) and r2, and
    the legs as one stacked SphereConstraint whose entries are (L,)
    columns."""
    M: np.ndarray
    m: np.ndarray
    r2: np.ndarray
    stacked: SphereConstraint

    @classmethod
    def of(cls, M, m, r2) -> "FloatLegs":
        return cls(M, m, r2, SphereConstraint(tuple(M.T), tuple(m.T), r2))


def finite_floats(values) -> list:
    """float(v) of each exact value; FloatOverflow when one has no finite
    float."""
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise FloatOverflow(f"value has no finite float: {exc}") from exc


def float_legs(design) -> FloatLegs:
    """FloatLegs of design_legs(design), read through finite_floats."""
    import numpy as np
    base, plat, radii = design_legs(design)
    return FloatLegs.of(
        np.array([finite_floats((p.x, p.y, 0)) for p in base]),
        np.array([finite_floats((p.x, p.y, 0)) for p in plat]),
        np.array(finite_floats(radii)))


def sixth_radius(design: HexapodDesign) -> Fraction:
    """Sixth squared leg length: r3^2, read off no pose.  Legs paired by
    the congruence of the two complete quadrilaterals have equal lengths,
    as motion_radii copies r1^2, r2^2 onto legs 4, 5; geometry.OPPOSITE
    pairs 6 with 3, and a rec3 design's kappa_2 twin moves neither."""
    return design.pentapod.radii2[2]


def _move(m, e, f) -> np.ndarray:
    """Platform anchors m (rows) carried by unit-norm poses (e, f), each
    of shape (..., 4); the leading axes broadcast."""
    import numpy as np
    # .T puts the Euler and Study parameters first, and on the way back
    # turns each rotation numerator into its transpose
    e, f = np.asarray(e, float).T, np.asarray(f, float).T
    return (m @ np.array(rotation_numerator(e)).T
            + np.array(translation_numerator(e, f)).T[..., None, :])


def residuals_at(legs: FloatLegs, e, f) -> np.ndarray:
    """Per-leg dist^2 - r^2 at unit-norm poses (e, f) of shape (..., 4):
    shape (..., L)."""
    return ((_move(legs.m, e, f) - legs.M) ** 2).sum(axis=-1) - legs.r2


@dataclass(frozen=True)
class MotionSample:
    e: tuple
    f: tuple
    residuals: tuple


def sample_pose(legs: FloatLegs, directions, tol_f0: float = TOL_F0) -> list:
    """Least-norm motion poses over a grid of rotation directions (e1, e2,
    e3), shape (B, 3): a list, in grid order, of each direction's
    MotionSample or the InconsistentSystem or NoRealSolution that rejects
    it.  ValueError, before any sampling, unless every direction is a
    nonzero 3-vector; FloatOverflow, before any direction is decided, when
    a slice row or constant has no finite float.

    One SVD of each direction's linear slice A f = b, {S = 0, Q1 - Qi = 0
    for every other leg}, gives its rank, the orthonormal rows K of its
    kernel and its pseudo-inverse pinv at that rank: the least-norm point is
    fp = pinv b, refined once by fp += pinv (b - A fp).  A design carrying
    the motion leaves the slice rank-deficient with a consistent right side;
    InconsistentSystem otherwise.  In kernel coordinates s, f = fp + s.K,
    leg 1 reads Q1 = 4|s - center|^2 - 4 rho^2 with center = -K(8 fp + L1)/8
    and rho^2 = |center|^2 - Q1(fp)/4: the fiber is a sphere of any kernel
    dimension, and NoRealSolution means it is empty (rho^2 < 0, or a
    full-rank slice whose point fp misses Q1 = 0).  The candidates are the
    sphere's two points on the line through its center and s = 0 (fp alone
    at full rank).  The rank cutoff can leave a candidate off some leg, so
    the candidates close every leg, all in one residuals_at call; the
    least-norm one within the leg bound TOL_LEG * (1 + max r^2) is kept,
    else the closest miss.  Each bound test accepts only a value within its
    bound, so a NaN is rejected: the slice's gap, Q1 at a point fiber,
    rho^2 >= 0, the kept pose's worst leg residual, and its |f0| (tol_f0).
    """
    import numpy as np
    if not len(directions):
        return []
    d = np.asarray(directions, dtype=float)
    if d.ndim != 2 or d.shape[1] != 3 or not np.all(np.vecdot(d, d) > 0):
        raise ValueError("directions must be nonzero 3-vectors")
    e = np.zeros((len(d), 4))
    e[:, 1:] = d / np.sqrt(np.vecdot(d, d))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        rows, consts = sphere_linear(tuple(e.T[:, :, None]), legs.stacked)
    rows = np.stack(rows, axis=-1)                  # (B, L, 4), consts (B, L)
    if not (np.isfinite(rows).all() and np.isfinite(consts).all()):
        raise FloatOverflow("leg slice has no finite float")
    A = np.concatenate([e[:, None], rows[:, :1] - rows[:, 1:]], axis=1)
    b = np.concatenate([np.zeros((len(d), 1)), consts[:, 1:] - consts[:, :1]],
                       axis=1)
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    rank = (sv > 1e-9 * sv[:, :1]).sum(axis=1)
    inv = np.divide(1.0, sv, out=np.zeros_like(sv),
                    where=np.arange(4) < rank[:, None])
    pinv = Vt.mT @ (inv[:, :, None] * U.mT)
    fp = np.matvec(pinv, b)
    fp += np.matvec(pinv, b - np.matvec(A, fp))
    tol = TOL_LEG * (1.0 + float(np.max(np.abs(legs.r2))))
    gap = np.matvec(A, fp) - b
    consistent = np.sqrt(np.vecdot(gap, gap)) <= tol
    point = rank == 4
    q1 = np.vecdot(4.0 * fp, fp) + np.vecdot(rows[:, 0], fp) + consts[:, 0]
    # rows of Vt past the rank span K; the others get s = 0
    center = np.where(np.arange(4) >= rank[:, None],
                      -(Vt @ (8.0 * fp + rows[:, 0])[:, :, None])[:, :, 0]
                      / 8.0, 0.0)
    cc = np.vecdot(center, center)
    rho2 = cc - q1 / 4.0
    real = np.where(point, np.abs(q1) <= tol, rho2 >= 0)
    nc, rho = np.sqrt(cc), np.sqrt(np.where(real & ~point, rho2, 0.0))
    # the candidates s = center * (1 -+ rho / nc); a sphere centered at
    # s = 0 takes s = +-rho on K's first axis instead
    off = nc > 1e-300
    sign = np.array([-1.0, 1.0])[:, None]
    ends = center[:, None] * (1.0 + sign * (rho / np.where(off, nc, 1.0))[
        :, None, None])
    if not off.all():
        axis = np.eye(4)[np.minimum(rank, 3)][:, None]
        ends[~off] = (-sign * rho[:, None, None] * axis)[~off]
    candidates = fp[:, None] + ends @ Vt            # (B, 2, 4)
    res = residuals_at(legs, e[:, None], candidates)
    worst = np.abs(res).max(axis=-1)
    good = worst <= tol
    k = np.where(good.any(axis=1),
                 np.argmin(np.where(good, np.vecdot(candidates, candidates),
                                    np.inf), axis=1),
                 np.argmin(worst, axis=1))
    pick = np.arange(len(d)), k
    f, res, worst = candidates[pick], res[pick], worst[pick]
    out = []
    for ei, fi, ri, ok, pt, re, r2, w, a in zip(
            e.tolist(), f.tolist(), res.tolist(), consistent.tolist(),
            point.tolist(), real.tolist(), rho2.tolist(), worst.tolist(),
            np.abs(f[:, 0]).tolist()):
        if not ok:
            out.append(InconsistentSystem("linear slice is inconsistent"))
        elif not re:
            out.append(NoRealSolution(
                "fiber is a single inconsistent point" if pt
                else f"empty fiber sphere, rho^2 = {r2:.3e}"))
        elif not w <= tol:
            out.append(InconsistentSystem(
                f"leg residual {w:.3e} over {tol:.3e}"))
        elif not a <= tol_f0:
            out.append(InconsistentSystem(
                f"|f0| = {a:.3e} over {tol_f0:.3e}"))
        else:
            out.append(MotionSample(tuple(ei), tuple(fi), tuple(ri)))
    return out


def fibonacci_directions(count: int):
    """Deterministic spread of unit directions over the e3 >= 0 hemisphere."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(count):
        z = (k + 0.5) / count
        r = math.sqrt(max(0.0, 1.0 - z * z))
        yield (r * math.cos(k * golden), r * math.sin(k * golden), z)


@dataclass(frozen=True)
class MotionReport:
    samples: tuple
    attempted: int
    max_residual: float
    max_f0: float
    tangent_angle: float


TANGENT_STEP = 1e-4     # direction step of the tangents' difference quotients
TANGENT_DIRECTIONS = ((0, 0, 1), (TANGENT_STEP, 0, 1), (0, TANGENT_STEP, 1))


def _tangent_angle(poses):
    """The angle between two motion tangents, as difference quotients,
    from the outcomes at TANGENT_DIRECTIONS; the first rejection in that
    order is raised."""
    import numpy as np
    for s in poses:
        if isinstance(s, Exception):
            raise s
    p0, p1, p2 = (np.array(s.e + s.f) for s in poses)
    t1, t2 = (p1 - p0) / TANGENT_STEP, (p2 - p0) / TANGENT_STEP
    cosang = abs(t1 @ t2) / (np.linalg.norm(t1) * np.linalg.norm(t2))
    return math.acos(min(1.0, max(-1.0, cosang)))


def verify_selfmotion(design, count: int = 100,
                      tol_f0: float = TOL_F0) -> MotionReport:
    """Sample the motion over a direction grid and collect the evidence.

    Directions whose fiber is empty are skipped; InconsistentSystem from any
    direction propagates, since it falsifies the motion itself.  A grid too
    sparse for count poses is doubled and sampled again; attempted counts
    the directions of every pass.  Each pass samples its grid in one
    sample_pose call and walks the outcomes in grid order up to the
    count-th pose, so outcomes past it count for nothing.  The first pass
    samples the three TANGENT_DIRECTIONS in the same call for the angle
    between two tangents at the half-turn; the first of their rejections
    is raised after the walk.  count must be at least 1 (ValueError before
    any sampling otherwise).
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    legs = float_legs(design)
    size = 2 * count
    outcomes = sample_pose(
        legs, list(fibonacci_directions(size)) + list(TANGENT_DIRECTIONS),
        tol_f0)
    outcomes, at_half_turn = outcomes[:size], outcomes[size:]
    attempted = 0
    while True:
        samples = []
        for outcome in outcomes:
            attempted += 1
            if isinstance(outcome, NoRealSolution):
                continue
            if isinstance(outcome, Exception):
                raise outcome
            samples.append(outcome)
            if len(samples) == count:
                break
        if len(samples) == count:
            break
        if size >= 64 * count:
            raise NoRealSolution(
                f"only {len(samples)} of {count} directions admit real poses")
        size *= 2
        outcomes = sample_pose(legs, list(fibonacci_directions(size)), tol_f0)
    return MotionReport(
        tuple(samples), attempted,
        max(max(abs(r) for r in s.residuals) for s in samples),
        max(abs(s.f[0]) for s in samples),
        _tangent_angle(at_half_turn))


# ------------------------------------------------------- translational circle

@dataclass(frozen=True)
class TranslationalCircle:
    normal: tuple       # primitive integer direction, z = 0
    offset: Fraction    # plane equation <t, normal> = offset
    center: tuple
    rho2: Fraction


def translational_submotion(design) -> TranslationalCircle:
    """The circle of translations at the half-turn rotation e = (0:0:0:1).

    Each leg constrains the translation to a sphere |t - c_i|^2 = r_i^2 with
    c_i = M_i + m_i; the pairwise differences must be proportional (rank one),
    leaving one plane whose sphere section is the circle.
    """
    base, plat, radii = design_legs(design)
    centers = [Mi + mi for Mi, mi in zip(base, plat)]
    norms = [c.x * c.x + c.y * c.y for c in centers]
    rows = [centers[i] - centers[0] for i in range(1, len(centers))]
    rhs = [Fraction(norms[i] - radii[i] - norms[0] + radii[0], 2)
           for i in range(1, len(centers))]
    pivot = next((i for i, r in enumerate(rows) if r != PlanarPoint(0, 0)), None)
    if pivot is None:
        raise ConstructionDegenerate("all leg spheres are concentric")
    n = rows[pivot]
    for i, r in enumerate(rows):
        if cross(n, r) != 0:
            raise RankTooHigh(f"difference rows {pivot+1} and {i+1} independent")
        lam = r.x / n.x if n.x != 0 else r.y / n.y
        if rhs[i] != lam * rhs[pivot]:
            raise InconsistentSystem("parallel planes with different offsets")
    offset = rhs[pivot]
    prim = PlanarPoint(*primitive_key(*cleared(n)))
    offset = offset * (prim.x / n.x if n.x != 0 else prim.y / n.y)
    n = prim
    n2 = n.x * n.x + n.y * n.y
    c1 = centers[0]
    lam = (offset - (c1.x * n.x + c1.y * n.y)) / n2
    center = c1 + n.scale(lam)
    rho2 = radii[0] - (offset - (c1.x * n.x + c1.y * n.y)) ** 2 / n2
    if rho2 < 0:
        raise NoRealSolution(f"empty circle, rho^2 = {rho2}")
    return TranslationalCircle((n.x, n.y, Fraction(0)), offset,
                               (center.x, center.y, Fraction(0)), rho2)


def circle_translations(circle: TranslationalCircle, count: int):
    """Float translation samples on the circle."""
    import numpy as np
    nx, ny, _ = (float(v) for v in circle.normal)
    nn = math.hypot(nx, ny)
    u = np.array([-ny / nn, nx / nn, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    c = np.array([float(x) for x in circle.center])
    rho = math.sqrt(float(circle.rho2))
    for k in range(count):
        th = 2 * math.pi * k / count
        yield c + rho * (math.cos(th) * u + math.sin(th) * v)


def pose_from_translation(t) -> tuple:
    """Study pose (e, f) of the half-turn composed with translation t."""
    e = (0.0, 0.0, 0.0, 1.0)
    f = (-t[2] / 2.0, t[1] / 2.0, -t[0] / 2.0, 0.0)
    return e, f


# ------------------------------------------------------------- similarity bond

@dataclass(frozen=True)
class SimilarityBond:
    m3_prime: PlanarPoint
    m3_second: PlanarPoint
    M3_prime: PlanarPoint
    M3_second: PlanarPoint
    direction: tuple


def similarity_bond(design: PentapodDesign) -> SimilarityBond:
    """Degenerate-triangle data of the bond at infinity.

    Affine ratios along the collinear triples transfer the third anchor
    between base and platform; the two transferred platform points and the
    two transferred base points must be collinear with m3 and M3
    respectively, on parallel lines.
    """
    M1, M2, M3, M4, M5 = design.base
    m1, m2, m3, m4, m5 = design.platform
    try:
        m3p = m1 + (m2 - m1).scale(tv_ratio(M1, M2, M3))
        r = tv_ratio(M3, M4, M5)
        if r == 1:
            raise ConstructionDegenerate("unit ratio on M3,M4,M5")
        m3pp = (m5 - m4.scale(r)).scale(Fraction(1, 1) / (1 - r))
        M3p = M1 + (M5 - M1).scale(tv_ratio(m1, m5, m3))
        M3pp = M2 + (M4 - M2).scale(tv_ratio(m2, m4, m3))
    except (CoincidentBase, NotCollinear) as exc:
        raise ConstructionDegenerate(str(exc)) from exc
    if not (collinear(m3, m3p, m3pp) and collinear(M3, M3p, M3pp)):
        raise ConstructionDegenerate("bond points fail collinearity")
    g_dir = m3pp - m3p
    G_dir = M3pp - M3p
    if g_dir == PlanarPoint(0, 0) or G_dir == PlanarPoint(0, 0):
        raise ConstructionDegenerate("bond line collapses to a point")
    if cross(g_dir, G_dir) != 0:
        raise ConstructionDegenerate("bond lines are not parallel")
    d = PlanarPoint(*primitive_key(*cleared(g_dir)))
    return SimilarityBond(m3p, m3pp, M3p, M3pp, (d.x, d.y, Fraction(0)))


# --------------------------------------------------- architectural singularity

def plucker_matrix(legs: FloatLegs, e, f) -> np.ndarray:
    """Rows are the leg lines (direction; moment) at unit-norm poses (e, f)
    of shape (..., 4): shape (..., L, 6)."""
    import numpy as np
    moved = _move(legs.m, e, f)
    return np.concatenate([moved - legs.M, np.cross(legs.M, moved)], axis=-1)


def arch_singularity_check(design: HexapodDesign, seed: int = 0,
                           samples: int = 100) -> float:
    """Worst relative smallest singular value of the leg-line matrix over
    random poses, all drawn in one call: e normal, f normal projected off e,
    both scaled to unit |e|.  Tiny values certify architectural
    singularity.  FloatOverflow when a leg-line row or its norm has no
    finite float: a value read off overflowed rows certifies nothing."""
    import numpy as np
    legs = float_legs(design)
    poses = np.random.default_rng(seed).normal(size=(samples, 2, 4))
    e, f = poses[:, 0], poses[:, 1]
    n = np.vecdot(e, e)
    f = f - (np.vecdot(f, e) / n)[:, None] * e
    s = np.sqrt(n)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = plucker_matrix(legs, e / s, f / s)
        norms = np.linalg.norm(rows, axis=-1)
    # a row's norm bounds its entries, and a nan entry makes it nan
    if not np.isfinite(norms).all():
        raise FloatOverflow("leg-line rows have no finite float")
    kept = norms.min(axis=-1) >= 1e-12
    if not kept.any():
        return 0.0
    sv = np.linalg.svd(rows[kept] / norms[kept][..., None], compute_uv=False)
    return max(0.0, *(sv[:, -1] / sv[:, 0]))
