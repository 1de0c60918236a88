"""Study-parameter kinematics and the elimination pipeline for canonical
planar pentapods: sphere conditions, leg differences, the f-free quadric K_e,
the rank-drop quadric T with its epsilon coefficients, the factor pair F1/F2,
the tangency ansatz, and the resultant chain.

A pose is (e0:e1:e2:e3:f0:f1:f2:f3) subject to S = sum(e_i f_i) = 0; it is a
displacement iff N = sum(e_i^2) != 0.  All symbolic work happens in one ring
whose variables are listed in STUDY_VARS; design quantities may be exact
rationals or polynomials in the parameter symbols interchangeably.

The canonical design under study is
    M1=(0,0,0)  M2=(1,0,0)  M3=(V/(B4-B5),0,0)  M4=(A4,B4,0)  M5=(A5,B5,0)
with the platform the kappa_2 image under (x,y) -> (mu1 x + mu2 y, mu3 y).
Leg 3 carries denominators, so its sphere condition is assembled from the
weight-cleared data M3*w3, m3*w3 with w3 = (B4-B5)*U2, keeping every
expression polynomial even for fully symbolic parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import MPoly, NotDivisible, ZeroDegree, det, gcd, resultant
from .geometry import AffineMap2, BaseParams

STUDY_VARS = ("e0", "e1", "e2", "e3", "f0", "f1", "f2", "f3",
              "A4", "B4", "A5", "B5", "mu1", "mu2", "mu3",
              "r1sq", "r2sq", "r3sq", "r4sq", "r5sq")

GENS = {name: MPoly.variable(STUDY_VARS, name) for name in STUDY_VARS}

E_VARS = ("e0", "e1", "e2", "e3")
F_VARS = ("f0", "f1", "f2", "f3")
RADII_SYMBOLS = ("r1sq", "r2sq", "r3sq", "r4sq", "r5sq")


class ExceptionalPose(ValueError):
    """N = 0: the pose is a bond, not a displacement."""


class StudyViolation(ValueError):
    """The Study condition sum(e_i f_i) = 0 fails."""


class NotFFree(ArithmeticError):
    """f-terms survived a combination that must eliminate them."""


class InvariantViolation(ArithmeticError):
    """An identity the elimination relies on failed on computed data."""


class AnsatzSolvable(ArithmeticError):
    """The tangency ansatz admits a nonzero solution; carries the witness."""

    def __init__(self, branch: str, witness: dict):
        super().__init__(f"ansatz solvable in branch {branch}: {witness}")
        self.branch = branch
        self.witness = witness


def poly(x) -> MPoly:
    if isinstance(x, MPoly):
        return x
    return MPoly.const(STUDY_VARS, x)


def study_defect(e, f):
    return sum(ei * fi for ei, fi in zip(e, f))


def euler_norm(e):
    return sum(ei * ei for ei in e)


def rotation_numerator(e):
    """The Euler-parameter rotation matrix times N, rows as tuples."""
    e0, e1, e2, e3 = e
    return (
        (e0 * e0 + e1 * e1 - e2 * e2 - e3 * e3,
         2 * (e1 * e2 - e0 * e3),
         2 * (e1 * e3 + e0 * e2)),
        (2 * (e1 * e2 + e0 * e3),
         e0 * e0 - e1 * e1 + e2 * e2 - e3 * e3,
         2 * (e2 * e3 - e0 * e1)),
        (2 * (e1 * e3 - e0 * e2),
         2 * (e2 * e3 + e0 * e1),
         e0 * e0 - e1 * e1 - e2 * e2 + e3 * e3),
    )


def translation_numerator(e, f):
    """Vector part of 2 f conj(e): the translation times N."""
    e0, e1, e2, e3 = e
    f0, f1, f2, f3 = f
    return (
        2 * (e0 * f1 - e1 * f0 + e2 * f3 - e3 * f2),
        2 * (e0 * f2 - e2 * f0 + e3 * f1 - e1 * f3),
        2 * (e0 * f3 - e3 * f0 + e1 * f2 - e2 * f1),
    )


@dataclass(frozen=True)
class StudyPose:
    e: tuple
    f: tuple

    def __init__(self, e, f):
        object.__setattr__(self, "e", tuple(e))
        object.__setattr__(self, "f", tuple(f))
        if len(self.e) != 4 or len(self.f) != 4:
            raise ValueError("need four e and four f entries")

    @classmethod
    def identity(cls) -> "StudyPose":
        return cls((1, 0, 0, 0), (0, 0, 0, 0))

    @classmethod
    def symbolic(cls) -> "StudyPose":
        return cls(tuple(GENS[v] for v in E_VARS),
                   tuple(GENS[v] for v in F_VARS))

    def norm(self):
        return euler_norm(self.e)

    def defect(self):
        return study_defect(self.e, self.f)


def displacement(pose: StudyPose):
    """Rotation matrix and translation vector of a pose; exact for exact input."""
    e, f = pose.e, pose.f
    exact = all(isinstance(v, (int, Fraction)) for v in e + f)
    s = study_defect(e, f)
    n = euler_norm(e)
    scale = max(abs(v) for v in e + f) or 1
    if exact:
        if s != 0:
            raise StudyViolation(f"sum(e_i f_i) = {s}")
        if n == 0:
            raise ExceptionalPose("N = 0")
        rot = tuple(tuple(Fraction(v, 1) / n for v in row)
                    for row in rotation_numerator(e))
        tra = tuple(Fraction(v, 1) / n for v in translation_numerator(e, f))
    else:
        if abs(s) > 1e-10 * scale * scale:
            raise StudyViolation(f"sum(e_i f_i) = {s}")
        if abs(n) <= 1e-14 * scale * scale:
            raise ExceptionalPose("N = 0")
        rot = tuple(tuple(v / n for v in row) for row in rotation_numerator(e))
        tra = tuple(v / n for v in translation_numerator(e, f))
    return rot, tra


def apply_pose(pose: StudyPose, x):
    rot, tra = displacement(pose)
    return tuple(sum(rot[i][j] * x[j] for j in range(3)) + tra[i]
                 for i in range(3))


@dataclass(frozen=True)
class SphereConstraint:
    M: tuple
    m: tuple
    r2: object


def sphere_condition(pose: StudyPose, leg: SphereConstraint, weight=1):
    """N*(|R m + t - M|^2 - r2) with all denominators cleared.

    With weight w != 1 the leg data must already be pre-scaled by w (M and m
    replaced by w*M, w*m); the result is then w^2 times the unscaled value,
    which leaves every coefficient polynomial.
    """
    e, f = pose.e, pose.f
    A, B, C = leg.M
    a, b, c = leg.m
    e0, e1, e2, e3 = e
    f0, f1, f2, f3 = f
    n = euler_norm(e)
    w = weight
    const = (a * a + b * b + c * c) + (A * A + B * B + C * C) - leg.r2 * w * w
    fsq = f0 * f0 + f1 * f1 + f2 * f2 + f3 * f3
    em_f = (f0 * (-(e1 * a + e2 * b + e3 * c))
            + f1 * (e0 * a + e2 * c - e3 * b)
            + f2 * (e0 * b + e3 * a - e1 * c)
            + f3 * (e0 * c + e1 * b - e2 * a))
    rot = rotation_numerator(e)
    rm = tuple(rot[i][0] * a + rot[i][1] * b + rot[i][2] * c for i in range(3))
    m_rot = A * rm[0] + B * rm[1] + C * rm[2]
    v = translation_numerator(e, f)
    v_M = v[0] * A + v[1] * B + v[2] * C
    return const * n + 4 * w * w * fsq + 4 * w * em_f - 2 * m_rot - 2 * w * v_M


@dataclass(frozen=True)
class CanonicalDesign:
    """Canonical pentapod data; every field is a Fraction or an MPoly."""

    A4: object
    B4: object
    A5: object
    B5: object
    mu1: object
    mu2: object
    mu3: object
    radii: tuple

    @classmethod
    def symbolic(cls) -> "CanonicalDesign":
        g = GENS
        return cls(g["A4"], g["B4"], g["A5"], g["B5"],
                   g["mu1"], g["mu2"], g["mu3"],
                   tuple(g[r] for r in RADII_SYMBOLS))

    @classmethod
    def from_params(cls, base: BaseParams, mu=None, radii=None) -> "CanonicalDesign":
        if mu is None:
            mu = AffineMap2.identity()
        if isinstance(mu, AffineMap2):
            mu = (mu.mu1, mu.mu2, mu.mu3)
        if radii is None:
            radii = tuple(GENS[r] for r in RADII_SYMBOLS)
        return cls(base.A4, base.B4, base.A5, base.B5,
                   mu[0], mu[1], mu[2], tuple(radii))

    @classmethod
    def worked(cls, radii=None) -> "CanonicalDesign":
        return cls.from_params(BaseParams(0, 1, 2, 3), radii=radii)

    @property
    def V(self):
        return self.B4 * self.A5 - self.A4 * self.B5

    @property
    def U1(self):
        return (self.B4 - self.B5) * self.V * (self.V - self.B4 + self.B5)

    @property
    def U2(self):
        return self.V + self.B5

    @property
    def U3(self):
        return self.V - self.B4

    def legs(self):
        """Legs 1,2,4,5 plain and leg 3 pre-scaled, as (dict, weight3)."""
        A4, B4, A5, B5 = self.A4, self.B4, self.A5, self.B5
        mu1, mu2, mu3 = self.mu1, self.mu2, self.mu3
        r = self.radii
        zero = 0 * A4 if isinstance(A4, MPoly) else Fraction(0)
        w3 = (B4 - B5) * self.U2
        legs = {
            1: SphereConstraint((zero, zero, zero),
                                (mu1 * A4 + mu2 * B4, mu3 * B4, zero), r[0]),
            2: SphereConstraint((zero + 1, zero, zero),
                                (mu1 * A5 + mu2 * B5, mu3 * B5, zero), r[1]),
            3: SphereConstraint((self.V * self.U2, zero, zero),
                                (B4 * (A5 * mu1 + B5 * mu2) * (B4 - B5),
                                 B4 * B5 * mu3 * (B4 - B5), zero), r[2]),
            4: SphereConstraint((A4, B4, zero), (zero, zero, zero), r[3]),
            5: SphereConstraint((A5, B5, zero), (mu1 + zero, zero, zero), r[4]),
        }
        return legs, w3


def S_poly() -> MPoly:
    g = GENS
    return sum(g[e] * g[f] for e, f in zip(E_VARS, F_VARS))


def N_poly() -> MPoly:
    return sum(GENS[v] * GENS[v] for v in E_VARS)


def leg_condition(design: CanonicalDesign, i: int, pose: StudyPose | None = None):
    """Q_i of the canonical design (leg 3 weight-cleared)."""
    pose = pose or StudyPose.symbolic()
    legs, w3 = design.legs()
    if i == 3:
        return sphere_condition(pose, legs[3], weight=w3)
    return sphere_condition(pose, legs[i])


def delta(design: CanonicalDesign, i: int) -> MPoly:
    """Numerator of Q_1 - Q_i; affine-linear in f0..f3."""
    if i not in (2, 3, 4, 5):
        raise ValueError("i must be in 2..5")
    pose = StudyPose.symbolic()
    legs, w3 = design.legs()
    q1 = sphere_condition(pose, legs[1])
    if i == 3:
        d = w3 * w3 * q1 - sphere_condition(pose, legs[3], weight=w3)
    else:
        d = q1 - sphere_condition(pose, legs[i])
    d = poly(d)
    if any(d.degree_in(fv) > 1 for fv in F_VARS):
        raise InvariantViolation(f"Delta_{i} is not affine-linear in f")
    return d


@dataclass(frozen=True)
class QuadricForm:
    poly: MPoly

    def __post_init__(self):
        p = self.poly
        for fv in F_VARS:
            if p.degree_in(fv) > 0:
                raise NotFFree(f"{fv} present in a supposedly f-free quadric")
        for exp in p.terms:
            edeg = sum(exp[p.vars.index(v)] for v in E_VARS)
            if edeg != 2:
                raise ValueError("not homogeneous of degree 2 in e")

    def coeff(self, i: int, j: int) -> MPoly:
        block = {f"e{k}": 0 for k in range(4)}
        block[f"e{i}"] = 2 if i == j else 1
        if i != j:
            block[f"e{j}"] = 1
        return self.poly.coeff_block(block)

    def __call__(self, e_values):
        assignment = {f"e{k}": e_values[k] for k in range(4)}
        return self.poly.evaluate(assignment)


def compute_Ke(design: CanonicalDesign) -> QuadricForm:
    """The f-free quadric: the weighted leg-difference combination.

    The coefficient on the Delta_2 slot is B4*B5*V*(B4-B5)*U2; together with
    the cleared leg-3 slot this makes all f-terms cancel identically.
    """
    A4, B4, A5, B5 = design.A4, design.B4, design.A5, design.B5
    V, U1, U2, U3 = design.V, design.U1, design.U2, design.U3
    d2 = delta(design, 2)
    d3 = delta(design, 3)
    d4 = delta(design, 4)
    d5 = delta(design, 5)
    ke = (poly(B4 * B5 * V * (B4 - B5) * U2) * d2
          + poly(U3) * d3
          + poly(B5 * U1 * U2) * d4
          - poly(B4 * U1 * U2) * d5)
    return QuadricForm(ke)


def e0e3_ratio(ke: QuadricForm, design: CanonicalDesign):
    """coeff(e0 e3) divided by B4*B5*U1*U2; parameter independent."""
    c = ke.coeff(0, 3)
    denom = poly(design.B4 * design.B5 * design.U1 * design.U2)
    ratio = c.exact_div(denom)
    if ratio.degree() <= 0:
        s = ratio.scalar()
        if isinstance(s, Fraction):
            return s
    return ratio


# ------------------------------------------------------------------ T quadric

E_MONOMIAL_ORDER = (("e0", "e0"), ("e0", "e1"), ("e0", "e2"), ("e0", "e3"),
                    ("e1", "e1"), ("e1", "e2"), ("e1", "e3"),
                    ("e2", "e2"), ("e2", "e3"), ("e3", "e3"))


def _e_coefficients(p: MPoly) -> list:
    out = []
    for (u, v) in E_MONOMIAL_ORDER:
        block = {ev: 0 for ev in E_VARS}
        if u == v:
            block[u] = 2
        else:
            block[u] = 1
            block[v] = 1
        out.append(p.coeff_block(block))
    return out


def _normalize_quadric(p: MPoly) -> MPoly:
    """Strip the gcd of the coefficients, then scale so the first nonzero
    coefficient (canonical monomial order) has leading coefficient 1."""
    coeffs = [c for c in _e_coefficients(p) if not c.is_zero()]
    if not coeffs:
        return p
    g = None
    for c in coeffs:
        g = c if g is None else gcd(g, c)
    out = p.exact_div(g)
    for c in _e_coefficients(out):
        if not c.is_zero():
            return out * (1 / c.leading_coefficient())
    return out


@dataclass(frozen=True)
class RankDropResult:
    T: QuadricForm
    epsilons: dict
    matrix: tuple        # 5x4 MPoly entries: f-coefficients of S, Delta_2..5


def f_coefficient_matrix(design: CanonicalDesign) -> tuple:
    rows = [S_poly(), delta(design, 2), delta(design, 3),
            delta(design, 4), delta(design, 5)]
    out = []
    for rp in rows:
        entries = []
        for fv in F_VARS:
            block = {v: (1 if v == fv else 0) for v in F_VARS}
            entries.append(rp.coeff_block(block))
        out.append(tuple(entries))
    return tuple(out)


def rank_drop_T(design: CanonicalDesign) -> RankDropResult:
    """T from the 4x4 minors of the f-coefficient matrix of (S, Delta_2..5).

    Each minor equals (parameter constant) * N * T; the minor dropping the S
    row vanishes identically.  T is returned normalized per the module rule.
    """
    mat = f_coefficient_matrix(design)
    n = N_poly()
    t_norm = None
    for drop in range(5):
        rows = [list(mat[r]) for r in range(5) if r != drop]
        minor = det(rows)
        if drop == 0:
            if not minor.is_zero():
                raise InvariantViolation("minor without the S row must vanish")
            continue
        try:
            q = minor.exact_div(n)
        except NotDivisible as exc:
            raise InvariantViolation("minor is not a multiple of N") from exc
        cand = _normalize_quadric(q)
        if t_norm is None:
            t_norm = cand
        elif cand != t_norm:
            raise InvariantViolation("minors disagree after normalization")
    eps = epsilons(design)
    if t_norm != _normalize_quadric(epsilon_quadric(eps)):
        raise InvariantViolation("minor-derived T differs from its closed form")
    return RankDropResult(QuadricForm(t_norm), eps, mat)


def epsilons(design: CanonicalDesign) -> dict:
    """The closed-form coefficients of T on e0e1, e0e2, e2e3 and e1e3."""
    A = design.A5 - design.A4 + 1
    B = design.B4 - design.B5
    mu1, mu2, mu3 = design.mu1, design.mu2, design.mu3
    return {
        "eps01": mu3 * (1 + mu1) * B,
        "eps02": mu1 * A * (mu3 + 1) - mu2 * B,
        "eps23": mu3 * (1 - mu1) * B,
        "eps13": mu1 * A * (mu3 - 1) + mu2 * B,
    }


def epsilon_quadric(eps: dict) -> MPoly:
    g = GENS
    return (poly(eps["eps01"]) * g["e0"] * g["e1"]
            + poly(eps["eps02"]) * g["e0"] * g["e2"]
            + poly(eps["eps13"]) * g["e1"] * g["e3"]
            + poly(eps["eps23"]) * g["e2"] * g["e3"])


def exact_rank(rows) -> int:
    """Rank of a matrix of Fractions by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def numeric_rank(rows, tol: float = 1e-9) -> int:
    import numpy as np

    a = np.array([[float(v) for v in row] for row in rows], dtype=float)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int((sv > tol * sv[0]).sum())


def f_matrix_at(design: CanonicalDesign, e_values) -> list:
    """The 5x4 f-coefficient matrix evaluated at numeric e."""
    assignment = {E_VARS[k]: e_values[k] for k in range(4)}
    mat = f_coefficient_matrix(design)
    return [[entry.evaluate(assignment).scalar() for entry in row]
            for row in mat]


# ------------------------------------------------------------------ F1 and F2

def f1_f2(design: CanonicalDesign):
    """The two printed factors, quadratic in (e1, e2)."""
    A = design.A5 - design.A4 + 1
    B = design.B4 - design.B5
    mu1, mu2, mu3 = design.mu1, design.mu2, design.mu3
    g = GENS
    e1, e2 = g["e1"], g["e2"]
    f1 = (poly(B * B * mu2 - A * B * (mu1 + mu3)) * (e2 * e2 - e1 * e1)
          + poly(2 * A * A * mu1 - 2 * B * B * mu3 - 2 * A * B * mu2) * e1 * e2)
    f2 = (poly((1 + mu1) * (mu3 - 1)) * e1 * e1
          + poly((1 + mu3) * (mu1 - 1)) * e2 * e2
          - poly(2 * mu2) * e1 * e2)
    return f1, f2


def f1_degeneracy_certificate() -> MPoly:
    """Eliminating mu2 from the two F1 coefficients leaves a polynomial whose
    real zeros force A = B = 0; returned for inspection."""
    d = CanonicalDesign.symbolic()
    A = poly(d.A5 - d.A4 + 1)
    B = poly(d.B4 - d.B5)
    mu1, mu2, mu3 = poly(d.mu1), poly(d.mu2), poly(d.mu3)
    ca = B * B * mu2 - A * B * (mu1 + mu3)
    cb = 2 * A * A * mu1 - 2 * B * B * mu3 - 2 * A * B * mu2
    return resultant(ca, cb, "mu2")


# ------------------------------------------------------------- tangency ansatz

@dataclass(frozen=True)
class BranchReport:
    name: str
    forced: dict
    obstructions: dict
    solvable: bool


@dataclass(frozen=True)
class AnsatzReport:
    branch_a: BranchReport
    branch_b: BranchReport

    def forces_all_zero(self) -> bool:
        return (not self.branch_a.solvable and not self.branch_b.solvable
                and all(v == 0 for v in self.branch_a.forced.values())
                and all(v == 0 for v in self.branch_b.forced.values()))


def _rational_sqrt(fr: Fraction):
    if fr < 0:
        return None
    num = math.isqrt(fr.numerator)
    den = math.isqrt(fr.denominator)
    if num * num == fr.numerator and den * den == fr.denominator:
        return Fraction(num, den)
    return None


def _square_value(p: MPoly):
    """0 for the zero poly, the rational sqrt for a constant square, else None."""
    if p.is_zero():
        return Fraction(0)
    if p.degree() == 0:
        s = p.scalar()
        if isinstance(s, Fraction):
            return _rational_sqrt(s)
    return None


def tangency_ansatz(ke: QuadricForm) -> AnsatzReport:
    """Decide whether K_e + nu*N + (nu0 e0 + ... + nu3 e3)^2 can vanish.

    Follows the two branches nu0 = nu3 = 0 and nu1 = nu2 = 0.  Identically
    zero coefficient differences force the corresponding nu to zero; surviving
    requirements are reported as obstructions.  A branch whose requirements
    all hold identically yields a verified witness and raises AnsatzSolvable.
    """
    q = {}
    for i in range(4):
        for j in range(i, 4):
            q[(i, j)] = poly(ke.coeff(i, j))

    def branch_a():
        forced, obstructions = {}, {}
        nu1sq = q[(0, 0)] - q[(1, 1)]
        nu2sq = q[(3, 3)] - q[(2, 2)]
        v1 = _square_value(nu1sq)
        v2 = _square_value(nu2sq)
        if v1 is not None:
            forced["nu1"] = v1
        else:
            obstructions["nu1_square"] = nu1sq
        if v2 is not None:
            forced["nu2"] = v2
        else:
            obstructions["nu2_square"] = nu2sq
        gap = q[(0, 0)] - q[(3, 3)]
        if not gap.is_zero():
            obstructions["diagonal_gap"] = gap
        for name, (i, j) in (("q01", (0, 1)), ("q02", (0, 2)),
                             ("q03", (0, 3)), ("q13", (1, 3)),
                             ("q23", (2, 3))):
            if not q[(i, j)].is_zero():
                obstructions[name] = q[(i, j)]
        # e1e2 requirement: q12^2 = 4 nu1^2 nu2^2
        resid = q[(1, 2)] * q[(1, 2)] - 4 * nu1sq * nu2sq
        if not resid.is_zero():
            obstructions["q12_square"] = resid
        if obstructions:
            return BranchReport("nu0=nu3=0", forced, obstructions, False)
        nu1, nu2 = forced["nu1"], forced["nu2"]
        # fix signs so the cross equation holds: q12 = -2 nu1 nu2
        if not (q[(1, 2)] + poly(2 * nu1 * nu2)).is_zero():
            nu2 = -nu2
        witness = {"nu": -q[(0, 0)], "nu0": Fraction(0),
                   "nu1": nu1, "nu2": nu2, "nu3": Fraction(0)}
        return BranchReport("nu0=nu3=0", forced, {}, True), witness

    def branch_b():
        forced, obstructions = {}, {}
        nu0sq = q[(1, 1)] - q[(0, 0)]
        nu3sq = q[(2, 2)] - q[(3, 3)]
        v0 = _square_value(nu0sq)
        v3 = _square_value(nu3sq)
        if v0 is not None:
            forced["nu0"] = v0
        else:
            obstructions["nu0_square"] = nu0sq
        if v3 is not None:
            forced["nu3"] = v3
        else:
            obstructions["nu3_square"] = nu3sq
        gap = q[(1, 1)] - q[(2, 2)]
        if not gap.is_zero():
            obstructions["diagonal_gap"] = gap
        for name, (i, j) in (("q01", (0, 1)), ("q02", (0, 2)),
                             ("q12", (1, 2)), ("q13", (1, 3)),
                             ("q23", (2, 3))):
            if not q[(i, j)].is_zero():
                obstructions[name] = q[(i, j)]
        # e0e3 requirement: q03^2 = 4 nu0^2 nu3^2
        lhs = q[(0, 3)] * q[(0, 3)]
        rhs = 4 * nu0sq * nu3sq
        if not (lhs - rhs).is_zero():
            obstructions["q03_square"] = lhs - rhs
        if obstructions:
            return BranchReport("nu1=nu2=0", forced, obstructions, False)
        nu0, nu3 = forced["nu0"], forced["nu3"]
        # fix signs so the cross equation holds: q03 = -2 nu0 nu3
        if not (q[(0, 3)] + poly(2 * nu0 * nu3)).is_zero():
            nu3 = -nu3
        witness = {"nu": -q[(1, 1)], "nu0": nu0, "nu1": Fraction(0),
                   "nu2": Fraction(0), "nu3": nu3}
        return BranchReport("nu1=nu2=0", forced, {}, True), witness

    ra = branch_a()
    rb = branch_b()

    def verify_and_raise(rep, witness):
        g = GENS
        lin = (poly(witness["nu0"]) * g["e0"] + poly(witness["nu1"]) * g["e1"]
               + poly(witness["nu2"]) * g["e2"] + poly(witness["nu3"]) * g["e3"])
        w = ke.poly + poly(witness["nu"]) * N_poly() + lin * lin
        if w.is_zero():
            raise AnsatzSolvable(rep.name, witness)
        return None

    if isinstance(ra, tuple):
        rep_a, wit_a = ra
        verify_and_raise(rep_a, wit_a)
        ra = rep_a
    if isinstance(rb, tuple):
        rep_b, wit_b = rb
        verify_and_raise(rep_b, wit_b)
        rb = rep_b
    return AnsatzReport(ra, rb)


# -------------------------------------------------------------- resultant chain

@dataclass(frozen=True)
class ChainResult:
    res_e0: dict
    res_e3: dict
    gcd: MPoly
    factor_match: bool
    expected: MPoly


def _res_or_zero(p: MPoly, qp: MPoly, var: str) -> MPoly:
    if p.is_zero() or qp.is_zero():
        return MPoly.zero(STUDY_VARS)
    return resultant(p, qp, var)


def derivative(p: MPoly, var: str) -> MPoly:
    k = p.vars.index(var)
    terms = {}
    for exp, c in p.terms.items():
        if exp[k] == 0:
            continue
        new = exp[:k] + (exp[k] - 1,) + exp[k + 1:]
        terms[new] = terms.get(new, 0 * c) + c * exp[k]
    return MPoly(p.vars, {e: c for e, c in terms.items() if c})


def radical_part(p: MPoly, variables=("e1", "e2")) -> MPoly:
    """Product of the distinct irreducible factors, monic; repeated factors
    and extraneous powers drop out."""
    if p.is_zero() or p.degree() == 0:
        return p
    g = p
    for v in variables:
        g = gcd(g, derivative(p, v))
    return p.exact_div(g).monic()


def resultant_chain(ke: QuadricForm, t: QuadricForm, design: CanonicalDesign) -> ChainResult:
    """Eliminate e0 pairwise among {K_e, T, N}, then e3, then take the gcd.

    For generic parameter values the gcd equals F1^2 * F2^2 up to a unit and
    extraneous powers of shared factors, so the match is tested on radicals;
    at mu = identity F2 vanishes identically and so does the gcd.
    """
    n = N_poly()
    kp, tp = ke.poly, t.poly
    r_ke = _res_or_zero(tp, n, "e0")
    r_t = _res_or_zero(kp, n, "e0")
    r_n = _res_or_zero(kp, tp, "e0")
    s_tn = _res_or_zero(r_t, r_n, "e3")
    s_ken = _res_or_zero(r_ke, r_n, "e3")
    s_ket = _res_or_zero(r_ke, r_t, "e3")
    g = gcd(gcd(s_tn, s_ken), s_ket)
    f1, f2 = f1_f2(design)
    expected = f1 * f1 * f2 * f2
    if g.is_zero() or expected.is_zero():
        match = g.is_zero() and expected.is_zero()
    else:
        match = radical_part(g) == radical_part(expected)
    return ChainResult(
        {"R_Ke": r_ke, "R_T": r_t, "R_N": r_n},
        {"S_TN": s_tn, "S_KeN": s_ken, "S_KeT": s_ket},
        g, match, expected)


def chain_vanishes_at(design: CanonicalDesign, e1, e2) -> bool:
    """Whether all three chain polynomials vanish at numeric (e1, e2)."""
    ke = compute_Ke(design)
    t = rank_drop_T(design).T
    n = N_poly()
    assignment = {"e1": e1, "e2": e2}
    kp = ke.poly.evaluate(assignment)
    tp = t.poly.evaluate(assignment)
    np_ = n.evaluate(assignment)
    r_ke = _res_or_zero(tp, np_, "e0")
    r_t = _res_or_zero(kp, np_, "e0")
    r_n = _res_or_zero(kp, tp, "e0")
    vals = [_res_or_zero(a, b, "e3") for a, b in
            ((r_t, r_n), (r_ke, r_n), (r_ke, r_t))]
    return all(v.is_zero() for v in vals)


# ------------------------------------------------------------------- pipeline

def _branch_json(rep: BranchReport) -> dict:
    return {
        "forced": {k: str(v) for k, v in rep.forced.items()},
        "obstructions": sorted(rep.obstructions),
        "solvable": rep.solvable,
    }


def pipeline_report(design: CanonicalDesign) -> dict:
    """The elimination pipeline summary; design must have numeric mu."""
    ke = compute_Ke(design)
    ratio = e0e3_ratio(ke, design)
    td = rank_drop_T(design)
    f1, f2 = f1_f2(design)
    chain = resultant_chain(ke, td.T, design)
    try:
        rep = tangency_ansatz(ke)
        ansatz = {
            "branch_a": _branch_json(rep.branch_a),
            "branch_b": _branch_json(rep.branch_b),
            "forces_all_zero": rep.forces_all_zero(),
        }
    except AnsatzSolvable as exc:
        ansatz = {"solvable_branch": exc.branch,
                  "witness": {k: str(v) for k, v in exc.witness.items()}}
    conclusion = ("two-parameter self-motion (platform map is the identity)"
                  if f2.is_zero() else "no two-parameter self-motion")
    return {
        "conclusion": conclusion,
        "ansatz": ansatz,
        "Ke": {
            "terms": ke.poly.term_count,
            "e0e3_ratio": ratio.to_str() if isinstance(ratio, MPoly) else str(ratio),
        },
        "T": {
            "epsilons": {k: (v.to_str() if isinstance(v, MPoly) else str(v))
                         for k, v in td.epsilons.items()},
        },
        "F1F2": {
            "F1": f1.to_str(),
            "F2": f2.to_str(),
            "F2_identically_zero": f2.is_zero(),
        },
        "chain": {
            "gcd": chain.gcd.to_str(),
            "factors": {
                "expected": "F1^2*F2^2",
                "match": chain.factor_match,
            },
        },
    }
