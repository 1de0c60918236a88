"""Study-parameter kinematics and the elimination pipeline for canonical
planar pentapods: sphere conditions, leg differences, the f-free quadric K_e,
the rank-drop quadric T with its epsilon coefficients, the factor pair F1/F2,
the tangency ansatz, and the resultant chain.

A pose is (e0:e1:e2:e3:f0:f1:f2:f3) subject to S = sum(e_i f_i) = 0; it is a
displacement iff N = sum(e_i^2) != 0.  All symbolic work happens in one ring
whose variables are listed in STUDY_VARS; a design quantity is an exact
rational or a polynomial in the parameter symbols, and enters each formula
as it is, never lifted (MPoly arithmetic takes rationals on either side).

The canonical design under study is
    M1=(0,0,0)  M2=(1,0,0)  M3=(V/(B4-B5),0,0)  M4=(A4,B4,0)  M5=(A5,B5,0)
with the platform the kappa_2 image under (x,y) -> (mu1 x + mu2 y, mu3 y).
Leg 3 carries denominators, so its sphere condition is assembled from the
weight-cleared data M3*w3, m3*w3 with w3 = (B4-B5)*U2, keeping every
expression polynomial even for fully symbolic parameters.

sphere_linear is the one leg model: it splits the sphere conditions of a
pose's legs at fixed e into f-rows and constants, forming the pose's
rotation numerator and N once.  sphere_condition is built from it, and the
float sampler in selfmotion evaluates it on floats.  leg_split runs it once
per design over the five legs and forms each leg difference Delta_i as
(f-row, constant).  f_row_weights holds the K_e weights and checks that
they annihilate the f-rows, each coordinate one exactpoly.dot sum;
compute_Ke combines the constants by them, f_coefficient_matrix stacks
(e0..e3) over the rows, and pipeline_report hands one split and its
checked weights to both K_e and T.  delta is a view of the split.  The
tangency ansatz runs one branch function twice, over mirrored index pairs;
a solvable branch raises, so every BranchReport is an unsolvable one.

Every coefficient read goes through MPoly.coefficients, the kernel's one
extraction routine.  A QuadricForm checks that it is f-free and of degree 2
in e with one coefficients pass over F_VARS and one over E_VARS, and keeps
the ten e_i e_j coefficients, which e0e3_ratio and the tangency ansatz read.
rank_drop_T computes one 4x4 minor, the one without Delta_3: the checked
f-row dependency, with every weight nonzero, makes the minor without S
vanish and the other three nonzero multiples of it.  The minor over N is
checked against the epsilon closed form by its coefficient keys and
cross-multiplication; T takes the closed form's coefficients from the
epsilons and normalizes only the closed form.
K_e has only e0^2, e1^2, e2^2, e3^2, e0e3 and e1e2 terms and T only
e0e1, e0e2, e1e3 and e2e3, so under (e0, e3) -> (-e0, -e3) K_e and N are
even and T is odd, and the e0 resultants R_Ke, R_T and R_N are polynomials
in e3^2.  _eliminate deflates them by e3^2 -> e3 and keeps s_i, their
resultant there, whose square is the paper's chain polynomial S_i
(Poisson).  Over a UFD gcd(S_i) = gcd(s_i)^2, so the paper's identity
gcd(S_i) = F1^2 * F2^2 up to a unit is gcd(s_i) = F1 * F2 up to a unit.
resultant_chain divides each s_i by E = F1 * F2 once and takes one gcd,
smallest first, of the cofactors when E divides all three, else of the
s_i; the largest is skipped if the first two are coprime.  The match is
one more exact division by the cofactor gcd.  pipeline_report concludes
from the chain gcd, checked against F2, and prints its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactpoly import (
    MPoly,
    NotDivisible,
    deflate,
    det,
    dot,
    gcd,
    proportional,
    resultant,
)
from .geometry import (AffineMap2, BaseParams, BaseQuantities,
                       InvariantViolation)

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


class NotFFree(InvariantViolation):
    """f-terms survived a combination that must eliminate them."""


class AnsatzSolvable(ArithmeticError):
    """The tangency ansatz admits a nonzero solution; carries the witness."""

    def __init__(self, branch: str, witness: dict):
        super().__init__(f"ansatz solvable in branch {branch}: {witness}")
        self.branch = branch
        self.witness = witness


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


def displacement(pose: StudyPose):
    """Exact rotation matrix and translation vector of a pose whose entries
    are ints or Fractions; TypeError for any other entry."""
    e, f = pose.e, pose.f
    if not all(isinstance(v, (int, Fraction)) for v in e + f):
        raise TypeError("pose entries must be int or Fraction")
    s = study_defect(e, f)
    if s != 0:
        raise StudyViolation(f"sum(e_i f_i) = {s}")
    n = euler_norm(e)
    if n == 0:
        raise ExceptionalPose("N = 0")
    rot = tuple(tuple(Fraction(v, 1) / n for v in row)
                for row in rotation_numerator(e))
    tra = tuple(Fraction(v, 1) / n for v in translation_numerator(e, f))
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


def sphere_linear(e, legs, weights=None):
    """The sphere conditions of several legs at one fixed e, each split as
    Q = 4 w^2 |f|^2 + row.f + c0.

    Returns one (row, c0) per leg: row holds the coefficients of f0..f3 and
    c0 the f-free part.  The rotation numerator and N of e are formed once
    for all legs; weights (default all 1) are the legs' w.  Entries follow
    the type of e and the leg data, so the same formula serves exact
    polynomials and floats.
    """
    e0, e1, e2, e3 = e
    rot = rotation_numerator(e)
    n = euler_norm(e)
    out = []
    for leg, w in zip(legs, weights or (1,) * len(legs)):
        A, B, C = leg.M
        a, b, c = leg.m
        # on S = 0: 2 N (R m).t = 4 em.f and -2 N M.t = -4 tM.f
        em = (-(e1 * a + e2 * b + e3 * c), e0 * a + e2 * c - e3 * b,
              e0 * b + e3 * a - e1 * c, e0 * c + e1 * b - e2 * a)
        tM = (-(e1 * A + e2 * B + e3 * C), e0 * A + e3 * B - e2 * C,
              e0 * B + e1 * C - e3 * A, e0 * C + e2 * A - e1 * B)
        row = tuple(4 * w * (x - y) for x, y in zip(em, tM))
        rm = tuple(rot[i][0] * a + rot[i][1] * b + rot[i][2] * c
                   for i in range(3))
        const = (a * a + b * b + c * c) + (A * A + B * B + C * C) - leg.r2 * w * w
        out.append((row, const * n - 2 * (A * rm[0] + B * rm[1] + C * rm[2])))
    return out


def sphere_condition(pose: StudyPose, leg: SphereConstraint, weight=1):
    """N*(|R m + t - M|^2 - r2) with all denominators cleared.

    With weight w != 1 the leg data must already be pre-scaled by w (M and m
    replaced by w*M, w*m); the result is then w^2 times the unscaled value,
    which leaves every coefficient polynomial.
    """
    [(row, c0)] = sphere_linear(pose.e, [leg], [weight])
    f = pose.f
    fsq = sum(fk * fk for fk in f)
    return 4 * weight * weight * fsq + sum(r * fk for r, fk in zip(row, f)) + c0


@dataclass(frozen=True)
class CanonicalDesign(BaseQuantities):
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

    @property
    def AB(self) -> tuple:
        """(A5 - A4 + 1, B4 - B5): the A and B of T's epsilons and of F1."""
        return self.A5 - self.A4 + 1, self.B4 - self.B5

    def legs(self):
        """Legs 1,2,4,5 plain and leg 3 pre-scaled, as (dict, weight3)."""
        A4, B4, A5, B5 = self.A4, self.B4, self.A5, self.B5
        mu1, mu2, mu3 = self.mu1, self.mu2, self.mu3
        r = self.radii
        w3 = (B4 - B5) * self.U2
        legs = {
            1: SphereConstraint((0, 0, 0),
                                (mu1 * A4 + mu2 * B4, mu3 * B4, 0), r[0]),
            2: SphereConstraint((1, 0, 0),
                                (mu1 * A5 + mu2 * B5, mu3 * B5, 0), r[1]),
            3: SphereConstraint((self.V * self.U2, 0, 0),
                                (B4 * (A5 * mu1 + B5 * mu2) * (B4 - B5),
                                 B4 * B5 * mu3 * (B4 - B5), 0), r[2]),
            4: SphereConstraint((A4, B4, 0), (0, 0, 0), r[3]),
            5: SphereConstraint((A5, B5, 0), (mu1, 0, 0), r[4]),
        }
        return legs, w3


def N_poly() -> MPoly:
    return sum(GENS[v] * GENS[v] for v in E_VARS)


def leg_split(design: CanonicalDesign) -> dict:
    """Delta_2..Delta_5 as {i: (f-row, constant)}, from one sphere_linear
    pass over the five legs at the symbolic pose.

    Delta_i = s*Q_1 - Q_i with s = w3^2 for the pre-scaled leg 3 and 1
    otherwise, so the 4 s |f|^2 terms cancel and Delta_i is affine-linear in
    f by construction: row.f + constant.
    """
    legs, w3 = design.legs()
    (row1, c1), *rest = sphere_linear(StudyPose.symbolic().e,
                                      [legs[k] for k in range(1, 6)],
                                      (1, 1, w3, 1, 1))
    s = w3 * w3
    scaled = (tuple(s * x for x in row1), s * c1)
    split = {}
    for i, (row, c) in zip((2, 3, 4, 5), rest):
        r1, k1 = scaled if i == 3 else (row1, c1)
        split[i] = (tuple(x - y for x, y in zip(r1, row)), k1 - c)
    return split


def delta(design: CanonicalDesign, i: int) -> MPoly:
    """Numerator of Q_1 - Q_i; affine-linear in f0..f3."""
    if i not in (2, 3, 4, 5):
        raise ValueError("i must be in 2..5")
    row, c = leg_split(design)[i]
    return sum((x * GENS[fv] for x, fv in zip(row, F_VARS)), c)


# the ten monomials e_i e_j (i <= j) by their exponent tuples over E_VARS,
# in descending canonical order: e0e0, e0e1, ..., e0e3, e1e1, ..., e3e3
E_PAIRS = {tuple((k == i) + (k == j) for k in range(4)): (i, j)
           for i in range(4) for j in range(i, 4)}


def _e_table(p: MPoly):
    """The ten e_i e_j coefficients of p as {(i, j): MPoly} (i <= j, in
    E_PAIRS order) from one coefficients pass, or None if a term of p is
    not of degree 2 in e."""
    table = dict.fromkeys(E_PAIRS.values(), MPoly.zero(STUDY_VARS))
    for exps, c in p.coefficients(E_VARS).items():
        if exps not in E_PAIRS:
            return None
        table[E_PAIRS[exps]] = c
    return table


@dataclass(frozen=True)
class QuadricForm:
    """A quadratic form in e0..e3 over the parameter ring; coeffs holds its
    ten e_i e_j coefficients, taken once at construction."""

    poly: MPoly
    coeffs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        present = sorted({fv for exps in self.poly.coefficients(F_VARS)
                          for fv, k in zip(F_VARS, exps) if k})
        if present:
            raise NotFFree(f"{', '.join(present)} present in a supposedly "
                           "f-free quadric")
        table = _e_table(self.poly)
        if table is None:
            raise ValueError("not homogeneous of degree 2 in e")
        object.__setattr__(self, "coeffs", table)

    def coeff(self, i: int, j: int) -> MPoly:
        return self.coeffs[min(i, j), max(i, j)]

    def __call__(self, e_values):
        assignment = {f"e{k}": e_values[k] for k in range(4)}
        return self.poly.evaluate(assignment)


def f_row_weights(design: CanonicalDesign, split) -> tuple:
    """The K_e weights w on Delta_2..Delta_5, after checking that they
    annihilate the f-rows of split: sum_k w_k r_k = 0, each coordinate one
    exactpoly.dot sum (NotFFree otherwise).

    w = (B4*B5*V*(B4-B5)*U2, U3, B5*U1*U2, -B4*U1*U2); the U3 on the Delta_3
    slot and the cleared leg-3 slot make all f-terms cancel identically.
    """
    B4, B5 = design.B4, design.B5
    V, U1, U2, U3 = design.V, design.U1, design.U2, design.U3
    weights = (B4 * B5 * V * (B4 - B5) * U2, U3, B5 * U1 * U2, -B4 * U1 * U2)
    rows = [split[i][0] for i in (2, 3, 4, 5)]
    for k, fv in enumerate(F_VARS):
        if dot(weights, (row[k] for row in rows)):
            raise NotFFree(f"{fv} survives the K_e combination")
    return weights


def compute_Ke(design: CanonicalDesign, *, split=None,
               weights=None) -> QuadricForm:
    """The f-free quadric: the combination of the leg differences by the
    f_row_weights, whose f-rows are checked to cancel before K_e is taken
    from the constants.  split is the design's leg_split and weights its
    f_row_weights when the caller has them.
    """
    if split is None:
        split = leg_split(design)
    if weights is None:
        weights = f_row_weights(design, split)
    return QuadricForm(dot(weights, (split[i][1] for i in (2, 3, 4, 5))))


def e0e3_ratio(ke: QuadricForm, design: CanonicalDesign):
    """coeff(e0 e3) divided by B4*B5*U1*U2; parameter independent."""
    ratio = ke.coeff(0, 3).exact_div(
        design.B4 * design.B5 * design.U1 * design.U2)
    return ratio.scalar() if ratio.degree() <= 0 else ratio


# ------------------------------------------------------------------ T quadric

def _normalize_quadric(p: MPoly) -> MPoly:
    """Strip the gcd of the e-coefficients, then scale so the first nonzero
    one (canonical monomial order, the largest exponent tuple) has leading
    coefficient 1."""
    coeffs = p.coefficients(E_VARS)
    if not coeffs:
        return p
    # the leading zero lets a lone nonzero coefficient be its own gcd
    g = gcd(MPoly.zero(p.vars),
            *(coeffs[k] for k in sorted(coeffs, reverse=True)))
    # g is monic, so dividing by it keeps each leading coefficient
    return p.exact_div(g) * (1 / coeffs[max(coeffs)].leading_coefficient())


@dataclass(frozen=True)
class RankDropResult:
    T: QuadricForm
    epsilons: dict


def f_coefficient_matrix(design: CanonicalDesign, *, split=None) -> tuple:
    """The f-coefficients of S (e0..e3) and of Delta_2..Delta_5, as rows."""
    if split is None:
        split = leg_split(design)
    return ((tuple(GENS[v] for v in E_VARS),)
            + tuple(split[i][0] for i in (2, 3, 4, 5)))


def rank_drop_T(design: CanonicalDesign, *, split=None,
                weights=None) -> RankDropResult:
    """T from one 4x4 minor of the f-coefficient matrix of (S, Delta_2..5).

    The f-rows r_2..r_5 satisfy sum_k w_k r_k = 0 for the f_row_weights w,
    which check it.  So the minor without the S row vanishes, and if M_l is
    the minor without Delta_(l+2), then w_0 M_l = (-1)^l w_l M_0 by
    multilinearity: with every weight nonzero, each minor is a nonzero
    multiple of M_1, the cheapest one (leg 3's pre-scaled row is the
    largest).  M_1 over N is an e-quadric proportional to
    epsilon_quadric(epsilons), which _normalize_quadric then turns into T.
    The closed form's coefficients are the epsilons themselves, on the
    EPS_AT slots and zero elsewhere.  No gcd is taken of the minor.  split
    is the design's leg_split and weights its f_row_weights when the
    caller has them.
    """
    if split is None:
        split = leg_split(design)
    if weights is None:
        weights = f_row_weights(design, split)
    for k, w in enumerate(weights):
        if not w:
            raise InvariantViolation(
                f"K_e weight w{k} vanishes, so the other minors need not "
                "be multiples of the one computed")
    eps = epsilons(design)
    want = [eps[EPS_AT[pair]] if pair in EPS_AT else 0
            for pair in E_PAIRS.values()]
    mat = f_coefficient_matrix(design, split=split)
    try:
        q = det([mat[r] for r in (0, 1, 3, 4)]).exact_div(N_poly())
    except NotDivisible as exc:
        raise InvariantViolation("minor is not a multiple of N") from exc
    # a term of q off the ten e_i e_j keys makes q no e-quadric
    table = _e_table(q)
    if table is None or not proportional(list(table.values()), want):
        raise InvariantViolation(
            "minor-derived T differs from its closed form")
    t = _normalize_quadric(epsilon_quadric(eps))
    return RankDropResult(QuadricForm(t), eps)


def epsilons(design: CanonicalDesign) -> dict:
    """The closed-form coefficients of T on e0e1, e0e2, e2e3 and e1e3."""
    A, B = design.AB
    mu1, mu2, mu3 = design.mu1, design.mu2, design.mu3
    return {
        "eps01": mu3 * (1 + mu1) * B,
        "eps02": mu1 * A * (mu3 + 1) - mu2 * B,
        "eps23": mu3 * (1 - mu1) * B,
        "eps13": mu1 * A * (mu3 - 1) + mu2 * B,
    }


# the epsilon on each e_i e_j slot of T; T has no other monomials
EPS_AT = {(0, 1): "eps01", (0, 2): "eps02", (1, 3): "eps13", (2, 3): "eps23"}


def epsilon_quadric(eps: dict) -> MPoly:
    return sum(eps[name] * GENS[f"e{i}"] * GENS[f"e{j}"]
               for (i, j), name in EPS_AT.items())


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


def f_matrix_at(design: CanonicalDesign, e_values) -> list:
    """The 5x4 f-coefficient matrix evaluated at numeric e."""
    assignment = {E_VARS[k]: e_values[k] for k in range(4)}
    mat = f_coefficient_matrix(design)
    return [[entry.evaluate(assignment).scalar() for entry in row]
            for row in mat]


# ------------------------------------------------------------------ F1 and F2

def f1_f2(design: CanonicalDesign):
    """The two printed factors, quadratic in (e1, e2)."""
    A, B = design.AB
    mu1, mu2, mu3 = design.mu1, design.mu2, design.mu3
    g = GENS
    e1, e2 = g["e1"], g["e2"]
    f1 = ((B * B * mu2 - A * B * (mu1 + mu3)) * (e2 * e2 - e1 * e1)
          + (2 * A * A * mu1 - 2 * B * B * mu3 - 2 * A * B * mu2) * e1 * e2)
    f2 = ((1 + mu1) * (mu3 - 1) * e1 * e1
          + (1 + mu3) * (mu1 - 1) * e2 * e2
          - 2 * mu2 * e1 * e2)
    return f1, f2


def f1_degeneracy_certificate() -> MPoly:
    """Eliminating mu2 from the two F1 coefficients leaves a polynomial whose
    real zeros force A = B = 0; returned for inspection.  The coefficients
    are F1's e2^2 and e1*e2 coefficients, read off f1_f2."""
    c = f1_f2(CanonicalDesign.symbolic())[0].coefficients(("e1", "e2"))
    return resultant(c[(0, 2)], c[(1, 1)], "mu2")


# ------------------------------------------------------------- tangency ansatz

@dataclass(frozen=True)
class BranchReport:
    name: str
    forced: dict
    obstructions: dict


@dataclass(frozen=True)
class AnsatzReport:
    branch_a: BranchReport
    branch_b: BranchReport

    def forces_all_zero(self) -> bool:
        return (all(v == 0 for v in self.branch_a.forced.values())
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
    """The rational sqrt of a constant square (0 for the zero poly), else
    None."""
    return _rational_sqrt(p.scalar()) if p.degree() <= 0 else None


def _ansatz_branch(ke: QuadricForm, active, partner) -> BranchReport:
    """One branch of the tangency ansatz: nu_k = 0 for k in partner.

    With (a1, a2) = active and (p1, p2) = partner, the e_k^2 coefficients
    force nu = -q_p1p1, nu_a1^2 = q_p1p1 - q_a1a1, nu_a2^2 = q_p2p2 - q_a2a2
    and q_p1p1 = q_p2p2; every off-diagonal coefficient but q_a1a2 must
    vanish, and q_a1a2 = -2 nu_a1 nu_a2.
    """
    q = ke.coeffs
    (a1, a2), (p1, p2) = active, partner
    name = f"nu{p1}=nu{p2}=0"
    forced, obstructions = {}, {}
    squares = {a1: q[(p1, p1)] - q[(a1, a1)], a2: q[(p2, p2)] - q[(a2, a2)]}
    for k, sq in squares.items():
        v = _square_value(sq)
        if v is not None:
            forced[f"nu{k}"] = v
        else:
            obstructions[f"nu{k}_square"] = sq
    gap = q[(p1, p1)] - q[(p2, p2)]
    if not gap.is_zero():
        obstructions["diagonal_gap"] = gap
    for (i, j), c in q.items():
        if i != j and (i, j) != (a1, a2) and not c.is_zero():
            obstructions[f"q{i}{j}"] = c
    cross = q[(a1, a2)]
    resid = cross * cross - 4 * squares[a1] * squares[a2]
    if not resid.is_zero():
        obstructions[f"q{a1}{a2}_square"] = resid
    if obstructions:
        return BranchReport(name, forced, obstructions)
    nu = {p1: Fraction(0), p2: Fraction(0),
          a1: forced[f"nu{a1}"], a2: forced[f"nu{a2}"]}
    # fix signs so the cross equation holds: q_a1a2 = -2 nu_a1 nu_a2
    if not (cross + 2 * nu[a1] * nu[a2]).is_zero():
        nu[a2] = -nu[a2]
    witness = {"nu": -q[(p1, p1)]}
    witness.update((f"nu{k}", nu[k]) for k in range(4))
    lin = sum(nu[k] * GENS[f"e{k}"] for k in active)
    if not (ke.poly + witness["nu"] * N_poly() + lin * lin).is_zero():
        raise InvariantViolation(
            f"ansatz witness of {name} leaves K_e + nu*N + lin^2 nonzero")
    raise AnsatzSolvable(name, witness)


def tangency_ansatz(ke: QuadricForm) -> AnsatzReport:
    """Decide whether K_e + nu*N + (nu0 e0 + ... + nu3 e3)^2 can vanish.

    Follows the two branches nu0 = nu3 = 0 and nu1 = nu2 = 0.  Identically
    zero coefficient differences force the corresponding nu to zero; surviving
    requirements are reported as obstructions.  A branch whose requirements
    all hold identically yields a verified witness and raises AnsatzSolvable;
    InvariantViolation if the witness fails its own check.
    """
    return AnsatzReport(_ansatz_branch(ke, (1, 2), (0, 3)),
                        _ansatz_branch(ke, (0, 3), (1, 2)))


# -------------------------------------------------------------- resultant chain

@dataclass(frozen=True)
class ChainResult:
    res_e0: dict
    res_e3: dict
    gcd: MPoly
    factor_match: bool
    expected: MPoly
    f1: MPoly
    f2: MPoly


def _res_or_zero(p: MPoly, qp: MPoly, var: str) -> MPoly:
    if p.is_zero() or qp.is_zero():
        return MPoly.zero(STUDY_VARS)
    return resultant(p, qp, var)


def _factor_match(h: MPoly, e: MPoly) -> bool:
    """Whether a nonzero cofactor gcd h = gcd(s_i / E) leaves the chain gcd
    E * h equal to E = F1 * F2 up to a unit and extra powers of factors of
    E: every factor of h that involves e1 or e2 divides E (for the square
    gcd(S_i) the same with E^2).  That is, h's primitive part over (e1, e2)
    divides E^k, k its degree in them; its content divides each of its
    coefficients c, so this holds iff h divides c * E^k.
    """
    coeffs = h.coefficients(("e1", "e2"))
    c = min(coeffs.values(), key=lambda a: a.term_count)
    try:
        (c * e ** max(map(sum, coeffs))).exact_div(h)
    except NotDivisible:
        return False
    return True


def resultant_chain(ke: QuadricForm, t: QuadricForm, design: CanonicalDesign) -> ChainResult:
    """Eliminate e0 pairwise among {K_e, T, N}, then e3 in e3^2, then gcd.

    For generic parameter values the gcd is E = F1 * F2 up to a unit and
    extra powers of factors of E.  It is computed, never assumed: when E
    divides all three s_i it is E * h made monic, for h the gcd of the
    cofactors s_i / E (e-degree 4 less than the s_i), as gcd(E * C_i) =
    E * gcd(C_i) up to a unit, and the match is _factor_match(h, E).
    Otherwise (a wrong F2, or E = 0 at mu = identity) it is gcd(s_i), and
    the match holds iff it and E are both zero.
    """
    res_e0, res_e3 = _eliminate(ke.poly, t.poly, N_poly())
    f1, f2 = f1_f2(design)
    expected = f1 * f2
    e, parts = 1, list(res_e3.values())
    try:
        e, parts = expected, [s.exact_div(expected) for s in parts]
    except (NotDivisible, ZeroDivisionError):  # E = 0 at mu = identity
        pass  # e and parts stay 1 and the s_i
    # smallest operands first: the gcd of the two smaller ones bounds the
    # largest one's part in the remainder sequence, and skips it when 1
    h = gcd(*sorted(parts, key=lambda p: p.term_count))
    g = (e * h).monic()
    if g.is_zero() or e == 1:
        match = g.is_zero() and expected.is_zero()
    else:
        match = _factor_match(h, e)
    return ChainResult(res_e0, res_e3, g, match, expected, f1, f2)


def _eliminate(kp: MPoly, tp: MPoly, n: MPoly):
    """Pairwise resultants of K_e, T and N in e0, then the s_i in e3^2:
    the chain's one deflate, by e3^2 -> e3, as each R is even in e3."""
    r_ke = _res_or_zero(tp, n, "e0")
    r_t = _res_or_zero(kp, n, "e0")
    r_n = _res_or_zero(kp, tp, "e0")
    y_ke, y_t, y_n = (deflate(r, "e3", 2) for r in (r_ke, r_t, r_n))
    return ({"R_Ke": r_ke, "R_T": r_t, "R_N": r_n},
            {"s_TN": _res_or_zero(y_t, y_n, "e3"),
             "s_KeN": _res_or_zero(y_ke, y_n, "e3"),
             "s_KeT": _res_or_zero(y_ke, y_t, "e3")})


def chain_vanishes_at(design: CanonicalDesign, e1, e2) -> bool:
    """Whether all three chain polynomials vanish at numeric (e1, e2)."""
    assignment = {"e1": e1, "e2": e2}
    split = leg_split(design)
    weights = f_row_weights(design, split)
    ke = compute_Ke(design, split=split, weights=weights)
    td = rank_drop_T(design, split=split, weights=weights)
    _, res_e3 = _eliminate(ke.poly.evaluate(assignment),
                           td.T.poly.evaluate(assignment),
                           N_poly().evaluate(assignment))
    return all(v.is_zero() for v in res_e3.values())


# ------------------------------------------------------------------- pipeline

def _branch_json(rep: BranchReport) -> dict:
    return {
        "forced": {k: str(v) for k, v in rep.forced.items()},
        "obstructions": sorted(rep.obstructions),
        # a solvable branch raises, so every report printed is unsolvable
        "solvable": False,
    }


def pipeline_report(design: CanonicalDesign) -> dict:
    """The elimination pipeline summary; design must have numeric mu.

    The chain's gcd vanishes identically iff the design moves; F2's closed
    form must agree, else InvariantViolation.
    """
    split = leg_split(design)
    weights = f_row_weights(design, split)
    ke = compute_Ke(design, split=split, weights=weights)
    ratio = e0e3_ratio(ke, design)
    td = rank_drop_T(design, split=split, weights=weights)
    chain = resultant_chain(ke, td.T, design)
    f1, f2 = chain.f1, chain.f2
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
    moves = chain.gcd.is_zero()
    if moves != f2.is_zero():
        raise InvariantViolation(
            "the chain gcd and F2's closed form disagree on vanishing")
    conclusion = ("two-parameter self-motion (platform map is the identity)"
                  if moves else "no two-parameter self-motion")
    return {
        "conclusion": conclusion,
        "ansatz": ansatz,
        "Ke": {
            "terms": ke.poly.term_count,
            "e0e3_ratio": str(ratio),
        },
        "T": {
            "epsilons": {k: str(v) for k, v in td.epsilons.items()},
        },
        "F1F2": {
            "F1": f1.to_str(),
            "F2": f2.to_str(),
            "F2_identically_zero": f2.is_zero(),
        },
        "chain": {
            "gcd": (chain.gcd * chain.gcd).to_str(),
            "factors": {
                "expected": "F1^2*F2^2",
                "match": chain.factor_match,
            },
        },
    }
