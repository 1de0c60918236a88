"""Acceptance checks for the toolkit's headline results.

One test per claim, on the worked configuration: base quadrilateral
parameters (0, 1, 2, 3), identity platform correspondence, squared leg
radii (1, 18, 18/25, 1, 18), sixth vertex pair M6 = (2/5, 3/5),
m6 = (-1, 0).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from duporcq.exactpoly import ZeroDegree
from duporcq.geometry import (
    AffineMap2,
    BaseParams,
    HexapodDesign,
    PlanarPoint,
    collinear,
    cross,
    duporcq_hexapod,
    integral_points,
    reconstruct_candidates,
)
from duporcq.moebius import (
    AllZero,
    ConicDirection,
    candidate_report,
    del_pezzo,
    extended_del_pezzo,
    line_membership,
    picture,
    special_directions,
)
from duporcq.selfmotion import (
    TANGENT_DIRECTIONS,
    TANGENT_STEP,
    RankTooHigh,
    arch_singularity_check,
    build_motion_design,
    circle_translations,
    float_legs,
    pose_from_translation,
    residuals_at,
    sample_pose,
    similarity_bond,
    sixth_radius,
    translational_submotion,
    verify_selfmotion,
)
from duporcq.study import (
    GENS,
    CanonicalDesign,
    QuadricForm,
    chain_vanishes_at,
    compute_Ke,
    e0e3_ratio,
    exact_rank,
    f1_degeneracy_certificate,
    f1_f2,
    f_matrix_at,
    rank_drop_T,
    tangency_ansatz,
)

WORKED = BaseParams(0, 1, 2, 3)
WORKED_RADII = (1, 18, Fraction(18, 25), 1, 18)


def random_fraction(rng, lo=-5, hi=5, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_base(rng) -> BaseParams:
    while True:
        try:
            return BaseParams(random_fraction(rng), random_fraction(rng),
                              random_fraction(rng), random_fraction(rng))
        except ValueError:
            continue


def random_mu(rng):
    while True:
        mu1 = random_fraction(rng, -4, 4, 4)
        mu3 = random_fraction(rng, -4, 4, 4)
        if mu1 != 0 and mu3 != 0:
            return (mu1, random_fraction(rng, -4, 4, 4), mu3)


@pytest.fixture(scope="module")
def motion_design():
    return build_motion_design(WORKED, 1, 18)


@pytest.fixture(scope="module")
def motion_report(motion_design):
    return verify_selfmotion(motion_design, count=100)


@pytest.fixture(scope="module")
def worked_hexapod(motion_design):
    return HexapodDesign(motion_design,
                         PlanarPoint(Fraction(2, 5), Fraction(3, 5)),
                         PlanarPoint(-1, 0))


def test_01_self_motion_exists_and_is_two_dimensional(motion_design,
                                                      motion_report):
    assert motion_design.radii2 == WORKED_RADII
    assert len(motion_report.samples) == 100
    assert all(s.e[0] == 0.0 for s in motion_report.samples)
    assert motion_report.max_residual <= 1e-9
    # two tangents at the half-turn, as difference quotients
    p0, p1, p2 = (np.array(s.e + s.f) for s in
                  sample_pose(float_legs(motion_design), TANGENT_DIRECTIONS))
    t1, t2 = (p1 - p0) / TANGENT_STEP, (p2 - p0) / TANGENT_STEP
    assert np.linalg.matrix_rank(np.vstack([t1, t2]), tol=1e-6) == 2


def test_02_line_symmetry_f0_vanishes(motion_report):
    assert motion_report.max_f0 <= 1e-12


def test_03_hexapod_extension(motion_design, worked_hexapod):
    assert duporcq_hexapod(motion_design).M6 == worked_hexapod.M6
    assert duporcq_hexapod(motion_design).m6 == worked_hexapod.m6
    assert sixth_radius(worked_hexapod) == Fraction(18, 25)
    assert float(sixth_radius(worked_hexapod)) == 0.72
    report = verify_selfmotion(worked_hexapod, count=100)
    assert len(report.samples) == 100
    assert report.max_residual <= 1e-9
    assert arch_singularity_check(worked_hexapod, seed=0, samples=100) <= 1e-9


# expected coincidence line of the worked base's picture at each of the six
# special directions, keyed by the direction name; in figure order these are
# the metallic, blue, yellow, pink, green, and orange directions
PICTURE_LINES = {
    "d123": ((4, 5), True),
    "d345": ((1, 2), True),
    "d15": ((1, 5), False),
    "d14": ((1, 4), False),
    "d25": ((2, 5), False),
    "d24": ((2, 4), False),
}


def test_04_picture_line_assignments_exact():
    pts = WORKED.points
    for name, u in special_directions(pts):
        expected_pair, extended = PICTURE_LINES[name]
        c = ConicDirection.from_direction(u)
        if extended:
            with pytest.raises(AllZero):
                del_pezzo(pts, c)
            p = extended_del_pezzo(pts, u)
        else:
            p = del_pezzo(pts, c)
        assert line_membership(p) == {frozenset(expected_pair)}


def test_05_reconstruction_filter_exact():
    candidates = reconstruct_candidates(WORKED)
    report = candidate_report(WORKED, candidates, seed=0, samples=20)
    accepted = [tag for tag in ("1a", "1b", "2a", "2bi", "2bii", "3")
                if report[tag] is None]
    assert accepted == ["1a", "2bi", "3"]
    slots = {c.tag: c.platform for c in candidates}
    directions = dict(special_directions(WORKED.points))

    def along(points, name):
        return picture(integral_points(points),
                       ConicDirection.from_direction(directions[name]))

    # slots 1b and 2a carry the swapped carrier pattern: along the first
    # triple's direction the base picture is on L45, theirs on L12; slot
    # 2bii fails the orange direction: picture on L15 instead of L24
    for tag, name, base_line, cand_line in (("1b", "d123", {4, 5}, {1, 2}),
                                            ("2a", "d123", {4, 5}, {1, 2}),
                                            ("2bii", "d24", {2, 4}, {1, 5})):
        base_p, cand_p = along(WORKED.points, name), along(slots[tag], name)
        assert line_membership(base_p) == {frozenset(base_line)}
        assert line_membership(cand_p) == {frozenset(cand_line)}
        assert not base_p.proportional(cand_p)


def test_06_Ke_f_free_quadratic_with_constant_ratio():
    rng = random.Random(101)
    ratios = []
    for _ in range(10):
        design = CanonicalDesign.from_params(random_base(rng))
        ke = compute_Ke(design)
        p = ke.poly
        assert all(p.degree_in(v) == 0 for v in ("f0", "f1", "f2", "f3"))
        assert all(p.degree_in(v) <= 2 for v in ("e0", "e1", "e2", "e3"))
        QuadricForm(p)      # homogeneity gate
        ratios.append(Fraction(e0e3_ratio(ke, design)))
    assert len(set(ratios)) == 1
    assert ratios[0] == -8


def test_07_rank_drop_iff_T_zero_with_exact_epsilons():
    rng = random.Random(103)
    design = CanonicalDesign.from_params(BaseParams(0, 1, 2, 3),
                                         mu=(2, Fraction(1, 2), 3))
    td = rank_drop_T(design)
    A = design.A5 - design.A4 + 1
    B = design.B4 - design.B5
    mu1, mu2, mu3 = design.mu1, design.mu2, design.mu3
    eps = {
        "eps01": mu3 * (1 + mu1) * B,
        "eps02": mu1 * A * (mu3 + 1) - mu2 * B,
        "eps23": mu3 * (1 - mu1) * B,
        "eps13": mu1 * A * (mu3 - 1) + mu2 * B,
    }
    assert td.epsilons == eps

    def eps_at(e):
        return (eps["eps01"] * e[0] * e[1] + eps["eps02"] * e[0] * e[2]
                + eps["eps13"] * e[1] * e[3] + eps["eps23"] * e[2] * e[3])

    # T, built from the minors of the coefficient matrix, is proportional
    # to the closed-form quadric: cross-check values at sample points
    e_ref = (Fraction(1), Fraction(1), Fraction(2), Fraction(3))
    t_ref = td.T(e_ref)
    assert eps_at(e_ref) != 0 and not t_ref.is_zero()
    for _ in range(10):
        e = tuple(random_fraction(rng) for _ in range(4))
        assert td.T(e) * eps_at(e_ref) == t_ref * eps_at(e)
    drops = 0
    for k in range(100):
        if k % 2 == 0:
            e = tuple(random_fraction(rng) for _ in range(4))
        else:
            e1, e2, e3 = (random_fraction(rng) for _ in range(3))
            den = eps["eps01"] * e1 + eps["eps02"] * e2
            if den == 0:
                continue
            e = (-e3 * (eps["eps13"] * e1 + eps["eps23"] * e2) / den,
                 e1, e2, e3)
        if all(x == 0 for x in e):
            continue
        rank = exact_rank(f_matrix_at(design, e))
        if td.T(e).is_zero():
            assert rank < 4
            drops += 1
        else:
            assert rank == 4
    assert drops >= 30


def test_08_degeneracy_forms():
    # F2 vanishes at the identity normalization
    identity = CanonicalDesign.from_params(WORKED)
    _, f2 = f1_f2(identity)
    assert f2.is_zero()
    # and only there: its coefficients factor so that vanishing forces
    # mu2 = 0 and (mu1, mu3) in {(1, 1), (-1, -1)}; the normalization
    # mu1 > 0 rules out the mirrored pair
    sym = CanonicalDesign.symbolic()
    _, f2s = f1_f2(sym)
    mu1, mu2, mu3 = GENS["mu1"], GENS["mu2"], GENS["mu3"]
    one = mu1 ** 0
    c2 = f2s.coefficients(("e1", "e2"))
    assert c2.keys() == {(2, 0), (0, 2), (1, 1)}
    assert c2[2, 0] == (one + mu1) * (mu3 - one)
    assert c2[0, 2] == (one + mu3) * (mu1 - one)
    assert c2[1, 1] == -2 * mu2
    for m1, m3 in ((1, 1), (-1, -1)):
        spec = f2s.evaluate({"mu1": m1, "mu2": 0, "mu3": m3})
        assert spec.is_zero()
    with pytest.raises(ValueError):
        AffineMap2(-1, 0, -1)
    with pytest.raises(ValueError):
        AffineMap2(1, 0, 0)
    # F1 identically zero needs A = B = 0.  Writing F1 = ca*(e2^2-e1^2)
    # + cb*e1*e2, the mu2-free combination B^2*cb + 2*A*B*ca equals
    # -2*mu3*B^2*(A^2+B^2): ca = cb = 0 with mu3 != 0 forces B = 0, and
    # then cb collapses to 2*A^2*mu1 with mu1 > 0, forcing A = 0.
    f1s, _ = f1_f2(sym)
    g = GENS
    A = g["A5"] - g["A4"] + 1
    B = g["B4"] - g["B5"]
    c1 = f1s.coefficients(("e1", "e2"))
    assert c1.keys() == {(2, 0), (0, 2), (1, 1)}
    ca, cb = c1[0, 2], c1[1, 1]
    assert c1[2, 0] == -ca
    combo = B * B * cb + 2 * A * B * ca
    assert combo == -2 * g["mu3"] * B * B * (A * A + B * B)
    a_free = A.evaluate({"B4": 1, "B5": 1})
    assert cb.evaluate({"B4": 1, "B5": 1}) == 2 * a_free * a_free * g["mu1"]
    assert ca.evaluate({"B4": 1, "B5": 1}).is_zero()
    # the eliminant is also what the packaged certificate reports
    assert f1_degeneracy_certificate() == -2 * g["mu3"] * B * B * (A * A + B * B)
    # chain gcd vanishing locus agrees with F1*F2 = 0 at 50 specializations
    rng = random.Random(107)
    on = off = 0
    while on < 25 or off < 25:
        base = random_base(rng)
        radii = tuple(random_fraction(rng, 1, 6, 4) for _ in range(5))
        e1, e2 = random_fraction(rng), random_fraction(rng)
        if e1 == 0 or e2 == 0:
            continue
        m = random_mu(rng)
        mu2_on = ((1 + m[0]) * (m[2] - 1) * e1 ** 2
                  + (1 + m[2]) * (m[0] - 1) * e2 ** 2) / (2 * e1 * e2)
        try:
            if on < 25:
                design = CanonicalDesign.from_params(
                    base, mu=(m[0], mu2_on, m[2]), radii=radii)
                assert chain_vanishes_at(design, e1, e2)
                on += 1
            else:
                design = CanonicalDesign.from_params(
                    base, mu=(m[0], mu2_on + 1, m[2]), radii=radii)
                f1, f2 = f1_f2(design)
                a = {"e1": e1, "e2": e2}
                if f1.evaluate(a).is_zero() or f2.evaluate(a).is_zero():
                    continue
                assert not chain_vanishes_at(design, e1, e2)
                off += 1
        except ZeroDegree:
            continue


def test_09_tangency_ansatz_forces_zero_symbolically():
    ke = compute_Ke(CanonicalDesign.symbolic())
    report = tangency_ansatz(ke)
    assert report.branch_a.forced == {"nu1": 0, "nu2": 0}
    assert report.branch_b.forced == {"nu0": 0, "nu3": 0}
    assert report.forces_all_zero()


def test_10_similarity_bond_exact(motion_design):
    bond = similarity_bond(motion_design)
    m3, M3 = motion_design.platform[2], motion_design.base[2]
    assert collinear(m3, bond.m3_prime, bond.m3_second)
    assert collinear(M3, bond.M3_prime, bond.M3_second)
    g_dir = bond.m3_second - bond.m3_prime
    G_dir = bond.M3_second - bond.M3_prime
    assert cross(g_dir, G_dir) == 0
    assert bond.direction == (3, 2, 0)
    assert cross(g_dir, PlanarPoint(3, 2)) == 0


def test_11_translational_submotion(motion_design):
    centers = [M + m for M, m in zip(motion_design.base,
                                     motion_design.platform)]
    diffs = [c - centers[0] for c in centers[1:]]
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            assert cross(diffs[i], diffs[j]) == 0
    circle = translational_submotion(motion_design)
    n = np.array([float(v) for v in circle.normal])
    offset = float(circle.offset)
    legs = float_legs(motion_design)
    for t in circle_translations(circle, 100):
        assert abs(n @ t - offset) <= 1e-12
        e, f = pose_from_translation(t)
        res = residuals_at(legs, np.array(e), np.array(f))
        assert np.max(np.abs(res)) <= 1e-9
    # the rank condition is not vacuous: a generic platform violates it
    bad_platform = list(motion_design.platform)
    bad_platform[1] = PlanarPoint(2, 4)
    from duporcq.geometry import PentapodDesign
    with pytest.raises(RankTooHigh):
        translational_submotion(PentapodDesign(
            motion_design.base, tuple(bad_platform), motion_design.radii2))
