"""Two-parameter self-motions: radii relation, pose sampling, the
translational circle, the similarity bond, and the hexapod extension."""

import csv
import json
import math
import random
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from duporcq import cli, selfmotion
from duporcq.geometry import (
    AffineMap2,
    BaseParams,
    HexapodDesign,
    InvariantViolation,
    PentapodDesign,
    PlanarPoint,
    build_platform,
    collinear,
    design_to_dict,
    duporcq_hexapod,
    kappa2_twin,
    swap_4_5,
)
from duporcq.selfmotion import (
    TANGENT_DIRECTIONS,
    TANGENT_STEP,
    ConstructionDegenerate,
    InconsistentSystem,
    MotionSample,
    NoRealSolution,
    RankTooHigh,
    Unrealizable,
    arch_singularity_check,
    build_G,
    build_motion_design,
    circle_translations,
    derive_G,
    design_legs,
    fibonacci_directions,
    float_legs,
    g_coefficients,
    motion_radii,
    pose_from_translation,
    residuals_at,
    sample_pose,
    similarity_bond,
    sixth_radius,
    translational_submotion,
    verify_selfmotion,
)
from duporcq.study import (
    F_VARS,
    GENS,
    RADII_SYMBOLS,
    CanonicalDesign,
    SphereConstraint,
    StudyPose,
    compute_Ke,
    leg_split,
    pipeline_report,
    sphere_condition,
    sphere_linear,
)

WORKED = BaseParams(0, 1, 2, 3)


def worked_design() -> PentapodDesign:
    return build_motion_design(WORKED, 1, 18)


def worked_hexapod() -> HexapodDesign:
    return HexapodDesign(worked_design(),
                         PlanarPoint(Fraction(2, 5), Fraction(3, 5)),
                         PlanarPoint(-1, 0))


def random_fraction(rng, lo=-5, hi=5, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_base(rng) -> BaseParams:
    while True:
        try:
            return BaseParams(random_fraction(rng), random_fraction(rng),
                              random_fraction(rng), random_fraction(rng))
        except ValueError:
            continue


# ------------------------------------------------------------- radii relation

def test_g_coefficients_worked():
    g = g_coefficients(derive_G(WORKED))
    assert g == (-312, 120, -60, 100, -240, 80)


def test_g3_closed_form_random_bases():
    # the r3sq coefficient factors as (B4-B5)^2 * U2^2 * U3
    rng = random.Random(7)
    for _ in range(4):
        p = random_base(rng)
        g = g_coefficients(derive_G(p))
        assert g[3] == (p.B4 - p.B5) ** 2 * p.U2 ** 2 * p.U3


def _ring_design() -> CanonicalDesign:
    """The canonical design over Q[A4, B4, A5, B5, r1sq..r5sq], identity
    mu."""
    g = GENS
    return CanonicalDesign(g["A4"], g["B4"], g["A5"], g["B5"], 1, 0, 1,
                           tuple(g[r] for r in RADII_SYMBOLS))


def _derive_G_at(params: BaseParams):
    """Oracle: G derived at one numeric base, from that base's own K_e."""
    g = GENS
    ke = compute_Ke(CanonicalDesign.from_params(params))
    e123 = g["e1"] * g["e1"] + g["e2"] * g["e2"] + g["e3"] * g["e3"]
    return ke.poly.evaluate({"e0": 0}).exact_div(e123)


def test_radii_relation_holds_over_the_base_ring():
    # the paper's radii relation as a polynomial identity in A4, B4, A5,
    # B5 and the squared radii: K_e(e0 = 0) = (e1^2 + e2^2 + e3^2) * G,
    # with G linear in the squared radii and its r3sq coefficient
    # (B4 - B5)^2 * U2^2 * U3
    g = GENS
    design = _ring_design()
    G = build_G()
    e123 = g["e1"] * g["e1"] + g["e2"] * g["e2"] + g["e3"] * g["e3"]
    assert compute_Ke(design).poly.evaluate({"e0": 0}) == e123 * G
    coeffs = G.coefficients(RADII_SYMBOLS)
    assert all(sum(k) <= 1 for k in coeffs)
    U2, U3 = design.U2, design.U3
    assert coeffs[(0, 0, 1, 0, 0)] == \
        (g["B4"] - g["B5"]) ** 2 * U2 ** 2 * U3


def test_derive_G_matches_the_per_base_derivation():
    # the ring G evaluated at a base equals G derived from that base's own
    # K_e, over seeded rational bases (non-integer entries among them)
    rng = random.Random(17)
    bases = [WORKED] + [random_base(rng) for _ in range(35)]
    assert sum(any(v.denominator > 1 for v in (p.A4, p.B4, p.A5, p.B5))
               for p in bases) >= 10
    for p in bases:
        assert derive_G(p) == _derive_G_at(p), p


def test_derive_G_e_free_quotient_is_typed(monkeypatch):
    # build_G makes the check; derive_G calls it once per process, so the
    # builder is called here directly
    g = GENS
    e123 = g["e1"] * g["e1"] + g["e2"] * g["e2"] + g["e3"] * g["e3"]
    monkeypatch.setattr("duporcq.selfmotion.compute_Ke",
                        lambda design: SimpleNamespace(poly=e123 * g["e1"]))
    with pytest.raises(InvariantViolation, match="e-free"):
        build_G()


def test_derive_G_builds_the_ring_G_once(monkeypatch):
    # the holder is filled on the first derive_G call and read after it
    monkeypatch.setattr(selfmotion, "_ring_G", None)
    builds = []
    real = selfmotion.build_G

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(selfmotion, "build_G", counting)
    derive_G(WORKED)
    assert selfmotion._ring_G is not None
    derive_G(BaseParams(Fraction(1, 3), -2, Fraction(5, 2), 7))
    assert len(builds) == 1


def test_motion_radii_zero_r3_coefficient_is_typed(monkeypatch):
    monkeypatch.setattr("duporcq.selfmotion.g_coefficients",
                        lambda gpoly: (1, 1, 1, 0, 1, 1))
    with pytest.raises(InvariantViolation, match="r3sq"):
        motion_radii(WORKED, 1, 18)


def test_motion_radii_worked():
    assert motion_radii(WORKED, 1, 18) == (1, 18, Fraction(18, 25), 1, 18)


def test_motion_radii_copies_first_pair():
    r1sq, r2sq, _, r4sq, r5sq = motion_radii(WORKED, Fraction(5, 2), 7)
    assert (r4sq, r5sq) == (r1sq, r2sq) == (Fraction(5, 2), 7)


def test_motion_radii_unrealizable():
    with pytest.raises(Unrealizable):
        motion_radii(WORKED, 1, 100)
    with pytest.raises(Unrealizable):
        motion_radii(WORKED, 0, 18)
    with pytest.raises(Unrealizable):
        motion_radii(WORKED, 1, -2)


def test_build_motion_design_worked():
    d = worked_design()
    assert [(p.x, p.y) for p in d.base] == [
        (0, 0), (1, 0), (-1, 0), (0, 1), (2, 3)]
    assert [(p.x, p.y) for p in d.platform] == [
        (0, 1), (2, 3), (Fraction(2, 5), Fraction(3, 5)), (0, 0), (1, 0)]
    assert d.radii2 == (1, 18, Fraction(18, 25), 1, 18)


# --------------------------------------------------------------- pose sampling

# rational unit-norm Euler parameters (Pythagorean quadruples)
UNIT_E = [
    (0, Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
    (0, Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
    (0, Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)),
    (0, Fraction(1, 9), Fraction(4, 9), Fraction(8, 9)),
    (0, Fraction(6, 11), Fraction(-6, 11), Fraction(7, 11)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
]


def _leg_rows(legs, e):
    """Rows L_i and constants c_i of the legs at a unit-norm e, split one
    leg at a time by study.sphere_linear: Q_i(f) = 4|f|^2 + L_i.f + c_i."""
    e = [float(v) for v in e]
    spheres = map(SphereConstraint, legs.M.tolist(), legs.m.tolist(),
                  legs.r2.tolist())
    rows, consts = zip(*(sphere_linear(e, leg) for leg in spheres))
    return np.array(rows), np.array(consts)


@pytest.mark.parametrize("e", UNIT_E)
def test_float_leg_rows_match_exact_sphere_condition(e):
    # the float rows and constants of the legs, which the grid sampler's
    # slices equal bitwise, are float() of the exact sphere condition's
    # f-coefficients
    hexapod = worked_hexapod()
    rows, consts = _leg_rows(float_legs(hexapod), e)
    pose = StudyPose(e, tuple(GENS[v] for v in F_VARS))
    zero_f = {v: 0 for v in F_VARS}
    zero = 0 * GENS["e0"]
    for i, (M, m, r2) in enumerate(zip(*design_legs(hexapod))):
        q = sphere_condition(pose, SphereConstraint((M.x, M.y, 0),
                                                    (m.x, m.y, 0), r2))
        coeffs = q.coefficients(F_VARS)
        for k in range(4):
            unit = tuple(int(j == k) for j in range(4))
            lin = coeffs.get(unit, zero).scalar()
            assert abs(rows[i][k] - float(lin)) <= 1e-12
            assert coeffs[tuple(2 * x for x in unit)] == 4
        assert abs(consts[i] - float(q.evaluate(zero_f).scalar())) <= 1e-12


# rational e, half of them off e0 = 0
SLICE_DIRECTIONS = [
    (0, 1, 2, 3),
    (0, Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)),
    (0, 0, 0, 1),
    (1, 2, -1, Fraction(1, 2)),
    (Fraction(3, 5), 0, Fraction(4, 5), 0),
    (2, Fraction(-3, 7), 5, 7),
]


@pytest.mark.parametrize("params, mu, radii", [
    (WORKED, (1, 0, 1), (1, 18, Fraction(18, 25), 1, 18)),
    ((Fraction(1, 3), -2, Fraction(5, 2), 7),
     (Fraction(3, 2), Fraction(1, 5), -2), (1, 2, 3, 4, 5)),
    ((Fraction(-2, 3), Fraction(5, 4), Fraction(7, 2), Fraction(-1, 6)),
     (Fraction(2, 9), Fraction(-5, 3), Fraction(4, 7)),
     (Fraction(3, 8), 7, Fraction(22, 9), Fraction(1, 2), 11)),
])
def test_exact_leg_split_matches_the_float_slice(params, mu, radii):
    # the two formulas for the leg differences: study.leg_split's exact
    # Delta_i from combined data scalars, and the float slice sample_pose
    # builds from sphere_linear on float_legs, row 1 - row i and constant
    # 1 - constant i, times w3^2 for the weighted leg 3
    base = params if isinstance(params, BaseParams) else BaseParams(*params)
    platform = build_platform(base, AffineMap2(*mu))
    legs = float_legs(PentapodDesign(base.points, platform, radii))
    design = CanonicalDesign.from_params(base, mu=mu, radii=radii)
    split = leg_split(design)
    w3sq = float(design.legs()[2].w ** 2)
    e = np.array([[float(v) for v in d] for d in SLICE_DIRECTIONS])
    rows, consts = sphere_linear(tuple(e.T[:, :, None]), legs.stacked)
    rows = np.stack(rows, axis=-1)
    for b, direction in enumerate(SLICE_DIRECTIONS):
        at = dict(zip(("e0", "e1", "e2", "e3"), direction))
        for i, row, c in zip((2, 3, 4, 5), split.rows, split.consts):
            want = np.array([float(x.evaluate(at).scalar()) for x in row]
                            + [float(c.evaluate(at).scalar())])
            got = np.append(rows[b, 0] - rows[b, i - 1],
                            consts[b, 0] - consts[b, i - 1])
            got *= w3sq if i == 3 else 1.0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_reference_pose_is_exact_zero():
    [s] = sample_pose(float_legs(worked_design()), [(0.0, 0.0, 1.0)])
    assert s.f == (0.0, 0.0, 0.0, 0.0)
    assert max(abs(r) for r in s.residuals) == 0.0


def test_sample_pose_on_symmetry_plane():
    # directions with e2 = 0 leave a rank-deficient three-row slice; the
    # full-system solve must still close every leg
    d = worked_design()
    t1 = math.pi / 10
    [s] = sample_pose(float_legs(d), [(math.sin(t1), 0.0, math.cos(t1))])
    assert max(abs(r) for r in s.residuals) <= 1e-12
    assert abs(s.f[0]) <= 1e-14


def test_sample_pose_rejects_zero_direction():
    with pytest.raises(ValueError):
        sample_pose(float_legs(worked_design()), [(0.0, 0.0, 0.0)])


def test_sample_pose_wrong_radii_inconsistent():
    d = worked_design()
    bad = PentapodDesign(d.base, d.platform, (1, 18, 1, 1, 18))
    [s] = sample_pose(float_legs(bad), [(0.3, 0.5, 0.9)])
    assert isinstance(s, InconsistentSystem)


def _legs(M, m, r2):
    return selfmotion.FloatLegs.of(M, m, r2)


def _four_legs_through_a_pose(seed):
    """FloatLegs of four legs with seeded generic planar anchors, their
    radii read off at a seeded pose on e0 = 0 with f0 = 0, and that pose;
    the slice of four legs has full rank 4."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=3)
    e = np.concatenate([[0.0], d / np.linalg.norm(d)])
    g = rng.normal(size=3)
    f = np.concatenate([[0.0], g - (g @ e[1:]) * e[1:]])
    M, m = (np.hstack([rng.normal(size=(4, 2)), np.zeros((4, 1))])
            for _ in range(2))
    r2 = residuals_at(_legs(M, m, np.zeros(4)), e, f)
    return _legs(M, m, r2), tuple(e[1:]), f


def test_sample_pose_full_rank_slice_is_a_point_fiber():
    # four legs leave no kernel: the fiber is the slice's one point, a pose
    # when it closes leg 1 and empty otherwise
    legs, d, f = _four_legs_through_a_pose(3)
    [s] = sample_pose(legs, [d])
    assert np.allclose(s.f, f, rtol=0, atol=1e-12)
    assert max(abs(r) for r in s.residuals) <= 1e-12
    longer = _legs(legs.M, legs.m, legs.r2 + [1.0, 0.0, 0.0, 0.0])
    [s] = sample_pose(longer, [d])
    assert isinstance(s, NoRealSolution)
    assert str(s) == "fiber is a single inconsistent point"


def _decided(e, f, res, tol, tol_f0):
    """The pose (e, f) with leg residuals res as a MotionSample, else the
    InconsistentSystem of its worst leg residual over tol or of its |f0|
    over tol_f0."""
    worst = max(abs(r) for r in res)
    if not worst <= tol:
        raise InconsistentSystem(f"leg residual {worst:.3e} over {tol:.3e}")
    if not abs(f[0]) <= tol_f0:
        raise InconsistentSystem(f"|f0| = {abs(f[0]):.3e} over {tol_f0:.3e}")
    return MotionSample(tuple(e), tuple(f), tuple(res))


def _three_branch_sample_pose(legs, direction, tol_f0):
    """The sampler as it was before the one fiber formula: lstsq for the
    least-norm point, an SVD for the kernel, a discriminant for a kernel
    of dimension 1 and the nearest circle point for dimension 2 or more."""
    tol_leg = selfmotion.TOL_LEG
    d = np.asarray(direction, dtype=float)
    e = np.concatenate([[0.0], d / np.linalg.norm(d)])
    rows, consts = _leg_rows(legs, e)
    A = np.vstack([e, rows[0] - rows[1:]])
    b = np.concatenate([[0.0], consts[1:] - consts[0]])
    fp, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = 1.0 + float(np.max(np.abs(legs.r2)))
    if np.linalg.norm(A @ fp - b) > tol_leg * scale:
        raise InconsistentSystem("linear slice is inconsistent")
    _, sv, Vt = np.linalg.svd(A)
    rank = int((sv > 1e-9 * sv[0]).sum())
    kernel = Vt[rank:]
    L1, c1 = rows[0], consts[0]

    def q1(f):
        return 4.0 * f @ f + L1 @ f + c1

    if rank >= 4:
        f = fp
        if abs(q1(f)) > tol_leg * scale:
            raise NoRealSolution("fiber is a single inconsistent point")
    elif kernel.shape[0] == 1:
        k = kernel[0]
        cb = 8.0 * fp @ k + L1 @ k
        disc = cb * cb - 16.0 * q1(fp)
        if disc < 0:
            raise NoRealSolution(f"negative discriminant {disc:.3e}")
        roots = [fp + s * k for s in ((-cb + math.sqrt(disc)) / 8.0,
                                      (-cb - math.sqrt(disc)) / 8.0)]
        worst = [np.max(np.abs(residuals_at(legs, e, v))) for v in roots]
        good = [v for v, w in zip(roots, worst) if w <= tol_leg * scale]
        f = min(good, key=lambda v: v @ v) if good \
            else roots[int(np.argmin(worst))]
    else:
        center = -np.array([8.0 * fp @ k + L1 @ k for k in kernel]) / 8.0
        rho2 = center @ center - q1(fp) / 4.0
        if rho2 < 0:
            raise NoRealSolution(f"negative circle radius {rho2:.3e}")
        nc = np.linalg.norm(center)
        if nc < 1e-300:
            s = np.zeros(len(kernel))
            s[0] = math.sqrt(rho2)
        else:
            s = center * (1.0 - math.sqrt(rho2) / nc)
        f = fp + s @ kernel
    return _decided(e, f, residuals_at(legs, e, f), tol_leg * scale, tol_f0)


def _scalar_sample_pose(legs, direction, tol_f0=selfmotion.TOL_F0):
    """The one-direction sampler the grid sampler replaced: the same fiber
    formula and root choice, on one slice built leg by leg, raising its
    rejection."""
    d = np.asarray(direction, dtype=float)
    e = np.concatenate([[0.0], d / np.linalg.norm(d)])
    rows, consts = _leg_rows(legs, e)
    A = np.vstack([e, rows[0] - rows[1:]])
    b = np.concatenate([[0.0], consts[1:] - consts[0]])
    fp, *_ = np.linalg.lstsq(A, b, rcond=None)
    tol = selfmotion.TOL_LEG * (1.0 + float(np.max(np.abs(legs.r2))))
    if np.linalg.norm(A @ fp - b) > tol:
        raise InconsistentSystem("linear slice is inconsistent")
    _, sv, Vt = np.linalg.svd(A)
    K = Vt[int((sv > 1e-9 * sv[0]).sum()):]
    q1 = 4.0 * fp @ fp + rows[0] @ fp + consts[0]
    if not len(K):
        if abs(q1) > tol:
            raise NoRealSolution("fiber is a single inconsistent point")
        candidates = np.array([fp])
    else:
        center = -K @ (8.0 * fp + rows[0]) / 8.0
        rho2 = center @ center - q1 / 4.0
        if rho2 < 0:
            raise NoRealSolution(f"empty fiber sphere, rho^2 = {rho2:.3e}")
        nc, rho = math.sqrt(center @ center), math.sqrt(rho2)
        if nc > 1e-300:
            ends = (center * (1.0 - rho / nc), center * (1.0 + rho / nc))
        else:
            axis = np.eye(len(K))[0]
            ends = (rho * axis, -rho * axis)
        candidates = np.array([fp + s @ K for s in ends])
    res = residuals_at(legs, e, candidates)
    worst = np.abs(res).max(axis=1)
    good = [k for k, w in enumerate(worst) if w <= tol]
    k = (min(good, key=lambda k: candidates[k] @ candidates[k]) if good
         else int(np.argmin(worst)))
    return _decided(e.tolist(), candidates[k].tolist(), res[k].tolist(), tol,
                    tol_f0)


def _outcome(sampler, *args):
    try:
        return "pose", sampler(*args)
    except (NoRealSolution, InconsistentSystem) as exc:
        return type(exc).__name__, None


def _seeded_motion_designs(seed, count):
    rng = random.Random(seed)
    designs = []
    while len(designs) < count:
        r1sq = Fraction(rng.randint(1, 160), rng.randint(1, 4))
        r2sq = Fraction(rng.randint(1, 160), rng.randint(1, 4))
        try:
            designs.append(build_motion_design(WORKED, r1sq, r2sq))
        except Unrealizable:
            continue
    return designs


# the Fibonacci grid and the three tangent directions
ORACLE_DIRECTIONS = list(fibonacci_directions(150)) + [
    (0, 0, 1), (1e-4, 0, 1), (0, 1e-4, 1)]


def _oracle_designs():
    """The worked design and hexapod, seeded motion designs, and the worked
    design with r3^2 raised by 1/10, 1e-6 and 1e-9, whose slices are
    inconsistent."""
    d = worked_design()
    raised = [PentapodDesign(d.base, d.platform,
                             (*d.radii2[:2], d.radii2[2] + step,
                              *d.radii2[3:]))
              for step in (Fraction(1, 10), Fraction(1, 10**6),
                           Fraction(1, 10**9))]
    return [d, worked_hexapod(), *_seeded_motion_designs(14, 8), *raised]


def test_sample_pose_matches_the_three_branch_sampler():
    # one sphere formula and one root choice give the outcome and the pose
    # of the former sampler on every direction: the grid and the tangent
    # directions (kernel dimension 1) and the half-turn (dimension 2).
    # The |f0| bound is scaled like the leg tolerance: at the nearly
    # rank-deficient tangent slices |f0| is rounding, and at the unscaled
    # TOL_F0 the outcomes there would only compare two roundings
    outcomes = set()
    for design in _oracle_designs():
        legs = float_legs(design)
        scale = 1.0 + float(np.max(np.abs(legs.r2)))
        tol_f0 = selfmotion.TOL_F0 * scale
        for d, s in zip(ORACLE_DIRECTIONS,
                        sample_pose(legs, ORACLE_DIRECTIONS,
                                    tol_f0=tol_f0)):
            new = ("pose" if isinstance(s, MotionSample)
                   else type(s).__name__)
            old, t = _outcome(_three_branch_sample_pose, legs, d, tol_f0)
            assert new == old, (design, d)
            outcomes.add(new)
            if t is not None:
                gap = np.max(np.abs(np.subtract(s.e + s.f, t.e + t.f)))
                assert gap <= 1e-9 * scale, (design, d)
    assert outcomes == {"pose", "NoRealSolution", "InconsistentSystem"}


def _slices_by_leg_rows(legs, directions):
    """(A, b) of each direction's linear slice, built one leg at a time."""
    for d in directions:
        d = np.asarray(d, dtype=float)
        e = np.concatenate([[0.0], d / np.linalg.norm(d)])
        rows, consts = _leg_rows(legs, e)
        yield (np.vstack([e, rows[0] - rows[1:]]),
               np.concatenate([[0.0], consts[1:] - consts[0]]))


def test_sample_pose_matches_the_scalar_sampler(monkeypatch):
    # the grid sampler hands its one SVD bitwise the slices the legs give
    # one at a time, and gives each direction the outcome, error text and,
    # up to rounding, pose of the one-direction lstsq sampler it replaced,
    # at the |f0| bound scaled like the leg tolerance
    outcomes = set()
    real_svd = np.linalg.svd
    for design in _oracle_designs():
        legs = float_legs(design)
        factored = []

        def recording(a, *args, **kw):
            factored.append(a.copy())
            return real_svd(a, *args, **kw)

        bound = 1e-12 * (1.0 + float(np.max(np.abs(legs.r2))))
        monkeypatch.setattr(np.linalg, "svd", recording)
        batch = sample_pose(legs, ORACLE_DIRECTIONS, tol_f0=bound)
        monkeypatch.setattr(np.linalg, "svd", real_svd)
        [stacked] = factored
        assert len(stacked) == len(batch) == len(ORACLE_DIRECTIONS)
        for a, (A, _) in zip(stacked, _slices_by_leg_rows(
                legs, ORACLE_DIRECTIONS)):
            assert np.array_equal(a, A), design
        for d, got in zip(ORACLE_DIRECTIONS, batch):
            try:
                want = _scalar_sample_pose(legs, d, tol_f0=bound)
            except (NoRealSolution, InconsistentSystem) as exc:
                want = exc
            assert type(got) is type(want), (design, d)
            outcomes.add(type(got).__name__)
            if isinstance(want, Exception):
                assert str(got) == str(want), (design, d)
                continue
            assert got.e == want.e
            for x, y in ((got.f, want.f), (got.residuals, want.residuals)):
                assert np.max(np.abs(np.subtract(x, y))) <= bound, (design, d)
    assert outcomes == {"MotionSample", "NoRealSolution", "InconsistentSystem"}


@pytest.mark.parametrize("size", [1, 23, 163])
def test_sample_pose_factors_each_grid_once(monkeypatch, size):
    # one SVD of the stacked slices gives every direction of the grid its
    # rank, kernel and least-norm point, and no lstsq runs.  The zero
    # singular values of the half-turn (kernel dimension 2) are not
    # inverted, so no warning is raised there, nor at the nearly
    # rank-deficient tangent directions.  The one-direction grid is a
    # full-rank slice of four legs
    calls = []
    real_svd = np.linalg.svd

    def recording(a, *args, **kw):
        calls.append(a.shape)
        return real_svd(a, *args, **kw)

    def forbidden(*args, **kw):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    if size == 1:
        legs, d, _ = _four_legs_through_a_pose(3)
        grid = [d]
    else:
        legs = float_legs(worked_hexapod())
        grid = [*selfmotion.TANGENT_DIRECTIONS,
                *fibonacci_directions(size - 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = sample_pose(legs, grid)
    assert calls == [(size, len(legs.r2), 4)]
    assert all(isinstance(s, MotionSample) for s in batch[:3])


def test_sample_pose_rejects_a_bad_grid():
    # a single direction not wrapped in a grid is a bad grid too
    legs = float_legs(worked_design())
    assert sample_pose(legs, []) == sample_pose(legs, np.zeros((0, 3))) == []
    for grid in ([(0.3, 0.5, 0.9), (0.0, 0.0, 0.0)], [(1.0, 2.0)],
                 [(0.3, math.nan, 0.9)], (0.3, 0.5, 0.9)):
        with pytest.raises(ValueError, match="nonzero 3-vectors"):
            sample_pose(legs, grid)


def test_sample_pose_rejects_a_nan_leg_residual(monkeypatch):
    # every bound test accepts only a value within its bound: a nan
    # residual passed the former "worst > tol" test and came back a pose
    legs = float_legs(worked_hexapod())
    grid = list(fibonacci_directions(40)) + list(TANGENT_DIRECTIONS)
    grid = [d for d, s in zip(grid, sample_pose(legs, grid))
            if isinstance(s, MotionSample)]
    real = selfmotion.residuals_at
    monkeypatch.setattr(selfmotion, "residuals_at",
                        lambda *args: np.full_like(real(*args), np.nan))
    outcomes = sample_pose(legs, grid)
    assert len(outcomes) == len(grid) > 20
    for s in outcomes:
        assert isinstance(s, InconsistentSystem)
        assert str(s).startswith("leg residual nan over ")


def test_sample_pose_refuses_a_slice_without_floats():
    # on the base (0, 10^155, 2, 3) the squares of the leg slice overflow:
    # the call raises before any direction is decided, and numpy warns
    # nothing; the poses were all nan
    design = build_motion_design(BaseParams(0, 10**155, 2, 3), 1, 1)
    legs = float_legs(design)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(selfmotion.FloatOverflow,
                           match="leg slice has no finite float"):
            sample_pose(legs, [(0.3, 0.5, 0.9)])
        with pytest.raises(selfmotion.FloatOverflow):
            verify_selfmotion(design, count=3)


def test_sample_pose_closes_each_candidate_once(monkeypatch):
    # the candidates close every leg in one residuals_at call, two per
    # direction of the whole grid: at a kernel of dimension 1 and at the
    # half-turn's dimension 2; the chosen pose reuses its residuals
    calls = []
    real = selfmotion.residuals_at

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(selfmotion, "residuals_at", counting)
    legs = float_legs(worked_hexapod())
    batch = sample_pose(legs, [(0.3, 0.5, 0.9), (0.0, 0.0, 1.0)])
    [(_, e, f)] = calls
    assert f.shape == (2, 2, 4)
    for s, cands in zip(batch, f):
        assert any(np.array_equal(c, s.f) for c in cands)


def test_fibonacci_directions_unit_hemisphere():
    pts = list(fibonacci_directions(40))
    assert len(pts) == 40
    for p in pts:
        assert abs(sum(v * v for v in p) - 1.0) <= 1e-12
        assert p[2] > 0


def test_verify_selfmotion_worked():
    rep = verify_selfmotion(worked_design(), count=40)
    assert len(rep.samples) == 40
    assert rep.max_residual <= 1e-12
    assert rep.max_f0 <= 1e-14
    assert abs(rep.tangent_angle - math.pi / 2) <= 1e-6


@pytest.mark.parametrize("count", [0, -3])
def test_verify_selfmotion_rejects_count_below_one(monkeypatch, count):
    # a typed error naming count, raised before any pose is sampled (it was
    # a bare "max() arg is an empty sequence" from the empty report)
    def no_sampling(*args):
        raise AssertionError("sampled a pose")

    monkeypatch.setattr(selfmotion, "sample_pose", no_sampling)
    with pytest.raises(ValueError, match="count must be at least 1"):
        verify_selfmotion(worked_design(), count=count)


def _recording_sample_pose(monkeypatch, inject=None):
    """Patch sample_pose to record each call's (grid, outcomes), after
    replacing outcomes of the first call when inject is given: inject(out)
    maps positions to the exceptions put there."""
    calls = []
    real = selfmotion.sample_pose

    def recording(legs, grid, *tols):
        out = real(legs, grid, *tols)
        if inject is not None and not calls:
            for i, exc in inject(out).items():
                out[i] = exc
        calls.append((list(grid), out))
        return out

    monkeypatch.setattr(selfmotion, "sample_pose", recording)
    return calls


def _walked(outcomes, count):
    """Directions a pass walks: up to its count-th pose, else all."""
    poses = [i for i, o in enumerate(outcomes) if isinstance(o, MotionSample)]
    return poses[count - 1] + 1 if len(poses) >= count else len(outcomes)


def test_verify_selfmotion_counts_every_pass(monkeypatch):
    # radii (20, 4) leave too few real fibers on the first grid of 20
    # directions, so a second pass of 40 runs.  The first pass is one
    # sample_pose call on its grid and then the three tangent
    # directions; the doubled pass samples its grid alone.  attempted
    # counts the grid directions both passes walked (it used to count
    # only the last pass), never the tangent directions
    calls = _recording_sample_pose(monkeypatch)
    design = build_motion_design(WORKED, 20, 4)
    rep = verify_selfmotion(design, count=10,
                            tol_f0=selfmotion.TOL_F0 * (1 + 658 / 25))
    (first, out1), (second, out2) = calls
    assert first == (list(fibonacci_directions(20))
                     + list(selfmotion.TANGENT_DIRECTIONS))
    assert second == list(fibonacci_directions(40))
    assert rep.attempted == _walked(out1[:20], 10) + _walked(out2, 10)
    assert rep.attempted > 20


def test_verify_selfmotion_walks_each_pass_in_grid_order(monkeypatch):
    # a pass's outcomes past its count-th pose count for nothing, as if
    # the grid were sampled one direction at a time: an InconsistentSystem
    # there is dropped, one before it propagates
    design, count = worked_design(), 5
    outcomes = sample_pose(float_legs(design),
                           list(fibonacci_directions(2 * count)))
    last = _walked(outcomes, count) - 1
    assert last + 1 < len(outcomes)
    injected = InconsistentSystem("injected")
    _recording_sample_pose(monkeypatch, inject=lambda out: {last + 1: injected})
    rep = verify_selfmotion(design, count=count)
    assert (len(rep.samples), rep.attempted) == (count, last + 1)
    _recording_sample_pose(monkeypatch, inject=lambda out: {last: injected})
    with pytest.raises(InconsistentSystem, match="injected"):
        verify_selfmotion(design, count=count)


def _reject_tangents(out):
    """The last two outcomes, the tangent steps when the grid ends with the
    three tangent directions, as rejections."""
    return {len(out) - 2: NoRealSolution("second"),
            len(out) - 1: InconsistentSystem("third")}


def test_verify_selfmotion_samples_the_tangent_directions_with_its_grid(
        monkeypatch):
    # the first pass's one sample_pose call ends with (0,0,1), (h,0,1),
    # (0,h,1), and the first rejection among those three, in that order,
    # is raised after the walk
    calls = _recording_sample_pose(monkeypatch, inject=_reject_tangents)
    with pytest.raises(NoRealSolution, match="second"):
        verify_selfmotion(worked_design(), count=5)
    [(grid, _)] = calls
    assert grid == (list(fibonacci_directions(10))
                    + [(0, 0, 1), (1e-4, 0, 1), (0, 1e-4, 1)])


def test_verify_selfmotion_raises_a_grid_rejection_first(monkeypatch):
    # an InconsistentSystem the walk reaches propagates before a rejection
    # at the tangent directions sampled in the same call, as it did when
    # the tangents were sampled after the walk
    def inject(out):
        return {0: InconsistentSystem("grid"), **_reject_tangents(out)}

    _recording_sample_pose(monkeypatch, inject=inject)
    with pytest.raises(InconsistentSystem, match="grid"):
        verify_selfmotion(worked_design(), count=5)


def test_verify_selfmotion_tangents_independent():
    rep = verify_selfmotion(worked_design(), count=5)
    # the two tangents at the half-turn, as difference quotients over the
    # directions the report's angle is taken from
    p0, p1, p2 = (np.array(s.e + s.f) for s in
                  sample_pose(float_legs(worked_design()), TANGENT_DIRECTIONS))
    t1, t2 = (p1 - p0) / TANGENT_STEP, (p2 - p0) / TANGENT_STEP
    assert (np.linalg.norm(np.cross(t1[:3], t2[:3])) > 1e-3
            or rep.tangent_angle > 1e-3)


# --------------------------------------------------------- translational circle

def test_translational_circle_worked():
    c = translational_submotion(worked_design())
    assert c.normal == (3, 2, 0)
    assert c.offset == 0
    assert c.center == (Fraction(-6, 13), Fraction(9, 13), 0)
    assert c.rho2 == Fraction(9, 13)


def test_circle_points_close_all_legs():
    d = worked_design()
    c = translational_submotion(d)
    n = np.array([float(v) for v in c.normal])
    legs = float_legs(d)
    for t in circle_translations(c, 12):
        assert abs(n @ t - float(c.offset)) <= 1e-12
        e, f = pose_from_translation(t)
        res = residuals_at(legs, np.array(e), np.array(f))
        assert np.max(np.abs(res)) <= 1e-12


def test_circle_on_hexapod_matches_pentapod():
    c5 = translational_submotion(worked_design())
    c6 = translational_submotion(worked_hexapod())
    assert (c5.normal, c5.offset, c5.center, c5.rho2) == \
        (c6.normal, c6.offset, c6.center, c6.rho2)


def test_pose_from_translation_map():
    e, f = pose_from_translation((2.0, 4.0, 6.0))
    assert e == (0.0, 0.0, 0.0, 1.0)
    assert f == (-3.0, 2.0, -1.0, 0.0)


def test_translational_rank_too_high():
    d = worked_design()
    plat = list(d.platform)
    plat[1] = PlanarPoint(2, 4)
    with pytest.raises(RankTooHigh):
        translational_submotion(PentapodDesign(d.base, tuple(plat), d.radii2))


def test_translational_concentric_degenerate():
    d = worked_design()
    plat = tuple(p.scale(-1) for p in d.base)
    with pytest.raises(ConstructionDegenerate):
        translational_submotion(PentapodDesign(d.base, plat, d.radii2))


def test_translational_inconsistent_offsets():
    d = worked_design()
    bad = PentapodDesign(d.base, d.platform, (1, 18, 1, 1, 18))
    with pytest.raises(InconsistentSystem):
        translational_submotion(bad)


def test_translational_empty_circle():
    # shifting every squared radius by the same amount keeps the plane but
    # can push the first sphere inside it
    d = worked_design()
    delta = Fraction(9, 10)
    radii = tuple(r - delta for r in d.radii2)
    with pytest.raises(NoRealSolution):
        translational_submotion(PentapodDesign(d.base, d.platform, radii))


# -------------------------------------------------------------- similarity bond

def test_similarity_bond_worked():
    b = similarity_bond(worked_design())
    assert b.m3_prime == PlanarPoint(-2, -1)
    assert b.m3_second == PlanarPoint(Fraction(-1, 2), 0)
    assert b.M3_prime == PlanarPoint(Fraction(4, 5), Fraction(6, 5))
    assert b.M3_second == PlanarPoint(Fraction(1, 5), Fraction(4, 5))
    assert b.direction == (3, 2, 0)


def test_similarity_bond_collinear_with_anchors():
    d = worked_design()
    b = similarity_bond(d)
    assert collinear(d.platform[2], b.m3_prime, b.m3_second)
    assert collinear(d.base[2], b.M3_prime, b.M3_second)


def test_similarity_bond_matches_circle_direction():
    assert similarity_bond(worked_design()).direction == \
        translational_submotion(worked_design()).normal


def test_similarity_bond_degenerate_platform():
    d = worked_design()
    plat = list(d.platform)
    plat[1] = PlanarPoint(2, 4)
    with pytest.raises(ConstructionDegenerate):
        similarity_bond(PentapodDesign(d.base, tuple(plat), d.radii2))


# --------------------------------------------------------------------- hexapod

def test_sixth_radius_worked():
    assert sixth_radius(worked_hexapod()) == Fraction(18, 25)


def test_hexapod_motion_closes_sixth_leg():
    rep = verify_selfmotion(worked_hexapod(), count=30)
    assert len(rep.samples) == 30
    assert rep.max_residual <= 1e-12


def _rec3(twin: PentapodDesign) -> PentapodDesign:
    """The rec3 design whose kappa_2 twin is twin."""
    return PentapodDesign(*map(swap_4_5, (
        twin.base, twin.platform, twin.radii2)))


def _seeded_duporcq_designs(seed, count):
    """(case, design) of count motion pentapods on seeded canonical bases,
    alternating the cases.  A rec3 design's twin is the kappa_2 motion
    design of the base with (A4, B4) and (A5, B5) exchanged."""
    rng = random.Random(seed)
    designs = []
    while len(designs) < count:
        base = random_base(rng)
        r1sq, r2sq = rng.randint(1, 40), rng.randint(1, 40)
        case = 2 + len(designs) % 2
        swapped = BaseParams(base.A5, base.B5, base.A4, base.B4)
        try:
            design = build_motion_design(base if case == 2 else swapped,
                                         r1sq, r2sq)
        except Unrealizable:
            continue
        if case == 3:
            twin, design = design, _rec3(design)
            assert design.base == base.points
            assert kappa2_twin(design) == (3, twin)
        designs.append((case, design))
    return designs


def test_sixth_leg_closes_along_the_pentapod_motion(tmp_path, capsys):
    # leg 6 takes r3^2 (sixth_radius), and on seeded bases of both cases it
    # closes at each pose its pentapod samples at the |f0| bound scaled like
    # the leg tolerance; hexapod-check at that bound exits 0 and finds the
    # hexapod architecturally singular.  Pentapods that do not sample there
    # are the |f0|, empty-circle and no-real-pose defects of the motion
    # sampler
    checked = {2: 0, 3: 0}
    for case, design in _seeded_duporcq_designs(0, 40):
        scale = 1.0 + float(max(design.radii2))
        try:
            report = verify_selfmotion(design, count=10,
                                       tol_f0=selfmotion.TOL_F0 * scale)
        except (InconsistentSystem, NoRealSolution):
            continue
        hexapod = duporcq_hexapod(design)
        legs = float_legs(hexapod)
        for s in report.samples:
            residual = residuals_at(legs, s.e, s.f)[5]
            assert abs(residual) <= selfmotion.TOL_LEG * scale
        path = tmp_path / "design.json"
        path.write_text(json.dumps(design_to_dict(design, hexapod)))
        code = cli.main(["hexapod-check", str(path), "--samples", "10",
                         "--tol-f0", repr(selfmotion.TOL_F0 * scale)])
        captured = capsys.readouterr()
        assert code == 0, (case, design, captured.err)
        assert json.loads(captured.out)["architecturally_singular"] is True
        checked[case] += 1
    assert checked[2] >= 10 and checked[3] >= 10


def test_rec3_files_run_through_their_kappa2_twin(tmp_path, capsys):
    # pipeline reports a rec3 file's kappa_2 twin and names the case;
    # motion samples the file's own legs, an override solving their radii
    # in file order (r1^2, r2^2, r3^2, r2^2, r1^2), and at the scaled |f0|
    # bound it exits 0 wherever the pentapod samples
    path, csv_path = tmp_path / "design.json", tmp_path / "motion.csv"
    sampled = 0
    for case, design in _seeded_duporcq_designs(2, 40):
        if case == 2:
            continue
        _, twin = kappa2_twin(design)
        path.write_text(json.dumps(design_to_dict(design)))
        assert cli.main(["pipeline", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("case") == 3
        assert report.pop("params")["radii2"] == [str(r)
                                                  for r in twin.radii2]
        expected = pipeline_report(CanonicalDesign.from_params(
            BaseParams.from_points(twin.base), radii=twin.radii2))
        assert report == json.loads(json.dumps(expected))
        tol_f0 = selfmotion.TOL_F0 * (1.0 + float(max(design.radii2)))
        try:
            verify_selfmotion(design, count=10, tol_f0=tol_f0)
        except (InconsistentSystem, NoRealSolution):
            moves = False
        else:
            moves = True
        code = cli.main(["motion", str(path), "--r1sq", str(design.radii2[0]),
                         "--samples", "10", "--tol-f0", repr(tol_f0),
                         "--out", str(csv_path)])
        captured = capsys.readouterr()
        assert code == (0 if moves else 5), captured.err
        if not moves:
            continue
        r1sq, r2sq, r3sq = design.radii2[:3]
        assert json.loads(captured.out)["radii2"] == [
            str(r) for r in (r1sq, r2sq, r3sq, r2sq, r1sq)]
        legs = float_legs(design)
        with open(csv_path, newline="") as fh:
            for row in csv.DictReader(fh):
                e, f = ([float(row[f"{k}{i}"]) for i in range(4)]
                        for k in "ef")
                assert [float(row[f"res{i}"]) for i in range(1, 6)] == \
                    residuals_at(legs, e, f).tolist()
        sampled += 1
    assert sampled >= 10


def test_rec3_hexapod_tangent_f0_within_the_scaled_bound():
    # a rec3 design (seed 1 of the generator above) whose pentapod and
    # hexapod both sample at the scaled |f0| bound, 4.8e-11: at the tangent
    # direction (0, 1e-4, 1), which leaves the slice nearly rank deficient,
    # |f0| rounds to 2.9e-11 with six legs and to 1.5e-11 with five.  A
    # least-norm point from lstsq rounded it to 7.4e-11 with six legs
    design = _rec3(build_motion_design(
        BaseParams(Fraction(3, 2), 1, 5, Fraction(1, 2)), 31, 24))
    tol_f0 = selfmotion.TOL_F0 * (1.0 + float(max(design.radii2)))
    try:
        verify_selfmotion(design, count=10, tol_f0=tol_f0)
    except InconsistentSystem as exc:
        raise AssertionError(f"the pentapod does not sample: {exc}")
    verify_selfmotion(duporcq_hexapod(design), count=10, tol_f0=tol_f0)


def test_hexapod_samples_wherever_its_pentapod_does():
    # at the |f0| bound scaled like the leg tolerance, the Duporcq hexapod
    # of every seeded design whose pentapod samples samples too, tangent
    # directions included.  122 pentapods sample, as with a least-norm
    # point from lstsq; without the refinement step design 82 does not
    sampled = 0
    for case, design in _seeded_duporcq_designs(5, 160):
        tol_f0 = selfmotion.TOL_F0 * (1.0 + float(max(design.radii2)))
        try:
            verify_selfmotion(design, count=10, tol_f0=tol_f0)
        except (InconsistentSystem, NoRealSolution):
            continue
        verify_selfmotion(duporcq_hexapod(design), count=10, tol_f0=tol_f0)
        sampled += 1
    assert sampled >= 122


def test_float_legs_are_built_once_per_public_call(monkeypatch):
    # each public call reads its design into float legs once and hands them
    # to every pose; nothing outlives the call, so a second call of the
    # same design builds them again
    built = []
    real = selfmotion.float_legs

    def counting(design):
        built.append(design)
        return real(design)

    monkeypatch.setattr(selfmotion, "float_legs", counting)
    hexapod = worked_hexapod()
    for call in (lambda: verify_selfmotion(hexapod, count=10),
                 lambda: arch_singularity_check(hexapod, samples=5)):
        built.clear()
        call()
        assert built == [hexapod]
        call()
        assert built == [hexapod, hexapod]


def test_arch_singularity_worked_hexapod():
    assert arch_singularity_check(worked_hexapod(), samples=50) <= 1e-9


def test_arch_singularity_generic_hexapod():
    generic = HexapodDesign(worked_design(), PlanarPoint(5, 7),
                            PlanarPoint(1, 2))
    assert arch_singularity_check(generic, samples=20) > 1e-6


def test_arch_singularity_refuses_overflowed_rows():
    # on the base (0, 10^155, 2, 3) the leg-line rows' norms overflow; the
    # check read 7.7e-18, "singular", off them, and numpy warned
    hexapod = duporcq_hexapod(build_motion_design(BaseParams(0, 10**155, 2, 3),
                                                  1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(selfmotion.FloatOverflow,
                           match="leg-line rows have no finite float"):
            arch_singularity_check(hexapod, samples=5)


def _arch_one_pose_at_a_time(design, seed, samples):
    """arch_singularity_check as it was, one random pose per loop pass."""
    legs = float_legs(design)
    rng = np.random.default_rng(seed)
    unit = []
    for _ in range(samples):
        while True:
            e = rng.normal(size=4)
            n = e @ e
            if n > 1e-6:
                break
        f = rng.normal(size=4)
        f = f - ((f @ e) / n) * e
        rows = selfmotion.plucker_matrix(legs, e / math.sqrt(n),
                                         f / math.sqrt(n))
        norms = np.linalg.norm(rows, axis=1)
        if np.min(norms) >= 1e-12:
            unit.append(rows / norms[:, None])
    if not unit:
        return 0.0
    sv = np.linalg.svd(np.array(unit), compute_uv=False)
    return max(0.0, *(sv[:, -1] / sv[:, 0]))


def test_arch_singularity_draws_every_pose_in_one_call():
    # one normal draw of shape (samples, 2, 4) gives the poses the loop
    # drew one at a time, and the same worst singular value, bit for bit
    generic = HexapodDesign(worked_design(), PlanarPoint(5, 7),
                            PlanarPoint(1, 2))
    for design in (worked_hexapod(), generic):
        for seed, samples in [(s, 10) for s in range(40)] + [(3, 100)]:
            assert arch_singularity_check(design, seed, samples) == \
                _arch_one_pose_at_a_time(design, seed, samples)

