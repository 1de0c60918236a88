"""Study-parameter displacements, sphere conditions, and the elimination
pipeline on the canonical pentapod."""

import dataclasses
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duporcq import exactpoly, study
from duporcq.cli import main
from duporcq.exactpoly import MPoly, NotDivisible, ZeroDegree, det, gcd
from duporcq.geometry import (WORKED_PARAMS, AffineMap2, BaseParams,
                              PentapodDesign, build_platform, design_to_dict,
                              duporcq_hexapod, kappa2_mu, kappa2_twin,
                              load_design, swap_4_5, worked_design)
from duporcq.study import (
    GENS,
    STUDY_VARS,
    AnsatzSolvable,
    CanonicalDesign,
    E_VARS,
    ExceptionalPose,
    F_VARS,
    InvariantViolation,
    NotFFree,
    QuadricForm,
    SphereConstraint,
    StudyPose,
    StudyViolation,
    N_poly,
    RADII_SYMBOLS,
    _eliminate,
    _factor_match,
    _normalize_quadric,
    apply_pose,
    chain_vanishes_at,
    compute_Ke,
    delta,
    displacement,
    e0e3_ratio,
    epsilon_quadric,
    epsilons,
    exact_rank,
    f1_degeneracy_certificate,
    f1_f2,
    f_coefficient_matrix,
    f_matrix_at,
    f_row_weights,
    leg_split,
    pipeline_report,
    rank_drop_T,
    resultant_chain,
    sphere_condition,
    tangency_ansatz,
)

WORKED_RADII = (1, 18, Fraction(18, 25), 1, 18)
WORKED = CanonicalDesign.from_params(WORKED_PARAMS, radii=WORKED_RADII)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def random_fraction(rng, lo=-6, hi=6, den=6):
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


# ---------------------------------------------------------------- displacement

def test_identity_pose():
    rot, tra = displacement(StudyPose.identity())
    assert rot == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert tra == (0, 0, 0)


def test_half_turn_about_z():
    pose = StudyPose((0, 0, 0, 1), (0, 0, 0, 0))
    assert apply_pose(pose, (1, 0, 0)) == (-1, 0, 0)
    assert apply_pose(pose, (0, 1, 0)) == (0, -1, 0)
    assert apply_pose(pose, (0, 0, 1)) == (0, 0, 1)


def test_pure_translation():
    pose = StudyPose((1, 0, 0, 0), (0, Fraction(1, 2), 0, 0))
    assert apply_pose(pose, (0, 0, 0)) == (1, 0, 0)
    assert apply_pose(pose, (5, -2, 3)) == (6, -2, 3)


def test_study_violation():
    with pytest.raises(StudyViolation):
        displacement(StudyPose((1, 0, 0, 0), (1, 0, 0, 0)))


def test_exceptional_pose():
    with pytest.raises(ExceptionalPose):
        displacement(StudyPose((0, 0, 0, 0), (0, 1, 0, 0)))


def test_float_pose_raises_type_error():
    # displacement is an exact oracle; a float entry is not read as a
    # tolerance-checked pose
    pose = StudyPose((0.6, 0.0, 0.0, 0.8), (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(TypeError, match="int or Fraction"):
        apply_pose(pose, (1, 0, 0))
    with pytest.raises(TypeError, match="int or Fraction"):
        displacement(StudyPose((0, 0, 0, 1), (0, 0, 0.5, 0)))


@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
def test_rotation_is_orthogonal(e, f):
    n = sum(x * x for x in e)
    if n == 0:
        return
    s = sum(x * y for x, y in zip(e, f))
    f = tuple(fi - s * ei / n for ei, fi in zip(e, f))
    rot, _ = displacement(StudyPose(tuple(e), f))
    for i in range(3):
        for j in range(3):
            dot = sum(rot[i][k] * rot[j][k] for k in range(3))
            assert dot == (1 if i == j else 0)


# ------------------------------------------------------------ sphere condition

def test_sphere_zero_radius_at_identity():
    leg = SphereConstraint((3, 4, 0), (3, 4, 0), 0)
    assert sphere_condition(StudyPose.identity(), leg) == 0


def test_sphere_matching_radius_at_identity():
    leg = SphereConstraint((3, 4, 0), (0, 0, 0), 25)
    assert sphere_condition(StudyPose.identity(), leg) == 0


def test_worked_design_closes_at_half_turn():
    design = WORKED
    pose = StudyPose((0, 0, 0, 1), (0, 0, 0, 0))
    legs, w3 = design.legs()
    for i in (1, 2, 3, 4, 5):
        assert sphere_condition(pose, legs[i], w3 if i == 3 else 1) == 0


@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4),
       st.lists(small_rationals, min_size=3, max_size=3),
       st.lists(small_rationals, min_size=3, max_size=3),
       small_rationals)
@settings(max_examples=40)
def test_sphere_condition_matches_distance(e, f, M, m, r2):
    n = sum(x * x for x in e)
    if n == 0:
        return
    s = sum(x * y for x, y in zip(e, f))
    f = tuple(fi - s * ei / n for ei, fi in zip(e, f))
    pose = StudyPose(tuple(e), f)
    moved = apply_pose(pose, tuple(m))
    dist2 = sum((a - b) ** 2 for a, b in zip(moved, M))
    q = sphere_condition(pose, SphereConstraint(tuple(M), tuple(m), r2))
    assert q == n * (dist2 - r2)


@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4),
       st.lists(small_rationals, min_size=3, max_size=3),
       st.lists(small_rationals, min_size=3, max_size=3),
       small_rationals,
       st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
@settings(max_examples=25)
def test_weighted_sphere_condition_scales(e, f, M, m, r2, w):
    n = sum(x * x for x in e)
    if n == 0:
        return
    s = sum(x * y for x, y in zip(e, f))
    f = tuple(fi - s * ei / n for ei, fi in zip(e, f))
    pose = StudyPose(tuple(e), f)
    plain = sphere_condition(pose, SphereConstraint(tuple(M), tuple(m), r2))
    scaled_leg = SphereConstraint(tuple(w * x for x in M),
                                  tuple(w * x for x in m), r2)
    assert sphere_condition(pose, scaled_leg, weight=w) == w * w * plain


# -------------------------------------------------------------- leg differences

def test_identical_legs_cancel():
    pose = StudyPose.symbolic()
    leg = SphereConstraint((2, 3, 0), (1, -1, 0), 7)
    d = sphere_condition(pose, leg) - sphere_condition(pose, leg)
    assert d.is_zero()


def test_delta_linear_in_f():
    rng = random.Random(7)
    for _ in range(3):
        design = CanonicalDesign.from_params(random_base(rng), mu=random_mu(rng))
        for i in (2, 3, 4, 5):
            d = delta(design, i)
            for fv in ("f0", "f1", "f2", "f3"):
                assert d.degree_in(fv) <= 1


def test_delta_rejects_bad_index():
    design = WORKED
    with pytest.raises(ValueError):
        delta(design, 1)


def test_Ke_f_cancellation_is_a_typed_check(monkeypatch, capsys):
    # perturb leg 2's f-row: the K_e combination no longer cancels f1
    real = study.sphere_linear

    def perturbed(e, legs, weights=None):
        out = real(e, legs, weights)
        if len(out) == 5:
            row, c = out[1]
            out[1] = (row[:1] + (row[1] + GENS["e0"],) + row[2:], c)
        return out

    monkeypatch.setattr(study, "sphere_linear", perturbed)
    with pytest.raises(NotFFree, match="f1"):
        compute_Ke(WORKED)
    code = main(["pipeline", "--params", "1/3,-2,5/2,7",
                 "--mu", "3/2,1/5,-2", "--radii", "1,2,3,4,5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "f1 survives" in json.loads(captured.err)["error"]


def _assembled_delta(design, i):
    # the leg difference as the full sphere conditions' difference, |f|^2
    # terms included: w3^2 Q_1 - Q_3 for the pre-scaled leg 3
    pose = StudyPose.symbolic()
    legs, w3 = design.legs()
    s = w3 * w3 if i == 3 else 1
    return (s * sphere_condition(pose, legs[1])
            - sphere_condition(pose, legs[i], w3 if i == 3 else 1))


def _split_design(name):
    if name == "symbolic":
        return CanonicalDesign.symbolic()
    if name == "worked":
        return WORKED
    rng = random.Random(61)
    for _ in range(int(name[-1])):
        _generic_design(rng)
    design = _generic_design(rng)
    _, w3 = design.legs()
    assert w3 != 1 and design.mu2 != 0
    return design


@pytest.mark.parametrize("name", ["symbolic", "worked", "seed61-0",
                                  "seed61-1", "seed61-2"])
def test_leg_split_matches_the_assembled_leg_differences(name):
    design = _split_design(name)
    deltas = {i: _assembled_delta(design, i) for i in (2, 3, 4, 5)}
    for i, d in deltas.items():
        assert delta(design, i) == d
    units = [tuple(int(j == k) for j in range(4)) for k in range(4)]
    study_s = sum(GENS[e] * GENS[f] for e, f in zip(E_VARS, F_VARS))
    extracted = tuple(
        tuple(c.get(u, MPoly.zero(STUDY_VARS)) for u in units)
        for c in (rp.coefficients(F_VARS) for rp in
                  [study_s] + [deltas[i] for i in (2, 3, 4, 5)]))
    assert f_coefficient_matrix(design) == extracted
    B4, B5, V = design.B4, design.B5, design.V
    U1, U2, U3 = design.U1, design.U2, design.U3
    ke = (B4 * B5 * V * (B4 - B5) * U2 * deltas[2]
          + U3 * deltas[3]
          + B5 * U1 * U2 * deltas[4]
          - B4 * U1 * U2 * deltas[5])
    assert compute_Ke(design).poly == ke
    if name == "symbolic":
        assert ke.term_count == 1356


def test_pipeline_splits_the_legs_once(monkeypatch):
    # and checks the split's f-row dependency once, for both K_e and T
    rotations, passes, checks = [], [], []
    real_rotation, real_linear = study.rotation_numerator, study.sphere_linear
    real_weights = study.f_row_weights

    def rotation(e):
        rotations.append(tuple(e))
        return real_rotation(e)

    def linear(e, legs, weights=None):
        passes.append(len(legs))
        return real_linear(e, legs, weights)

    def weights(design, split):
        checks.append(split)
        return real_weights(design, split)

    monkeypatch.setattr(study, "rotation_numerator", rotation)
    monkeypatch.setattr(study, "sphere_linear", linear)
    monkeypatch.setattr(study, "f_row_weights", weights)
    design = CanonicalDesign.from_params(
        BaseParams(Fraction(1, 3), -2, Fraction(5, 2), 7),
        mu=(Fraction(3, 2), Fraction(1, 5), -2), radii=(1, 2, 3, 4, 5))
    pipeline_report(design)
    assert rotations == [StudyPose.symbolic().e]
    assert passes == [5]
    assert len(checks) == 1
    for stage in (compute_Ke, rank_drop_T):
        rotations.clear()
        passes.clear()
        stage(design)
        assert (len(rotations), passes) == (1, [5])


def test_pipeline_cuts_each_quadric_once(monkeypatch):
    # every coefficient read goes through MPoly.coefficients: two passes per
    # QuadricForm (K_e and T), one for rank_drop_T's one minor and one in
    # _normalize_quadric, and two per resultant in the kernel
    passes = {"duporcq.study": 0, "duporcq.exactpoly": 0}
    real = MPoly.coefficients

    def counting(self, names):
        passes[sys._getframe(1).f_globals["__name__"]] += 1
        return real(self, names)

    resultants = []
    real_resultant = study.resultant

    def counting_resultant(p, q, var):
        resultants.append(var)
        return real_resultant(p, q, var)

    monkeypatch.setattr(MPoly, "coefficients", counting)
    monkeypatch.setattr(study, "resultant", counting_resultant)
    pipeline_report(WORKED)
    assert len(resultants) == 4
    assert passes == {"duporcq.study": 2 * 2 + 1 + 1,
                      "duporcq.exactpoly": 2 * len(resultants)}


# -------------------------------------------------------------------- K_e

def test_Ke_is_f_free_and_quadratic():
    design = WORKED
    ke = compute_Ke(design)
    for fv in ("f0", "f1", "f2", "f3"):
        assert ke.poly.degree_in(fv) == 0
    assert ke.poly.degree() == 2


def test_Ke_ratio_is_minus_eight_at_identity_map():
    rng = random.Random(3)
    for _ in range(10):
        design = CanonicalDesign.from_params(random_base(rng))
        ke = compute_Ke(design)
        assert e0e3_ratio(ke, design) == -8


def test_Ke_ratio_general_map():
    rng = random.Random(5)
    for _ in range(5):
        mu = random_mu(rng)
        design = CanonicalDesign.from_params(random_base(rng), mu=mu)
        ke = compute_Ke(design)
        assert e0e3_ratio(ke, design) == -4 * (mu[0] + mu[2])


def test_Ke_cross_terms_vanish():
    rng = random.Random(11)
    design = CanonicalDesign.from_params(random_base(rng), mu=random_mu(rng))
    ke = compute_Ke(design)
    for (i, j) in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert ke.coeff(i, j).is_zero()
    assert (ke.coeff(0, 0) - ke.coeff(1, 1)).is_zero()
    assert (ke.coeff(2, 2) - ke.coeff(3, 3)).is_zero()


def test_Ke_symbolic_term_count_and_ratio():
    design = CanonicalDesign.symbolic()
    ke = compute_Ke(design)
    assert ke.poly.term_count == 1356
    ratio = e0e3_ratio(ke, design)
    assert ratio == -4 * (GENS["mu1"] + GENS["mu3"])


def test_quadric_form_rejects_f_terms():
    with pytest.raises(NotFFree):
        QuadricForm(GENS["e0"] * GENS["f1"] + GENS["e1"] * GENS["e1"])


def test_quadric_form_keeps_its_ten_coefficients():
    ke = compute_Ke(WORKED)
    assert list(ke.coeffs) == [(i, j) for i in range(4) for j in range(i, 4)]
    assert not ke.coeff(0, 3).is_zero()
    assert ke.coeff(3, 0) == ke.coeff(0, 3)
    for i in range(4):
        for j in range(4):
            assert ke.coeff(i, j) is ke.coeffs[min(i, j), max(i, j)]
    assert sum((c * GENS[f"e{i}"] * GENS[f"e{j}"]
                for (i, j), c in ke.coeffs.items()),
               MPoly.zero(STUDY_VARS)) == ke.poly


def test_quadric_form_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        QuadricForm(GENS["e0"] * GENS["e0"] * GENS["e0"])
    # one term off degree 2 among quadric ones
    with pytest.raises(ValueError):
        QuadricForm(GENS["e0"] * GENS["e3"] + GENS["e1"] * GENS["A4"])


# ------------------------------------------------------------------- T quadric

def test_T_worked_identity_map():
    design = WORKED
    td = rank_drop_T(design)
    g = GENS
    expect = g["e0"] * (-2 * g["e1"] + 3 * g["e2"])
    assert td.T.poly == _normalize_quadric(expect)


def test_T_epsilon_golden():
    design = CanonicalDesign.from_params(BaseParams(0, 1, 2, 3),
                                         mu=(Fraction(2), Fraction(0), Fraction(1)))
    td = rank_drop_T(design)
    assert td.epsilons["eps01"] == -6
    assert td.T.poly == _normalize_quadric(epsilon_quadric(td.epsilons))


def test_T_matches_epsilon_quadric_on_draws():
    rng = random.Random(13)
    for _ in range(4):
        design = CanonicalDesign.from_params(random_base(rng), mu=random_mu(rng))
        td = rank_drop_T(design)
        eq = epsilon_quadric(td.epsilons)
        if eq.is_zero():
            assert td.T.poly.is_zero()
        else:
            assert td.T.poly == _normalize_quadric(eq)


def _t_zero_sample(eps, rng):
    """An e vector with T(e) = 0, via the linear slice in e0."""
    while True:
        e1 = random_fraction(rng)
        e2 = random_fraction(rng)
        e3 = random_fraction(rng)
        den = eps["eps01"] * e1 + eps["eps02"] * e2
        if den == 0:
            continue
        e0 = -e3 * (eps["eps13"] * e1 + eps["eps23"] * e2) / den
        return (e0, e1, e2, e3)


def test_rank_drop_iff_T_vanishes():
    rng = random.Random(17)
    design = CanonicalDesign.from_params(random_base(rng), mu=random_mu(rng))
    td = rank_drop_T(design)
    hits = 0
    for k in range(30):
        if k % 2 == 0:
            e = tuple(random_fraction(rng) for _ in range(4))
        else:
            e = _t_zero_sample(td.epsilons, rng)
        if all(x == 0 for x in e):
            continue
        t_val = td.T(e)
        rank = exact_rank(f_matrix_at(design, e))
        if t_val.is_zero():
            assert rank < 4
            hits += 1
        else:
            assert rank == 4
    assert hits >= 10


def test_T_symbolic_identity():
    # the paper's claim over the full parameter ring, not at a specialization
    design = CanonicalDesign.symbolic()
    mat = f_coefficient_matrix(design)
    assert det([mat[r] for r in (1, 2, 3, 4)]).is_zero()
    q = det([mat[r] for r in (0, 2, 3, 4)]).exact_div(N_poly())
    a = list(QuadricForm(q).coeffs.values())
    b = list(QuadricForm(epsilon_quadric(epsilons(design))).coeffs.values())
    assert [c.is_zero() for c in a] == [c.is_zero() for c in b]
    assert any(a)
    for i in range(10):
        for j in range(i + 1, 10):
            assert a[i] * b[j] == a[j] * b[i]


def test_T_symbolic_is_the_normalized_closed_form():
    design = CanonicalDesign.symbolic()
    td = rank_drop_T(design)
    assert td.T.poly == _normalize_quadric(epsilon_quadric(epsilons(design)))
    assert td.T.poly.term_count == 24


def test_rank_drop_T_takes_no_gcd_of_a_minor(monkeypatch):
    # the one gcd sees only the closed form's coefficients (after a zero);
    # the minors are compared by cross-multiplication
    design = dataclasses.replace(
        _generic_design(random.Random(43)), A4=GENS["A4"], B4=GENS["B4"])
    closed = QuadricForm(epsilon_quadric(epsilons(design)))
    allowed = [c for c in closed.coeffs.values() if not c.is_zero()]
    calls = []

    def counting(*ops):
        calls.append(ops)
        return gcd(*ops)

    monkeypatch.setattr(study, "gcd", counting)
    rank_drop_T(design)
    assert len(calls) == 1
    assert [x for x in calls[0] if x and x not in allowed] == []


@pytest.mark.parametrize("ring", ["numeric", "A4-B4", "mu"])
def test_f_row_dependency_makes_the_minors_multiples_of_one(ring):
    # rank_drop_T computes one minor and derives the other four from the
    # checked dependency sum w_k r_k = 0: with M_l the minor without
    # Delta_(l+2), the minor without S vanishes and w_0 M_l = (-1)^l w_l M_0
    designs = ([_generic_design(random.Random(seed)) for seed in range(4)]
               if ring == "numeric" else [_ring_unit(ring)[0]])
    for design in designs:
        split = leg_split(design)
        w = f_row_weights(design, split)
        assert all(w)
        mat = f_coefficient_matrix(design, split=split)
        assert det(mat[1:]).is_zero()
        minors = [det([mat[r] for r in range(5) if r not in (0, l + 1)])
                  for l in range(4)]
        assert not minors[0].is_zero()
        for l, m in enumerate(minors):
            assert w[0] * m == (-1) ** l * w[l] * minors[0]


def test_rank_drop_T_takes_one_minor_and_one_division_by_N(monkeypatch):
    design = _generic_design(random.Random(43))
    dets, divisors = [], []
    real_div = MPoly.exact_div

    def counting_det(rows):
        dets.append(rows)
        return det(rows)

    def counting_div(self, d):
        divisors.append(d)
        return real_div(self, d)

    monkeypatch.setattr(study, "det", counting_det)
    monkeypatch.setattr(MPoly, "exact_div", counting_div)
    rank_drop_T(design)
    assert len(dets) == 1
    assert [d for d in divisors if d == N_poly()] == [N_poly()]


def _perturbed_det(kind):
    """det for rank_drop_T's one minor, with one check broken."""
    n, e0 = N_poly(), GENS["e0"]

    def fake(rows):
        minor = det(rows)
        if kind == "not-N":
            return minor + e0
        if kind == "closed-form":
            return n * e0 * e0
        # terms outside the e-quadratic monomials, on top of a good minor
        if kind == "parameter-term":
            return minor + n * GENS["A4"]
        return minor + n * e0 ** 3

    return fake


@pytest.mark.parametrize("kind, message", [
    ("f-row", "f1 survives"), ("zero-weight", "w1 vanishes"),
    ("not-N", "multiple of N"), ("closed-form", "closed form"),
    ("parameter-term", "closed form"), ("e-cubic-term", "closed form")])
def test_rank_drop_checks_are_typed(monkeypatch, kind, message):
    design = _generic_design(random.Random(43))
    if kind == "zero-weight":
        # U3 = V - B4 = 0, a base BaseParams rejects: the dependency still
        # holds, but w_0 M_1 = -w_1 M_0 makes the minor rank_drop_T takes
        # vanish
        design = dataclasses.replace(
            design, A5=(design.B4 + design.A4 * design.B5) / design.B4)
    split = leg_split(design)
    if kind == "f-row":
        row, c = split[4]
        split[4] = ((row[0], row[1] + GENS["e0"]) + row[2:], c)
    elif kind != "zero-weight":
        monkeypatch.setattr(study, "det", _perturbed_det(kind))
    with pytest.raises(InvariantViolation, match=message) as exc:
        rank_drop_T(design, split=split)
    assert isinstance(exc.value, NotFFree) == (kind == "f-row")


# -------------------------------------------------------------------- F1 and F2

def test_F2_zero_iff_identity_map():
    design = WORKED
    _, f2 = f1_f2(design)
    assert f2.is_zero()
    rng = random.Random(23)
    for _ in range(8):
        mu = random_mu(rng)
        if mu == (1, 0, 1):
            continue
        design = CanonicalDesign.from_params(random_base(rng), mu=mu)
        _, f2 = f1_f2(design)
        assert not f2.is_zero()


def test_F1_never_zero_on_valid_designs():
    rng = random.Random(29)
    for _ in range(20):
        design = CanonicalDesign.from_params(random_base(rng), mu=random_mu(rng))
        f1, _ = f1_f2(design)
        assert not f1.is_zero()


def test_F1_degeneracy_certificate():
    cert = f1_degeneracy_certificate()
    A = GENS["A5"] - GENS["A4"] + 1
    B = GENS["B4"] - GENS["B5"]
    assert cert == -2 * GENS["mu3"] * B * B * (A * A + B * B)


# ---------------------------------------------------------------------- ansatz

def test_ansatz_forces_zero_on_worked_design():
    design = WORKED
    report = tangency_ansatz(compute_Ke(design))
    assert report.forces_all_zero()
    assert "q03" in report.branch_a.obstructions
    assert "q03_square" in report.branch_b.obstructions


def test_ansatz_forces_zero_on_draws():
    rng = random.Random(31)
    for _ in range(4):
        design = CanonicalDesign.from_params(random_base(rng), mu=random_mu(rng))
        report = tangency_ansatz(compute_Ke(design))
        assert report.forces_all_zero()
        assert report.branch_a.forced == {"nu1": 0, "nu2": 0}
        assert report.branch_b.forced == {"nu0": 0, "nu3": 0}


def test_ansatz_sanity_branch_b():
    g = GENS
    ke = QuadricForm(-N_poly() - g["e0"] * g["e0"])
    with pytest.raises(AnsatzSolvable) as exc:
        tangency_ansatz(ke)
    assert exc.value.branch == "nu1=nu2=0"
    assert exc.value.witness["nu0"] == 1


def test_ansatz_witness_that_fails_its_check_is_an_invariant_violation(
        monkeypatch):
    # with N read as 2N the branch's requirements still hold, but its
    # witness leaves K_e + nu*N + lin^2 = N; that is a failed identity,
    # not a solvable branch without a witness
    g = GENS
    ke = QuadricForm(-N_poly() - g["e0"] * g["e0"])
    real = study.N_poly
    monkeypatch.setattr(study, "N_poly", lambda: 2 * real())
    with pytest.raises(InvariantViolation, match="nu1=nu2=0"):
        tangency_ansatz(ke)


def test_ansatz_sanity_branch_a():
    g = GENS
    lin = g["e1"] + g["e2"]
    ke = QuadricForm(-N_poly() - lin * lin)
    with pytest.raises(AnsatzSolvable) as exc:
        tangency_ansatz(ke)
    assert exc.value.branch == "nu0=nu3=0"
    assert abs(exc.value.witness["nu1"]) == 1
    assert abs(exc.value.witness["nu2"]) == 1


# ------------------------------------------------------------- resultant chain

def _generic_design(rng):
    return CanonicalDesign.from_params(
        random_base(rng), mu=random_mu(rng),
        radii=tuple(random_fraction(rng, 1, 6, 4) for _ in range(5)))


def test_chain_matches_F1F2_on_draws():
    rng = random.Random(37)
    for _ in range(3):
        design = _generic_design(rng)
        ke = compute_Ke(design)
        td = rank_drop_T(design)
        chain = resultant_chain(ke, td.T, design)
        assert chain.factor_match, chain.gcd.to_str()
        assert not chain.gcd.is_zero()


def test_chain_vanishes_identically_at_identity_map():
    design = WORKED
    ke = compute_Ke(design)
    td = rank_drop_T(design)
    chain = resultant_chain(ke, td.T, design)
    assert chain.gcd.is_zero()
    assert chain.factor_match


def test_chain_with_symbolic_r1sq_matches_F1F2():
    design = CanonicalDesign.from_params(
        BaseParams(Fraction(-1, 2), Fraction(3), Fraction(1), Fraction(-4, 3)),
        mu=(Fraction(2), Fraction(-1, 3), Fraction(1, 2)),
        radii=(GENS["r1sq"], Fraction(2), Fraction(3), Fraction(5, 2),
               Fraction(4)))
    chain = resultant_chain(compute_Ke(design), rank_drop_T(design).T, design)
    assert chain.res_e3["s_TN"].degree_in("r1sq") > 0
    assert not chain.gcd.is_zero()
    assert chain.gcd.degree_in("r1sq") == 0
    assert chain.factor_match, chain.gcd.to_str()
    assert chain.factor_match == radical_match(chain)
    assert chain.gcd == fold_gcd(chain)


@pytest.mark.parametrize("mu, conclusion", [
    ((Fraction(3, 2), Fraction(1, 5), Fraction(-2)),
     "no two-parameter self-motion"),
    (None, "two-parameter self-motion (platform map is the identity)")],
    ids=["generic-mu", "identity-mu"])
def test_pipeline_over_the_radii_ring(monkeypatch, mu, conclusion):
    # all five squared radii stay symbolic, so the chain's gcd is taken over
    # the radii ring and the conclusion holds for every choice of radii
    design = CanonicalDesign.from_params(
        BaseParams(Fraction(1, 3), Fraction(-2), Fraction(5, 2), Fraction(7)),
        mu=mu)
    assert all(isinstance(r, MPoly) for r in design.radii)
    chains = _record_chains(monkeypatch)
    report = pipeline_report(design)
    assert report["conclusion"] == conclusion
    assert report["chain"]["factors"]["match"] is True
    assert not any(r in report["chain"]["gcd"] for r in RADII_SYMBOLS)
    [chain] = chains
    assert chain.factor_match == radical_match(chain)
    assert chain.gcd == fold_gcd(chain)


# -------------------------------------- factor_match against a radical oracle

def _derivative(p: MPoly, var: str) -> MPoly:
    i = p.vars.index(var)
    return MPoly.from_exponents(p.vars, {
        exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
        for exps, c in p.monomials() if exps[i]})


def radical_part(p: MPoly, variables=("e1", "e2")) -> MPoly:
    """Product of the distinct irreducible factors of p that involve the
    variables, monic: p over gcd(p, dp/dv for v in variables)."""
    if p.is_zero() or p.degree() == 0:
        return p
    g = p
    for v in variables:
        g = gcd(g, _derivative(p, v))
    return p.exact_div(g).monic()


def radical_match(chain) -> bool:
    """The radical claim: the gcd and F1 * F2 have equal radicals."""
    g, expected = chain.gcd, chain.expected
    if g.is_zero() or expected.is_zero():
        return g.is_zero() and expected.is_zero()
    return radical_part(g) == radical_part(expected)


def fold_gcd(chain) -> MPoly:
    """The chain gcd folded over the full polynomials s_TN, s_KeN and
    s_KeT, smallest first, with no cofactor step: resultant_chain's oracle."""
    a, b, c = sorted(chain.res_e3.values(), key=lambda p: p.term_count)
    return gcd(gcd(a, b), c)


def _record_chains(monkeypatch) -> list:
    chains, real = [], study.resultant_chain

    def recording(ke, t, design):
        chains.append(real(ke, t, design))
        return chains[-1]

    monkeypatch.setattr(study, "resultant_chain", recording)
    return chains


def test_factor_match_agrees_with_the_radical_oracle_on_draws():
    # every fifth draw has mu1 = 1 or mu3 = -1, where F2 splits off e1 or
    # e2 and the gcd has e-degree 5 instead of 4 (more draws hit mu3 = -1
    # by chance, and one has degree 6)
    rng = random.Random(53)
    degrees = []
    while len(degrees) < 100:
        mu1, mu2, mu3 = random_mu(rng)
        if len(degrees) % 10 == 0:
            mu1 = Fraction(1)
        elif len(degrees) % 10 == 5:
            mu3 = Fraction(-1)
        if mu2 == 0 and mu3 == -mu1:
            continue  # the chain stops with ZeroDegree there (known defect)
        design = CanonicalDesign.from_params(
            random_base(rng), mu=(mu1, mu2, mu3),
            radii=tuple(random_fraction(rng, 1, 6, 4) for _ in range(5)))
        chain = resultant_chain(compute_Ke(design), rank_drop_T(design).T,
                                design)
        assert chain.factor_match == radical_match(chain), design
        assert chain.gcd == fold_gcd(chain), design
        degrees.append(chain.gcd.degree())
    assert degrees.count(5) >= 20 and degrees.count(4) >= 60


@pytest.mark.parametrize("argv", [
    ["pipeline", "{worked}"],
    ["pipeline", "--params", "1/3,-2,5/2,7", "--mu", "3/2,1/5,-2",
     "--radii", "1,2,3,4,5"]], ids=["pipeline", "pipeline_generic"])
def test_factor_match_agrees_with_the_radical_oracle_on_the_goldens(
        monkeypatch, tmp_path, capsys, argv):
    design = worked_design()
    worked = tmp_path / "worked.json"
    worked.write_text(json.dumps(design_to_dict(design,
                                                duporcq_hexapod(design))))
    chains = _record_chains(monkeypatch)
    assert main([a.format(worked=worked) for a in argv]) == 0
    capsys.readouterr()
    [chain] = chains
    assert chain.factor_match is True
    assert chain.factor_match == radical_match(chain)
    assert chain.gcd == fold_gcd(chain)


def test_factor_match_is_a_divisibility_test():
    # _factor_match(X, E) is the match of a chain gcd E * X, for X the gcd
    # of the cofactors s_i / E; F1 not dividing the gcd is the case where E
    # does not divide the s_i (see the wrong-F2 test below)
    e1, e2, a4 = GENS["e1"], GENS["e2"], GENS["A4"]
    one = MPoly.const(STUDY_VARS, 1)
    base = BaseParams(Fraction(1, 3), Fraction(-2), Fraction(5, 2), Fraction(7))
    f1, f2 = f1_f2(CanonicalDesign.from_params(
        base, mu=(Fraction(3, 2), Fraction(1, 5), Fraction(-2))))
    prod = f1 * f2
    assert _factor_match(one, prod)
    assert _factor_match(f1 * f2 ** 3, prod)
    assert _factor_match(3 + a4, prod)  # e-free content
    # a factor off F1 * F2 divides
    assert not _factor_match(e1 + 5 * e2, prod)
    # with mu1 = 1, F2 = e1 * L: a cofactor built from e1 and L matches,
    # also under a content over (e1, e2)
    f1, f2 = f1_f2(CanonicalDesign.from_params(
        base, mu=(Fraction(1), Fraction(1, 5), Fraction(-2))))
    lin = f2.exact_div(e1)
    assert lin.degree() == 1
    prod = f1 * f2
    assert _factor_match(e1 ** 3, prod)
    assert _factor_match(a4 * (1 + a4) * lin ** 2, prod)
    assert not _factor_match(a4 * e1 * (e1 + e2), prod)


def test_chain_match_takes_one_exact_division_past_the_cofactors(monkeypatch):
    # three divisions s_i / (F1 * F2) and one check that the cofactor gcd
    # divides c * (F1 * F2)^k
    real = MPoly.exact_div

    def counting(self, divisor):
        calls.append(divisor)
        return real(self, divisor)

    rng = random.Random(43)
    for design in (_generic_design(rng) for _ in range(5)):
        ke, t = compute_Ke(design), rank_drop_T(design).T
        calls = []
        monkeypatch.setattr(MPoly, "exact_div", counting)
        chain = resultant_chain(ke, t, design)
        monkeypatch.undo()
        assert chain.factor_match and not chain.gcd.is_zero()
        assert len(calls) == 4
        assert calls[:3] == [chain.expected] * 3


def test_chain_on_the_stratum_where_F1_and_F2_share_e1():
    # mu1 = 1 makes e1 a factor of F2, and mu2 = A (1 + mu3) / B kills
    # F1's e1^2 - e2^2 coefficient, so F1 = c * e1 * e2: the cofactor step
    # still divides, and the gcd carries e1^2 beyond F1 * F2
    rng = random.Random(7)
    for _ in range(12):
        base = random_base(rng)
        while True:
            mu3 = random_fraction(rng, -4, 4, 4)
            if mu3 not in (0, -1):
                break
        A, B = base.A5 - base.A4 + 1, base.B4 - base.B5
        design = CanonicalDesign.from_params(
            base, mu=(Fraction(1), A * (1 + mu3) / B, mu3),
            radii=tuple(random_fraction(rng, 1, 6, 4) for _ in range(5)))
        for f in f1_f2(design):
            f.exact_div(GENS["e1"])
        chain = resultant_chain(compute_Ke(design), rank_drop_T(design).T,
                                design)
        for s in chain.res_e3.values():
            s.exact_div(chain.expected)
        assert chain.factor_match, design
        assert chain.factor_match == radical_match(chain)
        assert chain.gcd.degree() == 6
        assert chain.gcd == fold_gcd(chain)


def test_chain_match_takes_no_gcd_but_the_fold(monkeypatch):
    # the chain's only gcd is one call over its three cofactors; the match
    # with F1 * F2 comes from exact divisions
    design = _generic_design(random.Random(43))
    ke, t = compute_Ke(design), rank_drop_T(design).T
    calls = []

    def counting(*ops):
        calls.append(ops)
        return gcd(*ops)

    monkeypatch.setattr(study, "gcd", counting)
    chain = resultant_chain(ke, t, design)
    assert chain.factor_match and not chain.gcd.is_zero()
    assert [len(ops) for ops in calls] == [3]


def test_chain_gcd_equals_the_fold_on_draws():
    # one draw in four has the identity mu (F1 * F2 = 0, so the gcd runs
    # over the full polynomials), one in four mu3 = -1 (e-degree 5)
    rng = random.Random(59)
    degrees = []
    while len(degrees) < 16:
        mu = random_mu(rng)
        if len(degrees) % 4 == 0:
            mu = None
        elif len(degrees) % 4 == 1:
            mu = mu[:2] + (Fraction(-1),)
        design = CanonicalDesign.from_params(
            random_base(rng), mu=mu,
            radii=tuple(random_fraction(rng, 1, 6, 4) for _ in range(5)))
        try:
            chain = resultant_chain(compute_Ke(design),
                                    rank_drop_T(design).T, design)
        except ZeroDegree:
            # an operand constant in e0 or e3 (known defect: on mu2 = 0,
            # mu3 = -mu1, and on mu = (-1, 0, -1), where T is e0-free)
            continue
        assert chain.gcd == fold_gcd(chain), design
        assert chain.factor_match
        degrees.append(chain.gcd.degree() if chain.gcd else None)
    assert degrees.count(None) == 4 and 5 in degrees and 4 in degrees


def test_chain_gcd_without_the_cofactor_step_when_F2_is_wrong(monkeypatch):
    # a wrong F2 does not divide the chain polynomials, so E = 1: the gcd
    # is still the fold's, and the match fails
    real = study.f1_f2

    def wrong(design):
        f1, f2 = real(design)
        return f1, f2 + GENS["e1"] * GENS["e1"]

    monkeypatch.setattr(study, "f1_f2", wrong)
    design = _generic_design(random.Random(43))
    chain = resultant_chain(compute_Ke(design), rank_drop_T(design).T, design)
    with pytest.raises(NotDivisible):
        for s in chain.res_e3.values():
            s.exact_div(chain.expected)
    assert not chain.expected.is_zero()
    assert chain.gcd == fold_gcd(chain)
    assert not chain.gcd.is_zero()
    assert chain.factor_match is False


def _A4_ring_design():
    return dataclasses.replace(CanonicalDesign.from_params(
        BaseParams(Fraction(1, 3), Fraction(-2), Fraction(5, 2), Fraction(7)),
        mu=(Fraction(3, 2), Fraction(1, 5), Fraction(-2)),
        radii=tuple(Fraction(k) for k in range(1, 6))), A4=GENS["A4"])


def test_chain_polynomials_over_the_A4_ring_carry_F1_and_F2_once():
    # the divisibility half of the chain identity with A4 symbolic: F1 and
    # F2 each divide s_TN, s_KeN and s_KeT to power exactly 1 over Q[A4]
    design = _A4_ring_design()
    split = leg_split(design)
    _, res_e3 = _eliminate(compute_Ke(design, split=split).poly,
                           rank_drop_T(design, split=split).T.poly, N_poly())
    f1, f2 = f1_f2(design)
    assert f1.degree_in("A4") > 0
    assert {k: s.term_count for k, s in res_e3.items()} == {
        "s_TN": 183, "s_KeN": 49, "s_KeT": 93}
    for s in res_e3.values():
        for f in (f1, f2):
            with pytest.raises(NotDivisible):
                s.exact_div(f).exact_div(f)


def test_chain_identity_over_the_A4_ring():
    # the whole identity with A4 symbolic: the computed gcd is F1 * F2
    # times a factor free of e, a unit over Q(A4); the gcd of the cofactors
    # s_i / (F1 * F2) takes well under a second, where the fold over the
    # squares s_i^2 ran past 150 s
    design = _A4_ring_design()
    split = leg_split(design)
    chain = resultant_chain(compute_Ke(design, split=split),
                            rank_drop_T(design, split=split).T, design)
    assert chain.factor_match
    unit = chain.gcd.exact_div(chain.expected)
    assert not unit.is_zero()
    assert all(unit.degree_in(v) == 0 for v in E_VARS)
    assert unit.degree_in("A4") > 0


def _ring_unit(name: str) -> tuple:
    """A design on base 1/3,-2,5/2,7 with the named ring's parameters
    symbolic, and the e-free unit its chain gcd carries over F1 * F2."""
    base = BaseParams(Fraction(1, 3), Fraction(-2), Fraction(5, 2), Fraction(7))
    mu = tuple(GENS[m] for m in ("mu1", "mu2", "mu3"))
    radii = tuple(Fraction(k) for k in range(1, 6))
    if name.startswith("A4"):
        design = _A4_ring_design()
        if name == "A4-B4":
            design = dataclasses.replace(design, B4=GENS["B4"])
        # B4 * U1 * U2, zero exactly on bases BaseParams rejects: B4 = 0,
        # B4 = B5 (M3 at infinity), V = 0 and U1's and U2's other factors
        return design, design.B4 * design.U1 * design.U2
    design = CanonicalDesign.from_params(
        base, mu=mu, radii=radii if name == "mu" else None)
    return design, mu[0] * mu[2]


@pytest.mark.parametrize("ring", ["A4", "mu", "mu-radii", "A4-B4"])
def test_chain_identity_on_parameter_rings(ring):
    # the paper's identity gcd(s_TN, s_KeN, s_KeT) = F1 * F2 up to a unit
    # of the ring's fraction field, with A4, mu, mu and the squared radii,
    # or A4 and B4 symbolic: the unit is free of e and a constant times
    # mu1*mu3 or the base's degeneracy product
    design, unit = _ring_unit(ring)
    split = leg_split(design)
    chain = resultant_chain(compute_Ke(design, split=split),
                            rank_drop_T(design, split=split).T, design)
    assert chain.factor_match
    quotient = chain.gcd.exact_div(chain.expected)
    assert all(quotient.degree_in(v) == 0 for v in E_VARS)
    assert quotient.term_count == {"A4": 4, "A4-B4": 13}.get(ring, 1)
    assert quotient.exact_div(unit).degree() == 0


def _sylvester(p: MPoly, q: MPoly, var: str) -> list:
    """The full Sylvester matrix of p and q in var, from every coefficient
    of var, p's rows first."""
    m, n = p.degree_in(var), q.degree_in(var)
    zero = MPoly.zero(STUDY_VARS)
    pc, qc = p.coefficients((var,)), q.coefficients((var,))
    prow = [pc.get((e,), zero) for e in range(m, -1, -1)]
    qrow = [qc.get((e,), zero) for e in range(n, -1, -1)]
    return ([[zero] * i + prow + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + qrow + [zero] * (m - 1 - i) for i in range(m)])


# each chain polynomial s_i and the two e0 resultants it eliminates e3 from
E3_OPERANDS = {"s_TN": ("R_T", "R_N"), "s_KeN": ("R_Ke", "R_N"),
               "s_KeT": ("R_Ke", "R_T")}


@pytest.mark.parametrize("name", ["worked", "seed61-0"])
def test_chain_eliminates_e3_through_its_square(name, monkeypatch):
    # R_Ke, R_T and R_N are polynomials in e3^2, so the chain deflates them
    # and each s_i is a Sylvester determinant in e3^2 of at most 3 rows,
    # where the matrix in e3 has up to 6; s_i squared is the full-size
    # one (on WORKED, R_N vanishes and only s_KeT takes a resultant)
    design = _split_design(name)
    split = leg_split(design)
    ke, t = compute_Ke(design, split=split), rank_drop_T(design, split=split).T
    dets, calls = [], []
    real_det, real_resultant = exactpoly.det, study.resultant

    def recording_det(rows):
        dets.append(len(rows))
        return real_det(rows)

    def recording_resultant(p, q, var):
        start = len(dets)
        out = real_resultant(p, q, var)
        calls.append((var, dets[start:]))
        return out

    monkeypatch.setattr(exactpoly, "det", recording_det)
    monkeypatch.setattr(study, "resultant", recording_resultant)
    chain = resultant_chain(ke, t, design)
    monkeypatch.undo()
    e3 = iter([sizes for var, sizes in calls if var == "e3"])
    full_sizes = []
    for s, (a, b) in E3_OPERANDS.items():
        ra, rb = chain.res_e0[a], chain.res_e0[b]
        if ra.is_zero() or rb.is_zero():
            assert chain.res_e3[s].is_zero()
            continue
        full = _sylvester(ra, rb, "e3")
        full_sizes.append(len(full))
        assert next(e3) == [len(full) // 2]
        assert chain.res_e3[s] ** 2 == det(full)
    assert next(e3, None) is None
    assert max(full_sizes) == 6


def _rec3_file_twin(tmp_path) -> CanonicalDesign:
    """The canonical kappa_2 twin of a rec3 design file, read as the
    pipeline command reads it: a seeded generic kappa_2 design with legs 4
    and 5 exchanged."""
    rng = random.Random(43)
    mu1, mu2, mu3 = random_mu(rng)
    base, mu = random_base(rng), AffineMap2(abs(mu1), mu2, mu3)
    radii = tuple(random_fraction(rng, 1, 6, 4) for _ in range(5))
    path = tmp_path / "rec3.json"
    path.write_text(json.dumps(design_to_dict(PentapodDesign(*map(swap_4_5, (
        base.points, build_platform(base, mu), radii))))))
    case, twin = kappa2_twin(load_design(str(path))[0])
    assert case == 3
    params = BaseParams.from_points(twin.base)
    return CanonicalDesign.from_params(
        params, mu=kappa2_mu(params, twin.platform), radii=twin.radii2)


def test_Ke_and_T_terms_over_the_full_ring():
    # K_e is even and T odd under (e0, e3) -> (-e0, -e3), as N is even
    design = CanonicalDesign.symbolic()
    ke = compute_Ke(design)
    t = rank_drop_T(design).T
    assert {k for k, c in ke.coeffs.items() if c} <= {
        (0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2)}
    assert {k for k, c in t.coeffs.items() if c} <= {
        (0, 1), (0, 2), (1, 3), (2, 3)}


@pytest.mark.parametrize("name", ["worked", "generic", "identity-mu", "rec3"])
def test_e0_resultants_are_polynomials_in_e3_squared(name, tmp_path):
    # from that symmetry each e0 resultant of two of K_e, T and N is even
    # in e3: the chain deflates each by e3^2 -> e3 (deflate raises where an
    # exponent is odd) and keeps s_i, the square root of the e3 resultant
    rng = random.Random(47)
    design = {
        "worked": lambda: WORKED,
        "generic": lambda: _generic_design(rng),
        "identity-mu": lambda: CanonicalDesign.from_params(
            random_base(rng),
            radii=tuple(random_fraction(rng, 1, 6, 4) for _ in range(5))),
        "rec3": lambda: _rec3_file_twin(tmp_path),
    }[name]()
    split = leg_split(design)
    res_e0, _ = _eliminate(compute_Ke(design, split=split).poly,
                           rank_drop_T(design, split=split).T.poly, N_poly())
    assert sum(r.degree_in("e3") > 0 for r in res_e0.values()) >= 2
    for r in res_e0.values():
        assert all(e % 2 == 0 for (e,) in r.coefficients(("e3",)))


def test_chain_locus_samples():
    rng = random.Random(41)
    on, off = 0, 0
    while on < 4 or off < 4:
        base = random_base(rng)
        radii = tuple(random_fraction(rng, 1, 6, 4) for _ in range(5))
        e1 = random_fraction(rng)
        e2 = random_fraction(rng)
        if e1 == 0 or e2 == 0:
            continue
        mu1, mu3 = random_mu(rng)[0], random_mu(rng)[2]
        mu2_on = ((1 + mu1) * (mu3 - 1) * e1 ** 2
                  + (1 + mu3) * (mu1 - 1) * e2 ** 2) / (2 * e1 * e2)
        try:
            if on < 4:
                design = CanonicalDesign.from_params(
                    base, mu=(mu1, mu2_on, mu3), radii=radii)
                assert chain_vanishes_at(design, e1, e2)
                on += 1
            else:
                design = CanonicalDesign.from_params(
                    base, mu=(mu1, mu2_on + 1, mu3), radii=radii)
                f1, f2 = f1_f2(design)
                a = {"e1": e1, "e2": e2}
                if f1.evaluate(a).is_zero() or f2.evaluate(a).is_zero():
                    continue
                assert not chain_vanishes_at(design, e1, e2)
                off += 1
        except ZeroDegree:
            continue


def test_pipeline_stays_in_fraction_coefficients():
    design = _generic_design(random.Random(43))
    ke = compute_Ke(design)
    td = rank_drop_T(design)
    chain = resultant_chain(ke, td.T, design)
    polys = [ke.poly, td.T.poly, chain.gcd, *chain.res_e0.values(),
             *chain.res_e3.values()]
    assert not chain.gcd.is_zero()
    for p in polys:
        assert all(isinstance(c, Fraction) for c in p.terms.values())


def test_pipeline_report_solvable_ansatz(monkeypatch):
    witness = {"nu": Fraction(-1), "nu0": Fraction(1), "nu1": Fraction(0),
               "nu2": Fraction(0), "nu3": Fraction(1, 2)}

    def solvable(ke):
        raise AnsatzSolvable("nu1=nu2=0", witness)

    monkeypatch.setattr("duporcq.study.tangency_ansatz", solvable)
    report = pipeline_report(_generic_design(random.Random(43)))
    assert report["ansatz"] == {
        "solvable_branch": "nu1=nu2=0",
        "witness": {"nu": "-1", "nu0": "1", "nu1": "0", "nu2": "0",
                    "nu3": "1/2"},
    }


@pytest.mark.parametrize("design, gcd_value", [
    (_generic_design(random.Random(43)), MPoly.zero(STUDY_VARS)),
    (WORKED, GENS["e1"])],
    ids=["generic-vanishing-gcd", "identity-nonzero-gcd"])
def test_pipeline_conclusion_comes_from_the_chain(monkeypatch, design,
                                                  gcd_value):
    # evidence that contradicts F2's closed form is an invariant failure,
    # not a conclusion read off F2 alone
    real = study.resultant_chain

    def forged(ke, t, d):
        return dataclasses.replace(real(ke, t, d), gcd=gcd_value)

    monkeypatch.setattr(study, "resultant_chain", forged)
    with pytest.raises(InvariantViolation, match="disagree"):
        pipeline_report(design)


def test_pipeline_report_shape():
    rng = random.Random(43)
    report = pipeline_report(_generic_design(rng))
    assert set(report) == {"conclusion", "ansatz", "Ke", "T", "F1F2", "chain"}
    assert set(report["Ke"]) == {"terms", "e0e3_ratio"}
    assert set(report["T"]["epsilons"]) == {"eps01", "eps02", "eps13", "eps23"}
    assert report["chain"]["factors"]["expected"] == "F1^2*F2^2"
    assert report["chain"]["factors"]["match"] is True
    assert report["ansatz"]["forces_all_zero"] is True
    assert report["conclusion"] == "no two-parameter self-motion"
