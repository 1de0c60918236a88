import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duporcq.geometry import (
    AffineMap2,
    BaseParams,
    Candidate,
    CoincidentBase,
    DegenerateBase,
    DegeneratePlatform,
    HexapodDesign,
    InvariantViolation,
    NotCollinear,
    NotDuporcq,
    PentapodDesign,
    PlanarPoint,
    SchemaError,
    affine_match,
    build_platform,
    collinear,
    cross,
    design_from_dict,
    design_to_dict,
    dist2,
    duporcq_hexapod,
    intersect_lines,
    kappa2_twin,
    load_design,
    platform_m3_closed_form,
    reconstruct_candidates,
    swap_4_5,
    tv_ratio,
    worked_design,
)

WORKED = BaseParams(0, 1, 2, 3)


def P(x, y):
    return PlanarPoint(Fraction(x), Fraction(y))


rational = st.fractions(min_value=-6, max_value=6, max_denominator=4)
positive = st.fractions(min_value=Fraction(1, 4), max_value=4,
                        max_denominator=4)


def twin_base(base: BaseParams) -> BaseParams:
    """The canonical base with (A4, B4) and (A5, B5) exchanged."""
    return BaseParams(base.A5, base.B5, base.A4, base.B4)


def kappa3_platform(base: BaseParams, A: AffineMap2) -> tuple:
    """The kappa_3 platform of base: the kappa_2 platform of its twin base,
    relabelled."""
    return swap_4_5(build_platform(twin_base(base), A))


# ------------------------------------------------------------ canonical base

def test_canonical_base_worked():
    assert WORKED.points == (P(0, 0), P(1, 0), P(-1, 0), P(0, 1), P(2, 3))
    assert (WORKED.U1, WORKED.U2, WORKED.U3) == (-16, 5, 1)


def test_base_triples_collinear():
    pts = WORKED.points
    assert collinear(pts[0], pts[1], pts[2])
    assert collinear(pts[2], pts[3], pts[4])


@pytest.mark.parametrize("args", [
    (0, 0, 2, 3),        # B4 = 0
    (0, 3, 2, 3),        # B4 = B5
    (0, 1, 0, -1),       # V = 0 makes U1 = 0
    (0, 2, Fraction(1, 2), -1),   # U2 = 0
    (1, 1, 2, 1),        # B4 = B5 again, different slot
])
def test_degenerate_base_rejected(args):
    with pytest.raises(DegenerateBase):
        BaseParams(*args)


def test_u2_zero_isolated():
    # A4=0, B4=2, A5=1/2, B5=-1: V=1, U1=-6, U3=-1 but U2=0
    with pytest.raises(DegenerateBase, match="U1,U2,U3"):
        BaseParams(0, 2, Fraction(1, 2), -1)


@given(A4=rational, B4=rational, A5=rational, B5=rational)
@settings(max_examples=120, deadline=None)
def test_u_values_encode_geometry(A4, B4, A5, B5):
    # brute-force meaning of the three nondegeneracy values
    if B4 * B5 == 0 or B4 == B5:
        return
    V = B4 * A5 - A4 * B5
    U1 = (B4 - B5) * V * (V - B4 + B5)
    U2 = V + B5
    U3 = V - B4
    M1, M2 = P(0, 0), P(1, 0)
    M3 = PlanarPoint(V / (B4 - B5), Fraction(0))
    M4, M5 = PlanarPoint(A4, B4), PlanarPoint(A5, B5)
    assert (U1 == 0) == (M3 == M1 or M3 == M2)
    assert (U2 == 0) == (cross(M5 - M1, M4 - M2) == 0)
    assert (U3 == 0) == (cross(M4 - M1, M5 - M2) == 0)


def test_sixth_vertex_worked():
    # the quadrilateral vertex M1M5 ∩ M2M4 completing the canonical base is
    # the hexapod's M6 and the closed-form m3 under the identity mu
    M6 = P(Fraction(2, 5), Fraction(3, 5))
    assert duporcq_hexapod(worked_design()).M6 == M6
    assert platform_m3_closed_form(WORKED, AffineMap2.identity()) == M6


# ------------------------------------------------------------------ affine

def test_affine_map_invariants():
    with pytest.raises(ValueError):
        AffineMap2(0, 1, 1)
    with pytest.raises(ValueError):
        AffineMap2(1, 1, 0)
    with pytest.raises(ValueError):
        AffineMap2(-2, 0, 1)
    ident = AffineMap2.identity()
    assert ident.apply(P(3, -7)) == P(3, -7)


def test_affine_map_apply():
    A = AffineMap2(2, Fraction(1, 2), -1)
    assert A.apply(P(1, 2)) == P(3, -2)


# ------------------------------------------------------------------ platform

def test_build_platform_kappa2_identity():
    plat = build_platform(WORKED, AffineMap2.identity())
    assert plat == (P(0, 1), P(2, 3), P(Fraction(2, 5), Fraction(3, 5)),
                    P(0, 0), P(1, 0))


def test_build_platform_kappa3_identity():
    plat = kappa3_platform(WORKED, AffineMap2.identity())
    assert plat == (P(2, 3), P(0, 1), P(0, -3), P(1, 0), P(0, 0))
    assert plat == tuple(P(x, y) for x, y in FROZEN_CANDIDATES["3"])


def test_platform_case_collinearities():
    plat2 = build_platform(WORKED, AffineMap2.identity())
    m1, m2, m3, m4, m5 = plat2
    assert collinear(m1, m3, m5) and collinear(m2, m3, m4)
    plat3 = kappa3_platform(WORKED, AffineMap2.identity())
    m1, m2, m3, m4, m5 = plat3
    assert collinear(m1, m3, m4) and collinear(m2, m3, m5)


@pytest.mark.parametrize("kappa", [2, 3])
def test_build_platform_collinearity_is_typed(monkeypatch, kappa):
    # an m3 off both carrier lines must fail loudly, also under python -O;
    # the kappa_3 platform is built through its kappa_2 twin, so it must too
    monkeypatch.setattr("duporcq.geometry.intersect_lines",
                        lambda *args: P(7, 11))
    build = build_platform if kappa == 2 else kappa3_platform
    with pytest.raises(InvariantViolation, match="carrier lines"):
        build(WORKED, AffineMap2.identity())


@given(A4=rational, B4=rational, A5=rational, B5=rational, mu1=positive,
       mu2=rational, mu3=rational)
@settings(max_examples=80, deadline=None)
def test_kappa3_design_is_its_kappa2_twin_relabelled(A4, B4, A5, B5, mu1,
                                                      mu2, mu3):
    # the twin base is valid exactly when the base is, with the same M3,
    # V' = -V, U1' = -U1, U2' = -U3 and U3' = -U2
    try:
        base = BaseParams(A4, B4, A5, B5)
    except DegenerateBase:
        with pytest.raises(DegenerateBase):
            BaseParams(A5, B5, A4, B4)
        return
    twin = twin_base(base)
    assert twin.points[2] == base.points[2]
    assert (twin.V, twin.U1, twin.U2, twin.U3) == (
        -base.V, -base.U1, -base.U3, -base.U2)
    if mu3 == 0:
        return
    # the relabelled kappa_2 platform of the twin base is the kappa_3 image
    # of the base: M5->m1, M4->m2, M2->m4, M1->m5 under A, and m3 on the
    # carrier lines m1m4 and m2m5
    A = AffineMap2(mu1, mu2, mu3)
    M1, M2, _, M4, M5 = base.points
    plat = kappa3_platform(base, A)
    m1, m2, m3, m4, m5 = plat
    assert (m1, m2, m4, m5) == tuple(A.apply(M) for M in (M5, M4, M2, M1))
    assert collinear(m1, m3, m4) and collinear(m2, m3, m5)
    # kappa2_twin reads that design as its twin, and the twin as itself
    design = PentapodDesign(base.points, plat, (1, 2, 3, 4, 5))
    twin_design = PentapodDesign(twin.points, build_platform(twin, A),
                                 (1, 2, 3, 5, 4))
    assert kappa2_twin(design) == (3, twin_design)
    assert kappa2_twin(twin_design) == (2, twin_design)
    # at the identity it is slot 3 of the base and the relabelled slot 2bi
    # of the twin base
    try:
        slot3 = {c.tag: c.platform for c in reconstruct_candidates(base)}["3"]
        twin_2bi = {c.tag: c.platform
                    for c in reconstruct_candidates(twin)}["2bi"]
    except DegeneratePlatform:
        return
    assert kappa3_platform(base, AffineMap2.identity()) == slot3 == \
        swap_4_5(twin_2bi)


def test_kappa2_twin_refuses_a_platform_of_neither_case():
    design = worked_design()
    with pytest.raises(NotDuporcq, match="collinearity pattern"):
        kappa2_twin(PentapodDesign(design.base, design.base, design.radii2))


@given(A4=rational, B4=rational, A5=rational, B5=rational, mu1=positive,
       mu2=rational, mu3=rational)
@settings(max_examples=80, deadline=None)
def test_m3_closed_form_matches_intersection(A4, B4, A5, B5, mu1, mu2, mu3):
    if mu3 == 0:
        return
    try:
        params = BaseParams(A4, B4, A5, B5)
    except DegenerateBase:
        return
    A = AffineMap2(mu1, mu2, mu3)
    try:
        plat = build_platform(params, A)
    except Exception:
        return
    assert plat[2] == platform_m3_closed_form(params, A)
    # m3 is the image of the base quadrilateral vertex
    assert plat[2] == A.apply(
        platform_m3_closed_form(params, AffineMap2.identity()))


# ------------------------------------------------------------------ tv_ratio

def test_tv_ratio_worked():
    pts = WORKED.points
    assert tv_ratio(pts[0], pts[1], pts[2]) == -1


def test_tv_ratio_errors():
    with pytest.raises(CoincidentBase):
        tv_ratio(P(1, 1), P(1, 1), P(0, 0))
    with pytest.raises(NotCollinear):
        tv_ratio(P(0, 0), P(1, 0), P(0, 1))


def test_tv_ratio_vertical_line():
    assert tv_ratio(P(2, 0), P(2, 1), P(2, 5)) == 5


@given(x=rational, y=rational, r=rational,
       mu1=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
       mu2=rational, mu3=rational, tx=rational, ty=rational)
@settings(max_examples=80, deadline=None)
def test_tv_ratio_affine_invariant(x, y, r, mu1, mu2, mu3, tx, ty):
    if mu3 == 0:
        return
    X, Y = P(0, 0), PlanarPoint(x, y)
    if X == Y:
        return
    Z = X + (Y - X).scale(r)
    A = AffineMap2(mu1, mu2, mu3)
    t = PlanarPoint(tx, ty)
    Xi, Yi, Zi = (A.apply(p) + t for p in (X, Y, Z))
    assert tv_ratio(X, Y, Z) == r
    assert tv_ratio(Xi, Yi, Zi) == r


# ------------------------------------------------------------------ hexapod

def test_duporcq_hexapod_worked():
    design = worked_design()
    hexa = duporcq_hexapod(design)
    assert hexa.M6 == P(Fraction(2, 5), Fraction(3, 5))
    assert hexa.m6 == P(-1, 0)
    # identity congruence: sixth platform point is M3, sixth base point is m3
    assert hexa.m6 == design.base[2]
    assert hexa.M6 == design.platform[2]


def test_hexapod_vertex_sets_match():
    design = worked_design()
    hexa = duporcq_hexapod(design)
    base6 = set(design.base) | {hexa.M6}
    plat6 = set(design.platform) | {hexa.m6}
    assert base6 == plat6


def test_duporcq_hexapod_kappa3():
    base = WORKED.points
    plat = kappa3_platform(WORKED, AffineMap2.identity())
    design = PentapodDesign(base, plat, (1, 1, 1, 1, 1))
    hexa = duporcq_hexapod(design)
    assert hexa.M6 == P(0, -3)
    assert hexa.m6 == P(-1, 0)


def test_duporcq_hexapod_rejects_scaled_platform():
    base = WORKED.points
    plat = build_platform(WORKED, AffineMap2(2, 0, 1))
    design = PentapodDesign(base, plat, (1, 1, 1, 1, 1))
    with pytest.raises(NotDuporcq):
        duporcq_hexapod(design)


def test_duporcq_hexapod_names_the_file_labels():
    # a rec3 file is checked on its kappa_2 twin, and the refusal names the
    # edges in the file's labels: legs 4 and 5 exchanged
    plat = build_platform(WORKED, AffineMap2(2, 1, 3))
    rec2 = PentapodDesign(WORKED.points, plat, (1, 1, 1, 1, 1))
    rec3 = PentapodDesign(*map(swap_4_5, (rec2.base, rec2.platform,
                                          rec2.radii2)))
    for design, edge in ((rec2, "m4m5"), (rec3, "m5m4")):
        with pytest.raises(NotDuporcq) as exc:
            duporcq_hexapod(design)
        assert str(exc.value) == f"edge M1M2 not congruent to {edge}"


def test_duporcq_hexapod_rejects_noncollinear_base():
    design = PentapodDesign(
        (P(0, 0), P(1, 0), P(0, 5), P(0, 1), P(2, 3)),
        worked_design().platform,
        (1, 1, 1, 1, 1))
    with pytest.raises(NotDuporcq):
        duporcq_hexapod(design)


# ----------------------------------------------------------- reconstruction

FROZEN_CANDIDATES = {
    "1a": [(0, 0), (1, 0), (-1, 0), (0, 1), (2, 3)],
    "1b": [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 1), (0, 1),
           (Fraction(2, 3), 1)],
    "2a": [(0, 0), (1, 0), (Fraction(2, 5), Fraction(3, 5)), (0, 1), (2, 3)],
    "2bi": [(0, 1), (2, 3), (Fraction(2, 5), Fraction(3, 5)), (0, 0), (1, 0)],
    "2bii": [(0, 1), (Fraction(-1, 2), Fraction(1, 2)),
             (Fraction(-2, 5), Fraction(2, 5)), (0, 0), (Fraction(-2, 3), 0)],
    "3": [(2, 3), (0, 1), (0, -3), (1, 0), (0, 0)],
}


def test_reconstruct_candidates_worked():
    cands = reconstruct_candidates(WORKED)
    assert [c.tag for c in cands] == ["1a", "1b", "2a", "2bi", "2bii", "3"]
    for c in cands:
        expect = tuple(P(x, y) for x, y in FROZEN_CANDIDATES[c.tag])
        assert c.platform == expect, c.tag


def test_candidate_cases():
    cands = {c.tag: c for c in reconstruct_candidates(WORKED)}
    assert cands["1a"].case == 1 and cands["1b"].case == 1
    assert cands["2a"].case == 2 and cands["2bi"].case == 2
    assert cands["2bii"].case == 2 and cands["3"].case == 3


def test_candidate_2bi_matches_kappa2_platform():
    # slot 2bi is the kappa_2 anchor map M1->m4, M2->m5, M4->m1, M5->m2
    # with the closed-form m3, and slot 3 the kappa_3 one, M5->m1, M4->m2,
    # M2->m4, M1->m5, with the twin base's
    cands = {c.tag: c for c in reconstruct_candidates(WORKED)}
    M1, M2, _, M4, M5 = WORKED.points
    ident = AffineMap2.identity()
    assert cands["2bi"].platform == (
        M4, M5, platform_m3_closed_form(WORKED, ident), M1, M2)
    assert cands["3"].platform == (
        M5, M4, platform_m3_closed_form(twin_base(WORKED), ident), M2, M1)


@given(A4=rational, B4=rational, A5=rational, B5=rational)
@settings(max_examples=60, deadline=None)
def test_candidates_collinearity_pattern(A4, B4, A5, B5):
    try:
        params = BaseParams(A4, B4, A5, B5)
    except DegenerateBase:
        return
    try:
        cands = reconstruct_candidates(params)
    except Exception:
        return
    M1, M2, _, M4, M5 = params.points
    for c in cands:
        m1, m2, m3, m4, m5 = c.platform
        if c.case == 1:
            assert collinear(m1, m2, m3) and collinear(m3, m4, m5)
        elif c.case == 2:
            assert collinear(m1, m3, m5) and collinear(m2, m3, m4)
        else:
            assert collinear(m1, m3, m4) and collinear(m2, m3, m5)
        # the case's parallelism closure: m5 - m2 runs along M5 - M2, and
        # along M4 - M2 for slot 3's m4 - m2
        if c.tag == "3":
            assert cross(m4 - m2, M4 - M2) == 0, c.tag
        else:
            assert cross(m5 - m2, M5 - M2) == 0, c.tag


def _fraction_affine_match(src, dst):
    """affine_match over Fractions: the map through the first spanning
    pivot triple, divided out by det, tested at every point."""
    pivot = next(((j, k) for j in range(1, 5) for k in range(j + 1, 5)
                  if not collinear(src[0], src[j], src[k])), None)
    if pivot is None:
        return False
    (u1, v1), (u2, v2) = ((src[i] - src[0], dst[i] - dst[0]) for i in pivot)
    det = cross(u1, u2)
    a = (v1.x * u2.y - v2.x * u1.y) / det
    b = (v2.x * u1.x - v1.x * u2.x) / det
    c = (v1.y * u2.y - v2.y * u1.y) / det
    d = (v2.y * u1.x - v1.y * u2.x) / det
    return all(PlanarPoint(dst[0].x + a * w.x + b * w.y,
                           dst[0].y + c * w.x + d * w.y) == t
               for w, t in ((s - src[0], t) for s, t in zip(src, dst)))


def test_affine_match_against_fractions():
    # seeded 5-tuples with mixed denominators: an affine image, with an
    # invertible or a singular linear part, matches; moving one coordinate
    # of one image point breaks it; five collinear source points never match
    rng = random.Random(36)

    def frac(den=7):
        return Fraction(rng.randint(-12, 12), rng.randint(1, den))

    def image(points, a, b, c, d):
        tx, ty = frac(), frac()
        return tuple(PlanarPoint(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty)
                     for p in points)

    seen = set()
    for _ in range(60):
        src = tuple(PlanarPoint(frac(), frac()) for _ in range(5))
        a, b, c, d = (frac(5) for _ in range(4))
        singular = rng.random() < 0.5
        if singular:
            k = frac()
            c, d = k * a, k * b
        line = (PlanarPoint(frac(), frac()), PlanarPoint(frac(), frac()))
        on_line = tuple(line[0] + (line[1] - line[0]).scale(frac())
                        for _ in range(5))
        cases = [(src, image(src, a, b, c, d), True),
                 (on_line, image(on_line, a, b, c, d), False)]
        k = rng.randrange(5)
        moved = list(cases[0][1])
        moved[k] = moved[k] + PlanarPoint(*rng.choice(((Fraction(1, 3), 0),
                                                       (0, Fraction(-2, 5)))))
        cases.append((src, tuple(moved), False))
        for x, y, want in cases:
            assert _fraction_affine_match(x, y) == want
            assert affine_match(x, y) == want
            seen.add((want, singular))
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


# ------------------------------------------------------------------ JSON I/O

def test_design_json_roundtrip(tmp_path):
    design = worked_design()
    hexa = duporcq_hexapod(design)
    d = design_to_dict(design, hexa)
    assert d["radii2"] == ["1", "18", "18/25", "1", "18"]
    assert d["base"][2] == ["-1", "0", "0"]
    assert d["sixth"]["M"] == ["2/5", "3/5", "0"]
    path = tmp_path / "design.json"
    path.write_text(json.dumps(d))
    loaded, sixth = load_design(str(path))
    assert loaded == design
    assert sixth == (hexa.M6, hexa.m6)


def test_design_json_no_sixth():
    design = worked_design()
    loaded, sixth = design_from_dict(design_to_dict(design))
    assert loaded == design and sixth is None


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("radii2"),
    lambda d: d["base"].pop(),
    lambda d: d["base"][0].__setitem__(2, "1"),
    lambda d: d["radii2"].__setitem__(0, "1/0"),
    lambda d: d["platform"][0].__setitem__(0, "x"),
    lambda d: d.__setitem__("sixth", {"M": ["0", "0", "0"]}),
])
def test_design_json_schema_errors(mutate):
    d = design_to_dict(worked_design())
    mutate(d)
    with pytest.raises(SchemaError):
        design_from_dict(d)


@pytest.mark.parametrize("key", ["base", "platform", "radii2"])
@pytest.mark.parametrize("value", [5, "12345", {"a": 1}, None])
def test_design_json_non_list_field(key, value):
    d = design_to_dict(worked_design())
    d[key] = value
    with pytest.raises(SchemaError):
        design_from_dict(d)


def test_coincident_points_rejected():
    pts = (P(0, 0), P(1, 0), P(0, 0), P(0, 1), P(2, 3))
    with pytest.raises(SchemaError):
        PentapodDesign(pts, worked_design().platform, (1, 1, 1, 1, 1))


def test_load_design_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_design(str(path))
