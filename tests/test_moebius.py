import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duporcq import moebius
from duporcq.exactpoly import GaussRational, I, MPoly, gcd, generators
from duporcq.geometry import (
    BaseParams,
    IntPoint,
    InvariantViolation,
    PlanarPoint,
    reconstruct_candidates,
)
from duporcq.moebius import (
    AllZero,
    ConicDirection,
    DECISIVE_DIRECTIONS,
    DelPezzoPoint,
    NotCollinearDirection,
    PAIRS,
    PHI_FACTORS,
    SUPPORT,
    ProfileCurve,
    candidate_report,
    collinear_triples,
    cross_ratio,
    del_pezzo,
    dij,
    extended_del_pezzo,
    integral_points,
    line_membership,
    membership_report,
    phi_from_projections,
    picture,
    profile,
    profile_rows,
    project,
    random_directions,
    same_picture,
    special_directions,
)

WORKED = BaseParams(0, 1, 2, 3)
PTS = WORKED.points
# a generic direction: no segment of the worked base is orthogonal to it
C_GEN = ConicDirection(1, 5)


def _conic_t(t):
    """The planar part (2t : 1 - t^2) of c(t) = (2t : 1 - t^2 : i(1 + t^2))."""
    return ConicDirection(2 * t, 1 - t * t)


def _isotropic(points):
    """z = x + i*y, each point projected along c = (1 : i : 0)."""
    return [GaussRational(p.x, p.y) for p in points]


# ----------------------------------------------------------------- structure

def test_phi_factor_table():
    # each phi is a quintic product; each point index appears exactly twice
    for factors in PHI_FACTORS:
        assert len(factors) == 5
        counts = {i: 0 for i in range(1, 6)}
        for (i, j) in factors:
            counts[i] += 1
            counts[j] += 1
        assert all(v == 2 for v in counts.values())


def test_support_sizes():
    triple_line_pairs = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    for pair in PAIRS:
        expected = 4 if pair in triple_line_pairs else 1
        assert len(SUPPORT[pair]) == expected, pair


# ---------------------------------------------------------------- projection

def test_projection_golden():
    assert [str(v) for v in project(PTS, C_GEN)] == ["0", "1", "-1", "5", "17"]


def test_dij_golden():
    assert dij(PTS, C_GEN, 1, 2) == -1
    assert dij(PTS, C_GEN, 5, 4) == 12


def test_dij_rejects_equal_indices():
    with pytest.raises(ValueError):
        dij(PTS, C_GEN, 2, 2)


def test_dij_vanishes_along_segment():
    c = ConicDirection.from_direction((2, 3))
    assert not dij(PTS, c, 1, 5)


def test_conic_direction_invariant():
    # a rational pair (c1 : c2); c3 stays implicit
    assert [f.name for f in dataclasses.fields(ConicDirection)] == ["c1", "c2"]
    c = ConicDirection(Fraction(1, 2), -3)    # kept as given
    assert (c.c1, c.c2) == (Fraction(1, 2), -3) and type(c.c2) is int
    with pytest.raises(ValueError):
        ConicDirection(0, 0)
    # from_direction takes the same rational components, never reading one
    # as a decimal string
    for c1, c2 in ((1, I), (GaussRational(1), 2), (1.0, 2), ("1", 2)):
        with pytest.raises(TypeError):
            ConicDirection(c1, c2)
        with pytest.raises(TypeError, match="rational"):
            ConicDirection.from_direction((c1, c2))


# ----------------------------------------------------------------- pictures

def test_generic_direction_empty_membership():
    p = del_pezzo(PTS, ConicDirection.from_direction((1, 7)))
    assert line_membership(p) == set()
    assert p.zeros() == frozenset()


def test_collinear_triple_direction_all_zero():
    with pytest.raises(AllZero):
        del_pezzo(PTS, ConicDirection.from_direction((1, 0)))


SPECIAL_EXPECT = {
    "d123": ({(4, 5)}, True),
    "d345": ({(1, 2)}, True),
    "d15": ({(1, 5)}, False),
    "d14": ({(1, 4)}, False),
    "d25": ({(2, 5)}, False),
    "d24": ({(2, 4)}, False),
}


def test_special_direction_membership_matrix():
    for name, u in special_directions(PTS):
        want, want_ext = SPECIAL_EXPECT[name]
        c = ConicDirection.from_direction(u)
        try:
            p = del_pezzo(PTS, c)
            ext = False
        except AllZero:
            p = extended_del_pezzo(PTS, u)
            ext = True
        assert ext == want_ext, name
        assert line_membership(p) == {frozenset(x) for x in want}, name


def test_extended_metallic_pattern():
    p = extended_del_pezzo(PTS, (1, 0))
    assert p.zeros() == frozenset({0, 2, 4, 5})
    assert line_membership(p) == {frozenset({4, 5})}


def test_extended_requires_triple_direction():
    with pytest.raises(NotCollinearDirection):
        extended_del_pezzo(PTS, (1, 7))
    with pytest.raises(ValueError):
        extended_del_pezzo(PTS, (0, 0))


def test_collinear_triples_worked():
    assert collinear_triples(PTS) == [(1, 2, 3), (3, 4, 5)]


def test_picture_auto_extends():
    p = picture(PTS, ConicDirection.from_direction((1, 0)))
    assert line_membership(p) == {frozenset({4, 5})}


def test_picture_marks_extended_pictures():
    assert picture(PTS, ConicDirection.from_direction((1, 0))).extended
    assert not picture(PTS, C_GEN).extended


def test_lam_power_is_the_least_vanishing_multiplicity():
    # 0 on plain pictures; on extended ones the least number of vanishing
    # D_ij among the factors of a component, counted at the direction
    seen = Counter()
    tuples = [PTS] + [_seeded_base(seed)[0].points for seed in range(4)]
    for pts in tuples:
        for name, u in special_directions(pts):
            c = ConicDirection.from_direction(u)
            p = picture(pts, c)
            vanishing = {pair for pair in PAIRS if not dij(pts, c, *pair)}
            least = min(sum(pair in vanishing for pair in factors)
                        for factors in PHI_FACTORS)
            assert p.lam_power == (least if p.extended else 0), name
            seen[p.extended, p.lam_power] += 1
    assert set(seen) == {(False, 0), (True, 1)}
    assert picture(PTS, C_GEN).lam_power == 0
    # lam_power takes no part in equality, as extended does not
    p = picture(PTS, ConicDirection.from_direction((1, 0)))
    assert p.extended and p.lam_power == 1
    assert p == DelPezzoPoint(p.phi) == dataclasses.replace(p, lam_power=3)


# -------------------------------------------------------------- same_picture

def test_same_picture_self():
    assert same_picture(PTS, PTS, C_GEN)


def test_same_picture_base_vs_duporcq_platform():
    rec2 = {c.tag: c for c in reconstruct_candidates(WORKED)}["2bi"].platform
    assert same_picture(PTS, rec2, C_GEN)


def test_same_picture_rejects_2bii_at_orange():
    cand = {c.tag: c for c in reconstruct_candidates(WORKED)}["2bii"].platform
    c = ConicDirection.from_direction((-1, 1))   # along M2M4
    assert not same_picture(PTS, cand, c)


# -------------------------------------------------------------- reconstruction

def test_validate_candidates_accepts_exactly_123():
    cands = reconstruct_candidates(WORKED)
    report = candidate_report(WORKED, cands)
    assert [c.tag for c in cands if report[c.tag] is None] == ["1a", "2bi", "3"]


def _picture_along(points, u):
    """The picture of a tuple's integer representative along the planar
    direction u, as candidate_report takes it."""
    return picture(integral_points(points), ConicDirection.from_direction(u))


def test_rejection_paths():
    cands = {c.tag: c for c in reconstruct_candidates(WORKED)}
    rep = candidate_report(WORKED, cands.values())
    assert all(rep[tag] is not None for tag in ("1b", "2a", "2bii"))
    directions = dict(special_directions(PTS))
    # 1b and 2a fail with the triple-line memberships swapped; 2bii fails
    # with the fourth connecting line landing on L15
    for tag, name, base_line, cand_line in (("1b", "d123", {4, 5}, {1, 2}),
                                            ("2a", "d123", {4, 5}, {1, 2}),
                                            ("2bii", "d24", {2, 4}, {1, 5})):
        base_p = _picture_along(PTS, directions[name])
        cand_p = _picture_along(cands[tag].platform, directions[name])
        assert line_membership(base_p) == {frozenset(base_line)}
        assert line_membership(cand_p) == {frozenset(cand_line)}
        assert not base_p.proportional(cand_p)


def test_accepted_match_at_all_special_directions():
    cands = {c.tag: c for c in reconstruct_candidates(WORKED)}
    rep = candidate_report(WORKED, cands.values())
    for tag in ("1a", "2bi", "3"):
        assert rep[tag] is None
        for _, u in special_directions(PTS):
            assert _picture_along(PTS, u).proportional(
                _picture_along(cands[tag].platform, u))


def _projective(c):
    """The primitive integer (c1 : c2) of a direction, first nonzero > 0."""
    g = math.gcd(c.c1, c.c2)
    k = (c.c1 // g, c.c2 // g)
    return k if k > (0, 0) else (-k[0], -k[1])


def test_candidate_report_takes_each_picture_once(monkeypatch):
    # one del_pezzo call per (tuple, projective direction), at no more than
    # the first DECISIVE_DIRECTIONS distinct directions: the base picture is
    # shared by all candidates, and a random direction that repeats a
    # special or an earlier random one is skipped (on the worked base, seed
    # 0 draws t = 0, which is d123's (0 : 1)); a candidate is pictured up
    # to and including its first failing direction, or the last of the
    # capped ones, and at none after it
    calls = Counter()
    kept = []           # keeps each pictured tuple alive, so ids stay unique
    real = moebius.del_pezzo

    def counting(points, c):
        kept.append(points)
        calls[id(points), _projective(c)] += 1
        return real(points, c)

    monkeypatch.setattr(moebius, "del_pezzo", counting)
    for base, seed, samples in ((WORKED, 0, 20), (WORKED, 5, 20),
                                (WORKED, 1, 3), (_seeded_base(1)[0], 0, 20),
                                (_seeded_base(2)[0], 3, 100)):
        calls.clear()
        report = candidate_report(base, reconstruct_candidates(base),
                                  seed=seed, samples=samples)
        pts = base.points
        names = [n for n, _ in special_directions(pts)]
        seen = {_projective(ConicDirection.from_direction(u))
                for _, u in special_directions(pts)}
        for name, c in random_directions(seed, samples):
            if _projective(c) not in seen:
                seen.add(_projective(c))
                names.append(name)
        if (base, seed) == (WORKED, 0):
            assert len(seen) < 26
        if samples == 3:
            assert len(names) < DECISIVE_DIRECTIONS
        else:
            assert len(names) > DECISIVE_DIRECTIONS
        names = names[:DECISIVE_DIRECTIONS]

        def taken(failure):
            return len(names) if failure is None else names.index(failure) + 1

        assert set(calls.values()) == {1}
        assert len(calls) == len(names) + sum(taken(f)
                                              for f in report.values())


def _fraction_report(base, candidates, seed, samples, seen):
    """candidate_report's contract computed on the Fraction tuples and
    Fraction directions, each picture through picture, at every direction
    and with no cap; seen counts the random directions at which a candidate
    matched, and the accepted and rejected slots."""
    pts = base.points
    # the Fraction (u2 : -u1) of each special direction, and c(t)
    directions = [(name, ConicDirection(u.y, -u.x))
                  for name, u in special_directions(pts)]
    directions += [(name, _conic_t(Fraction(name[2:])))
                   for name, _ in random_directions(seed, samples)]
    report = {}
    for cand in candidates:
        report[cand.tag] = None
        for name, c in directions:
            if not picture(pts, c).proportional(picture(cand.platform, c)):
                report[cand.tag] = name
                break
            seen["random_accepted"] += not name.startswith("d")
        seen["rejected" if report[cand.tag] else "accepted"] += 1
    return report


def _special_pictures_agree(base, points, seen):
    """At each special direction of base, the integer representative's
    picture (as candidate_report takes it) has the Fraction picture's line
    membership and extended flag, and is proportional to it; seen counts
    the extended Fraction pictures."""
    for _, u in special_directions(base.points):
        whole = _picture_along(points, u)
        exact = picture(points, ConicDirection(u.y, -u.x))
        assert line_membership(whole) == line_membership(exact)
        assert whole.extended == exact.extended
        assert whole.proportional(exact)
        seen["extended"] += exact.extended


def _fraction(rng, den=5):
    return Fraction(rng.randint(-9, 9), rng.randint(1, den))


def _seeded_base(seed):
    rng = random.Random(seed)
    while True:
        try:
            base = BaseParams(*(_fraction(rng) for _ in range(4)))
            return base, reconstruct_candidates(base), rng
        except ValueError:      # a degenerate base; draw again
            continue


def test_candidate_report_matches_fraction_pictures():
    # every slot of seeded bases, each candidate platform moved by a scale
    # and shift (the same pictures, so accepted slots stay accepted) and by
    # a general affine map, all with denominators; at 3 random directions
    # candidate_report pictures all 9, at 20 and 100 only the first 11
    # distinct ones, and the full scan gives the same report
    seen = Counter()
    dens = set()
    designs = [(WORKED, reconstruct_candidates(WORKED), random.Random(9))]
    designs += [_seeded_base(seed) for seed in range(4)]
    for k, (base, cands, rng) in enumerate(designs):
        pts = base.points
        dens.add(max(v.denominator for p in pts for v in p))
        moved = []
        for cand in cands:
            s, tx, ty = (_fraction(rng) or Fraction(1, 3) for _ in range(3))
            a, b, c, d = (_fraction(rng, 7) for _ in range(4))
            if a * d == b * c:
                a, d = a + 1, d - 1
            scaled = tuple(PlanarPoint(s * p.x + tx, s * p.y + ty)
                           for p in cand.platform)
            mapped = tuple(PlanarPoint(a * p.x + b * p.y + tx,
                                       c * p.x + d * p.y + ty)
                           for p in cand.platform)
            moved += [
                dataclasses.replace(cand, tag=cand.tag + "/s", platform=scaled),
                dataclasses.replace(cand, tag=cand.tag + "/a", platform=mapped),
            ]
        for group in (cands, moved):
            for samples in (3, 20, 100):
                want = _fraction_report(base, group, k, samples, seen)
                assert candidate_report(base, group, seed=k,
                                        samples=samples) == want
            for points in [pts] + [cand.platform for cand in group]:
                _special_pictures_agree(base, points, seen)
    assert dens - {1}
    assert seen["extended"] and seen["random_accepted"]
    assert seen["accepted"] and seen["rejected"]


def test_cross_minors_are_binary_forms_of_degree_ten():
    # the pictures of a pair of 5-tuples over (c1, c2): each cross minor
    # phi_k psi_l - phi_l psi_k is zero or a binary form of degree 10, so
    # agreement at DECISIVE_DIRECTIONS distinct directions makes it zero;
    # on the slots of seeded bases every minor is zero exactly where
    # candidate_report accepts the slot
    assert DECISIVE_DIRECTIONS == 11
    c1, c2 = generators(("c1", "c2"))

    def minors(a, b):
        phi, psi = (phi_from_projections([c1 * p.x + c2 * p.y for p in t])
                    for t in (a, b))
        return [phi[k] * psi[l] - phi[l] * psi[k]
                for k in range(6) for l in range(k + 1, 6)]

    def degrees(minor):
        return {sum(e) for e, _ in minor.monomials()}

    rng = random.Random(36)
    pairs = [tuple(tuple(PlanarPoint(_fraction(rng), _fraction(rng))
                         for _ in range(5)) for _ in range(2))
             for _ in range(6)]
    seen = Counter()
    for base, cands, _ in [_seeded_base(seed) for seed in range(4)]:
        report = candidate_report(base, cands)
        for cand in cands:
            zero = all(m.is_zero() for m in minors(base.points, cand.platform))
            assert zero == (report[cand.tag] is None)
            seen[zero] += 1
        pairs += [(base.points, cand.platform) for cand in cands]
    assert seen[True] and seen[False]
    for a, b in pairs:
        for minor in minors(a, b):
            assert minor.is_zero() or degrees(minor) == {10}
            seen["degree 10"] += not minor.is_zero()
    assert seen["degree 10"]


def test_real_directions_give_fraction_pictures():
    directions = [_conic_t(Fraction(2, 3)),
                  ConicDirection.from_direction((1, 2))]
    directions += [ConicDirection.from_direction(u)
                   for _, u in special_directions(PTS)]
    for c in directions:
        assert all(isinstance(v, Fraction) for v in picture(PTS, c).phi)
    for comp in profile(PTS).components:
        assert all(isinstance(v, Fraction) for v in comp.terms.values())


def test_membership_report_shape():
    entries = membership_report(PTS, special_directions(PTS))
    assert [e["direction"] for e in entries] == ["d123", "d345", "d15", "d14", "d25", "d24"]
    d24 = entries[-1]
    assert d24["membership"] == [[2, 4]]
    assert d24["extended"] is False
    assert len(d24["phi"]) == 6


def _fraction_membership_report(points, directions, lam_powers):
    """membership_report pictured on the given Fraction tuple itself, at the
    Fraction direction (u2 : -u1); counts each picture's lam_power."""
    out = []
    for name, u in directions:
        u1, u2 = moebius._as_uv(u)
        p = picture(points, ConicDirection(u2, -u1))
        lam_powers[p.lam_power] += 1
        out.append({
            "direction": name,
            "vector": [str(u1), str(u2)],
            "extended": p.extended,
            "membership": moebius._membership(p),
            "phi": [str(v) for v in p.phi],
        })
    return out


def test_membership_report_matches_fraction_pictures():
    # seeded bases (extended at d123 and d345) and their candidate platforms
    # under affine maps with denominators, at the special directions and at
    # Fraction directions off them; membership_report pictures at the
    # primitive integer direction e * (u2, -u1), so a vector with a
    # denominator gives e != 1, and an extended picture scales by e^3
    dens, extended, lam_powers = set(), Counter(), Counter()
    scaled_extended = 0
    rng = random.Random(17)
    tuples = [PTS]
    for seed in range(5):
        base, cands, _ = _seeded_base(seed)
        tuples.append(base.points)
        for cand in cands:
            a, b, c, d = (_fraction(rng, 7) for _ in range(4))
            if a * d == b * c:
                a, d = a + 1, d - 1
            tx, ty = _fraction(rng), _fraction(rng)
            tuples += [cand.platform,
                       tuple(PlanarPoint(a * p.x + b * p.y + tx,
                                         c * p.x + d * p.y + ty)
                             for p in cand.platform)]
    for pts in tuples:
        dens.add(max(v.denominator for p in pts for v in p))
        directions = special_directions(pts)
        directions += [("r", (_fraction(rng) or 1, _fraction(rng, 4)))]
        want = _fraction_membership_report(pts, directions, lam_powers)
        assert membership_report(pts, directions) == want
        extended.update(e["direction"] for e in want if e["extended"])
        scaled_extended += sum(e["extended"] and "/" in "".join(e["vector"])
                               for e in want)
    assert dens - {1}
    assert extended["d123"] and extended["d345"]
    assert scaled_extended
    assert set(lam_powers) == {0, 1}


# ------------------------------------------------------------------- profile

def test_profile_removed_factor():
    curve = profile(PTS)
    assert curve.removed.to_str() == "t^3 - 2*t^2 - t"
    assert all(c.degree() <= 7 for c in curve.components)


def test_profile_generic_degree_ten():
    pts = (PlanarPoint(0, 0), PlanarPoint(1, 2), PlanarPoint(3, 1),
           PlanarPoint(-1, 5), PlanarPoint(2, -3))
    curve = profile(pts)
    for comp in curve.components:
        assert comp.degree() + curve.removed.degree() == 10


def test_profile_matches_pointwise_picture():
    curve = profile(PTS)
    for t in (Fraction(1), Fraction(2, 3), Fraction(-5, 4)):
        vals = [c.evaluate({"t": t}).scalar() for c in curve.components]
        direct = picture(PTS, _conic_t(t))
        assert DelPezzoPoint(tuple(vals)).proportional(direct)


def test_profile_rows():
    curve = profile(PTS)
    rows = profile_rows(curve, [Fraction(2, 3)])
    assert len(rows) == 1 and len(rows[0]) == 7
    assert rows[0][0] == "2/3"


def _gcd_profile(points):
    """profile by polynomial gcds: the six phi(t) as products of the pair
    differences, divided by the gcd of the nonzero ones folded in order;
    (component strings, removed factor string), or AllZero."""
    (t,) = generators(("t",))
    one = MPoly.const(("t",), 1)
    z = [2 * t * p.x + (one - t * t) * p.y for p in points]
    phis = []
    for factors in PHI_FACTORS:
        prod = one
        for (i, j) in factors:
            prod = prod * (z[i - 1] - z[j - 1])
        phis.append(prod)
    g = None
    for p in phis:
        if not p.is_zero():
            g = p if g is None else gcd(g, p)
    if g is None:
        return AllZero
    return ([(p.exact_div(g) if not p.is_zero() else p).to_str()
             for p in phis], g.to_str())


def _parallel_class_profile(points):
    try:
        curve = profile(points)
    except AllZero:
        return AllZero
    return [c.to_str() for c in curve.components], curve.removed.to_str()


def _profile_cases():
    P = PlanarPoint
    cases = [PTS]
    for seed in range(4):
        base, cands, _ = _seeded_base(seed)
        cases.append(base.points)
        cases += [cand.platform for cand in cands]
    half = Fraction(1, 2)
    cases += [
        # coincident points: one pair, two pairs (one nonzero phi), and a
        # triple (every phi vanishes)
        (P(1, 2), P(1, 2), P(-3, half), P(4, 1), P(0, -2)),
        (P(1, 2), P(1, 2), P(-3, half), P(-3, half), P(0, -2)),
        (P(1, 2), P(1, 2), P(1, 2), P(4, 1), P(0, -2)),
        # parallel pairs: M1M2 || M3M4 || M5M1 scaled
        (P(0, 0), P(1, 2), P(3, 1), P(5, 5), P(-2, -4)),
        # dy = 0 pairs, and all five on two horizontal lines
        (P(0, 1), P(3, 1), P(-1, half), P(2, half), P(5, -2)),
        (P(0, 1), P(3, 1), P(-1, 1), P(2, 0), P(half, 0)),
        # three collinear points, and a vertical triple
        (P(0, 0), P(1, 1), P(3, 3), P(2, -1), P(-1, 4)),
        (P(2, 0), P(2, 5), P(2, -half), P(0, 1), P(3, 3)),
        # all coincident
        (P(half, 3),) * 5,
    ]
    return cases


def test_profile_matches_gcd_route():
    results = Counter()
    for pts in _profile_cases():
        want = _gcd_profile(pts)
        assert _parallel_class_profile(pts) == want, pts
        results[want is AllZero] += 1
    assert results[True] == 2 and results[False] > 30


def _fraction_lone_profile(points):
    """profile built on the Fraction tuple itself, for a tuple with one
    nonzero phi_k: that phi_k is the removed factor, its component is 1;
    (component strings, removed factor string)."""
    (t,) = generators(("t",))
    one = MPoly.const(("t",), 1)
    z = [2 * t * p.x + (one - t * t) * p.y for p in points]
    phis = [math.prod(z[i - 1] - z[j - 1] for (i, j) in factors)
            for factors in PHI_FACTORS]
    (removed,) = [p for p in phis if not p.is_zero()]
    return ([(p.exact_div(removed) if not p.is_zero() else p).to_str()
             for p in phis], removed.to_str())


def test_profile_lone_phi_carries_the_tuple_scale():
    # two coincident pairs leave one nonzero phi_k, the gcd of the fold;
    # profile builds it on integral_points, so the den^5 that the integer
    # tuple's phi_k carries comes off the removed factor, not the components
    rng = random.Random(23)
    lone = Counter()
    for a, b, c, d, e in ((1, 2, 3, 4, 5), (1, 2, 4, 5, 3), (1, 5, 2, 3, 4),
                          (1, 5, 3, 4, 2), (2, 3, 4, 5, 1)):
        for _ in range(3):
            # every coordinate has a denominator in 2..6
            P, Q, R = (PlanarPoint(*(rng.randint(-9, 9)
                                     + Fraction(1, rng.randint(2, 6))
                                     for _ in range(2)))
                       for _ in range(3))
            pts = [None] * 5
            pts[a - 1] = pts[b - 1] = P
            pts[c - 1] = pts[d - 1] = Q
            pts[e - 1] = R
            want = _fraction_lone_profile(pts)
            curve = profile(pts)
            assert ([comp.to_str() for comp in curve.components],
                    curve.removed.to_str()) == want, pts
            assert curve.removed != profile(integral_points(pts)).removed
            lone[[comp.to_str() for comp in curve.components].index("1")] += 1
    assert set(lone) == {1, 2, 3, 4, 5}


def test_profile_makes_only_the_invariant_gcds(monkeypatch):
    # the removed factor comes from the parallel classes; ProfileCurve's
    # check, one gcd of the six components, is the only gcd
    calls = []
    real = moebius.gcd

    def counting(*ops):
        calls.append(ops)
        return real(*ops)

    monkeypatch.setattr(moebius, "gcd", counting)
    curve = profile(PTS)
    assert calls == [curve.components] and len(curve.components) == 6


# ----------------------------------------------------------------- invariance

def test_cross_ratio_oracle():
    # along the isotropic direction (1 : i) a point projects to x + i*y
    z = _isotropic(PTS)
    assert cross_ratio(z[0], z[1], z[2], z[3]) == GaussRational(Fraction(1, 2), Fraction(1, 2))
    rec2 = {c.tag: c for c in reconstruct_candidates(WORKED)}["2bi"].platform
    w = _isotropic(rec2)
    assert cross_ratio(w[0], w[1], w[2], w[3]) == GaussRational(Fraction(1, 2), Fraction(1, 2))
    # ints are taken as Fractions
    assert cross_ratio(0, 1, 2, 3) == Fraction(4, 3)


def test_same_picture_implies_equal_cross_ratios():
    rec2 = {c.tag: c for c in reconstruct_candidates(WORKED)}["2bi"].platform
    assert same_picture(PTS, rec2, C_GEN)
    for zs, ws in ((_isotropic(PTS), _isotropic(rec2)),
                   (project(PTS, C_GEN), project(rec2, C_GEN))):
        for idx in ((0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 4), (0, 2, 3, 4)):
            a = cross_ratio(*(zs[k] for k in idx))
            b = cross_ratio(*(ws[k] for k in idx))
            assert a == b, idx


small_gauss = st.builds(
    GaussRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
)


@given(zs=st.lists(small_gauss, min_size=5, max_size=5, unique=True),
       a=small_gauss, b=small_gauss, c=small_gauss, d=small_gauss)
@settings(max_examples=60, deadline=None)
def test_moebius_invariance_of_pictures(zs, a, b, c, d):
    assume(a * d - b * c)
    assume(all(c * z + d for z in zs))
    phi = phi_from_projections(zs)
    assume(any(phi))
    mapped = [(a * z + b) / (c * z + d) for z in zs]
    phi2 = phi_from_projections(mapped)
    assert DelPezzoPoint(phi).proportional(DelPezzoPoint(phi2))


@given(t=st.fractions(min_value=-8, max_value=8, max_denominator=5),
       s=st.fractions(min_value=-4, max_value=4, max_denominator=3))
@settings(max_examples=40, deadline=None)
def test_scaling_invariance_of_c(t, s):
    assume(s != 0)
    c = _conic_t(t)
    scaled = ConicDirection(c.c1 * s, c.c2 * s)
    try:
        p = del_pezzo(PTS, c)
    except AllZero:
        return
    q = del_pezzo(PTS, scaled)
    assert p.proportional(q)


base_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero_int = st.integers(-6, 6).filter(bool)


@given(A4=base_fraction, B4=base_fraction, A5=base_fraction,
       B5=base_fraction, k=nonzero_int, tx=st.integers(-9, 9),
       ty=st.integers(-9, 9), m=nonzero_int, c1=st.integers(-9, 9),
       c2=st.integers(1, 9))
@settings(max_examples=50, deadline=None)
def test_picture_is_projective_in_points_and_direction(A4, B4, A5, B5, k, tx,
                                                       ty, m, c1, c2):
    # integer representatives: scaling the points by k, shifting them by
    # (tx, ty) and scaling c by m give a proportional picture with the same
    # zeros and the same extended flag, plain and extended alike
    try:
        params = BaseParams(A4, B4, A5, B5)
    except Exception:
        assume(False)
    pts = params.points
    moved = tuple(IntPoint(k * p.x + tx, k * p.y + ty)
                  for p in integral_points(pts))
    directions = [ConicDirection(c1, c2)]
    directions += [ConicDirection.from_direction(u)
                   for _, u in special_directions(pts)]
    for c in directions:
        try:
            p = picture(pts, c)
        except NotCollinearDirection:
            with pytest.raises(NotCollinearDirection):
                picture(moved, ConicDirection(m * c.c1, m * c.c2))
            continue
        q = picture(moved, ConicDirection(m * c.c1, m * c.c2))
        assert p.proportional(q)
        assert p.zeros() == q.zeros()
        assert p.extended == q.extended


def test_int_points_and_direction_give_int_pictures():
    pts = integral_points(BaseParams(Fraction(1, 3), 2,
                                     Fraction(-3, 2), 5).points)
    assert all(type(v) is int for p in pts for v in p)
    p = picture(pts, ConicDirection(3, -7))
    assert not p.extended
    assert all(type(v) is int for v in p.phi)


@given(A4=base_fraction, B4=base_fraction, A5=base_fraction, B5=base_fraction)
@settings(max_examples=50, deadline=None)
def test_single_pair_membership(A4, B4, A5, B5):
    # a direction parallel to exactly one segment lands on exactly that line
    try:
        params = BaseParams(A4, B4, A5, B5)
    except Exception:
        assume(False)
    pts = params.points
    for (i, j) in ((1, 4), (1, 5), (2, 4), (2, 5)):
        u = pts[j - 1] - pts[i - 1]
        c = ConicDirection.from_direction(u)
        vanishing = {pair for pair in PAIRS if not dij(pts, c, *pair)}
        if vanishing != {(i, j)}:
            continue
        p = del_pezzo(pts, c)
        assert line_membership(p) == {frozenset({i, j})}


def test_profile_curve_common_factor_is_typed():
    # the check lives in ProfileCurve's constructor: components sharing t
    (t,) = generators(("t",))
    one = MPoly.const(("t",), 1)
    with pytest.raises(InvariantViolation, match="share a factor"):
        ProfileCurve((t * (t + one), t * (t - one)), one)
