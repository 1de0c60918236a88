"""Differential tests of the exact kernel against sympy as an independent oracle.

Random small polynomials in three variables go through MPoly's product,
exact division, gcd, resultant, determinant and maximal minors and through sympy's, and
the results are compared exactly (gcd up to a constant factor).  The gcd is
also drawn over random variable subsets and with single-term operands, the
inputs of its monomial shortcut and absent-variable split, and on seeded
operands with a constant coefficient in the main variable, where a content
fold stops early.  The resultant is also drawn on operands that are
polynomials in x^k, where the kernel still builds the full Sylvester
matrix, and deflate(p, "x", k) is checked to give the resultant's k-th
root.  Coefficients are Fractions, the kernel's domain.  proportional is checked against sympy's
rational-function ratios, MPoly.coefficients against sympy's Poly over
a subset of the variables, and dot on operands whose contents differ in
sign and denominator, with int, Fraction, zero and MPoly weights and with
sums that cancel to zero or to one term.
"""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from duporcq import exactpoly
from duporcq.exactpoly import (
    EXPONENT_LIMIT,
    MPoly,
    NotDivisible,
    deflate,
    det,
    dot,
    gcd,
    proportional,
    resultant,
)

sympy = pytest.importorskip("sympy")

VARS = ("x", "y", "a")
SYMS = sympy.symbols(VARS)

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)
real_coeff = small_frac.filter(bool)


@st.composite
def polys(draw, max_terms=3, max_exp=2, subset=False):
    """A nonzero polynomial; with subset, over a random subset of VARS
    (possibly none), so two draws often use different variables."""
    used = draw(st.sets(st.sampled_from(VARS))) if subset else VARS
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) if v in used else 0
                    for v in VARS)
        terms[exp] = draw(real_coeff)
    return MPoly.from_exponents(VARS, terms)


def to_sympy(p: MPoly):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * prod(s ** k for s, k in zip(SYMS, exp))
        for exp, c in p.monomials()))


def same(p: MPoly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def spoly(p: MPoly):
    return sympy.Poly(to_sympy(p), *SYMS)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_mul_matches_sympy(p, q):
    assert same(p * q, sympy.expand(to_sympy(p) * to_sympy(q)))


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys(), st.booleans())
def test_exact_div_matches_sympy(p, q, r, divisible):
    a = p * q if divisible else p * q + r
    try:
        mine = a.exact_div(q)
    except NotDivisible:
        mine = None
    try:
        theirs = spoly(a).exquo(spoly(q))
    except sympy.ExactQuotientFailed:
        theirs = None
    if divisible:
        assert mine == p
    assert (mine is None) == (theirs is None)
    if mine is not None:
        assert same(mine, theirs.as_expr())


# exponents up to the packed field limit: products stay below it, so only
# sympy's sparse expressions are used (its Poly is dense)
HALF = (EXPONENT_LIMIT - 1) // 2


@settings(max_examples=30, deadline=None)
@given(polys(max_exp=HALF), polys(max_exp=HALF))
def test_mul_near_the_field_limit_matches_sympy(p, q):
    pq = p * q
    assert same(pq, sympy.expand(to_sympy(p) * to_sympy(q)))
    assert pq.exact_div(q) == p


def _assert_gcd_up_to_unit(g: MPoly, p: MPoly, q: MPoly):
    theirs = sympy.gcd(to_sympy(p), to_sympy(q))
    if g.is_zero():
        assert theirs == 0
        return
    ratio = sympy.cancel(to_sympy(g) / theirs)
    assert ratio != 0 and not ratio.free_symbols


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), polys())
def test_gcd_matches_sympy_up_to_unit(g, u, v):
    p, q = g * u, g * v
    _assert_gcd_up_to_unit(gcd(p, q), p, q)


@settings(max_examples=30, deadline=None)
@given(polys(subset=True), polys(subset=True), polys(subset=True))
def test_gcd_over_variable_subsets_matches_sympy(g, u, v):
    p, q = g * u, g * v
    _assert_gcd_up_to_unit(gcd(p, q), p, q)


@settings(max_examples=30, deadline=None)
@given(polys(subset=True), polys(max_terms=1, subset=True),
       polys(max_terms=1, subset=True))
def test_gcd_with_a_single_term_matches_sympy(u, m, n):
    p, q = m * u, m * n
    _assert_gcd_up_to_unit(gcd(p, q), p, q)
    _assert_gcd_up_to_unit(gcd(q, p), q, p)


@settings(max_examples=30, deadline=None)
@given(polys(), st.lists(polys(subset=True), min_size=2, max_size=4))
def test_nary_gcd_matches_sympy_gcd_list(g, us):
    ops = [g * u for u in us]
    mine = gcd(*ops)
    ratio = sympy.cancel(to_sympy(mine)
                         / sympy.gcd_list([to_sympy(p) for p in ops]))
    assert ratio != 0 and not ratio.free_symbols


def _seeded_constant_coefficient(rng, names):
    """A polynomial in names whose coefficient of x^0 is a nonzero constant
    and which has terms of positive degree in x."""
    def coeff():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    terms = {(0,) * len(VARS): coeff()}
    for _ in range(rng.randint(1, 3)):
        terms[tuple(rng.randint(1, 3) if v == "x" else
                    rng.randint(0, 2) if v in names else 0
                    for v in VARS)] = coeff()
    return MPoly.from_exponents(VARS, terms)


def _full_content(p: MPoly, var: str) -> MPoly:
    """The content of p in var folded over every coefficient, in ascending
    powers, without the stop at a nonzero constant."""
    c = MPoly.zero(p.vars)
    for _, coeff in sorted(p.coefficients((var,)).items()):
        c = exactpoly._gcd_impl(c, coeff)
    return c


@pytest.mark.parametrize("seed", range(16))
def test_gcd_with_a_constant_coefficient_matches_sympy(seed, monkeypatch):
    # the content fold in the main variable x stops at the constant x^0
    # coefficient, and returns what the full fold returns; the gcd makes
    # no division by the constant 1, neither by a content nor in the
    # remainder sequence
    rng = random.Random(seed)
    names = ("x",) if seed % 2 else VARS     # univariate, then multivariate
    g, u, v = (_seeded_constant_coefficient(rng, names) for _ in range(3))
    p, q = g * u, g * v
    for r in (p, q):
        coeffs = r.coefficients(("x",))
        assert coeffs[(0,)].degree() == 0 and len(coeffs) > 1
        for var in VARS:
            assert exactpoly._content(r, var) == _full_content(r, var)
    divisors = []
    real = MPoly.exact_div

    def recording(self, divisor):
        divisors.append(divisor)
        return real(self, divisor)

    monkeypatch.setattr(MPoly, "exact_div", recording)
    mine = gcd(p, q)
    monkeypatch.undo()
    assert MPoly.const(VARS, 1) not in divisors
    _assert_gcd_up_to_unit(mine, p, q)
    assert mine.leading_coefficient() == 1


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_resultant_matches_sympy(p, q):
    if p.degree_in("x") == 0 or q.degree_in("x") == 0:
        return
    expected = sympy.resultant(to_sympy(p), to_sympy(q), SYMS[0])
    assert same(resultant(p, q, "x"), sympy.expand(expected))


@st.composite
def polys_in_x(draw, exps):
    """A nonzero polynomial whose exponents of x are drawn from exps, so
    for exps in k * N it is a polynomial in x^k over y and a."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exp = (draw(st.sampled_from(exps)), draw(st.integers(0, 2)),
               draw(st.integers(0, 1)))
        terms[exp] = draw(real_coeff)
    return MPoly.from_exponents(VARS, terms)


# (exponents of x in p, in q): both in x^2 or x^3; gcds 4 and 6 that differ
# but share 2; one operand in x^k and the other not; an operand whose only
# other exponent is 0
X_POWER_CASES = [((0, 2, 4), (2, 4)), ((0, 3, 6), (0, 3)),
                 ((4, 8), (0, 6)), ((0, 6), (0, 4, 8)), ((0, 2, 4), (0, 1, 2)),
                 ((0, 3), (0, 2, 3)), ((0, 6), (0, 3, 6))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(X_POWER_CASES).flatmap(
    lambda ex: st.tuples(polys_in_x(ex[0]), polys_in_x(ex[1]))))
def test_resultant_over_powers_of_x_matches_sympy(pair):
    # resultant never deflates: the Sylvester matrix has deg p + deg q rows
    # also where p and q are polynomials in x^k (the chain deflates its
    # operands itself)
    p, q = pair
    m, n = p.degree_in("x"), q.degree_in("x")
    assume(m > 0 and n > 0)
    sizes = []
    real_det = exactpoly.det

    def recording(rows):
        sizes.append(len(rows))
        return real_det(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactpoly, "det", recording)
        r = resultant(p, q, "x")
        swapped = resultant(q, p, "x")
    assert sizes == [m + n] * 2
    expected = sympy.resultant(to_sympy(p), to_sympy(q), SYMS[0])
    assert same(r, sympy.expand(expected))
    assert swapped == (-1) ** (m * n) * r


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, (0, 2, 4), (0, 2, 4, 6)), (3, (0, 3, 6), (3, 6))])
       .flatmap(lambda ex: st.tuples(st.just(ex[0]), polys_in_x(ex[1]),
                                     polys_in_x(ex[2]))))
def test_deflated_resultant_is_a_root_of_the_resultant_in_x(case):
    # deflate(p, "x", k) maps x^k -> x, so for P and Q in x^k
    # Res_x(P(x^k), Q(x^k)) = Res_x(deflate(P), deflate(Q))^k
    k, p, q = case
    assume(p.degree_in("x") > 0 and q.degree_in("x") > 0)
    x = SYMS[0]
    dp, dq = deflate(p, "x", k), deflate(q, "x", k)
    assert sympy.expand(to_sympy(dp).subs(x, x ** k) - to_sympy(p)) == 0
    expected = sympy.resultant(to_sympy(p), to_sympy(q), x)
    assert same(resultant(dp, dq, "x") ** k, sympy.expand(expected))


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=5, subset=True),
       st.permutations(VARS).flatmap(
           lambda order: st.integers(0, 3).map(lambda k: order[:k])))
def test_coefficients_match_sympy(p, names):
    # names is an ordered subset of VARS, possibly empty, in any order
    out = p.coefficients(names)
    syms = [SYMS[VARS.index(n)] for n in names]
    expected = (sympy.Poly(to_sympy(p), *syms).as_dict() if syms
                else {(): to_sympy(p)})
    assert out.keys() == expected.keys()
    for key, c in out.items():
        assert same(c, expected[key])
        assert all(c.degree_in(n) == 0 for n in names)
    # the coefficients times their monomials give p back
    gens = [MPoly.variable(VARS, n) for n in names]
    assert sum((c * prod((g ** k for g, k in zip(gens, key)),
                         start=MPoly.const(VARS, 1))
                for key, c in out.items()), MPoly.zero(VARS)) == p


def test_coefficients_of_zero_are_empty():
    assert MPoly.zero(VARS).coefficients(("x",)) == {}


# sparse entries: about one in three is zero, as in the Sylvester and
# f-coefficient matrices the package builds
sparse_entry = st.one_of(st.just(MPoly.zero(VARS)), polys(max_terms=2),
                         polys(max_terms=2))


def square(n):
    return st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5).flatmap(square))
def test_det_matches_sympy(rows):
    expected = sympy.Matrix([[to_sympy(e) for e in row] for row in rows]).det(
        method="berkowitz")
    assert same(det(rows), sympy.expand(expected))


def _seeded_wide(rng, k, zero_column):
    """A k x (k + 1) matrix with about one entry in three zero, and with
    zero_column one column of zeros."""
    zero = MPoly.zero(VARS)

    def entry():
        if rng.random() < 1 / 3:
            return zero
        return MPoly.from_exponents(VARS, {
            tuple(rng.randint(0, 2) for _ in VARS):
                Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))})

    rows = [[entry() for _ in range(k + 1)] for _ in range(k)]
    if zero_column:
        dead = rng.randrange(k + 1)
        for row in rows:
            row[dead] = zero
    return rows


@pytest.mark.parametrize("seed", range(16))
def test_maximal_minors_match_sympy(seed):
    # the k + 1 maximal minors of a k x (k + 1) matrix, each a det without
    # one column, as rank_drop_T's identity is checked on the f-rows; the
    # signed minors span the kernel of every row (a repeated-row expansion)
    k = 1 + seed % 5
    rows = _seeded_wide(random.Random(seed), k, zero_column=seed % 2 == 0)
    minors = [det([row[:j] + row[j + 1:] for row in rows])
              for j in range(k + 1)]
    for j, minor in enumerate(minors):
        sub = [row[:j] + row[j + 1:] for row in rows]
        expected = sympy.Matrix([[to_sympy(e) for e in row] for row in sub]
                                ).det(method="berkowitz")
        assert same(minor, sympy.expand(expected))
    for row in rows:
        assert dot(row, [(-1) ** j * m for j, m in enumerate(minors)]
                   ).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_det_with_a_repeated_row_is_zero(data):
    n = data.draw(st.integers(2, 5))
    rows = data.draw(square(n))
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                              unique=True))
    rows[j] = rows[i]
    assert det(rows).is_zero()


def test_oracle_sees_coefficients():
    # guard against a converter that drops terms: a known product
    x, y, _ = (MPoly.variable(VARS, v) for v in VARS)
    p = (x + Fraction(1, 2) * y) * (x - y)
    assert same(p, SYMS[0] ** 2 - SYMS[0] * SYMS[1] / 2 - SYMS[1] ** 2 / 2)
    assert not same(p, SYMS[0] ** 2)


def _sympy_proportional(a, b) -> bool:
    """Same projective point over the rational functions: both zero, or
    a = lam * b with lam = a_k / b_k cancelled by sympy."""
    sa = [to_sympy(x) for x in a]
    sb = [to_sympy(y) for y in b]
    za, zb = all(x == 0 for x in sa), all(y == 0 for y in sb)
    if za or zb:
        return za and zb
    k = next(i for i, y in enumerate(sb) if y != 0)
    lam = sympy.cancel(sa[k] / sb[k])
    return lam != 0 and all(sympy.cancel(x - lam * y) == 0
                            for x, y in zip(sa, sb))


@st.composite
def poly_vector_pairs(draw):
    base = draw(st.lists(sparse_entry, min_size=1, max_size=5))
    mode = draw(st.sampled_from(("scaled", "perturbed", "free")))
    if mode == "free":
        a = draw(st.lists(sparse_entry, min_size=len(base),
                          max_size=len(base)))
        return a, base
    p, q = draw(polys(max_terms=2)), draw(polys(max_terms=2))
    a, b = [p * x for x in base], [q * x for x in base]
    if mode == "perturbed":
        a[draw(st.integers(0, len(a) - 1))] = draw(sparse_entry)
    return a, b


@settings(max_examples=60, deadline=None)
@given(poly_vector_pairs())
def test_proportional_matches_sympy_on_polynomials(pair):
    a, b = pair
    assert proportional(a, b) == _sympy_proportional(a, b)


# ------------------------------------------------------------------- dot

weights = st.one_of(st.integers(-5, 5), small_frac, st.just(0),
                    polys(max_terms=2))
# a signed Fraction content with a denominator up to 12, so the contents of
# a sum's products differ in sign and denominator
contents = st.fractions(min_value=-6, max_value=6,
                        max_denominator=12).filter(bool)


def scalar_or_poly(w):
    if isinstance(w, MPoly):
        return to_sympy(w)
    return sympy.Rational(w.numerator, w.denominator)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(weights, polys(), contents), min_size=1,
                max_size=5))
def test_dot_matches_sympy(terms):
    ws = [w for w, _, _ in terms]
    xs = [c * p for _, p, c in terms]
    mine = dot(ws, xs)
    assert same(mine, sympy.expand(sum(scalar_or_poly(w) * to_sympy(x)
                                       for w, x in zip(ws, xs))))
    assert mine == sum((w * x for w, x in zip(ws, xs)), MPoly.zero(VARS))


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), contents, contents)
def test_dot_cancelling_to_zero(p, q, a, b):
    out = dot([a * q, -b, 0, Fraction(0)], [b * p, a * q * p, p, q])
    assert out.is_zero() and (out._num, out._den) == (0, 1)


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=4), polys(max_terms=1), contents, contents)
def test_dot_cancelling_to_one_term(p, m, a, b):
    # a * (p + m) - b * (a / b) * p = a * m
    out = dot([a, -b], [p + m, a / b * p])
    assert out.term_count == 1 and out == a * m
    assert same(out, scalar_or_poly(a) * to_sympy(m))


def test_dot_needs_equally_many_weights_and_polys():
    x = MPoly.variable(VARS, "x")
    with pytest.raises(ValueError):
        dot([1, 2], [x])
