"""Exact polynomial kernel tests: arithmetic, resultant convention, gcd."""

import random
from fractions import Fraction
from functools import reduce
from math import gcd as igcd

import pytest
from hypothesis import example, given, settings, strategies as st

import duporcq.exactpoly as exactpoly
from duporcq.exactpoly import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    GaussRational,
    I,
    MPoly,
    NotDivisible,
    ZeroDegree,
    deflate,
    det,
    dot,
    gcd,
    generators,
    proportional,
    resultant,
)

X, Y, A, B = generators(("x", "y", "a", "b"))
VARS = ("x", "y", "a", "b")


def C(v):
    return MPoly.const(VARS, v)


# ---------------------------------------------------------------- arithmetic

def test_difference_of_squares():
    assert (X + 1) * (X - 1) == X ** 2 - 1


def test_gauss_conjugate_product():
    # a conjugate product of Gaussian scalars is real, so it scales a
    # polynomial; a polynomial coefficient itself is never Gaussian
    z = GaussRational(3, 2)
    norm = z * GaussRational(3, -2)
    assert isinstance(norm, Fraction) and X * norm == 13 * X
    with pytest.raises(TypeError):
        X + I * Y


def test_scalar_mixing():
    p = Fraction(1, 2) * X + 3
    assert p * 2 == X + 6
    assert (p - p).is_zero()


def test_mul_degree_adds():
    p = X ** 2 * Y + 1
    q = Y ** 3 - A
    assert (p * q).degree() == p.degree() + q.degree()


def test_pow():
    assert (X + Y) ** 2 == X ** 2 + 2 * X * Y + Y ** 2


# ------------------------------------------------------------------ evaluate

def test_evaluate_partial():
    p = X ** 2 + Y
    assert p.evaluate({"x": 2}) == Y + 4


def test_evaluate_full_scalar():
    p = X ** 2 + Y ** 2 + A ** 2 + B ** 2
    assert p.evaluate({"x": 1, "y": 0, "a": 0, "b": 0}).scalar() == GaussRational(1)


# ----------------------------------------------------------------- resultant

def test_resultant_sign_convention():
    # Res_x(x - a, x - b) = a - b, pinning the row order
    assert resultant(X - A, X - B, "x") == A - B


def test_resultant_worked_2x1():
    assert resultant(X ** 2 - 1, X - 2, "x").scalar() == GaussRational(3)


def test_resultant_zero_degree_error():
    with pytest.raises(ZeroDegree):
        resultant(X - A, Y + 1, "x")


def test_resultant_rejects_operands_over_other_variables():
    (u,) = generators(("u",))
    with pytest.raises(ValueError, match="variable tuples differ"):
        resultant(X ** 2 + 1, u + 1, "x")


def test_deflate_needs_k_to_divide_every_exponent():
    half = Fraction(1, 2)
    p = 3 * X ** 6 * Y - half * X ** 3 * A + B
    assert deflate(p, "x", 3) == 3 * X ** 2 * Y - half * X * A + B
    assert deflate(p, "y", 1) == p
    for q, k in ((p, 2), (p + X, 3), (p, 4)):
        with pytest.raises(ValueError, match="does not divide"):
            deflate(q, "x", k)


def test_resultant_common_root():
    p = (X - A) * (X - B)
    q = (X - A) * (X + 1)
    assert resultant(p, q, "x").evaluate({"a": 5, "b": 2}).is_zero()


# ----------------------------------------------------------------------- gcd

def test_gcd_basic():
    assert gcd(X ** 2 - 1, X ** 2 - 2 * X + 1) == X - 1


def test_gcd_with_zero():
    p = 3 * X ** 2 - 3
    assert gcd(p, MPoly.zero(VARS)) == X ** 2 - 1  # normalized to monic
    assert gcd(MPoly.zero(VARS), MPoly.zero(VARS)).is_zero()


def test_gcd_multivariate():
    common = X * Y + A
    p = common * (X - 1)
    q = common * (Y + B)
    g = gcd(p, q)
    assert g == common  # lc in canonical order is the x*y coefficient 1
    p.exact_div(g)
    q.exact_div(g)


def test_gcd_coprime():
    g = gcd(X + 1, Y + 1)
    assert g == C(1)


def _seeded_poly(rng):
    """A nonzero polynomial in x, y, a of up to four terms."""
    return MPoly.from_exponents(VARS, {
        (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), 0):
        Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for _ in range(rng.randint(1, 4))})


@pytest.mark.parametrize("seed", range(24))
def test_nary_gcd_equals_the_pairwise_fold(seed):
    # multiples of one common factor, with a zero (seed 1 mod 3) or a
    # nonzero constant (seed 2 mod 3) at a seeded place
    rng = random.Random(seed)
    g = _seeded_poly(rng)
    ops = [g * _seeded_poly(rng) for _ in range(rng.randint(2, 4))]
    if seed % 3:
        extra = (MPoly.zero(VARS) if seed % 3 == 1
                 else C(Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        ops.insert(rng.randint(0, len(ops)), extra)
    assert gcd(*ops) == reduce(gcd, ops)


def test_nary_gcd_reads_no_operand_after_the_first_constant(monkeypatch):
    calls = []
    real = exactpoly._gcd_impl

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(exactpoly, "_gcd_impl", counting)
    late = (X + A) * (Y - B)
    assert gcd(X * Y + 1, C(2), late) == C(1)
    assert len(calls) == 1
    calls.clear()
    assert gcd(MPoly.zero(VARS), C(3), late) == C(1)
    assert len(calls) == 1
    # the running gcd Y + 2 meets X + Y + 5 and becomes constant
    calls.clear()
    ops = ((X - 1) * (Y + 2), (X + 3) * (Y + 2), X + Y + 5, late)
    assert gcd(*ops) == C(1)
    touched = [q for _, q in calls if any(q is op for op in ops)]
    assert touched == list(ops[1:3])
    assert not any(late is p or late is q for p, q in calls)


def test_gcd_rejects_operands_over_other_variables():
    (u,) = generators(("u",))
    with pytest.raises(ValueError, match="variable tuples differ"):
        gcd((X + 1) * (X + 2), (u + 1) * (u + 3))
    with pytest.raises(ValueError, match="variable tuples differ"):
        gcd(X + 1, X + 1, u + 1)


def test_exact_div_roundtrip():
    p = (X + 2 * Y) * (A * X - B)
    assert p.exact_div(X + 2 * Y) == A * X - B


def test_exact_div_failure():
    with pytest.raises(NotDivisible):
        (X ** 2 + 1).exact_div(X + 1)
    # every leading exponent divides, but no quotient coefficient is an
    # integer: the remainder shows only in the coefficients
    with pytest.raises(NotDivisible):
        (X ** 2 + X).exact_div(2 * X + 1)


# ----------------------------------------------------------------------- det

def test_det_2x2():
    assert det([[X, Y], [A, B]]) == X * B - Y * A


def test_det_singular():
    assert det([[X, Y], [X, Y]]).is_zero()


def test_det_and_resultant_make_no_division(monkeypatch):
    calls = []
    real = MPoly.exact_div

    def counting(self, divisor):
        calls.append(divisor)
        return real(self, divisor)

    monkeypatch.setattr(MPoly, "exact_div", counting)
    rows = [[X + k, Y - j, A * B + k * j, X * Y + A + j] for k, j in
            ((1, 2), (3, -1), (0, 5), (-2, 1))]
    assert not det(rows).is_zero()
    assert not resultant(X ** 3 + A * X + B, Y * X ** 2 + A, "x").is_zero()
    assert calls == []


def test_sums_of_products_make_no_binary_sum(monkeypatch):
    # each Laplace minor, pseudo-remainder slot and dot sums its products in
    # one integer accumulator, so none of them builds an MPoly sum
    def no_sum(*args):
        raise AssertionError("a sum of products went through a binary sum")

    square = [[X + k, Y - j, A * B + k * j, X * Y + A + j, B - k * k * X]
              for k, j in ((1, 2), (3, -1), (0, 5), (-2, 1), (4, 3))]
    h = X * A - 2 * Y + B
    p, q = h * (X ** 2 + Y * A - 1), h * (X * B + Y ** 2 + 3)
    cubic = X ** 3 + A * X + B
    monkeypatch.setattr(exactpoly, "_icomb", no_sum)
    monkeypatch.setattr(MPoly, "_plus", no_sum)
    d = det(square)
    r = resultant(cubic, Y * X ** 2 * A, "x")
    g = gcd(p, q)
    s = dot([Fraction(3, 2), A, -1], [X, Y, B])
    monkeypatch.undo()
    assert not d.is_zero() and not r.is_zero()
    assert g == h.monic()
    assert s == Fraction(3, 2) * X + A * Y - B


def _content_pair(x):
    if isinstance(x, MPoly):
        return x._num, x._den
    return x.numerator, x.denominator


def test_polynomial_product_makes_no_content_gcd(monkeypatch):
    # Gauss's lemma: a product of primitive polynomials is primitive, so a
    # product takes no gcd over its terms; its two contents cross-reduce as
    # Fraction multiplication does, with at most two int gcds, each of one
    # content's numerator and the other's denominator
    p = 3 * X ** 2 - Fraction(2, 5) * X * Y + 7 * A
    q = Fraction(4, 9) * A * X - 6 * B + 1
    s = Fraction(-15, 4)
    pairs = [(p, q), (q, p), (p, p * q), (-p, q), (q, -q), (p, s), (s, p),
             (q, 7), (Fraction(9, 2) * p, Fraction(5, 3) * q)]
    calls = []
    real = exactpoly._igcd

    def counting(*args):
        calls.append(args)
        return real(*args)

    def no_term_gcd(*args):
        raise AssertionError("a product took a gcd over its terms")

    monkeypatch.setattr(exactpoly, "_igcd", counting)
    # the counter sees the one gcd a sum takes over its ints
    p + q
    assert calls
    monkeypatch.setattr(exactpoly, "_primitive", no_term_gcd)
    monkeypatch.setattr(exactpoly, "_normal", no_term_gcd)
    for a, b in pairs:
        calls.clear()
        a * b
        (na, da), (nb, db) = _content_pair(a), _content_pair(b)
        assert len(calls) <= 2
        assert all(c in ((na, db), (nb, da)) for c in calls)
    pq = p * q
    assert pq * p == p * (q * p) and (-p) * pq == -(pq * p)


# ------------------------------------------------------------ domain and form

@pytest.mark.parametrize("make", [
    lambda: MPoly.const(VARS, I),
    lambda: MPoly.from_exponents(VARS, {(1, 0, 0, 0): 1, (0, 0, 0, 0): I}),
    lambda: X * GaussRational(1, -2),
    lambda: I * X,
    lambda: X.evaluate({"y": 2, "x": GaussRational(1, 1)}),
    lambda: X + I,
    lambda: I - X,
    lambda: X.exact_div(I),
    # a GaussRational is no coefficient, even with a zero imaginary part
    lambda: MPoly.const(VARS, GaussRational(2)),
    lambda: MPoly.from_exponents(VARS, {(1, 0, 0, 0): GaussRational(2)}),
    lambda: X * GaussRational(2),
    lambda: X + GaussRational(2),
    lambda: (X ** 2 + 1).evaluate({"x": GaussRational(2)}),
], ids=["const", "from_exponents", "mul", "rmul", "evaluate", "add",
        "rsub", "exact_div", "real-const", "real-from_exponents", "real-mul",
        "real-add", "real-evaluate"])
def test_non_real_coefficients_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def _assert_canonical(p: MPoly):
    num, den, prim = p._num, p._den, p._prim
    assert type(num) is int and type(den) is int
    assert den > 0 and igcd(num, den) == 1
    if not prim:
        assert (num, den) == (0, 1)
        return
    assert num and all(type(v) is int and v for v in prim.values())
    assert igcd(*prim.values()) == 1 and prim[max(prim)] > 0


@settings(max_examples=60, deadline=None)
@given(st.builds(lambda terms: MPoly.from_exponents(VARS, terms),
                 st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(VARS)),
                                 st.fractions(max_denominator=9), max_size=5)),
       st.integers(1, 4))
def test_deflate_returns_the_canonical_form_it_keeps(p, k):
    # x -> x^k and back keep the packed term order, so deflate hands back
    # p's own content and P with no renormalization
    inflated = MPoly.from_exponents(VARS, {
        (e[0] * k,) + e[1:]: c for e, c in p.monomials()})
    d = deflate(inflated, "x", k)
    _assert_canonical(d)
    assert (d._num, d._den, d._prim) == (p._num, p._den, p._prim)


wide_frac = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 6)


@st.composite
def wide_poly(draw):
    exps = st.tuples(*[st.integers(0, 2)] * len(VARS))
    return MPoly.from_exponents(VARS, draw(st.dictionaries(
        exps, wide_frac, max_size=4)))


@settings(max_examples=60, deadline=None)
@given(wide_poly(), wide_poly(), wide_poly(), wide_frac.filter(bool))
def test_equal_polynomials_have_one_canonical_form(p, q, r, s):
    a = (p + q) * r
    forms = [a, r * q + p * r, (p * s * r + s * q * r) * (1 / s),
             q * r - (-p) * r, MPoly.from_exponents(VARS, dict(a.monomials())),
             det([[p, -q], [r, r]]), dot([p, r], [r, q]),
             a.evaluate({"b": 3}) + (a - a.evaluate({"b": 3}))]
    if p:
        forms.append((a * p).exact_div(p))
    for f in forms:
        _assert_canonical(f)
        assert ((f.vars, f._num, f._den, f._prim)
                == (a.vars, a._num, a._den, a._prim))
    _assert_canonical(a.monic())
    if a:
        assert a.monic().leading_coefficient() == 1


# the Fraction oracle: polynomials as {exponent tuple: Fraction} dicts,
# multiplied, added and evaluated term by term

def _oracle_clean(d: dict) -> dict:
    return {e: c for e, c in d.items() if c}


def _oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _oracle_clean(out)


def _oracle_comb(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _oracle_clean(out)


def _oracle_evaluate(a: dict, values: dict) -> dict:
    out: dict = {}
    for e, c in a.items():
        e = list(e)
        for i, v in values.items():
            c, e[i] = c * v ** e[i], 0
        out[tuple(e)] = out.get(tuple(e), 0) + c
    return _oracle_clean(out)


def _terms_by_tuple(p: MPoly) -> dict:
    terms = p.terms
    assert all(type(c) is Fraction for c in terms.values())
    return {exactpoly._unpack(e, len(VARS)): c for e, c in terms.items()}


oracle_coeff = st.one_of(wide_frac, st.integers(-10 ** 6, 10 ** 6))
oracle_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(VARS)),
                               oracle_coeff, max_size=4)


@settings(max_examples=80, deadline=None)
@given(oracle_terms, oracle_terms, oracle_coeff, oracle_coeff, oracle_coeff)
def test_arithmetic_matches_the_fraction_oracle(pt, qt, s, u, w):
    p, q = MPoly.from_exponents(VARS, pt), MPoly.from_exponents(VARS, qt)
    po = _oracle_clean({e: Fraction(c) for e, c in pt.items()})
    qo = _oracle_clean({e: Fraction(c) for e, c in qt.items()})
    assert _terms_by_tuple(p) == po and _terms_by_tuple(q) == qo
    assert _terms_by_tuple(p * q) == _oracle_mul(po, qo)
    scaled = _oracle_clean({e: c * s for e, c in po.items()})
    assert _terms_by_tuple(p * s) == scaled == _terms_by_tuple(s * p)
    assert _terms_by_tuple(p + q) == _oracle_comb(po, qo, 1)
    assert _terms_by_tuple(p - q) == _oracle_comb(po, qo, -1)
    assert _terms_by_tuple(-p) == {e: -c for e, c in po.items()}
    if q:
        # q's content takes either sign here
        for d in (q, -q):
            quotient = (p * d).exact_div(d)
            _assert_canonical(quotient)
            assert _terms_by_tuple(quotient) == po
    values = {VARS.index("x"): u, VARS.index("b"): w}
    assert (_terms_by_tuple(p.evaluate({"x": u, "b": w}))
            == _oracle_evaluate(po, values))
    if p:
        lc = po[max(po)]
        assert (_terms_by_tuple(p.monic())
                == {e: c / lc for e, c in po.items()})
        assert p.leading_coefficient() == lc
    for f in (p * q, p * s, p + q, -p, p.monic()):
        _assert_canonical(f)


def test_handed_out_coefficients_are_fractions():
    # the content is a pair of ints, but what the API hands out is a
    # Fraction, integral values included
    for v in (3, Fraction(6, 2), 0, -7):
        c = MPoly.const(VARS, v)
        assert type(c.scalar()) is Fraction and c.scalar() == v
    p = 3 * X ** 2 - 6 * Y + 2
    assert type(p.leading_coefficient()) is Fraction
    assert p.leading_coefficient() == 3
    assert all(type(c) is Fraction for c in p.terms.values())
    assert all(type(c) is Fraction for _, c in p.monomials())
    assert sorted(c for _, c in p.monomials()) == [-6, 2, 3]
    assert type(p.monic().leading_coefficient()) is Fraction


# ------------------------------------------------------------------ equality

def test_eq_with_non_numbers_is_false():
    assert (GaussRational(0, 1) == None) is False  # noqa: E711
    assert (X == "x") is False
    assert X != "x"
    assert [I].count(None) == 0
    assert [X].count(None) == 0
    # equality against numbers is unchanged, in both operand orders
    assert C(3) == 3 and 3 == C(3)
    assert (C(3) == I) is False and (I == C(3)) is False
    assert X - X == 0
    assert GaussRational(2) == Fraction(2)


# ------------------------------------------------------------- serialization

def test_to_str_golden():
    p = X ** 2 - Fraction(1, 2) * Y - 3
    assert p.to_str() == "x^2 - 1/2*y - 3"


def test_to_str_zero():
    assert MPoly.zero(VARS).to_str() == "0"


def test_str_ordering_deterministic():
    p = Y + X + A + B + 1
    assert p.to_str() == "x + y + a + b + 1"


# ---------------------------------------------------------- packed exponents

TOP = EXPONENT_LIMIT - 1


def test_power_reaches_the_field_limit():
    # binary powering must not square past the last bit: x**(2*16384) is
    # out of range although x**TOP is not
    p = X ** TOP
    assert p.degree_in("x") == TOP
    assert p.exact_div(X ** (TOP - 1)) == X


@pytest.mark.parametrize("make", [
    lambda: X ** EXPONENT_LIMIT,
    lambda: X ** TOP * X,
    lambda: Y ** TOP * Y,  # a carry would turn it into x
    lambda: (B ** TOP + A) * (B + 1),
    lambda: (X + Y ** TOP) ** 2,
    lambda: 3 * (A * B) ** TOP * A,
    # sums of products check the accumulated exponents: det through a
    # minor's first and its second product, and with the two cancelling
    lambda: det([[X ** TOP, Y], [Y, X]]),
    lambda: det([[Y, X ** TOP], [X, Y]]),
    lambda: det([[X ** TOP, X ** TOP], [X, X]]),
    lambda: resultant(A ** TOP * X + 1, X - A, "x"),
    # the first pseudo-remainder slot of the gcd takes A^TOP * A
    lambda: gcd(X ** 2 + A, A ** TOP * X + 1),
    lambda: dot([A ** TOP, 1], [A, X]),
])
def test_exponent_overflow_raises(make):
    with pytest.raises(ExponentOverflow):
        make()


def test_from_exponents_checks_exponents():
    with pytest.raises(ExponentOverflow):
        MPoly.from_exponents(VARS, {(0, EXPONENT_LIMIT, 0, 0): 1})
    with pytest.raises(ValueError):
        MPoly.from_exponents(VARS, {(0, -1, 0, 0): 1})
    with pytest.raises(ValueError):
        MPoly.from_exponents(VARS, {(1, 0, 0): 1})


@pytest.mark.parametrize("num, den", [
    (X, Y), (X ** 2, X * Y), (X * A, Y * B), (X ** 3 * B, X * A ** 2),
    (MPoly.from_exponents(VARS, {(0, 1, TOP, 0): 1}), A * B),
])
def test_exact_div_does_not_borrow_across_variables(num, den):
    # num's exponent is short in one variable and in surplus in a more
    # significant one, where a plain int subtraction would borrow
    with pytest.raises(NotDivisible):
        num.exact_div(den)


exponent_tuples = st.tuples(*[st.integers(0, TOP)] * len(VARS))
term_dicts = st.dictionaries(exponent_tuples, st.fractions(
    min_value=-4, max_value=4, max_denominator=3).filter(bool), max_size=6)


@settings(max_examples=60, deadline=None)
@given(term_dicts)
def test_monomials_round_trip(terms):
    p = MPoly.from_exponents(VARS, terms)
    assert dict(p.monomials()) == terms
    assert p.degree() == max(map(sum, terms), default=-1)
    for i, v in enumerate(VARS):
        assert p.degree_in(v) == max((e[i] for e in terms), default=0)
    if terms:
        assert p.leading_coefficient() == terms[max(terms)]


@settings(max_examples=60, deadline=None)
@given(term_dicts)
def test_to_str_orders_terms_as_sorted_exponent_tuples(terms):
    parts = [MPoly.from_exponents(VARS, {e: c}).to_str()
             for e, c in sorted(terms.items(), reverse=True)]
    expected = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    assert MPoly.from_exponents(VARS, terms).to_str() == expected


# ---------------------------------------------------------------- properties

small_frac = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def small_poly(draw, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(4))
        c = draw(small_frac)
        if c:
            terms[exp] = c
    return MPoly.from_exponents(VARS, terms)


@settings(max_examples=60, deadline=None)
@given(small_poly(), small_poly(), small_frac, small_frac)
def test_evaluate_is_ring_morphism(p, q, vx, vy):
    sub = {"x": vx, "y": vy}
    assert (p * q).evaluate(sub) == p.evaluate(sub) * q.evaluate(sub)
    assert (p + q).evaluate(sub) == p.evaluate(sub) + q.evaluate(sub)


@settings(max_examples=40, deadline=None)
@given(small_poly(), small_poly())
def test_resultant_swap_sign(p, q):
    dp, dq = p.degree_in("x"), q.degree_in("x")
    if dp == 0 or dq == 0:
        return
    r1 = resultant(p, q, "x")
    r2 = resultant(q, p, "x")
    if (dp * dq) % 2:
        assert r1 == -r2
    else:
        assert r1 == r2


@settings(max_examples=40, deadline=None)
@given(small_poly(), small_poly())
def test_gcd_divides_both(p, q):
    g = gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    p.exact_div(g)  # raises NotDivisible on failure
    q.exact_div(g)


@settings(max_examples=40, deadline=None)
@given(small_poly(), small_poly())
def test_product_divisible_by_factor(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


# --------------------------------------------------------- coefficient domain

def _real_terms(p: MPoly) -> bool:
    return all(isinstance(c, Fraction) for c in p.terms.values())


@st.composite
def small_real_poly(draw, max_terms=4, max_exp=2):
    p = MPoly.zero(VARS)
    for _ in range(draw(st.integers(1, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(4))
        p = p + MPoly.from_exponents(VARS, {exp: 1}) * draw(small_frac)
    return p


@settings(max_examples=40, deadline=None)
@given(small_real_poly(), small_real_poly())
def test_real_inputs_keep_fraction_coefficients(p, q):
    out = [p * q, p + q, p - 3 * q, p.evaluate({"x": 2, "a": Fraction(1, 3)}),
           gcd(p, q), det([[p, q], [q * q, p]])]
    if q:
        out.append((p * q).exact_div(q))
    if p.degree_in("x") and q.degree_in("x"):
        out.append(resultant(p, q, "x"))
    assert all(_real_terms(r) for r in out)


def test_real_gaussian_results_become_fractions():
    assert isinstance((1 + I) * (1 - I), Fraction)
    assert isinstance(GaussRational(3) / GaussRational(0, 1) * I, Fraction)
    assert hash(GaussRational(Fraction(3, 2))) == hash(Fraction(3, 2))


def test_term_count_reproducible():
    p = (X + Y + A) ** 3
    q = (X + Y + A) ** 3
    assert p.term_count == q.term_count
    assert p.to_str() == q.to_str()


# -------------------------------------------------------------- proportional

def _ratio_oracle(a, b) -> bool:
    """Same projective point by division: both zero, or a = lam * b with
    lam != 0 read off one nonzero slot of b."""
    if not any(a) or not any(b):
        return not any(a) and not any(b)
    k = next(i for i, y in enumerate(b) if y)
    lam = a[k] / b[k]
    return lam != 0 and all(x == lam * y for x, y in zip(a, b))


frac_entry = st.one_of(st.just(Fraction(0)), small_frac)


@st.composite
def frac_pairs(draw):
    b = draw(st.lists(frac_entry, min_size=1, max_size=6))
    mode = draw(st.sampled_from(("scaled", "perturbed", "free")))
    if mode == "free":
        a = draw(st.lists(frac_entry, min_size=len(b), max_size=len(b)))
    else:
        lam = draw(small_frac.filter(bool))
        a = [lam * y for y in b]
        if mode == "perturbed":
            a[draw(st.integers(0, len(b) - 1))] = draw(frac_entry)
    return a, b


@settings(max_examples=200, deadline=None)
@given(frac_pairs())
@example(([Fraction(0)] * 3, [Fraction(0)] * 3))
@example(([Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]))
@example(([Fraction(0), Fraction(2)], [Fraction(1), Fraction(2)]))
def test_proportional_matches_ratio_oracle_on_fractions(pair):
    a, b = pair
    assert proportional(a, b) == _ratio_oracle(a, b)
    assert proportional(b, a) == proportional(a, b)
