"""Exact arithmetic kernel: sparse multivariate polynomials over the
rationals.

Every symbolic claim in this package reduces to arithmetic in this module.
A polynomial coefficient is a rational and nothing else: const,
from_exponents, scalar products, evaluate and the scalar operands of + and -
take ints and Fractions, and raise TypeError for any other scalar.
GaussRational (a pair of Fractions, a + b*i) is a scalar type that no
polynomial takes, not even with a zero imaginary part; its arithmetic
returns a Fraction whenever the result is real.

A polynomial is stored as content * P (see MPoly): the content is a
reduced pair of ints, a numerator that carries the sign over a positive
denominator, and P is a primitive integer polynomial with a positive leading
coefficient, a canonical form.  No Fraction is stored; one is built only
where the API hands a coefficient out.  Gauss's lemma (a product of
primitive polynomials is primitive) lets a product skip the gcd over its
coefficients that Fraction arithmetic would take term by term, and its two
contents cross-reduce with at most two int gcds; a sum takes one gcd over
its integer coefficients, and exact division divides integers.  A sum of
products (a Laplace minor, a pseudo-remainder slot, dot) is not a chain of
binary sums: the products' contents are scaled to one common content, and
every product is multiplied into one integer accumulator (_imac, the
kernel's one product loop), which checks the exponents and drops zeros
once, before the sum's one gcd.  Polynomials are sparse over a fixed
ordered variable tuple.  The canonical term order is lexicographic on
exponent tuples with the first variable most significant; serialization,
leading coefficients, and gcd normalization all refer to that order.

An exponent tuple is stored packed into one int (Monagan and Pearce's
packed exponent vectors): variable i of n owns the 16-bit field at bit
offset (n - 1 - i) * 16.  Fields never overlap and the first variable is
the most significant, so comparing packed ints compares the tuples
lexicographically, and the largest key is the leading exponent.  Multiplying
monomials is one int addition.  The top bit of each field is a guard that
stays clear: an exponent is below EXPONENT_LIMIT = 2**15, so the sum of two
fields cannot carry into the next one, and a product whose sum sets a guard
bit raises ExponentOverflow.  exact_div tests divisibility of all fields
at once: with every guard bit of r set, r - d borrows within a field and
clears its guard bit exactly where r's exponent is below d's.

Pinned conventions:
  * MPoly.coefficients(names) is the one public way to cut a polynomial
    into coefficients: one pass over P gives {exponent tuple over names:
    coefficient} for the monomials that occur;
  * resultant(p, q, x) is the Sylvester determinant with p's coefficient rows
    first, so resultant(x - a, x - b, x) == a - b;
  * deflate(p, x, k) maps x^k -> x, keeping P canonical: a caller whose
    operands are polynomials in x^k deflates them before resultant, by
    Poisson's product formula Res_x(P(x^k), Q(x^k)) = Res_y(P, Q)^k (no
    sign); resultant itself never deflates;
  * gcd(p, q, *more) is the one gcd, normalized to leading coefficient 1
    (0 when all operands are 0); it and every gcd of several polynomials in
    the kernel run one fold, which takes the operands in the order given
    and returns 1 at the first nonzero constant, reading none after it;
  * a gcd of two runs by recursive content/primitive-part reduction with a
    subresultant polynomial remainder sequence in the main variable, over
    the integers (each polynomial in it is an integer P times its content),
    after two exact reductions on the variables the operands use: a
    single-term operand gives the monomial of least exponents, and variables
    only one operand uses are split off through its coefficients in them;
    a content folds the coefficients in ascending powers, and the gcd makes
    no division by the constant 1;
  * det is a division-free Laplace expansion with sub-minors memoized by
    column set, O(2^n * n) products for an n x n matrix, the largest the
    package builds being T's one 4x4 minor and the resultant chain's 4-row
    Sylvester matrices in e0 (those in e3 are built in e3^2 and have at
    most 3 rows); each minor sums its signed cofactor products in one
    accumulator;
  * dot(weights, polys) is the one weighted sum of polynomials, summed in
    one accumulator like a minor;
  * to_str renders rationals as a/b, terms in descending canonical order
    (stable for golden-file tests);
  * proportional(a, b) is the one projective-equality test, for sequences
    of scalars or MPolys: equal zero patterns, then cross-multiplication
    against the first nonzero slot; two all-zero sequences are proportional.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd as _igcd, lcm
from operator import or_


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder."""


class ZeroDegree(ValueError):
    """Resultant input is constant in the elimination variable."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


class GaussRational:
    """Gaussian rational a + b*i with exact Fraction components.

    Arithmetic results go through _gauss, so a result with a zero imaginary
    part comes back as a plain Fraction.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = as_gauss(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to a real Fraction when im == 0, so hash like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __add__(self, other):
        other = as_gauss(other)
        return _gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_gauss(other))

    def __rsub__(self, other):
        return as_gauss(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gauss(self.re * other, self.im * other)
        other = as_gauss(other)
        return _gauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("inverse of 0")
        return _gauss(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * as_gauss(other).inverse()

    def __rtruediv__(self, other):
        return as_gauss(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Fraction(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imp = "i"
        elif self.im == -1:
            imp = "-i"
        else:
            imp = f"{self.im}i"
        if not self.re:
            return imp
        return f"{self.re}+{imp}" if self.im > 0 else f"{self.re}{imp}"

    __repr__ = __str__


def _gauss(re: Fraction, im: Fraction):
    """re + im*i, as a Fraction when im == 0."""
    return GaussRational(re, im) if im else re


def as_gauss(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(x)
    raise TypeError(f"cannot coerce {x!r} to GaussRational")


I = GaussRational(0, 1)


# packed exponents, laid out as the module docstring says
_W = 16
_FIELD = (1 << _W) - 1
EXPONENT_LIMIT = 1 << (_W - 1)


class ExponentOverflow(ArithmeticError):
    """An exponent reached EXPONENT_LIMIT, past its field in a packed monomial."""


@lru_cache(maxsize=None)
def _guard(n: int) -> int:
    """The guard bits of an n-variable packed exponent."""
    return sum(1 << off for off in range(_W - 1, n * _W, _W))


def _offset(vars: tuple, var: str) -> int:
    return (len(vars) - 1 - vars.index(var)) * _W


def _pack(exps, n: int) -> int:
    if len(exps) != n:
        raise ValueError(f"expected {n} exponents, got {len(exps)}")
    out = 0
    for k in exps:
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        if k >= EXPONENT_LIMIT:
            raise ExponentOverflow(f"exponent {k} >= {EXPONENT_LIMIT}")
        out = out << _W | k
    return out


def _unpack(exp: int, n: int) -> tuple:
    return tuple(exp >> off & _FIELD for off in range((n - 1) * _W, -1, -_W))


def _overflow(exp: int, vars: tuple) -> ExponentOverflow:
    names = [v for v, k in zip(vars, _unpack(exp, len(vars)))
             if k >= EXPONENT_LIMIT]
    return ExponentOverflow(f"exponent of {', '.join(names)} "
                            f"reaches {EXPONENT_LIMIT}")


def _real(x):
    """An int or Fraction coefficient, unchanged (both have .numerator and
    .denominator); TypeError for anything else, a GaussRational included."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"polynomial coefficients are rational: {x!r}")


def _qmul(na: int, da: int, nb: int, db: int) -> tuple:
    """The reduced pair of na/da * nb/db for reduced pairs, cross-reduced as
    Fraction multiplication does; a denominator of 1 needs no gcd."""
    if db != 1:
        g = _igcd(na, db)
        if g != 1:
            na, db = na // g, db // g
    if da != 1:
        g = _igcd(nb, da)
        if g != 1:
            nb, da = nb // g, da // g
    return na * nb, da * db


def _primitive(ints: dict) -> tuple:
    """(P, g) with ints = g * P, P primitive with a positive leading
    coefficient; ints holds nonzero ints and is not empty."""
    g = _igcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {e: v // g for e, v in ints.items()}
    return ints, g


def _normal(vars, ints: dict, num: int, den: int) -> "MPoly":
    """num/den * ints in the canonical form of MPoly; ints holds nonzero
    ints, num/den is a reduced pair, nonzero unless ints is empty."""
    if not ints:
        return MPoly(vars, 0, 1, ints)
    ints, g = _primitive(ints)
    if g != 1:
        num, den = _qmul(num, den, g, 1)
    return MPoly(vars, num, den, ints)


# integer polynomials: {packed exponent: nonzero int} dicts, the P of MPoly

def _imac(vars: tuple, prods) -> dict:
    """The integer polynomial sum of k * a * b over the triples (k, a, b)
    of prods, in one accumulator: the kernel's one product loop.  The
    exponent check and the zero drop run once, on the whole sum."""
    out: dict = {}
    get = out.get
    for k, a, b in prods:
        # the shorter factor in the outer loop
        if len(a) > len(b):
            a, b = b, a
        items = b.items()
        for e1, c1 in a.items():
            c1 *= k
            for e2, c2 in items:
                exp = e1 + e2
                out[exp] = get(exp, 0) + c1 * c2
    # fields stay below 2**15, so a sum sets its own guard bit and never
    # carries; terms that cancelled are still keys here
    guard = _guard(len(vars))
    if reduce(or_, out, 0) & guard:
        raise _overflow(next(e for e in out if e & guard), vars)
    if 0 in out.values():
        out = {e: v for e, v in out.items() if v}
    return out


def _sum_products(vars: tuple, prods: list) -> "MPoly":
    """The sum of s * a * b over the triples (s, a, b) of prods, for signs s
    of 1 or -1 and nonzero MPolys a, b.  The products' contents are scaled
    to the common content g/d, g the gcd of their numerators and d the lcm
    of their denominators, a coprime pair (a prime of g divides every
    numerator, so no denominator), and summed in one _imac accumulator,
    normalized once.  One product is canonical by Gauss's lemma."""
    if not prods:
        return MPoly(vars, 0, 1, {})
    prods = [(*_qmul(s * a._num, a._den, b._num, b._den), a._prim, b._prim)
             for s, a, b in prods]
    if len(prods) == 1:
        [(num, den, a, b)] = prods
        return MPoly(vars, num, den, _imac(vars, [(1, a, b)]))
    g = _igcd(*(num for num, _, _, _ in prods))
    d = lcm(*(den for _, den, _, _ in prods))
    return _normal(vars, _imac(vars, [(num // g * (d // den), a, b)
                                      for num, den, a, b in prods]), g, d)


def _icomb(a: dict, ka: int, b: dict, kb: int) -> dict:
    """ka * a + kb * b for integer polynomials and nonzero ints ka, kb."""
    if len(a) < len(b):
        a, b, ka, kb = b, a, kb, ka
    out = dict(a) if ka == 1 else {e: ka * v for e, v in a.items()}
    get = out.get
    for e, v in b.items():
        s = get(e, 0) + kb * v
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _buckets(prim: dict, off: int) -> list:
    """An integer polynomial's coefficients in the variable at field
    offset off, ascending powers, with that field zeroed."""
    out: list = []
    for exp, v in prim.items():
        k = (exp >> off) & _FIELD
        while len(out) <= k:
            out.append({})
        out[k][exp - (k << off)] = v
    return out


class MPoly:
    """Sparse multivariate polynomial with rational coefficients.

    The value is num/den * P.  The content num/den is two ints, coprime,
    with den > 0 and the sign on num; P maps packed exponents to nonzero
    ints, is primitive (the gcd of its coefficients is 1) and has a positive
    leading coefficient (at the largest packed exponent).  The zero
    polynomial is 0/1 with no terms.  The form is canonical, so equality
    compares num, den and P.  By Gauss's lemma a product of primitive
    polynomials is primitive, and its leading coefficient is the product of
    theirs, so __mul__ multiplies ints, and cross-reduces the two contents
    with at most two int gcds and none over P; scalar products, negation,
    exact_div's content and monic touch only the pair; sums, differences,
    evaluate and the coefficients cut out of P (see coefficients) take one
    gcd over their integer coefficients.  A Fraction is built only where a
    coefficient is handed out: scalar, leading_coefficient, terms,
    monomials and to_str.

    A packed exponent is one int with a 16-bit field per variable, the
    first variable in the most significant field, and the top bit of each
    field kept clear as a guard; so integer order is the canonical
    lexicographic term order, and exponents stay below EXPONENT_LIMIT or
    the operation raises ExponentOverflow.  The layout and the split into
    content and P are private to this module: from_exponents and monomials
    convert from and to exponent tuples, and terms is a read-only
    {packed exponent: Fraction} view.  Values are immutable by convention;
    all operations return fresh instances, which may share P.
    """

    __slots__ = ("vars", "_num", "_den", "_prim")

    def __init__(self, vars, num: int, den: int, prim: dict):
        # stored as given: callers pass the canonical form (see _normal)
        self.vars = tuple(vars)
        self._num = num
        self._den = den
        self._prim = prim

    @classmethod
    def zero(cls, vars) -> "MPoly":
        return cls(vars, 0, 1, {})

    @classmethod
    def const(cls, vars, c) -> "MPoly":
        c = _real(c)
        if not c:
            return cls(vars, 0, 1, {})
        return cls(vars, c.numerator, c.denominator, {0: 1})

    @classmethod
    def variable(cls, vars, name) -> "MPoly":
        vars = tuple(vars)
        return cls(vars, 1, 1, {1 << _offset(vars, name): 1})

    @classmethod
    def from_exponents(cls, vars, terms: dict) -> "MPoly":
        """The polynomial with the given {exponent tuple: coefficient} terms;
        zero coefficients are dropped."""
        vars = tuple(vars)
        packed = {}
        for exps, c in terms.items():
            c = _real(c)
            if c:
                packed[_pack(exps, len(vars))] = c
        den = lcm(*(c.denominator for c in packed.values()))
        return _normal(vars, {e: c.numerator * (den // c.denominator)
                              for e, c in packed.items()}, 1, den)

    @property
    def terms(self) -> dict:
        """{packed exponent: Fraction coefficient}, built on each read."""
        num, den = self._num, self._den
        return {e: Fraction(num * v, den) for e, v in self._prim.items()}

    def monomials(self):
        """The (exponent tuple, coefficient) pairs of the terms."""
        n = len(self.vars)
        num, den = self._num, self._den
        for exp, v in self._prim.items():
            yield _unpack(exp, n), Fraction(num * v, den)

    def is_zero(self) -> bool:
        return not self._prim

    def __bool__(self):
        return bool(self._prim)

    @property
    def term_count(self) -> int:
        return len(self._prim)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            try:
                other = self.const(self.vars, other)
            except TypeError:
                return NotImplemented
        return (self.vars == other.vars and self._num == other._num
                and self._den == other._den and self._prim == other._prim)

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.vars is not self.vars and other.vars != self.vars:
                raise ValueError("variable tuples differ")
            return other
        return MPoly.const(self.vars, other)

    def _plus(self, other: "MPoly", sign: int) -> "MPoly":
        """self + sign * other, with one content gcd over the result."""
        if not other._prim:
            return self
        if not self._prim:
            return other if sign > 0 else -other
        # over the rational gcd g = gcd(na, nb) / lcm(da, db) of the
        # contents, both scale factors are ints; the content of the sum is
        # g * h / d for the gcd h of its ints, and g is coprime to d (a
        # prime of g divides na and nb, so neither da nor db)
        na, da, nb, db = self._num, self._den, other._num, other._den
        g, d = _igcd(na, nb), lcm(da, db)
        out = _icomb(self._prim, na // g * (d // da),
                     other._prim, sign * nb // g * (d // db))
        if not out:
            return MPoly(self.vars, 0, 1, out)
        out, h = _primitive(out)
        return MPoly(self.vars, *_qmul(h, 1, g, d), out)

    def __add__(self, other):
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, -self._num, self._den, self._prim)

    def __sub__(self, other):
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = _real(other)
            if not c or not self._prim:
                return MPoly(self.vars, 0, 1, {})
            return MPoly(self.vars, *_qmul(self._num, self._den, c.numerator,
                                           c.denominator), self._prim)
        if other.vars is not self.vars and other.vars != self.vars:
            raise ValueError("variable tuples differ")
        if not self._prim or not other._prim:
            return MPoly(self.vars, 0, 1, {})
        return MPoly(self.vars, *_qmul(self._num, self._den,
                                       other._num, other._den),
                     _imac(self.vars, [(1, self._prim, other._prim)]))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return MPoly.const(self.vars, 1) if out is None else out

    def evaluate(self, assignment: dict) -> "MPoly":
        """Partial exact evaluation; bound variables get exponent 0.

        A value n/d at a variable of degree t scales the term with exponent
        k there by n^k * d^(t - k) and the content by 1/d^t, so the terms
        stay integers.
        """
        fields = []
        scale_den = 1
        for name, val in assignment.items():
            val = _real(val)
            off = _offset(self.vars, name)
            ks = {(e >> off) & _FIELD for e in self._prim}
            t = max(ks, default=0)
            num, den = val.numerator, val.denominator
            fields.append((off, {k: num ** k * den ** (t - k) for k in ks}))
            scale_den *= den ** t
        out: dict = {}
        get = out.get
        for exp, v in self._prim.items():
            for off, scale in fields:
                k = (exp >> off) & _FIELD
                v *= scale[k]
                exp -= k << off
            out[exp] = get(exp, 0) + v
        if 0 in out.values():
            out = {e: v for e, v in out.items() if v}
        return _normal(self.vars, out,
                       *_qmul(self._num, self._den, 1, scale_den))

    def scalar(self) -> Fraction:
        if not self._prim:
            return Fraction(0)
        if len(self._prim) == 1 and 0 in self._prim:
            return Fraction(self._num, self._den)
        raise ValueError("polynomial is not constant")

    def degree(self) -> int:
        if not self._prim:
            return -1
        n = len(self.vars)
        return max(sum(_unpack(e, n)) for e in self._prim)

    def degree_in(self, var: str) -> int:
        off = _offset(self.vars, var)
        if not self._prim:
            return 0
        return max((e >> off) & _FIELD for e in self._prim)

    def coefficients(self, names) -> dict:
        """self as a polynomial in the variables names, from one pass over
        P: {exponent tuple over names: coefficient}, for the monomials in
        names that occur; each coefficient has those variables' exponents
        zeroed and keeps the others."""
        offs = [_offset(self.vars, name) for name in names]
        groups = _coefficients_in(self, reduce(or_, (_FIELD << off
                                                     for off in offs), 0))
        return {tuple(mono >> off & _FIELD for off in offs): c
                for mono, c in groups.items()}

    def leading_coefficient(self) -> Fraction:
        return Fraction(self._num * self._prim[max(self._prim)], self._den)

    def monic(self) -> "MPoly":
        if not self._prim:
            return self
        return MPoly(self.vars, 1, self._prim[max(self._prim)], self._prim)

    def exact_div(self, divisor: "MPoly") -> "MPoly":
        """Exact division; raises NotDivisible if self is not a multiple.

        The divisor's P is primitive, so by Gauss's lemma a quotient of the
        two P's is an integer polynomial: a step whose coefficient does not
        divide exactly already proves a remainder.  The next remainder term
        comes off a heap of the pending packed exponents.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        guard = _guard(len(self.vars))
        dexp = max(divisor._prim)
        dlc = divisor._prim[dexp]
        rest = [(e, v) for e, v in divisor._prim.items() if e != dexp]
        rem = dict(self._prim)
        heap = [-e for e in rem]
        heapify(heap)
        q: dict = {}
        while rem:
            rexp = -heappop(heap)
            c = rem.pop(rexp, 0)
            if not c:
                continue  # cancelled since it was pushed
            qc, r = divmod(c, dlc)
            # the all-fields divisibility test of the module docstring; a
            # guard bit set in rexp marks a term no exact division makes
            if (r or rexp & guard
                    or ((rexp | guard) - dexp) & guard != guard):
                raise NotDivisible(
                    f"remainder with leading term "
                    f"{_unpack(rexp, len(self.vars))}")
            qexp = rexp - dexp
            q[qexp] = qc
            for e2, c2 in rest:
                exp = qexp + e2
                s = rem.get(exp)
                if s is None:
                    rem[exp] = -qc * c2
                    heappush(heap, -exp)
                else:
                    s -= qc * c2
                    if s:
                        rem[exp] = s
                    else:
                        del rem[exp]
        # times the divisor's reciprocal, its sign moved onto the numerator
        nb, db = divisor._num, divisor._den
        if nb < 0:
            nb, db = -nb, -db
        return MPoly(self.vars, *_qmul(self._num, self._den, db, nb), q)

    def to_str(self) -> str:
        if not self._prim:
            return "0"
        n = len(self.vars)
        parts = []
        for exp in sorted(self._prim, reverse=True):
            c = Fraction(self._num * self._prim[exp], self._den)
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, _unpack(exp, n)) if k
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        s = self.to_str()
        return s if len(s) <= 120 else f"<MPoly {len(self._prim)} terms, deg {self.degree()}>"


def generators(names):
    """Variable polynomials for a fresh ring with the given variable order."""
    names = tuple(names)
    return [MPoly.variable(names, n) for n in names]


def _prem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in var, over
    the integers: of the P's of a and b, so up to a rational factor, which
    the gcd does not see."""
    off = _offset(a.vars, var)
    la, lb = _buckets(a._prim, off), _buckets(b._prim, off)
    m, n = len(la) - 1, len(lb) - 1
    if m < n:
        raise ValueError("pseudo-division needs deg a >= deg b")
    lbn = lb[n]
    r = la
    for k in range(m, n - 1, -1):
        # lbn * r[k] - r[k] * lbn cancels, so the top slot is dropped; slot
        # i takes lbn * r[i] - r[k] * lb[j], j = i - (k - n), in one sum
        top = r[k]
        r = [_imac(a.vars, [(1, lbn, c), (-1, top, lb[j] if j >= 0 else {})])
             for j, c in enumerate(r[:k], n - k)]
    return _normal(a.vars, {exp + (k << off): v for k, c in enumerate(r)
                            for exp, v in c.items()}, 1, 1)


def _fold(ops) -> MPoly:
    """The gcd of the polynomials ops, up to a unit, folded in the order
    given; 1 at the first nonzero constant, and no later operand is read."""
    g = None
    for p in ops:
        g = p if g is None else _gcd_impl(g, p)
        if len(g._prim) == 1 and 0 in g._prim:
            return MPoly(g.vars, 1, 1, {0: 1})
    return g


def _content(p: MPoly, var: str) -> MPoly:
    """The gcd of p's coefficients in var, folded in ascending powers."""
    return _fold(_normal(p.vars, b, p._num, p._den)
                 for b in _buckets(p._prim, _offset(p.vars, var)) if b)


def _div(p: MPoly, d: MPoly) -> MPoly:
    """p.exact_div(d), with no division when d is the constant 1."""
    if d._num == 1 and d._den == 1 and d._prim == {0: 1}:
        return p
    return p.exact_div(d)


def _support(p: MPoly) -> int:
    """The fields of the variables that occur in p, as a mask."""
    used = reduce(or_, p._prim, 0)
    return sum(_FIELD << off for off in range(0, len(p.vars) * _W, _W)
               if used >> off & _FIELD)


def _coefficients_in(p: MPoly, fields: int) -> dict:
    """p as a polynomial in the variables of the field mask, as
    {packed monomial in them: coefficient}."""
    groups: dict = {}
    for exp, v in p._prim.items():
        mono = exp & fields
        groups.setdefault(mono, {})[exp - mono] = v
    return {mono: _normal(p.vars, t, p._num, p._den)
            for mono, t in groups.items()}


def _least_exponents(exps, n: int) -> int:
    """The packed exponent whose fields are the least over exps."""
    guard = _guard(n)

    def field_min(a, b):
        # the guard bit of a field survives (a | guard) - b iff a >= b there
        b_fields = ((((a | guard) - b) & guard) >> (_W - 1)) * _FIELD
        return a & ~b_fields | b & b_fields

    return reduce(field_min, exps)


def _gcd_impl(p: MPoly, q: MPoly) -> MPoly:
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if len(p._prim) == 1 or len(q._prim) == 1:
        mono = _least_exponents(chain(p._prim, q._prim), len(p.vars))
        return MPoly(p.vars, 1, 1, {mono: 1})
    used_p, used_q = _support(p), _support(q)
    if used_p != used_q:
        extra = used_q & ~used_p
        if not extra:
            p, q, extra = q, p, used_p & ~used_q
        return _fold(chain((p,), sorted(_coefficients_in(q, extra).values(),
                                        key=lambda c: len(c._prim))))
    # the most significant variable p uses
    main = p.vars[len(p.vars) - 1 - (used_p.bit_length() - 1) // _W]
    off = _offset(p.vars, main)
    field = _FIELD << off
    a, b = p, q
    da, db = p.degree_in(main), q.degree_in(main)
    if da < db:
        a, b, da, db = q, p, db, da
    ca, cb = _content(a, main), _content(b, main)
    a, b = _div(a, ca), _div(b, cb)
    one = MPoly.const(p.vars, 1)
    g = h = one
    while True:
        d = da - db
        r = _prem(a, b, main)
        if r.is_zero():
            break
        dr = r.degree_in(main)
        if dr == 0:
            b, db = one, 0
            break
        beta = g * h ** d
        a, b = b, _div(r, beta)
        da, db = db, dr
        top = da << off
        g = _normal(p.vars, {e - top: v for e, v in a._prim.items()
                             if e & field == top}, a._num, a._den)
        if d == 1:
            h = g
        elif d > 1:
            h = _div(g ** d, h ** (d - 1))
    b = _div(b, _content(b, main)) if db > 0 else one
    return _gcd_impl(ca, cb) * b


def gcd(p: MPoly, q: MPoly, *more: MPoly) -> MPoly:
    """The gcd of two or more polynomials over one variable tuple, monic in
    the canonical order; 0 when all are 0.

    The operands are folded in the order given, and the fold returns 1 at
    the first nonzero constant without reading the rest.  Two exact
    reductions come before each pairwise subresultant remainder sequence.
    If one operand is a single term, every divisor of it is a monomial, so
    the gcd is the monomial of the least exponents over both operands'
    terms.  If q uses variables X that p lacks, a common factor divides p
    and so is free of X; an X-free polynomial divides q iff it divides each
    coefficient of q as a polynomial in X, so the gcd is that of p and
    those coefficients, folded smallest first.
    """
    return _fold([p] + [p._coerce(x) for x in (q, *more)]).monic()


def det(rows) -> MPoly:
    """Determinant of a square matrix of MPoly by division-free Laplace
    expansion along the first row, recursively.

    minor(cols) is the determinant of the last len(cols) rows restricted to
    the ascending column tuple cols; every sub-minor is computed once and
    memoized by its column set, so an n x n determinant costs
    sum over s = 2..n of C(n, s) * s products (28 for n = 4) and no
    divisions, which suits the sizes this package builds: T's one 4x4 minor
    and Sylvester matrices of at most 4 rows (the chain's resultants in e0
    of two quadrics; its resultants in e3 are taken in e3^2, at most 3
    rows).  Over the parameter ring this avoids the exact polynomial
    division at every step that fraction-free elimination would need.
    Zero entries and zero sub-minors are skipped, and a minor's signed
    cofactor products go into one _sum_products integer accumulator, so no
    product becomes an MPoly of its own and each minor takes one exponent
    check and one gcd.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if not n:
        raise ValueError("empty matrix")
    memo: dict = {}

    def minor(cols: tuple) -> MPoly:
        if len(cols) == 1:
            return m[-1][cols[0]]
        out = memo.get(cols)
        if out is None:
            row = m[n - len(cols)]
            prods = []
            for j, c in enumerate(cols):
                if row[c]:
                    sub = minor(cols[:j] + cols[j + 1:])
                    if sub:
                        prods.append((-1 if j & 1 else 1, row[c], sub))
            out = memo[cols] = _sum_products(row[0].vars, prods)
        return out

    return minor(tuple(range(n)))


def dot(weights, polys) -> MPoly:
    """sum(w * x for w, x in zip(weights, polys)) over equally many weights
    and polys, summed by _sum_products; polys are MPolys over one variable
    tuple, and a weight is a rational or an MPoly over it."""
    polys = list(polys)
    ref = polys[0]
    pairs = [(ref._coerce(w), ref._coerce(x))
             for w, x in zip(weights, polys, strict=True)]
    return _sum_products(ref.vars, [(1, w, x) for w, x in pairs if w and x])


def proportional(a, b) -> bool:
    """Whether the sequences a and b are the same projective point; no
    division is made, so MPoly entries compare over their fraction field."""
    if [not x for x in a] != [not y for y in b]:
        return False
    ref = next((k for k, x in enumerate(a) if x), None)
    if ref is None:
        return True
    ra, rb = a[ref], b[ref]
    return all(x * rb == y * ra for x, y in zip(a, b) if x)


def deflate(p: MPoly, var: str, k: int) -> MPoly:
    """p with var^k -> var; ValueError unless k divides every exponent of var."""
    off = _offset(p.vars, var)
    prim = {}
    for exp, v in p._prim.items():
        e, rest = divmod(exp >> off & _FIELD, k)
        if rest:
            raise ValueError(f"{var}^{k} does not divide every power of {var}")
        prim[exp - (e * (k - 1) << off)] = v
    return MPoly(p.vars, p._num, p._den, prim)


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Sylvester resultant eliminating var; p's coefficient rows first.

    The determinant of the (m + n)-row Sylvester matrix for degrees m and n
    in var; ZeroDegree if either is 0.
    """
    q = p._coerce(q)
    pc, qc = p.coefficients((var,)), q.coefficients((var,))
    m, n = max(pc, default=(0,))[0], max(qc, default=(0,))[0]
    if m == 0 or n == 0:
        raise ZeroDegree(f"input constant in {var}")
    zero = MPoly.zero(p.vars)
    pr = [pc.get((e,), zero) for e in range(m, -1, -1)]
    qr = [qc.get((e,), zero) for e in range(n, -1, -1)]
    return det([[zero] * i + pr + [zero] * (n - 1 - i) for i in range(n)]
                + [[zero] * i + qr + [zero] * (m - 1 - i) for i in range(m)])
