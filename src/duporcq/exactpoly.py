"""Exact arithmetic kernel: sparse multivariate polynomials and Gaussian rationals.

Every symbolic claim in this package reduces to arithmetic in this module.
The coefficient domain is the real rationals: a coefficient or scalar value
is a Fraction, and a GaussRational (a pair of Fractions) stands only for a
value whose imaginary part is nonzero.  as_coeff brings ints and real
GaussRationals into that form where values enter the kernel, and
GaussRational arithmetic returns a Fraction whenever its result is real, so
real inputs never pay for complex multiplication.  Polynomials are sparse
exponent dicts over a fixed ordered variable tuple.  The canonical term
order is lexicographic on exponent tuples with the first variable most
significant; serialization, leading coefficients, and gcd normalization all
refer to that order.

An exponent tuple is stored packed into one int (Monagan and Pearce's
packed exponent vectors): variable i of n owns the 16-bit field at bit
offset (n - 1 - i) * 16.  Fields never overlap and the first variable is
the most significant, so comparing packed ints compares the tuples
lexicographically, and max(terms) is the leading exponent.  Multiplying
monomials is one int addition.  The top bit of each field is a guard that
stays clear: an exponent is below EXPONENT_LIMIT = 2**15, so the sum of two
fields cannot carry into the next one, and a product whose sum sets a guard
bit raises ExponentOverflow.  exact_div tests divisibility of all fields
at once: with every guard bit of r set, r - d borrows within a field and
clears its guard bit exactly where r's exponent is below d's.

Pinned conventions:
  * resultant(p, q, x) is the Sylvester determinant with p's coefficient rows
    first, so resultant(x - a, x - b, x) == a - b;
  * gcd output is normalized to leading coefficient 1 (0 when both inputs 0);
  * multivariate gcd runs by recursive content/primitive-part reduction with a
    subresultant polynomial remainder sequence in the main variable, after
    two exact reductions on the variables the operands use: a single-term
    operand gives the monomial of least exponents, and variables only one
    operand uses are split off through its coefficients in them;
  * det is a division-free Laplace expansion with sub-minors memoized by
    column set, O(2^n * n) products for an n x n matrix; the largest the
    package builds is the resultant chain's 8-row Sylvester matrix in e3;
  * to_str renders rationals as a/b and the imaginary unit as the literal i,
    terms in descending canonical order (stable for golden-file tests);
  * proportional(a, b) is the one projective-equality test, for sequences
    of scalars or MPolys: equal zero patterns, then cross-multiplication
    against the first nonzero slot; two all-zero sequences are proportional.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
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
        if isinstance(other, MPoly):
            return NotImplemented
        other = as_gauss(other)
        return _gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, MPoly):
            return NotImplemented
        return self + (-as_gauss(other))

    def __rsub__(self, other):
        return as_gauss(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gauss(self.re * other, self.im * other)
        if isinstance(other, MPoly):
            return NotImplemented
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
    """re + im*i in the coefficient domain: a Fraction when im == 0."""
    return GaussRational(re, im) if im else re


def as_gauss(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(x)
    raise TypeError(f"cannot coerce {x!r} to GaussRational")


def as_coeff(x):
    """A scalar in the coefficient domain: ints and real GaussRationals
    become Fractions; a GaussRational with nonzero im stays as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, GaussRational):
        return x if x.im else x.re
    raise TypeError(f"not an exact scalar: {x!r}")


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


class MPoly:
    """Sparse multivariate polynomial with exact coefficients.

    terms maps packed exponents to nonzero coefficients: Fractions, and
    GaussRationals only where the imaginary part is nonzero (see the module
    docstring).  A packed exponent is one int with a 16-bit field per
    variable, the first variable in the most significant field, and the top
    bit of each field kept clear as a guard; so integer order is the
    canonical lexicographic term order, and exponents stay below
    EXPONENT_LIMIT or the operation raises ExponentOverflow.  The layout is
    private to this module: from_exponents and monomials convert from and to
    exponent tuples.  Values are immutable by convention; all operations
    return fresh instances.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = terms

    @classmethod
    def zero(cls, vars) -> "MPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c) -> "MPoly":
        c = as_coeff(c)
        return cls(vars, {0: c} if c else {})

    @classmethod
    def variable(cls, vars, name) -> "MPoly":
        vars = tuple(vars)
        return cls(vars, {1 << _offset(vars, name): Fraction(1)})

    @classmethod
    def from_exponents(cls, vars, terms: dict) -> "MPoly":
        """The polynomial with the given {exponent tuple: coefficient} terms;
        zero coefficients are dropped."""
        vars = tuple(vars)
        out = {}
        for exps, c in terms.items():
            c = as_coeff(c)
            if c:
                out[_pack(exps, len(vars))] = c
        return cls(vars, out)

    def monomials(self):
        """The (exponent tuple, coefficient) pairs of the terms."""
        n = len(self.vars)
        for exp, c in self.terms.items():
            yield _unpack(exp, n), c

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            try:
                other = self.const(self.vars, other)
            except TypeError:
                return NotImplemented
            return (self - other).is_zero()
        return self.vars == other.vars and self.terms == other.terms

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.vars is not self.vars and other.vars != self.vars:
                raise ValueError("variable tuples differ")
            return other
        return MPoly.const(self.vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for exp, c in b.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            if s is None:
                out[exp] = -c
            else:
                s -= c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return MPoly(self.vars, out)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = as_coeff(other)
            return MPoly(self.vars, {e: v * c for e, v in self.terms.items()}
                         if c else {})
        if other.vars is not self.vars and other.vars != self.vars:
            raise ValueError("variable tuples differ")
        guard = _guard(len(self.vars))
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = e1 + e2
                if exp & guard:
                    raise _overflow(exp, self.vars)
                s = out.get(exp)
                if s is None:
                    out[exp] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[exp] = s
                    else:
                        del out[exp]
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def evaluate(self, assignment: dict) -> "MPoly":
        """Partial exact evaluation; bound variables get exponent 0."""
        fields = [(_offset(self.vars, name), as_coeff(val))
                  for name, val in assignment.items()]
        out: dict = {}
        for exp, c in self.terms.items():
            val = c
            for off, s in fields:
                k = (exp >> off) & _FIELD
                if k:
                    val = val * s ** k
                    exp -= k << off
            if not val:
                continue
            acc = out.get(exp)
            acc = val if acc is None else acc + val
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return MPoly(self.vars, out)

    def scalar(self):
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (exp, c), = self.terms.items()
            if not exp:
                return c
        raise ValueError("polynomial is not constant")

    def degree(self) -> int:
        if not self.terms:
            return -1
        n = len(self.vars)
        return max(sum(_unpack(e, n)) for e in self.terms)

    def degree_in(self, var: str) -> int:
        off = _offset(self.vars, var)
        if not self.terms:
            return 0
        return max((e >> off) & _FIELD for e in self.terms)

    def coeff_list(self, var: str) -> list:
        """Coefficients as polynomials (var slot zeroed), ascending powers."""
        off = _offset(self.vars, var)
        d = self.degree_in(var)
        buckets: list[dict] = [dict() for _ in range(d + 1)]
        for exp, c in self.terms.items():
            k = (exp >> off) & _FIELD
            buckets[k][exp - (k << off)] = c
        return [MPoly(self.vars, b) for b in buckets]

    def coeff_block(self, block: dict) -> "MPoly":
        """Coefficient of the monomial given by block (exact match on those vars)."""
        mask = want = 0
        for name, k in block.items():
            off = _offset(self.vars, name)
            mask |= _FIELD << off
            want |= k << off
        return MPoly(self.vars, {exp - want: c for exp, c in self.terms.items()
                                 if exp & mask == want})

    def leading_coefficient(self):
        return self.terms[max(self.terms)]

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        inv = 1 / self.leading_coefficient()
        return MPoly(self.vars, {e: c * inv for e, c in self.terms.items()})

    def exact_div(self, divisor: "MPoly") -> "MPoly":
        """Exact division; raises NotDivisible if self is not a multiple."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        guard = _guard(len(self.vars))
        dexp = max(divisor.terms)
        dlc = divisor.terms[dexp]
        rem = dict(self.terms)
        q: dict = {}
        while rem:
            rexp = max(rem)
            # the all-fields divisibility test of the module docstring; a
            # guard bit set in rexp marks a term no exact division makes
            if rexp & guard or ((rexp | guard) - dexp) & guard != guard:
                raise NotDivisible(
                    f"remainder with leading term "
                    f"{_unpack(rexp, len(self.vars))}")
            qexp = rexp - dexp
            qc = rem[rexp] / dlc
            q[qexp] = qc
            for e2, c2 in divisor.terms.items():
                exp = qexp + e2
                s = rem.get(exp, _ZERO) - qc * c2
                if s:
                    rem[exp] = s
                else:
                    rem.pop(exp, None)
        return MPoly(self.vars, q)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        n = len(self.vars)
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, _unpack(exp, n)) if k
            )
            cs = str(c)
            mixed = isinstance(c, GaussRational) and c.re and c.im
            if not mono:
                parts.append(f"({cs})" if mixed else cs)
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            elif mixed:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        s = self.to_str()
        return s if len(s) <= 120 else f"<MPoly {len(self.terms)} terms, deg {self.degree()}>"


_ZERO = Fraction(0)


def generators(names):
    """Variable polynomials for a fresh ring with the given variable order."""
    names = tuple(names)
    return [MPoly.variable(names, n) for n in names]


def derivative(p: MPoly, var: str) -> MPoly:
    """Partial derivative of p in var."""
    off = _offset(p.vars, var)
    one = 1 << off
    out = {}
    for exp, c in p.terms.items():
        k = (exp >> off) & _FIELD
        if k:
            out[exp - one] = c * k
    return MPoly(p.vars, out)


def _from_coeff_list(coeffs: list, var: str) -> MPoly:
    """sum(coeffs[k] * var**k); every coefficient must be free of var."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    vars = coeffs[0].vars
    off = _offset(vars, var)
    return MPoly(vars, {exp + (k << off): c for k, p in enumerate(coeffs)
                        for exp, c in p.terms.items()})


def _prem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, in var."""
    la = a.coeff_list(var)
    lb = b.coeff_list(var)
    m, n = len(la) - 1, len(lb) - 1
    if m < n:
        raise ValueError("pseudo-division needs deg a >= deg b")
    lbn = lb[n]
    r = list(la)
    for k in range(m, n - 1, -1):
        top = r[k]
        r = [lbn * c for c in r]
        if not top.is_zero():
            for j in range(n + 1):
                r[k - n + j] = r[k - n + j] - top * lb[j]
        r = r[:k]
    if not r:
        return MPoly.zero(a.vars)
    return _from_coeff_list(r, var)


def _content(p: MPoly, var: str) -> MPoly:
    c = MPoly.zero(p.vars)
    for coeff in p.coeff_list(var):
        if not coeff.is_zero():
            c = _gcd_impl(c, coeff)
    return c


def _support(p: MPoly) -> int:
    """The fields of the variables that occur in p, as a mask."""
    used = reduce(or_, p.terms, 0)
    return sum(_FIELD << off for off in range(0, len(p.vars) * _W, _W)
               if used >> off & _FIELD)


def _coefficients_in(p: MPoly, fields: int) -> list:
    """p's coefficients as a polynomial in the variables of the field mask."""
    groups: dict = {}
    for exp, c in p.terms.items():
        mono = exp & fields
        groups.setdefault(mono, {})[exp - mono] = c
    return [MPoly(p.vars, t) for t in groups.values()]


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
    if len(p.terms) == 1 or len(q.terms) == 1:
        mono = _least_exponents(chain(p.terms, q.terms), len(p.vars))
        return MPoly(p.vars, {mono: Fraction(1)})
    used_p, used_q = _support(p), _support(q)
    if used_p != used_q:
        extra = used_q & ~used_p
        if not extra:
            p, q, extra = q, p, used_p & ~used_q
        g = p
        for c in sorted(_coefficients_in(q, extra),
                        key=lambda c: len(c.terms)):
            g = _gcd_impl(g, c)
            if g.degree() == 0:
                break
        return g
    # the most significant variable p uses
    main = p.vars[len(p.vars) - 1 - (used_p.bit_length() - 1) // _W]
    a, b = p, q
    da, db = p.degree_in(main), q.degree_in(main)
    if da < db:
        a, b, da, db = q, p, db, da
    ca, cb = _content(a, main), _content(b, main)
    a = a.exact_div(ca)
    b = b.exact_div(cb)
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
        a, b = b, r.exact_div(beta)
        da, db = db, dr
        g = a.coeff_block({main: da})
        if d == 1:
            h = g
        elif d > 1:
            h = (g ** d).exact_div(h ** (d - 1))
    b = b.exact_div(_content(b, main)) if db > 0 else one
    return _gcd_impl(ca, cb) * b


def gcd(p: MPoly, q: MPoly) -> MPoly:
    """GCD normalized to leading coefficient 1 (canonical order); gcd(0,0)=0.

    Two reductions come before the subresultant remainder sequence, both
    exact.  If p or q is a single term, every divisor of it is a monomial,
    so the gcd is the monomial of the least exponents over both operands'
    terms.  If q uses variables X that p lacks, a common factor divides p
    and so is free of X; an X-free polynomial divides q iff it divides each
    coefficient of q as a polynomial in X, so gcd(p, q) is the gcd of p and
    those coefficients, folded smallest first until it is a constant.
    """
    return _gcd_impl(p, q).monic()


def det(rows) -> MPoly:
    """Determinant of a square matrix of MPoly by division-free Laplace
    expansion.

    Expands along the first row and recurses on the rows below it; the
    minor of the last k rows on a column set is computed once per call and
    memoized by that set.  Zero entries and zero sub-minors are skipped.
    The cost is O(2^n * n) polynomial products and no divisions, which
    suits the sizes this package builds: the 4x4 minors of the 5x4
    f-coefficient matrix and Sylvester matrices of at most 8 rows (the
    chain's resultants in e3 of two polynomials of degree at most 4).
    Over the parameter ring this avoids the exact polynomial division at
    every step that fraction-free elimination would need.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    memo: dict = {}

    def minor(cols: tuple) -> MPoly:
        # determinant of the last len(cols) rows restricted to cols
        if len(cols) == 1:
            return m[-1][cols[0]]
        out = memo.get(cols)
        if out is None:
            row = m[n - len(cols)]
            out = MPoly.zero(row[0].vars)
            for j, c in enumerate(cols):
                if row[c]:
                    sub = minor(cols[:j] + cols[j + 1:])
                    if sub:
                        t = row[c] * sub
                        out = out - t if j & 1 else out + t
            memo[cols] = out
        return out

    return minor(tuple(range(n)))


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


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Sylvester resultant eliminating var; p's coefficient rows first."""
    m, n = p.degree_in(var), q.degree_in(var)
    if m == 0 or n == 0:
        raise ZeroDegree(f"input constant in {var}")
    pc = list(reversed(p.coeff_list(var)))
    qc = list(reversed(q.coeff_list(var)))
    size = m + n
    zero = MPoly.zero(p.vars)
    rows = []
    for i in range(n):
        rows.append([zero] * i + pc + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + qc + [zero] * (m - 1 - i))
    return det(rows)
