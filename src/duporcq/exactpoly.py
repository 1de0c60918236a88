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


class MPoly:
    """Sparse multivariate polynomial with exact coefficients.

    terms maps exponent tuples (one slot per variable) to nonzero
    coefficients: Fractions, and GaussRationals only where the imaginary
    part is nonzero (see the module docstring).  Values are immutable by
    convention; all operations return fresh instances.
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
        z = (0,) * len(vars)
        return cls(vars, {z: c} if c else {})

    @classmethod
    def variable(cls, vars, name) -> "MPoly":
        i = tuple(vars).index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exp: Fraction(1)})

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
            if other.vars != self.vars:
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
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                s = out.get(exp)
                s = c if s is None else s + c
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
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
            base = base * base
            k >>= 1
        return out

    def evaluate(self, assignment: dict) -> "MPoly":
        """Partial exact evaluation; bound variables get exponent 0."""
        idx = {}
        for name, val in assignment.items():
            idx[self.vars.index(name)] = as_coeff(val)
        out: dict = {}
        for exp, c in self.terms.items():
            val = c
            new = list(exp)
            for i, s in idx.items():
                k = exp[i]
                if k:
                    val = val * s ** k
                    new[i] = 0
            if not val:
                continue
            key = tuple(new)
            acc = out.get(key)
            acc = val if acc is None else acc + val
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return MPoly(self.vars, out)

    def scalar(self):
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (exp, c), = self.terms.items()
            if not any(exp):
                return c
        raise ValueError("polynomial is not constant")

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        i = self.vars.index(var)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def coeff_list(self, var: str) -> list:
        """Coefficients as polynomials (var slot zeroed), ascending powers."""
        i = self.vars.index(var)
        d = self.degree_in(var)
        buckets: list[dict] = [dict() for _ in range(d + 1)]
        for exp, c in self.terms.items():
            k = exp[i]
            e2 = exp[:i] + (0,) + exp[i + 1:]
            buckets[k][e2] = c
        return [MPoly(self.vars, b) for b in buckets]

    def coeff_block(self, block: dict) -> "MPoly":
        """Coefficient of the monomial given by block (exact match on those vars)."""
        idxs = [(self.vars.index(k), v) for k, v in block.items()]
        out = {}
        for exp, c in self.terms.items():
            if all(exp[i] == v for i, v in idxs):
                e2 = list(exp)
                for i, _ in idxs:
                    e2[i] = 0
                out[tuple(e2)] = c
        return MPoly(self.vars, out)

    def leading_exponent(self) -> tuple:
        return max(self.terms)

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
        dexp = divisor.leading_exponent()
        dlc = divisor.terms[dexp]
        rem = dict(self.terms)
        q: dict = {}
        while rem:
            rexp = max(rem)
            qexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(k < 0 for k in qexp):
                raise NotDivisible(f"remainder with leading term {rexp}")
            qc = rem[rexp] / dlc
            q[qexp] = qc
            for e2, c2 in divisor.terms.items():
                exp = tuple(a + b for a, b in zip(qexp, e2))
                s = rem.get(exp, _ZERO) - qc * c2
                if s:
                    rem[exp] = s
                else:
                    rem.pop(exp, None)
        return MPoly(self.vars, q)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, exp) if k
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


def _shift(p: MPoly, var_idx: int, k: int) -> MPoly:
    if k == 0 or p.is_zero():
        return p
    out = {}
    for exp, c in p.terms.items():
        e2 = exp[:var_idx] + (exp[var_idx] + k,) + exp[var_idx + 1:]
        out[e2] = c
    return MPoly(p.vars, out)


def _from_coeff_list(coeffs: list, var: str) -> MPoly:
    if not coeffs:
        raise ValueError("empty coefficient list")
    vars = coeffs[0].vars
    i = vars.index(var)
    out = MPoly.zero(vars)
    for k, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + _shift(c, i, k)
    return out


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


def _used(p: MPoly) -> set:
    """Slots of the variables that occur in p."""
    return {i for i, col in enumerate(zip(*p.terms)) if any(col)}


def _coefficients_in(p: MPoly, slots) -> list:
    """p's coefficients as a polynomial in the variables at slots."""
    groups: dict = {}
    for exp, c in p.terms.items():
        rest = list(exp)
        for i in slots:
            rest[i] = 0
        groups.setdefault(tuple(exp[i] for i in slots), {})[tuple(rest)] = c
    return [MPoly(p.vars, t) for t in groups.values()]


def _gcd_impl(p: MPoly, q: MPoly) -> MPoly:
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if len(p.terms) == 1 or len(q.terms) == 1:
        return MPoly(p.vars, {tuple(map(min, *p.terms, *q.terms)): Fraction(1)})
    used_p, used_q = _used(p), _used(q)
    if used_p != used_q:
        extra = used_q - used_p
        if not extra:
            p, q, extra = q, p, used_p - used_q
        g = p
        for c in sorted(_coefficients_in(q, sorted(extra)),
                        key=lambda c: len(c.terms)):
            g = _gcd_impl(g, c)
            if g.degree() == 0:
                break
        return g
    main = p.vars[min(used_p)]
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
