"""Exact symbolic scalar expressions over the variables x1..xn.

Every expression is kept in a canonical form: a sum of terms, each term a
rational coefficient times a product of factors ``atom^k``.  Polynomial
subexpressions are always expanded, so equality of polynomials is plain
structural equality of the canonical forms.  Beyond monomial factors the
atom set contains:

* ``exp(u)``,
* ``bump(u)``  -- e^(-1/u^2) extended by 0 at u = 0,
* ``bumpp(u)`` -- e^(-1/u^2) for u > 0 and identically 0 for u <= 0,
* negative integer powers of a polynomial base, produced by
  differentiating the flat functions or by division that does not cancel.

Negative powers of a variable are legitimate only as companions of a
bump/bumpp factor in the same argument (that is how differentiation closes
over the flat functions); such a product extends by zero at the argument's
zero and floating evaluation honours that.  A negative power of bump or
bumpp is a pole on its flat set, as x1^-1 is at 0.

Products and sums have one implementation, ``sum_products``: the sum of
a*b over pairs (a, b), every product of terms added into one dict that is
sorted once.  ``*``, ``+`` and ``diff`` run on it, as do the callers that
sum products (non-polynomial brackets, certificates, minors).

Exact evaluation has one implementation, ``compile_exact`` (a rational
point to a Fraction, or None), and float evaluation one, ``compile_float``
(a list of floats to a float: log-space terms, the same float operations in
the same order at every call); each turns an expression once into a
function of the point.  ``Expr.eval`` and ``Expr.eval_float`` compile and
call; loops over many points compile once, as the flows in ``fields`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

__all__ = [
    "Expr",
    "ExprError",
    "compile_exact",
    "compile_float",
    "ParseError",
    "EvalError",
    "const",
    "var",
    "exp_of",
    "bump",
    "bumpp",
    "parse",
    "ZERO",
    "ONE",
    "poly_coeff_dict",
    "poly_from_coeff_dict",
    "sum_products",
]

# |u| below this counts as the extension point of a flat function.
FLAT_EVAL_EPS = 1e-12

_KIND_RANK = {"var": 0, "exp": 1, "bump": 2, "bumpp": 3, "invbase": 4}


class ExprError(Exception):
    """Malformed symbolic operation (division by zero, bad exponent...)."""


class ParseError(ExprError):
    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EvalError(ExprError):
    """Evaluation hit a pole or an undefined extension."""


@dataclass(frozen=True)
class Atom:
    """A non-trivial factor base: a variable or a function node.

    ``invbase`` marks a general polynomial base carrying a negative
    exponent; positive powers of polynomials are always expanded away.
    The sort key and the hash are computed once, as ``Expr`` keeps its
    hash: every product sorts factors by the one and every term dict
    hashes the other.
    """

    kind: str
    index: int = 0
    arg: Optional["Expr"] = None

    def __post_init__(self):
        object.__setattr__(self, "_key", (0, self.index) if self.kind == "var" else
                           (_KIND_RANK[self.kind], self.arg.sort_key()))
        object.__setattr__(self, "_hash", hash((self.kind, self.index, self.arg)))

    def sort_key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self.kind == "var":
            return f"x{self.index}"
        if self.kind == "invbase":
            return f"({self.arg})"
        return f"{self.kind}({self.arg})"


# A factor is (Atom, nonzero int exponent); a term is (Fraction, factors),
# the factors sorted by their atoms' keys.


def _factor_key(pair):
    return pair[0]._key


def _merge_factors(f1, f2):
    if not f1 or not f2:
        return f1 or f2
    d = dict(f1)
    for atom, k in f2:
        d[atom] = d.get(atom, 0) + k
    return tuple(sorted(((a, k) for a, k in d.items() if k), key=_factor_key))


def _factors_key(factors):
    return tuple((a._key, k) for a, k in factors)


class Expr:
    """Canonical symbolic expression.  Immutable; safe to share."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "_hash", None)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_dict(d):
        items = [(f, c) for f, c in d.items() if c]
        items.sort(key=lambda fc: _factors_key(fc[0]))
        return Expr(tuple((c if type(c) is Fraction else Fraction(c), f) for f, c in items))

    # -- basic predicates ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_polynomial(self):
        for _, factors in self.terms:
            for atom, k in factors:
                if atom.kind != "var" or k < 0:
                    return False
        return True

    def is_analytic(self):
        """Real analytic on all of R^n: no flat (bump, bumpp) factor and no
        negative power, inside ``exp`` arguments too."""
        return all(
            (atom.kind == "var" and k > 0) or (atom.kind == "exp" and atom.arg.is_analytic())
            for _, factors in self.terms
            for atom, k in factors
        )

    def total_degree(self):
        """Total degree of a polynomial expression (zero polynomial -> -1)."""
        if not self.is_polynomial():
            raise ExprError("total_degree needs a polynomial expression")
        if not self.terms:
            return -1
        return max(sum(k for _, k in factors) for _, factors in self.terms)

    def max_var(self):
        out = 0
        for _, factors in self.terms:
            for atom, _ in factors:
                if atom.kind == "var":
                    out = max(out, atom.index)
                else:
                    out = max(out, atom.arg.max_var())
        return out

    # -- identity ---------------------------------------------------------------

    def sort_key(self):
        return tuple((_factors_key(f), c) for c, f in self.terms)

    def __eq__(self, other):
        return isinstance(other, Expr) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.terms))
        return self._hash

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        return sum_products(((self, ONE), (_coerce(other), ONE)))

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((-c, f) for c, f in self.terms))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        return sum_products(((self, _coerce(other)),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return divide(self, _coerce(other))

    def __rtruediv__(self, other):
        return divide(_coerce(other), self)

    def __pow__(self, k):
        return self.int_pow(k)

    def int_pow(self, k):
        if not isinstance(k, int):
            raise ExprError("exponent must be an integer")
        if k == 0:
            if self.is_zero():
                raise ExprError("0^0 is undefined here")
            return ONE
        if self.is_zero():
            if k < 0:
                raise ExprError("division by zero: negative power of 0")
            return ZERO
        if len(self.terms) == 1:
            # a positive power of an inverse base is its base's power: the
            # product by ONE expands it
            c, factors = self.terms[0]
            return Expr(((Fraction(c) ** k, tuple((a, e * k) for a, e in factors)),)) * ONE
        if k > 0:
            if k > 64:
                raise ExprError("exponent too large to expand")
            out = ONE
            base = self
            e = k
            while e:
                if e & 1:
                    out = out * base
                e >>= 1
                if e:
                    base = base * base
            return out
        # multi-term base, negative power: keep as an opaque inverse base
        return Expr(((Fraction(1), ((Atom("invbase", arg=self), k),)),))

    def diff(self, i):
        """Exact partial derivative with respect to x_i, canonical form: the
        product rule over every term adds into one dict, and each
        (atom, power) is differentiated once per call."""
        acc, derivatives = {}, {}
        for c, factors in self.terms:
            for pos, factor in enumerate(factors):
                d = derivatives.get(factor)
                if d is None:
                    d = derivatives[factor] = _atom_power_diff(*factor, i)
                if d.terms:
                    _add_products(acc, ((c, factors[:pos] + factors[pos + 1:]),), d.terms)
        return Expr._from_dict(acc)

    # -- evaluation ----------------------------------------------------------------

    def eval(self, point):
        """Evaluate at a point (sequence of numbers, 1-based variables).

        Returns an exact Fraction when the expression is polynomial (or
        every non-polynomial term sits exactly on its flat extension) and
        the point entries are int/Fraction; otherwise returns a float.
        """
        if all(isinstance(v, (int, Fraction)) for v in point):
            got = compile_exact(self)(point)
            if got is not None:
                return got
        return self.eval_float(point)

    def eval_float(self, point):
        return compile_float(self)([float(v) for v in point])

    # -- printing ---------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for c, factors in self.terms:
            body = _term_str(abs(c), factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Expr({self})"


def sum_products(pairs):
    """The canonical form of the sum of a*b over the pairs (a, b) of Exprs,
    in one pass: every product of a term of a by a term of b adds into one
    factors -> coefficient dict, which is sorted once.  A positive power of
    a polynomial inverse base is expanded as that power of its base.  Equal
    to the chain of ``*`` and ``+`` that it replaces."""
    acc = {}
    for a, b in pairs:
        _add_products(acc, a.terms, b.terms)
    return Expr._from_dict(acc)


def _ints(terms):
    # integral coefficients as ints, whose products cost far less than
    # Fraction products; ``_from_dict`` makes them Fractions again
    return [(c.numerator if c.denominator == 1 else c, f) for c, f in terms]


def _add_products(acc, terms1, terms2):
    """acc += (sum of terms1) * (sum of terms2), factors -> coefficient."""
    terms2 = _ints(terms2)
    for c1, f1 in _ints(terms1):
        for c2, f2 in terms2:
            merged = _merge_factors(f1, f2)
            # invbase sorts last: only a term that ends in one can expand
            if merged and merged[-1][0].kind == "invbase":
                expand = [(a, k) for a, k in merged
                          if a.kind == "invbase" and k > 0 and a.arg.is_polynomial()]
                if expand:
                    power = ONE
                    for atom, k in expand:
                        power = power * atom.arg.int_pow(k)
                    rest = tuple(p for p in merged if p not in expand)
                    _add_products(acc, ((c1 * c2, rest),), power.terms)
                    continue
            acc[merged] = acc.get(merged, 0) + c1 * c2


def _atom_power_diff(atom, k, i):
    """d(atom^k)/dx_i, a full Expr."""
    if atom.kind == "var":
        return _power_term(k, atom, k - 1) if atom.index == i else ZERO
    darg = atom.arg.diff(i)
    if darg.is_zero():
        return ZERO
    if atom.kind == "exp":
        return _power_term(k, atom, k) * darg
    if atom.kind in ("bump", "bumpp"):
        # d bump(u) = 2 u^-3 bump(u); the one-sided variant differentiates
        # to the same flat product, which also vanishes on u <= 0.
        return _power_term(2 * k, atom, k) * atom.arg.int_pow(-3) * darg
    if atom.kind == "invbase":
        return _power_term(k, atom, k - 1) * darg
    raise ExprError(f"unknown atom kind {atom.kind}")


def _power_term(c, atom, k):
    """The one-term Expr c * atom^k (c when k = 0)."""
    return Expr(((Fraction(c), ((atom, k),) if k else ()),))


# -- exact evaluation ----------------------------------------------------------------


def compile_exact(e):
    """e as a function of a rational point (ints and Fractions, x_i at index
    i-1) to its Fraction value, or None where a term has no exact value.
    With L the lcm of the monomials' coefficient denominators, d that of the
    point's and D their top degree, c*x^a of degree k adds the integer
    L*c * prod (d*x_i)^a_i * d^(D-k); one Fraction of the sum over L*d^D is
    built at the end, and each other term adds ``_compile_exact_term``'s."""
    monos, others = [], []
    for c, factors in e.terms:
        if all(a.kind == "var" and k > 0 for a, k in factors):
            degree = sum(k for _, k in factors)
            monos.append((c, degree, [(a.index - 1, k) for a, k in factors]))
        else:
            others.append(_compile_exact_term(c, factors))
    scale = math.lcm(*(c.denominator for c, _, _ in monos))
    top = max((k for _, k, _ in monos), default=0)
    monos = tuple((c.numerator * (scale // c.denominator), top - k, f) for c, k, f in monos)
    used = sorted({i for _, _, f in monos for i, _ in f})

    def evaluate(pt):
        d = math.lcm(*(pt[i].denominator for i in used))
        x = {i: pt[i].numerator * (d // pt[i].denominator) for i in used}
        total = 0
        for c, lift, f in monos:
            for i, k in f:
                c *= x[i] ** k
            total += c * d**lift
        value = Fraction(total, scale * d**top)
        for term in others:
            got = term(pt)
            if got is None:
                return None
            value += got
        return value

    return evaluate


def _compile_exact_term(coeff, factors):
    """A term that is not a monomial, factor by factor: the first exp,
    inverse base or negative flat power gives None, as does each bump^k or
    bumpp^k (k > 0) before it whose argument is off the extension set
    (u = 0, or u <= 0 for bumpp).  On it the term is 0, and only a pole that
    no flat factor of its variable cancels raises EvalError at 0."""
    flats, args, poles, plain, opaque = [], set(), [], [], False
    for atom, k in factors:
        if atom.kind in ("bump", "bumpp") and k > 0:
            flats.append((atom.kind == "bump", compile_exact(atom.arg)))
            args.add(atom.arg)
        elif atom.kind == "var":
            (poles if k < 0 else plain).append((atom.index - 1, k))
        else:
            opaque = True
            break
    raising = [i for i, _ in poles if not flats or var(i + 1) not in args]

    def term(pt):
        for two_sided, arg in flats:
            u = arg(pt)
            if u is None or (u != 0 if two_sided else u > 0):
                return None
        if opaque:
            return None
        if any(pt[i] == 0 for i in raising):
            raise EvalError("division by zero at a pole")
        if flats:
            return 0
        value = coeff
        for i, k in poles + plain:
            value *= Fraction(pt[i]) ** k
        return value

    return term


# -- float evaluation ----------------------------------------------------------------


def compile_float(e):
    """e as a function of a list of floats (x_i at index i-1).

    Each term is sign * exp(log|c| + sum k*log|v|), in log-space so that
    monomial*bump products cannot overflow; an overflowing term is +-inf.
    A bump or bumpp factor within ``FLAT_EVAL_EPS`` of its extension set
    pins its term to 0, and then only a pole that no flat factor of the
    same argument cancels raises EvalError; a negative power of one there
    always raises it.  Everything that does not depend
    on the point is resolved here, once, and the function performs the same
    float operations in the same order at every call.
    """
    terms = tuple(_compile_term(c, factors) for c, factors in e.terms)

    def evaluate(pt):
        total = 0.0
        for term in terms:
            total += term(pt)
        return total

    return evaluate


_VAR, _EXP, _FLAT, _INV = range(4)
_CODES = {"var": _VAR, "exp": _EXP, "bump": _FLAT, "bumpp": _FLAT, "invbase": _INV}


def _compile_term(coeff, factors):
    if not factors:
        value = float(coeff)
        return lambda pt: value
    sign0 = 1.0 if coeff > 0 else -1.0
    log_c = math.log(abs(float(coeff)))
    # (code, index of x_i or compiled argument, k, k odd)
    steps = tuple(
        (_CODES[a.kind], a.index - 1 if a.kind == "var" else compile_float(a.arg),
         k, k % 2 == 1)
        for a, k in factors
    )
    # bump^k and bumpp^k with k > 0: (distance of u to the extension set up
    # to sign, abs for bump and u itself for bumpp; compiled u; u)
    flats = [
        (abs if a.kind == "bump" else float, at, a.arg)
        for (a, k), (code, at, _, _) in zip(factors, steps)
        if code == _FLAT and k > 0
    ]
    # the poles x_i^k (k < 0) and inverse bases, each with the flat factors
    # of the same argument, which cancel it: (is x_i, index or argument, j's)
    poles = tuple(
        (code == _VAR, at, tuple(j for j, f in enumerate(flats) if f[2] == base))
        for (a, k), (code, at, _, _) in zip(factors, steps)
        if (code == _VAR and k < 0) or code == _INV
        for base in [var(a.index) if code == _VAR else a.arg]
    )
    flats = tuple((dist, at) for dist, at, _ in flats)
    # bump^k and bumpp^k with k < 0: poles on the extension set, which no
    # factor cancels
    inverse_flats = tuple(
        (abs if a.kind == "bump" else float, at)
        for (a, k), (code, at, _, _) in zip(factors, steps)
        if code == _FLAT and k < 0
    )

    def term(pt):
        for dist, at in inverse_flats:
            if dist(at(pt)) < FLAT_EVAL_EPS:
                raise EvalError("division by zero at a pole")
        pinned = flats and [
            j for j, (dist, at) in enumerate(flats) if dist(at(pt)) < FLAT_EVAL_EPS
        ]
        if pinned:  # a flat factor pins the term to 0
            for is_var, at, cancels in poles:
                v = pt[at] if is_var else at(pt)
                if abs(v) < FLAT_EVAL_EPS and not any(j in pinned for j in cancels):
                    raise EvalError("division by zero at a pole")
            return 0.0
        sign = sign0
        logmag = log_c
        for code, at, k, odd in steps:
            if code == _VAR or code == _INV:
                v = pt[at] if code == _VAR else at(pt)
                if v == 0.0:
                    if k > 0:
                        return 0.0
                    raise EvalError("division by zero at a pole")
                if v < 0 and odd:
                    sign = -sign
                logmag += k * math.log(abs(v))
            elif code == _EXP:
                logmag += k * at(pt)
            else:
                u = at(pt)
                logmag += k * (-1.0 / (u * u))
        try:
            return sign * math.exp(logmag)
        except OverflowError:
            return sign * math.inf

    return term


def _term_str(coeff, factors):
    pieces = []
    if coeff != 1 or not factors:
        pieces.append(str(coeff))
    for atom, k in factors:
        pieces.append(str(atom) if k == 1 else f"{atom}^{k}")
    return "*".join(pieces)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


# -- constructors ------------------------------------------------------------------


def const(q):
    q = Fraction(q)
    if q == 0:
        return ZERO
    return Expr(((q, ()),))


def var(i):
    if i < 1:
        raise ExprError("variable indices are 1-based")
    return Expr(((Fraction(1), ((Atom("var", index=i), 1),)),))


def _func(kind, e):
    e = _coerce(e)
    return Expr(((Fraction(1), ((Atom(kind, arg=e), 1),)),))


def exp_of(e):
    e = _coerce(e)
    if e.is_zero():
        return ONE
    return _func("exp", e)


def bump(e):
    return _func("bump", e)


def bumpp(e):
    return _func("bumpp", e)


ZERO = Expr(())
ONE = Expr(((Fraction(1), ()),))


# -- division ------------------------------------------------------------------------


def divide(num, den):
    num = _coerce(num)
    den = _coerce(den)
    if den.is_zero():
        raise ExprError("division by zero")
    if len(den.terms) > 1 and num.is_polynomial() and den.is_polynomial():
        q = _poly_exact_divide(num, den)
        if q is not None:
            return q
    return num * den.int_pow(-1)


def _poly_exact_divide(num, den):
    """num / den over the rationals when the remainder is zero, else None."""
    n = max(num.max_var(), den.max_var())
    r = dict(poly_coeff_dict(num, n))
    d = poly_coeff_dict(den, n)
    dlead = max(d, key=_mono_order)
    q = {}
    while r:
        rlead = max(r, key=_mono_order)
        diff = tuple(a - b for a, b in zip(rlead, dlead))
        if any(e < 0 for e in diff):
            return None
        coeff = r[rlead] / d[dlead]
        q[diff] = q.get(diff, 0) + coeff
        for mono, c in d.items():
            m = tuple(a + b for a, b in zip(diff, mono))
            nc = r.get(m, Fraction(0)) - coeff * c
            if nc == 0:
                r.pop(m, None)
            else:
                r[m] = nc
    return poly_from_coeff_dict(q, n)


def _mono_order(mono):
    return (sum(mono), mono)


# -- polynomial coefficient views ---------------------------------------------------


def poly_coeff_dict(e, n):
    """Map exponent tuples (length n) to rational coefficients."""
    if not e.is_polynomial():
        raise ExprError("expression is not polynomial")
    out = {}
    for c, factors in e.terms:
        exps = [0] * n
        for atom, k in factors:
            if atom.index > n:
                raise ExprError(f"variable x{atom.index} exceeds dimension {n}")
            exps[atom.index - 1] = k
        out[tuple(exps)] = c if type(c) is Fraction else Fraction(c)
    return out


def poly_from_coeff_dict(d, n):
    """The canonical Expr of an exponent-tuple -> coefficient map: one term
    per nonzero entry, its factors in variable order, sorted once."""
    atoms = [Atom("var", index=j + 1) for j in range(n)]
    terms = [
        (c if type(c) is Fraction else Fraction(c),
         tuple((atoms[j], k) for j, k in enumerate(mono) if k))
        for mono, c in d.items()
        if c != 0
    ]
    terms.sort(key=lambda t: _factors_key(t[1]))
    return Expr(terms)


# -- parser ---------------------------------------------------------------------------

_FUNCS = {"exp": exp_of, "bump": bump, "bumpp": bumpp}


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
                continue
            if "0" <= ch <= "9":  # str.isdigit also takes "²" and "١"
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                if j < len(text) and text[j] == ".":
                    raise ParseError(
                        "decimal literals are not supported; use rationals like 1/2",
                        *self._linecol(i),
                    )
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", *self._linecol(i))
        self.tokens.append(("end", "", len(text)))

    def _linecol(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, *self._linecol(tok[2]))


def parse(text, n):
    """Parse the expression grammar into a canonical Expr of dimension n."""
    toks = _Tokens(text)
    e = _parse_expr(toks, n)
    if toks.peek()[0] != "end":
        toks.error(f"unexpected token {toks.peek()[1]!r}")
    return e


def _parse_expr(toks, n):
    e = _parse_term(toks, n)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _parse_term(toks, n)
        e = e + rhs if op == "+" else e - rhs
    return e


def _parse_term(toks, n):
    e = _parse_factor(toks, n)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _parse_factor(toks, n)
        e = e * rhs if op == "*" else divide(e, rhs)
    return e


def _parse_factor(toks, n):
    base = _parse_base(toks, n)
    if toks.peek()[0] == "^":
        toks.next()
        sign = 1
        if toks.peek()[0] == "-":
            toks.next()
            sign = -1
        elif toks.peek()[0] == "+":
            toks.next()
        tok = toks.next()
        if tok[0] != "int":
            toks.error("exponent must be an integer", tok)
        return base.int_pow(sign * int(tok[1]))
    return base


def _parse_base(toks, n):
    tok = toks.next()
    kind, text, pos = tok
    if kind == "-":
        return -_parse_factor(toks, n)
    if kind == "(":
        e = _parse_expr(toks, n)
        closing = toks.next()
        if closing[0] != ")":
            toks.error("expected ')'", closing)
        return e
    if kind == "int":
        value = Fraction(int(text))
        return const(value)
    if kind == "ident":
        if text in _FUNCS:
            opening = toks.next()
            if opening[0] != "(":
                toks.error(f"expected '(' after {text}", opening)
            argument = _parse_expr(toks, n)
            closing = toks.next()
            if closing[0] != ")":
                toks.error("expected ')'", closing)
            return _FUNCS[text](argument)
        if text.startswith("x") and text[1:].isascii() and text[1:].isdigit():
            i = int(text[1:])
            if i < 1 or i > n:
                toks.error(f"unknown variable {text} (dimension is {n})", tok)
            return var(i)
        toks.error(f"unknown identifier {text!r}", tok)
    toks.error(f"unexpected token {text!r}", tok)
