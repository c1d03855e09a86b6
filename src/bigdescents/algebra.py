"""Exact polynomial and truncated power series arithmetic.

Everything here is coefficient-exact and no floating point appears
anywhere.  Polynomial coefficients are plain ``int`` values; a coefficient
becomes a ``fractions.Fraction`` only when a division leaves a remainder, and
a ``Fraction`` whose denominator is 1 is always stored as its ``int``.  Two
layers:

- ``MultiPoly``: sparse multivariate polynomials in the fixed variable set
  t, s, u, v, w (statistic markers), with graded-lexicographic term order.
- ``TruncatedSeries``: power series truncated at a fixed order in one formal
  variable (x for length generating functions, z for path-length ones), with
  ``MultiPoly`` coefficients.  Arithmetic results carry the minimum of the
  operand orders.  Each operation is one rule for coefficient k, run for
  every k at once on complete operands and on request otherwise (for the
  unknowns of ``genfun``'s fixed-point solver and what is built on them).

Division comes in two flavours.  ``TruncatedSeries.__truediv__`` requires the
divisor's constant term to be a nonzero rational (a unit).  ``exact_div``
divides by ``x**k * c`` for a polynomial ``c`` and certifies exactness term by
term; several closed forms in this package divide by non-unit denominators
(x-multiples and t-polynomials) whose cancellation the identities guarantee,
so a failed exact division is a hard error, never a silent truncation.
Underneath, ``MultiPoly.divmod`` divides by the divisor's graded-lex leading
term and returns the remainder; ``MultiPoly.exact_div`` is ``divmod`` that
refuses a nonzero remainder.  The univariate root counting in
``conjectures`` runs on ``divmod`` with polynomials in t.

One loop, ``_evaluate``, substitutes for variables: polynomials in
``MultiPoly.subs`` and ``TruncatedSeries.map_coeffs``, series in
``series_compose``.

One loop, ``_convolve``, sums the coefficient products over i + j = k for
series products, division and ``sqrt``, complete or lazy; a square
(one object on both sides, as ``_power`` hands it) makes each cross product
once and doubles it.  It multiplies each pair into one accumulator through
``_mul_into``, the product loop that ``MultiPoly.__mul__`` runs as well.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Union

from .errors import DivergenceError, InexactDivisionError, NonInvertibleError

VARIABLES = ("t", "s", "u", "v", "w")
_NVARS = len(VARIABLES)
_ZERO_EXP = (0,) * _NVARS

Scalar = Union[int, Fraction]


def _var_index(name: str) -> int:
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r} (have {VARIABLES})")
    return VARIABLES.index(name)


def _exact(value: Scalar) -> Scalar:
    """An exact rational as stored: an int, or a Fraction that is not one."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _reciprocal(value: Scalar) -> Scalar:
    # 1 / value would be a float for an int value.
    return _exact(Fraction(1, value))


def _fold(terms: dict) -> dict:
    """Store integral coefficients of ``terms`` as int, in place."""
    if set(map(type, terms.values())) - {int}:
        for exps, q in terms.items():
            terms[exps] = _exact(q)
    return terms


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _power(base, n: int, one):
    """``base ** n`` (n >= 0) by binary powering from the leading bit."""
    if n == 0:
        return one()
    out = base
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


def _convolve(a, b, k: int, lo: int = 0) -> MultiPoly:
    """The sum of ``a[i] * b[k - i]`` for i from ``lo`` to k, or to ``k - lo``
    when ``a is b`` (each cross product is then made once and doubled).  A
    zero ``a[i]`` is skipped before ``b[k - i]`` is read: a lazy ``b`` is
    asked only for the coefficients that a nonzero ``a[i]`` needs.  Every
    product is multiplied straight into one accumulator dict."""
    terms: dict[tuple[int, ...], Scalar] = {}
    for i in range(lo, (k + 1) // 2 if a is b else k + 1):
        p = a[i]
        if p.terms:
            q = b[k - i]
            if q.terms:
                _mul_into(terms, p, q)
    if a is b:
        for exps in terms:
            terms[exps] *= 2
        if k % 2 == 0 and k >= 2 * lo and a[k // 2].terms:
            _mul_into(terms, a[k // 2], a[k // 2])
    return _trusted(_fold(terms))


def _mul_into(terms: dict, p: MultiPoly, q: MultiPoly) -> dict:
    """Add ``p * q`` into ``terms`` (exponents to coefficient), dropping each
    coefficient that cancels: the one polynomial product loop."""
    get = terms.get
    q_items = q.terms.items()
    for e1, q1 in p.terms.items():
        for e2, q2 in q_items:
            exps = tuple(map(add, e1, e2))
            r = get(exps, 0) + q1 * q2
            if r:
                terms[exps] = r
            else:
                del terms[exps]
    return terms


def _trusted(terms: dict) -> MultiPoly:
    """A MultiPoly over ``terms`` as given: exponent tuples of full length,
    no zero coefficient and no integral Fraction, none of it checked."""
    out = MultiPoly.__new__(MultiPoly)
    object.__setattr__(out, "terms", terms)
    return out


def _evaluate(poly: MultiPoly, values: Mapping, powers: dict, zero):
    """``zero`` plus ``poly`` with ``values[name]`` (polynomials, or series of
    one order) put for each variable it names; the others stay symbolic.

    ``powers[name]`` lists ``values[name] ** 1, ** 2, ...`` as far as a term
    has needed; callers evaluating many polynomials share one dict.
    """
    for name in values:
        _var_index(name)
    total = zero
    for exps, q in poly.terms.items():
        kept = list(exps)
        term = None
        for i, name in enumerate(VARIABLES):
            e = exps[i]
            if e and name in values:
                kept[i] = 0
                chain = powers.setdefault(name, [values[name]])
                while len(chain) < e:
                    chain.append(chain[-1] * values[name])
                term = chain[e - 1] if term is None else term * chain[e - 1]
        mono = MultiPoly({tuple(kept): q})
        total = total + (mono if term is None else term * mono)
    return total


class MultiPoly:
    """Sparse polynomial in t, s, u, v, w with exact rational coefficients.

    Instances are immutable values; no zero coefficient is ever stored, and
    every integral coefficient is stored as an ``int``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != _NVARS or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps!r}")
                q = _exact(coeff)
                if q:
                    clean[exps] = q
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        return cls({_ZERO_EXP: value})

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        exps = [0] * _NVARS
        exps[_var_index(name)] = power
        return cls({tuple(exps): 1})

    @classmethod
    def univariate(cls, coeffs: Iterable[Scalar], name: str = "t") -> "MultiPoly":
        """The polynomial in ``name`` with ascending coefficients ``coeffs``
        (the inverse of ``to_univariate``)."""
        i = _var_index(name)
        return cls({_ZERO_EXP[:i] + (k,) + _ZERO_EXP[i + 1:]: q
                    for k, q in enumerate(coeffs)})

    @staticmethod
    def coerce(value: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(value)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or set(self.terms) == {_ZERO_EXP}

    def const_value(self) -> Scalar:
        if not self.is_const():
            raise ValueError(f"{self} is not a constant")
        return self.terms.get(_ZERO_EXP, 0)

    def used_vars(self) -> set[str]:
        used = set()
        for exps in self.terms:
            for name, e in zip(VARIABLES, exps):
                if e:
                    used.add(name)
        return used

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = _var_index(name)
        if not self.terms:
            return -1
        return max(exps[i] for exps in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        other = MultiPoly.coerce(other)
        terms = dict(self.terms)
        for exps, q in other.terms.items():
            r = terms.get(exps, 0) + q
            if r:
                terms[exps] = r
            else:
                terms.pop(exps, None)
        return _trusted(_fold(terms))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _trusted({e: -q for e, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            q = _exact(other)
            if not q:
                return MultiPoly.zero()
            return _trusted(_fold({e: c * q for e, c in self.terms.items()}))
        return _trusted(_fold(_mul_into({}, self, other)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, MultiPoly.one)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus, substitution, division ----------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = _var_index(name)
        terms: dict[tuple[int, ...], Scalar] = {}
        for exps, q in self.terms.items():
            e = exps[i]
            if e:
                new = list(exps)
                new[i] = e - 1
                terms[tuple(new)] = q * e
        return MultiPoly(terms)

    def subs(self, mapping: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Substitute polynomials or rationals for variables."""
        values = {name: MultiPoly.coerce(val) for name, val in mapping.items()}
        return _evaluate(self, values, {}, MultiPoly.zero())

    def leading_term(self) -> tuple[tuple[int, ...], Scalar]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def divmod(self, divisor: "MultiPoly | Scalar") -> tuple["MultiPoly", "MultiPoly"]:
        """Division by the graded-lex leading term of ``divisor``.

        Returns ``(q, r)`` with ``self == q * divisor + r`` and no term of
        ``r`` divisible by the divisor's leading monomial.  With a single
        divisor, ``r`` is zero exactly when ``divisor`` divides ``self``.
        """
        divisor = MultiPoly.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_const():
            return self * _reciprocal(divisor.const_value()), MultiPoly.zero()
        lead_e, lead_q = divisor.leading_term()
        tail = [(e, q) for e, q in divisor.terms.items() if e != lead_e]
        # Every term the tail adds is below the leading term just removed
        # (grlex respects products), so no remainder term is touched again.
        work = dict(self.terms)
        quotient: dict[tuple[int, ...], Scalar] = {}
        remainder: dict[tuple[int, ...], Scalar] = {}
        while work:
            exps = max(work, key=_grlex_key)
            q = work.pop(exps)
            diff = tuple(map(sub, exps, lead_e))
            if min(diff) < 0:
                remainder[exps] = q
                continue
            coeff = _exact(Fraction(q, lead_q))
            quotient[diff] = coeff
            for e, c in tail:
                key = tuple(map(add, diff, e))
                r = work.get(key, 0) - coeff * c
                if r:
                    work[key] = r
                else:
                    work.pop(key, None)
        return MultiPoly(quotient), MultiPoly(remainder)

    def exact_div(self, divisor: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact polynomial division; raises InexactDivisionError otherwise."""
        quotient, remainder = self.divmod(divisor)
        if not remainder.is_zero():
            raise InexactDivisionError(f"{self} is not divisible by {divisor}")
        return quotient

    # -- conversion and display --------------------------------------------

    def to_univariate(self, name: str = "t") -> list[Scalar]:
        """Coefficient list (ascending) of a polynomial that uses only `name`."""
        i = _var_index(name)
        extra = self.used_vars() - {name}
        if extra:
            raise ValueError(f"polynomial also involves {sorted(extra)}")
        if not self.terms:
            return [0]
        coeffs = [0] * (self.degree(name) + 1)
        for exps, q in self.terms.items():
            coeffs[exps[i]] = q
        return coeffs

    def to_json(self) -> list:
        items = sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))
        return [[list(exps), q.numerator, q.denominator] for exps, q in items]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, q in sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0])):
            factors = []
            for name, e in zip(VARIABLES, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                text = str(q)
            elif q == 1:
                text = mono
            elif q == -1:
                text = f"-{mono}"
            else:
                text = f"{q}*{mono}"
            parts.append(text)
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


class _Cycle(Exception):
    """A lazy coefficient was requested while it was being computed."""


def _quotient(k: int, out: list, a, b) -> MultiPoly:
    c0 = b[0]
    if not c0.is_const() or c0.is_zero():
        raise NonInvertibleError(f"divisor constant term {c0} is not a nonzero rational")
    return (a[k] - _convolve(b, out, k, 1)) * _reciprocal(c0.const_value())


def _root(k: int, out: list, a) -> MultiPoly:
    if k:
        return (a[k] - _convolve(out, out, k, 1)) * Fraction(1, 2)
    if a[0] != MultiPoly.one():
        raise ValueError("series square root requires constant term 1")
    return a[0]


class TruncatedSeries:
    """Power series truncated at a fixed order, with MultiPoly coefficients;
    ``series[k]`` is coefficient k."""

    __slots__ = ("_known", "_rule", "order", "var")

    def __init__(self, coeffs: Iterable[MultiPoly | Scalar], var: str = "x"):
        polys = tuple(MultiPoly.coerce(c) for c in coeffs)
        if not polys:
            raise ValueError("a truncated series needs at least the constant term")
        self._set(polys, None, len(polys) - 1, var)

    def _set(self, known, rule, order: int, var: str) -> None:
        for name, value in zip(self.__slots__, (known, rule, order, var)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def _lazy(cls, order: int, var: str, rule, *operands) -> "TruncatedSeries":
        """The series whose coefficient k is ``rule(k, out, *seqs)``, ``out``
        listing its coefficients below k and ``seqs`` the operands'.  Computed
        whole now if every operand is complete (its ``_known`` a tuple), else
        on request (an unknown has no operand); once complete it drops rule."""
        out = cls.__new__(cls)
        known: list[MultiPoly] = []
        seqs = [s._known if type(s._known) is tuple else s for s in operands]
        out._set(known, lambda k: rule(k, known, *seqs), order, var)
        if operands and all(type(s) is tuple for s in seqs):
            out[order]
        return out

    def __getitem__(self, k: int) -> MultiPoly:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        known = self._known
        if k < len(known):
            return known[k]
        rule = self._rule
        if rule is None:  # coefficient k needs itself
            raise _Cycle
        object.__setattr__(self, "_rule", None)
        while len(known) <= k:
            known.append(rule(len(known)))
        if len(known) > self.order:
            object.__setattr__(self, "_known", tuple(known))
        else:
            object.__setattr__(self, "_rule", rule)
        return known[k]

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        self[self.order]
        return self._known

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: MultiPoly | Scalar, order: int, var: str = "x") -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = [MultiPoly.coerce(value)] + [MultiPoly.zero()] * order
        return cls(coeffs, var)

    @classmethod
    def zero(cls, order: int, var: str = "x") -> "TruncatedSeries":
        return cls.constant(0, order, var)

    @classmethod
    def one(cls, order: int, var: str = "x") -> "TruncatedSeries":
        return cls.constant(1, order, var)

    @classmethod
    def gen(cls, order: int, var: str = "x") -> "TruncatedSeries":
        """The series consisting of the formal variable itself (zero at
        order 0, since x vanishes modulo x^1)."""
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = [MultiPoly.zero(), MultiPoly.one()] + [MultiPoly.zero()] * (order - 1)
        return cls(coeffs[:order + 1], var)

    coefficient = __getitem__

    def truncate(self, order: int) -> "TruncatedSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"order must be non-negative and at most {self.order}")
        return TruncatedSeries(self.coeffs[: order + 1], self.var)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """``other`` as a series of this variable, or NotImplemented for an
        operand type that series arithmetic does not know."""
        if isinstance(other, TruncatedSeries):
            if other.var != self.var:
                raise ValueError(f"mixed series variables {self.var!r} and {other.var!r}")
            return other
        if isinstance(other, (MultiPoly, int, Fraction)):
            return TruncatedSeries.constant(other, self.order, self.var)
        return NotImplemented

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return TruncatedSeries._lazy(min(self.order, other.order), self.var,
                                     lambda k, out, a, b: a[k] + b[k], self, other)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._lazy(self.order, self.var, lambda k, out, a: -a[k], self)

    def __sub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction, MultiPoly)):
            p = MultiPoly.coerce(other)
            return TruncatedSeries._lazy(self.order, self.var,
                                         lambda k, out, a: a[k] * p, self)
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        # a complete factor goes first, as _convolve never reads a coefficient
        # opposite a zero one: a lazy factor's may not be computable yet
        lazy_first = type(self._known) is list and type(other._known) is tuple
        a, b = (other, self) if lazy_first else (self, other)
        return TruncatedSeries._lazy(min(self.order, other.order), self.var,
                                     lambda k, out, a, b: _convolve(a, b, k), a, b)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative series power")
        return _power(self, n, lambda: TruncatedSeries.one(self.order, self.var))

    def __truediv__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            q = _exact(other)
            if not q:
                raise ZeroDivisionError("series division by zero")
            return self * _reciprocal(q)
        if isinstance(other, MultiPoly):
            if not other.is_const() or other.is_zero():
                raise NonInvertibleError(
                    "series can only be scaled by a nonzero rational; "
                    "use exact_div for polynomial denominators"
                )
            return self * _reciprocal(other.const_value())
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return TruncatedSeries._lazy(min(self.order, other.order), self.var,
                                     _quotient, self, other)

    def __rtruediv__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        return other if other is NotImplemented else other / self

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    # -- the operations the generating functions need -----------------------

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series with constant term exactly 1."""
        return TruncatedSeries._lazy(self.order, self.var, _root, self)

    def exact_div(self, k: int, c: MultiPoly | Scalar) -> "TruncatedSeries":
        """Divide by ``var**k * c`` with a term-by-term exactness certificate.

        The first k coefficients must vanish and every remaining coefficient
        must be polynomial-divisible by c; the offending power is reported
        otherwise.  The result has order ``self.order - k``.
        """
        c = MultiPoly.coerce(c)
        if k < 0 or k > self.order:
            raise ValueError(f"cannot shift by {self.var}^{k} at order {self.order}")
        for i in range(k):
            if not self.coeffs[i].is_zero():
                raise InexactDivisionError(
                    f"coefficient of {self.var}^{i} is {self.coeffs[i]}, "
                    f"not divisible by {self.var}^{k}"
                )
        out = []
        for i in range(k, self.order + 1):
            try:
                out.append(self.coeffs[i].exact_div(c))
            except InexactDivisionError as exc:
                raise InexactDivisionError(
                    f"coefficient of {self.var}^{i} is not divisible by {c}: {exc}"
                ) from exc
        return TruncatedSeries(out, self.var)

    def map_coeffs(self, mapping: Mapping[str, MultiPoly | Scalar]) -> "TruncatedSeries":
        """Apply a variable substitution to every coefficient."""
        values = {name: MultiPoly.coerce(val) for name, val in mapping.items()}
        powers: dict = {}
        return TruncatedSeries([_evaluate(c, values, powers, MultiPoly.zero())
                                for c in self.coeffs], self.var)

    # -- display -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "var": self.var,
                "coeffs": [c.to_json() for c in self.coeffs]}

    def pretty(self) -> str:
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, var={self.var!r})"


def series_compose(outer: TruncatedSeries,
                   subs: Mapping[str, TruncatedSeries]) -> TruncatedSeries:
    """Compose a series with series substitutions for its variables.

    ``subs`` must substitute the outer formal variable by a series with zero
    constant term (otherwise every truncation order would receive infinitely
    many contributions); coefficient variables (s, t, ...) may be substituted
    by arbitrary series.  Variables not substituted stay symbolic.
    """
    if outer.var not in subs:
        raise ValueError(f"no substitution given for series variable {outer.var!r}")
    inner = subs[outer.var]
    if not inner.coeffs[0].is_zero():
        raise DivergenceError(
            f"substitute for {outer.var!r} has nonzero constant term "
            f"{inner.coeffs[0]}; composition does not converge order by order"
        )
    order = min(s.order for s in subs.values())
    values = {name: s.truncate(order) for name, s in subs.items()}
    inner = values.pop(outer.var)
    powers: dict = {}
    zero = TruncatedSeries.zero(order, inner.var)
    result = zero
    z_pow = TruncatedSeries.one(order, inner.var)
    for m in range(min(outer.order, order) + 1):
        cm = outer.coeffs[m]
        if not cm.is_zero():
            result = result + _evaluate(cm, values, powers, zero) * z_pow
        if m < order:
            z_pow = z_pow * inner
    return result
