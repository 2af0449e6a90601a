"""Exact multivariate Laurent polynomials over the rationals.

Exponent vectors are integer tuples keyed to a fixed tuple of generator
names.  A coefficient is stored as an int when it is integral and as a
fractions.Fraction only when it is not (`_coeff` is the one normalizing
step), so products and sums of integral coefficients never build a
Fraction.  Values leaving the ring are Fractions: `constant_value`,
`monomial_parts` and `eval` over rationals return them.

`eval` runs over integer numerators: each int or Fraction value enters as
its numerator and denominator, every term is shifted onto one common
denominator by integer powers, and the sum is divided once.  Over such
values the result is one Fraction (the zero polynomial gives the int 0);
over floats it is a float that may differ from the term-by-term sum only
in rounding.

This is deliberately a small ring: addition, multiplication, integer
powers (a monomial's from its exponents, c*x^e to c^k*x^(k*e), in one
step), division by monomials, monomial substitution, and regrouping by the
exponent of one generator.  `subs` is monomial only: each generator goes to
a*x^u, so a term c*x^e goes to c*prod(a_i^e_i)*x^(sum e_i u_i), computed on
the exponent vector without building a product.  There is no general
polynomial division and no GCD; nothing downstream needs them, and keeping
the ring small keeps exactness easy to audit.
"""

from fractions import Fraction
from math import lcm
from operator import add

from .fatgraph import _scalar


class LaurentError(ArithmeticError):
    pass


def _parts(v):
    """(p, q) with v == p / q: integers when v is exact, else (v, 1); a bool is refused."""
    v = _scalar(v)
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    return v, 1


def _coeff(x):
    """The stored form of a rational: int when integral, else Fraction; a bool is refused."""
    if isinstance(x, int) and type(x) is not bool:
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise LaurentError(f"coefficient must be rational, got {type(x).__name__}")


class LaurentRing:
    """Fixed list of named generators; polys remember their ring."""

    def __init__(self, *names):
        if len(names) == 1 and not isinstance(names[0], str):
            names = tuple(names[0])
        if len(set(names)) != len(names):
            raise LaurentError("duplicate generator names")
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.zero = LaurentPoly(self, {})
        self.one = LaurentPoly(self, {(0,) * len(self.names): 1})

    def _position(self, name):
        """Index of a generator; an unknown name is a LaurentError."""
        if name not in self.index:
            raise LaurentError(f"no generator {name!r} in ring {self.names}")
        return self.index[name]

    def gen(self, name):
        e = [0] * len(self.names)
        e[self._position(name)] = 1
        return LaurentPoly(self, {tuple(e): 1})

    def gens(self):
        return tuple(self.gen(n) for n in self.names)

    def const(self, q):
        return LaurentPoly(self, {(0,) * len(self.names): _coeff(q)})

    def monomial(self, coeff, /, **exps):
        e = [0] * len(self.names)
        for name, k in exps.items():
            if type(k) is not int:
                raise LaurentError(f"exponent of {name} must be an int, got {k!r}")
            e[self._position(name)] = k
        return LaurentPoly(self, {tuple(e): _coeff(coeff)})

    def __repr__(self):
        return f"LaurentRing{self.names}"


class LaurentPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        # terms: dict[tuple[int,...] -> int | Fraction], zero coefficients
        # dropped, integral ones stored as int
        self.ring = ring
        self.terms = {e: _coeff(c) for e, c in terms.items() if c}

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(k == 0 for k in e) for e in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise LaurentError(f"not a constant: {self}")
        return Fraction(next(iter(self.terms.values())))

    def monomial_parts(self):
        if not self.is_monomial():
            raise LaurentError(f"not a monomial: {self}")
        (e, c), = self.terms.items()
        return Fraction(c), e

    # -- coercion --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.ring is not self.ring and other.ring.names != self.ring.names:
                raise LaurentError("mixed rings")
            return other
        return self.ring.const(other)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.ring, out)

    __rmul__ = __mul__

    def inverse(self):
        c, e = self.monomial_parts()
        return LaurentPoly(self.ring, {tuple(-k for k in e): 1 / c})

    def __pow__(self, n):
        if type(n) is not int:
            raise LaurentError(f"exponent must be an int, got {n!r}")
        if self.is_monomial():
            (e, c), = self.terms.items()
            return LaurentPoly(self.ring, {tuple(n * k for k in e): Fraction(c) ** n})
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except LaurentError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- substitution and evaluation -------------------------------------

    def subs(self, target_ring, mapping):
        """Monomial substitution into target_ring, sending each generator by name.

        mapping: name -> monomial a*x^u in target_ring, or a nonzero
        rational a (u = 0).  Names absent from mapping must exist in
        target_ring and map to themselves.  A term c*x^e goes to
        c*prod(a_i^e_i)*x^(sum e_i u_i); an image that is not a monomial
        (zero included) raises LaurentError.
        """
        images = []
        for name in self.ring.names:
            v = mapping.get(name)
            v = target_ring.gen(name) if v is None else target_ring.zero._coerce(v)
            if not v.is_monomial():
                raise LaurentError(f"image of {name} is not a monomial: {v}")
            (u, a), = v.terms.items()
            images.append((a, u))
        out = {}
        for e, c in self.terms.items():
            x = (0,) * len(target_ring.names)
            for k, (a, u) in zip(e, images):
                if k:
                    if a != 1:
                        c = c * Fraction(a) ** k
                    x = tuple(xi + k * ui for xi, ui in zip(x, u))
            out[x] = out.get(x, 0) + c
        return LaurentPoly(target_ring, out)

    def eval(self, values):
        """Numeric evaluation; values maps every needed name to a number.

        Only names with a nonzero exponent in some term are needed and looked
        up: a missing one is a KeyError, a bool a TypeError.  A value v
        enters as (p, q) with v = p/q: its numerator and denominator when it
        is an int or a Fraction, (v, 1) otherwise.  With x^hi and x^-lo the
        highest and lowest powers of a generator x (hi, lo >= 0), a term
        c*x^k adds c*p^(k+lo)*q^(hi-k), coefficient denominators cleared, to
        one numerator N, and N is divided once by D = prod q^hi*p^lo times
        that common denominator.  Over int and Fraction values N and D are
        ints and the result is Fraction(N, D).  An inexact value needs no
        integer powers, so it takes lo = 0 and its negative powers directly:
        a float stays within the range the term-by-term sum has, and the
        result N / D may differ from that sum only in rounding.  The zero
        polynomial gives the int 0, and a zero value under a negative
        exponent is a ZeroDivisionError: it makes D zero, or it is a float
        raised to a negative power.
        """
        if not self.terms:
            return 0
        scale = lcm(*(c.denominator for c in self.terms.values()))
        needed, den = [], scale
        for i, ks in enumerate(zip(*self.terms)):
            lo, hi = -min(0, *ks), max(0, *ks)
            if lo or hi:
                p, q = _parts(values[self.ring.names[i]])
                if type(p) is not int:
                    lo = 0  # an inexact value takes negative powers itself
                needed.append((i, p, q, lo, hi))
                den = den * q ** hi * p ** lo
        num = 0
        for e, c in self.terms.items():
            term = c.numerator * (scale // c.denominator)
            for i, p, q, lo, hi in needed:
                k = e[i]
                term = term * p ** (k + lo) * q ** (hi - k)
            num = num + term
        return Fraction(num, den) if type(den) is int else num / den

    def split_by(self, name):
        """Group terms by the exponent of one generator.

        Returns dict[int -> LaurentPoly] in the same ring; each value has
        exponent 0 on `name`.
        """
        i = self.ring._position(name)
        groups = {}
        for e, c in self.terms.items():
            k = e[i]
            e0 = e[:i] + (0,) + e[i + 1:]
            groups.setdefault(k, {})[e0] = c
        return {k: LaurentPoly(self.ring, t) for k, t in sorted(groups.items())}

    # -- display ---------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [str(c)] if c != 1 or all(k == 0 for k in e) else []
            for name, k in zip(self.ring.names, e):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append(f"{name}^{k}")
            bits.append("*".join(factors) if factors else "1")
        return " + ".join(bits).replace("+ -", "- ")
