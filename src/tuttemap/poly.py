"""Exact sparse bivariate polynomials over arbitrary-precision integers.

This is the value type shared by every Tutte evaluator in the package.
Coefficients are plain Python ints, so nothing overflows or rounds; the
cross-checks between evaluators rely on that exactness. Evaluation takes
exact rational points (ints or fractions.Fraction); floats are refused.
Text is read only in the grammar ``str`` prints: signed terms, each an
optional coefficient, then ``x`` or ``x^n``, then ``y`` or ``y^n``.
"""

from __future__ import annotations

import numbers
import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "BivariatePolynomial",
    "PolynomialParseError",
    "ZERO",
    "ONE",
    "X",
    "Y",
]


class PolynomialParseError(ValueError):
    """The input text is not a polynomial in x and y."""


_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(x(?:\^(\d*))?)?\s*(y(?:\^(\d*))?)?\s*")


class BivariatePolynomial:
    """An immutable polynomial in the two variables x and y.

    Terms live in a table mapping (x_exponent, y_exponent) to a nonzero
    integer coefficient; zero coefficients are never stored, so ``==`` is
    exact structural equality and the printed form is canonical (terms
    sorted by x-degree descending, then y-degree ascending).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        table: dict[tuple[int, int], int] = {}
        for key, coeff in items:
            dx, dy = key
            dx = operator.index(dx)
            dy = operator.index(dy)
            coeff = operator.index(coeff)
            if dx < 0 or dy < 0:
                raise ValueError(f"negative exponent pair ({dx}, {dy})")
            if not coeff:
                continue
            total = table.get((dx, dy), 0) + coeff
            if total:
                table[(dx, dy)] = total
            else:
                del table[(dx, dy)]
        self._terms = table

    @classmethod
    def constant(cls, value: int) -> "BivariatePolynomial":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, dx: int, dy: int, coeff: int = 1) -> "BivariatePolynomial":
        return cls({(dx, dy): coeff})

    def terms(self) -> dict[tuple[int, int], int]:
        """A copy of the term table."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, BivariatePolynomial):
            return other
        if isinstance(other, int):
            return BivariatePolynomial({(0, 0): other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return BivariatePolynomial(
            list(self._terms.items()) + list(other._terms.items())
        )

    __radd__ = __add__

    def __neg__(self):
        return BivariatePolynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                key = (ax + bx, ay + by)
                total = out.get(key, 0) + ac * bc
                if total:
                    out[key] = total
                else:
                    del out[key]
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePolynomial":
        exponent = operator.index(exponent)
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {(0, 0)}:  # a constant hashes like its int
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x0, y0):
        """Exact value at a rational point. Returns an int when integral."""
        for v in (x0, y0):
            if not isinstance(v, numbers.Rational):
                raise ValueError(f"evaluation point must be rational, got {v!r}")
        total = Fraction(0)
        for (dx, dy), coeff in self._terms.items():
            total += coeff * Fraction(x0) ** dx * Fraction(y0) ** dy
        return int(total) if total.denominator == 1 else total

    # -- text and JSON forms -------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for dx, dy, coeff in self.sorted_terms():
            factors = []
            if abs(coeff) != 1 or (dx == 0 and dy == 0):
                factors.append(str(abs(coeff)))
            if dx:
                factors.append("x" if dx == 1 else f"x^{dx}")
            if dy:
                factors.append("y" if dy == 1 else f"y^{dy}")
            body = " ".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"BivariatePolynomial.parse({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "BivariatePolynomial":
        """Read the text ``str`` prints, e.g. ``x^2 - 2 x + 1``.

        Terms are joined by ``+`` or ``-``, and the first may carry a sign.
        A term is an optional decimal coefficient, then an optional ``x``
        or ``x^n``, then an optional ``y`` or ``y^n``; whitespace may
        separate the parts. Errors name the first character where no term
        can start or continue.
        """
        if not text.strip():
            raise PolynomialParseError("empty polynomial text")
        out = []
        pos = 0
        while pos < len(text):
            m = _TERM.match(text, pos)
            sign, coeff, x, dx, y, dy = m.groups()
            if out and not sign:
                raise PolynomialParseError(
                    f"expected '+' or '-', found {text[m.start(1)]!r}")
            if not (coeff or x or y):
                found = repr(text[m.end()]) if m.end() < len(text) else "end of input"
                raise PolynomialParseError(f"expected a term, found {found}")
            if dx == "" or dy == "":
                raise PolynomialParseError("'^' must be followed by an integer exponent")
            key = (int(dx or 1) if x else 0, int(dy or 1) if y else 0)
            out.append((key, int(coeff or 1) * (-1 if sign == "-" else 1)))
            pos = m.end()
        return cls(out)

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """The ``(dx, dy, c)`` terms in the canonical order that ``str`` and
        ``json_terms`` print: x-degree descending, then y-degree ascending."""
        return [(dx, dy, c) for (dx, dy), c in
                sorted(self._terms.items(), key=lambda t: (-t[0][0], t[0][1]))]

    def json_terms(self) -> list[dict]:
        """Canonically ordered list of {"dx", "dy", "c"} objects; "c" is a
        string so arbitrarily large coefficients survive JSON round-trips."""
        return [{"dx": dx, "dy": dy, "c": str(c)} for dx, dy, c in self.sorted_terms()]

    @classmethod
    def from_json_terms(cls, items: Iterable[Mapping]) -> "BivariatePolynomial":
        return cls([((int(t["dx"]), int(t["dy"])), int(t["c"])) for t in items])


ZERO = BivariatePolynomial()
ONE = BivariatePolynomial.constant(1)
X = BivariatePolynomial.monomial(1, 0)
Y = BivariatePolynomial.monomial(0, 1)
