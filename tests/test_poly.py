"""Polynomial arithmetic, canonical text, and exact evaluation."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuttemap import BivariatePolynomial, ONE, X, Y, ZERO, PolynomialParseError

P = BivariatePolynomial.parse


def test_add_identity():
    p = P("x^2 + x + y")
    assert p + ZERO == p
    assert ZERO + p == p


def test_add_simple():
    assert X + Y == P("x + y")


def test_triangle_expansion_sum():
    # (x-1)^2 + 3(x-1) + 3 + (y-1), the contribution-by-size sum for the
    # triangle, collapses to x^2 + x + y
    xm = X - 1
    total = xm * xm + 3 * xm + 3 * ONE + (Y - 1)
    assert total == P("x^2 + x + y")


def test_mul_square():
    assert (X - 1) * (X - 1) == P("x^2 - 2 x + 1")


def test_mul_identity():
    p = P("3 x^2 y - 7 y^3 + 2")
    assert p * ONE == p
    assert ONE * p == p


def test_mul_cross():
    assert (X - 1) * (Y - 1) == P("x y - x - y + 1")


def test_evaluate_triangle():
    p = P("x^2 + x + y")
    assert p.evaluate(1, 1) == 3  # the triangle has three spanning trees
    assert p.evaluate(-3, 0) == 6


def test_evaluate_zero():
    assert ZERO.evaluate(17, -5) == 0
    assert ZERO.evaluate(Fraction(2, 3), Fraction(-1, 7)) == 0


def test_evaluate_rational_exact():
    p = P("x^2 y - 2 x + 5")
    x0, y0 = Fraction(1, 2), Fraction(3, 4)
    assert p.evaluate(x0, y0) == x0 * x0 * y0 - 2 * x0 + 5


def test_evaluate_rejects_floats():
    with pytest.raises(ValueError, match="rational"):
        P("x + y").evaluate(0.5, 1)


def _random_poly(rng, max_deg=4, max_terms=6):
    return BivariatePolynomial(
        [
            ((rng.randrange(max_deg + 1), rng.randrange(max_deg + 1)),
             rng.randint(-9, 9))
            for _ in range(rng.randrange(max_terms + 1))
        ]
    )


def test_commutative_associative():
    rng = random.Random(11)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_canonical_text_round_trip():
    rng = random.Random(12)
    for _ in range(300):
        p = _random_poly(rng)
        assert str(P(str(p))) == str(p)
        assert P(str(p)) == p


def test_canonical_order():
    # x-degree descending, then y-degree ascending
    p = BivariatePolynomial({(0, 3): 1, (3, 0): 1, (1, 1): 4, (1, 0): 2,
                             (0, 1): 2, (2, 0): 3, (0, 2): 3})
    assert str(p) == "x^3 + 3 x^2 + 2 x + 4 x y + 2 y + 3 y^2 + y^3"


def test_evaluation_is_homomorphism():
    rng = random.Random(13)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        y0 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        assert (p + q).evaluate(x0, y0) == p.evaluate(x0, y0) + q.evaluate(x0, y0)
        assert (p * q).evaluate(x0, y0) == p.evaluate(x0, y0) * q.evaluate(x0, y0)


def test_zero_terms_never_stored():
    p = BivariatePolynomial([((1, 1), 5), ((1, 1), -5), ((0, 0), 0)])
    assert p.is_zero()
    assert p.terms() == {}
    assert str(p) == "0"
    assert P("0") == ZERO


def test_json_round_trip_big_coefficients():
    p = BivariatePolynomial({(2, 1): 10**40, (0, 0): -(7**30)})
    items = p.json_terms()
    assert all(isinstance(t["c"], str) for t in items)
    assert BivariatePolynomial.from_json_terms(items) == p


def test_parse_errors_name_the_token():
    with pytest.raises(PolynomialParseError, match="'z'"):
        P("x + z")
    with pytest.raises(PolynomialParseError, match="exponent"):
        P("x^ +")
    with pytest.raises(PolynomialParseError, match="empty"):
        P("   ")
    # forms that str never prints are refused at their first character
    for text, bad in [("2*x", "*"), ("x * y", "*"), ("- - x", "-"), ("+-x", "-"),
                      ("2 3 x", "3"), ("y x", "x"), ("x x", "x"), ("x ^ 2", "^")]:
        with pytest.raises(PolynomialParseError, match=re.escape(repr(bad))):
            P(text)


_coefficients = st.integers(-(10**40), 10**40)
_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), _coefficients, max_size=8
).map(BivariatePolynomial)


@settings(max_examples=300)
@given(_polynomials)
@example(ZERO)
def test_text_and_json_round_trip(p):
    assert P(str(p)) == p
    assert str(P(str(p))) == str(p)
    assert BivariatePolynomial.from_json_terms(p.json_terms()) == p


def test_pow_matches_repeated_mul():
    p = X - 1
    assert p**0 == ONE
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        BivariatePolynomial({(-1, 0): 1})


def test_constants_hash_like_their_ints():
    for value in (0, 1, 3, -7, 10**30):
        p = BivariatePolynomial.constant(value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
    assert hash(ZERO) == hash(0) and len({ZERO, 0}) == 1
    assert {ONE: "one"}[1] == "one"
    assert hash(X + 1) == hash(P("x + 1"))
