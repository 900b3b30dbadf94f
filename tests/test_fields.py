from fractions import Fraction

import pytest

from leibniz_engel.errors import FormatError
from leibniz_engel.fields import GF, MR_EXACT_BOUND, QQ, is_prime


def test_rational_parse_and_reduce():
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.parse(-3) == Fraction(-3)
    assert QQ.parse("-2/5").denominator == 5
    with pytest.raises(FormatError):
        QQ.parse("1.5")
    with pytest.raises(FormatError):
        QQ.parse("1/0")


def test_rational_arithmetic_is_exact():
    a = QQ.parse("1/3")
    b = QQ.parse("1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.inv(a)) == QQ.one()
    assert QQ.characteristic == 0


def test_prime_field_residues():
    f5 = GF(5)
    assert f5.parse(7) == 2
    assert f5.parse("-1") == 4
    assert f5.parse("1/2") == 3  # inverse of 2 mod 5
    assert f5.mul(3, f5.inv(3)) == 1
    assert f5.characteristic == 5
    with pytest.raises(FormatError):
        f5.parse("1/5")


def test_prime_field_rejects_composite():
    with pytest.raises(FormatError):
        GF(6)
    with pytest.raises(FormatError):
        GF(1)
    assert GF(2).p == 2


def test_is_prime_small_values():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_field_equality_and_str():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    assert str(QQ) == "Q"
    assert str(GF(7)) == "F7"


def test_is_prime_large_values():
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert GF(10**18 + 3).p == 10**18 + 3
    assert GF(2**61 - 1).p == 2**61 - 1
    # a product of two primes, and a strong pseudoprime to every prime base
    # up to 37 (Sorenson and Webster 2015)
    for composite in ((10**9 + 7) * (10**9 + 9), 318665857834031151167461):
        assert not is_prime(composite)
        with pytest.raises(FormatError):
            GF(composite)


def test_is_prime_refuses_values_past_exact_bound():
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BOUND)
    with pytest.raises(FormatError):
        GF(MR_EXACT_BOUND + 2)
