from fractions import Fraction

import pytest

from leibniz_engel.errors import FormatError
from leibniz_engel.fields import GF, MR_EXACT_BOUND, QQ, is_prime
from leibniz_engel.linalg import Subspace


def test_rational_parse_and_reduce():
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.parse(-3) == Fraction(-3)
    assert QQ.parse("-2/5").denominator == 5
    with pytest.raises(FormatError):
        QQ.parse("1.5")
    with pytest.raises(FormatError):
        QQ.parse("1/0")
    with pytest.raises(FormatError, match="bad scalar literal"):
        QQ.parse("1/-2")  # a sign goes on the numerator only


def test_rational_arithmetic_is_exact():
    a = QQ.parse("1/3")
    b = QQ.parse("1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.inv(a)) == QQ.one()
    assert QQ.characteristic == 0


def test_rational_canonical_form():
    # an integral rational is an int, anything else a Fraction, never a float
    assert [type(x) for x in (QQ.zero(), QQ.one(), QQ.from_int(-4),
                              QQ.parse(7), QQ.parse("6/3"),
                              QQ.normalize(Fraction(8, 4)), QQ.inv(-1),
                              QQ.div(6, 3), QQ.mul(Fraction(2, 3), 3),
                              QQ.add(Fraction(1, 2), Fraction(1, 2)))] \
        == [int] * 10
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.div(1, 3)) is Fraction
    row = QQ.reduce_row([Fraction(4, 2), Fraction(1, 2), 3])
    assert row == (2, Fraction(1, 2), 3)
    assert [type(x) for x in row] == [int, Fraction, int]
    assert QQ.to_str(QQ.parse("4/2")) == str(Fraction(2)) == "2"


def test_prime_field_residues():
    f5 = GF(5)
    assert f5.parse(7) == 2
    assert f5.parse("-1") == 4
    assert f5.parse("1/2") == 3  # inverse of 2 mod 5
    assert f5.mul(3, f5.inv(3)) == 1
    assert f5.characteristic == 5
    with pytest.raises(FormatError):
        f5.parse("1/5")


def test_parse_is_normalize_of_the_value_it_reads():
    """``parse`` returns canonical scalars, so the file loaders build from
    them without normalising again: over Q, F5 and F7, parse of an int, of
    ``"a/b"`` and ``"-a/b"``, of an integral ``"6/3"`` and of a literal
    padded with spaces equals normalize of the value, with the same type."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(field=st.sampled_from([QQ, GF(5), GF(7)]),
                      num=st.integers() | st.integers(-10**40, 10**40),
                      den=st.integers(1, 10**20),
                      form=st.sampled_from(["int", "str", "a/b", "-a/b",
                                            "integral"]),
                      pad=st.sampled_from(["", " ", "\t ", " \n "]))
    @hypothesis.example(QQ, 6, 3, "integral", "")
    @hypothesis.example(GF(5), -12, 2, "int", "")
    @hypothesis.example(GF(7), 3, 2, "-a/b", " ")
    def check(field, num, den, form, pad):
        if form == "int":
            literal, value = num, num
        elif form == "str":
            literal, value = f"{pad}{num}{pad}", num
        else:
            if form == "-a/b":
                num = -abs(num)
            elif form == "integral":
                num *= den
            literal, value = f"{pad}{num}/{den}{pad}", Fraction(num, den)
        try:
            want = field.normalize(value)
        except FormatError:  # a denominator divisible by p
            with pytest.raises(FormatError, match="no meaning"):
                field.parse(literal)
            return
        got = field.parse(literal)
        assert got == want and type(got) is type(want)

    check()


def test_prime_field_normalize_rejects_denominator_divisible_by_p():
    with pytest.raises(FormatError, match="has no meaning mod 5"):
        GF(5).normalize(Fraction(1, 5))
    with pytest.raises(FormatError, match="has no meaning mod 5"):
        Subspace.span(GF(5), 2, [(Fraction(2, 5), 1)])
    with pytest.raises(FormatError, match="'1/5' has no meaning mod 5"):
        GF(5).parse("1/5")
    assert GF(5).normalize(Fraction(1, 2)) == 3


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
