"""Scalar strings: `Matrix.from_str_rows` reads a matrix exactly as
`Field.parse` reads each entry, and F_p reads Q's fraction syntax."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from redhom.linalg import GF2, GF3, QQ, Field, Matrix

P31 = 2**31 - 1
FIELDS = [GF2, GF3, Field(P31), QQ]
IDS = ["F2", "F3", "F2^31-1", "Q"]

BIG = st.integers(2**64, 2**200) | st.integers(-2**200, -2**64)
INTEGERS = BIG | st.integers(-10, 10) | st.sampled_from([P31, -P31, 2 * P31])
DENOMINATORS = st.sampled_from([0, 1, 2, 3, 4, 6, 9, P31, 2 * P31, -1]) \
    | st.integers(1, 2**70)
FRACTIONS = st.builds("{}/{}".format, INTEGERS, DENOMINATORS)
ODD = st.sampled_from([
    "1_000", "-1_0/2_0", "1__0", "_1", "1_", "1.5", "-.5", "2.", "1e3",
    "1.5e-2", "٣", "-٣٤", "١/٢", "１２", "²", "Ⅻ", "", "-", "+", "/", "x",
    "1/2/3", "--1", "+-1", "0x10", "nan", "inf", "1 2", "3/", "-3/-4",
    "3/+4", "3 / 4", "+7", "-0", "00", "0/5"])
SPACE = st.sampled_from(["", " ", "\t", "\n", " ", " "])
SCALARS = st.builds("{}{}{}".format, SPACE,
                    st.one_of(INTEGERS.map(str), FRACTIONS, ODD), SPACE)


def entrywise(field, rows):
    """`Field.parse` of every entry, or None if any entry is rejected."""
    try:
        return [[field.parse(s) for s in row] for row in rows]
    except ValueError:
        return None


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       entries=st.lists(SCALARS, min_size=9, max_size=9))
def test_from_str_rows_is_entrywise_parse(field, shape, entries):
    r, c = shape
    rows = [entries[i * c:(i + 1) * c] for i in range(r)]
    want = entrywise(field, rows)
    if want is None:
        with pytest.raises(ValueError):
            Matrix.from_str_rows(field, rows)
        return
    got = Matrix.from_str_rows(field, rows)
    assert got.a.shape == (r, c if r else 0)
    assert got.a.dtype == field.dtype
    assert got == Matrix.from_rows(field, want)
    assert [[type(x) for x in row] for row in got.a.tolist()] == \
        [[type(x) for x in row] for row in Matrix.from_rows(field, want).a.tolist()]


@pytest.mark.parametrize("field", FIELDS[:3], ids=IDS[:3])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(s=SCALARS)
def test_fp_reads_q_fraction_syntax(field, s):
    """F_p accepts a string iff Q does, it is no decimal and the written
    denominator is not 0 mod p; the value is numerator / denominator."""
    try:
        QQ.parse(s)
        accepted = True
    except ValueError:
        accepted = False
    num, _, den = s.strip().partition("/")
    den = int(den or 1) if accepted and not set(s) & set(".eE") else 0
    if den % field.p:
        assert field.parse(s) == int(num) * pow(den, -1, field.p) % field.p
    else:
        with pytest.raises(ValueError):
            field.parse(s)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("s", ["3/", "-3/-4", "3/+4", "3 / 4", "2/", "1/0"])
def test_malformed_fractions_rejected_on_every_field(field, s):
    with pytest.raises(ValueError):
        field.parse(s)


def test_written_denominator_is_inverted():
    with pytest.raises(ValueError, match="zero denominator"):
        GF2.parse("2/2")
    assert Field(P31).parse("6/4") == 6 * pow(4, -1, P31) % P31
    assert GF3.parse("-1/2") == 1
    assert QQ.parse("6/4") == Fraction(3, 2)
