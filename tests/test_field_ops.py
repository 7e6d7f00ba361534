"""A `Field` chooses its per-field operations once, in its constructor.

Pickling and deep copies rebuild a field from its characteristic, so a
copy is the same field with working operations.  The chosen scalar
operations give the values of the branching definitions below, which
test the characteristic on every call."""

import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from redhom.linalg import GF2, GF3, QQ, Field

FIELDS = [GF2, GF3, Field(7), Field(2**31 - 1), QQ]
IDS = ["F2", "F3", "F7", "F2^31-1", "Q"]
INTS = [0, 1, -1, 2, -2, 3, 6, 7, -7, 10, 2**31 - 1, -(2**31), 2**40 + 3, -(2**70)]
TEXTS = ["3", "-1/2", " 7/4 ", "0", "-0/5", "2/6", "10", "1.5", "1/3", "1/7",
         "1/0", "x", "", "2147483647/3"]


def coerce_ref(p, x):
    if p is not None:
        return int(x) % p
    return x if isinstance(x, Fraction) else Fraction(x)


def inv_ref(p, a):
    if p is not None:
        if a % p == 0:
            raise ZeroDivisionError
        return pow(a % p, p - 2, p)
    if a == 0:
        raise ZeroDivisionError
    return 1 / a


def parse_ref(p, s):
    s = s.strip()
    try:
        q = Fraction(s)
        if p is None:
            return q
        num, _, den = s.partition("/")
        return int(num) * inv_ref(p, int(den or 1)) % p
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def random_ref(p, rng):
    if p is not None:
        return rng.randrange(p)
    return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
@pytest.mark.parametrize("clone", [lambda f: pickle.loads(pickle.dumps(f)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_copy_is_the_same_field(fld, clone):
    other = clone(fld)
    assert other == fld and hash(other) == hash(fld)
    assert repr(other) == repr(fld) and other.dtype == fld.dtype
    assert other.p == fld.p and other.characteristic == fld.characteristic
    assert [other.coerce(x) for x in INTS] == [fld.coerce(x) for x in INTS]
    assert [outcome(other.parse, s) for s in TEXTS] == [
        outcome(fld.parse, s) for s in TEXTS]
    a = np.array([[fld.coerce(x) for x in INTS[:4]]] * 3, dtype=fld.dtype)
    assert (other.product(np.dot, a, a.T, 4) == fld.product(np.dot, a, a.T, 4)).all()
    assert other.rank(a) == fld.rank(a) == 1


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_scalars_match_the_branching_definitions(fld):
    p = fld.p
    values = INTS + [Fraction(-3, 4), Fraction(5, 2)] * (p is None)
    assert [fld.coerce(x) for x in values] == [coerce_ref(p, x) for x in values]
    assert [outcome(fld.inv, fld.coerce(x)) for x in values] == [
        outcome(inv_ref, p, coerce_ref(p, x)) for x in values]
    assert [outcome(fld.parse, s) for s in TEXTS] == [
        outcome(parse_ref, p, s) for s in TEXTS]
    rng, ref = random.Random(43), random.Random(43)
    assert [fld.random(rng) for _ in range(50)] == [random_ref(p, ref) for _ in range(50)]
    assert repr(fld) == ("QQ" if p is None else f"GF({p})")
    assert fld.characteristic == (p or 0)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_residue_and_radical_rounds(fld):
    p = fld.p
    for c in [Fraction(3, 2), Fraction(-5, 7), Fraction(0), Fraction(2**31 - 1, 3)]:
        if p is None:
            assert fld.residue(c) == c
        elif c.numerator % p and c.denominator % p:
            assert fld.residue(c) == c.numerator * pow(c.denominator, -1, p) % p
        else:
            with pytest.raises(ArithmeticError):
                fld.residue(c)
    for n in range(1, 70):
        rounds = 1
        while p is not None and p ** rounds <= n:
            rounds += 1
        assert fld.radical_rounds(n) == rounds, n
