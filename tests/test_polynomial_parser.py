"""The exact polynomial parser against a fixed copy of the earlier sympy
route, on pinned edge cases and seeded random expression trees."""

import random
import time
from fractions import Fraction

import pytest

from redhom.algebra import AlgebraError, build_algebra, parse_polynomial
from redhom.linalg import GF2, GF3, QQ, Field

NAMES = ["x", "y", "z"]
FIELDS = [GF2, GF3, Field(2**31 - 1), QQ]
FIELD_IDS = ["F2", "F3", "Fbig", "Q"]


def sympy_route(src, var_names, fld):
    """The sympy-based parser as it stood before the exact evaluator."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    syms = [sympy.Symbol(n) for n in var_names]
    local = {n: s for n, s in zip(var_names, syms)}
    try:
        expr = parse_expr(
            src,
            local_dict=local,
            transformations=standard_transformations + (convert_xor,),
        )
    except Exception as exc:
        raise AlgebraError(f"cannot parse polynomial {src!r}: {exc}") from None
    extra = expr.free_symbols - set(syms)
    if extra:
        names = sorted(str(s) for s in extra)
        raise AlgebraError(f"unknown variables {names} in {src!r}")
    expr = sympy.expand(expr)
    if expr == 0:
        return {}
    try:
        poly = sympy.Poly(expr, *syms, domain="QQ")
    except Exception as exc:
        raise AlgebraError(f"not a rational-coefficient polynomial: {src!r} ({exc})") from None
    out = {}
    for mono, coef in poly.terms():
        frac = Fraction(int(coef.p), int(coef.q))
        if fld.p is not None:
            den = frac.denominator % fld.p
            if den == 0:
                raise AlgebraError(
                    f"coefficient {frac} in {src!r} has denominator divisible "
                    f"by the characteristic {fld.p}")
            val = fld.div(frac.numerator % fld.p, den)
        else:
            val = frac
        if val != fld.zero():
            out[tuple(int(e) for e in mono)] = val
    return out


def outcome(parse, src, fld):
    """The parsed dict, or the AlgebraError class when it is rejected."""
    try:
        return parse(src, NAMES, fld)
    except AlgebraError:
        return AlgebraError


def constant(rng):
    """Text of a constant expression over Q: an integer, a quotient or a
    power of one."""
    kind = rng.randrange(3)
    if kind == 0:
        return str(rng.randint(0, 12))
    if kind == 1:
        return f"({rng.randint(-9, 9)}/{rng.randint(1, 9)})"
    return f"({rng.randint(1, 5)}^{rng.randint(-2, 3)})"


def expression(rng, depth, root=True):
    """Text of a random polynomial expression in x, y, z; the root is
    never a leaf."""
    if depth == 0 or not root and rng.random() < 0.25:
        return rng.choice(NAMES + [constant(rng)])
    kind = rng.randrange(7)
    a = expression(rng, depth - 1, False)
    if kind == 0:
        return f"-({a})"
    if kind == 1:
        return f"({a})/({rng.randint(1, 7)}{rng.choice('+-')}{constant(rng)})"
    if kind == 2:
        return f"({a}){rng.choice(['^', '**'])}{rng.randint(0, 3)}"
    op = rng.choice(["+", "-", "*", "*"])
    return f"({a}){op}({expression(rng, depth - 1, False)})"


# today's results, pinned over Q; the oracle agrees on every field
EDGE_CASES = {
    "--x": {(1, 0, 0): 1},
    "x^0": {(0, 0, 0): 1},
    "2^3": {(0, 0, 0): 8},
    "x^2^2": {(4, 0, 0): 1},
    "3/6*x": {(1, 0, 0): Fraction(1, 2)},
    "x^(1+1)": {(2, 0, 0): 1},
    "2^-1*x": {(1, 0, 0): Fraction(1, 2)},
    "0.1*x": {(1, 0, 0): Fraction(1, 10)},
    "1e3*x": {(1, 0, 0): 1000},
    "(x+1)^2": {(2, 0, 0): 1, (1, 0, 0): 2, (0, 0, 0): 1},
    "10^20*x": {(1, 0, 0): 10**20},
}

MALFORMED = [
    "x,y", "2x", "(x", "x/y", "x^-1", "sqrt(2)*x", "x.y", "", "x +",
    "w", "x/0", "x/(y-y)", "0^-1", "x^(1/2)", "x^y", "x^2.5", "1j*x",
    "x // 2", "x % 2", "x @ y", "[x]", "x[0]", "'x'", "None", "True*x",
    "x if 1 else y", "lambda: x", "x == y", "x\x00", "x;y",
    "+".join(["x"] * 5000), "(" * 300 + "x" + ")" * 300,
]


class TestEdgeCases:
    @pytest.mark.parametrize("src", list(EDGE_CASES))
    def test_pinned_over_q(self, src):
        assert parse_polynomial(src, NAMES, QQ) == EDGE_CASES[src]

    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("src", list(EDGE_CASES))
    def test_matches_sympy_route(self, src, fld):
        assert (outcome(parse_polynomial, src, fld)
                == outcome(sympy_route, src, fld))

    @pytest.mark.parametrize("src", MALFORMED)
    def test_malformed_raises_algebra_error(self, src):
        with pytest.raises(AlgebraError):
            parse_polynomial(src, NAMES, QQ)

    def test_denominator_divisible_by_p(self):
        with pytest.raises(AlgebraError, match="characteristic"):
            parse_polynomial("x/6 + y", NAMES, GF3)
        assert parse_polynomial("x/3*3", NAMES, GF3) == {(1, 0, 0): 1}

    def test_decimals_read_exactly(self):
        assert parse_polynomial("0.30000000000000004*x", ["x"], QQ) == {
            (1,): Fraction(30000000000000004, 10**17)}


class TestRandomTrees:
    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    def test_matches_sympy_route(self, fld):
        rng = random.Random(20260 + (fld.p or 0) % 1000)
        for _ in range(100):
            src = expression(rng, 4)
            assert (outcome(parse_polynomial, src, fld)
                    == outcome(sympy_route, src, fld)), src

    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    def test_truncation_drops_only_high_degrees(self, fld):
        rng = random.Random(4100 + (fld.p or 0) % 1000)
        for _ in range(100):
            src = expression(rng, 4)
            full = outcome(parse_polynomial, src, fld)
            if full is AlgebraError:
                continue
            for nilp in (1, 2, 3):
                want = {m: c for m, c in full.items() if sum(m) < nilp}
                assert parse_polynomial(src, NAMES, fld, nilp) == want, src


class TestNilpotency:
    def test_huge_exponents_vanish(self):
        assert parse_polynomial("x^1000000000 + y", NAMES, QQ, 3) == {
            (0, 1, 0): 1}
        e = 10**9
        assert parse_polynomial("(x+1)^1000000000", NAMES, QQ, 3) == {
            (0, 0, 0): 1, (1, 0, 0): e, (2, 0, 0): e * (e - 1) // 2}

    def test_algebra_with_a_huge_power(self):
        alg = build_algebra(GF2, ["x", "y"], ["x^1000000000 + y^2"], 3)
        assert alg.basis_labels() == ["1", "x", "y", "x^2", "x*y"]
        assert alg.element_from_string("y^1000000000").is_zero()

    def test_nilpotency_one_keeps_constants(self):
        assert parse_polynomial("x + 2", NAMES, QQ, 1) == {(0, 0, 0): 2}


class TestConstantPowers:
    """A constant's power is taken in one step: modulo p over F_p when p
    divides neither its numerator nor its denominator, exactly otherwise."""

    @pytest.mark.parametrize("fld,a", [(GF2, 3), (GF3, 2), (Field(2**31 - 1), 3)],
                             ids=FIELD_IDS[:3])
    def test_huge_power_over_fp_is_reduced_as_taken(self, fld, a):
        start = time.perf_counter()
        got = parse_polynomial(f"{a}^20000000*x", NAMES, fld)
        assert time.perf_counter() - start < 1.0  # milliseconds; 2-3 s exactly
        assert got == {(1, 0, 0): pow(a, 20000000, fld.p)}

    def test_power_of_a_multiple_of_p_is_exact(self):
        """3 is 0 mod 3, so 3^e*x is evaluated exactly: 0 for a small e,
        refused past the cap for a large one."""
        assert parse_polynomial("3^20*x + y", NAMES, GF3) == {(0, 1, 0): 1}
        with pytest.raises(AlgebraError, match="bits is over MAX_STEP_BYTES"):
            parse_polynomial("3^20000000*x", NAMES, GF3)

    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    def test_matches_the_exact_value(self, fld):
        rng = random.Random(4200 + (fld.p or 0) % 1000)
        for _ in range(200):
            a, b, e = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-6, 6)
            src = f"({a}/{b})^{e}*x + 2"
            if a == 0 and e < 0:
                want = AlgebraError
            else:
                value = Fraction(a, b) ** e
                try:
                    c = fld.div(fld.coerce(value.numerator),
                                fld.coerce(value.denominator))
                    want = {m: v for m, v in [((1, 0, 0), c), ((0, 0, 0), fld.coerce(2))] if v}
                except ZeroDivisionError:
                    want = AlgebraError
            assert outcome(parse_polynomial, src, fld) == want, src

    def test_q_refuses_past_the_bit_cap(self):
        with pytest.raises(AlgebraError, match="bits is over MAX_STEP_BYTES"):
            parse_polynomial("3^20000000*x", NAMES, QQ)
        assert parse_polynomial("1^20000000*x", NAMES, QQ) == {(1, 0, 0): 1}
