"""Local algebra construction: hand-checked structure oracles."""

import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redhom import corpus
from redhom.algebra import (
    Algebra,
    AlgebraError,
    algebra_from_presentation,
    build_algebra,
    parse_polynomial,
    structure,
)
from redhom.linalg import (GF2, GF3, QQ, Field, Matrix, by_gather,
                           column_space_basis, contract)
from redhom.workspace import load_workspace

ROOT = Path(__file__).resolve().parent.parent


def square_zero_two_vars():
    return build_algebra(GF2, ["x", "y"], [], 2)


def truncated_line(power=3):
    return build_algebra(GF2, ["x"], [], power)


class TestParser:
    def test_basic_terms(self):
        p = parse_polynomial("x^2 - y^2", ["x", "y"], GF3)
        assert p == {(2, 0): 1, (0, 2): 2}

    def test_products_and_coefficients(self):
        p = parse_polynomial("2*x*y + x", ["x", "y"], GF3)
        assert p == {(1, 1): 2, (1, 0): 1}

    def test_rational_coefficients(self):
        p = parse_polynomial("x/2", ["x"], QQ)
        assert p == {(1,): Fraction(1, 2)}

    def test_coefficient_reduction_mod_p(self):
        assert parse_polynomial("3*x", ["x"], GF3) == {}
        assert parse_polynomial("4*x", ["x"], GF3) == {(1,): 1}

    def test_unknown_symbol_rejected(self):
        with pytest.raises(AlgebraError):
            parse_polynomial("x + z", ["x", "y"], GF2)

    def test_bad_denominator_rejected(self):
        with pytest.raises(AlgebraError):
            parse_polynomial("x/3", ["x"], GF3)


class TestSquareZeroPlane:
    """k[x,y] with every degree-2 monomial killed by truncation."""

    def test_basis(self):
        a = square_zero_two_vars()
        assert a.dim == 3
        assert a.basis_labels() == ["1", "x", "y"]
        assert a.hilbert_function() == [1, 2]

    def test_multiplication_vanishes_in_degree_two(self):
        a = square_zero_two_vars()
        for u in range(2):
            for v in range(2):
                assert (Matrix(a.field, a.var_stack[u]) @ Matrix(a.field, a.var_stack[v])).is_zero()

    def test_socle_is_whole_maximal_ideal(self):
        a = square_zero_two_vars()
        assert a.socle_dim == 2
        assert not a.is_gorenstein
        assert a.embedding_dim == 2

    def test_explicit_relations_agree_with_truncation(self):
        b = build_algebra(GF2, ["x", "y"], ["x^2", "x*y", "y^2"], 3)
        a = square_zero_two_vars()
        assert b.basis_mons == a.basis_mons
        assert np.array_equal(b.var_stack, a.var_stack)


class TestTruncatedLine:
    def test_structure(self):
        a = truncated_line(3)
        assert a.basis_labels() == ["1", "x", "x^2"]
        assert a.socle_dim == 1
        assert a.is_gorenstein
        assert a.embedding_dim == 1

    def test_regular_representation(self):
        a = truncated_line(3)
        x = Matrix(a.field, a.var_stack[0])
        assert (x @ x) == Matrix(a.field, a.mult[2])
        assert (x @ x @ x).is_zero()


class TestMixedRelations:
    def test_monomial_relations_gf3(self):
        # x^2 and x*y killed, y^2 survives
        a = build_algebra(GF3, ["x", "y"], ["x^2", "x*y"], 3)
        assert a.dim == 4
        assert a.basis_labels() == ["1", "x", "y", "y^2"]
        assert a.hilbert_function() == [1, 2, 1]
        assert a.socle_dim == 2
        assert a.embedding_dim == 2
        y = Matrix(a.field, a.var_stack[1])
        assert (y @ y) == Matrix(a.field, a.mult[3])

    def test_linear_relation_identifies_variables(self):
        a = build_algebra(GF3, ["x", "y"], ["x - y"], 2)
        assert a.dim == 2
        assert a.basis_labels() == ["1", "y"]
        assert (Matrix(a.field, a.var_stack[0][:, :1])
                == Matrix(a.field, a.var_stack[1][:, :1]))

    def test_binomial_relation_gorenstein(self):
        # x^2 = y^2, xy = 0: basis 1, x, y, x^2 with socle x^2 only
        a = build_algebra(GF3, ["x", "y"], ["x^2 - y^2", "x*y"], 3)
        assert a.dim == 4
        assert a.socle_dim == 1
        assert a.is_gorenstein
        y = Matrix(a.field, a.var_stack[1])
        x = Matrix(a.field, a.var_stack[0])
        assert (y @ y) == (x @ x)

    def test_rational_field(self):
        # ideal holds x^2 - x^3 and x*(x^2 - x^3) = x^3 mod m^4, hence x^2
        a = build_algebra(QQ, ["x"], ["x^2 - x^3"], 4)
        assert a.basis_labels() == ["1", "x"]

    def test_constant_term_rejected(self):
        with pytest.raises(AlgebraError):
            build_algebra(GF2, ["x"], ["1 + x"], 3)

    def test_duplicate_names_rejected(self):
        with pytest.raises(AlgebraError):
            build_algebra(GF2, ["x", "x"], [], 2)


def check_ring_axioms(alg):
    """The axioms `build_algebra` guarantees by construction: basis index 0
    is the identity, the variable actions commute, the table is
    associative, and m^N = 0 for the declared bound N."""
    d, fld, n = alg.dim, alg.field, alg.nvars
    eye = Matrix.identity(fld, d)
    assert alg.basis_mons[0] == (0,) * n, "the identity is not basis index 0"
    assert (alg.mult[0] == eye.a).all(), "b_0 does not act as the identity"
    # prod[u, v] = x_u x_v
    prod = contract(fld, "uab,vbc->uvac", alg.var_stack, alg.var_stack)
    assert (prod == prod.transpose(1, 0, 2, 3)).all(), \
        "variable actions do not commute"
    # Associativity, L_{b_a b_b} = L_a L_b for L_t = mult[t], from the
    # regular representation: x_v L_t = sum_u X_v[u, t] L_u, and each b_t
    # of degree >= 1 is x_v b_s for a basis monomial b_s (`monomial_steps`),
    # read in column s of X_v.  With mult[0] = I and commuting X_v,
    # induction on degree gives L_t = X^{m_t}, so L_{b_a b_b} =
    # L_{X^{m_a} b_b} = X^{m_a} L_b = L_a L_b.  This costs n d^4 products
    # against d^5 for comparing L_a L_b directly.
    mult, va = alg.mult, alg.var_stack
    assert all((va[v][:, s] == eye.a[:, t]).all()
               for v, t, s in alg.monomial_steps) and (
        contract(fld, "vab,tbc->vtac", va, mult)
        == contract(fld, "vut,uab->vtab", va, mult)).all(), \
        "multiplication table is not associative"
    # m^N = 0: span m, then m^2, ..., m^N, each m times the last
    span = eye.take_cols(range(1, d))
    for _ in range(alg.nilpotency - 1):
        if span.cols == 0:
            break
        nxt = Matrix(fld, contract(fld, "vab,bc->avc", va, span.a)
                     .reshape(d, n * span.cols))
        span = column_space_basis(nxt)
    assert span.cols == 0, "declared nilpotency bound is violated"


def corrupted(alg, t, a, b):
    """`alg` with coordinate a of the product b_t b_b moved by one."""
    mult = alg.mult.copy()
    mult[t, a, b] = alg.field.add(mult[t, a, b], alg.field.one())
    return dataclasses.replace(alg, mult=mult)


def test_a_replaced_copy_lays_out_its_own_table():
    """`dataclasses.replace` carries neither the `_table` nor the kept
    layouts: a copy of F_2[x,y]/m^3 with one product changed reads its
    own `mult`, and the presentation's builds still read theirs."""
    alg = build_algebra(GF2, ["x", "y"], [], 3)
    kept = structure(alg, "columns")
    alg.free_varmat(2)
    bad = corrupted(alg, 1, 2, 3)
    assert bad._table == {} and bad._layouts == {}
    cols = structure(bad, "columns")
    assert dict(cols) == {g: tuple(prods) for g, prods
                          in by_gather(bad.mult, 2, (1, 0)).items()}
    assert cols != kept and ((2, 1), 1) in cols[3]
    assert structure(build_algebra(GF2, ["x", "y"], [], 3), "columns") is kept


class TestAssociativityCheck:
    """A table with one product changed is refused by the oracle: the
    check at the monomial step b_t = x_v b_s compares L_t with x_v L_s."""

    @pytest.mark.parametrize("fld, names, rels, nilp", [
        (GF2, ["x", "y", "z"], [], 4),
        (GF3, ["x", "y"], ["x^2 - y^2", "x*y"], 3),
        (QQ, ["x", "y"], ["x^2 - y^3"], 5),
    ], ids=["gf2-cube", "gf3-binomial", "qq"])
    def test_each_corrupted_product_refused(self, fld, names, rels, nilp):
        alg = build_algebra(fld, names, rels, nilp)
        d = alg.dim
        for t in range(1, d):
            with pytest.raises(AssertionError, match="not associative"):
                check_ring_axioms(corrupted(alg, t, (3 * t + 1) % d,
                                            (5 * t) % d))

    def test_actions_off_the_table_refused(self):
        """Zero variable actions commute and satisfy x_v L_t = sum_u
        X_v[u, t] L_u; only the monomial steps b_t = x_v b_s see that x_v
        does not act as its own column of the table."""
        alg = build_algebra(GF2, ["x", "y"], [], 3)
        with pytest.raises(AssertionError, match="not associative"):
            check_ring_axioms(dataclasses.replace(
                alg, var_stack=alg.var_stack * 0))

    def test_checked_past_dimension_64(self):
        """F_2[x,y,z]/m^7 has dimension 84, and the oracle still sees one
        wrong product among its 3 * 84^4."""
        alg = build_algebra(GF2, ["x", "y", "z"], [], 7)
        assert alg.dim == 84
        with pytest.raises(AssertionError, match="not associative"):
            check_ring_axioms(corrupted(alg, 1, 83, 82))


class TestCommutativityAndNilpotencyChecks:
    """Hand-built tables that break the oracle's other two checks are
    refused."""

    def test_noncommuting_actions_refused(self):
        alg = build_algebra(GF2, ["x", "y"], [], 2)
        x = alg.var_stack[0]  # x b_0 = b_1; its transpose sends b_1 to b_0
        with pytest.raises(AssertionError, match="do not commute"):
            check_ring_axioms(dataclasses.replace(
                alg, var_stack=np.stack([x, x.T])))

    @pytest.mark.parametrize("names, nilp, declared", [
        (["x"], 3, 1), (["x"], 3, 2), (["x", "y"], 2, 1), (["x", "y"], 3, 2),
    ], ids=["x3-as-1", "x3-as-2", "m2-as-1", "m3-as-2"])
    def test_bound_below_the_true_one_refused(self, names, nilp, declared):
        """m^declared != 0, down to one below the true bound."""
        alg = build_algebra(GF2, names, [], nilp)
        check_ring_axioms(alg)
        with pytest.raises(AssertionError, match="nilpotency bound is violated"):
            check_ring_axioms(dataclasses.replace(alg, nilpotency=declared))


def perfbench_rings():
    """(p, variables, N) of each ring in `perfbench/workloads.py`'s RINGS,
    read from its source: nothing there is imported or run."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    consts = {"P31": eval(compile(ast.Expression(names["P31"]), "P31", "eval"))}
    return eval(compile(ast.Expression(names["RINGS"]), "RINGS", "eval"), consts)


# every ring the corpus fixtures build
CORPUS_RINGS = {
    "plane": corpus.plane_algebra,
    "line2-f2": lambda: corpus.line_algebra(2, GF2),
    "line2-f3": lambda: corpus.line_algebra(2, GF3),
    "line3-f2": lambda: corpus.line_algebra(3, GF2),
    "square-zero-e3-f3": lambda: corpus.square_zero_algebra(3, GF3),
}
NAMED_RINGS = {
    **{f"docs-{path.stem}": lambda path=path: load_workspace(path).algebra
       for path in sorted((ROOT / "docs" / "examples").glob("*.json"))},
    **{f"corpus-{name}": build for name, build in CORPUS_RINGS.items()},
    **{f"perfbench-{key}": lambda p=p, names=names, nil=nil: build_algebra(
        Field(p), names, [], nil) for key, (p, names, nil) in perfbench_rings().items()},
}
FIELDS = [Field(p) for p in (2, 3, 7, 2**31 - 1, None)]


def random_presentation(fld, nvars, nilp, rng):
    """Up to three random relations in `nvars` variables, each a sum of up
    to three terms of degree 1 to nilp, the larger of two uniform draws,
    with random nonzero coefficients (fractions over Q)."""
    names = ["x", "y", "z"][:nvars]

    def term():
        mon = [0] * nvars
        for _ in range(max(rng.randint(1, nilp), rng.randint(1, nilp))):
            mon[rng.randrange(nvars)] += 1
        coef = (f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" if fld.p is None
                else str(rng.randint(1, min(fld.p - 1, 10**6))))
        return "*".join([coef] + [f"{v}^{e}" for v, e in zip(names, mon) if e])

    rels = [" + ".join(term() for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3))]
    return names, rels


class TestRingAxioms:
    """Every ring `build_algebra` makes passes `check_ring_axioms`: the
    named rings of the examples, the corpus and the benchmark, and random
    presentations over F_2, F_3, F_7, F_{2^31-1} and Q."""

    @pytest.mark.parametrize("name", NAMED_RINGS)
    def test_named_rings(self, name):
        check_ring_axioms(NAMED_RINGS[name]())

    # Q keeps N <= 3: its products, over fractions, are slow past that
    @given(st.sampled_from(range(len(FIELDS))), st.integers(1, 3),
           st.integers(1, 5), st.integers(0, 10**6))
    @settings(deadline=None, derandomize=True, database=None)
    def test_random_presentations(self, field, nvars, nilp, seed):
        fld = FIELDS[field]
        nilp = nilp if fld.p else min(nilp, 3)
        names, rels = random_presentation(fld, nvars, nilp, random.Random(seed))
        check_ring_axioms(build_algebra(fld, names, rels, nilp))


class TestElements:
    def test_element_from_string(self):
        a = build_algebra(GF3, ["x", "y"], ["x^2", "x*y"], 3)
        v = a.element_from_string("x + 2*y^2")
        assert [v.entry(i, 0) for i in range(4)] == [0, 1, 0, 2]

    def test_reduction_in_element_parse(self):
        a = build_algebra(GF3, ["x", "y"], ["x - y"], 2)
        v = a.element_from_string("x")
        assert a.basis_labels() == ["1", "y"]
        assert [v.entry(i, 0) for i in range(2)] == [0, 1]

    def test_multiply(self):
        a = truncated_line(4)
        x = a.element_from_string("x")
        x2 = Matrix(a.field, a.mult[1]) @ x
        assert x2 == a.element_from_string("x^2")
        assert (Matrix(a.field, a.mult[2]) @ x2).is_zero()


class TestSerialization:
    def test_presentation_roundtrip(self):
        a = build_algebra(GF3, ["x", "y"], ["x^2 - y^2", "x*y"], 3)
        b = algebra_from_presentation(a.presentation())
        assert b.basis_mons == a.basis_mons
        assert b.field == a.field
        assert all(Matrix(b.field, p) == Matrix(a.field, q)
                   for p, q in zip(b.mult, a.mult))

    def test_summary_keys(self):
        s = square_zero_two_vars().summary()
        assert s["dimension"] == 3
        assert s["gorenstein"] is False
        assert s["socle_dimension"] == 2


def assert_free_blocks(a, stack, blocks, rank):
    """`blocks` is `stack` on the rank-g free module, one block per
    generator, in the storage dtype and read-only."""
    assert blocks.shape == (len(stack), rank * a.dim, rank * a.dim)
    assert blocks.dtype == a.field.dtype and not blocks.flags.writeable
    for got, block in zip(blocks, stack):
        assert Matrix(a.field, got) == Matrix.block_diag(
            a.field, [Matrix(a.field, block)] * rank)


class TestFreeHelpers:
    def test_free_varmat_block_structure(self):
        for f in FIELDS:
            a = build_algebra(f, ["x", "y"], [], 3)
            for rank in range(1, 6):
                assert_free_blocks(a, a.var_stack, a.free_varmat(rank), rank)
                assert a.free_varmat(rank) is a.free_varmat(rank)

    def test_action_stack_identity_slot(self):
        for f in FIELDS:
            a = build_algebra(f, ["x", "y"], [], 2)
            for rank in range(1, 6):
                st = a.free_action_stack(rank)
                assert_free_blocks(a, a.mult, st, rank)
                assert a.free_action_stack(rank) is st
                assert Matrix(f, st[0]) == Matrix.identity(f, 3 * rank)
