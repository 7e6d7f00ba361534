"""Every contraction kernel is exact on every field the code accepts.

Each kernel is compared with a reference built block by block from
`Matrix @`, on entries drawn from the whole field, including a prime
close to 2**31 where int64 accumulation can overflow.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from redhom.algebra import build_algebra
from redhom.homalg import canonical_module, ext_dims
from redhom.linalg import (GF2, GF3, QQ, Field, Matrix, contract,
                           nf_columns, random_matrix)
from redhom.modules import Module, free_map_columns
from redhom.resolution import assemble_action_columns

P31 = 2**31 - 1
FIELDS = [GF2, GF3, Field(P31), QQ]
SEEDS = range(3)


def random_basis(mod: Module, rng: random.Random) -> Module:
    """The same module with each action A replaced by T^-1 A T, for a
    random invertible T = L U with unit triangular L and U."""
    fld = mod.algebra.field
    n = mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    t_inv = t.inverse()
    return Module(mod.algebra, n, [t_inv @ a @ t for a in mod.var_actions],
                  label=mod.label)


class RandomActions:
    """Duck-typed stand-in for an algebra or a module: `dim`-square action
    matrices with entries from the whole field, `count` of them.  The
    kernels read only the field, the sizes and the action stack."""

    def __init__(self, fld: Field, count: int, dim: int, rng: random.Random):
        self.field = fld
        self.dim = dim
        self.stack = np.stack([random_matrix(fld, dim, dim, rng).a
                               for _ in range(count)])
        self.algebra = SimpleNamespace(field=fld, dim=count)

    def action_stack(self) -> np.ndarray:
        return self.stack


def blocks(m: Matrix, size: int, axis: int) -> list[Matrix]:
    step = range(0, m.a.shape[axis], size)
    if axis == 0:
        return [Matrix(m.field, m.a[i:i + size, :]) for i in step]
    return [Matrix(m.field, m.a[:, i:i + size]) for i in step]


@pytest.fixture(params=[(f, s) for f in FIELDS for s in SEEDS],
                ids=lambda fs: f"{fs[0]}-seed{fs[1]}")
def case(request):
    fld, seed = request.param
    return fld, random.Random(seed)


class TestKernelsMatchMatmul:
    def test_free_map_from_columns(self, case):
        fld, rng = case
        d, g, s = 6, 2, 3
        alg = RandomActions(fld, d, d, rng)
        stacked = random_matrix(fld, g * d, s, rng)
        cols = []
        for j in range(s):
            col = Matrix(fld, stacked.a[:, j:j + 1])
            for act in alg.action_stack():
                cols.append(Matrix.vstack([Matrix(fld, act) @ blk
                                           for blk in blocks(col, d, 0)]))
        assert Matrix.from_sparse(fld, g * d, free_map_columns(
            alg, stacked.sparse_columns())) == Matrix.hstack(cols)

    def test_assemble_action_columns(self, case):
        fld, rng = case
        d, n, g = 6, 7, 3
        mod = RandomActions(fld, d, n, rng)
        gens = random_matrix(fld, n, g, rng)
        want = Matrix.hstack([Matrix(fld, mod.action_stack()[t])
                              @ Matrix(fld, gens.a[:, j:j + 1])
                              for j in range(g) for t in range(d)])
        assert assemble_action_columns(mod, gens) == want

    def test_kron(self, case):
        """The Kronecker product as one outer-product contraction, the
        form in which `hom_space_matrix` places its blocks."""
        fld, rng = case
        a = random_matrix(fld, 3, 4, rng)
        b = random_matrix(fld, 5, 2, rng)
        want = Matrix.vstack([
            Matrix.hstack([Matrix.identity(fld, b.rows).scale(a.entry(i, j)) @ b
                           for j in range(a.cols)])
            for i in range(a.rows)])
        assert Matrix(fld, contract(fld, "ij,kl->ikjl", a.a, b.a).reshape(15, 8)) == want

    def test_nf_columns(self, case):
        fld, rng = case
        rref, piv = random_matrix(fld, 4, 9, rng).rref()
        rows = Matrix(fld, rref.a[:len(piv), :])
        vectors = random_matrix(fld, 9, 5, rng)
        want = vectors.copy()
        for i, pc in enumerate(piv):
            want = want - rows.take_rows([i]).transpose() @ want.take_rows([pc])
        got = nf_columns(rows, list(piv), vectors)
        assert got == want
        assert got.take_rows(list(piv)).is_zero()


class TestContract:
    @pytest.mark.parametrize("fld", FIELDS, ids=str)
    def test_matches_python_integers(self, fld):
        rng = random.Random(7)
        a = random_matrix(fld, 6, 8, rng)
        b = random_matrix(fld, 8, 3, rng)
        got = contract(fld, "ij,jk->ik", a.a, b.a)
        if fld.p is None:
            want = [[sum((a.entry(i, j) * b.entry(j, k) for j in range(8)),
                         Fraction(0)) for k in range(3)] for i in range(6)]
        else:
            want = [[sum(a.entry(i, j) * b.entry(j, k) for j in range(8)) % fld.p
                     for k in range(3)] for i in range(6)]
        assert Matrix(fld, got) == Matrix.from_rows(fld, want)
        assert got.dtype == a.a.dtype

    @pytest.mark.parametrize("p,bound", [(2, 127), (3, 31), (5, 7), (7, 3), (11, 1)])
    @pytest.mark.parametrize("past", [0, 1])
    def test_storage_accumulator_edge(self, p, bound, past):
        # every entry p - 1, so each sum is terms * (p - 1)^2: at most 127,
        # the int8 maximum, at the bound, and past it one term later
        fld, terms = Field(p), bound + past
        a = Matrix(fld, fld.zeros((3, terms)) + (p - 1))
        b = Matrix(fld, fld.zeros((terms, 2)) + (p - 1))
        want = Matrix.from_rows(fld, [[terms * (p - 1) ** 2 % p] * 2] * 3)
        for got in (Matrix(fld, contract(fld, "ij,jk->ik", a.a, b.a)), a @ b):
            assert got.a.dtype == fld.dtype
            assert got == want

    def test_small_entries_at_large_prime(self):
        fld = Field(P31)
        a = Matrix.from_rows(fld, [[1, 2, 3], [0, 3, 1]])
        b = Matrix.from_rows(fld, [[5], [P31 - 2], [P31 - 1]])
        got = Matrix(fld, contract(fld, "ij,jk->ik", a.a, b.a))
        assert got == a @ b
        assert got.a.tolist() == [[(5 + 2 * (P31 - 2) + 3 * (P31 - 1)) % P31],
                                  [(3 * (P31 - 2) + (P31 - 1)) % P31]]


def test_ext_of_canonical_module_at_large_prime():
    """Ext(w, w) of k[x,y]/m^3 is R in degree 0 and vanishes above it.
    Over F_{2^31-1} in a random basis the sums of products overflow int64."""
    alg = build_algebra(Field(P31), ["x", "y"], [], 3)
    omega = random_basis(canonical_module(alg), random.Random(2))
    assert ext_dims(omega, omega, 2) == [6, 0, 0]


def fraction_product(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    return [[sum((a.entry(i, j) * b.entry(j, k) for j in range(a.cols)),
                 Fraction(0)) for k in range(b.cols)] for i in range(a.rows)]


def rational_matrix(rows: int, cols: int, entries, rng: random.Random) -> Matrix:
    return Matrix.from_rows(QQ, [[rng.choice(entries) for _ in range(cols)]
                                 for _ in range(rows)])


MIXED = [Fraction(1, 7), Fraction(3, 11), Fraction(-5, 13), Fraction(0),
         Fraction(2), Fraction(-1, 2)]
HUGE = [Fraction(2**40 - 3), Fraction(-(2**40) + 1, 7), Fraction(2**40 + 5, 11),
        Fraction(0)]


class TestRationalProducts:
    """Products over Q run on integer multiples of the operands; every
    result must equal the plain Fraction sum, as a Fraction."""

    def assert_product(self, a: Matrix, b: Matrix):
        want = Matrix.from_rows(QQ, fraction_product(a, b)) if a.rows else \
            Matrix.zeros(QQ, 0, b.cols)
        for got in (a @ b, Matrix(QQ, contract(QQ, "ij,jk->ik", a.a, b.a))):
            assert got.a.dtype == object
            assert got.a.shape == want.a.shape
            assert got == want
            assert all(type(x) is Fraction for x in got.a.flat)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_denominators(self, seed):
        rng = random.Random(seed)
        self.assert_product(rational_matrix(5, 8, MIXED, rng),
                            rational_matrix(8, 4, MIXED, rng))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_large_numerators_use_python_integers(self, seed):
        rng = random.Random(seed)
        a = rational_matrix(4, 6, HUGE + MIXED, rng)
        b = rational_matrix(6, 3, HUGE, rng)
        # 6 * (2**40)**2 >= 2**63: int64 could overflow, so Python ints run
        a.a[0, 0], b.a[0, 0] = HUGE[0], HUGE[0]
        self.assert_product(a, b)

    def test_int64_boundary(self):
        m = 2**31 - 1  # 2 m^2 < 2**63: the int64 path, near its limit
        a = Matrix.from_rows(QQ, [[m, m], [-m, m]])
        b = Matrix.from_rows(QQ, [[m, Fraction(1, 3)], [m, Fraction(-1, 3)]])
        self.assert_product(a, b)
        assert (a @ b).entry(0, 0) == 2 * m * m

    def test_empty_operands(self):
        rng = random.Random(5)
        self.assert_product(Matrix.zeros(QQ, 0, 3), rational_matrix(3, 2, MIXED, rng))
        self.assert_product(rational_matrix(2, 3, MIXED, rng), Matrix.zeros(QQ, 3, 0))
        self.assert_product(Matrix.zeros(QQ, 2, 0), Matrix.zeros(QQ, 0, 3))

    def test_kron_and_batched_specs(self):
        rng = random.Random(9)
        a = rational_matrix(2, 3, MIXED + HUGE, rng)
        b = rational_matrix(3, 2, MIXED, rng)
        k = Matrix(QQ, contract(QQ, "ij,kl->ikjl", a.a, b.a).reshape(6, 6))
        assert all(k.entry(i * 3 + r, j * 2 + c) == a.entry(i, j) * b.entry(r, c)
                   for i in range(2) for j in range(3)
                   for r in range(3) for c in range(2))
        stack = np.stack([rational_matrix(3, 3, MIXED, rng).a for _ in range(4)])
        vecs = rational_matrix(3, 5, MIXED + HUGE, rng)
        got = contract(QQ, "tab,bj->ajt", stack, vecs.a)
        for t in range(4):
            want = fraction_product(Matrix(QQ, stack[t]), vecs)
            assert Matrix(QQ, got[:, :, t]) == Matrix.from_rows(QQ, want)
