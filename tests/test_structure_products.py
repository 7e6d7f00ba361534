"""Products of free modules by the algebra, pinned against dense einsums.

Maps between free modules are built from the sparse structure constants
(`algebra.structure`), and free modules act through their block-diagonal
matrices.  Each reference below is an einsum over the dense
structure-constant stack or a variable's matrix, evaluated on Python
ints (or Fractions over Q) and reduced once, so it is exact on every
field.  Values and dtypes must match.  Besides monomial rings, two
presentations give coefficients other than 1 and output slots that
receive two or three terms; over F_{2^31-1} the three-term slot with
coefficient p-1 overflows int64 unless reduced.
"""

import random
from functools import cache

import numpy as np
import pytest

from redhom.algebra import build_algebra, structure
from redhom.homalg import ExtTable, r_dual
from redhom.linalg import Field, Matrix, random_matrix
from redhom.modules import (ModuleError, ModuleMap, assemble_action_columns,
                            free_module, from_presentation, hom_space_matrix,
                            regular_module, residue_field)
from redhom.resolution import resolve

PRIMES = [2, 3, 2**31 - 1, None]  # None is Q
RINGS = {
    "xy/m2": (["x", "y"], [], 2),
    "xyz/m2": (["x", "y", "z"], [], 2),
    "xy/m3": (["x", "y"], [], 3),
    "x2=2xy": (["x", "y"], ["x^2-2*x*y"], 3),
    "x2=xz=-xy": (["x", "y", "z"], ["x^2+x*y", "x*z+x*y"], 3),
}
CASES = [(p, ring) for p in PRIMES for ring in RINGS]
IDS = [f"{'Q' if p is None else p}-{ring}" for p, ring in CASES]


@cache
def algebra(p, ring):
    names, rels, nil = RINGS[ring]
    return build_algebra(Field(p), names, rels, nil)


def dense(fld, spec, a, b):
    """np.einsum(spec, a, b) on Python ints or Fractions, reduced once."""
    out = np.einsum(spec, a.astype(object), b.astype(object))
    return np.asarray(fld.reduce(out)).astype(fld.dtype)


def same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(got, want)


def solve_blocks(a: Matrix, blocks: list[Matrix]) -> list[Matrix] | None:
    """Solutions of a @ X = B for each of some blocks B of equal width,
    from one carried elimination; None when some column has none."""
    if not blocks:
        return []
    x, ok = a.solve_columns(Matrix.hstack(blocks))
    if not all(ok):
        return None
    w = blocks[0].cols
    return [x.take_cols(range(i * w, (i + 1) * w)) for i in range(len(blocks))]


@pytest.fixture(params=CASES, ids=IDS)
def alg(request):
    return algebra(*request.param)


class TestSparsePattern:
    def test_nonzero_counts(self):
        """The stacks are almost all zeros, and every nonzero is 1."""
        for ring, nonzero, total in (("xy/m2", 5, 27), ("xyz/m2", 7, 64),
                                     ("xy/m3", 15, 216)):
            a = algebra(2, ring)
            entries = [c for pairs in structure(a, "columns").values()
                       for _, c in pairs]
            assert a.action_stack().size == total
            assert len(entries) == nonzero == np.count_nonzero(a.action_stack())
            assert set(entries) == {1}

    def test_built_once_per_algebra(self):
        a = algebra(3, "xy/m2")
        assert structure(a, "columns") is structure(a, "columns")
        assert structure(a, "left", 1) is structure(a, "left", 1)


class TestCallSites:
    def test_free_map_from_columns(self, alg):
        fld, d, rng = alg.field, alg.dim, random.Random(1)
        for g, s in ((2, 3), (1, 1), (0, 2), (2, 0), (3, 5)):
            stacked = random_matrix(fld, g * d, s, rng)
            want = dense(fld, "tab,gbj->gajt", alg.action_stack(),
                         stacked.a.reshape(g, d, s)).reshape(g * d, s * d)
            assert same(assemble_action_columns(free_module(alg, g), stacked).a, want)

    def test_free_map_zero_columns(self, alg):
        fld, d = alg.field, alg.dim
        stacked = Matrix.zeros(fld, 2 * d, 3)
        assert same(assemble_action_columns(free_module(alg, 2), stacked).a,
                    fld.zeros((2 * d, 3 * d)))

    def test_blockwise_apply(self, alg):
        fld, d, rng = alg.field, alg.dim, random.Random(2)
        for rank, s in ((3, 4), (1, 1), (0, 3), (2, 0)):
            vectors = random_matrix(fld, rank * d, s, rng)
            for v in range(alg.nvars):
                want = dense(fld, "ab,gbs->gas", alg.var_stack[v],
                             vectors.a.reshape(rank, d, s)).reshape(rank * d, s)
                assert same((free_module(alg, rank).var_actions[v] @ vectors).a, want)

    def test_check_linear_out_of_a_free_module(self, alg):
        """A map out of a free module passes `check_linear` when it is
        given by generator images, and fails once column 1, the image of
        x_0 times the first generator, no longer equals x_0 times column 0."""
        fld, rng = alg.field, random.Random(3)
        target = from_presentation(alg, 2, [["x", "0"], ["y", "x"]])
        for rank in (1, 3):
            gens = random_matrix(fld, target.dim, rank, rng)
            mat = assemble_action_columns(target, gens)
            ModuleMap(free_module(alg, rank), target, mat).check_linear()
            bad = mat.copy()
            bad.a[0, 1] = fld.add(bad.a[0, 1], fld.one())
            with pytest.raises(ModuleError, match="commute"):
                ModuleMap(free_module(alg, rank), target, bad).check_linear()

    def test_r_dual_actions(self, alg):
        """The dual's actions: x_v on the R-coordinate of every map."""
        mod = from_presentation(alg, 2, [["x", "0"], ["y", "x"]])
        flat = hom_space_matrix(mod, regular_module(alg))
        h = flat.cols
        stack = flat.a.reshape(alg.dim, mod.dim, h)
        want = solve_blocks(flat, [
            Matrix(alg.field, dense(alg.field, "ab,bci->aci", alg.var_stack[v],
                                    stack).reshape(-1, h))
            for v in range(alg.nvars)])
        got = r_dual(mod).module.var_actions
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same(g.a, w.a)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_ext_transition_into_free(self, alg, rank):
        fld, d = alg.field, alg.dim
        for src in (residue_field(alg),
                    from_presentation(alg, 1, [["x", "y"]])):
            table = ExtTable(src, free_module(alg, rank))
            target = table.target
            for i in range(2):
                b_src, b_tgt = table.res.betti(i), table.res.betti(i + 1)
                got = Matrix.from_sparse(fld, b_tgt * target.dim,
                                         table.transition_columns(i)).a
                coeff = table.res.differential(i + 1).a[:, ::d].reshape(b_src, d, b_tgt)
                want = dense(fld, "jts,tab->sajb", coeff,
                             target.action_stack()).reshape(got.shape)
                assert same(got, want)


class TestResults:
    @pytest.mark.parametrize("p, window", [(2, 10), (2**31 - 1, 9)])
    def test_resolve_ext_betti(self, p, window):
        """The Betti lists of the two deepest resolve-ext jobs: e^i."""
        k = residue_field(algebra(p, "xy/m2"))
        assert resolve(k).betti_list(window) == [2**i for i in range(window + 1)]
