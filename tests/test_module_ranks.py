"""Dimensions read off ranks equal the spans they stand for.

`Module.radical_dim` and `socle_dim` are ranks (summed over the parts of
a remembered sum), `Module.top` is one kernel of the transposed actions,
and `Ext1Data.dim` is |C^1| - rank T^1 - rank T^0 with the class basis
built on first read.  Each is checked here against the span it replaces,
built from the definitions by `radical_span` and `socle_span`, which the
other tests that take a radical or a socle as test data read too.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import Ext1Data, ExtTable, ext_dims
from redhom.linalg import QQ, Field, Matrix, column_space_basis
from redhom.modules import (Module, direct_sum, free_module, residue_field,
                           zero_module)
from redhom.resolution import resolve, syzygy


def radical_span(mod: Module) -> Matrix:
    """Independent columns spanning mM: the pivot columns of the variable
    actions side by side (x_v's columns span x_v M)."""
    alg = mod.algebra
    return column_space_basis(Matrix(alg.field, mod.var_stack.transpose(
        1, 0, 2).reshape(mod.dim, alg.nvars * mod.dim)))


def socle_span(mod: Module) -> Matrix:
    """The socle, the common kernel of the variable actions: the kernel
    basis of the actions stacked."""
    alg = mod.algebra
    return Matrix(alg.field, mod.var_stack.reshape(
        alg.nvars * mod.dim, mod.dim)).kernel_basis()


FIELDS = [Field(2), Field(3), Field(2**31 - 1), QQ]
RINGS = [(["x", "y"], 2), (["x", "y"], 3), (["x"], 3)]
KINDS = ["random", "random basis", "sum", "sum with free", "syzygy",
         "syzygy of sum", "free", "zero"]


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower, upper = ([[int(i == j) if i <= j else rng.randrange(-1, 2)
                      for j in range(n)] for i in range(n)] for _ in range(2))
    p = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper).transpose()
    return Module(mod.algebra, n, [p.inverse() @ a @ p for a in mod.var_actions])


def draw_module(alg, kind: str, seed: int) -> Module:
    rng = random.Random(seed)
    mod = random_module(alg, 2, 2, seed)
    if kind == "random basis":
        return in_random_basis(mod, rng)
    if kind == "sum":
        return direct_sum([mod, residue_field(alg), random_module(alg, 2, 2, seed + 1)])
    if kind == "sum with free":
        return direct_sum([free_module(alg, 1 + seed % 2), mod, residue_field(alg)])
    if kind == "syzygy":
        return syzygy(mod, 1 + seed % 2)
    if kind == "syzygy of sum":
        return syzygy(direct_sum([mod, residue_field(alg)]), 1)
    if kind == "free":
        return free_module(alg, 1 + seed % 3)
    if kind == "zero":
        return zero_module(alg)
    return mod


modules = st.builds(
    lambda f, r, kind, seed: draw_module(
        build_algebra(FIELDS[f], RINGS[r][0], [], RINGS[r][1]), kind, seed),
    st.sampled_from(range(len(FIELDS))), st.sampled_from(range(len(RINGS))),
    st.sampled_from(KINDS), st.integers(0, 10**6))


@given(modules)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_dimensions_and_top_equal_the_spans(mod):
    fld = mod.algebra.field
    rad, soc = radical_span(mod), socle_span(mod)
    assert mod.radical_dim() == rad.cols
    assert mod.socle_dim() == soc.cols
    assert mod.gens_count() == mod.dim - rad.cols
    assert mod.is_radical_killed() == (rad.cols == 0)
    # the top: the kernel of the transposed radical span, and its free
    # positions as unit-vector generators
    kb, free = rad.transpose().kernel_data()
    proj, top_free = mod.top()
    assert proj == kb and top_free == free
    gens = Matrix.zeros(fld, mod.dim, len(free))
    gens.a[free, range(len(free))] = fld.one()
    assert mod.min_generators() == gens


@given(modules, modules)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_ext1_dimension_is_read_off_ranks(right, left):
    if right.algebra is not left.algebra:
        left = draw_module(right.algebra, "random", right.dim + left.dim)
    res = resolve(right)
    res.extend(3)
    before = [copy.deepcopy(getattr(res, kind)(i))
              for kind in ("columns", "generators") for i in range(3)]
    data = Ext1Data(right, left)
    assert "_class_basis" not in vars(data)  # dim is read without it
    assert data.dim == ExtTable(right, left).dim(1) == ext_dims(right, left, 2)[1]
    assert data.dim == data.reps.cols
    assert data.boundaries.cols + data.reps.cols == data._class_basis.cols
    # the ranks eliminate copies: the resolution's columns are unchanged
    assert before == [getattr(res, kind)(i)
                      for kind in ("columns", "generators") for i in range(3)]
