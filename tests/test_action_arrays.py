"""A module's actions are one (nvars, m, m) array, read by one contraction
or one reshape per consumer.

These property tests compare each array path with a per-variable
reference written here (one `Matrix` product per variable), on seeded
random modules in a random basis over F_2, F_3, F_7, F_{2^31-1} and Q:
the Hom system and `hom_dim` against the stacked Kronecker definition
(the zero module among their inputs), `check_linear`, the actions of
kernels, quotients, both duals and extension middles, and the refusal of
wrongly shaped actions.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import extension_from_psi, k_dual, r_dual
from redhom.linalg import Field, Matrix, random_matrix
from redhom.modules import (Module, ModuleError, ModuleMap, hom_dim,
                            hom_space_matrix, kernel_module, quotient_module,
                            regular_module, zero_module)
from redhom.resolution import resolve

FIELDS = [Field(p) for p in (2, 3, 7, 2**31 - 1, None)]
# Q leaves out m^3: its Hom systems, eliminated in fractions, are slow.
# F[] with no variables is the field itself: every linear map is a module map.
RINGS = [build_algebra(f, names, [], nil) for f in FIELDS
         for names, nil in ((["x", "y"], 2), (["x"], 3), (["x", "y"], 3), ([], 1))
         if f.p or (names, nil) != (["x", "y"], 3)]
CASES = st.tuples(st.sampled_from(range(len(RINGS))), st.integers(0, 10**6))


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions])


def pair(case) -> tuple[Module, Module, random.Random]:
    ring, seed = case
    alg, rng = RINGS[ring], random.Random(seed)
    return (in_random_basis(random_module(alg, 2, 2, seed), rng),
            in_random_basis(random_module(alg, 2, 2, seed + 1), rng), rng)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product, as numpy defines it, on Python ints or
    Fractions and reduced once."""
    f = a.field
    return Matrix(f, np.asarray(f.reduce(np.kron(a.a.astype(object), b.a.astype(object))))
                  .astype(f.dtype))


def same(got: list[Matrix], want: list[Matrix]) -> bool:
    return len(got) == len(want) and all(
        g.a.dtype == w.a.dtype and g == w for g, w in zip(got, want))


def random_map(src: Module, tgt: Module, rng: random.Random) -> Matrix:
    """A random combination of the Hom(src, tgt) basis, as a k-matrix."""
    fld, hom = src.algebra.field, hom_space_matrix(src, tgt)
    coeffs = random_matrix(fld, hom.cols, 1, rng)
    return Matrix(fld, (hom @ coeffs).a.reshape(tgt.dim, src.dim))


def commutes(src: Module, tgt: Module, f: Matrix) -> bool:
    return all(b @ f == f @ a for a, b in zip(src.var_actions, tgt.var_actions))


@given(CASES)
@settings(deadline=None, derandomize=True)
def test_hom_system_is_the_stacked_kronecker_definition(case):
    m, n, _ = pair(case)
    fld, zero = m.algebra.field, zero_module(m.algebra)
    for src, tgt in ((m, n), (n, m), (zero, m), (m, zero)):
        system = Matrix.vstack([Matrix.zeros(fld, 0, src.dim * tgt.dim)] + [
            kron(Matrix.identity(fld, tgt.dim), a.transpose())
            - kron(b, Matrix.identity(fld, src.dim))
            for a, b in zip(src.var_actions, tgt.var_actions)])
        assert hom_space_matrix(src, tgt) == system.kernel_basis()
        assert hom_dim(src, tgt) == system.kernel_basis().cols


@given(CASES)
@settings(deadline=None, derandomize=True)
def test_check_linear_accepts_and_rejects_as_each_variable_does(case):
    m, n, rng = pair(case)
    fld = m.algebra.field
    f = random_map(m, n, rng)
    assert commutes(m, n, f)
    ModuleMap(m, n, f).check_linear()
    if m.dim and n.dim:
        bad = f.copy()
        i, j = rng.randrange(n.dim), rng.randrange(m.dim)
        bad.a[i, j] = fld.add(bad.a[i, j], fld.one())
        if commutes(m, n, bad):
            ModuleMap(m, n, bad).check_linear()
        else:
            with pytest.raises(ModuleError, match="commute"):
                ModuleMap(m, n, bad).check_linear()


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_check_linear_rejects_a_perturbed_identity(fld):
    """1 + E_00 on R: x times it has x at column 0, it times x has 0 in row 0."""
    reg = regular_module(build_algebra(fld, ["x", "y"], [], 2))
    bad = Matrix.identity(fld, reg.dim)
    bad.a[0, 0] = fld.add(bad.a[0, 0], fld.one())
    assert not commutes(reg, reg, bad)
    with pytest.raises(ModuleError, match="commute"):
        ModuleMap(reg, reg, bad).check_linear()


@given(CASES)
@settings(deadline=None, derandomize=True)
def test_kernel_and_quotient_actions(case):
    m, n, rng = pair(case)
    fld = m.algebra.field
    f = ModuleMap(m, n, random_map(m, n, rng))
    f.check_linear()
    sub, incl = kernel_module(f)
    basis = incl.matrix
    assert sub.dim == basis.cols
    if basis.cols:
        want = []
        for act in m.var_actions:
            coords, ok = basis.solve_columns(act @ basis)
            assert all(ok)
            want.append(coords)
        assert same(sub.var_actions, want)
    quot, proj = quotient_module(n, f.matrix)
    if quot is not n:
        section = proj.matrix.solve(Matrix.identity(fld, quot.dim))
        assert same(quot.var_actions, [proj.matrix @ b @ section for b in n.var_actions])


@given(CASES)
@settings(deadline=None, derandomize=True)
def test_dual_actions(case):
    m, _, _ = pair(case)
    alg, fld = m.algebra, m.algebra.field
    assert same(k_dual(m).var_actions, [a.transpose() for a in m.var_actions])
    dual = r_dual(m)
    flat, h = dual.flat, dual.flat.cols
    stack = Matrix(fld, flat.a.reshape(alg.dim, m.dim * h))
    want = []
    for x in regular_module(alg).var_actions:
        coords, ok = flat.solve_columns(Matrix(fld, (x @ stack).a.reshape(alg.dim * m.dim, h)))
        assert all(ok)
        want.append(coords)
    assert dual.module.dim == h
    if h:
        assert same(dual.module.var_actions, want)


@given(CASES)
@settings(deadline=None, derandomize=True)
def test_extension_middle(case):
    """[[A_v, psi (x_v s)|free], [0, B_v]] for each variable v."""
    left, right, rng = pair(case)
    fld = left.algebra.field
    res = resolve(right)
    free, s = res.free_positions(1), res.section()
    psi = random_matrix(fld, left.dim, len(free), rng)
    middle = extension_from_psi(left, right, psi).middle
    want = []
    for a, b, x in zip(left.var_actions, right.var_actions, res.ambient_free(0).var_actions):
        block = Matrix.zeros(fld, left.dim + right.dim, left.dim + right.dim)
        block.a[:left.dim, :left.dim] = a.a
        block.a[left.dim:, left.dim:] = b.a
        block.a[:left.dim, left.dim:] = (psi @ x.take_rows(free) @ s).a
        want.append(block)
    assert same(middle.var_actions, want)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_wrong_shaped_actions_raise(fld):
    alg = build_algebra(fld, ["x", "y"], [], 2)
    zero = Matrix.zeros(fld, 2, 2)
    for acts in ([zero, Matrix.zeros(fld, 2, 3)], [zero, Matrix.zeros(fld, 3, 3)],
                 [zero], [zero] * 3, [Matrix.zeros(fld, 3, 3)] * 2, []):
        with pytest.raises(ModuleError, match="wrong shape"):
            Module(alg, 2, acts)
    assert Module(alg, 2, [zero, zero]).var_stack.shape == (2, 2, 2)
