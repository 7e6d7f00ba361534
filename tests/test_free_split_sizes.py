"""`split_free_summands` refuses by sizes before it builds Hom(M, R).

A free summand R^c of M adds c·d to dim M, c·(d-1) to dim mM and
c·dim soc R to dim soc M.  A module below any of these counts for c = 1
has free rank 0, and `split_free_summands` returns it unsplit without
building the Hom system.  The property test checks, on R^c + X in a
random basis, that the top rows of Hom(M, R) have rank 0 whenever the
counts refuse, and that the split equals the full path's written below.
It also checks that the witness is a module isomorphism.  The counting
tests pin which calls still build the system.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redhom import modules, reducing
from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.linalg import Field, GF2, Matrix
from redhom.modules import (
    FreeSplit,
    Module,
    ModuleMap,
    assemble_action_columns,
    direct_sum,
    free_module,
    hom_space_matrix,
    kernel_module,
    regular_module,
    residue_field,
    split_free_summands,
)

from test_module_ranks import radical_span, socle_span

# Q on m^3 is left out: its Hom systems of R^2 + X, eliminated in
# fractions, take seconds each.
RINGS = [build_algebra(Field(p), ["x", "y"], [], nil)
         for p in (2, 3, 2**31 - 1, None) for nil in (2, 3) if p or nil == 2]
RINGS.append(build_algebra(GF2, ["x"], [], 3))  # Gorenstein F_2[x]/x^3


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions])


def refused(mod: Module) -> bool:
    alg = mod.algebra
    return (mod.dim < alg.dim or radical_span(mod).cols < alg.dim - 1
            or socle_span(mod).cols < alg.socle_dim)


def full_split(mod: Module) -> FreeSplit:
    """The split with the Hom system always built: the reference."""
    alg, fld, d = mod.algebra, mod.algebra.field, mod.algebra.dim
    hom = hom_space_matrix(mod, regular_module(alg))
    _, piv = hom.take_rows(range(mod.dim)).rref()
    rank = len(piv)
    if rank == 0:
        return FreeSplit(0, mod, ModuleMap.identity(mod))
    phi = Matrix(fld, hom.a[:, list(piv)].T.reshape(rank * d, mod.dim))
    units = Matrix.zeros(fld, rank * d, rank)
    units.a[np.arange(rank) * d, np.arange(rank)] = fld.one()
    sec = assemble_action_columns(mod, phi.solve(units))
    rem, incl = kernel_module(ModuleMap(mod, free_module(alg, rank), phi))
    total = direct_sum([free_module(alg, rank), rem])
    return FreeSplit(rank, rem, ModuleMap(total, mod, Matrix.hstack([sec, incl.matrix])))


@given(st.sampled_from(range(len(RINGS))), st.integers(0, 2),
       st.integers(0, 10**6))
@settings(deadline=None, derandomize=True, database=None)
def test_refused_splits_match_the_full_path(ring, free_rank, seed):
    alg = RINGS[ring]
    mod = random_module(alg, 2, 2, seed)
    if free_rank:
        mod = direct_sum([free_module(alg, free_rank), mod])
    mod = in_random_basis(mod, random.Random(seed))
    if refused(mod):
        hom = hom_space_matrix(mod, regular_module(alg))
        assert hom.take_rows(range(mod.dim)).rank() == 0
    got, want = split_free_summands(mod), full_split(mod)
    assert got.rank == want.rank >= free_rank
    assert got.remainder.dim == want.remainder.dim
    assert all(g == w for g, w in zip(got.remainder.var_actions,
                                      want.remainder.var_actions))
    assert got.iso.matrix == want.iso.matrix
    # the witness is a module isomorphism (M = im(section) + ker phi),
    # which split_free_summands does not re-check
    got.iso.check_linear()
    assert got.iso.is_isomorphism()


@pytest.mark.parametrize("alg", RINGS,
                         ids=lambda a: f"{a.field}-{a.nvars}-m{a.nilpotency}")
def test_both_outcomes_occur(alg):
    outcomes = {refused(random_module(alg, 2, 2, seed)) for seed in range(20)}
    outcomes.add(refused(direct_sum([free_module(alg, 1), residue_field(alg)])))
    assert outcomes == {True, False}


@pytest.fixture
def hom_to_r(monkeypatch):
    """Source dimensions of the `modules.hom_space_matrix` calls whose
    target is the regular module."""
    seen = []
    real = modules.hom_space_matrix

    def counting(src, tgt):
        if tgt.free_rank == 1:
            seen.append(src.dim)
        return real(src, tgt)

    monkeypatch.setattr(modules, "hom_space_matrix", counting)
    return seen


PLANE = build_algebra(GF2, ["x", "y"], [], 2)


@pytest.mark.parametrize("seed", [20, 26, 33])  # the search-pool cokernels
@pytest.mark.parametrize("target", ["pd", "gdim"])
def test_pool_cokernel_searches_build_no_hom_to_r(hom_to_r, seed, target):
    result = reducing.search(random_module(PLANE, 2, 2, seed), target,
                             reducing.SearchConfig(max_r=2, max_a=8, max_b=8,
                                                   max_n=2, budget=200))
    assert result.exhausted and result.candidates == 200
    assert hom_to_r == []


def test_free_plus_k_builds_one(hom_to_r):
    split = split_free_summands(direct_sum([free_module(PLANE, 1),
                                            residue_field(PLANE)]))
    assert split.rank == 1 and split.remainder.dim == 1
    assert hom_to_r == [4]
