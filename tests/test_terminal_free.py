"""Over a non-Gorenstein ring with m^2 = 0, a module passes the windowed
totally-reflexive test exactly when it is free (window >= 1).  The search
relies on it to decide its last depth without building middles
(`reducing._terminal_is_free`).  The controls are the rings and windows
where that shortcut must stay off: a Gorenstein ring, m^2 != 0, and
window 0."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from redhom import reducing
from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.invariants import is_totally_reflexive
from redhom.linalg import GF2, GF3, Matrix, contract
from redhom.modules import Module, direct_sum, free_module, residue_field
from redhom.workspace import load_workspace

LINE3 = Path(__file__).resolve().parent.parent / "docs" / "examples" / "line3.json"

SQUARE_ZERO = [build_algebra(GF2, ["x", "y"], [], 2),
               build_algebra(GF3, ["x", "y"], [], 2),
               build_algebra(GF3, ["x", "y", "z"], [], 2)]
CUBE_ZERO = build_algebra(GF2, ["x", "y"], [], 3)


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions])


@given(st.sampled_from(range(len(SQUARE_ZERO))), st.integers(0, 2),
       st.integers(0, 10**6))
@settings(deadline=None, derandomize=True, database=None)
def test_totally_reflexive_means_free(ring, free_rank, seed):
    alg = SQUARE_ZERO[ring]
    mod = random_module(alg, 3, 3, seed)
    if free_rank:
        mod = direct_sum([free_module(alg, free_rank), mod])
    mod = in_random_basis(mod, random.Random(seed))
    for window in (1, 2, 3):
        assert reducing._terminal_is_free(alg, "gdim", window)
        assert is_totally_reflexive(mod, window).passed == mod.is_free()


@pytest.mark.parametrize("alg", SQUARE_ZERO, ids=["F2xy", "F3xy", "F3xyz"])
def test_both_verdicts_occur(alg):
    k = residue_field(alg)
    for mod, free in ((free_module(alg, 2), True), (k, False),
                      (direct_sum([free_module(alg, 1), k]), False)):
        assert mod.is_free() == free
        assert is_totally_reflexive(mod, 1).passed == free
        assert reducing._is_terminal(mod, "gdim", 1) == free


def test_gorenstein_control():
    """Over F_2[x]/x^3, R/x is totally reflexive and not free."""
    ws = load_workspace(LINE3)
    alg, rx = ws.algebra, ws.module("Rx")
    assert alg.is_gorenstein and not rx.is_free()
    for window in (0, 1, 2, 3):
        assert not reducing._terminal_is_free(alg, "gdim", window)
        assert is_totally_reflexive(rx, window).passed
        assert reducing._is_terminal(rx, "gdim", window)


def test_cube_zero_control():
    assert not CUBE_ZERO.radical_square_zero
    assert not CUBE_ZERO.is_gorenstein
    for window in (0, 1, 2, 3):
        assert not reducing._terminal_is_free(CUBE_ZERO, "gdim", window)
        assert reducing._terminal_is_free(CUBE_ZERO, "pd", window)


@pytest.mark.parametrize("alg", SQUARE_ZERO, ids=["F2xy", "F3xy", "F3xyz"])
def test_window_zero_control(alg):
    assert not reducing._terminal_is_free(alg, "gdim", 0)
    assert reducing._terminal_is_free(alg, "pd", 0)
    k = residue_field(alg)
    assert reducing._is_terminal(k, "gdim", 0) == \
        is_totally_reflexive(k, 0).passed


@pytest.mark.parametrize("alg", SQUARE_ZERO + [
    CUBE_ZERO, build_algebra(GF2, ["x"], [], 3),
    build_algebra(GF3, ["x", "y"], ["x^2", "y^2"], 3),
    build_algebra(GF2, ["x"], [], 1)])
def test_radical_square_zero_matches_products(alg):
    prod = contract(alg.field, "uab,vbc->uvac", alg.var_stack, alg.var_stack)
    assert alg.radical_square_zero == (not prod.any())
