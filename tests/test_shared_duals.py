"""Ring duals and pushforwards are built once per module actions, in the
algebra's table (`modules.shared`), and free modules are one object per
(algebra, rank, label).

Every shared result is pinned against the same construction on a fresh
copy of the module (same actions, no free rank, nothing cached), on F_2,
F_3, F_{2^31-1} and Q; shared arrays are read-only; and the main
theorem's Hom solves are counted.  All randomness is seeded.
"""

import random
from pathlib import Path

import pytest

import redhom.homalg as homalg
from redhom.algebra import build_algebra
from redhom.cli import main
from redhom.corpus import random_module, run_corpus
from redhom.homalg import HomAlgError, biduality, pushforward, r_dual
from redhom.linalg import Field, Matrix
from redhom.modules import Module, free_module, regular_module
from redhom.resolution import resolve
from redhom.workspace import load_workspace

PRIMES = [2, 3, 2**31 - 1, None]  # None is Q
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
LINE3 = str(EXAMPLES / "line3.json")


def same(got: Matrix, want: Matrix) -> bool:
    return got.a.dtype == want.a.dtype and got == want


def fresh_copy(mod: Module) -> Module:
    """A new module with copies of the actions and no free rank."""
    return Module(mod.algebra, mod.dim, [Matrix(a.field, a.a.copy())
                                         for a in mod.var_actions],
                  label=mod.label)


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions],
                  label=mod.label)


def modules_over(p):
    """Random modules in a random basis and free modules of rank 1-3, over
    a Gorenstein ring (every module embeds) and one that is not."""
    rng = random.Random(29)
    out = []
    for names, nil in ((["x"], 3), (["x", "y"], 2)):
        alg = build_algebra(Field(p), names, [], nil)
        out += [in_random_basis(random_module(alg, 2, 2, seed), rng)
                for seed in range(4)]
        out += [free_module(alg, g) for g in (1, 2, 3)]
    return out


def example_modules():
    return [ws.module(name)
            for ws in map(load_workspace, sorted(EXAMPLES.glob("*.json")))
            for name in sorted(ws.modules)]


def push_or_fault(mod: Module):
    try:
        return pushforward(mod)
    except HomAlgError as exc:
        return str(exc)


def assert_same_as_fresh(mod: Module) -> None:
    # touch the caches first, as a chain would, so the shared results
    # compared below are the ones later callers read
    biduality(mod)
    resolve(mod)
    got, want = r_dual(mod), r_dual(fresh_copy(mod))
    assert same(got.flat, want.flat)
    assert got.module.dim == want.module.dim
    assert all(same(g, w) for g, w in zip(got.module.var_actions,
                                          want.module.var_actions))
    got, want = push_or_fault(mod), push_or_fault(fresh_copy(mod))
    if isinstance(want, str):
        assert got == want
        return
    for g, w in ((got.sequence.inject, want.sequence.inject),
                 (got.sequence.project, want.sequence.project)):
        assert same(g.matrix, w.matrix)
    assert got.forward.dim == want.forward.dim
    assert all(same(g, w) for g, w in zip(got.forward.var_actions,
                                          want.forward.var_actions))


@pytest.mark.parametrize("p", PRIMES)
def test_shared_results_equal_fresh_copies(p):
    for mod in modules_over(p):
        assert_same_as_fresh(mod)


def test_example_modules_equal_fresh_copies():
    for mod in example_modules():
        assert_same_as_fresh(mod)


@pytest.mark.parametrize("p", PRIMES)
def test_one_object_per_module(p):
    alg = build_algebra(Field(p), ["x", "y"], [], 2)
    other = build_algebra(Field(p), ["x", "y"], [], 2)
    mod = random_module(alg, 2, 2, seed=3)
    # the matrices are shared by every module with these actions
    assert r_dual(mod).flat is r_dual(mod).flat is r_dual(fresh_copy(mod)).flat
    assert r_dual(mod).module.var_stack is r_dual(fresh_copy(mod)).module.var_stack
    push, again = pushforward(mod), pushforward(fresh_copy(mod))
    assert push.sequence.inject.matrix is again.sequence.inject.matrix
    assert push.sequence.project.matrix is again.sequence.project.matrix
    assert free_module(alg, 2) is free_module(alg, 2)
    assert regular_module(alg) is free_module(alg, 1)
    assert resolve(mod).ambient_free(0) is free_module(alg, resolve(mod).betti(0))
    assert free_module(alg, 2, label="F") is free_module(alg, 2, label="F")
    assert free_module(alg, 2, label="F") is not free_module(alg, 2)
    assert free_module(alg, 1) is not free_module(other, 1)
    assert r_dual(free_module(alg, 2)).module.algebra is alg


@pytest.mark.parametrize("p", PRIMES)
def test_shared_dual_is_read_only(p):
    for mod in modules_over(p):
        dual = r_dual(mod)
        if dual.flat.cols == 0:
            continue
        with pytest.raises(ValueError):
            dual.flat.a[0, 0] = 1
        for act in dual.module.var_actions:
            with pytest.raises(ValueError):
                act.a[0, 0] = 1


@pytest.fixture
def hom_solves(monkeypatch):
    """Calls of `hom_space_matrix` made through `redhom.homalg`."""
    calls = []
    inner = homalg.hom_space_matrix

    def counted(src, tgt):
        calls.append((src.dim, tgt.dim))
        return inner(src, tgt)

    monkeypatch.setattr(homalg, "hom_space_matrix", counted)
    return calls


def test_main_theorem_hom_solves(hom_solves, capsys):
    assert main(["--workspace", LINE3, "theorem", "main", "Rx",
                 "cert_rx_gdim"]) == 0
    assert '"ok": true' in capsys.readouterr().out
    # 93 with a dual per call, 22 with two walks, 13 with a dual per object
    assert len(hom_solves) <= 3


def test_gorenstein_fixture_hom_solves(hom_solves):
    assert run_corpus("line3-gorenstein")["all_ok"]
    assert len(hom_solves) <= 5  # 57 with a dual per call, 20 per object
