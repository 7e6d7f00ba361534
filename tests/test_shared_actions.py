"""What a module's actions determine is kept once per algebra and actions
(`modules.shared`): resolution chains, Ext part tables, ring duals and
pushforwards.  Modules with equal actions share them and keep their own
labels; each module charges every step and transition it reads through
its own index, so refusals do not depend on what else was resolved;
shared arrays are read-only.  The counts below are pinned as
`test_shared_duals.py` pins Hom solves."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from redhom import homalg, resolution
from redhom.algebra import build_algebra
from redhom.cli import main
from redhom.corpus import random_module
from redhom.homalg import ExtTable, pushforward, r_dual
from redhom.linalg import GF2, GF3, Field, Matrix, sparse_rref
from redhom.modules import Module, free_module, residue_field, shared
from redhom.resolution import ChainResolution, ResolutionError, _residue_chain, resolve
from redhom.workspace import load_workspace

from test_read_tails import golod
from test_step_parts import WholeTable

LINE3 = str(Path(__file__).resolve().parent.parent / "docs" / "examples" / "line3.json")
PRIMES = [2, 3, 2**31 - 1, None]  # None is Q
# step 4 of k over F_2[x,y]/m^2, read off k's first steps (48 columns
# and 16 nonzeros, twice), and over F_2[x,y]/(x^2, y^2), stepped (20
# columns and 16 products, twice): see `test_resolution.TestStepCap`
STEP4 = {(): resolution.ENTRY_BYTES * (48 + 2 * 16),
         ("x^2", "y^2"): resolution.ENTRY_BYTES * (20 + 2 * 16)}


@pytest.fixture
def eliminations(monkeypatch):
    """Every transition `ExtTable` eliminates."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sparse_rref(*args, **kwargs)
    monkeypatch.setattr(homalg, "sparse_rref", counted)
    return calls


@pytest.fixture
def steps(monkeypatch):
    """Every step a chain takes for real."""
    taken, step = [], ChainResolution._step

    def counted(self, *args):
        taken.append(self)
        return step(self, *args)
    monkeypatch.setattr(ChainResolution, "_step", counted)
    return taken


def plane(relations=()):
    """F_2[x,y] modulo m^2, or modulo the relations and m^3."""
    return build_algebra(GF2, ["x", "y"], list(relations), 3 if relations else 2)


def refusal(call) -> str:
    with pytest.raises(ResolutionError) as exc:
        call()
    return str(exc.value)


def test_syzygies_read_their_parents_tables(eliminations):
    """Ext from M, syz^1 M and syz^2 M into M to index 4 eliminates only
    transitions of M's chain, once each: 5, as one M -> M table to index
    6 does (12 with part tables per root table)."""
    alg = build_algebra(GF3, ["x", "y"], [], 3)
    mod = random_module(alg, 3, 3, 41)
    sources = [mod, resolve(mod).syzygy_module(1), resolve(mod).syzygy_module(2)]
    dims = [ExtTable(src, mod).dims(4) for src in sources]
    assert len(eliminations) <= 5
    assert dims == [WholeTable(src, mod).dims(4) for src in sources]


@pytest.mark.parametrize("relations", STEP4, ids=["m^2", "x^2,y^2"])
def test_step_refusal_does_not_depend_on_sharing(monkeypatch, relations):
    """k resolved to window 6, then, one byte below step 4's charge, a
    second k reads the same chain and is refused at step 4 with the
    message a k over a fresh algebra gets: over F_2[x,y]/m^2 step 4 is
    read off k's first steps, over F_2[x,y]/(x^2, y^2) it was stepped
    for the first k."""
    alg, step4 = plane(relations), STEP4[relations]
    betti = resolve(residue_field(alg)).betti_list(6)
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", step4 - 1)
    again = residue_field(alg)
    assert resolve(again).chain is _residue_chain(alg)
    got = refusal(lambda: resolve(again).extend(6))
    assert got == refusal(lambda: resolve(residue_field(plane(relations))).extend(6))
    assert got.startswith(f"resolution step 4 would allocate {step4} bytes")
    assert got.endswith("; use a window below 4 (--window on the command line)")
    monkeypatch.undo()
    assert resolve(again).betti_list(6) == betti


def test_ext_refusal_does_not_depend_on_sharing(monkeypatch):
    """Ext(k, R) over F_2[x,y]/m^2 computed to index 6, then, under a cap
    of 10 entries, a second k's table reads transitions 0 and 1 and is
    refused at transition 2 with the message a fresh algebra gets."""
    def refused(alg, first: bool) -> str:
        k, reg = residue_field(alg), free_module(alg, 1)
        if first:
            ExtTable(residue_field(alg), reg).dims(6)
        resolve(k).extend(4)
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 10 * resolution.ENTRY_BYTES)
        table = ExtTable(k, reg)
        assert [table._rank(i) for i in range(2)] == [1, 2]
        message = refusal(lambda: table.dims(3))
        monkeypatch.undo()
        return message

    got = refused(plane(), first=True)
    assert got == refused(plane(), first=False)
    assert got.startswith(f"Ext transition 2 would allocate {20 * resolution.ENTRY_BYTES} bytes")
    assert got.endswith("; use a window below 2 (--window on the command line)")


def test_labels_are_each_modules_own():
    """On line3.json, Rx, syz^2(Rx) and push(push(Rx)) have the same
    actions and share one entry; the syzygies, duals and pushforwards of
    each are labelled after that module."""
    rx = load_workspace(LINE3).module("Rx")
    syz2 = resolve(rx).syzygy_module(2)
    pp = pushforward(pushforward(rx).forward).forward
    assert (syz2.label, pp.label) == ("syz^2(Rx)", "push(push(Rx))")
    assert shared(syz2) is shared(pp) is shared(rx)
    assert resolve(pp).chain is resolve(rx).chain
    for mod, syz in ((rx, "syz^1(Rx)"), (syz2, "syz^3(Rx)"),
                     (pp, "syz^1(push(push(Rx)))")):
        assert resolve(mod).syzygy_module(1).label == syz
        assert r_dual(mod).module.label == f"({mod.label})^"
        assert pushforward(mod).forward.label == f"push({mod.label})"
        assert pushforward(mod).sequence.left is mod


def test_shared_arrays_are_read_only():
    """Dense step matrices, dual and pushforward matrices are one object
    per actions, and writing into any of them raises."""
    alg = plane()
    one, two = resolve(residue_field(alg)), resolve(residue_field(alg))
    rx = load_workspace(LINE3).module("Rx")
    dual, push = r_dual(rx), pushforward(rx)
    arrays = [one.differential(2), one.cover_matrix(), one.section(),
              one.generator_images(1), one.syzygy_subspace(1), dual.flat,
              *dual.module.var_actions, push.sequence.inject.matrix,
              push.sequence.project.matrix, *push.forward.var_actions]
    assert two.differential(2) is one.differential(2) and two.section() is one.section()
    for mat in arrays:
        with pytest.raises(ValueError):
            mat.a[0, 0] = 1


@pytest.mark.parametrize("p", PRIMES)
def test_equal_actions_share_one_entry(p):
    """Modules whose actions are equal entry by entry share one entry,
    also over Q with each Fraction a distinct object; a module that
    differs in one entry does not."""
    fld = Field(p)
    alg = build_algebra(fld, ["x", "y"], [], 3)
    mod = random_module(alg, 2, 3, 5)

    def rebuilt(change: int) -> Module:
        acts = [np.array([Fraction(x) if p is None else x for x in a.a.flat],
                         dtype=fld.dtype).reshape(a.a.shape) for a in mod.var_actions]
        acts[0][0, 0] = fld.coerce(acts[0][0, 0] + change)
        return Module(alg, mod.dim, [Matrix(fld, a) for a in acts])

    same, other = rebuilt(0), rebuilt(1)
    if p is None:
        assert same.var_actions[0].a[0, 0] is not mod.var_actions[0].a[0, 0]
    assert shared(same) is shared(mod) and shared(other) is not shared(mod)
    assert resolve(same).chain is resolve(mod).chain
    assert r_dual(same).flat is r_dual(mod).flat
    assert free_module(alg, 2).free_rank == 2 and shared(free_module(alg, 2)) is \
        shared(free_module(alg, 2, label="F"))


@pytest.mark.parametrize("window", [10, 60])
def test_main_theorem_ext_eliminations(eliminations, capsys, window):
    """The embedding chain of Rx alternates between two modules' actions,
    so its Ext tables eliminate a few transitions at any window (24 and
    149 with a chain per module object)."""
    assert main(["--workspace", LINE3, "theorem", "main", "Rx", "cert_rx_gdim",
                 "--window", str(window)]) == 0
    assert '"ok": true' in capsys.readouterr().out
    assert len(eliminations) <= 5


def test_residue_field_and_the_algebras_k_step_once(steps):
    """k over F_2[x,y]/m^3 to window 14, then the algebra's own k: one
    chain, three real steps (six with a chain per module object)."""
    alg = build_algebra(GF2, ["x", "y"], [], 3)
    assert resolve(residue_field(alg)).betti_list(14) == golod(14)
    assert _residue_chain(alg).betti_list(14) == golod(14)
    assert len(steps) <= 3


def test_a_modules_resolution_is_a_view_of_one_chain():
    """Two k's over F_2[x,y]/m^3 get distinct resolutions that hold no
    steps of their own and read one chain; Ext from both into R leaves
    one table per chain in R's entry, k's and its rest's, and none keyed
    by a module's resolution, which would keep every module alive."""
    alg = build_algebra(GF2, ["x", "y"], [], 3)
    one, two = resolve(residue_field(alg)), resolve(residue_field(alg))
    assert one is not two and one.chain is two.chain
    assert isinstance(one.chain, ChainResolution) and not isinstance(one, ChainResolution)
    for name in ("_steps", "_betti", "_period"):
        with pytest.raises(AttributeError):
            getattr(one, name)
    target = free_module(alg, 1)
    assert homalg.ext_dims(one.module, target, 6) == homalg.ext_dims(two.module, target, 6)
    tables = shared(target)["ext"]
    assert set(tables) == {one.chain, one.chain._rest}
