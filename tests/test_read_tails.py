"""Resolution tails read instead of stepped (`resolution.ChainResolution`):
a periodic tail, once a step's kernel layout repeats, and a split one,
once m kills some minimal generators of a syzygy (a semisimple tail when
it kills them all).  Every read is checked against a chain of
the same module forced to step every index, and so are the Ext tables
that read the same tails."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import ExtTable
from redhom.linalg import GF2, GF3, QQ, Field
from redhom.modules import Module, free_module, residue_field
from redhom.resolution import ChainResolution, ModuleResolution, _residue_chain, resolve
from redhom.workspace import load_workspace

from test_sparse_ext import in_random_basis

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
FIELDS = [GF2, GF3, Field(2**31 - 1), QQ]
# (variables, relations, nilpotency, window, whether to write the module
# in a random basis): hypersurfaces k[x]/x^n, whose tails are periodic,
# the complete intersection k[x,y]/(x^2, y^2), square-zero rings, where
# m kills the first syzygy, and rings with m^3 = 0, where m kills some
# minimal generators of a syzygy and the others go on
RINGS = [(["x"], [], 3, 12, False), (["x"], [], 4, 12, False),
         (["x"], [], 5, 12, True), (["x", "y"], ["x^2", "y^2"], 3, 6, False),
         (["x", "y"], [], 2, 5, True), (["x", "y", "z"], [], 2, 3, True),
         (["x", "y"], [], 3, 5, True), (["x", "y", "z"], [], 3, 3, True)]


def stepped(mod: Module, upto: int) -> Module:
    """A copy of mod whose resolution took every step through `upto` and
    reads no tail."""
    copy = Module(mod.algebra, mod.dim, list(mod.var_actions))
    res = ChainResolution(copy)
    while len(res._steps) <= upto and res._steps[-1][1][0]:
        res._step()
    res._period = res._simple = None
    copy._resolution = ModuleResolution(copy, res)
    return copy


def assert_reads_match_steps(mod: Module, window: int) -> None:
    alg = mod.algebra
    ref = stepped(mod, window + 1)
    res, want = resolve(mod), resolve(ref)
    assert res.betti_list(window) == want.betti_list(window)
    assert res.terminated_at(window) == want.terminated_at(window)
    # each read step is charged what its step was charged when taken
    taken = list(zip(want.chain._betti, want.chain._entries))[:window + 1]
    assert [res.chain._read(i) for i in range(len(taken))] == taken
    for target in (mod, residue_field(alg), free_module(alg, 1)):
        assert ExtTable(mod, target).dims(window) == \
            ExtTable(ref, target).dims(window)
    # the first syzygy reads its parent's tail, shifted by one
    syz, want_syz = res.syzygy_module(1), want.syzygy_module(1)
    assert ExtTable(syz, mod).dims(window - 1) == \
        ExtTable(want_syz, mod).dims(window - 1)
    if (per := res.chain._period) is not None:  # the steps read, not stepped
        for i in range(per[0], window + 1):
            [(part, j, m)] = res.chain.parts(i) or [(res.chain, i, 1)]
            assert (part, m) == (res.chain, 1) and j <= per[0] + per[1] - 1 < len(res.chain._steps)
            assert res.generators(i) == want.generators(i)
            assert res.syzygy_layout(i) == want.syzygy_layout(i)


@given(st.sampled_from(FIELDS), st.sampled_from(RINGS), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_random_modules(fld, ring, seed):
    names, rels, nil, window, basis = ring
    alg = build_algebra(fld, names, rels, nil)
    mod = random_module(alg, 2, 3, seed)
    if basis and mod.free_rank is None:
        mod = in_random_basis(mod, random.Random(seed))
    assert_reads_match_steps(mod, window)


def test_line3_modules():
    """Over F_2[x]/x^3, Rx and k repeat with period 2 from step 1, and
    Rx2 = R/(x^2) reads k's steps from index 1: syz^1 = (x^2) = k."""
    ws = load_workspace(EXAMPLES / "line3.json")
    for name, period, simple, taken in [("Rx", (1, 2), None, 3),
                                        ("k", (1, 2), None, 3),
                                        ("Rx2", None, (1, 1), 2)]:
        mod = ws.module(name)
        assert_reads_match_steps(mod, 12)
        res = resolve(mod)
        assert (res.chain._period, res.chain._simple) == (period, simple)
        assert len(res.chain._steps) == taken


def test_square_zero_reads_off_k():
    """Over a ring with m^2 = 0, m kills syz^1: only steps 0 and 1 are
    taken, and beta_{1+t} = beta_1 * beta_t(k) = beta_1 * e^t."""
    alg = build_algebra(GF3, ["x", "y", "z"], [], 2)
    mod = in_random_basis(random_module(alg, 3, 3, 7), random.Random(7))
    res = resolve(mod)
    b1 = res.betti(1)
    assert res.betti_list(8)[1:] == [b1 * 3**t for t in range(8)]
    assert res.chain._simple == (1, b1) and len(res.chain._steps) == 2
    assert res.syzygy_module(3).label.startswith("syz^3(")
    assert len(res.chain._steps) == 3  # the syzygy module stepped for real


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_split_tails_match_steps(fld):
    """Over rings with m^3 = 0, m kills some minimal generators of a
    syzygy and not the others: the step is split, and every read past it
    matches a chain forced to step."""
    splits = 0
    for names, rels, nil, window, _ in RINGS[-2:]:
        alg = build_algebra(fld, names, rels, nil)
        mods = [residue_field(alg)] + [random_module(alg, 2, 3, seed) for seed in range(5)]
        for seed, mod in enumerate(mods):
            if mod.free_rank is None:
                mod = in_random_basis(mod, random.Random(seed))
            assert_reads_match_steps(mod, window)
            splits += resolve(mod).chain._rest is not None
    assert splits >= 4


def golod(window: int) -> list[int]:
    """Betti numbers of k over k[x,y]/m^3, a Golod ring: P(t) =
    (1 + t)^2 / (1 - 4t^2 - 3t^3)."""
    betti = [1, 2, 5]
    while len(betti) <= window:
        betti.append(4 * betti[-2] + 3 * betti[-3])
    return betti[:window + 1]


def test_residue_field_over_m3_splits_at_step_2(monkeypatch):
    """k over F_2[x,y]/m^3: syz^2 has 5 minimal generators and m kills 4,
    so step 2 + t is the rest's step t and 4 copies of k's.  The real
    steps are steps 1 and 2 of k's chain and step 1 of its rest, at any
    window: the algebra's own k, whose steps the copies read, has the same
    actions, so it reads the same chain."""
    taken, step = [], ChainResolution._step

    def counted(self, *args):
        taken.append(self)
        return step(self, *args)
    monkeypatch.setattr(ChainResolution, "_step", counted)
    counts = []
    for window in (7, 14):
        alg = build_algebra(GF2, ["x", "y"], [], 3)
        res, taken[:] = resolve(residue_field(alg)), []
        assert res.betti_list(window) == golod(window)
        counts.append(len(taken))
        assert res.chain._simple == (2, 4) and len(res.chain._steps) == 3
        k = _residue_chain(alg)
        for t in range(1, window - 1):
            assert res.chain.parts(2 + t) == [(res.chain._rest, t, 1), (k, t, 4)]
    assert counts[0] == counts[1] <= 3  # 6 with a chain per module object
    monkeypatch.undo()
    want = resolve(stepped(residue_field(alg), 7))
    for i in range(8):  # past the split, the data accessors step for real
        assert res.generators(i) == want.generators(i)
        assert i == 0 or res.syzygy_layout(i) == want.syzygy_layout(i)
