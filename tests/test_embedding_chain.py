"""The main theorem walks the embedding chain once, inside
`complete_resolution`, and reads each stage from that walk.

A stage is torsionless exactly when it embeds into its free hull, so the
chain breaks at a stage exactly when `pushforward` refuses it; that
equivalence is checked against `biduality` on random modules over F_2,
F_3, F_{2^31-1} and Q, and so is what `pushforward` relies on without a
check: a nonzero module's dual has a minimal generator, since the
module maps onto k, which lies in the socle of the ring.  The failure
details of the chain conclusion are pinned with the Ext test and the
pushforward replaced, and the dual-sequence test on sequences whose
duals are known.  All randomness is seeded.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from redhom import invariants
from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import HomAlgError, biduality, pushforward, r_dual
from redhom.linalg import Field, Matrix
from redhom.modules import (Module, ModuleMap, ShortExactSequence, direct_sum,
                            kernel_module, regular_module, residue_field, split_ses)
from redhom.workspace import load_workspace

LINE3 = Path(__file__).resolve().parent.parent / "docs" / "examples" / "line3.json"
RINGS = [build_algebra(Field(p), ["x", "y"], [], nil)
         for p in (2, 3, 2**31 - 1, None) for nil in (2, 3)]
WINDOW = 6


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions])


def embeds(mod: Module) -> bool:
    """Whether `pushforward` accepts the module, whose dual, when the
    module is nonzero, has a minimal generator to embed it with."""
    assert mod.dim == 0 or r_dual(mod).module.min_generators().cols > 0
    try:
        pushforward(mod)
    except HomAlgError:
        return False
    return True


@given(st.sampled_from(range(len(RINGS))), st.sampled_from(["", "k", "R"]),
       st.integers(0, 10**6))
@settings(deadline=None, derandomize=True, database=None)
def test_pushforward_exactly_when_torsionless(ring, summand, seed):
    alg = RINGS[ring]
    mod = random_module(alg, 2, 2, seed)
    if summand:
        extra = residue_field(alg) if summand == "k" else regular_module(alg)
        mod = direct_sum([mod, extra])
    mod = in_random_basis(mod, random.Random(seed))
    assert embeds(mod) == biduality(mod).is_injective()


@pytest.mark.parametrize("alg", RINGS,
                         ids=lambda a: f"{a.field}-m{a.nilpotency}")
def test_both_outcomes_occur(alg):
    outcomes = {embeds(random_module(alg, 2, 2, seed)) for seed in range(20)}
    assert outcomes == {True, False}


@pytest.mark.parametrize("alg", RINGS,
                         ids=lambda a: f"{a.field}-m{a.nilpotency}")
def test_dual_sequence_exactness(alg):
    """Hom(-, R) is only left exact: the dual of the cover 0 -> m -> R ->
    k -> 0 fails on the right over these non-Gorenstein rings, while the
    duals of split sequences and of k's pushforward are exact."""
    k, r = residue_field(alg), regular_module(alg)
    cover = ModuleMap(r, k, Matrix.identity(alg.field, r.dim).take_rows([0]))
    _, incl = kernel_module(cover)
    assert not invariants._dual_sequence_exact(ShortExactSequence(incl, cover))
    mod = random_module(alg, 2, 2, 0)
    for ses in (split_ses(k, r), split_ses(mod, k), split_ses(r, mod),
                pushforward(k)):
        assert invariants._dual_sequence_exact(ses)


def main_report(monkeypatch, ext_fails_at=None, push_fails_at=None):
    """`theorem main` on Rx over F_2[x]/x^3, with the Ext test failing at
    one stage and the pushforward refusing one stage, by stage index."""
    ws = load_workspace(LINE3)
    windows, pushes = [], []
    real_ext = invariants.ext_vanishes_through
    real_push = invariants.pushforward

    def ext(mod, target, w):
        windows.append(w)
        if ext_fails_at and w == WINDOW - ext_fails_at:
            return False, 2
        return real_ext(mod, target, w)

    def push(mod):
        pushes.append(mod)
        if len(pushes) - 1 == push_fails_at:
            raise HomAlgError("refused")
        return real_push(mod)

    monkeypatch.setattr(invariants, "ext_vanishes_through", ext)
    monkeypatch.setattr(invariants, "pushforward", push)
    rep = invariants.check_main_theorem(ws.module("Rx"),
                                        ws.certificate("cert_rx_gdim"), WINDOW)
    return rep, windows


def test_main_theorem_holds_with_one_ext_test_per_window(monkeypatch):
    rep, windows = main_report(monkeypatch)
    assert rep.ok
    assert [c["name"] for c in rep.conclusions] == [
        "torsionless", "embedding_chain", "dual_sequences_exact",
        "complete_resolution"]
    # the hypothesis covers stage 0; stages 1..5 test shrinking windows
    assert windows == [6, 5, 4, 3, 2, 1]


@pytest.mark.parametrize("stage", [1, 2, 5])
def test_ext_failure_detail(monkeypatch, stage):
    rep, _ = main_report(monkeypatch, ext_fails_at=stage)
    assert not rep.ok
    assert rep.conclusions[1:] == [{
        "name": "embedding_chain", "ok": False,
        "detail": f"stage {stage}: Ext^2 nonzero on window {WINDOW - stage}"}]


@pytest.mark.parametrize("stage", [0, 1, 3, 5])
def test_not_torsionless_detail(monkeypatch, stage):
    # a stage that does not embed is reported before its Ext test
    rep, _ = main_report(monkeypatch, ext_fails_at=stage or None,
                         push_fails_at=stage)
    assert not rep.ok
    assert rep.conclusions[0]["name"] == "torsionless"
    assert rep.conclusions[1:] == [{
        "name": "embedding_chain", "ok": False,
        "detail": f"stage {stage} is not torsionless"}]


@pytest.mark.parametrize("window", [0, -1])
def test_window_below_1_is_refused_before_resolving(monkeypatch, window):
    """The splice reads the first free hull, so a nonzero module's complete
    resolution refuses a window below 1 with a ValueError naming it, and
    `check_main_theorem`, whose hypotheses hold for Rx on `line3.json`
    there, raises it too; nothing is resolved or embedded first."""
    ws = load_workspace(LINE3)
    rx = ws.module("Rx")
    message = f"window must be at least 1 for a complete resolution, got {window}"
    with pytest.raises(ValueError, match=message):
        invariants.check_main_theorem(rx, ws.certificate("cert_rx_gdim"), window)

    def refuse(*args):
        raise AssertionError("resolved or embedded before the window check")

    monkeypatch.setattr(invariants, "resolve", refuse)
    monkeypatch.setattr(invariants, "pushforward", refuse)
    with pytest.raises(ValueError, match=message):
        invariants.complete_resolution(rx, window)
