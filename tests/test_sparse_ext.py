"""Ext transitions built as sparse columns (`ExtTable.transition_columns`)
pinned against the dense product they replace, written out below as
`dense_transition`; the rank `ExtTable._rank` reads off `sparse_rref`
against `Matrix.rank`; the step cap on oversized transitions and on
the one dense matrix first Ext builds; and no transition past the end of
a finished resolution."""

import json
import random

import pytest

from redhom import cli, resolution
from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import Ext1Data, ExtTable, canonical_module, ext_dims
from redhom.linalg import GF2, GF3, QQ, Field, Matrix, contract
from redhom.modules import (Module, free_module, from_presentation,
                            residue_field, zero_module)
from redhom.resolution import resolve

FIELDS = [GF2, GF3, Field(2**31 - 1), QQ]
RINGS = {"xy/m2": 2, "xy/m3": 3}


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions])


def targets(alg) -> dict[str, Module]:
    return {"R": free_module(alg, 1), "R^2": free_module(alg, 2),
            "k": residue_field(alg),
            "w": in_random_basis(canonical_module(alg), random.Random(5)),
            "R/(x)": from_presentation(alg, 1, [["x"]])}


def dense_transition(table: ExtTable, i: int) -> Matrix:
    """The dense builder's product: coeff[j, t, s], coordinate t of
    generator s's image in block j, against the target's actions."""
    fld, d, dn = table.source.algebra.field, table.source.algebra.dim, table.target.dim
    b_src, b_tgt = table.res.betti(i), table.res.betti(i + 1)
    coeff = table.res.generator_images(i + 1).a.reshape(b_src, d, b_tgt)
    out = contract(fld, "jts,tab->sajb", coeff, table.target.action_stack())
    return Matrix(fld, out.reshape(b_tgt * dn, b_src * dn))


def same(got: Matrix, want: Matrix) -> bool:
    return got.a.dtype == want.a.dtype and got == want


@pytest.mark.parametrize("f", FIELDS, ids=str)
@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("target", ["R", "R^2", "k", "w", "R/(x)"])
def test_sparse_transition_equals_dense(f, ring, target):
    alg = build_algebra(f, ["x", "y"], [], RINGS[ring])
    for src in (residue_field(alg), from_presentation(alg, 1, [["x", "y^2"]])):
        table = ExtTable(src, targets(alg)[target])
        for i in range(4):
            cols = table.transition_columns(i)
            want = dense_transition(table, i)
            assert len(cols) == want.cols
            assert all(x and f.coerce(x) == x for col in cols for x in col.values())
            assert same(Matrix.from_sparse(f, want.rows, cols), want)
            assert table._rank(i) == want.rank()


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_free_source_has_empty_transitions(f):
    """beta_1 = 0 for a free source: the transitions have no rows, then
    no columns either, and Ext vanishes above 0."""
    alg = build_algebra(f, ["x", "y"], [], 2)
    for name, tgt in targets(alg).items():
        table = ExtTable(free_module(alg, 2), tgt)
        for i in range(3):
            want = dense_transition(table, i)
            assert want.rows == 0 and want.cols == (2 * tgt.dim if i == 0 else 0)
            assert same(Matrix.from_sparse(f, want.rows, table.transition_columns(i)), want)
            assert table._rank(i) == 0
        assert table.dims(3) == [2 * tgt.dim, 0, 0, 0], name


def test_no_transition_past_the_end(monkeypatch):
    """The resolution of a free source ends at index 1, so Ext^i is read
    as 0 from there on, with no transition built or charged."""
    alg = build_algebra(GF2, ["x", "y"], [], 2)

    def unbuilt(self, i, *args):
        raise AssertionError(f"transition {i} was built")
    for name, tgt in targets(alg).items():
        table = ExtTable(free_module(alg, 2), tgt)
        assert table.res.terminated_at(3) == 1
        with monkeypatch.context() as m:
            m.setattr(ExtTable, "transition_columns", unbuilt)
            m.setattr(ExtTable, "_charge", unbuilt)
            assert [table.dim(i) for i in range(1, 1000)] == [0] * 999, name
        assert table.dims(2) == [2 * tgt.dim, 0, 0], name


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_zero_module(f):
    alg = build_algebra(f, ["x", "y"], [], 2)
    k, zero = residue_field(alg), zero_module(alg)
    for src, tgt in ((k, zero), (zero, k), (zero, zero)):
        table = ExtTable(src, tgt)
        for i in range(3):
            cols = table.transition_columns(i)
            assert not any(cols)
            want = dense_transition(table, i)
            assert same(Matrix.from_sparse(f, want.rows, cols), want)
            assert table._rank(i) == 0
        assert ext_dims(src, tgt, 3) == [0, 0, 0, 0]


def test_ext_k_R_closed_form():
    """Ext^i(k, R) over F_2[x,y]/m^2: 2 for i = 0, then 3 * 2^(i-1)."""
    alg = build_algebra(GF2, ["x", "y"], [], 2)
    assert ext_dims(residue_field(alg), free_module(alg, 1), 12) == \
        [2] + [3 * 2**(i - 1) for i in range(1, 13)]


def test_oversized_transition_is_refused(monkeypatch):
    """k over F_2[x,y]/m^2 into R: transition i is charged 3 * 2^i columns
    and 2^(i+1) entries, so a cap of 10 admits transitions 0 and 1 and
    refuses 2 before it is built."""
    alg = build_algebra(GF2, ["x", "y"], [], 2)
    k = residue_field(alg)
    resolve(k).extend(4)
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 10 * resolution.ENTRY_BYTES)
    table = ExtTable(k, free_module(alg, 1))
    assert [table._rank(i) for i in range(2)] == [1, 2]
    with pytest.raises(resolution.ResolutionError) as exc:
        table.dims(3)
    assert str(exc.value).startswith(
        f"Ext transition 2 would allocate {20 * resolution.ENTRY_BYTES} bytes")
    assert "window below 2 (--window" in str(exc.value)


def fill_in_module():
    """A module over F_3[x,y,z]/(x^2, y^2, z^2) whose resolution has no
    tail through step 3 (m kills no minimal generator of its first three
    syzygies) and whose Ext transition 2 into itself predicts 502 entries
    and fills in to 504 as it is eliminated."""
    alg = build_algebra(GF3, ["x", "y", "z"], ["x^2", "y^2", "z^2"], 4)
    mod = in_random_basis(random_module(alg, 3, 2, 12), random.Random(12))
    resolve(mod).extend(3)
    assert resolve(mod).chain._simple is resolve(mod).chain._period is None
    return mod


def test_fill_in_is_refused_as_it_grows(monkeypatch):
    """Transition 2 of `fill_in_module` into itself is built, not read."""
    mod = fill_in_module()
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 502 * resolution.ENTRY_BYTES)
    table = ExtTable(mod, mod)
    table.transition_columns(2)  # passes the check before it is built
    with pytest.raises(resolution.ResolutionError, match="Ext transition 2"):
        table._rank(2)
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 504 * resolution.ENTRY_BYTES)
    assert table._rank(2) == dense_transition(table, 2).rank()


def test_fill_in_of_a_part_names_the_callers_transition(monkeypatch):
    """Ext from syz^1 reads its transition 1 off the parent's transition
    2, whose elimination fills in past the cap: the refusal names
    transition 1 and a window below 1, with the whole table's size."""
    mod = fill_in_module()
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 502 * resolution.ENTRY_BYTES)
    syz = resolve(mod).syzygy_module(1)
    with pytest.raises(resolution.ResolutionError) as exc:
        ExtTable(syz, mod)._rank(1)
    assert str(exc.value).startswith(
        f"Ext transition 1 would allocate {504 * resolution.ENTRY_BYTES} bytes "
        "(a 42x28 sparse matrix and its elimination, 504 entries)")
    assert "use a window below 1 (--window" in str(exc.value)


def test_dense_transition_is_refused_before_it_is_built(monkeypatch):
    """The one dense matrix of `Ext1Data(k, R^6)` over F_2[x,y]/m^2 is its
    class basis: beta_1 * dim R^6 = 36 rows and one column per pivot, the
    rank of transition 0 (6) plus dim Ext^1 (18), at 8 bytes in int64
    (`field.wide`).  With the sparse entries charged nothing, a cap of
    that size builds it, and a cap one byte lower refuses it before
    `Matrix.from_sparse` runs."""
    alg = build_algebra(GF2, ["x", "y"], [], 2)
    k, target = residue_field(alg), free_module(alg, 6)
    table = ExtTable(k, target)
    rows, cols = resolve(k).betti(1) * target.dim, table._rank(0) + table.dim(1)
    size = rows * cols * GF2.wide.itemsize
    monkeypatch.setattr(resolution, "ENTRY_BYTES", 0)
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", size)
    assert Ext1Data(k, target)._class_basis.a.shape == (rows, cols) == (36, 24)
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", size - 1)

    def unbuilt(field, rows, columns):
        raise AssertionError("a dense matrix was built")
    monkeypatch.setattr(Matrix, "from_sparse", staticmethod(unbuilt))
    with pytest.raises(resolution.ResolutionError) as exc:
        Ext1Data(k, target)
    assert str(exc.value) == (
        f"Ext^1 class basis would allocate {size} bytes as a dense {rows}x{cols} "
        f"matrix, over MAX_STEP_BYTES = {size - 1}")


def test_cli_refuses_an_oversized_table(tmp_path, capsys, monkeypatch):
    """`ext k R40`: each resolution step of k to window 3 holds at most 80
    entries, but transition 1 into R^40 holds 400."""
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({
        "version": "redhom-workspace/1",
        "algebra": {"field": "Fp", "p": 2, "vars": ["x", "y"], "nilpotency": 2,
                    "relations": []},
        "modules": {"k": {"kind": "simple"}, "R40": {"kind": "free", "rank": 40}}}))
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 300 * resolution.ENTRY_BYTES)
    code = cli.main(["--workspace", str(path), "ext", "k", "R40", "--window", "3"])
    out, err = capsys.readouterr()
    assert code == 3
    message = json.loads(out)["error"]["message"]
    assert message.startswith("Ext transition 1 would allocate")
    assert "--window" in message
    assert err.startswith("internal error: ResolutionError")
