"""A module the maximal ideal kills starts its chain from its identity
cover (`resolution.ChainResolution`): k, and any module whose variables
all act as zero, is its own top, so column j*d + t of its cover is e_j
for t = 0 and zero for t >= 1.  Checked against the dense cover every
other module takes (`Module.top`, `assemble_action_columns`): the same
cover and first kernel, and, from there, the same Betti numbers, steps,
tails and charges as a chain seeded with the dense cover."""

import pytest
from hypothesis import given, settings, strategies as st

from redhom import resolution
from redhom.algebra import build_algebra
from redhom.linalg import GF2, GF3, QQ, Field, sparse_kernel
from redhom.modules import Module, assemble_action_columns, residue_field, validate_module
from redhom.resolution import ChainResolution, resolve

FIELDS = [GF2, GF3, Field(2**31 - 1), QQ]
# (relations, nilpotency, largest window): m^2, m^3 and (x^2, y^2) in two
# variables
RINGS = [([], 2, 6), ([], 3, 5), (["x^2", "y^2"], 3, 6)]


def killed(alg, m):
    """k for m = "k", else the m-dimensional module with zero actions."""
    return residue_field(alg) if m == "k" else Module(alg, m, alg.field.zeros((alg.nvars, m, m)))


def dense_cover(mod):
    return assemble_action_columns(mod, mod.min_generators()).sparse_columns()


def state(chain):
    """Everything a chain has stepped, read and charged, its rest's too."""
    return (chain._betti, chain._steps, chain._entries, chain._period, chain._simple,
            chain._reads, chain._rest and state(chain._rest))


@given(st.sampled_from(FIELDS), st.sampled_from(RINGS), st.sampled_from(["k", 1, 2, 3, 4]),
       st.integers(0, 6))
@settings(deadline=None, derandomize=True, database=None)
def test_a_killed_module_starts_from_its_identity_cover(fld, ring, m, upto):
    rels, nil, most = ring
    window = min(upto, most)
    alg = build_algebra(fld, ["x", "y"], rels, nil)
    mod = killed(alg, m)
    res = resolve(mod)
    chain = res.chain
    cover = dense_cover(mod)
    assert chain._columns[0] == cover
    assert chain._steps[0] == (cover[::alg.dim], sparse_kernel(fld, cover))
    # a chain seeded with the dense cover steps, reads and charges alike
    ref = ChainResolution(mod, (cover[::alg.dim], sparse_kernel(fld, cover)))
    assert res.betti_list(window) == [ref.betti(i) for i in range(window + 1)]
    assert [chain._read(i) for i in range(window + 2)] == \
        [ref._read(i) for i in range(window + 2)]
    assert state(chain) == state(ref)


def counted(monkeypatch) -> dict:
    """Count the calls of `Module.top` and of the dense cover's product."""
    calls = {"top": 0, "assemble": 0}
    top, assemble = Module.top, resolution.assemble_action_columns

    def counted_top(self):
        calls["top"] += 1
        return top(self)

    def counted_assemble(*args):
        calls["assemble"] += 1
        return assemble(*args)

    monkeypatch.setattr(Module, "top", counted_top)
    monkeypatch.setattr(resolution, "assemble_action_columns", counted_assemble)
    return calls


@pytest.mark.parametrize("fld", FIELDS)
@pytest.mark.parametrize("ring", RINGS)
def test_resolving_k_builds_no_dense_cover(monkeypatch, fld, ring):
    rels, nil, window = ring
    alg = build_algebra(fld, ["x", "y"], rels, nil)
    calls = counted(monkeypatch)
    resolve(residue_field(alg)).betti_list(window)
    assert calls == {"top": 0, "assemble": 0}


@pytest.mark.parametrize("fld", FIELDS)
@pytest.mark.parametrize("ring", RINGS)
def test_one_nonzero_action_entry_takes_the_dense_cover(monkeypatch, fld, ring):
    rels, nil, window = ring
    alg = build_algebra(fld, ["x", "y"], rels, nil)
    acts = fld.zeros((alg.nvars, 2, 2))
    acts[0, 1, 0] = 1  # x e_0 = e_1
    mod = Module(alg, 2, acts)
    validate_module(mod)
    calls = counted(monkeypatch)
    chain = resolve(mod).chain
    assert calls == {"top": 1, "assemble": 1}
    assert chain._columns[0] == dense_cover(mod)
