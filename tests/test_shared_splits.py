"""Free splits are peeled once per module actions, in the algebra's table
(`modules.shared`), and `power_module` returns one object per (module, a).

Two module objects with equal actions share the split's rank, remainder
and read-only witness matrix, while each gets a witness onto itself; the
split equals one computed on a fresh algebra, over F_2, F_3, F_{2^31-1}
and Q.  Powers are read-only direct sums kept on their module, and
searches and verification that share them give the same results as fresh
objects.  All randomness is seeded or derandomized.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from redhom import modules, resolution
from redhom.algebra import build_algebra
from redhom.corpus import random_module, run_corpus
from redhom.linalg import Field, GF2, Matrix
from redhom.modules import (
    Module,
    ModuleError,
    direct_sum,
    free_module,
    power_module,
    residue_field,
    shared,
    split_free_summands,
)
from redhom.reducing import SearchConfig, search, sequence_to_dict, verify
from test_sparse_ext import in_random_basis

FINITE = [(p, nil) for p in (2, 3, 2**31 - 1) for nil in (2, 3)]


def ring(p, nil):
    return build_algebra(Field(p), ["x", "y"], [], nil)


def copy_onto(alg, mod: Module) -> Module:
    """A new module over `alg` with copies of the actions of `mod`."""
    return Module(alg, mod.dim, [Matrix(alg.field, a.a.copy())
                                 for a in mod.var_actions])


def assert_shared_split(mod: Module, fresh_alg) -> None:
    twin = copy_onto(mod.algebra, mod)
    one, two = split_free_summands(mod), split_free_summands(twin)
    assert one.rank == two.rank
    assert one.iso.target is mod and two.iso.target is twin
    if one.rank == 0:
        assert one.remainder is mod and two.remainder is twin
        return
    assert one.remainder is two.remainder
    assert one.iso.source is two.iso.source
    assert one.iso.matrix == two.iso.matrix
    assert not one.iso.matrix.a.flags.writeable
    again = split_free_summands(mod)
    assert again is not one and again.remainder is one.remainder
    for split in (one, two):
        assert split.iso.is_isomorphism()
        split.iso.check_linear()
    fresh = split_free_summands(copy_onto(fresh_alg, mod))
    assert fresh.remainder is not one.remainder
    assert fresh.rank == one.rank
    assert fresh.remainder.dim == one.remainder.dim
    assert all(f == o for f, o in zip(fresh.remainder.var_actions,
                                      one.remainder.var_actions))
    assert fresh.iso.matrix == one.iso.matrix


@given(st.sampled_from(FINITE), st.integers(0, 2), st.integers(0, 10**6))
@settings(deadline=None, derandomize=True, database=None)
def test_equal_actions_share_one_split(field_ring, free_rank, seed):
    alg = ring(*field_ring)
    mod = random_module(alg, 2, 2, seed)
    if free_rank:
        mod = direct_sum([free_module(alg, free_rank), mod])
    assert_shared_split(in_random_basis(mod, random.Random(seed)),
                        ring(*field_ring))


# Q stays small: Hom systems of larger modules in a random basis are
# eliminated in fractions for seconds.
@pytest.mark.parametrize("nil, seed", [(2, 0), (2, 2), (3, None)])
def test_equal_actions_share_one_split_over_q(nil, seed):
    alg = ring(None, nil)
    rest = residue_field(alg) if seed is None else random_module(alg, 2, 2, seed)
    mod = in_random_basis(direct_sum([free_module(alg, 1), rest]),
                          random.Random(7))
    assert_shared_split(mod, ring(None, nil))


@pytest.fixture
def hom_systems(monkeypatch):
    """Source dimensions of the `modules.hom_space_matrix` calls."""
    seen = []
    real = modules.hom_space_matrix

    def counting(src, tgt):
        seen.append(src.dim)
        return real(src, tgt)

    monkeypatch.setattr(modules, "hom_space_matrix", counting)
    return seen


def test_equal_actions_build_one_hom_system(hom_systems):
    alg = ring(2, 2)
    mod = direct_sum([free_module(alg, 1), residue_field(alg)])
    for m in (mod, copy_onto(alg, mod), copy_onto(alg, mod)):
        assert split_free_summands(m).rank == 1
    assert hom_systems == [4]


def test_tail_fixture_builds_two_hom_systems(hom_systems):
    assert run_corpus("plane-structure-instances")["all_ok"]
    assert len(hom_systems) == 2


def test_a_refused_hom_system_is_refused_on_every_call(monkeypatch):
    alg = ring(2, 2)
    mod = direct_sum([free_module(alg, 1), residue_field(alg)])
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 100)
    for _ in range(2):
        with pytest.raises(resolution.ResolutionError, match="Hom system"):
            split_free_summands(mod)
    assert "peel" not in shared(mod)


# -- powers ---------------------------------------------------------------

PLANE = build_algebra(GF2, ["x", "y"], [], 2)


def test_power_is_one_object_per_module_and_a():
    mod = random_module(PLANE, 2, 2, 20)
    mod.label = "X"
    pw = power_module(mod, 3)
    assert power_module(mod, 3) is pw and power_module(mod, 2) is not pw
    assert pw.label == "(X)^3" and pw.dim == 3 * mod.dim
    assert [p for p, _ in pw.summands] == [mod] * 3
    twin = copy_onto(PLANE, mod)
    assert power_module(twin, 3) is not pw
    assert power_module(twin, 3).label == "?+?+?"  # unlabelled, as before
    free = power_module(free_module(PLANE, 1), 4)
    assert free.free_rank == 4 and power_module(free_module(PLANE, 1), 4) is free


def test_power_actions_are_read_only():
    pw = power_module(residue_field(PLANE), 2)
    for act in pw.var_actions:
        with pytest.raises(ValueError):
            act.a[0, 0] = 1
    with pytest.raises(ValueError):
        pw.action_stack()[0, 0, 0] = 1


def test_powers_zero_and_one():
    mod = residue_field(PLANE)
    zero = power_module(mod, 0)
    assert zero.dim == 0 and zero.free_rank == 0 and zero.label == "0"
    assert power_module(mod, 1) is mod
    with pytest.raises(ModuleError, match="negative power"):
        power_module(mod, -1)


def plane_module(alg, name):
    k, r = residue_field(alg), free_module(alg, 1)
    return {"k": k, "R+k": direct_sum([r, k]), "k^3": direct_sum([k] * 3),
            "coker20": random_module(alg, 2, 2, 20)}[name]


def outcome(res, report):
    cert = (json.dumps(sequence_to_dict(res.sequence), sort_keys=True)
            if res.found else None)
    return (res.found, res.candidates, res.reason, cert,
            report and (report.ok, report.reason, report.terminal))


@pytest.mark.parametrize("name", ["k", "R+k", "k^3", "coker20"])
def test_searches_sharing_powers_match_fresh_objects(name):
    cfg = SearchConfig(max_r=2, max_a=4, max_b=4, max_n=2, budget=40)
    mod = plane_module(build_algebra(GF2, ["x", "y"], [], 2), name)
    shared_runs = [search(mod, target, cfg) for target in ("pd", "gdim")]
    got = [outcome(res, res.found and verify(res.sequence))
           for res in shared_runs]
    want = []
    for target in ("pd", "gdim"):
        res = search(plane_module(build_algebra(GF2, ["x", "y"], [], 2), name),
                     target, cfg)
        want.append(outcome(res, res.found and verify(res.sequence)))
    assert got == want
