"""Steps read as direct sums of other steps (`Resolution.parts`): a
semisimple tail is literally beta_j copies of the steps of k, and an Ext
table whose source is a remembered sum, a power or a syzygy of either
sums its parts' tables instead of building its transitions whole."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from redhom import homalg, resolution
from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import ExtTable, ext_dims
from redhom.linalg import GF2, sparse_rref
from redhom.modules import direct_sum, free_module, power_module, residue_field
from redhom.resolution import _residue_chain, resolve
from redhom.workspace import load_workspace

from test_read_tails import FIELDS, RINGS, stepped
from test_sparse_ext import in_random_basis

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


class WholeTable(ExtTable):
    """An Ext table that builds and eliminates every transition whole,
    reading no parts."""

    def _rank(self, i: int) -> int:
        if i < 0:
            return 0
        if i not in self._ranks:
            cols = [col for col in self.transition_columns(i) if col]
            self._ranks[i] = len(sparse_rref(self.source.algebra.field, cols,
                                             back=False))
        return self._ranks[i]


def ring_module(fld, ring, seed):
    names, rels, nil, window, basis = ring
    alg = build_algebra(fld, names, rels, nil)
    mod = random_module(alg, 2, 3, seed)
    if basis and mod.free_rank is None:
        mod = in_random_basis(mod, random.Random(seed))
    return mod, window


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_semisimple_tails_are_copies_of_k(fld):
    """Past a semisimple tail (j, beta_j), step j + t is step t of
    k^beta_j, as data: generators, kernel layout and Betti number, read
    and also forced to step; parts name beta_j copies of k's step t."""
    tails = 0
    for ring in RINGS:
        for seed in range(6):
            mod, window = ring_module(fld, ring, seed)
            res = resolve(mod)
            res.extend(window)
            if res.chain._simple is None or res.chain._rest is not None:
                continue
            tails += 1
            (j, b), k = res.chain._simple, _residue_chain(mod.algebra)
            ref, kb = resolve(stepped(mod, window + 1)), resolve(power_module(k.module, b))
            for t in range(1, window - j + 1):
                assert res.chain.parts(j + t) == [(k, t, b)]
                for r in (res, ref):
                    assert r.betti(j + t) == kb.betti(t)
                    assert r.generators(j + t) == kb.generators(t)
                    assert r.syzygy_layout(j + t) == kb.syzygy_layout(t)
    assert tails >= 10


def assert_sum_of_parts(source, parts, target, window):
    """Ext from `source`, whose steps are the in-order sum of those of
    `parts`, is the sum of the parts' tables and equals a table that
    builds every transition whole."""
    dims = ExtTable(source, target).dims(window)
    assert dims == [sum(col) for col in zip(*(ext_dims(p, target, window) for p in parts))]
    assert dims == WholeTable(source, target).dims(window)


@given(st.sampled_from(FIELDS), st.sampled_from(RINGS), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_ext_from_sums_powers_and_their_syzygies(fld, ring, seed):
    mod, window = ring_module(fld, ring, seed)
    alg = mod.algebra
    other = residue_field(alg)
    window = min(window, 6)
    for target in (mod, other, free_module(alg, 1)):
        for summed, parts in ((direct_sum([mod, other]), [mod, other]),
                              (power_module(mod, 2), [mod, mod])):
            assert_sum_of_parts(summed, parts, target, window)
            assert_sum_of_parts(resolve(summed).syzygy_module(1),
                                [resolve(p).syzygy_module(1) for p in parts],
                                target, window - 1)


@pytest.fixture
def eliminations(monkeypatch):
    """Every transition `ExtTable` eliminates."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sparse_rref(*args, **kwargs)
    monkeypatch.setattr(homalg, "sparse_rref", counted)
    return calls


def test_remembered_sum_eliminates_its_parts_steps_once(eliminations):
    """Ext(Rx + Rx2, Rx) over F_2[x]/x^3 to index 4000: Rx's transitions 0
    and 1, Rx2's transition 0 and those of k, whose tail Rx2 reads, are
    all it builds (4001 when the sum built every transition)."""
    ws = load_workspace(EXAMPLES / "line3.json")
    rx, rx2 = ws.module("Rx"), ws.module("Rx2")
    dims = ExtTable(direct_sum([rx, rx2]), rx).dims(4000)
    assert dims == [2] * 4001
    assert len(eliminations) <= 5


def test_k_side_gathers_the_target_once(monkeypatch):
    """Ext(k, R) over F_2[x,y]/m^2 reads its tail off the table of the
    algebra's own k, which shares the root table's gather of R."""
    gathers = []

    def counted(*args, **kwargs):
        gathers.append(1)
        return by_gather(*args, **kwargs)
    by_gather = homalg.by_gather
    monkeypatch.setattr(homalg, "by_gather", counted)
    alg = build_algebra(GF2, ["x", "y"], [], 2)
    assert ext_dims(residue_field(alg), free_module(alg, 1), 8) == \
        [2] + [3 * 2**(i - 1) for i in range(1, 9)]
    assert len(gathers) == 1


def test_a_part_stepped_for_a_read_names_the_callers_step(monkeypatch):
    """Reading step 4 of k over F_2[x,y]/m^3 (split at 2) steps its rest
    through the rest's step 1, the caller's step 3: a refusal there names
    step 3 and a window below 3."""
    alg = build_algebra(GF2, ["x", "y"], [], 3)
    res = resolve(residue_field(alg))
    res.extend(2)
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 0)
    with pytest.raises(resolution.ResolutionError) as exc:
        res.chain._read(4)
    assert str(exc.value).startswith("resolution step 3 would allocate")
    assert str(exc.value).endswith("; use a window below 3 (--window on the command line)")
    assert len(res.chain._rest._steps) == 1
