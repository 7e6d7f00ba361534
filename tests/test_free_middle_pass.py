"""The search's free-middle pass refuses cells by additive sizes.

For M = R^c + X, the peeled power M^a has remainder X^a, and the sum
resolution makes syz^{n+1}(M^b) the literal sum S^b with S = syz^{n+1}(M).
Dimension, radical dimension and socle dimension add over direct sums, so
`_dfs` passes to `is_isomorphic` only the cells (n, b, a) where
a * sizes(X) == b * sizes(S).  For each n these are the multiples
t (a0, b0) of the least solution, or every cell when both size vectors
are zero, and `_size_multiples` lists them in closed form, b ascending.
The first test checks that every refused cell is one `is_isomorphic`
answers no; the next that a search builds nothing for the refused cells;
the last that the closed form lists the cells the double loop over (b, a)
passes, in its order.
"""

import itertools
from pathlib import Path

import pytest

from redhom import reducing
from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.linalg import GF2, GF3, QQ
from redhom.modules import (
    direct_sum,
    free_module,
    from_presentation,
    is_isomorphic,
    power_module,
    residue_field,
    split_free_summands,
)
from redhom.reducing import search
from redhom.resolution import syzygy
from redhom.workspace import load_workspace

from test_module_ranks import radical_span, socle_span

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def sizes(mod):
    return mod.dim, radical_span(mod).cols, socle_span(mod).cols


def modules():
    plane = build_algebra(GF2, ["x", "y"], [], 2)
    k = residue_field(plane)
    yield "k", k
    yield "R+k", direct_sum([free_module(plane, 1), k])
    yield "R/x", from_presentation(plane, 1, [["x"]])
    yield "syz k", syzygy(k)
    for s in (20, 26, 33):  # the search-pool cokernels
        yield f"coker {s}", random_module(plane, 2, 2, s)
    for s in (0, 5, 9):  # R + X with dim X = 2 and 5, and dim 4
        yield f"random {s}", random_module(plane, 3, 2, s)
    for fld, s in ((GF3, 0), (QQ, 6)):
        alg = build_algebra(fld, ["x", "y"], [], 2)
        yield f"coker {s} over {fld}", random_module(alg, 2, 2, s)


@pytest.mark.parametrize("mod", [pytest.param(m, id=name)
                                 for name, m in modules()])
def test_every_refused_cell_is_not_isomorphic(mod):
    vx = sizes(split_free_summands(mod).remainder)
    for n in (1, 2):
        vs = sizes(syzygy(mod, n + 1))
        for b in range(1, 5):
            nxt = syzygy(power_module(mod, b), n + 1)
            assert sizes(nxt) == tuple(b * s for s in vs)
            for a in range(1, 5):
                rem = split_free_summands(power_module(mod, a)).remainder
                assert sizes(rem) == tuple(a * x for x in vx)
                if sizes(rem) != sizes(nxt):
                    assert is_isomorphic(rem, nxt).kind == "no", (n, b, a)


@pytest.fixture
def counted(monkeypatch):
    """Counts of `is_isomorphic` calls, and the modules `_dfs` splits and
    enters with budget and depth to spare, not terminal for pd."""
    seen = {"iso": 0, "split": [], "node": []}
    dfs, split, iso = reducing._dfs, reducing.split_free_summands, \
        reducing.is_isomorphic

    def counting_dfs(mod, depth, st):
        if depth < st.cfg.max_r and not st.exhausted and not mod.is_free():
            seen["node"].append(mod)
        return dfs(mod, depth, st)

    def counting_split(mod):
        seen["split"].append(mod)
        return split(mod)

    def counting_iso(*args, **kwargs):
        seen["iso"] += 1
        return iso(*args, **kwargs)

    monkeypatch.setattr(reducing, "_dfs", counting_dfs)
    monkeypatch.setattr(reducing, "split_free_summands", counting_split)
    monkeypatch.setattr(reducing, "is_isomorphic", counting_iso)
    return seen


def test_refused_cells_build_nothing(counted):
    two_gen = load_workspace(EXAMPLES / "plane.json").module("two_gen")
    result = search(two_gen, "pd")
    assert result.exhausted and result.candidates == 200
    assert counted["iso"] == 0
    assert len(counted["node"]) > 1
    assert [id(m) for m in counted["split"]] == \
        [id(m) for m in counted["node"]]


def test_k_needs_one_isomorphism_test(counted):
    k = load_workspace(EXAMPLES / "plane.json").module("k")
    result = search(k, "pd")
    assert result.found
    assert counted["iso"] == 1


@pytest.mark.parametrize("max_a, max_b", [(8, 8), (5, 3), (2, 7)])
def test_size_multiples_match_the_double_loop(max_a, max_b):
    small = list(itertools.product(range(4), repeat=3))
    for vx, vs in itertools.product(small, small):
        assert reducing._size_multiples(vx, vs, max_a, max_b) == [
            (b, a) for b in range(1, max_b + 1) for a in range(1, max_a + 1)
            if all(a * x == b * s for x, s in zip(vx, vs))], (vx, vs)
