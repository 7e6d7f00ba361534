"""The search's free-middle pass tests one cell per n, found by sizes.

For M = R^c + X, the peeled power M^a has remainder X^a, and the sum
resolution makes syz^{n+1}(M^b) the literal sum S^b with S = syz^{n+1}(M).
Dimension, radical dimension and socle dimension add over direct sums, so
`is_isomorphic` answers no where a * sizes(X) != b * sizes(S).  For a
non-free M both X and S are nonzero, and the cells that match are the
multiples t (a0, b0) of the least one; by Krull-Schmidt X^{t a0} = S^{t b0}
exactly when X^{a0} = S^{b0}, so `_dfs` tests only the least cell, which
`_least_multiple` finds.  The first test checks that every refused cell is
one `is_isomorphic` answers no; the next that a search builds nothing for
the refused cells; then that `_least_multiple` finds the first cell the
double loop over (b, a) passes, and that the double of the least cell
answers as the least cell does, "yes" and "no" alike.
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
def test_least_multiple_is_the_first_cell_of_the_double_loop(max_a, max_b):
    """Over every pair of size vectors of nonzero modules (dimension at
    least 1) with entries below 4."""
    small = list(itertools.product(range(1, 4), range(4), range(4)))
    for vx, vs in itertools.product(small, small):
        cells = [(b, a) for b in range(1, max_b + 1)
                 for a in range(1, max_a + 1)
                 if all(a * x == b * s for x, s in zip(vx, vs))]
        assert reducing._least_multiple(vx, vs, max_a, max_b) == \
            (cells[0] if cells else None), (vx, vs)


def least_cell(mod, n, bound):
    return reducing._least_multiple(sizes(split_free_summands(mod).remainder),
                                    sizes(syzygy(mod, n + 1)), bound, bound)


def verdict(mod, a, b, n):
    rem = split_free_summands(power_module(mod, a)).remainder
    return is_isomorphic(rem, syzygy(power_module(mod, b), n + 1)).kind


SPARSE = build_algebra(GF2, ["x", "y", "z"], ["x^2", "y^2", "y*z", "z^2"], 3)


@pytest.mark.parametrize("seed, kind", [(41, "no"), (43, "no"), (50, "yes")])
def test_the_least_cell_answers_as_its_double(seed, kind):
    """The least cell (b, a) = (1, 4) at n = 1 of three cokernels over
    F_2[x,y,z]/(x^2, y^2, yz, z^2), two answering no and one yes, answers
    as (2, 8) does."""
    mod = random_module(SPARSE, 3, 3, seed)
    assert least_cell(mod, 1, 8) == (1, 4)
    assert verdict(mod, 4, 1, 1) == verdict(mod, 8, 2, 1) == kind


@pytest.mark.parametrize("alg", [
    build_algebra(GF2, ["x", "y"], [], 2), build_algebra(GF3, ["x", "y"], [], 2),
    build_algebra(QQ, ["x", "y"], [], 2), build_algebra(GF2, ["x"], [], 3),
    build_algebra(GF3, ["x"], [], 4), SPARSE],
    ids=lambda a: f"{a.field}-{a.nvars}-m{a.nilpotency}")
def test_krull_schmidt_decides_at_the_least_cell(alg):
    """For every non-free cokernel of seeds 0-59 and n = 1, 2 with a least
    size-matched cell (b, a) within 4 x 4, X^{2a} = S^{2b} exactly when
    X^a = S^b; each ring has such a cell."""
    cells = 0
    for seed, n in itertools.product(range(60), (1, 2)):
        mod = random_module(alg, 3, 3, seed)
        if not mod.is_free() and (cell := least_cell(mod, n, 4)) is not None:
            b, a = cell
            cells += 1
            assert verdict(mod, a, b, n) == verdict(mod, 2 * a, 2 * b, n), (seed, n)
    assert cells
