"""Random generators, the exploration harness, and the fixture runner."""

import random

import numpy as np
import pytest

from redhom import corpus
from redhom.algebra import build_algebra
from redhom.corpus import (
    ExploreConfig,
    Fixture,
    explore_q22,
    line_algebra,
    plane_algebra,
    random_module,
    run_corpus,
    structure_test,
)
from redhom.linalg import GF2, GF3, QQ, Field
from redhom.modules import from_presentation, split_free_summands
from redhom.reducing import SearchResult, module_to_dict


@pytest.fixture(scope="module")
def plane():
    return plane_algebra()


def string_element(alg, rng: random.Random) -> str:
    """A random radical element as a polynomial string, drawing from
    `rng` as `random_module` draws its relation entries."""
    labels = alg.basis_labels()[1:]  # skip the identity
    roll = rng.random()
    if roll < 0.35:
        return "0"
    if roll < 0.75 or not labels:
        return rng.choice(labels) if labels else "0"
    terms = []
    for lbl in labels:
        c = alg.field.random(rng)
        if c != alg.field.zero():
            terms.append(f"{alg.field.format(c)}*{lbl}")
    return " + ".join(terms) if terms else "0"


def string_random_module(alg, max_gens: int, max_rels: int, seed: int):
    """`random_module` through a presentation of polynomial strings."""
    rng = random.Random(seed)
    gens = 1 + rng.randrange(max_gens)
    rels = rng.randrange(max_rels + 1) if max_rels else 0
    rows = [[string_element(alg, rng) for _ in range(rels)] for _ in range(gens)]
    return from_presentation(alg, gens, rows, label=f"rand{seed}")


STRING_RINGS = [(GF2, ["x", "y"], [], 2), (GF2, ["x"], [], 3), (QQ, ["x", "y"], [], 3),
                (GF3, ["x", "y"], ["x*y"], 3), (Field(2**31 - 1), ["x", "y", "z"], [], 2)]


@pytest.mark.parametrize("fld, names, relations, nilpotency", STRING_RINGS,
                         ids=["F2-plane", "F2-line3", "Q-m3", "F3-xy", "P31-xyz"])
def test_random_module_matches_its_string_presentation(fld, names, relations, nilpotency):
    """The relation columns built as coordinates give the module that the
    polynomial strings of the same draws present, action for action."""
    alg = build_algebra(fld, names, relations, nilpotency)
    for seed in range(60):
        got, want = random_module(alg, 3, 3, seed), string_random_module(alg, 3, 3, seed)
        assert (got.dim, got.label, got.free_rank) == (want.dim, want.label, want.free_rank)
        assert got.var_stack.dtype == want.var_stack.dtype
        assert np.array_equal(got.var_stack, want.var_stack)


class TestRandomModule:
    def test_deterministic(self, plane):
        m1 = random_module(plane, 3, 2, seed=7)
        m2 = random_module(plane, 3, 2, seed=7)
        assert module_to_dict(m1) == module_to_dict(m2)

    def test_no_relations_gives_free(self, plane):
        for seed in range(6):
            mod = random_module(plane, 3, 0, seed)
            peel = split_free_summands(mod)
            assert peel.remainder.dim == 0
            assert peel.rank >= 1

    def test_seeds_vary(self, plane):
        dims = {random_module(plane, 3, 2, seed).dim for seed in range(12)}
        assert len(dims) >= 2

    def test_bad_bounds(self, plane):
        with pytest.raises(ValueError):
            random_module(plane, 0, 2, 0)
        with pytest.raises(ValueError):
            random_module(plane, 2, -1, 0)


class TestStructureTest:
    def test_free_module(self, plane):
        mod = random_module(plane, 2, 0, seed=1)
        flat, rank, rest = structure_test(mod)
        assert flat and rest == 0 and rank == mod.dim // plane.dim

    def test_non_structured_instance(self, plane):
        from redhom.modules import from_presentation
        rx = from_presentation(plane, 1, [["x"]])
        flat, _, rest = structure_test(rx)
        assert not flat and rest == -1


class TestExplore:
    def test_line2_fraction_one(self):
        rows = explore_q22([("line2", line_algebra(2, GF2))],
                           ExploreConfig(samples=5))
        assert len(rows) == 1
        assert rows[0]["fraction"] == 1.0
        assert rows[0]["found"] == 5

    def test_empty_family(self):
        assert explore_q22([], ExploreConfig(samples=3)) == []

    def test_plane_fraction_matches_structure(self, plane):
        cfg = ExploreConfig(samples=8)
        rows = explore_q22([("plane", plane)], cfg)
        structured = sum(
            1 for i in range(cfg.samples)
            if structure_test(random_module(plane, cfg.max_gens,
                                            cfg.max_rels, cfg.seed + i))[0])
        assert rows[0]["found"] == structured

    def test_rows_sorted_by_ring(self):
        rows = explore_q22(
            [("b-ring", line_algebra(2, GF2)),
             ("a-ring", line_algebra(3, GF2))],
            ExploreConfig(samples=2))
        assert [r["ring"] for r in rows] == ["a-ring", "b-ring"]


class TestRunner:
    def test_all_fixtures_pass(self):
        outcome = run_corpus()
        assert outcome["all_ok"] is True
        names = [f["name"] for f in outcome["fixtures"]]
        assert names == sorted(names)
        assert len(names) == 10

    def test_filter(self):
        outcome = run_corpus("q22")
        assert [f["name"] for f in outcome["fixtures"]] == \
            ["q22-line2", "q22-plane"]

    def test_repeated_runs_agree(self):
        assert run_corpus("gorenstein") == run_corpus("gorenstein")

    @pytest.mark.parametrize("fixture", ["_fixture_plane_flagship", "_fixture_square_zero_e3"])
    def test_a_fixture_whose_search_fails_stops_at_it(self, monkeypatch, fixture):
        """A search that finds nothing fails the fixture's first check, and
        nothing after it is checked."""
        def nothing(module, target, config):
            return SearchResult(False, None, target, False, 0, "no certificate within bounds")
        monkeypatch.setattr(corpus, "search", nothing)
        assert getattr(corpus, fixture)() == [
            {"name": "search_found", "ok": False, "detail": "no certificate within bounds"}]

    def test_a_raising_fixture_is_recorded(self, monkeypatch):
        """A fixture that raises is reported as failed, with no checks and
        the traceback's last lines, and fails the whole run; the fixtures
        after it still run."""
        def broken():
            raise RuntimeError("fixture broke")
        monkeypatch.setattr(corpus, "FIXTURES",
                            [Fixture("broken", broken), *corpus.FIXTURES[:1]])
        outcome = run_corpus()
        failed, passed = outcome["fixtures"]
        assert (failed["name"], failed["ok"], failed["checks"]) == ("broken", False, [])
        assert "RuntimeError: fixture broke" in failed["error"]
        assert passed["ok"] is True and outcome["all_ok"] is False
