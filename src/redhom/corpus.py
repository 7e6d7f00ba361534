"""Worked examples as runnable fixtures, plus seeded module generators.

Each fixture builds its own algebra and modules, runs a handful of
structured assertions, and reports one verdict per assertion.  The
fixture list is the ground the acceptance suite stands on: `corpus run`
replays all of it and aggregates a single JSON report.

Base fields are F_2 and F_3 throughout.  Nothing here depends on the
characteristic; small prime fields just keep the arithmetic exact and
the extension-class enumeration finite.
"""

import random
import traceback
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, build_algebra
from .invariants import (
    check_prop27,
    complete_resolution,
    gdim,
    is_totally_reflexive,
    structure_test,
)
from .linalg import GF2, GF3
from .modules import (
    Module,
    direct_sum,
    free_module,
    from_presentation,
    is_isomorphic,
    power_module,
    presented_module,
    residue_field,
    split_free_summands,
)
from .reducing import SearchConfig, search, verify
from .resolution import resolve, syzygy


def plane_algebra() -> Algebra:
    """k[x,y] with the square of the maximal ideal killed, over F_2."""
    return build_algebra(GF2, ["x", "y"], [], 2)


def line_algebra(power: int, fld=GF2) -> Algebra:
    """Truncated polynomial line k[x]/(x^power)."""
    return build_algebra(fld, ["x"], [], power)


def square_zero_algebra(nvars: int, fld=GF2) -> Algebra:
    """nvars variables, every product of two of them zero."""
    names = ["x", "y", "z", "w"][:nvars]
    return build_algebra(fld, names, [], 2)


# -- random modules ----------------------------------------------------------


def _random_element(alg: Algebra, rng: random.Random) -> np.ndarray:
    """Random radical element as its basis-coordinate column.

    Biased toward single monomials so the sampled presentations hit
    the shapes that defeat the free-plus-socle structure test.
    """
    fld, col = alg.field, alg.field.zeros(alg.dim)
    roll = rng.random()
    if roll < 0.35 or alg.dim == 1:
        return col
    if roll < 0.75:
        col[rng.choice(range(1, alg.dim))] = fld.one()
    else:
        col[1:] = [fld.random(rng) for _ in range(1, alg.dim)]
    return col


def random_module(alg: Algebra, max_gens: int, max_rels: int,
                  seed: int) -> Module:
    """Cokernel of a seeded random matrix over the algebra.

    Deterministic per seed.  With max_rels = 0 the result is free on a
    random number of generators.  Relation entries live in the radical,
    so the presentation stays minimal.
    """
    if max_gens < 1:
        raise ValueError("need at least one generator allowed")
    if max_rels < 0:
        raise ValueError("relation bound must not be negative")
    rng = random.Random(seed)
    gens = 1 + rng.randrange(max_gens)
    rels = rng.randrange(max_rels + 1) if max_rels else 0
    label = f"rand{seed}"
    if rels == 0:
        return free_module(alg, gens, label=label)
    rows = np.array([[_random_element(alg, rng) for _ in range(rels)]
                     for _ in range(gens)], dtype=alg.field.dtype)
    return presented_module(alg, rows.transpose(1, 0, 2), label)


# -- Question 2.2 exploration ------------------------------------------------


@dataclass
class ExploreConfig:
    """Sampling plan for the per-ring chain-existence fractions."""

    samples: int = 8
    max_gens: int = 2
    max_rels: int = 2
    seed: int = 0
    search: SearchConfig = field(default_factory=lambda: SearchConfig(
        max_r=1, max_a=4, max_b=2, max_n=1, budget=40, window=6))


def explore_q22(family, cfg: ExploreConfig = None) -> list[dict]:
    """Fraction of sampled modules with a bounded chain to a free module.

    `family` is an iterable of (name, algebra) pairs.  The output is
    exploratory: a per-ring row with sample counts and the hit
    fraction, sorted by ring name.  No claim beyond the sample.
    """
    cfg = cfg or ExploreConfig()
    rows = []
    for name, alg in family:
        hits = _hits(_sample(alg, cfg), cfg)
        rows.append({"ring": name, "samples": cfg.samples, "found": hits,
                     "fraction": hits / cfg.samples if cfg.samples else 0.0})
    rows.sort(key=lambda r: r["ring"])
    return rows


def _sample(alg: Algebra, cfg: ExploreConfig) -> list[Module]:
    """The seeded modules `explore_q22` samples over one ring."""
    return [random_module(alg, cfg.max_gens, cfg.max_rels, cfg.seed + i)
            for i in range(cfg.samples)]


def _hits(mods: list[Module], cfg: ExploreConfig) -> int:
    """How many of the modules the bounded search chains to a free one."""
    return sum(1 for mod in mods if search(mod, "pd", cfg.search).found)


# -- fixtures ----------------------------------------------------------------


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _fixture_plane_betti() -> list[dict]:
    alg = plane_algebra()
    k = residue_field(alg)
    res = resolve(k)
    res.extend(4)
    betti = res.betti_list(4)
    return [_check("betti_k", betti == [1, 2, 4, 8, 16], str(betti))]


def _fixture_plane_syzygy_shape() -> list[dict]:
    alg = plane_algebra()
    k = residue_field(alg)
    omega2 = syzygy(k, 2)
    target = power_module(k, 4)
    verdict = is_isomorphic(omega2, target)
    return [_check("second_syzygy_is_k4", verdict.kind == "yes",
                   f"dims {omega2.dim} vs {target.dim}")]


def _fixture_plane_flagship() -> list[dict]:
    alg = plane_algebra()
    k = residue_field(alg)
    cfg = SearchConfig(max_r=1, max_a=4, max_b=1, max_n=2, budget=200)
    result = search(k, "pd", cfg)
    checks = [_check("search_found", result.found, result.reason)]
    if not result.found:
        return checks
    seq = result.sequence
    step = seq.steps[0]
    checks.append(_check("step_parameters",
                         (step.a, step.b, step.n) == (4, 1, 1),
                         f"(a,b,n)=({step.a},{step.b},{step.n})"))
    peel = split_free_summands(step.sequence.middle)
    checks.append(_check("middle_is_free_rank_2",
                         peel.rank == 2 and peel.remainder.dim == 0,
                         f"rank {peel.rank}, rest {peel.remainder.dim}"))
    rep = verify(seq, window=10)
    checks.append(_check("verify_accepts", rep.ok, rep.reason))
    return checks


_PLANE_CFG = SearchConfig(max_r=1, max_a=4, max_b=2, max_n=1,
                          budget=40, window=6)


def _fixture_plane_structure() -> list[dict]:
    alg = plane_algebra()
    k = residue_field(alg)
    reg = free_module(alg, 1, label="R")
    instances = [
        ("R", reg, True),
        ("k", k, True),
        ("R_plus_k", direct_sum([reg, k]), True),
        ("k_cubed", power_module(k, 3), True),
        ("R_mod_x", from_presentation(alg, 1, [["x"]], label="R/x"), False),
        ("syzygy_k", syzygy(k, 1), True),
    ]
    checks = []
    for name, mod, expect_s in instances:
        flat, _, _ = structure_test(mod)
        rep = check_prop27(alg, mod, config=_PLANE_CFG)
        ok = flat == expect_s and rep.ok
        checks.append(_check(f"structure_{name}", ok,
                             f"S={flat} expected={expect_s} "
                             f"searches_agree={rep.ok}"))
    return checks


def _fixture_square_zero_e3() -> list[dict]:
    alg = square_zero_algebra(3, GF3)
    k = residue_field(alg)
    cfg = SearchConfig(max_r=1, max_a=9, max_b=1, max_n=1, budget=200)
    result = search(k, "pd", cfg)
    checks = [_check("search_found", result.found, result.reason)]
    if not result.found:
        return checks
    step = result.sequence.steps[0]
    checks.append(_check("step_is_9_1_1",
                         (step.a, step.b, step.n) == (9, 1, 1),
                         f"(a,b,n)=({step.a},{step.b},{step.n})"))
    rep = verify(result.sequence, window=10)
    checks.append(_check("verify_accepts", rep.ok, rep.reason))
    return checks


def _gorenstein_checks(alg: Algebra, mods: list[tuple[str, Module]],
                       window: int) -> list[dict]:
    checks = [_check("ring_is_gorenstein", alg.is_gorenstein)]
    for name, mod in mods:
        tr = is_totally_reflexive(mod, window=window)
        checks.append(_check(f"tr_{name}", tr.passed, tr.kind))
        gd = gdim(mod, window=window)
        checks.append(_check(f"gdim_{name}", gd.value == 0,
                             f"value {gd.value}"))
        cr = complete_resolution(mod, window=window)
        checks.append(_check(
            f"complete_resolution_{name}",
            cr.ok and cr.exact and cr.dual_exact,
            cr.reason))
    return checks


def _fixture_line3_gorenstein() -> list[dict]:
    alg = line_algebra(3, GF2)
    k = residue_field(alg)
    rx2 = from_presentation(alg, 1, [["x^2"]], label="R/x^2")
    mods = [("k", k), ("R_mod_x2", rx2),
            ("mixed", direct_sum([free_module(alg, 1), k]))]
    return _gorenstein_checks(alg, mods, window=6)


def _fixture_line2_f3_gorenstein() -> list[dict]:
    alg = line_algebra(2, GF3)
    k = residue_field(alg)
    mods = [("k", k), ("R", free_module(alg, 1, label="R"))]
    return _gorenstein_checks(alg, mods, window=6)


def _fixture_random_shapes() -> list[dict]:
    alg = plane_algebra()
    verdicts = [structure_test(random_module(alg, 2, 2, seed))[0]
                for seed in range(12)]
    return [_check("sample_hits_structured", any(verdicts),
                   f"{sum(verdicts)}/12 structured"),
            _check("sample_hits_unstructured", not all(verdicts),
                   f"{12 - sum(verdicts)}/12 unstructured")]


def _fixture_q22_line2() -> list[dict]:
    cfg = ExploreConfig(samples=6)
    rows = explore_q22([("line2", line_algebra(2, GF2))], cfg)
    checks = [_check("one_row", len(rows) == 1, str(len(rows)))]
    if rows:
        checks.append(_check("fraction_is_one",
                             rows[0]["fraction"] == 1.0,
                             f"fraction {rows[0]['fraction']}"))
    checks.append(_check("empty_family_empty_table",
                         explore_q22([], cfg) == []))
    return checks


def _fixture_q22_plane() -> list[dict]:
    alg = plane_algebra()
    cfg = ExploreConfig(samples=8)
    mods = _sample(alg, cfg)  # each built once, for the search and the test
    found = _hits(mods, cfg)
    structured = sum(1 for mod in mods if structure_test(mod)[0])
    return [_check("fraction_matches_structure", found == structured,
                   f"found {found}, structured {structured}")]


@dataclass
class Fixture:
    """A named block of assertions over a self-built workspace."""

    name: str
    run: callable


FIXTURES = [
    Fixture("line2-f3-gorenstein", _fixture_line2_f3_gorenstein),
    Fixture("line3-gorenstein", _fixture_line3_gorenstein),
    Fixture("plane-betti", _fixture_plane_betti),
    Fixture("plane-flagship-chain", _fixture_plane_flagship),
    Fixture("plane-random-shapes", _fixture_random_shapes),
    Fixture("plane-structure-instances", _fixture_plane_structure),
    Fixture("plane-syzygy-shape", _fixture_plane_syzygy_shape),
    Fixture("q22-line2", _fixture_q22_line2),
    Fixture("q22-plane", _fixture_q22_plane),
    Fixture("square-zero-e3", _fixture_square_zero_e3),
]


def _run_fixture(fx: Fixture) -> dict:
    try:
        checks = fx.run()
    except Exception:
        return {"name": fx.name, "ok": False, "checks": [],
                "error": traceback.format_exc(limit=3)}
    return {"name": fx.name, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def run_corpus(name_filter: str = "") -> dict:
    """Run every fixture whose name contains the filter substring, one
    after another; the report lists them by name."""
    results = [_run_fixture(fx) for fx in FIXTURES if name_filter in fx.name]
    results.sort(key=lambda r: r["name"])
    return {"fixtures": results, "all_ok": all(r["ok"] for r in results)}
