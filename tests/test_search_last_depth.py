"""The search's last-depth skip against a reference that builds every
candidate.

At the last depth `_dfs` charges, but never builds, the candidates whose
middle has the node's module as a summand.  `_reference_dfs` below is the
search as it was before that skip: it builds every charged candidate.
Both must agree on everything a search returns, and every skipped middle
must fail the terminal test.  When the terminal class is the free modules
("pd", and "gdim" over a non-Gorenstein ring with m^2 = 0 and window >= 1)
the last depth builds no middle at all; over F_2[x,y]/m^3, or with window
0, it still builds them.  The last tests count draws: a cell that builds
nothing draws nothing, a built cell draws `samples` classes from its own
generator, and no Ext^1 data is built once the budget is spent.
"""

import random

import numpy as np
import pytest

from redhom import reducing
from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.linalg import GF2, GF3, Matrix, random_matrix
from redhom.modules import (
    ModuleMap,
    direct_sum,
    free_module,
    is_isomorphic,
    power_module,
    residue_field,
    split_free_summands,
    split_ses,
)
from redhom.homalg import Ext1Data, extension_from_psi
from redhom.resolution import resolve
from redhom.reducing import (
    MAX_MIDDLE_DIM,
    ReducingSequence,
    ReducingStep,
    SearchConfig,
    _combination_psi,
    _free_middle_step,
    _SearchState,
    search,
    sequence_to_dict,
)


def _reference_dfs(mod, depth, st, on_build=None):
    """The search before the last-depth skip, drawing in every cell from
    a generator seeded by the search seed and the cell's charge count.
    `on_build(spent, kind, middle)` sees every middle it builds ("split"
    or "glued"), keyed by the candidate's charge count."""
    cfg = st.cfg
    if reducing._is_terminal(mod, st.target, cfg.window):
        return []
    if depth >= cfg.max_r or st.exhausted:
        return None
    alg = mod.algebra
    fld = alg.field
    peels = {}
    small_cache = {}
    cells = []
    for n in range(1, cfg.max_n + 1):
        for b in range(1, cfg.max_b + 1):
            res_pow = resolve(power_module(mod, b))
            right = res_pow.syzygy_module(n)
            if right.dim == 0:
                continue
            nxt = res_pow.syzygy_module(n + 1)
            for a in range(1, cfg.max_a + 1):
                if a not in peels:
                    peels[a] = split_free_summands(power_module(mod, a))
                peel = peels[a]
                ver = is_isomorphic(peel.remainder, nxt, seed=cfg.seed)
                if ver.kind == "yes":
                    step = _free_middle_step(mod, a, b, n, res_pow, peel,
                                             ver.witness)
                    return [step]
                cells.append((n, b, a, right))
    for n, b, a, right in cells:
        if st.exhausted:
            return None
        if not st.charge():
            return None
        pw_a = power_module(mod, a)
        if pw_a.dim + right.dim <= MAX_MIDDLE_DIM:
            ses = split_ses(pw_a, right)
            if on_build:
                on_build(st.spent, "split", ses.middle)
            step = ReducingStep(a, b, n, ses, ModuleMap.identity(right))
            rest = _reference_dfs(ses.middle, depth + 1, st, on_build)
            if rest is not None:
                return [step] + rest
        if n not in small_cache:
            small_cache[n] = Ext1Data(resolve(mod).syzygy_module(n), mod)
        small = small_cache[n]
        if small.dim == 0:
            continue
        psis = [small.psi_from_class(
            Matrix.identity(fld, small.dim).take_cols([l]))
            for l in range(small.dim)]
        coeff_list = []
        for i in range(a):
            for j in range(b):
                for l in range(small.dim):
                    unit = Matrix.zeros(fld, a * b, small.dim)
                    unit.a[i * b + j, l] = fld.one()
                    coeff_list.append(unit)
        rng = random.Random(f"{cfg.seed}/{st.spent}")
        for _ in range(cfg.samples):  # each draw is charged, zero or not
            coeff_list.append(random_matrix(fld, a * b, small.dim, rng))
        for coeffs in coeff_list:
            if not st.charge():
                return None
            psi = _combination_psi(fld, psis, coeffs, a, b)
            if psi.is_zero():
                continue
            ses = extension_from_psi(pw_a, right, psi)
            if ses.middle.dim > MAX_MIDDLE_DIM:
                continue
            if on_build:
                on_build(st.spent, "glued", ses.middle)
            step = ReducingStep(a, b, n, ses, ModuleMap.identity(right))
            rest = _reference_dfs(ses.middle, depth + 1, st, on_build)
            if rest is not None:
                return [step] + rest
    return None


def _outcome(module, target, steps, st):
    seq = (sequence_to_dict(ReducingSequence(module, steps, target))
           if steps is not None else None)
    return (steps is not None, st.exhausted, st.spent, seq)


def _reference_search(module, target, cfg):
    st = _SearchState(cfg, target)
    return _outcome(module, target, _reference_dfs(module, 0, st), st)


def _new_search(module, target, cfg):
    res = search(module, target, cfg)
    seq = sequence_to_dict(res.sequence) if res.found else None
    return (res.found, res.exhausted, res.candidates, seq), res.reason


def _no_residue_summand(mod, target, window):
    """Exact and closed under summands: the socle lies in the radical,
    i.e. the residue field is not a direct summand."""
    soc, rad = mod.socle_span(), mod.radical_span()
    both = Matrix(mod.algebra.field, np.hstack([soc.a, rad.a]))
    return both.rank() == rad.rank()


def _modules():
    """The search-pool modules over F_2[x,y]/m^2, plus modules over
    F_3[x,y]/m^2, whose degree-one Ext dimensions differ from 9."""
    out = []
    for tag, fld, seeds in (("F2", GF2, (20, 26, 33)), ("F3", GF3, (20,))):
        alg = build_algebra(fld, ["x", "y"], [], 2)
        k = residue_field(alg)
        out += [(f"{tag} k", k),
                (f"{tag} R+k", direct_sum([free_module(alg, 1), k]))]
        if fld is GF2:
            out.append((f"{tag} k^3", power_module(k, 3)))
        out += [(f"{tag} rand{s}", random_module(alg, 2, 2, s))
                for s in seeds]
    return out


MODULES = _modules()


@pytest.mark.parametrize("max_r", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("target", ["pd", "gdim"])
@pytest.mark.parametrize("label,module", MODULES, ids=[m[0] for m in MODULES])
def test_search_matches_reference(label, module, target, seed, max_r):
    cfg = SearchConfig(max_r=max_r, max_a=8, max_b=8, max_n=2, budget=40,
                       seed=seed)
    new, reason = _new_search(module, target, cfg)
    assert new == _reference_search(module, target, cfg)
    assert reason == ("found" if new[0] else "candidate budget exhausted"
                      if new[1] else "no certificate within bounds")


@pytest.mark.parametrize("target", ["pd", "gdim"])
@pytest.mark.parametrize("label,module", MODULES[3:6],
                         ids=[m[0] for m in MODULES[3:6]])
def test_criterion_03_bounds_match_reference(label, module, target):
    cfg = SearchConfig(max_r=2, max_a=8, max_b=8, max_n=2, budget=200,
                       seed=7)
    new, _ = _new_search(module, target, cfg)
    assert new == _reference_search(module, target, cfg)
    assert new[1]  # these pool searches exhaust the budget


def _built_charges(monkeypatch, module, target, cfg):
    """Run the search and return the charge counts at which it built a
    middle, with its state."""
    st = _SearchState(cfg, target)
    built = set()

    def recording(fn):
        def wrapped(*args):
            built.add(st.spent)
            return fn(*args)
        return wrapped

    with monkeypatch.context() as mp:
        mp.setattr(reducing, "split_ses", recording(split_ses))
        mp.setattr(reducing, "extension_from_psi",
                   recording(extension_from_psi))
        reducing._dfs(module, 0, st)
    return built, st


@pytest.mark.parametrize("max_r", [1, 2])
@pytest.mark.parametrize("target", ["pd", "gdim"])
@pytest.mark.parametrize("label", ["F2 k", "F2 rand20", "F3 k"])
def test_skipped_middles_are_not_terminal(monkeypatch, label, target, max_r):
    module = dict(MODULES)[label]
    cfg = SearchConfig(max_r=max_r, max_a=3, max_b=2, max_n=2, budget=150,
                       window=4)
    built, st = _built_charges(monkeypatch, module, target, cfg)
    middles = {}
    ref = _SearchState(cfg, target)
    _reference_dfs(module, 0, ref,
                   lambda i, kind, mid: middles.setdefault(i, (kind, mid)))
    assert (st.spent, st.exhausted) == (ref.spent, ref.exhausted)
    assert built <= set(middles)
    skipped = set(middles) - built
    # both split middles and glued classes of rank below a are skipped
    assert {middles[i][0] for i in skipped} == {"split", "glued"}
    for i in sorted(skipped):
        assert not reducing._is_terminal(middles[i][1], target, cfg.window), i


@pytest.mark.parametrize("max_r", [1, 2])
@pytest.mark.parametrize("label", ["F2 k", "F2 R+k", "F3 k", "F3 R+k"])
def test_exact_summand_closed_predicate_matches_reference(
        monkeypatch, label, max_r):
    module = dict(MODULES)[label]
    monkeypatch.setattr(reducing, "_is_terminal", _no_residue_summand)
    # the patched class is not the free modules: build last-depth middles
    monkeypatch.setattr(reducing, "_terminal_is_free", lambda *args: False)
    cfg = SearchConfig(max_r=max_r, max_a=3, max_b=3, max_n=2, budget=60)
    st = _SearchState(cfg, "gdim")
    steps = reducing._dfs(module, 0, st)
    ref = _SearchState(cfg, "gdim")
    ref_steps = _reference_dfs(module, 0, ref)
    assert _outcome(module, "gdim", steps, st) == \
        _outcome(module, "gdim", ref_steps, ref)
    # the chain ends in a glued candidate built at the last depth: it is
    # max_r long and its final middle is neither free (the free-middle
    # closure) nor a split middle (which has `module`, and so the residue
    # field, as a summand)
    assert steps is not None and len(steps) == max_r
    assert not steps[-1].sequence.middle.is_free()


def _last_depth_builds(monkeypatch, module, target, cfg):
    """Search, counting the `split_ses` and `extension_from_psi` calls that
    `_dfs` makes at its last depth (`depth + 1 >= max_r`)."""
    depths, builds = [], []
    real_dfs = reducing._dfs

    def dfs(mod, depth, st):
        depths.append(depth)
        try:
            return real_dfs(mod, depth, st)
        finally:
            depths.pop()

    def counting(fn):
        def wrapped(*args):
            if depths and depths[-1] + 1 >= cfg.max_r:
                builds.append(fn.__name__)
            return fn(*args)
        return wrapped

    with monkeypatch.context() as mp:
        mp.setattr(reducing, "_dfs", dfs)
        mp.setattr(reducing, "split_ses", counting(split_ses))
        mp.setattr(reducing, "extension_from_psi",
                   counting(extension_from_psi))
        res = search(module, target, cfg)
    return len(builds), res


@pytest.mark.parametrize("max_r", [1, 2])
@pytest.mark.parametrize("target", ["pd", "gdim"])
@pytest.mark.parametrize("label,module", MODULES, ids=[m[0] for m in MODULES])
def test_free_terminal_class_builds_nothing_at_last_depth(
        monkeypatch, label, module, target, max_r):
    """"pd" on any ring, and "gdim" over these m^2 = 0 rings, where the
    terminal class is the free modules: Schanuel's lemma rules out every
    last-depth middle, so none is built."""
    cfg = SearchConfig(max_r=max_r, max_a=3, max_b=3, max_n=2, budget=60)
    builds, _ = _last_depth_builds(monkeypatch, module, target, cfg)
    assert builds == 0


CUBE = build_algebra(GF2, ["x", "y"], [], 3)
TRIPLE = build_algebra(GF3, ["x", "y", "z"], [], 2)
OTHER_MODULES = [("F2 m3 k", residue_field(CUBE)),
                 ("F2 m3 rand5", random_module(CUBE, 2, 2, 5)),
                 ("F3xyz k", residue_field(TRIPLE)),
                 ("F3xyz rand3", random_module(TRIPLE, 2, 2, 3))]


@pytest.mark.parametrize("label", ["F2 m3 k", "F2 m3 rand5"])
def test_gdim_over_cube_zero_builds_at_last_depth(monkeypatch, label):
    """Over F_2[x,y]/m^3 the totally reflexive class is not known to be
    the free modules, so last-depth middles are still built and tested."""
    module = dict(OTHER_MODULES)[label]
    cfg = SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2, budget=40)
    builds, res = _last_depth_builds(monkeypatch, module, "gdim", cfg)
    assert builds > 0
    assert not res.found


@pytest.mark.parametrize("target", ["pd", "gdim"])
@pytest.mark.parametrize("label,module", OTHER_MODULES,
                         ids=[m[0] for m in OTHER_MODULES])
def test_other_rings_match_reference(label, module, target):
    cfg = SearchConfig(max_r=2, max_a=2, max_b=2, max_n=2, budget=30,
                       seed=3, window=3)
    new, _ = _new_search(module, target, cfg)
    assert new == _reference_search(module, target, cfg)


def test_window_zero_builds_and_matches_reference(monkeypatch):
    """With window 0 the "gdim" test is reflexivity alone, and the search
    builds its last-depth middles even over m^2 = 0."""
    module = dict(OTHER_MODULES)["F3xyz rand3"]
    cfg = SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2, budget=30,
                       seed=3, window=0)
    builds, _ = _last_depth_builds(monkeypatch, module, "gdim", cfg)
    assert builds > 0
    new, _ = _new_search(module, "gdim", cfg)
    assert new == _reference_search(module, "gdim", cfg)


def _counted_dfs(monkeypatch, module, target, cfg):
    """Run `_dfs` with counters on `reducing.random_matrix` and
    `reducing.Ext1Data`.  Returns the state, the generator of each draw
    (kept alive, so that draws group by cell) and, per `Ext1Data` call,
    whether the budget was already spent."""
    st = _SearchState(cfg, target)
    rngs, ext1_after_budget = [], []

    def drawing(fld, rows, cols, rng):
        rngs.append(rng)
        return random_matrix(fld, rows, cols, rng)

    def ext1(*args):
        ext1_after_budget.append(st.exhausted)
        return Ext1Data(*args)

    with monkeypatch.context() as mp:
        mp.setattr(reducing, "random_matrix", drawing)
        mp.setattr(reducing, "Ext1Data", ext1)
        reducing._dfs(module, 0, st)
    return st, rngs, ext1_after_budget


C3 = dict(max_r=2, max_a=8, max_b=8, max_n=2, budget=200, seed=7)


@pytest.mark.parametrize("label", ["F2 rand20", "F2 rand26", "F2 rand33"])
def test_charge_only_cells_draw_nothing(monkeypatch, label):
    """A pd search over F_2[x,y]/m^2 at max_r = 1 builds no middle, so
    every cell only charges its classes: it draws nothing."""
    cfg = SearchConfig(**{**C3, "max_r": 1})
    st, rngs, _ = _counted_dfs(monkeypatch, dict(MODULES)[label], "pd", cfg)
    assert st.spent > 0
    assert rngs == []


@pytest.mark.parametrize("target", ["pd", "gdim"])
def test_spent_budget_stops_the_search(monkeypatch, target):
    """The criterion-03 search of rand20 spends its budget under the first
    cell's split middle; depth 0 then computes no Ext^1 and draws nothing."""
    cfg = SearchConfig(**C3)
    st, rngs, ext1_after_budget = _counted_dfs(
        monkeypatch, dict(MODULES)["F2 rand20"], target, cfg)
    assert st.exhausted
    assert rngs == []
    assert ext1_after_budget and not any(ext1_after_budget)


def test_built_cells_draw_every_sample(monkeypatch):
    """Over F_2[x,y]/m^3 the last depth builds glued middles: each of the
    2 * 2 * 2 cells draws exactly `samples` classes from its own
    generator."""
    cfg = SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2, budget=200)
    st, rngs, _ = _counted_dfs(monkeypatch, dict(OTHER_MODULES)["F2 m3 k"],
                               "gdim", cfg)
    assert not st.exhausted
    cells = {id(rng): rngs.count(rng) for rng in rngs}
    assert list(cells.values()) == [cfg.samples] * 8
