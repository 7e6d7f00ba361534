"""Verdict layer: G-dimension, semidualizing tests, and mechanical checks
of the structural theorems.  The windowed total reflexivity verdict
(`is_totally_reflexive`, `TRVerdict`) lives in `homalg`, where the
certificate verifier reads it too, and is imported here.

Every "for all i >= 1" hypothesis is replaced by an explicit window
[1, w] and each report carries its window.  Verdicts distinguish
"certified" facts (free modules, Gorenstein rings, where the conclusion
is a theorem) from "window_pass" evidence that all finitely many checks
went through.
"""

from dataclasses import dataclass

from .linalg import Matrix, contract
from .modules import (
    Module,
    ModuleMap,
    hom_dim,
    hom_space_matrix,
    regular_module,
    split_free_summands,
)
from .resolution import resolve
from .homalg import (
    HomAlgError,
    TRVerdict,
    canonical_module,
    dual_map,
    ext_dims,
    ext_vanishes_through,
    is_totally_reflexive,
    p_invariant,
    pushforward,
    r_dual,
)
from .reducing import (
    ReducingSequence,
    SearchConfig,
    _modules_equal,
    search,
    verify,
)


# -- G-dimension verdict ------------------------------------------------


@dataclass
class GdimReport:
    value: int       # -1 when no finite value is claimed
    above_window: bool
    window: int
    dims: list       # Ext^i(module, ring) dimensions, i = 0..window
    hypothesis: str  # "zero" | "free" | "gorenstein" | "chain" | "none"
    note: str

_GDIM_NOTE = ("value is the largest i in 1..window with nonvanishing "
              "Ext^i(module, ring); 0 means the whole window vanishes")


def gdim(mod: Module, window: int = 10,
         sequence: ReducingSequence = None) -> GdimReport:
    """Windowed G-dimension under an explicit finiteness hypothesis.

    The sup-of-nonvanishing-Ext formula is only valid when the dimension
    is known to be finite, so a finite answer requires either a Gorenstein
    ring or a verified reducing chain for the module.  When Ext against
    the ring is still alive at the window edge the report says so and
    claims nothing.
    """
    reg = regular_module(mod.algebra)
    if mod.dim == 0:
        return GdimReport(0, False, window, [0] * (window + 1), "zero",
                          "zero module")
    dims = ext_dims(mod, reg, window)
    if mod.is_free():
        return GdimReport(0, False, window, dims, "free", _GDIM_NOTE)
    if dims[window] != 0:
        return GdimReport(-1, True, window, dims, "none",
                          "Ext against the ring is nonzero at the window "
                          "edge; no finite value is claimed")
    if mod.algebra.is_gorenstein:
        hyp = "gorenstein"
    elif sequence is not None:
        rep = verify(sequence, window=window)
        if not rep.ok:
            raise ValueError(f"supplied chain does not verify: {rep.reason}")
        if sequence.target != "gdim" or not _modules_equal(sequence.base,
                                                           mod):
            raise ValueError("supplied chain does not certify this module")
        hyp = "chain"
    else:
        raise ValueError(
            "a finite G-dimension claim needs a Gorenstein ring or a "
            "verified reducing chain for the module")
    value = max((i for i in range(1, window + 1) if dims[i] != 0),
                default=0)
    return GdimReport(value, False, window, dims, hyp, _GDIM_NOTE)


# -- theorem checkers ----------------------------------------------------


@dataclass
class TheoremReport:
    name: str
    ok: bool
    window: int
    hypotheses: list   # {"name", "ok", "detail"} in fixed order
    conclusions: list  # populated only when all hypotheses hold


def _entry(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _hypotheses_fail(report: TheoremReport) -> bool:
    return not all(h["ok"] for h in report.hypotheses)


def _finish(report: TheoremReport) -> TheoremReport:
    report.ok = (all(h["ok"] for h in report.hypotheses)
                 and all(c["ok"] for c in report.conclusions))
    return report


def _dual_sequence_exact(ses) -> bool:
    """Exactness of 0 -> right* -> middle* -> left* -> 0.  Hom(-, R) is
    left exact, so only "middle* onto left*" can fail."""
    dl = r_dual(ses.left)
    return dual_map(ses.inject, r_dual(ses.middle), dl).rank() == dl.module.dim


@dataclass
class CompleteResolutionReport:
    ok: bool
    reason: str
    window: int
    left_ranks: list   # Betti numbers of the resolution half
    right_ranks: list  # generator counts along the coresolution half
    exact: bool
    dual_exact: bool
    chain: list        # the embedding chain's sequences, as far as it exists


def _complex_exact(maps) -> bool:
    """Composite-zero plus rank exactness at every interior spot, each
    map ranked once."""
    ranks = [m.rank() for m in maps]
    return all((v.matrix @ u.matrix).is_zero() and r_u + r_v == u.target.dim
               for u, v, r_u, r_v in zip(maps, maps[1:], ranks, ranks[1:]))


def complete_resolution(mod: Module,
                        window: int = 10) -> CompleteResolutionReport:
    """Splice the minimal resolution with an iterated embedding-into-free
    chain and certify exactness of the result and of its ring-dual.

    The chain is walked once and kept on the report.  Its stage j exists
    only while stage j embeds into its free hull (stage j is torsionless);
    a break there is reported, not raised, and the chain stops at it.
    A nonzero module needs window >= 1: the splice reads the first hull.
    """
    if mod.dim == 0:
        return CompleteResolutionReport(True, "zero module", window,
                                        [], [], True, True, [])
    if window < 1:
        raise ValueError(f"window must be at least 1 for a complete "
                         f"resolution, got {window}")
    res = resolve(mod)
    res.extend(window)
    maps = []
    for i in range(window, 0, -1):
        maps.append(ModuleMap(res.ambient_free(i), res.ambient_free(i - 1),
                              res.differential(i)))
    chain = []
    cur = mod
    for j in range(window):
        try:
            chain.append(pushforward(cur))
        except HomAlgError as exc:
            return CompleteResolutionReport(
                False, f"embedding chain broke at stage {j}: {exc}",
                window, res.betti_list(window), [], False, False, chain)
        cur = chain[-1].right
    maps.append(ModuleMap(res.ambient_free(0), chain[0].middle,
                          chain[0].inject.matrix @ res.differential(0)))
    for j in range(window - 1):
        maps.append(ModuleMap(chain[j].middle, chain[j + 1].middle,
                              chain[j + 1].inject.matrix @ chain[j].project.matrix))
    exact = _complex_exact(maps)
    modules = [maps[0].source] + [m.target for m in maps]
    duals = [r_dual(m) for m in modules]
    dual_exact = _complex_exact([dual_map(maps[i], duals[i + 1], duals[i])
                                 for i in range(len(maps) - 1, -1, -1)])
    right_ranks = [p.middle.dim // mod.algebra.dim for p in chain]
    return CompleteResolutionReport(
        exact and dual_exact, "", window, res.betti_list(window),
        right_ranks, exact, dual_exact, chain)


def check_main_theorem(mod: Module, seq: ReducingSequence,
                       window: int = 10) -> TheoremReport:
    """Chain plus ring-dual Ext vanishing forces total reflexivity.

    Hypotheses: the chain verifies for `mod` (target gdim) and
    Ext^i(mod, R) = 0 for 1 <= i <= window.  Conclusions executed in
    proof order: the module is torsionless; the embedding chain exists
    with torsionless stages and Ext vanishing on shrinking windows; the
    duals of the embedding sequences are exact; the spliced complex and
    its dual are exact across the window.

    The embedding chain is walked once, by `complete_resolution`, and
    each stage, the module too, is read from its report: a stage is
    torsionless exactly when it embeds into its free hull, when the
    chain goes on past it.  Stage 0's Ext vanishing is the second hypothesis.
    """
    report = TheoremReport("main", False, window, [], [])
    rep = verify(seq, window=window) if seq is not None else None
    report.hypotheses.append(_entry(
        "chain_verifies",
        seq is not None and rep.ok and _modules_equal(seq.base, mod)
        and seq.target == "gdim",
        rep.reason if rep is not None and not rep.ok else ""))
    reg = regular_module(mod.algebra)
    okv, bad = ext_vanishes_through(mod, reg, window)
    report.hypotheses.append(_entry(
        "ext_vanishing", okv,
        "" if okv else f"Ext^{bad}(module, ring) is nonzero"))
    if _hypotheses_fail(report):
        return _finish(report)
    cr = complete_resolution(mod, window)
    report.conclusions.append(_entry(
        "torsionless", mod.dim == 0 or bool(cr.chain),
        "evaluation into the double dual is injective"))
    cur = mod
    chain = []
    detail = ""
    for i in range(window):
        if cur.dim == 0:
            break  # the chain stabilized; nothing left to embed
        if i == len(cr.chain):
            detail = f"stage {i} is not torsionless"
            break
        if i > 0:
            okv, bad = ext_vanishes_through(cur, reg, window - i)
            if not okv:
                detail = f"stage {i}: Ext^{bad} nonzero on window {window - i}"
                break
        chain.append(cr.chain[i])
        cur = cr.chain[i].right
    report.conclusions.append(_entry("embedding_chain", not detail, detail))
    if not detail:
        duals_ok = all(_dual_sequence_exact(ses) for ses in chain)
        report.conclusions.append(_entry(
            "dual_sequences_exact", duals_ok, ""))
        report.conclusions.append(_entry(
            "complete_resolution", cr.ok,
            cr.reason or f"exact={cr.exact} dual_exact={cr.dual_exact}"))
    return _finish(report)


def check_t2(mod: Module, seq: ReducingSequence,
             window: int = 10) -> TheoremReport:
    """Self-Ext vanishing makes the module a summand of every chain module.

    Hypotheses: the chain verifies for `mod` and Ext^i(mod, mod) = 0 for
    1 <= i <= window.  Conclusions, one pair per chain index: a split
    injection mod -> K_i exists (a retraction is solved for in the space
    of module maps), and Ext^j(K_i, mod) = 0 on the window shrunk by the
    accumulated syzygy depths.
    """
    report = TheoremReport("t2", False, window, [], [])
    rep = verify(seq, window=window) if seq is not None else None
    report.hypotheses.append(_entry(
        "chain_verifies",
        seq is not None and rep.ok and _modules_equal(seq.base, mod),
        rep.reason if rep is not None and not rep.ok else ""))
    okv, bad = ext_vanishes_through(mod, mod, window)
    report.hypotheses.append(_entry(
        "self_ext_vanishing", okv,
        "" if okv else f"Ext^{bad}(module, module) is nonzero"))
    if _hypotheses_fail(report):
        return _finish(report)
    fld = mod.algebra.field
    emb = Matrix.identity(fld, mod.dim)
    prev = seq.base
    offset = 0
    for i, step in enumerate(seq.steps, start=1):
        ses = step.sequence
        emb = ses.inject.matrix.take_cols(range(prev.dim)) @ emb
        split_ok = False
        if emb.rank() == mod.dim:
            # column j: basis map j of Hom(middle, mod) composed with emb
            hom = hom_space_matrix(ses.middle, mod)
            sysmat = contract(fld, "abj,bc->acj", hom.a.reshape(
                mod.dim, ses.middle.dim, hom.cols), emb.a)
            target = Matrix.identity(fld, mod.dim).a.reshape(mod.dim ** 2, 1)
            split_ok = hom.cols > 0 and Matrix(fld, sysmat.reshape(
                mod.dim ** 2, hom.cols)).solve(Matrix(fld, target)) is not None
        report.conclusions.append(_entry(
            f"summand_in_K{i}", split_ok,
            "retraction solved" if split_ok else "no retraction exists"))
        offset += step.n
        remaining = window - offset
        if remaining >= 1:
            okv, bad = ext_vanishes_through(ses.middle, mod, remaining)
            report.conclusions.append(_entry(
                f"ext_K{i}_vanishes", okv,
                f"window {remaining}" if okv
                else f"Ext^{bad}(K_{i}, module) is nonzero"))
        else:
            report.conclusions.append(_entry(
                f"ext_K{i}_vanishes", True,
                "window exhausted by syzygy depth; nothing to check"))
        prev = ses.middle
    if not report.conclusions:
        report.conclusions.append(_entry(
            "trivial_chain", True, "no steps; the module is its own summand"))
    return _finish(report)


def is_semidualizing(cmod: Module, window: int = 10) -> bool:
    """Homothety onto the endomorphism space bijective plus self-Ext
    vanishing through the window."""
    alg = cmod.algebra
    fld = alg.field
    if cmod.dim == 0:
        return False
    if hom_dim(cmod, cmod) != alg.dim:
        return False
    # the homothety R -> End(C) as rows: row t is b_t's action, flattened
    homothety = Matrix(fld, cmod.action_stack().reshape(alg.dim, cmod.dim ** 2))
    if homothety.rank() != alg.dim:
        return False
    ok, _ = ext_vanishes_through(cmod, cmod, window)
    return ok


def check_cor33(alg, window: int = 10,
                config: SearchConfig = None) -> TheoremReport:
    """The ring is Gorenstein exactly when its canonical module admits a
    chain: Gorenstein rings get the trivial chain on omega = R, and over
    a non-Gorenstein ring omega is semidualizing yet the bounded search
    comes back empty."""
    report = TheoremReport("cor33", False, window, [], [])
    omega = canonical_module(alg)
    report.hypotheses.append(_entry("window_positive", window >= 1))
    if _hypotheses_fail(report):
        return _finish(report)
    result = search(omega, "gdim", config)
    if alg.is_gorenstein:
        report.conclusions.append(_entry(
            "omega_is_free", omega.is_free(),
            "canonical module is the ring itself"))
        report.conclusions.append(_entry(
            "trivial_chain_found",
            result.found and result.sequence.r == 0,
            f"search: {result.reason}"))
    else:
        report.conclusions.append(_entry(
            "omega_not_free", not omega.is_free(),
            "canonical module differs from the ring"))
        report.conclusions.append(_entry(
            "omega_semidualizing", is_semidualizing(omega, window), ""))
        report.conclusions.append(_entry(
            "search_absent", not result.found,
            f"search: {result.reason} ({result.candidates} candidates)"))
    return _finish(report)


def structure_test(mod: Module) -> tuple[bool, int, int]:
    """Free-plus-socle shape test: peel free summands and ask whether
    the radical kills what is left.  Returns (verdict, free rank,
    remainder dimension; -1 when the verdict is negative)."""
    peel = split_free_summands(mod)
    flat = peel.remainder.dim == 0 or peel.remainder.is_radical_killed()
    return flat, peel.rank, (peel.remainder.dim if flat else -1)


def check_prop27(alg, mod: Module,
                 config: SearchConfig = None) -> TheoremReport:
    """Over a non-Gorenstein ring whose radical squares to zero, chains
    within r <= 1 exist exactly for sums of a free module and copies of
    the residue field.

    The structure test S splits off free summands and asks whether the
    radical kills the remainder; S decides both search outcomes, for
    both targets.
    """
    if not alg.radical_square_zero:
        raise ValueError("the radical of the algebra must square to zero")
    if alg.is_gorenstein:
        raise ValueError("the algebra must not be Gorenstein")
    report = TheoremReport("prop27", False, 0, [], [])
    report.hypotheses.append(_entry("radical_square_zero", True))
    report.hypotheses.append(_entry("non_gorenstein", True))
    structured, alpha, beta = structure_test(mod)
    report.hypotheses.append(_entry(
        "structure_test", True,
        f"S={'true' if structured else 'false'} alpha={alpha} beta={beta}"))
    res_pd = search(mod, "pd", config)
    res_gd = search(mod, "gdim", config)
    if structured:
        report.conclusions.append(_entry(
            "pd_chain_short", res_pd.found and res_pd.sequence.r <= 1,
            f"search: {res_pd.reason}"))
        report.conclusions.append(_entry(
            "gdim_chain_short", res_gd.found and res_gd.sequence.r <= 1,
            f"search: {res_gd.reason}"))
    else:
        report.conclusions.append(_entry(
            "pd_search_absent", not res_pd.found,
            f"search: {res_pd.reason} ({res_pd.candidates} candidates)"))
        report.conclusions.append(_entry(
            "gdim_search_absent", not res_gd.found,
            f"search: {res_gd.reason} ({res_gd.candidates} candidates)"))
    return _finish(report)


def check_P_transfer(seq: ReducingSequence, nmod: Module,
                     window: int = 10) -> TheoremReport:
    """The last-nonvanishing-Ext index against a fixed module transfers
    from the chain base to every chain module.

    Hypothesis: the base's index is window-certified finite.  Conclusion:
    every chain module reports the same value.
    """
    report = TheoremReport("ptransfer", False, window, [], [])
    rep = verify(seq, window=window)
    report.hypotheses.append(_entry(
        "chain_verifies", rep.ok, rep.reason))
    base_p = p_invariant(seq.base, nmod, window)
    report.hypotheses.append(_entry(
        "base_value_finite", base_p.kind != "above_window",
        base_p.describe()))
    if _hypotheses_fail(report):
        return _finish(report)
    for i in range(1, seq.r + 1):
        val = p_invariant(seq.module_at(i), nmod, window)
        report.conclusions.append(_entry(
            f"value_at_K{i}", val.same_as(base_p),
            f"{val.describe()} vs {base_p.describe()}"))
    if not report.conclusions:
        report.conclusions.append(_entry(
            "trivial_chain", True, "no steps; nothing to transfer"))
    return _finish(report)
