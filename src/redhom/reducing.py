"""Reducing chains: certificates that push a module toward a terminal class.

A chain starts at a base module K_0 and records short exact sequences

    0 -> K_{i-1}^{a_i} -> K_i -> syz^{n_i}(K_{i-1}^{b_i}) -> 0

together with an isomorphism witness identifying each right-hand term with
the rebuilt syzygy module.  A chain certifies its base once the final middle
lands in the terminal class for the chosen target: free modules ("pd") or
totally reflexive modules ("gdim").

This module provides the certificate data model, JSON serialization, an
independent verifier, a bounded search, and the two transport constructions
that turn a chain for M into one for syz(M) and back.
"""

from dataclasses import dataclass
import functools
import itertools
import json
import math
import random

import numpy as np

from .algebra import Algebra, algebra_from_presentation
from .linalg import Matrix, contract, random_matrix
from .modules import (
    Module,
    ModuleError,
    ModuleMap,
    ShortExactSequence,
    assemble_action_columns,
    direct_sum,
    free_module,
    hom_solve,
    is_isomorphic,
    power_module,
    regular_module,
    split_free_summands,
    split_ses,
    validate_module,
)
from . import resolution
from .resolution import resolve, syzygy
from .homalg import (
    Ext1Data,
    ext_syzygy_map,
    ext_vanishes_through,
    extension_from_class,
    extension_from_psi,
    horseshoe,
    is_totally_reflexive,
    psi_of_ses,
)

TARGETS = ("pd", "gdim")
MAX_MIDDLE_DIM = 4096  # the search skips candidate middles larger than this
FORMAT_TAG = "reducing-certificate/1"


class CertificateError(RuntimeError):
    """A chain construction or transport produced inconsistent data."""


class InputError(ValueError):
    """Malformed JSON input, a workspace or a certificate; `pointer`
    locates the offending field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer
        self.message = message


@dataclass
class ReducingStep:
    """One link of a chain, with its exactness and identification data."""

    a: int
    b: int
    n: int
    sequence: ShortExactSequence
    witness: ModuleMap  # right term -> rebuilt syz^n of the previous power


@dataclass
class ReducingSequence:
    base: Module
    steps: list
    target: str  # "pd" or "gdim"

    @property
    def r(self) -> int:
        return len(self.steps)

    def module_at(self, i: int) -> Module:
        """The i-th chain module; 0 is the base, i >= 1 the step middles."""
        if i == 0:
            return self.base
        return self.steps[i - 1].sequence.middle


def _syzygy_of_power(mod: Module, b: int, n: int) -> Module:
    res = resolve(power_module(mod, b))
    res.extend(n)  # a read tail past the step cap is refused before any step
    return res.syzygy_module(n)


def _modules_equal(m1: Module, m2: Module) -> bool:
    if m1 is m2:
        return True
    return m1.dim == m2.dim and bool((m1.var_stack == m2.var_stack).all())


# -- serialization ------------------------------------------------------


def module_to_dict(mod: Module) -> dict:
    return {"dim": mod.dim,
            "actions": np.frompyfunc(mod.algebra.field.format, 1, 1)(
                mod.var_stack.astype(object)).tolist()}


def module_from_dict(alg: Algebra, data, pointer: str,
                     label: str = "") -> Module:
    """The module `{dim, actions}` at `pointer`, the form of a workspace
    module of kind "actions" and of every module a certificate stores."""
    if not isinstance(data, dict):
        raise InputError(pointer, "expected an object")
    dim = data.get("dim")
    if type(dim) is not int or dim < 0:
        raise InputError(pointer + "/dim", "expected a nonnegative integer")
    acts = data.get("actions")
    if not isinstance(acts, list) or len(acts) != alg.nvars:
        raise InputError(pointer + "/actions", f"expected {alg.nvars} "
                         "matrices, one per variable")
    mats = [_matrix_from_rows(alg, rows, dim, dim, f"{pointer}/actions/{v}")
            for v, rows in enumerate(acts)]
    try:
        mod = Module(alg, dim, mats, label=label)
        validate_module(mod)
        return mod
    except ModuleError as exc:
        raise InputError(pointer + "/actions", str(exc))


def _matrix_from_rows(alg: Algebra, rows, nrows: int, ncols: int,
                      pointer: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise InputError(pointer, f"expected {nrows} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise InputError(f"{pointer}/{i}", f"expected {ncols} entries")
    if not all(isinstance(e, str) for row in rows for e in row):
        raise InputError(pointer, "expected a matrix of strings")
    if nrows == 0:
        # no rows to carry the width, so rebuild the shape directly
        return Matrix.zeros(alg.field, 0, ncols)
    try:
        return Matrix.from_str_rows(alg.field, rows)
    except (ValueError, TypeError) as exc:
        raise InputError(pointer, f"bad entry: {exc}")


def sequence_to_dict(seq: ReducingSequence) -> dict:
    alg = seq.base.algebra
    steps = []
    for step in seq.steps:
        ses = step.sequence
        steps.append({
            "a": step.a, "b": step.b, "n": step.n,
            "middle": module_to_dict(ses.middle),
            "right": module_to_dict(ses.right),
            "inject": ses.inject.matrix.to_str_rows(),
            "project": ses.project.matrix.to_str_rows(),
            "witness": step.witness.matrix.to_str_rows(),
        })
    return {"format": FORMAT_TAG,
            "target": seq.target,
            "algebra": alg.presentation(),
            "base": module_to_dict(seq.base),
            "steps": steps}


def sequence_from_dict(data, algebra: Algebra = None) -> ReducingSequence:
    if not isinstance(data, dict):
        raise InputError("", "expected an object")
    if data.get("format") != FORMAT_TAG:
        raise InputError("/format", f"expected {FORMAT_TAG!r}")
    target = data.get("target")
    if target not in TARGETS:
        raise InputError("/target", f"expected one of {list(TARGETS)}")
    pres = data.get("algebra")
    if not isinstance(pres, dict):
        raise InputError("/algebra", "expected an object")
    try:
        alg = algebra_from_presentation(pres)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError("/algebra", str(exc))
    if algebra is not None:
        if algebra.presentation() != alg.presentation():
            raise InputError(
                "/algebra", "presentation does not match the workspace ring")
        alg = algebra
    base = module_from_dict(alg, data.get("base"), "/base")
    raw_steps = data.get("steps")
    if not isinstance(raw_steps, list):
        raise InputError("/steps", "expected a list")
    steps = []
    prev = base
    for i, raw in enumerate(raw_steps):
        ptr = f"/steps/{i}"
        if not isinstance(raw, dict):
            raise InputError(ptr, "expected an object")
        a, b, n = params = [raw.get(key) for key in "abn"]
        for key, val in zip("abn", params):
            if type(val) is not int or val < 1:
                raise InputError(f"{ptr}/{key}", "expected a positive integer")
            if key != "n":
                resolution._check_dense_size(
                    f"the power {key} = {val}", alg.nvars * (val * prev.dim) ** 2,
                    alg.field, " of dense actions",
                    functools.partial(InputError, f"{ptr}/{key}"))
        middle = module_from_dict(alg, raw.get("middle"), ptr + "/middle")
        right = module_from_dict(alg, raw.get("right"), ptr + "/right")
        left = power_module(prev, a)
        inj = _matrix_from_rows(alg, raw.get("inject"), middle.dim, left.dim,
                                ptr + "/inject")
        proj = _matrix_from_rows(alg, raw.get("project"), right.dim,
                                 middle.dim, ptr + "/project")
        try:
            rebuilt = _syzygy_of_power(prev, b, n)
        except resolution.ResolutionError as exc:
            raise InputError(f"{ptr}/n", f"n = {n}: the syzygy of b = {b} "
                             f"copies cannot be rebuilt: {exc.reason}")
        wit = _matrix_from_rows(alg, raw.get("witness"), rebuilt.dim,
                                right.dim, ptr + "/witness")
        ses = ShortExactSequence(
            ModuleMap(left, middle, inj),
            ModuleMap(middle, right, proj))
        steps.append(ReducingStep(a, b, n, ses, ModuleMap(right, rebuilt, wit)))
        prev = middle
    return ReducingSequence(base, steps, target)


def save_certificate(seq: ReducingSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path, algebra: Algebra = None) -> ReducingSequence:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise InputError("", "not valid JSON: nested too deeply")
    return sequence_from_dict(data, algebra)


# -- verification -------------------------------------------------------


@dataclass
class VerifyReport:
    ok: bool
    reason: str
    step: int  # 1-based step index of the failure, 0 if none / terminal
    target: str
    r: int
    terminal: dict


def _fail(reason: str, step: int, target: str, r: int) -> VerifyReport:
    return VerifyReport(False, reason, step, target, r, {})


def verify(seq: ReducingSequence, window: int = 10) -> VerifyReport:
    """Recheck every claim a chain makes, from scratch.

    Each step must present a valid short exact sequence whose left term is
    the declared power of the previous chain module and whose right term is
    isomorphic, via the stored witness, to the rebuilt syzygy module.  The
    final middle must land in the terminal class for the chain's target;
    total reflexivity is certified through the given Ext window.
    """
    target = seq.target
    r = seq.r
    if target not in TARGETS:
        return _fail(f"unknown target {target!r}", 0, target, r)
    prev = seq.base
    for idx, step in enumerate(seq.steps, start=1):
        if min(step.a, step.b, step.n) < 1:
            return _fail("step parameters must be positive", idx, target, r)
        ses = step.sequence
        left = power_module(prev, step.a)
        if not _modules_equal(ses.left, left):
            return _fail("left term is not the declared power of the "
                         "previous chain module", idx, target, r)
        try:
            ses.validate()
        except ModuleError as exc:
            return _fail(f"sequence is not exact: {exc}", idx, target, r)
        wit = step.witness
        if not _modules_equal(wit.source, ses.right):
            return _fail("witness source is not the right-hand term",
                         idx, target, r)
        rebuilt = _syzygy_of_power(prev, step.b, step.n)
        if not _modules_equal(wit.target, rebuilt):
            return _fail("witness target is not the rebuilt syzygy module",
                         idx, target, r)
        try:
            wit.check_linear()
        except ModuleError:
            return _fail("witness is not module-linear", idx, target, r)
        if not wit.is_isomorphism():
            return _fail("witness is not an isomorphism", idx, target, r)
        prev = ses.middle
    if target == "pd":
        if not prev.is_free():
            return _fail("final module is not free", 0, target, r)
        terminal = {"kind": "free", "dim": prev.dim}
    else:
        verdict = is_totally_reflexive(prev, window)
        if not verdict.passed:
            return _fail("final module is not totally reflexive "
                         f"({verdict.reason})", 0, target, r)
        terminal = {"kind": "totally_reflexive",
                    "certified": verdict.kind == "certified",
                    "window": verdict.window}
    return VerifyReport(True, "", 0, target, r, terminal)


# -- search -------------------------------------------------------------


@dataclass
class SearchConfig:
    max_r: int = 2
    max_a: int = 8
    max_b: int = 8
    max_n: int = 2
    budget: int = 200  # extension classes considered per search call
    seed: int = 0
    samples: int = 4  # random cocycle classes per cell, charged even if zero
    window: int = 10  # Ext window for the totally-reflexive terminal test


@dataclass
class SearchResult:
    found: bool
    sequence: object
    target: str
    exhausted: bool  # True when the candidate budget ran out
    candidates: int
    reason: str


class _SearchState:
    def __init__(self, cfg: SearchConfig, target: str):
        self.cfg = cfg
        self.target = target
        self.spent = 0
        self.exhausted = False

    def charge(self, k: int = 1) -> bool:
        """Consume k candidates; False, using up the budget, if fewer remain."""
        if self.spent + k > self.cfg.budget:
            self.spent, self.exhausted = self.cfg.budget, True
            return False
        self.spent += k
        return True


# Whether the terminal class of `target` is the free modules.  For "gdim"
# over a non-Gorenstein ring with m^2 = 0 and window >= 1, a module passing
# `is_totally_reflexive` is reflexive, so inside a free F: M = R^t + M'
# with M' in mF, so mM' = 0 and M' = k^u; u > 0 would put Ext^1(k, R)^u
# != 0 (R not Gorenstein) in Ext^1(M, R), failing `ext_module` at index 1.
def _terminal_is_free(alg: Algebra, target: str, window: int) -> bool:
    return target == "pd" or (window >= 1 and alg.radical_square_zero
                              and not alg.is_gorenstein)


# Free modules, totally reflexive modules and the windowed test below are
# all closed under direct summands.  `_dfs` relies on that to skip, at the
# last depth, every candidate middle that has its node's module (already
# found not terminal) as a summand, and, for free modules, every one.
def _is_terminal(mod: Module, target: str, window: int) -> bool:
    if _terminal_is_free(mod.algebra, target, window):
        return mod.is_free()
    return is_totally_reflexive(mod, window).passed


def _free_middle_step(mod, a, b, n, res_pow, peel, wit) -> ReducingStep:
    """Build the step with a free middle from a stable isomorphism witness.

    `peel` splits mod^a as free(c) + V and `wit` identifies V with the
    (n+1)-st syzygy of mod^b; gluing wit onto the syzygy embedding yields
    0 -> mod^a -> R^{c+g} -> syz^n(mod^b) -> 0 with g the n-th Betti number.
    """
    alg = mod.algebra
    fld = alg.field
    d = alg.dim
    c = peel.rank
    g = res_pow.betti(n)
    pw_a = power_module(mod, a)
    right = res_pow.syzygy_module(n)
    middle = free_module(alg, c + g)
    emb = res_pow.syzygy_subspace(n + 1) @ wit.matrix
    inj = Matrix.block_diag(fld, [Matrix.identity(fld, c * d), emb]) @ peel.iso.inverse().matrix
    proj = Matrix.hstack([Matrix.zeros(fld, right.dim, c * d), resolve(right).differential(0)])
    ses = ShortExactSequence(ModuleMap(pw_a, middle, inj), ModuleMap(middle, right, proj))
    return ReducingStep(a, b, n, ses, ModuleMap.identity(right))


def _combination_psi(fld, psis, coeffs, a, b):
    """Assemble the block cocycle with block (i, j) = sum_l c[i,j,l] psi_l;
    `psis` is the (L, rows, cols) array of the psi_l (or their list)."""
    psis = np.asarray(psis)
    n, rows, cols = psis.shape
    big = contract(fld, "ijl,lrc->irjc", coeffs.a.reshape(a, b, n), psis)
    return Matrix(fld, big.reshape(a * rows, b * cols))


def _least_multiple(vx, vs, max_a: int, max_b: int) -> tuple[int, int] | None:
    """The least cell (b, a) where a vx = b vs for the size vectors of two
    nonzero modules, or None when there is none within the bounds."""
    g = math.gcd(vx[0], vs[0])  # dimensions, both positive
    a, b = vs[0] // g, vx[0] // g
    if a > max_a or b > max_b or any(a * u != b * v for u, v in zip(vx, vs)):
        return None
    return b, a


def _dfs(mod: Module, depth: int, st: _SearchState):
    cfg = st.cfg
    if _is_terminal(mod, st.target, cfg.window):
        return []
    if depth >= cfg.max_r or st.exhausted:
        return None
    alg = mod.algebra
    fld = alg.field
    smalls = functools.cache(lambda n: Ext1Data(syzygy(mod, n), mod))
    psis = functools.cache(lambda n: smalls(n).psis(smalls(n).reps))
    cells = []
    # first pass: free-middle closures; cost nothing, close the chain.
    # peel(mod^a) leaves X^a and syz^{n+1}(mod^b) is S^b, both nonzero as
    # mod is not free (by Auslander-Buchsbaum no syzygy of it is zero).
    # Sizes add over sums, so is_isomorphic refuses a cell where they
    # differ, and by Krull-Schmidt X^{ta} = S^{tb} exactly when X^a = S^b:
    # only the least size-matched cell is tested.
    def sizes(m):
        return m.dim, m.radical_dim(), m.socle_dim()
    vx = sizes(split_free_summands(mod).remainder)
    for n in range(1, cfg.max_n + 1):
        cell = _least_multiple(vx, sizes(syzygy(mod, n + 1)), cfg.max_a, cfg.max_b)
        if cell is not None:
            # stable identification: mod^a = free + syz^{n+1}(mod^b)
            b, a = cell
            peel = split_free_summands(power_module(mod, a))
            pw_b = power_module(mod, b)
            ver = is_isomorphic(peel.remainder, syzygy(pw_b, n + 1), seed=cfg.seed)
            if ver.kind == "yes":  # a free middle, terminal for both
                return [_free_middle_step(mod, a, b, n, resolve(pw_b), peel,
                                          ver.witness)]
        cells += [(n, b, a) for b in range(1, cfg.max_b + 1)
                  for a in range(1, cfg.max_a + 1)]
    # second pass: extension candidates, charged against the budget, each
    # cell building its right term syz^n(mod^b) when it is reached.  At
    # the last depth a middle is only tested for terminality, so none that
    # cannot pass is built: one with `mod` as a summand (the split middle,
    # or a class whose a x (b d) coefficient matrix has rank < a, as a
    # change of basis of mod^a zeroes a row), and when terminal means free
    # any E in 0 -> mod^a -> E -> syz^n(mod^b) -> 0.  By Schanuel, mod^a +
    # F = syz^{n+1}(mod^b) + E; syzygies lie in mF, so a free E would give
    # peel(mod^a) = syz^{n+1}(mod^b) by Krull-Schmidt, refused above.
    last = depth + 1 >= cfg.max_r
    build = not (last and _terminal_is_free(alg, st.target, cfg.window))
    for n, b, a in cells:
        # split middle: the zero extension class
        if not st.charge():
            return None
        right = syzygy(power_module(mod, b), n) if build else None
        fits = build and a * mod.dim + right.dim <= MAX_MIDDLE_DIM
        if fits and not last:
            ses = split_ses(power_module(mod, a), right)
            step = ReducingStep(a, b, n, ses, ModuleMap.identity(right))
            rest = _dfs(ses.middle, depth + 1, st)
            if rest is not None:
                return [step] + rest
            if st.exhausted:
                return None
        # glued middles from degree-one cocycle classes: the unit coefficient
        # matrices, position (i * b + j, l) ascending, then the cell's draws
        small = smalls(n)
        if small.dim == 0:
            continue
        if not fits:  # charge every class, the draws too, and build none
            if not st.charge(a * b * small.dim + cfg.samples):
                return None
            continue
        rng = random.Random(f"{cfg.seed}/{st.spent}")  # seeded by the cell
        units = Matrix.identity(fld, a * b * small.dim).a
        for coeffs in itertools.chain(
                (Matrix(fld, u.reshape(a * b, small.dim)) for u in units),
                (random_matrix(fld, a * b, small.dim, rng)
                 for _ in range(cfg.samples))):
            if not st.charge():
                return None
            if last and Matrix(fld, coeffs.a.reshape(
                    a, b * small.dim)).rank() < a:
                continue
            psi = _combination_psi(fld, psis(n), coeffs, a, b)
            if psi.is_zero():
                continue
            ses = extension_from_psi(power_module(mod, a), right, psi)
            step = ReducingStep(a, b, n, ses, ModuleMap.identity(right))
            rest = _dfs(ses.middle, depth + 1, st)
            if rest is not None:
                return [step] + rest
    return None


def search(module: Module, target: str,
           config: SearchConfig = None) -> SearchResult:
    """Look for a chain from `module` to the terminal class of `target`.

    Depth-first over step parameters (n, b, a) within the configured
    bounds.  The free-middle construction is scanned across every cell
    first: it closes the chain immediately and costs no budget.  With
    the node's module peeled as M = R^c + X, a cell is tested for
    X^a = syz^{n+1}(M^b) only at the least (a, b) where a times the
    dimension, radical and socle dimension of X equals b times those of
    syz^{n+1}(M): by Krull-Schmidt a larger multiple answers as it does.  Each
    cell then builds syz^n(M^b) and tries the split extension, then
    extensions glued from the basis degree-one cocycle classes and from
    `samples` random ones.  Powers M^a are one object each, split once
    per actions, so both searches and `verify` share them.  Every
    class considered counts against the budget, zero or not, built or
    not: at the last depth (`max_r`) the split middle and every class
    whose coefficient matrix has rank below a contain the node's module
    as a summand, so they cannot be terminal and are charged unbuilt.
    When terminal means free (`_terminal_is_free`), none is built: by
    Schanuel's lemma a free middle makes its cell a free-middle closure,
    refused by the first pass.  A cell that builds nothing draws nothing;
    draws are seeded by the seed and the charge count at their cell, so a
    search is deterministic for a fixed seed.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    cfg = config or SearchConfig()
    st = _SearchState(cfg, target)
    steps = _dfs(module, 0, st)
    if steps is not None:
        seq = ReducingSequence(module, steps, target)
        report = verify(seq, window=cfg.window)
        if not report.ok:
            raise CertificateError(
                f"search assembled an invalid chain: {report.reason}")
        return SearchResult(True, seq, target, False, st.spent, "found")
    reason = ("candidate budget exhausted" if st.exhausted
              else "no certificate within bounds")
    return SearchResult(False, None, target, st.exhausted, st.spent, reason)


# -- syzygy transport ---------------------------------------------------


def omega_of_map(g: ModuleMap, steps: int = 1) -> ModuleMap:
    """Transport a map through minimal covers onto the syzygy modules.

    Lifts g generator-wise to a map of covers through the target cover's
    section (`Resolution.section`) and restricts to the kernels.  It is
    an isomorphism when g is one (Nakayama on the minimal covers).
    """
    for _ in range(steps):
        res_x, res_y = resolve(g.source), resolve(g.target)
        u = assemble_action_columns(res_y.ambient_free(0), res_y.section()
                                    @ (g.matrix @ res_x.generator_images(0)))
        new_mat = (u @ res_x.syzygy_subspace(1)).take_rows(res_y.free_positions(1))
        g = ModuleMap(res_x.syzygy_module(1), res_y.syzygy_module(1), new_mat)
    return g


def _padded(ses: ShortExactSequence, a: int, c_prev: int):
    """A horseshoe sequence padded with a·c_prev carried free blocks.

    Its source is a copies of syz ⊕ R^c_prev, whose coordinates `order`
    lists with the a syzygy blocks (the horseshoe's left term) first and
    the a free blocks after them.  The horseshoe's middle is syz¹(middle)
    ⊕ R^f.  Returns syz¹(middle) ⊕ R^(f + a·c_prev), whose free rank the
    transports carry as the next c_prev, the columns of
    block_diag(inject, I) taken back into the source's order (at
    argsort(order)), and [project | 0].
    """
    alg = ses.left.algebra
    fld = alg.field
    s_prev = ses.left.dim // a  # the left term is syz(prev)^a
    c = c_prev * alg.dim
    (omega, _), (free, _) = ses.middle.summands
    middle = direct_sum([omega, free_module(alg, free.free_rank + a * c_prev)])
    at = np.arange(a * (s_prev + c)).reshape(a, s_prev + c)
    order = np.concatenate((at[:, :s_prev], at[:, s_prev:]), axis=None)
    inj = Matrix.block_diag(fld, [ses.inject.matrix, Matrix.identity(fld, a * c)]
                            ).take_cols(np.argsort(order))
    proj = Matrix.hstack([ses.project.matrix,
                          Matrix.zeros(fld, ses.right.dim, a * c)])
    return middle, inj, proj


def transform_syzygy(seq: ReducingSequence,
                     window: int = 10) -> ReducingSequence:
    """Turn a chain for M into a chain for syz(M), step by step.

    Each step is pushed through the horseshoe construction.  The free
    modules each horseshoe inserts are carried as padding on every later
    chain module, syz(old module) ⊕ free; `_padded` maps each copy's
    free block identically onto the padding.  Parameters (a, b, n) are
    preserved.  Rejects input that does not verify.
    """
    report = verify(seq, window=window)
    if not report.ok:
        raise CertificateError(
            f"input chain failed verification: {report.reason}")
    fld = seq.base.algebra.field
    new_base = syzygy(seq.base, 1)
    prev_old = seq.base
    prev_new = new_base
    c_prev = 0
    new_steps = []
    for step in seq.steps:
        a, b, n = step.a, step.b, step.n
        ses = step.sequence
        left_lit = power_module(prev_old, a)
        # normalize the right term to the literal rebuilt syzygy
        proj_norm = ModuleMap(ses.middle, step.witness.target,
                              step.witness.matrix @ ses.project.matrix)
        shoe = horseshoe(ShortExactSequence(
            ModuleMap(left_lit, ses.middle, ses.inject.matrix), proj_norm))
        middle_new, inj, proj = _padded(shoe, a, c_prev)
        right_new = shoe.right
        rebuilt = _syzygy_of_power(prev_new, b, n)
        new_steps.append(ReducingStep(
            a, b, n,
            ShortExactSequence(
                ModuleMap(power_module(prev_new, a), middle_new, inj),
                ModuleMap(middle_new, right_new, proj)),
            ModuleMap(right_new, rebuilt, Matrix.identity(fld, rebuilt.dim))))
        prev_old = ses.middle
        prev_new = middle_new
        c_prev = middle_new.summands[1][0].free_rank
    return ReducingSequence(new_base, new_steps, seq.target)


# -- cosyzygy transport -------------------------------------------------


def transform_cosyzygy(seq: ReducingSequence, module: Module,
                       window: int = 10) -> ReducingSequence:
    """Lift a chain for syz(module) back to a chain for `module`.

    Requires Ext^i(base, R) = 0 for i = 1..window, where base is the
    chain's base module; the construction solves extension classes
    backwards through the syzygy shift, and that vanishing is what makes
    the shift on degree-one classes surjective.  Rejects input whose
    hypotheses fail, as `transform_syzygy` does, with a `CertificateError`
    naming the reason.  The lifted chain's `verify` is the construction's
    one runtime check.
    """
    alg = module.algebra
    fld = alg.field
    d = alg.dim
    reg = regular_module(alg)
    okv, bad = ext_vanishes_through(seq.base, reg, window)
    if not okv:
        raise CertificateError(
            f"Ext^{bad}(chain base, ring) is nonzero; cosyzygy transport "
            "needs ring-dual vanishing through the window")
    if seq.steps and max(s.n for s in seq.steps) + 2 > window:
        raise CertificateError("window too small for the step syzygy depths")
    report = verify(seq, window=window)
    if not report.ok:
        raise CertificateError(f"input chain failed verification: {report.reason}")
    # rho: old chain module -> syz(new chain module) + free, maintained
    # as the induction moves down the chain
    omega_n = syzygy(module, 1)
    c_prev = max((seq.base.dim - omega_n.dim) // d, 0)
    pack = direct_sum([omega_n, free_module(alg, c_prev)])
    rho = is_isomorphic(seq.base, pack).witness
    if rho is None:
        raise CertificateError("chain base is not a syzygy of the module "
                               "up to free summands")
    w_prev = module
    prev_old = seq.base
    new_steps = []
    for idx, step in enumerate(seq.steps, start=1):
        a, b, n = step.a, step.b, step.n
        ses = step.sequence
        mid_old = ses.middle
        right_w = _syzygy_of_power(w_prev, b, n)
        x_up = _syzygy_of_power(w_prev, b, n + 1)
        if not ext_vanishes_through(x_up, reg, 1)[0]:
            raise CertificateError(
                f"step {idx}: Ext^1 of the shifted right term against "
                "the ring is nonzero")
        # theta: old right term == syz^n of the repackaged previous module
        pw_b_old = power_module(prev_old, b)
        rho_b = ModuleMap(pw_b_old, power_module(rho.target, b),
                          Matrix.block_diag(fld, [rho.matrix] * b))
        omega_rho = omega_of_map(rho_b, steps=n)
        theta_mat = omega_rho.matrix @ step.witness.matrix
        ses_old = ShortExactSequence(
            ModuleMap(power_module(prev_old, a), mid_old, ses.inject.matrix),
            ModuleMap(mid_old, x_up, theta_mat @ ses.project.matrix))
        # the old step's cocycle read in syz(w_prev^a): the syzygy rows of
        # rho, per copy; pushed forward, coboundaries stay coboundaries
        s_prev = rho.target.summands[0][0].dim
        psi_new = Matrix.block_diag(
            fld, [rho.matrix.take_rows(range(s_prev))] * a) @ psi_of_ses(ses_old)
        # the class lifts: with Ext^1(x_up, R) = 0 the shift is onto on
        # degree-one classes (dimension shifting)
        data_w, data_shift, smap = ext_syzygy_map(right_w, power_module(w_prev, a))
        ses_w = extension_from_class(data_w, smap.solve(data_shift.class_of_psi(psi_new)))
        z2, i2, p2 = _padded(horseshoe(ses_w), a, c_prev)
        i2 = i2 @ Matrix.block_diag(fld, [rho.matrix] * a)
        # the two extensions share end maps, so a connecting map, the next
        # rho, with rho i1 = i2 and p2 rho = p1 exists iff their classes
        # agree, and is an isomorphism (five lemma)
        rho = hom_solve(mid_old, z2, ses_old.inject.matrix, i2, p2,
                        ses_old.project.matrix)
        new_steps.append(ReducingStep(
            a, b, n, ses_w, ModuleMap.identity(right_w)))
        w_prev = ses_w.middle
        prev_old = mid_old
        c_prev = z2.summands[1][0].free_rank
    lifted = ReducingSequence(module, new_steps, seq.target)
    report = verify(lifted, window=window)
    if not report.ok:
        raise CertificateError(
            f"transported chain failed verification: {report.reason}")
    return lifted
