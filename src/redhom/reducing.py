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
import json
import random

import numpy as np

from .algebra import Algebra, algebra_from_presentation
from .linalg import Matrix, contract, random_matrix
from .modules import (
    Module,
    ModuleError,
    ModuleMap,
    ShortExactSequence,
    direct_sum,
    free_map_from_columns,
    free_module,
    hom_space_matrix,
    is_isomorphic,
    power_module,
    regular_module,
    split_free_summands,
    split_ses,
)
from .resolution import resolve, syzygy
from .homalg import (
    class_of_ses,
    ext1_data,
    ext_dim,
    ext_syzygy_map,
    ext_vanishes_through,
    extension_from_class,
    extension_from_psi,
    horseshoe,
)

TARGETS = ("pd", "gdim")
MAX_MIDDLE_DIM = 4096  # the search skips candidate middles larger than this
FORMAT_TAG = "reducing-certificate/1"


class CertificateError(RuntimeError):
    """A chain construction or transport produced inconsistent data."""


class CertificateFormatError(ValueError):
    """A serialized certificate is malformed; `pointer` locates the field."""

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
    if n == 0:
        return power_module(mod, b)
    return resolve(power_module(mod, b)).syzygy_module(n)


def _modules_equal(m1: Module, m2: Module) -> bool:
    if m1 is m2:
        return True
    if m1.dim != m2.dim:
        return False
    return all(m1.var_actions[v] == m2.var_actions[v]
               for v in range(m1.algebra.nvars))


# -- serialization ------------------------------------------------------


def module_to_dict(mod: Module) -> dict:
    return {"dim": mod.dim,
            "actions": [m.to_str_rows() for m in mod.var_actions]}


def module_from_dict(alg: Algebra, data, pointer: str) -> Module:
    if not isinstance(data, dict):
        raise CertificateFormatError(pointer, "expected an object")
    dim = data.get("dim")
    if type(dim) is not int or dim < 0:
        raise CertificateFormatError(pointer + "/dim",
                                     "expected a nonnegative integer")
    acts = data.get("actions")
    if not isinstance(acts, list) or len(acts) != alg.nvars:
        raise CertificateFormatError(
            pointer + "/actions",
            f"expected a list of {alg.nvars} matrices")
    mats = []
    for v, rows in enumerate(acts):
        mats.append(_matrix_from_rows(alg, rows, dim, dim,
                                      f"{pointer}/actions/{v}"))
    try:
        return Module(alg, dim, mats)
    except ModuleError as exc:
        raise CertificateFormatError(pointer, str(exc))


def _matrix_from_rows(alg: Algebra, rows, nrows: int, ncols: int,
                      pointer: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise CertificateFormatError(pointer, f"expected {nrows} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise CertificateFormatError(f"{pointer}/{i}",
                                         f"expected {ncols} entries")
    if not all(isinstance(e, str) for row in rows for e in row):
        raise CertificateFormatError(pointer, "expected a matrix of strings")
    if nrows == 0:
        # no rows to carry the width, so rebuild the shape directly
        return Matrix.zeros(alg.field, 0, ncols)
    try:
        return Matrix.from_str_rows(alg.field, rows)
    except (ValueError, TypeError) as exc:
        raise CertificateFormatError(pointer, f"bad entry: {exc}")


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
        raise CertificateFormatError("", "expected an object")
    if data.get("format") != FORMAT_TAG:
        raise CertificateFormatError("/format",
                                     f"expected {FORMAT_TAG!r}")
    target = data.get("target")
    if target not in TARGETS:
        raise CertificateFormatError("/target",
                                     f"expected one of {list(TARGETS)}")
    pres = data.get("algebra")
    if not isinstance(pres, dict):
        raise CertificateFormatError("/algebra", "expected an object")
    try:
        alg = algebra_from_presentation(pres)
    except (ValueError, KeyError, TypeError) as exc:
        raise CertificateFormatError("/algebra", str(exc))
    if algebra is not None:
        if algebra.presentation() != alg.presentation():
            raise CertificateFormatError(
                "/algebra", "presentation does not match the workspace ring")
        alg = algebra
    base = module_from_dict(alg, data.get("base"), "/base")
    raw_steps = data.get("steps")
    if not isinstance(raw_steps, list):
        raise CertificateFormatError("/steps", "expected a list")
    steps = []
    prev = base
    for i, raw in enumerate(raw_steps):
        ptr = f"/steps/{i}"
        if not isinstance(raw, dict):
            raise CertificateFormatError(ptr, "expected an object")
        params = {}
        for key in ("a", "b", "n"):
            val = raw.get(key)
            if type(val) is not int or val < 1:
                raise CertificateFormatError(f"{ptr}/{key}",
                                             "expected a positive integer")
            params[key] = val
        middle = module_from_dict(alg, raw.get("middle"), ptr + "/middle")
        right = module_from_dict(alg, raw.get("right"), ptr + "/right")
        left = power_module(prev, params["a"])
        inj = _matrix_from_rows(alg, raw.get("inject"), middle.dim, left.dim,
                                ptr + "/inject")
        proj = _matrix_from_rows(alg, raw.get("project"), right.dim,
                                 middle.dim, ptr + "/project")
        rebuilt = _syzygy_of_power(prev, params["b"], params["n"])
        wit = _matrix_from_rows(alg, raw.get("witness"), rebuilt.dim,
                                right.dim, ptr + "/witness")
        ses = ShortExactSequence(
            ModuleMap(left, middle, inj, validate=False),
            ModuleMap(middle, right, proj, validate=False))
        steps.append(ReducingStep(
            params["a"], params["b"], params["n"], ses,
            ModuleMap(right, rebuilt, wit, validate=False)))
        prev = middle
    return ReducingSequence(base, steps, target)


def save_certificate(seq: ReducingSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path, algebra: Algebra = None) -> ReducingSequence:
    with open(path) as fh:
        data = json.load(fh)
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
        if wit.source is not ses.right and not _modules_equal(
                wit.source, ses.right):
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
        from .invariants import is_totally_reflexive
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
    samples: int = 4  # random cocycle combinations tried per cell
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
        self.rng = random.Random(cfg.seed)
        self.spent = 0
        self.exhausted = False

    def charge(self) -> bool:
        """Consume one candidate; False once the budget is gone."""
        if self.spent >= self.cfg.budget:
            self.exhausted = True
            return False
        self.spent += 1
        return True


# Free modules, totally reflexive modules and the windowed test below are
# all closed under direct summands.  `_dfs` relies on that to skip, at the
# last depth, every candidate middle that has its node's module (already
# found not terminal) as a summand.
def _is_terminal(mod: Module, target: str, window: int) -> bool:
    if target == "pd":
        return mod.is_free()
    from .invariants import is_totally_reflexive
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
    mat = Matrix.zeros(fld, (c + g) * d, pw_a.dim)
    mat.a[:c * d, :c * d] = Matrix.identity(fld, c * d).a
    mat.a[c * d:, c * d:] = emb.a
    inj = mat @ peel.iso.inverse().matrix
    proj = Matrix.zeros(fld, right.dim, (c + g) * d)
    proj.a[:, c * d:] = resolve(right).cover_matrix().a
    ses = ShortExactSequence(
        ModuleMap(pw_a, middle, inj, validate=False),
        ModuleMap(middle, right, proj, validate=False))
    return ReducingStep(a, b, n, ses, ModuleMap.identity(right))


def _combination_psi(fld, psis, coeffs, a, b):
    """Assemble the block cocycle with block (i, j) = sum_l c[i,j,l] psi_l;
    `psis` is the (L, rows, cols) array of the psi_l (or their list)."""
    psis = np.asarray(psis)
    n, rows, cols = psis.shape
    big = contract(fld, "ijl,lrc->irjc", coeffs.a.reshape(a, b, n), psis)
    return Matrix(fld, big.reshape(a * rows, b * cols))


def _dfs(mod: Module, depth: int, st: _SearchState):
    cfg = st.cfg
    if _is_terminal(mod, st.target, cfg.window):
        return []
    if depth >= cfg.max_r or st.exhausted:
        return None
    alg = mod.algebra
    fld = alg.field
    power = functools.cache(functools.partial(power_module, mod))
    peels = functools.cache(lambda a: split_free_summands(power(a)))
    small_cache = {}
    cells = []
    # first pass: free-middle closures; cost nothing, close the chain
    for n in range(1, cfg.max_n + 1):
        for b in range(1, cfg.max_b + 1):
            res_pow = resolve(power(b))
            right = res_pow.syzygy_module(n)
            if right.dim == 0:
                continue
            nxt = res_pow.syzygy_module(n + 1)
            for a in range(1, cfg.max_a + 1):
                peel = peels(a)
                # stable identification: mod^a = free + syz^{n+1}(mod^b)
                ver = is_isomorphic(peel.remainder, nxt, seed=cfg.seed)
                if ver.kind == "yes":
                    step = _free_middle_step(mod, a, b, n, res_pow, peel,
                                             ver.witness)
                    return [step]  # free middle, terminal for both targets
                cells.append((n, b, a, right))
    # second pass: extension candidates, charged against the budget.  At
    # the last depth a middle is only tested for terminality; one that has
    # `mod` as a summand cannot pass, so it is charged but never built.
    # That covers the split middle and every class whose a x (b d)
    # coefficient matrix has rank < a: a change of basis of mod^a then
    # zeroes a row, and that copy of mod splits off.
    last = depth + 1 >= cfg.max_r
    for n, b, a, right in cells:
        if st.exhausted:
            return None
        # split middle: the zero extension class
        if not st.charge():
            return None
        fits = a * mod.dim + right.dim <= MAX_MIDDLE_DIM
        if fits and not last:
            ses = split_ses(power(a), right)
            step = ReducingStep(a, b, n, ses, ModuleMap.identity(right))
            rest = _dfs(ses.middle, depth + 1, st)
            if rest is not None:
                return [step] + rest
        # glued middles from nonzero degree-one cocycle classes
        if n not in small_cache:
            small = ext1_data(resolve(mod).syzygy_module(n), mod)
            small_cache[n] = small, small.psis(small.reps)
        small, psis = small_cache[n]
        if small.dim == 0:
            continue
        # the unit coefficient matrices, position (i * b + j, l) ascending
        units = Matrix.identity(fld, a * b * small.dim).a
        coeff_list = [Matrix(fld, u.reshape(a * b, small.dim)) for u in units]
        for _ in range(cfg.samples):
            rnd = random_matrix(fld, a * b, small.dim, st.rng)
            if not rnd.is_zero():
                coeff_list.append(rnd)
        for coeffs in coeff_list:
            if not st.charge():
                return None
            if not fits:
                continue
            if last and Matrix(fld, coeffs.a.reshape(
                    a, b * small.dim)).rank() < a:
                continue
            psi = _combination_psi(fld, psis, coeffs, a, b)
            if psi.is_zero():
                continue
            ses = extension_from_psi(power(a), right, psi)
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
    first: it closes the chain immediately and costs no budget.  Each
    cell then tries the split extension and extensions glued from
    degree-one cocycle classes, all basis classes before seeded random
    combinations.  Every extension class considered counts against the
    budget, whether or not its middle is built: at the last depth
    (`max_r`) the split middle and every class whose coefficient matrix
    has rank below a contain the node's module as a summand, so they
    cannot be terminal and are charged without being built.  The search
    is deterministic for a fixed seed.
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

    Lifts g generator-wise to a map of covers and restricts to the kernels.
    When g is an isomorphism the transported map must be one as well; a
    rank drop means the lift went wrong and raises CertificateError.
    """
    out = g
    for _ in range(steps):
        was_iso = out.is_isomorphism()
        res_x = resolve(out.source)
        res_y = resolve(out.target)
        alg = out.source.algebra
        sols, ok = res_y.cover_matrix().solve_columns(
            out.matrix @ res_x.generator_images(0))
        if not all(ok):
            raise CertificateError("cover lift failed to exist")
        u = free_map_from_columns(alg, res_y.betti(0), sols)
        full = u @ res_x.syzygy_subspace(1)
        new_mat = full.take_rows(res_y.free_positions(1))
        out = ModuleMap(res_x.syzygy_module(1), res_y.syzygy_module(1),
                        new_mat, validate=False)
        if was_iso and not out.is_isomorphism():
            raise CertificateError("syzygy transport lost invertibility")
    return out


def transform_syzygy(seq: ReducingSequence,
                     window: int = 10) -> ReducingSequence:
    """Turn a chain for M into a chain for syz(M), step by step.

    Each step is pushed through the horseshoe construction; the free
    modules that the horseshoe inserts are carried along as padding on
    every later chain module, so the new chain modules are literal sums
    syz(old module) + free.  Parameters (a, b, n) are preserved.
    Rejects input that does not verify.
    """
    report = verify(seq, window=window)
    if not report.ok:
        raise CertificateError(
            f"input chain failed verification: {report.reason}")
    alg = seq.base.algebra
    d = alg.dim
    fld = alg.field
    new_base = syzygy(seq.base, 1)
    prev_old = seq.base
    prev_new = new_base
    c_prev = 0
    new_steps = []
    for step in seq.steps:
        a, b, n = step.a, step.b, step.n
        ses = step.sequence
        left_lit = power_module(prev_old, a)
        if not _modules_equal(ses.left, left_lit):
            raise CertificateError(
                "chain step left term does not match the previous module")
        # normalize the right term to the literal rebuilt syzygy
        proj_norm = ModuleMap(ses.middle, step.witness.target,
                              step.witness.matrix @ ses.project.matrix,
                              validate=False)
        shoe = horseshoe(ShortExactSequence(
            ModuleMap(left_lit, ses.middle, ses.inject.matrix,
                      validate=False),
            proj_norm))
        s_prev = syzygy(prev_old, 1).dim
        s_mid = resolve(ses.middle).syzygy_module(1).dim
        f = shoe.free_rank
        pad = a * c_prev
        middle_new = direct_sum(
            [resolve(ses.middle).syzygy_module(1),
             free_module(alg, f + pad)])
        src = power_module(prev_new, a)
        inj = Matrix.zeros(fld, middle_new.dim, src.dim)
        blk = s_prev + c_prev * d
        for t in range(a):
            inj.a[:s_mid + f * d, t * blk:t * blk + s_prev] = \
                shoe.sequence.inject.matrix.a[:, t * s_prev:(t + 1) * s_prev]
            row0 = s_mid + f * d + t * c_prev * d
            inj.a[row0:row0 + c_prev * d,
                  t * blk + s_prev:(t + 1) * blk] = \
                Matrix.identity(fld, c_prev * d).a
        right_new = shoe.sequence.right
        proj = Matrix.zeros(fld, right_new.dim, middle_new.dim)
        proj.a[:, :s_mid + f * d] = shoe.sequence.project.matrix.a
        rebuilt = _syzygy_of_power(prev_new, b, n)
        if rebuilt.dim != right_new.dim:
            raise CertificateError("transported right term has wrong size")
        new_steps.append(ReducingStep(
            a, b, n,
            ShortExactSequence(
                ModuleMap(src, middle_new, inj, validate=False),
                ModuleMap(middle_new, right_new, proj, validate=False)),
            ModuleMap(right_new, rebuilt,
                      Matrix.identity(fld, rebuilt.dim), validate=False)))
        prev_old = ses.middle
        prev_new = middle_new
        c_prev = f + pad
    return ReducingSequence(new_base, new_steps, seq.target)


# -- cosyzygy transport -------------------------------------------------


@dataclass
class CosyzygyOutcome:
    ok: bool
    sequence: object
    reason: str


def _rejected(reason: str) -> CosyzygyOutcome:
    return CosyzygyOutcome(False, None, reason)


def transform_cosyzygy(seq: ReducingSequence, module: Module,
                       window: int = 10) -> CosyzygyOutcome:
    """Lift a chain for syz(module) back to a chain for `module`.

    Requires Ext^i(base, R) = 0 for i = 1..window, where base is the
    chain's base module; the construction solves extension classes
    backwards through the syzygy shift, and that vanishing is what makes
    the shift on degree-one classes surjective.  When the hypotheses fail
    the outcome reports a structured rejection rather than raising.
    """
    alg = module.algebra
    fld = alg.field
    d = alg.dim
    reg = regular_module(alg)
    okv, bad = ext_vanishes_through(seq.base, reg, window)
    if not okv:
        return _rejected(
            f"Ext^{bad}(chain base, ring) is nonzero; cosyzygy transport "
            "needs ring-dual vanishing through the window")
    if seq.steps and max(s.n for s in seq.steps) + 2 > window:
        return _rejected("window too small for the step syzygy depths")
    report = verify(seq, window=window)
    if not report.ok:
        return _rejected(f"input chain failed verification: {report.reason}")
    # rho: old chain module -> syz(new chain module) + free, maintained
    # as the induction moves down the chain
    omega_n = syzygy(module, 1)
    c_prev = max((seq.base.dim - omega_n.dim) // d, 0)
    pack = direct_sum([omega_n, free_module(alg, c_prev)])
    rho = is_isomorphic(seq.base, pack).witness
    if rho is None:
        return _rejected("chain base is not a syzygy of the module "
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
        if ext_dim(x_up, reg, 1) != 0:
            return _rejected(
                f"step {idx}: Ext^1 of the shifted right term against "
                "the ring is nonzero")
        # theta: old right term == syz^n of the repackaged previous module
        pw_b_old = power_module(prev_old, b)
        rho_b = ModuleMap(pw_b_old, power_module(rho.target, b),
                          Matrix.block_diag(fld, [rho.matrix] * b),
                          validate=False)
        omega_rho = omega_of_map(rho_b, steps=n)
        theta_mat = omega_rho.matrix @ step.witness.matrix
        if x_up.dim != omega_rho.target.dim:
            raise CertificateError("shifted right term has wrong size")
        left_lit = power_module(prev_old, a)
        data_k = ext1_data(x_up, left_lit)
        ses_old = ShortExactSequence(
            ModuleMap(left_lit, mid_old, ses.inject.matrix, validate=False),
            ModuleMap(mid_old, x_up,
                      theta_mat @ ses.project.matrix, validate=False))
        eta = class_of_ses(data_k, ses_old)
        psi_eta = data_k.psi_from_class(eta)
        # repackage the left term: kappa gathers the a syzygy blocks in
        # front and the a free blocks behind
        s_prev = rho.target.summands[0][0].dim
        blk = s_prev + c_prev * d
        kappa = Matrix.zeros(fld, a * blk, a * blk)
        for t in range(a):
            kappa.a[t * s_prev:(t + 1) * s_prev,
                    t * blk:t * blk + s_prev] = \
                Matrix.identity(fld, s_prev).a
            row0 = a * s_prev + t * c_prev * d
            kappa.a[row0:row0 + c_prev * d,
                    t * blk + s_prev:(t + 1) * blk] = \
                Matrix.identity(fld, c_prev * d).a
        kappa_full = kappa @ Matrix.block_diag(fld, [rho.matrix] * a)
        pw_a_w = power_module(w_prev, a)
        omega_aw = resolve(pw_a_w).syzygy_module(1)
        psi_new = (kappa_full @ psi_eta).take_rows(range(omega_aw.dim))
        smap = ext_syzygy_map(right_w, pw_a_w)
        eta_shift = smap.target_data.class_of_flat(
            smap.target_data.flat_from_psi(psi_new))
        coords = smap.matrix.solve(eta_shift)
        if coords is None:
            raise CertificateError(
                f"step {idx}: degree-one class does not lift through "
                "the syzygy shift")
        ses_w = extension_from_class(smap.source_data, coords)
        shoe = horseshoe(ses_w)
        f = shoe.free_rank
        omega_mid = resolve(ses_w.middle).syzygy_module(1)
        z2 = direct_sum([omega_mid,
                         free_module(alg, f + a * c_prev)])
        i2 = Matrix.zeros(fld, z2.dim, a * blk)
        i2.a[:omega_mid.dim + f * d, :a * s_prev] = \
            shoe.sequence.inject.matrix.a
        i2.a[omega_mid.dim + f * d:, a * s_prev:] = \
            Matrix.identity(fld, a * c_prev * d).a
        i2 = i2 @ kappa_full
        p2 = Matrix.zeros(fld, x_up.dim, z2.dim)
        p2.a[:, :omega_mid.dim + f * d] = shoe.sequence.project.matrix.a
        ses_check = ShortExactSequence(
            ModuleMap(left_lit, z2, i2, validate=False),
            ModuleMap(z2, x_up, p2, validate=False))
        if not (class_of_ses(data_k, ses_check) == eta):
            raise CertificateError(
                f"step {idx}: transported extension class mismatch")
        # the two extensions share end maps, so a connecting map solved
        # in the space of module maps is an isomorphism (five lemma)
        # column j: basis map j of Hom(mid_old, z2) after i1, then p2
        # after it, flattened; the connecting map matches i2 and p1
        hom = hom_space_matrix(mid_old, z2)
        h = hom.cols
        maps = hom.a.reshape(z2.dim, mid_old.dim, h)
        i1, p1 = ses_old.inject.matrix, ses_old.project.matrix
        sysmat = np.vstack([
            contract(fld, "abj,bc->acj", maps, i1.a).reshape(i2.a.size, h),
            contract(fld, "ca,abj->cbj", p2.a, maps).reshape(p1.a.size, h)])
        rhs = np.concatenate([i2.a.ravel(), p1.a.ravel()])[:, None]
        coeffs = Matrix(fld, sysmat).solve(Matrix(fld, rhs))
        if coeffs is None:
            raise CertificateError(
                f"step {idx}: equivalent extensions admit no connecting map")
        tau_mat = Matrix(fld, (hom @ coeffs).a.reshape(z2.dim, mid_old.dim))
        tau = ModuleMap(mid_old, z2, tau_mat, validate=False)
        if not tau.is_isomorphism():
            raise CertificateError(
                f"step {idx}: connecting map is not invertible")
        new_steps.append(ReducingStep(
            a, b, n, ses_w, ModuleMap.identity(right_w)))
        rho = tau
        w_prev = ses_w.middle
        prev_old = mid_old
        c_prev = f + a * c_prev
    lifted = ReducingSequence(module, new_steps, seq.target)
    report = verify(lifted, window=window)
    if not report.ok:
        return _rejected(
            f"transported chain failed verification: {report.reason}")
    return CosyzygyOutcome(True, lifted, "")
