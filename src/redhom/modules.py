"""Finitely generated modules over a local algebra, as explicit
matrix representations.

A module of k-dimension m stores its variable actions once, as one
read-only (nvars, m, m) array (`var_stack`) that every consumer reads
with one contraction or reshape; basis element b_t acts as the monomial
product of those matrices, all built once per module into one read-only
(dim R, m, m) array (`action_stack()`).  Free modules of rank g use the
block layout in which coordinate j*d + t is the t-th algebra basis
coordinate of the j-th generator.  They act like every other module,
through dense arrays, but share them: the algebra's block-diagonal
copies, kept once per rank (`Algebra.free_varmat`, `free_action_stack`).  What other layers compute
from a module's actions alone (resolution steps, Ext ranks, the ring
dual, the pushforward, the free split) is kept once per algebra and
actions, in an entry of the algebra's table (`shared`).  `power_module`
returns one object per (module, a), kept on the module.

Direct sums remember their parts and offsets, so downstream constructions
(resolutions, syzygies, searches) can work blockwise and return literal
equalities instead of isomorphism witnesses.

Isomorphism is decided exactly on the tops M/mM, in the coordinates of
`min_generators`: a map is bijective when its top is (Nakayama), and
J(End M) is the preimage of the radical of End(M)'s image in End(M/mM).
`is_isomorphic` answers yes or no from the forms that radical gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .algebra import Algebra, structure
from .linalg import (Field, Matrix, algebra_radical,
                     column_space_basis, contract, nf_columns)


class ModuleError(ValueError):
    """Raised for ill-formed modules or maps."""


class Module:
    """One module: a commuting variable representation over an algebra,
    taken as one (nvars, dim, dim) array-like (a list of `Matrix` too).
    Building a module checks only its shape; `validate_module` checks that
    the actions commute and satisfy the algebra's relations, and is called
    where actions come from outside input (`reducing.module_from_dict`).
    Kept on it once computed: action stack, radical and socle dimensions,
    top (`top`), its entry in the algebra's table of actions (`shared`),
    its powers (`power_module`) and its resolution (`resolution.resolve`),
    whose charges and labelled syzygy modules are its own."""

    __slots__ = ("algebra", "dim", "label", "free_rank", "summands",
                 "_actions", "_stack", "_radical", "_socle", "_top",
                 "_resolution", "_shared", "_powers")

    def __init__(self, algebra: Algebra, dim: int, actions, label: str = "",
                 free_rank: int | None = None):
        self.algebra = algebra
        self.dim = dim
        self.label = label
        self.free_rank = free_rank
        self.summands: list[tuple["Module", int]] | None = None
        self._actions = None
        self._stack = None
        self._radical = self._socle = self._top = None
        self._resolution = self._shared = self._powers = None
        if actions is not None:
            try:
                acts = np.asarray(actions, dtype=algebra.field.dtype)
                acts = acts.reshape(0, dim, dim) if acts.shape == (0,) else acts
            except ValueError:  # ragged: matrices of different shapes
                acts = None
            if acts is None or acts.shape != (algebra.nvars, dim, dim):
                raise ModuleError("variable action has wrong shape")
            acts.flags.writeable = False
            self._actions = acts

    # -- actions ---------------------------------------------------------

    @property
    def var_stack(self) -> np.ndarray:
        """The variable actions, one read-only (nvars, dim, dim) array."""
        if self._actions is None:
            return self.algebra.free_varmat(self.free_rank)
        return self._actions

    @property
    def var_actions(self) -> list[Matrix]:
        """Read-only `Matrix` views of `var_stack`, one per variable."""
        return [Matrix(self.algebra.field, a) for a in self.var_stack]

    def action_stack(self) -> np.ndarray:
        """All basis-element actions as one read-only (dim R, m, m) array,
        built once: b_t = x_v b_s acts as one product per degree and
        variable (`Algebra.monomial_steps`)."""
        alg = self.algebra
        if self.free_rank is not None:
            return alg.free_action_stack(self.free_rank)
        if self._stack is None:
            stack = alg.field.zeros((alg.dim, self.dim, self.dim))
            stack[0] = Matrix.identity(alg.field, self.dim).a
            for v, t, s in alg.monomial_steps:
                stack[t] = contract(alg.field, "ab,sbc->sac",
                                    self.var_stack[v], stack[s])
            stack.flags.writeable = False
            self._stack = stack
        return self._stack

    # -- structure -------------------------------------------------------

    def radical_dim(self) -> int:
        """dim mM: the rank of the variable actions side by side (x_v's
        columns span x_v M), summed over the parts of a remembered sum."""
        if self._radical is None:
            alg = self.algebra
            self._radical = sum(p.radical_dim() for p, _ in self.summands) \
                if self.summands else Matrix(alg.field, self.var_stack.transpose(
                    1, 0, 2).reshape(self.dim, alg.nvars * self.dim)).rank()
        return self._radical

    def socle_dim(self) -> int:
        """dim soc M: dim M minus the rank of the variable actions stacked,
        summed over the parts of a remembered sum."""
        if self._socle is None:
            alg = self.algebra
            self._socle = sum(p.socle_dim() for p, _ in self.summands) \
                if self.summands else self.dim - Matrix(alg.field, self.var_stack
                    .reshape(alg.nvars * self.dim, self.dim)).rank()
        return self._socle

    def top(self) -> tuple[Matrix, list[int]]:
        """Kernel data of the actions' transposes stacked, read-only: free
        positions indexing a basis of M/mM, and a basis whose transpose
        projects onto it (an rref is unique for its row space, so any
        spanning set of mM, transposed, gives the same data)."""
        if self._top is None:
            alg = self.algebra
            self._top = Matrix(alg.field, self.var_stack.transpose(0, 2, 1).reshape(
                alg.nvars * self.dim, self.dim)).kernel_data()
            self._top[0].a.flags.writeable = False
        return self._top

    def gens_count(self) -> int:
        if self.free_rank is not None:
            return self.free_rank
        return self.dim - self.radical_dim()

    def min_generators(self) -> Matrix:
        """Unit-vector generators: a basis of the module modulo its radical."""
        fld = self.algebra.field
        if self.free_rank is not None:  # each generator's unit coordinate
            free_pos = list(range(0, self.dim, self.algebra.dim))
        else:
            free_pos = self.top()[1]
        out = Matrix.zeros(fld, self.dim, len(free_pos))
        out.a[free_pos, range(len(free_pos))] = fld.one()
        return out

    def is_free(self) -> bool:
        """Arithmetic freeness test: minimal cover has matching dimension."""
        if self.free_rank is not None:
            return True
        if self.dim == 0:
            return True
        return self.dim == self.gens_count() * self.algebra.dim

    def is_radical_killed(self) -> bool:
        """True when the maximal ideal acts as zero."""
        return self.radical_dim() == 0

    def __repr__(self):
        tag = self.label or "module"
        return f"Module({tag}, dim={self.dim} over {self.algebra.field})"


def shared(mod: Module) -> dict:
    """The entry of the module's actions in its algebra's table, shared by
    every module with those actions and looked up once per module.  The
    key is the dimension and the action array's values (the field's
    `key`); a free module's is its rank, so no free action is built to
    key it."""
    if mod._shared is None:
        key = ("free", mod.free_rank) if mod.free_rank is not None else (
            mod.dim, mod.algebra.field.key(mod.var_stack))
        mod._shared = mod.algebra._table.setdefault(key, {})
    return mod._shared


def free_products(alg: Algebra, gens: list[dict]) -> list[dict]:
    """For each element g of a free module ({row: entry}), the nonzeros of
    its products b_t g as one dict {(t, row): entry}, read off the
    "columns" structure (coefficient c at gather b and slot (a, t): b_t
    b_b has c at b_a); one t's keys in the order the terms of g meet them."""
    d, norm = alg.dim, alg.field.coerce
    by_b = structure(alg, "columns")
    out = []
    for g in gens:
        img: dict = {}
        for r, x in g.items():
            for (a, t), c in by_b.get(r % d, ()):
                key = t, r - r % d + a
                if w := norm(img.get(key, 0) + c * x):
                    img[key] = w
                else:
                    del img[key]
        out.append(img)
    return out


def free_map_columns(alg: Algebra, gens: list[dict]) -> list[dict]:
    """Sparse columns of the map free(len(gens)) -> free sending generator
    j to gens[j]: column j*d + t is b_t times it (`free_products`)."""
    out: list[dict] = [{} for _ in range(len(gens) * alg.dim)]
    for j, img in enumerate(free_products(alg, gens)):
        for (t, k), x in img.items():
            out[j * alg.dim + t][k] = x
    return out


def assemble_action_columns(mod: Module, gens: Matrix) -> Matrix:
    """k-matrix of free(g) -> mod sending generator j to column j of
    `gens`; column j*d + t is basis element t acting on that image."""
    fld = mod.algebra.field
    out = contract(fld, "tab,bj->ajt", mod.action_stack(), gens.a)
    return Matrix(fld, out.reshape(mod.dim, gens.cols * mod.algebra.dim))


def validate_module(mod: Module) -> None:
    """Check commuting actions compatible with the multiplication table,
    as building a `Module` does not; see `reducing.module_from_dict`."""
    alg, fld, va = mod.algebra, mod.algebra.field, mod.var_stack
    prod = contract(fld, "uab,vbc->uvac", va, va)
    if not (prod == prod.transpose(1, 0, 2, 3)).all():
        raise ModuleError("variable actions do not commute")
    # x_v b_t = sum_u var_stack[v, u, t] b_u, for every variable v and basis
    # element t
    stack = mod.action_stack()
    if not (contract(fld, "vab,tbc->vtac", va, stack) == contract(
            fld, "vut,uab->vtab", alg.var_stack, stack)).all():
        raise ModuleError("actions violate an algebra relation")


# -- constructors ----------------------------------------------------------


def zero_module(alg: Algebra) -> Module:
    return Module(alg, 0, alg.field.zeros((alg.nvars, 0, 0)), label="0", free_rank=0)


def residue_field(alg: Algebra) -> Module:
    return Module(alg, 1, alg.field.zeros((alg.nvars, 1, 1)), label="k")


def free_module(alg: Algebra, rank: int, label: str = "") -> Module:
    """The free module of rank g >= 0, one per (algebra, rank, label), kept
    in the rank's entry of the algebra's table (`shared`)."""
    if rank == 0:
        return zero_module(alg)
    mods = alg._table.setdefault(("free", rank), {}).setdefault("modules", {})
    if label not in mods:
        mods[label] = Module(alg, rank * alg.dim, None, label=label or (
            f"R^{rank}" if rank > 1 else "R"), free_rank=rank)
    return mods[label]


def regular_module(alg: Algebra) -> Module:
    return free_module(alg, 1)


def direct_sum(parts: list[Module], label: str = "") -> Module:
    """Direct sum remembering parts and offsets; sums of frees stay free."""
    if not parts:
        raise ModuleError("direct sum of nothing; use zero_module")
    alg = parts[0].algebra
    for p in parts:
        if p.algebra is not alg:
            raise ModuleError("direct sum across different algebras")
    if len(parts) == 1:
        return parts[0]
    dim = sum(p.dim for p in parts)
    offsets = list(zip(parts, accumulate((p.dim for p in parts), initial=0)))
    if all(p.free_rank is not None for p in parts):
        va, fr = None, sum(p.free_rank for p in parts)
    else:  # the parts' arrays as diagonal blocks of one array
        va, fr = alg.field.zeros((alg.nvars, dim, dim)), None
        for p, off in offsets:
            va[:, off:off + p.dim, off:off + p.dim] = p.var_stack
    out = Module(alg, dim, va, label=label or "+".join(p.label or "?" for p in parts),
                 free_rank=fr)
    out.summands = offsets
    return out


def power_module(mod: Module, a: int) -> Module:
    if a < 0:
        raise ModuleError("negative power")
    if a == 0:
        return zero_module(mod.algebra)
    if a == 1:
        return mod
    powers = mod._powers = mod._powers or {}
    if a not in powers:
        powers[a] = direct_sum([mod] * a, label=mod.label and f"({mod.label})^{a}")
    return powers[a]


def injection_map(summed: Module, idx: int) -> "ModuleMap":
    part, off = summed.summands[idx]
    m = Matrix.zeros(summed.algebra.field, summed.dim, part.dim)
    m.a[off:off + part.dim, :] = Matrix.identity(summed.algebra.field, part.dim).a
    return ModuleMap(part, summed, m)


def projection_map(summed: Module, idx: int) -> "ModuleMap":
    part, off = summed.summands[idx]
    m = Matrix.zeros(summed.algebra.field, part.dim, summed.dim)
    m.a[:, off:off + part.dim] = Matrix.identity(summed.algebra.field, part.dim).a
    return ModuleMap(summed, part, m)


def from_presentation(alg: Algebra, n_gens: int, rel_rows: list[list[str]],
                      label: str = "") -> Module:
    """Cokernel of the map free(s) -> free(n_gens) given by a relation
    matrix with polynomial-string entries, one equal-length row per generator."""
    s = len(rel_rows[0]) if rel_rows and rel_rows[0] else 0
    if s == 0:  # free, the zero module for no generators
        return free_module(alg, n_gens, label=label)
    return presented_module(alg, np.array(
        [[alg.element_from_string(rel_rows[i][j]).a[:, 0] for i in range(n_gens)]
         for j in range(s)], dtype=alg.field.dtype), label)


def presented_module(alg: Algebra, relations: np.ndarray, label: str = "") -> Module:
    """Cokernel of the map free(s) -> free(g) sending generator j to the
    element with basis coordinates relations[j, i] on generator i, for an
    (s, g, dim R) array."""
    s, g, d = relations.shape
    stacked = Matrix(alg.field, relations.transpose(1, 2, 0).reshape(g * d, s))
    free = free_module(alg, g)
    return quotient_module(free, assemble_action_columns(free, stacked), label=label)[0]


# -- maps ------------------------------------------------------------------


class ModuleMap:
    """An algebra-linear map between modules, as a k-matrix on coordinates.

    Building a map checks only its shape; `check_linear` checks that it
    commutes with the actions, and is called where maps come from outside
    input (`ShortExactSequence.validate`, `reducing.verify`)."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Module, target: Module, matrix: Matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ModuleError(
                f"map shape {matrix.rows}x{matrix.cols} does not match "
                f"{target.dim}x{source.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix

    def check_linear(self) -> None:
        """x_v f = f x_v for every variable v, one contraction per side."""
        fld, f = self.matrix.field, self.matrix.a
        if not (contract(fld, "vab,bc->vac", self.target.var_stack, f) == contract(
                fld, "ab,vbc->vac", f, self.source.var_stack)).all():
            raise ModuleError("map does not commute with the actions")

    @staticmethod
    def identity(mod: Module) -> "ModuleMap":
        return ModuleMap(mod, mod, Matrix.identity(mod.algebra.field, mod.dim))

    @staticmethod
    def zero(source: Module, target: Module) -> "ModuleMap":
        return ModuleMap(source, target,
                         Matrix.zeros(source.algebra.field, target.dim, source.dim))

    def rank(self) -> int:
        return self.matrix.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_isomorphism(self) -> bool:
        return (self.source.dim == self.target.dim
                and self.rank() == self.source.dim)

    def inverse(self) -> "ModuleMap":
        inv = self.matrix.inverse()
        if inv is None:
            raise ModuleError("map is not invertible")
        return ModuleMap(self.target, self.source, inv)

    def __repr__(self):
        return (f"ModuleMap({self.source.label or '?'} -> "
                f"{self.target.label or '?'}, {self.matrix.rows}x{self.matrix.cols})")


@dataclass
class ShortExactSequence:
    """0 -> left --inject--> middle --project--> right -> 0."""

    inject: ModuleMap
    project: ModuleMap

    @property
    def left(self) -> Module:
        return self.inject.source

    @property
    def middle(self) -> Module:
        return self.inject.target

    @property
    def right(self) -> Module:
        return self.project.target

    def validate(self) -> None:
        if self.inject.target is not self.project.source:
            if self.inject.target.dim != self.project.source.dim:
                raise ModuleError("sequence maps do not share a middle module")
        self.inject.check_linear()
        self.project.check_linear()
        if (r_in := self.inject.rank()) != self.left.dim:
            raise ModuleError("left map is not injective")
        if (r_out := self.project.rank()) != self.right.dim:
            raise ModuleError("right map is not surjective")
        if not (self.project.matrix @ self.inject.matrix).is_zero():
            raise ModuleError("composite through the middle is nonzero")
        if r_in != self.middle.dim - r_out:
            raise ModuleError("sequence is not exact in the middle")

def split_ses(left: Module, right: Module) -> ShortExactSequence:
    """The canonical split sequence around a literal direct sum."""
    total = direct_sum([left, right])
    return ShortExactSequence(injection_map(total, 0), projection_map(total, 1))


# -- sub/quotient ----------------------------------------------------------


def kernel_actions(mod: Module, kb: Matrix, fp: list[int]) -> np.ndarray:
    """The actions of `mod` on the submodule spanned by a kernel basis
    with free positions `fp`, as one (nvars, len(fp), len(fp)) array:
    the basis has identity rows at `fp`, so the coordinates of x_v
    applied to it are those rows of the image."""
    return contract(kb.field, "vab,bc->vac", mod.var_stack[:, fp], kb.a)


def quotient_module(mod: Module, span: Matrix,
                    label: str = "") -> tuple[Module, ModuleMap]:
    """Quotient by the submodule generated by the given columns, on the
    coordinates left free by span^T: the projection is the transpose of
    the kernel basis of span^T, with the unit columns there as a section.
    A zero span gives the module itself."""
    if span.cols == 0 or span.is_zero():
        return mod, ModuleMap.identity(mod)
    kb, keep = span.transpose().kernel_data()
    proj = kb.transpose()
    va = contract(mod.algebra.field, "ab,vbc->vac", proj.a, mod.var_stack[:, :, keep])
    quot = Module(mod.algebra, len(keep), va, label=label)
    return quot, ModuleMap(mod, quot, proj)


def kernel_module(f: ModuleMap, label: str = "") -> tuple[Module, ModuleMap]:
    """The kernel of f, on its kernel basis, and its inclusion."""
    kb, fp = f.matrix.kernel_data()
    sub = Module(f.source.algebra, len(fp), kernel_actions(f.source, kb, fp), label=label) \
        if fp else zero_module(f.source.algebra)
    return sub, ModuleMap(sub, f.source, kb)


# -- hom spaces --------------------------------------------------------------


def hom_space_matrix(src: Module, tgt: Module) -> Matrix:
    """Columns are row-major vectorized k-matrices of the linear maps; the
    system is refused before it is built, when what its build holds would
    pass `resolution.MAX_STEP_BYTES`.
    Its row (v, i, k), column (j, l), is A_v[l, k] [i = j] - B_v[i, j] [k = l],
    written onto the two diagonals i = j and k = l of one array."""
    alg = src.algebra
    fld = alg.field
    nm = src.dim * tgt.dim
    size = alg.nvars * nm * nm
    from .resolution import _refuse_past  # resolution imports this module
    # kept: the system; wide: the elimination's copy and three temporaries
    _refuse_past("Hom system", fld, size, 4 * size,
                 f" as a dense {alg.nvars * nm}x{nm} matrix")
    out = fld.zeros((alg.nvars, tgt.dim, src.dim, tgt.dim, src.dim))
    np.einsum("vikil->vilk", out)[...] = src.var_stack[:, None]
    np.einsum("vikjk->vikj", out)[...] -= tgt.var_stack[:, :, None]
    return Matrix(fld, fld.reduce(out, out=out).reshape(alg.nvars * nm, nm)).kernel_basis()


def hom_dim(src: Module, tgt: Module) -> int:
    return hom_space_matrix(src, tgt).cols


def hom_solve(src: Module, tgt: Module, a: Matrix, b: Matrix,
              c: Matrix, d: Matrix) -> ModuleMap | None:
    """A module map f: src -> tgt with f a = b and c f = d, or None: one
    solve for coordinates in `hom_space_matrix`'s basis, whose column j
    of the stacked system is basis map j composed each way, flattened."""
    fld = src.algebra.field
    hom = hom_space_matrix(src, tgt)
    h = hom.cols
    maps = hom.a.reshape(tgt.dim, src.dim, h)
    system = np.vstack([
        contract(fld, "abj,bc->acj", maps, a.a).reshape(b.a.size, h),
        contract(fld, "ca,abj->cbj", c.a, maps).reshape(d.a.size, h)])
    rhs = np.concatenate([b.a.ravel(), d.a.ravel()])[:, None]
    coeffs = Matrix(fld, system).solve(Matrix(fld, rhs))
    if coeffs is None:
        return None
    return ModuleMap(src, tgt, Matrix(fld, (hom @ coeffs).a.reshape(tgt.dim, src.dim)))


# -- isomorphism testing ------------------------------------------------------


@dataclass
class IsoVerdict:
    kind: str                 # "yes" or "no"
    witness: ModuleMap | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.kind == "yes"


def _hom_tops(src: Module, tgt: Module) -> tuple[Matrix, np.ndarray]:
    """Hom(src, tgt) as `hom_space_matrix` gives it, and the stack of the
    g_tgt x g_src maps that its basis induces on the tops."""
    fld = src.algebra.field
    hom = hom_space_matrix(src, tgt)
    maps = hom.a.T.reshape(hom.cols, tgt.dim, src.dim)
    on_gens = contract(fld, "jab,bc->jac", maps, src.min_generators().a)
    proj = tgt.top()[0].transpose()  # onto M/mM
    return hom, contract(fld, "ia,jab->jib", proj.a, on_gens)


def _top_basis(fld: Field, tops: np.ndarray) -> Matrix:
    """Independent row-major columns spanning a stack of top maps."""
    return column_space_basis(
        Matrix(fld, tops.reshape(len(tops), -1)).transpose())


def radical_forms(m1: Module, m2: Module) -> tuple[int, int, int]:
    """<m1, m1>, <m2, m2> and <m1, m2>, where <M, N> = dim Hom(M, N)/rad:
    <M, M> = dim A_M/J_M for the top algebra A_M, and <M, N> is the rank
    of top(f) -> (top(g) top(f) mod J_M)_g over all g: N -> M."""
    fld = m1.algebra.field
    g1, g2 = m1.gens_count(), m2.gens_count()
    a1, a2, t21, t12 = (_top_basis(fld, _hom_tops(s, t)[1]) for s, t in
                        ((m1, m1), (m2, m2), (m2, m1), (m1, m2)))
    j1, j2 = algebra_radical(a1, g1), algebra_radical(a2, g2)
    rr, piv = j1.transpose().rref()
    prods = contract(fld, "jab,ibc->acji", t21.a.T.reshape(-1, g1, g2),
                     t12.a.T.reshape(-1, g2, g1))
    cut = nf_columns(rr, piv, Matrix(fld, prods.reshape(g1 * g1, -1)))
    cross = Matrix(fld, cut.a.reshape(g1 * g1 * t21.cols, t12.cols)).rank()
    return a1.cols - j1.cols, a2.cols - j2.cols, cross


def is_isomorphic(m1: Module, m2: Module, seed: int = 0) -> IsoVerdict:
    """Decide isomorphism exactly, with an explicit witness on yes.

    After the cheap refusals, a seeded random map bijective on the tops
    is the witness.  When the first draw is not, the radical forms decide:
    <M, N> = sum_X m_X(M) m_X(N) dim End(X)/J(End X) by Krull-Schmidt, so
    M = N exactly when <M, M> + <N, N> = 2 <M, N>.  After a yes the draws
    go on, so `seed` picks the witness and never the verdict.
    """
    if m1.algebra is not m2.algebra:
        return IsoVerdict("no", reason="different algebras")
    fld = m1.algebra.field
    if m1.dim != m2.dim:
        return IsoVerdict("no", reason=f"dimensions {m1.dim} != {m2.dim}")
    if m1.dim == 0:
        return IsoVerdict("yes", ModuleMap(m1, m2, Matrix.zeros(fld, 0, 0)))
    r1, r2 = m1.radical_dim(), m2.radical_dim()
    if r1 != r2:
        return IsoVerdict("no", reason=f"radical dimensions {r1} != {r2}")
    s1, s2 = m1.socle_dim(), m2.socle_dim()
    if s1 != s2:
        return IsoVerdict("no", reason=f"socle dimensions {s1} != {s2}")
    if r1 == 0:
        # the ideal kills both; any linear bijection is a module map
        return IsoVerdict("yes", ModuleMap(m1, m2, Matrix.identity(fld, m1.dim)))
    hom, tops = _hom_tops(m1, m2)
    rng = random.Random(seed)
    forms = None
    while True:
        coeffs = Matrix.column(fld, [fld.random(rng) for _ in range(hom.cols)])
        top = Matrix(fld, contract(fld, "jab,j->ab", tops, coeffs.a[:, 0]))
        if top.rank() == m1.dim - r1:
            wit = Matrix(fld, (hom @ coeffs).a.reshape(m1.dim, m1.dim))
            return IsoVerdict("yes", ModuleMap(m1, m2, wit))
        if forms is None:
            forms = radical_forms(m1, m2)
            if forms[0] + forms[1] != 2 * forms[2]:
                return IsoVerdict("no", reason=f"radical forms {forms} give "
                                               "<M,M> + <N,N> != 2<M,N>")


# -- free summands -------------------------------------------------------------


@dataclass
class FreeSplit:
    """Decomposition M = free(rank) (+) remainder, with an explicit witness
    from the literal direct sum onto the original module."""

    rank: int
    remainder: Module
    iso: ModuleMap


def split_free_summands(mod: Module) -> FreeSplit:
    """Split off a free summand of maximal rank in one step.

    Row 0 of a map to R is its top (the coefficient of 1); maps phi whose
    rows 0 are independent give the free rank c, phi: M -> R^c splits
    by one solved section, and the kernel of phi is the remainder.  A
    summand R would add d, d - 1 and dim soc R to dim M, dim mM and dim
    soc M (`radical_dim`, `socle_dim`); a module with less of any has
    rank 0 and is returned before the Hom system is built (exactly: a
    nonzero top makes M onto R, so split).
    Past it the split is kept once per actions (`shared`): modules with
    those actions share remainder and sum, each with a witness onto itself,
    [section | kernel inclusion], bijective as M = im(section) (+) ker phi.
    """
    alg = mod.algebra
    if mod.free_rank is not None:
        return FreeSplit(mod.free_rank, zero_module(alg),
                         ModuleMap.identity(mod))
    if (mod.dim < alg.dim or mod.radical_dim() < alg.dim - 1
            or mod.socle_dim() < alg.socle_dim):
        return FreeSplit(0, mod, ModuleMap.identity(mod))
    if "peel" not in shared(mod):  # nothing is kept if the system is refused
        shared(mod)["peel"] = _peel(mod)
    rank, rem, total, cols = shared(mod)["peel"]
    if rank == 0:
        return FreeSplit(0, mod, ModuleMap.identity(mod))
    return FreeSplit(rank, rem, ModuleMap(total, mod, cols))


def _peel(mod: Module) -> tuple:
    """The split's rank, remainder, sum and read-only witness matrix."""
    alg, fld, d = mod.algebra, mod.algebra.field, mod.algebra.dim
    hom = hom_space_matrix(mod, regular_module(alg))
    _, piv = hom.take_rows(range(mod.dim)).rref()
    rank = len(piv)
    if rank == 0:
        return 0, None, None, None
    phi = Matrix(fld, hom.a[:, list(piv)].T.reshape(rank * d, mod.dim))
    sec = assemble_action_columns(mod, phi.solve(free_module(alg, rank).min_generators()))
    rem, incl = kernel_module(ModuleMap(mod, free_module(alg, rank), phi))
    total = direct_sum([free_module(alg, rank), rem])
    cols = Matrix.hstack([sec, incl.matrix])
    cols.a.flags.writeable = False
    return rank, rem, total, cols
