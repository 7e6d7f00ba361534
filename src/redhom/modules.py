"""Finitely generated modules over a local algebra, as explicit
matrix representations.

A module of k-dimension m stores one m x m matrix per algebra variable;
the action of an arbitrary basis element is the corresponding monomial
product of those matrices.  All of those actions are built once per
module, degree by degree, into one read-only (dim R, m, m) array with
the basis index first (`action_stack()`; `actions[t]` is its slice t).
Free modules of rank g use the block layout in which coordinate j*d + t
is the t-th algebra basis coordinate of the j-th generator.  They act
like every other module, through dense matrices, but share them: their
variable actions and stack are the algebra's block-diagonal copies,
kept once per rank (`Algebra.free_varmat`, `free_action_stack`).

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

import numpy as np

from .algebra import Algebra, structure
from .linalg import (Field, Matrix, algebra_radical,
                     column_space_basis, contract, kron, nf_columns,
                     solve_blocks)


class ModuleError(ValueError):
    """Raised for ill-formed modules or maps."""


class Module:
    """One module: a commuting variable representation over an algebra."""

    __slots__ = ("algebra", "dim", "label", "free_rank", "summands",
                 "_var_actions", "_stack", "_radical", "_socle",
                 "_resolution")

    def __init__(self, algebra: Algebra, dim: int,
                 var_actions: list[Matrix] | None, label: str = "",
                 free_rank: int | None = None, validate: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.label = label
        self.free_rank = free_rank
        self.summands: list[tuple["Module", int]] | None = None
        self._var_actions = var_actions
        self._stack = None
        self._radical = None
        self._socle = None
        self._resolution = None
        if var_actions is not None:
            for va in var_actions:
                if va.rows != dim or va.cols != dim:
                    raise ModuleError("variable action has wrong shape")
        if validate and var_actions is not None:
            validate_module(self)

    # -- actions ---------------------------------------------------------

    @property
    def var_actions(self) -> list[Matrix]:
        if self._var_actions is None:
            self._var_actions = self.algebra.free_varmat(self.free_rank)
        return self._var_actions

    @property
    def actions(self) -> list[Matrix]:
        """Action of every algebra basis element (index 0 is the identity),
        as views of `action_stack()`."""
        return [Matrix(self.algebra.field, m) for m in self.action_stack()]

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
                                    self.var_actions[v].a, stack[s])
            stack.flags.writeable = False
            self._stack = stack
        return self._stack

    def apply_var(self, v: int, vectors: Matrix) -> Matrix:
        """Variable action applied to a batch of coordinate columns."""
        return self.var_actions[v] @ vectors

    # -- structure -------------------------------------------------------

    def radical_span(self) -> Matrix:
        """Independent columns spanning (maximal ideal) * module."""
        if self._radical is None:
            alg = self.algebra
            if self.dim == 0 or alg.nvars == 0:
                self._radical = Matrix.zeros(alg.field, self.dim, 0)
            else:
                eye = Matrix.identity(alg.field, self.dim)
                big = Matrix.hstack([self.apply_var(v, eye)
                                     for v in range(alg.nvars)])
                self._radical = column_space_basis(big)
        return self._radical

    def socle_span(self) -> Matrix:
        if self._socle is None:
            alg = self.algebra
            if self.dim == 0:
                self._socle = Matrix.zeros(alg.field, 0, 0)
            elif alg.nvars == 0:
                self._socle = Matrix.identity(alg.field, self.dim)
            else:
                self._socle = Matrix.vstack(self.var_actions).kernel_basis()
        return self._socle

    def gens_count(self) -> int:
        if self.free_rank is not None:
            return self.free_rank
        return self.dim - self.radical_span().cols

    def min_generators(self) -> Matrix:
        """Unit-vector generators: a basis of the module modulo its radical."""
        fld = self.algebra.field
        if self.free_rank is not None:
            g, d = self.free_rank, self.algebra.dim
            out = Matrix.zeros(fld, self.dim, g)
            out.a[np.arange(g) * d, np.arange(g)] = fld.one()
            return out
        rad = self.radical_span()
        _, piv = rad.transpose().rref()
        pivset = set(piv)
        free_pos = [i for i in range(self.dim) if i not in pivset]
        out = Matrix.zeros(fld, self.dim, len(free_pos))
        for j, pos in enumerate(free_pos):
            out.a[pos, j] = fld.one()
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
        return self.radical_span().cols == 0

    def __repr__(self):
        tag = self.label or "module"
        return f"Module({tag}, dim={self.dim} over {self.algebra.field})"


def free_map_columns(alg: Algebra, gens: list[dict]) -> list[dict]:
    """Sparse columns of the map free(len(gens)) -> free sending generator
    j to the element with sparse coordinates gens[j] ({row: entry}):
    column j*d + t is b_t times it, read off the "columns" structure
    (coefficient c at gather b and slot (a, t): b_t b_b has c at b_a)."""
    d, norm = alg.dim, alg.field.coerce
    by_b = structure(alg, "columns")
    out = []
    for g in gens:
        cols: list[dict] = [{} for _ in range(d)]
        for r, x in g.items():
            for (a, t), c in by_b.get(r % d, ()):
                col, k = cols[t], r - r % d + a
                if w := norm(col.get(k, 0) + c * x):
                    col[k] = w
                else:
                    del col[k]
        out += cols
    return out


def assemble_action_columns(mod: Module, gens: Matrix) -> Matrix:
    """k-matrix of free(g) -> mod sending generator j to column j of
    `gens`; column j*d + t is basis element t acting on that image."""
    fld = mod.algebra.field
    out = contract(fld, "tab,bj->ajt", mod.action_stack(), gens.a)
    return Matrix(fld, out.reshape(mod.dim, gens.cols * mod.algebra.dim))


def free_map_from_columns(alg: Algebra, target_rank: int, stacked: Matrix) -> Matrix:
    """k-matrix of the map free(s) -> free(target_rank) sending the j-th
    generator to the element whose stacked coordinates are column j, in
    the free-module coordinate layout (`free_map_columns`)."""
    if stacked.cols and stacked.rows != target_rank * alg.dim:
        raise ModuleError("stacked column height does not match target rank")
    return Matrix.from_sparse(alg.field, target_rank * alg.dim,
                              free_map_columns(alg, stacked.sparse_columns()))


def validate_module(mod: Module) -> None:
    """Check commuting actions compatible with the multiplication table."""
    alg, fld, m = mod.algebra, mod.algebra.field, mod.dim
    va = np.array([x.a for x in mod.var_actions],
                  dtype=fld.dtype).reshape(alg.nvars, m, m)
    prod = contract(fld, "uab,vbc->uvac", va, va)
    if not (prod == prod.transpose(1, 0, 2, 3)).all():
        raise ModuleError("variable actions do not commute")
    # x_v b_t = sum_u varmat[v][u, t] b_u, for every variable v and basis
    # element t
    stack = mod.action_stack()
    if not (contract(fld, "vab,tbc->vtac", va, stack) == contract(
            fld, "vut,uab->vtab", alg.var_stack, stack)).all():
        raise ModuleError("actions violate an algebra relation")


# -- constructors ----------------------------------------------------------


def zero_module(alg: Algebra) -> Module:
    return Module(alg, 0, [Matrix.zeros(alg.field, 0, 0)] * alg.nvars,
                  label="0", free_rank=0, validate=False)


def residue_field(alg: Algebra) -> Module:
    return Module(alg, 1, [Matrix.zeros(alg.field, 1, 1)] * alg.nvars,
                  label="k", validate=False)


def free_module(alg: Algebra, rank: int, label: str = "") -> Module:
    if rank < 0:
        raise ModuleError("negative rank")
    if rank == 0:
        return zero_module(alg)
    return Module(alg, rank * alg.dim, None,
                  label=label or (f"R^{rank}" if rank > 1 else "R"),
                  free_rank=rank, validate=False)


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
    all_free = all(p.free_rank is not None for p in parts)
    fr = sum(p.free_rank for p in parts) if all_free else None
    if all_free:
        va = None
    else:
        va = [Matrix.block_diag(alg.field, [p.var_actions[v] for p in parts])
              for v in range(alg.nvars)]
    out = Module(alg, dim, va,
                 label=label or "+".join(p.label or "?" for p in parts),
                 free_rank=fr, validate=False)
    offsets = []
    off = 0
    for p in parts:
        offsets.append((p, off))
        off += p.dim
    out.summands = offsets
    return out


def power_module(mod: Module, a: int) -> Module:
    if a < 0:
        raise ModuleError("negative power")
    if a == 0:
        return zero_module(mod.algebra)
    if a == 1:
        return mod
    lbl = f"({mod.label})^{a}" if mod.label else ""
    return direct_sum([mod] * a, label=lbl)


def injection_map(summed: Module, idx: int) -> "ModuleMap":
    if summed.summands is None:
        raise ModuleError("module was not built as a direct sum")
    part, off = summed.summands[idx]
    m = Matrix.zeros(summed.algebra.field, summed.dim, part.dim)
    m.a[off:off + part.dim, :] = Matrix.identity(summed.algebra.field, part.dim).a
    return ModuleMap(part, summed, m, validate=False)


def projection_map(summed: Module, idx: int) -> "ModuleMap":
    if summed.summands is None:
        raise ModuleError("module was not built as a direct sum")
    part, off = summed.summands[idx]
    m = Matrix.zeros(summed.algebra.field, part.dim, summed.dim)
    m.a[:, off:off + part.dim] = Matrix.identity(summed.algebra.field, part.dim).a
    return ModuleMap(summed, part, m, validate=False)


def from_presentation(alg: Algebra, n_gens: int, rel_rows: list[list[str]],
                      label: str = "") -> Module:
    """Cokernel of the map free(s) -> free(n_gens) given by a relation
    matrix with polynomial-string entries (rows indexed by generator)."""
    if len(rel_rows) != n_gens:
        raise ModuleError(f"expected {n_gens} relation rows, got {len(rel_rows)}")
    s = len(rel_rows[0]) if rel_rows and rel_rows[0] else 0
    for row in rel_rows:
        if len(row) != s:
            raise ModuleError("ragged relation matrix")
    fld = alg.field
    if n_gens == 0:
        return zero_module(alg)
    if s == 0:
        return free_module(alg, n_gens, label=label)
    cols = []
    for j in range(s):
        stacked = Matrix.vstack([alg.element_from_string(rel_rows[i][j])
                                 for i in range(n_gens)])
        cols.append(stacked)
    stacked = Matrix.hstack(cols)
    relmap = free_map_from_columns(alg, n_gens, stacked)
    ambient = free_module(alg, n_gens)
    mod, _ = quotient_module(ambient, relmap, label=label)
    return mod


# -- maps ------------------------------------------------------------------


class ModuleMap:
    """An algebra-linear map between modules, as a k-matrix on coordinates."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Module, target: Module, matrix: Matrix,
                 validate: bool = True):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ModuleError(
                f"map shape {matrix.rows}x{matrix.cols} does not match "
                f"{target.dim}x{source.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate:
            self.check_linear()

    def check_linear(self) -> None:
        for v in range(self.source.algebra.nvars):
            lhs = self.target.apply_var(v, self.matrix)
            rhs = self.matrix @ self.source.var_actions[v]
            if not lhs == rhs:
                raise ModuleError("map does not commute with the actions")

    @staticmethod
    def identity(mod: Module) -> "ModuleMap":
        return ModuleMap(mod, mod, Matrix.identity(mod.algebra.field, mod.dim),
                         validate=False)

    @staticmethod
    def zero(source: Module, target: Module) -> "ModuleMap":
        return ModuleMap(source, target,
                         Matrix.zeros(source.algebra.field, target.dim, source.dim),
                         validate=False)

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self after first."""
        if first.target is not self.source and first.target.dim != self.source.dim:
            raise ModuleError("composition dimension mismatch")
        return ModuleMap(first.source, self.target, self.matrix @ first.matrix,
                         validate=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.matrix + other.matrix,
                         validate=False)

    def __neg__(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, -self.matrix, validate=False)

    def rank(self) -> int:
        return self.matrix.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def is_isomorphism(self) -> bool:
        return (self.source.dim == self.target.dim
                and self.rank() == self.source.dim)

    def inverse(self) -> "ModuleMap":
        inv = self.matrix.inverse()
        if inv is None:
            raise ModuleError("map is not invertible")
        return ModuleMap(self.target, self.source, inv, validate=False)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

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
        if not self.inject.is_injective():
            raise ModuleError("left map is not injective")
        if not self.project.is_surjective():
            raise ModuleError("right map is not surjective")
        if not (self.project.matrix @ self.inject.matrix).is_zero():
            raise ModuleError("composite through the middle is nonzero")
        if self.inject.rank() != self.middle.dim - self.project.rank():
            raise ModuleError("sequence is not exact in the middle")

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except ModuleError:
            return False


def split_ses(left: Module, right: Module) -> ShortExactSequence:
    """The canonical split sequence around a literal direct sum."""
    total = direct_sum([left, right])
    return ShortExactSequence(injection_map(total, 0), projection_map(total, 1))


# -- sub/quotient ----------------------------------------------------------


def _on_basis(mod: Module, basis: Matrix, va: list[Matrix],
              label: str) -> tuple[Module, ModuleMap]:
    """The submodule with actions `va` on the columns of `basis`, and its
    inclusion."""
    sub = Module(mod.algebra, basis.cols, va, label=label,
                 validate=False) if basis.cols else zero_module(mod.algebra)
    return sub, ModuleMap(sub, mod, basis, validate=False)


def submodule(mod: Module, span: Matrix, label: str = "") -> tuple[Module, ModuleMap]:
    """Module structure on a column span closed under the actions."""
    basis = column_space_basis(span)
    va = solve_blocks(basis, [mod.apply_var(v, basis)
                              for v in range(mod.algebra.nvars)])
    if va is None:
        raise ModuleError("span is not closed under the module actions")
    return _on_basis(mod, basis, va, label)


def kernel_actions(mod: Module, kb: Matrix, fp: list[int]) -> list[Matrix]:
    """The actions of `mod` on the submodule spanned by a kernel basis
    with free positions `fp`: the basis has identity rows at `fp`, so the
    coordinates of x_v applied to it are those rows of the image."""
    return [mod.apply_var(v, kb).take_rows(fp) for v in range(mod.algebra.nvars)]


def _quotient(mod: Module, span: Matrix,
              label: str) -> tuple[Module, ModuleMap, list[int]]:
    """`quotient_module` and the kept coordinates, at which the unit
    columns are a section of the projection."""
    if span.cols == 0 or span.is_zero():
        # trivial quotient: literally the same module
        return mod, ModuleMap.identity(mod), list(range(mod.dim))
    kb, keep = span.transpose().kernel_data()
    proj = kb.transpose()
    lift = Matrix.identity(mod.algebra.field, mod.dim).take_cols(keep)
    va = [proj @ mod.apply_var(v, lift) for v in range(mod.algebra.nvars)]
    quot = Module(mod.algebra, len(keep), va, label=label, validate=False)
    return quot, ModuleMap(mod, quot, proj, validate=False), keep


def quotient_module(mod: Module, span: Matrix,
                    label: str = "") -> tuple[Module, ModuleMap]:
    """Quotient by the submodule generated by the given columns, on the
    coordinates left free by span^T: the projection is the transpose of
    the kernel basis of span^T."""
    return _quotient(mod, span, label)[:2]


def kernel_module(f: ModuleMap, label: str = "") -> tuple[Module, ModuleMap]:
    kb, fp = f.matrix.kernel_data()
    return _on_basis(f.source, kb, kernel_actions(f.source, kb, fp), label)


def image_module(f: ModuleMap, label: str = "") -> tuple[Module, ModuleMap]:
    return submodule(f.target, f.matrix, label=label)


def cokernel_module(f: ModuleMap, label: str = "") -> tuple[Module, ModuleMap]:
    return quotient_module(f.target, f.matrix, label=label)


# -- hom spaces --------------------------------------------------------------


def hom_space_matrix(src: Module, tgt: Module) -> Matrix:
    """Columns are row-major vectorized k-matrices of the linear maps."""
    alg = src.algebra
    fld = alg.field
    nm = src.dim * tgt.dim
    if nm == 0:
        return Matrix.zeros(fld, 0, 0)
    if alg.nvars == 0:
        return Matrix.identity(fld, nm)
    blocks = []
    eye_t = Matrix.identity(fld, tgt.dim)
    eye_s = Matrix.identity(fld, src.dim)
    for v in range(alg.nvars):
        a = src.var_actions[v]
        b = tgt.var_actions[v]
        blocks.append(kron(eye_t, a.transpose()) - kron(b, eye_s))
    return Matrix.vstack(blocks).kernel_basis()


def hom_basis(src: Module, tgt: Module) -> list[Matrix]:
    km = hom_space_matrix(src, tgt)
    return [Matrix(km.field, m)
            for m in km.a.T.reshape(km.cols, tgt.dim, src.dim)]


def hom_dim(src: Module, tgt: Module) -> int:
    if src.dim == 0 or tgt.dim == 0:
        return 0
    return hom_space_matrix(src, tgt).cols


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
    proj = quotient_module(tgt, tgt.radical_span())[1].matrix
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
        return IsoVerdict("yes", ModuleMap(m1, m2, Matrix.zeros(fld, 0, 0),
                                           validate=False))
    r1, r2 = m1.radical_span().cols, m2.radical_span().cols
    if r1 != r2:
        return IsoVerdict("no", reason=f"radical dimensions {r1} != {r2}")
    s1, s2 = m1.socle_span().cols, m2.socle_span().cols
    if s1 != s2:
        return IsoVerdict("no", reason=f"socle dimensions {s1} != {s2}")
    if r1 == 0:
        # the ideal kills both; any linear bijection is a module map
        return IsoVerdict("yes", ModuleMap(m1, m2,
                                           Matrix.identity(fld, m1.dim),
                                           validate=False))
    hom, tops = _hom_tops(m1, m2)
    if hom.cols == 0:
        return IsoVerdict("no", reason="no nonzero maps at all")
    rng = random.Random(seed)
    forms = None
    while True:
        coeffs = Matrix.column(fld, [fld.random(rng) for _ in range(hom.cols)])
        top = Matrix(fld, contract(fld, "jab,j->ab", tops, coeffs.a[:, 0]))
        if top.rank() == m1.dim - r1:
            wit = Matrix(fld, (hom @ coeffs).a.reshape(m1.dim, m1.dim))
            return IsoVerdict("yes", ModuleMap(m1, m2, wit, validate=False))
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
    by one solved section, and the kernel of phi is the remainder.
    """
    alg = mod.algebra
    fld = alg.field
    d = alg.dim
    if mod.free_rank is not None:
        return FreeSplit(mod.free_rank, zero_module(alg),
                         ModuleMap.identity(mod))
    hom = hom_space_matrix(mod, regular_module(alg))
    _, piv = hom.take_rows(range(mod.dim)).rref()
    rank = len(piv)
    if rank == 0:
        return FreeSplit(0, mod, ModuleMap.identity(mod))
    phi = Matrix(fld, hom.a[:, list(piv)].T.reshape(rank * d, mod.dim))
    units = Matrix.zeros(fld, rank * d, rank)
    units.a[np.arange(rank) * d, np.arange(rank)] = fld.one()
    sec = assemble_action_columns(mod, phi.solve(units))
    rem, incl = kernel_module(ModuleMap(mod, free_module(alg, rank), phi,
                                        validate=False))
    total = direct_sum([free_module(alg, rank), rem])
    cols = Matrix.hstack([sec, incl.matrix])
    if cols.rank() != mod.dim:
        raise ModuleError("free splitting produced a non-bijective witness")
    return FreeSplit(rank, rem, ModuleMap(total, mod, cols, validate=False))
