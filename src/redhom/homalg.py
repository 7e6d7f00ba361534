"""Derived-functor machinery: duals, Ext, extensions, pushforwards.

Ext groups come from the minimal free resolution of the source: maps
out of F_i are tuples of generator images.  The transition to F_{i+1}
precomposes them with d_{i+1}; it is built as sparse columns from the
sparse images and the target's actions, charged to the resolution step
cap, and only its rank is kept (`linalg.sparse_rref`).  A separate
small-scale path keeps dense cocycle bases for realizing extension
classes as short exact sequences and reading classes back off sequences.

Ring duals keep their basis maps once, as the columns of the Hom matrix
(`DualData.flat`, row-major dim R x dim M maps); `DualData.stack()` is the
same data as one (h, dim R, dim M) array with the map index first, so
precomposing every basis map with a module map is one contraction and
the evaluation into the double dual is a reshape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra
from .linalg import (Matrix, by_gather, column_space_basis, contract,
                     solve_blocks, sparse_kernel, sparse_rref)
from .modules import (
    Module,
    ModuleMap,
    ShortExactSequence,
    _quotient,
    assemble_action_columns,
    direct_sum,
    free_map_columns,
    free_map_from_columns,
    free_module,
    hom_space_matrix,
    quotient_module,
    regular_module,
    split_ses,
    zero_module,
)
from .resolution import (_check_dense_size, _check_step_size,
                         _radical_complement, resolve)


class HomAlgError(RuntimeError):
    """Raised when a homological construction cannot be carried out."""


# -- linear dual -------------------------------------------------------------


def k_dual(mod: Module, label: str = "") -> Module:
    """Dual vector space with the transposed actions."""
    return Module(mod.algebra, mod.dim,
                  [va.transpose() for va in mod.var_actions],
                  label=label or (f"({mod.label})*" if mod.label else ""),
                  validate=False)


def canonical_module(alg: Algebra) -> Module:
    """Linear dual of the regular module (the injective hull of k)."""
    return k_dual(regular_module(alg), label="w")


# -- dual with respect to the ring -------------------------------------------


@dataclass
class DualData:
    """Module of maps into the ring: basis maps plus the module structure."""

    source: Module
    module: Module
    flat: Matrix  # column i: basis map i as a row-major (dim R x dim M) vector

    def stack(self) -> np.ndarray:
        """The basis maps as one (h, dim R, dim M) array."""
        return self.flat.a.T.reshape(self.flat.cols, self.source.algebra.dim,
                                     self.source.dim)

    @property
    def maps(self) -> list[Matrix]:
        """k-matrices source -> R, one per basis vector of the dual."""
        return [Matrix(self.flat.field, m) for m in self.stack()]

    def map_from_coords(self, coords: Matrix) -> Matrix:
        """The maps with coordinates the columns of `coords`, stacked: row
        j*dim R + r is row r of map j."""
        d, m, g = self.source.algebra.dim, self.source.dim, coords.cols
        return Matrix(self.flat.field, (self.flat @ coords).a.reshape(
            d, m, g).transpose(2, 0, 1).reshape(g * d, m))


def r_dual(mod: Module, label: str = "") -> DualData:
    """Maps from the module into the regular module, with the ring action
    given by postcomposition."""
    alg = mod.algebra
    fld = alg.field
    reg = regular_module(alg)
    flat = hom_space_matrix(mod, reg)
    h = flat.cols
    if h == 0:
        return DualData(mod, zero_module(alg), flat)
    # x_v acts on the R-coordinate (row) of each map: apply it to the
    # (dim R) x (dim M * h) stack of all maps' rows
    stack = Matrix(fld, flat.a.reshape(alg.dim, mod.dim * h))
    va = solve_blocks(flat, [
        Matrix(fld, reg.apply_var(v, stack).a.reshape(mod.dim * alg.dim, h))
        for v in range(alg.nvars)])
    if va is None:
        raise HomAlgError("dual space is not action-closed")
    dm = Module(alg, h, va,
                label=label or (f"({mod.label})^" if mod.label else ""),
                validate=False)
    return DualData(mod, dm, flat)


def dual_map(f: ModuleMap, dual_target: DualData,
             dual_source: DualData) -> ModuleMap:
    """Precomposition with f, from the target's dual to the source's."""
    fld = f.source.algebra.field
    composed = contract(fld, "iab,bc->aci", dual_target.stack(), f.matrix.a)
    coords, ok = dual_source.flat.solve_columns(Matrix(fld, composed.reshape(
        f.source.algebra.dim * f.source.dim, dual_target.flat.cols)))
    if not all(ok):
        raise HomAlgError("dualized map leaves the dual space"
                          if dual_source.flat.cols
                          else "map dualizes into an empty dual")
    return ModuleMap(dual_target.module, dual_source.module, coords,
                     validate=False)


@dataclass
class BidualityData:
    map: ModuleMap
    dual: DualData
    double_dual: DualData

    @property
    def is_injective(self) -> bool:
        return self.map.is_injective()

    @property
    def is_bijective(self) -> bool:
        return self.map.is_isomorphism()


def biduality(mod: Module) -> BidualityData:
    """Evaluation map from the module into its double dual."""
    alg = mod.algebra
    fld = alg.field
    d1 = r_dual(mod)
    d2 = r_dual(d1.module)
    if mod.dim == 0 or d2.module.dim == 0:
        lam = ModuleMap(mod, d2.module,
                        Matrix.zeros(fld, d2.module.dim, mod.dim),
                        validate=False)
        return BidualityData(lam, d1, d2)
    # column j: evaluation at basis vector j, the row-major (dim R x h1)
    # map sending dual basis map i to its column j
    h1 = d1.flat.cols
    ev = d1.flat.a.reshape(alg.dim, mod.dim, h1).transpose(0, 2, 1)
    coords, ok = d2.flat.solve_columns(
        Matrix(fld, ev.reshape(alg.dim * h1, mod.dim)))
    if not all(ok):
        raise HomAlgError("evaluation map leaves the double dual")
    return BidualityData(ModuleMap(mod, d2.module, coords, validate=False),
                         d1, d2)


def is_torsionless(mod: Module) -> bool:
    return biduality(mod).is_injective


def is_reflexive(mod: Module) -> bool:
    return biduality(mod).is_bijective


# -- Ext dimension tables ------------------------------------------------------


class ExtTable:
    """Ranks of the cochain transitions for one (source, target) pair."""

    def __init__(self, source: Module, target: Module):
        self.source = source
        self.target = target
        self.res = resolve(source)
        self._ranks: dict[int, int] = {}
        # basis element t -> [((a, b), nonzero entry of its action)]
        self._acts = by_gather(target.action_stack(), 0, (1, 2))

    def transition_columns(self, i: int) -> list[dict]:
        """Map from maps-out-of-F_i to maps-out-of-F_{i+1} as sparse
        columns (generator-major, target-coordinate-minor), refused past
        `MAX_STEP_BYTES`: column (s, b) holds sum_t c acts[t][a, b] at row
        (j, a), c the coefficient at (s, t) of generator j's image."""
        fld, d = self.source.algebra.field, self.source.algebra.dim
        dn, images = self.target.dim, self.res.columns(i + 1)[::d]
        cols: list[dict] = [{} for _ in range(self.res.betti(i) * dn)]
        self._charge(i, len(cols) + sum(len(self._acts.get(r % d, ()))
                                        for img in images for r in img))
        for j, img in enumerate(images):
            for r, c in img.items():
                for (a, b), x in self._acts.get(r % d, ()):
                    col, k = cols[r // d * dn + b], j * dn + a
                    col[k] = col.get(k, 0) + c * x
        return [{k: w for k, v in col.items() if (w := fld.coerce(v))}
                if col else col for col in cols]

    def transition(self, i: int) -> Matrix:
        """`transition_columns` as one dense matrix, refused past
        `MAX_STEP_BYTES`."""
        fld, dn = self.source.algebra.field, self.target.dim
        rows = self.res.betti(i + 1) * dn
        _check_dense_size(i, (rows, self.res.betti(i) * dn), fld)
        return Matrix.from_sparse(fld, rows, self.transition_columns(i))

    def _charge(self, i: int, entries: int) -> None:
        dn = self.target.dim
        _check_step_size(i, (self.res.betti(i + 1) * dn, self.res.betti(i) * dn),
                         entries, "Ext transition")

    def _rank(self, i: int) -> int:
        if i < 0:
            return 0
        if i not in self._ranks:
            cols = [col for col in self.transition_columns(i) if col]
            self._ranks[i] = len(sparse_rref(
                self.source.algebra.field, cols, back=False,
                grow=lambda m: self._charge(i, len(cols) + m)))
        return self._ranks[i]

    def dim(self, i: int) -> int:
        if self.source.dim == 0 or self.target.dim == 0:
            return 0
        return (self.res.betti(i) * self.target.dim
                - self._rank(i) - self._rank(i - 1))

    def dims(self, window: int) -> list[int]:
        return [self.dim(i) for i in range(window + 1)]


def ext_dims(source: Module, target: Module, window: int) -> list[int]:
    return ExtTable(source, target).dims(window)


def ext_dim(source: Module, target: Module, i: int) -> int:
    return ExtTable(source, target).dim(i)


def ext_vanishes_through(source: Module, target: Module,
                         window: int) -> tuple[bool, int | None]:
    """Whether every Ext^i vanishes for 1 <= i <= window; on failure
    also reports the first nonvanishing index."""
    table = ExtTable(source, target)
    for i in range(1, window + 1):
        if table.dim(i) != 0:
            return False, i
    return True, None


# -- largest nonvanishing Ext index, windowed ----------------------------------


@dataclass
class PValue:
    """Top nonvanishing Ext index against a fixed target, within a window."""

    kind: str                 # "finite", "above_window", "minus_infinity"
    value: int | None
    window: int
    dims: list[int]

    def same_as(self, other: "PValue") -> bool:
        return (self.kind, self.value) == (other.kind, other.value)

    def describe(self) -> str:
        if self.kind == "minus_infinity":
            return "-inf (zero module involved)"
        if self.kind == "above_window":
            return f">= window {self.window}"
        return str(self.value)


def p_invariant(source: Module, target: Module, window: int) -> PValue:
    if source.dim == 0 or target.dim == 0:
        return PValue("minus_infinity", None, window, [])
    dims = ext_dims(source, target, window)
    if dims[window] != 0:
        return PValue("above_window", None, window, dims)
    last = max((i for i, d in enumerate(dims) if d != 0), default=None)
    if last is None:
        raise HomAlgError("no nonvanishing index for nonzero modules")
    return PValue("finite", last, window, dims)


# -- first Ext with full cocycle data --------------------------------------------


class Ext1Data:
    """Full first-Ext workspace for one (right term, left term) pair.

    Cocycles live on the first free module of the right term's resolution
    in flat coordinates; representatives are kernel columns independent of
    the coboundaries.  The psi conversions move between such cochains and
    maps defined on the first syzygy subspace.
    """

    def __init__(self, right: Module, left: Module):
        self.right = right
        self.left = left
        self.alg = right.algebra
        self.res = resolve(right)
        self.beta1 = self.res.betti(1)
        self.flat_dim = self.beta1 * left.dim
        table = ExtTable(right, left)
        self.cocycles, _ = table.transition(1).kernel_data()
        self.boundaries = column_space_basis(table.transition(0))
        joint = Matrix.hstack([self.boundaries, self.cocycles])
        _, piv = joint.rref()
        nb = self.boundaries.cols
        rep_idx = [p - nb for p in piv if p >= nb]
        self.reps = self.cocycles.take_cols(rep_idx)
        self.dim = self.reps.cols
        self._class_basis = Matrix.hstack([self.boundaries, self.reps])
        self._syz = self.res.syzygy_subspace(1)
        self._lift_cache: Matrix | None = None

    def psi_from_flat(self, flat: Matrix) -> Matrix:
        """Restrict a cocycle to the first syzygy (columns indexed by the
        syzygy's own coordinates)."""
        return Matrix(self.alg.field, self.psis(flat)[0])

    def psis(self, flats: Matrix) -> np.ndarray:
        """`psi_from_flat` of every column of `flats`, as one
        (columns, left dim, syzygy dim) array."""
        fld, m, k = self.alg.field, self.left.dim, flats.cols
        if self._lift_cache is None:
            diff = self.res.differential(1)
            lifts, ok = diff.solve_columns(self._syz)
            if not all(ok):
                raise HomAlgError("syzygy does not lift through the "
                                  "first differential")
            self._lift_cache = lifts
        # cochain l as a map off the first free module: column j*d + t is
        # basis element t acting on the image of generator j
        cochains = contract(fld, "tab,jbl->lajt", self.left.action_stack(),
                            flats.a.reshape(self.beta1, m, k))
        return contract(fld, "lak,ks->las", cochains.reshape(
            k, m, self.beta1 * self.alg.dim), self._lift_cache.a)

    def flat_from_psi(self, psi: Matrix) -> Matrix:
        """Extend a map off the first syzygy to a cocycle."""
        full = psi @ resolve(self.res.syzygy_module(1)).cover_matrix()
        # generator j's image is column j*d; flat cochains are generator-major
        images = full.a[:, ::self.alg.dim]
        return Matrix(self.alg.field, images.T.reshape(self.flat_dim, 1))

    def psi_from_class(self, coords: Matrix) -> Matrix:
        fld = self.alg.field
        flat = self.reps @ coords if self.dim else \
            Matrix.zeros(fld, self.flat_dim, 1)
        return self.psi_from_flat(flat)

    def class_of_flat(self, flat: Matrix) -> Matrix:
        sol, ok = self._class_basis.solve_columns(flat)
        if not all(ok):
            raise HomAlgError("vector is not a cocycle for this pair")
        nb = self.boundaries.cols
        return Matrix(self.alg.field, sol.a[nb:, :].copy())

    def zero_class(self) -> Matrix:
        return Matrix.zeros(self.alg.field, self.dim, 1)


def ext1_data(right: Module, left: Module) -> Ext1Data:
    return Ext1Data(right, left)


# -- extensions ------------------------------------------------------------------


def extension_from_psi(left: Module, right: Module,
                       psi: Matrix) -> ShortExactSequence:
    """Sequence with the given outer terms built as the pushout of the
    right term's cover along psi.

    psi must be the matrix of a module map from the right term's first
    syzygy (in syzygy coordinates) to the left term; its graph is then
    glued against the syzygy inside the sum of the left term and the
    cover.  The zero map yields the literal split sequence.
    """
    alg = left.algebra
    fld = alg.field
    res = resolve(right)
    syz = res.syzygy_subspace(1)
    if psi.rows != left.dim or psi.cols != syz.cols:
        raise HomAlgError("psi has the wrong shape for this pair")
    if psi.is_zero():
        return split_ses(left, right)
    amb = res.ambient_free(0)
    big = direct_sum([left, amb])
    glue = Matrix.vstack([psi, -syz])
    middle, proj, keep = _quotient(
        big, glue, f"E({left.label or '?'},{right.label or '?'})")
    inject = ModuleMap(left, middle, proj.matrix.take_cols(range(left.dim)),
                       validate=False)
    # [0 | cover] kills the glue, so it factors through the projection on
    # any section, such as the unit columns at the kept coordinates
    project_mat = Matrix.zeros(fld, right.dim, big.dim)
    project_mat.a[:, left.dim:] = res.cover_matrix().a
    project = ModuleMap(middle, right, project_mat.take_cols(keep),
                        validate=False)
    return ShortExactSequence(inject, project)


def extension_from_class(data: Ext1Data, coords: Matrix) -> ShortExactSequence:
    """Realize an extension class; the zero class gives the literal split."""
    if coords.is_zero():
        return split_ses(data.left, data.right)
    return extension_from_psi(data.left, data.right,
                              data.psi_from_class(coords))


def _lift_cover(res, surj: ModuleMap) -> Matrix:
    """k-matrix of a lift of the cover of `res`'s module through the
    surjection `surj` onto it, solved one generator at a time."""
    sols, ok = surj.matrix.solve_columns(res.generator_images(0))
    if not all(ok):
        raise HomAlgError("cover does not lift through the surjection")
    return assemble_action_columns(surj.source, sols)


def class_of_ses(data: Ext1Data, ses: ShortExactSequence) -> Matrix:
    """Extension class of a sequence with this pair's outer terms.

    The middle may be anything (free summands included); only the two
    maps matter.
    """
    if ses.right.dim != data.right.dim or ses.left.dim != data.left.dim:
        raise HomAlgError("sequence outer terms do not match the pair")
    through_syz = _lift_cover(data.res, ses.project) @ data._syz
    psi, ok = ses.inject.matrix.solve_columns(through_syz)
    if not all(ok):
        raise HomAlgError("syzygy image does not land in the left term")
    return data.class_of_flat(data.flat_from_psi(psi))


# -- pushforward -------------------------------------------------------------------


@dataclass
class Pushforward:
    """Embedding of a module into a minimal free hull of its dual maps,
    with the cokernel: 0 -> module -> free -> forward -> 0."""

    sequence: ShortExactSequence
    forward: Module


def pushforward(mod: Module) -> Pushforward:
    alg = mod.algebra
    if mod.dim == 0:
        # the zero module embeds into the zero free module
        target = free_module(alg, 0)
        zero = Matrix.zeros(alg.field, 0, 0)
        forward, proj = quotient_module(target, zero, label="push(0)")
        return Pushforward(ShortExactSequence(
            ModuleMap(mod, target, zero, validate=False), proj), forward)
    dual = r_dual(mod)
    gens = dual.module.min_generators()
    if gens.cols == 0:
        raise HomAlgError("module has no maps into the ring")
    q = dual.map_from_coords(gens)
    if q.rank() != mod.dim:
        raise HomAlgError("module does not embed into a free module "
                          "(evaluation has a kernel)")
    target = free_module(alg, gens.cols)
    forward, proj = quotient_module(target, q,
                                    label=f"push({mod.label or '?'})")
    inject = ModuleMap(mod, target, q, validate=False)
    return Pushforward(ShortExactSequence(inject, proj), forward)


# -- horseshoe construction -----------------------------------------------------------


@dataclass
class Horseshoe:
    """Syzygy sequence of a short exact sequence.

    The middle is the literal direct sum of the middle term's first
    syzygy and a free module of the recorded rank.
    """

    sequence: ShortExactSequence
    free_rank: int


def horseshoe(ses: ShortExactSequence) -> Horseshoe:
    alg = ses.left.algebra
    fld = alg.field
    l_mod = ses.middle
    res_n, res_l, res_m = resolve(ses.left), resolve(l_mod), resolve(ses.right)
    g_n, g_l, g_m = res_n.betti(0), res_l.betti(0), res_m.betti(0)
    d = alg.dim
    g_big = g_n + g_m

    # the left cover and the right cover lifted through the surjection
    big = Matrix.hstack([ses.inject.matrix @ res_n.cover_matrix(),
                         _lift_cover(res_m, ses.project)])

    # factor the combined cover through the minimal one and split it
    cover_l = res_l.cover_matrix()
    big_gens = Matrix(fld, big.a[:, [j * d for j in range(g_big)]].copy())
    u_imgs, ok = cover_l.solve_columns(big_gens)
    if not all(ok):
        raise HomAlgError("combined cover does not factor minimally")
    u = free_map_from_columns(alg, g_l, u_imgs)
    if u.rank() != g_l * d:
        raise HomAlgError("factored cover lost surjectivity")
    sec_imgs, ok = u.solve_columns(free_module(alg, g_l).min_generators())
    if not all(ok):
        raise HomAlgError("section of the factored cover does not exist")
    section = free_map_from_columns(alg, g_big, sec_imgs)

    # the kernel of u is free; pick minimal generators for it
    gens = _radical_complement(alg, *sparse_kernel(fld, u.sparse_columns()))
    f_rank = len(gens)
    if f_rank != g_big - g_l:
        raise HomAlgError("free complement has unexpected rank")
    ker_map = Matrix.from_sparse(fld, g_big * d, free_map_columns(alg, gens))

    omega_l = res_l.syzygy_module(1)
    middle = direct_sum([omega_l, free_module(alg, f_rank)])

    # the middle embeds in the combined free as section(syzygy) + kernel
    embed = Matrix.hstack([section @ res_l.syzygy_subspace(1), ker_map])
    if embed.rank() != middle.dim:
        raise HomAlgError("middle embedding is not injective")

    # left leg: the left term's syzygy sits inside the first generator blocks
    b_n = res_n.syzygy_subspace(1)
    incl_n = Matrix.zeros(fld, g_big * d, b_n.cols)
    incl_n.a[:g_n * d, :] = b_n.a
    left_coords, ok = embed.solve_columns(incl_n)
    if not all(ok):
        raise HomAlgError("left syzygy does not land in the middle")
    inject = ModuleMap(res_n.syzygy_module(1), middle, left_coords,
                       validate=False)

    # right leg: project onto the last generator blocks, read syzygy coords
    proj_rows = [g_n * d + p for p in res_m.free_positions(1)]
    project = ModuleMap(middle, res_m.syzygy_module(1),
                        Matrix(fld, embed.a[proj_rows, :].copy()),
                        validate=False)
    return Horseshoe(ShortExactSequence(inject, project), f_rank)


# -- the syzygy map on first Ext --------------------------------------------------------


@dataclass
class ExtSyzygyMap:
    """Matrix of the map sending an extension class to the class of its
    horseshoe sequence, over the chosen representative bases."""

    source_data: Ext1Data      # pair (right, left)
    target_data: Ext1Data      # pair (right syzygy, left syzygy)
    matrix: Matrix

    def is_surjective(self) -> bool:
        return self.matrix.rank() == self.target_data.dim


def ext_syzygy_map(right: Module, left: Module) -> ExtSyzygyMap:
    src = ext1_data(right, left)
    tgt = ext1_data(resolve(right).syzygy_module(1),
                    resolve(left).syzygy_module(1))
    fld = right.algebra.field
    units = Matrix.identity(fld, src.dim)
    cols = [class_of_ses(tgt, horseshoe(extension_from_class(
        src, units.take_cols([i]))).sequence) for i in range(src.dim)]
    mat = Matrix.hstack(cols) if cols else Matrix.zeros(fld, tgt.dim, 0)
    return ExtSyzygyMap(src, tgt, mat)
