"""Derived-functor machinery: duals, Ext, extensions, pushforwards.

Ext groups come from the minimal free resolution of the source: maps
out of F_i are tuples of generator images.  The transition to F_{i+1}
precomposes them with d_{i+1}; it is built as sparse columns from the
sparse images and the target's actions, charged to the resolution step
cap, and only its rank is kept (`linalg.sparse_rref`).  Where step i + 1
is a direct sum of copies of other steps (`resolution.Resolution.parts`:
a tail, a remembered sum, a syzygy's parent), transition i is block
diagonal, so its rank and its charge are summed over the parts' tables,
and charged before any of them is read, as building it would be.  A
module's table reads its chain's, so ranks and the gather of the target
are computed once per chain and target actions (`modules.shared`), and
each table charges what it reads through its own index.  First Ext
(`Ext1Data`) ranks the same sparse columns; only its class basis, built
when extension classes are realized or read back, is dense.
Every lift through a minimal cover is a product with its section.  A
sequence's cocycle is that lift restricted to the right term's syzygy
(`psi_of_ses`); its class is that cocycle modulo coboundaries.  `horseshoe`
returns the syzygy sequence itself: its middle is the literal sum
syz^1(middle) + R^f, and f is read off the second summand.

Ring duals keep their basis maps once, as the columns of the Hom matrix
(`DualData.flat`, row-major dim R x dim M maps); `DualData.stack()` is the
same data as one (h, dim R, dim M) array with the map index first, so
precomposing every basis map with a module map is one contraction and
the evaluation into the double dual is a reshape.  The basis is unit at
free, so coordinates in it are read at its free positions (`_coords`).
Dual and pushforward matrices are built once per module actions, and
each call labels its modules after the module it was asked for.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra
from .linalg import Matrix, by_gather, contract, sparse_kernel, sparse_rref
from .modules import (
    Module,
    ModuleMap,
    ShortExactSequence,
    assemble_action_columns,
    direct_sum,
    free_module,
    hom_space_matrix,
    quotient_module,
    regular_module,
    shared,
    split_ses,
    zero_module,
)
from .resolution import (_basis_columns, _check_dense_size, _check_step_size,
                         _radical_complement, resolve)


class HomAlgError(RuntimeError):
    """Raised when a homological construction cannot be carried out."""


# -- linear dual -------------------------------------------------------------


def k_dual(mod: Module, label: str = "") -> Module:
    """Dual vector space with the transposed actions."""
    return Module(mod.algebra, mod.dim, mod.var_stack.transpose(0, 2, 1),
                  label=label or (f"({mod.label})*" if mod.label else ""))


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

    def map_from_coords(self, coords: Matrix) -> Matrix:
        """The maps with coordinates the columns of `coords`, stacked: row
        j*dim R + r is row r of map j."""
        d, m, g = self.source.algebra.dim, self.source.dim, coords.cols
        return Matrix(self.flat.field, (self.flat @ coords).a.reshape(
            d, m, g).transpose(2, 0, 1).reshape(g * d, m))


def r_dual(mod: Module) -> DualData:
    """Maps from the module into the regular module, with the ring action
    given by postcomposition and the module's label; its matrices are
    built once per actions (`modules.shared`), read-only."""
    alg = mod.algebra
    fld = alg.field
    if "dual" not in (entry := shared(mod)):
        flat = hom_space_matrix(mod, regular_module(alg))
        n, h = alg.nvars, flat.cols
        # x_v acts on the R-coordinate (row) of each map: one contraction
        # gives every x_v's images, side by side as the columns (v, map)
        images = contract(fld, "vab,bic->aivc", alg.var_stack,
                          flat.a.reshape(alg.dim, mod.dim, h))
        coords = _coords(flat, Matrix(fld, images.reshape(alg.dim * mod.dim, n * h)))
        va = coords.a.reshape(h, n, h).transpose(1, 0, 2)
        flat.a.flags.writeable = va.flags.writeable = False
        entry["dual"] = flat, va
    flat, va = entry["dual"]
    dm = Module(alg, flat.cols, va, label=f"({mod.label})^" if mod.label else "") \
        if flat.cols else zero_module(alg)
    return DualData(mod, dm, flat)


def _coords(basis: Matrix, vectors: Matrix) -> Matrix:
    """Coordinates of `vectors`, which must lie in the span, in a
    unit-at-free kernel basis: each basis column's last nonzero is its
    free position, where the others are 0, so they are the rows there."""
    return vectors.take_rows([np.flatnonzero(col)[-1] for col in basis.a.T])


def dual_map(f: ModuleMap, dual_target: DualData,
             dual_source: DualData) -> ModuleMap:
    """Precomposition with f, from the target's dual to the source's; f
    must be module-linear, so that each composite lies in the dual."""
    fld = f.source.algebra.field
    composed = contract(fld, "iab,bc->aci", dual_target.stack(), f.matrix.a)
    coords = _coords(dual_source.flat, Matrix(fld, composed.reshape(
        f.source.algebra.dim * f.source.dim, dual_target.flat.cols)))
    return ModuleMap(dual_target.module, dual_source.module, coords)


def biduality(mod: Module) -> ModuleMap:
    """Evaluation map from the module into its double dual."""
    alg = mod.algebra
    fld = alg.field
    d1 = r_dual(mod)
    d2 = r_dual(d1.module)
    if mod.dim == 0 or d2.module.dim == 0:
        return ModuleMap(mod, d2.module, Matrix.zeros(fld, d2.module.dim, mod.dim))
    # column j: evaluation at basis vector j, the row-major (dim R x h1)
    # map sending dual basis map i to its column j
    h1 = d1.flat.cols
    ev = d1.flat.a.reshape(alg.dim, mod.dim, h1).transpose(0, 2, 1)
    coords = _coords(d2.flat, Matrix(fld, ev.reshape(alg.dim * h1, mod.dim)))
    return ModuleMap(mod, d2.module, coords)


# -- Ext dimension tables ------------------------------------------------------


class ExtTable:
    """Ranks of the cochain transitions for one (source, target) pair,
    each read and charged once per table, and computed once per chain of
    steps and target actions, in the target's entry of `modules.shared`."""

    def __init__(self, source: Module, target: Module):
        self.source = source
        self.target = target
        self.res = resolve(source)
        self._ranks: dict[int, int] = {}
        self._sizes: dict[int, int] = {}  # transition -> entries charged
        if "gather" not in (entry := shared(target)):
            # basis element t -> [((a, b), nonzero entry of its action)]
            entry["gather"] = by_gather(target.action_stack(), 0, (1, 2))
        self._acts = entry["gather"]
        self._tables = entry.setdefault("ext", {})  # resolution -> its table (`_part`)

    def transition_columns(self, i: int) -> list[dict]:
        """Map from maps-out-of-F_i to maps-out-of-F_{i+1} as sparse
        columns (generator-major, target-coordinate-minor), refused past
        `MAX_STEP_BYTES`: column (s, b) holds sum_t c acts[t][a, b] at row
        (j, a), c the coefficient at (s, t) of generator j's image."""
        fld, d = self.source.algebra.field, self.source.algebra.dim
        dn, images = self.target.dim, self.res.generators(i + 1)
        cols: list[dict] = [{} for _ in range(self.res.betti(i) * dn)]
        self._charge(i, self._own_entries(i))
        for j, img in enumerate(images):
            for r, c in img.items():
                for (a, b), x in self._acts.get(r % d, ()):
                    col, k = cols[r // d * dn + b], j * dn + a
                    col[k] = col.get(k, 0) + c * x
        return [{k: w for k, v in col.items() if (w := fld.coerce(v))}
                if col else col for col in cols]

    def _entries(self, i: int) -> int:
        """What transition i is charged, once per index: summed over the
        parts of step i + 1 when it has them."""
        if i not in self._sizes:
            parts = self.res.parts(i + 1)
            self._sizes[i] = sum(m * self._part(p)._entries(j - 1) for p, j, m in parts) \
                if parts else self._own_entries(i)
        return self._sizes[i]

    def _own_entries(self, i: int) -> int:
        """What building transition i is charged: its columns, and per
        nonzero of a generator image the target's action entries it meets."""
        d = self.source.algebra.dim
        return self.res.betti(i) * self.target.dim + sum(
            len(self._acts.get(r % d, ())) for img in self.res.generators(i + 1) for r in img)

    def _charge(self, i: int, entries: int) -> None:
        dn, res = self.target.dim, self.res
        _check_step_size(i, lambda: (res.betti(i + 1) * dn, res.betti(i) * dn),
                         entries, "Ext transition")

    def _part(self, res) -> "ExtTable":
        """The table of `res`'s steps (its chain's) into the same target."""
        if (key := res.chain or res) not in self._tables:
            part = self._tables[key] = copy.copy(self)
            part.source, part.res, part._ranks, part._sizes = key.module, key, {}, {}
        return self._tables[key]

    def _rank(self, i: int, charge=None) -> int:
        """Rank of transition i: built and eliminated, or summed over the
        parts of step i + 1, charged first as building it would be; a
        part charges its fill-in through its caller's `charge`."""
        if i < 0:
            return 0
        if i not in self._ranks:
            charge = charge or (lambda n: self._charge(i, n))
            self.res.extend(i + 1)
            if parts := self.res.parts(i + 1):
                charge(total := self._entries(i))
                rank = 0
                for p, j, m in parts:  # the other blocks charged as predicted
                    part = self._part(p)
                    rank += m * part._rank(j - 1, lambda n: charge(total - part._entries(j - 1) + n))
                self._ranks[i] = rank
            else:
                cols = [col for col in self.transition_columns(i) if col]
                self._ranks[i] = len(sparse_rref(
                    self.source.algebra.field, cols, back=False,
                    grow=lambda m: charge(len(cols) + m)))
        return self._ranks[i]

    def dim(self, i: int) -> int:
        """dim Ext^i; 0 past the end of the resolution, with no transition."""
        if self.source.dim == 0 or self.target.dim == 0 or self.res.betti(i) == 0:
            return 0
        return (self.res.betti(i) * self.target.dim
                - self._rank(i) - self._rank(i - 1))

    def dims(self, window: int) -> list[int]:
        return [self.dim(i) for i in range(window + 1)]


def ext_dims(source: Module, target: Module, window: int) -> list[int]:
    return ExtTable(source, target).dims(window)


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
    # dims[0] = dim Hom(source, target) is nonzero: source -> k -> soc target
    return PValue("finite", max(i for i, d in enumerate(dims) if d), window, dims)


# -- total reflexivity, windowed -----------------------------------------------


@dataclass
class TRVerdict:
    kind: str    # "certified" | "window_pass" | "fail"
    window: int
    stage: str   # "" | "ext_module" | "ext_dual" | "reflexivity"
    index: int   # first failing Ext index, 0 otherwise
    reason: str

    @property
    def passed(self) -> bool:
        return self.kind != "fail"


def is_totally_reflexive(mod: Module, window: int = 10) -> TRVerdict:
    """Reflexivity plus two-sided ring-dual Ext vanishing on the window.

    Free modules and modules over a Gorenstein ring are certified
    outright; otherwise all checks passing only earns a window verdict,
    since Ext vanishing on a window proves nothing beyond it.
    """
    if mod.dim == 0 or mod.is_free():
        return TRVerdict("certified", window, "", 0, "free module")
    if mod.algebra.is_gorenstein:
        return TRVerdict("certified", window, "", 0,
                         "Gorenstein ring: every module is totally "
                         "reflexive")
    reg = regular_module(mod.algebra)
    ok, bad = ext_vanishes_through(mod, reg, window)
    if not ok:
        return TRVerdict("fail", window, "ext_module", bad,
                         f"Ext^{bad}(module, ring) is nonzero")
    dual = r_dual(mod)
    ok, bad = ext_vanishes_through(dual.module, reg, window)
    if not ok:
        return TRVerdict("fail", window, "ext_dual", bad,
                         f"Ext^{bad}(dual module, ring) is nonzero")
    if not biduality(mod).is_isomorphism():
        return TRVerdict("fail", window, "reflexivity", 0,
                         "evaluation into the double dual is not bijective")
    return TRVerdict("window_pass", window, "", 0,
                     f"all checks pass through window {window} over a "
                     "non-Gorenstein ring")


# -- first Ext with full cocycle data --------------------------------------------


class Ext1Data:
    """Full first-Ext workspace for one (right term, left term) pair.

    Cochains live on the first free module of the right term's resolution
    in flat coordinates C^1.  `dim` is |C^1| - rank T^1 - rank T^0, for
    T^i the Ext transitions, each ranked on a copy of its columns.  The
    dense class basis is refused here, sized by its pivot count |C^1| -
    rank T^1, and built on first read: the pivot columns of [T^0 |
    cocycles], the unit-at-free kernel of T^1, are the coboundaries and
    then the class representatives.  The psi conversions move between
    such cochains and maps on the first syzygy; `psis` lifts through d_1 by
    the section of the syzygy's cover, d_1's rows at its free positions.
    """

    def __init__(self, right: Module, left: Module):
        self.right = right
        self.left = left
        self.alg = right.algebra
        self.res = resolve(right)
        self.beta1 = self.res.betti(1)
        self.flat_dim = self.beta1 * left.dim
        self._table, fld = ExtTable(right, left), self.alg.field
        self._cols, rank = {}, {}
        for i in (1, 0):  # charged as `ExtTable._rank` charges
            self._cols[i] = self._table.transition_columns(i)
            rows = [dict(col) for col in self._cols[i] if col]
            rank[i] = len(sparse_rref(fld, rows, back=False,
                                      grow=lambda m: self._table._charge(i, len(rows) + m)))
        _check_dense_size("Ext^1 class basis", self.flat_dim * (self.flat_dim - rank[1]), fld,
                          f" as a dense {self.flat_dim}x{self.flat_dim - rank[1]} matrix")
        self._r0, self.dim = rank[0], self.flat_dim - rank[1] - rank[0]

    @cached_property
    def _class_basis(self) -> Matrix:
        fld, t1 = self.alg.field, self._cols[1]
        cocycles = _basis_columns(self.alg, *sparse_kernel(
            fld, t1, lambda m: self._table._charge(1, len(t1) + m)))
        cols = self._cols[0] + cocycles
        free = set(sparse_kernel(fld, cols, lambda m: self._table._charge(0, len(cols) + m))[0])
        return Matrix.from_sparse(fld, self.flat_dim,
                                  [col for j, col in enumerate(cols) if j not in free])

    boundaries = property(lambda self: self._class_basis.take_cols(range(self._r0)))
    reps = property(lambda self: self._class_basis.take_cols(
        range(self._r0, self._class_basis.cols)))

    def psis(self, flats: Matrix) -> np.ndarray:
        """The cocycles in the columns of `flats` restricted to the first
        syzygy (columns indexed by the syzygy's own coordinates), as one
        (columns, left dim, syzygy dim) array."""
        fld, m, k = self.alg.field, self.left.dim, flats.cols
        # cochain l as a map off the first free module: column j*d + t is
        # basis element t acting on the image of generator j
        cochains = contract(fld, "tab,jbl->lajt", self.left.action_stack(),
                            flats.a.reshape(self.beta1, m, k))
        return contract(fld, "lak,ks->las", cochains.reshape(
            k, m, self.beta1 * self.alg.dim),
            resolve(self.res.syzygy_module(1)).section().a)

    def psi_from_class(self, coords: Matrix) -> Matrix:
        fld = self.alg.field
        flat = self.reps @ coords if self.dim else \
            Matrix.zeros(fld, self.flat_dim, 1)
        return Matrix(fld, self.psis(flat)[0])

    def class_of_psi(self, psi: Matrix) -> Matrix:
        """Class of the cocycle extending a map off the first syzygy, such
        as a sequence's (`psi_of_ses`): its coordinates past the coboundaries."""
        gens = psi @ resolve(self.res.syzygy_module(1)).generator_images(0)
        flat = Matrix(self.alg.field, gens.a.T.reshape(self.flat_dim, 1))  # generator-major
        sol = self._class_basis.solve_columns(flat)[0]
        return Matrix(self.alg.field, sol.a[self.boundaries.cols:, :].copy())


# -- extensions ------------------------------------------------------------------


def extension_from_psi(left: Module, right: Module,
                       psi: Matrix) -> ShortExactSequence:
    """Sequence with the given outer terms whose middle is left + right,
    x_v acting by [[A_v, psi delta_v], [0, B_v]], with the split maps
    [I; 0] and [0 I].  psi maps the right term's first syzygy (in its
    coordinates) to the left term; delta_v = x_v s - s x_v, for s the
    cover's section (`Resolution.section`), lies in that syzygy, and s is
    zero at its free positions, so the rows of x_v s there are delta_v's
    coordinates.  This is the pushout (left + F_0) / graph(psi, -syz) in
    the basis (a, r) -> (a, s r) (Weibel, An Introduction to Homological
    Algebra, 3.4).  The zero map yields the literal split sequence."""
    res = resolve(right)
    free = res.free_positions(1)
    if psi.rows != left.dim or psi.cols != len(free):
        raise HomAlgError("psi has the wrong shape for this pair")
    split = split_ses(left, right)
    if psi.is_zero():
        return split
    fld, m = left.algebra.field, left.dim
    acts = split.middle.var_stack.copy()
    deltas = contract(fld, "vab,bc->vac", res.ambient_free(0).var_stack[:, free],
                      res.section().a)
    acts[:, :m, m:] = contract(fld, "ab,vbc->vac", psi.a, deltas)
    middle = Module(left.algebra, split.middle.dim, acts,
                    label=f"E({left.label or '?'},{right.label or '?'})")
    return ShortExactSequence(
        ModuleMap(left, middle, split.inject.matrix),
        ModuleMap(middle, right, split.project.matrix))


def extension_from_class(data: Ext1Data, coords: Matrix) -> ShortExactSequence:
    """Realize an extension class; the zero class gives the literal split."""
    return extension_from_psi(data.left, data.right,
                              data.psi_from_class(coords))


def _lift_cover(res, surj: ModuleMap) -> Matrix:
    """Lifts through the surjection `surj` of the generators of the cover
    of `res`'s module, one column each."""
    sols, ok = surj.matrix.solve_columns(res.generator_images(0))
    if not all(ok):
        raise HomAlgError("cover does not lift through the surjection")
    return sols


def psi_of_ses(ses: ShortExactSequence) -> Matrix:
    """A cocycle of the sequence as a map off the right term's first
    syzygy (in its coordinates) to the left term: the right term's cover
    lifted through the projection, restricted to the syzygy.  The middle
    may be anything (free summands included); only the two maps matter.
    Exactness puts the lifted syzygy in the image of the injection."""
    res = resolve(ses.right)
    lift = assemble_action_columns(ses.project.source, _lift_cover(res, ses.project))
    return ses.inject.matrix.solve_columns(lift @ res.syzygy_subspace(1))[0]


def class_of_ses(data: Ext1Data, ses: ShortExactSequence) -> Matrix:
    """Extension class of a sequence with this pair's outer terms."""
    return data.class_of_psi(psi_of_ses(ses))


# -- pushforward -------------------------------------------------------------------


def pushforward(mod: Module) -> ShortExactSequence:
    """The embedding into a minimal free hull of the module's dual maps,
    with the cokernel labelled after the module: 0 -> module -> free ->
    push(module) -> 0; its maps are built once per actions
    (`modules.shared`), read-only."""
    alg = mod.algebra
    if mod.dim == 0:
        # the zero module embeds into the zero free module
        target = free_module(alg, 0)
        return ShortExactSequence(ModuleMap.zero(mod, target), ModuleMap.identity(target))
    if "push" not in (entry := shared(mod)):
        dual = r_dual(mod)
        gens = dual.module.min_generators()
        q = dual.map_from_coords(gens)
        if q.rank() != mod.dim:
            raise HomAlgError("module does not embed into a free module "
                              "(evaluation has a kernel)")
        forward, proj = quotient_module(free_module(alg, gens.cols), q)
        q.a.flags.writeable = proj.matrix.a.flags.writeable = False
        entry["push"] = q, proj.matrix, forward.var_stack
    q, proj, va = entry["push"]
    target = free_module(alg, q.rows // alg.dim)
    forward = Module(alg, proj.rows, va, label=f"push({mod.label or '?'})")
    return ShortExactSequence(ModuleMap(mod, target, q), ModuleMap(target, forward, proj))


# -- horseshoe construction -----------------------------------------------------------


def horseshoe(ses: ShortExactSequence) -> ShortExactSequence:
    """The horseshoe lemma's syzygy sequence (the lemma makes the middle
    embedding injective); each raise reads a solve's result or a count.
    Its middle is the literal direct sum syz^1(middle) + R^f, so the free
    rank f is its second summand's, which `reducing._padded` pads with
    carried free blocks."""
    alg = ses.left.algebra
    fld = alg.field
    res_n, res_l, res_m = resolve(ses.left), resolve(ses.middle), resolve(ses.right)
    g_n, g_l, g_m = res_n.betti(0), res_l.betti(0), res_m.betti(0)
    d = alg.dim
    g_big = g_n + g_m

    # the generators of the combined cover: the left cover's, and the
    # right cover's lifted through the surjection
    big_gens = Matrix.hstack([ses.inject.matrix @ res_n.generator_images(0),
                              _lift_cover(res_m, ses.project)])

    # factor the combined cover through the minimal one and split it
    free_l, free_big = free_module(alg, g_l), free_module(alg, g_big)
    u = assemble_action_columns(free_l, res_l.section() @ big_gens)
    sec_imgs = u.solve(free_l.min_generators())
    if sec_imgs is None:  # u is onto exactly when the generators of F_l lift
        raise HomAlgError("factored cover lost surjectivity")
    section = assemble_action_columns(free_big, sec_imgs)

    # the kernel of u is free; pick minimal generators for it
    gens = _radical_complement(alg, *sparse_kernel(fld, u.sparse_columns()))
    f_rank = len(gens)
    if f_rank != g_big - g_l:
        raise HomAlgError("free complement has unexpected rank")
    ker_map = assemble_action_columns(free_big, Matrix.from_sparse(fld, g_big * d, gens))

    omega_l = res_l.syzygy_module(1)
    middle = direct_sum([omega_l, free_module(alg, f_rank)])

    # the middle embeds in the combined free as section(syzygy) + kernel
    embed = Matrix.hstack([section @ res_l.syzygy_subspace(1), ker_map])

    # left leg: the left term's syzygy sits inside the first generator blocks
    b_n = res_n.syzygy_subspace(1)
    incl_n = Matrix.zeros(fld, g_big * d, b_n.cols)
    incl_n.a[:g_n * d, :] = b_n.a
    left_coords, ok = embed.solve_columns(incl_n)
    if not all(ok):
        raise HomAlgError("left syzygy does not land in the middle")
    inject = ModuleMap(res_n.syzygy_module(1), middle, left_coords)

    # right leg: project onto the last generator blocks, read syzygy coords
    proj_rows = [g_n * d + p for p in res_m.free_positions(1)]
    project = ModuleMap(middle, res_m.syzygy_module(1),
                        Matrix(fld, embed.a[proj_rows, :].copy()))
    return ShortExactSequence(inject, project)


# -- the syzygy map on first Ext --------------------------------------------------------


def ext_syzygy_map(right: Module, left: Module) -> tuple[Ext1Data, Ext1Data, Matrix]:
    """The Ext^1 data of (right, left) and of their first syzygies, and the
    matrix, over their representative bases, of the map sending an
    extension class to the class of its horseshoe sequence."""
    src = Ext1Data(right, left)
    tgt = Ext1Data(resolve(right).syzygy_module(1),
                   resolve(left).syzygy_module(1))
    fld = right.algebra.field
    units = Matrix.identity(fld, src.dim)
    cols = [class_of_ses(tgt, horseshoe(extension_from_class(
        src, units.take_cols([i])))) for i in range(src.dim)]
    return src, tgt, Matrix.hstack(cols) if cols else Matrix.zeros(fld, tgt.dim, 0)
