"""Minimal free resolutions kept as subspace chains.

A step is stored in its nonzeros, O(betti * dim R) of them: the
differential d_i as sparse columns, dicts {row: entry} (d_0 is the
cover), and its kernel, the next syzygy, in the layout of
`linalg.sparse_kernel`.  A step takes minimal generators of the last
kernel off that layout (`_radical_complement`), builds the differential
on them from the algebra's sparse structure constants
(`modules.free_map_columns`) and eliminates it sparsely; no dense matrix
of a step is built, also not for the actions of a syzygy module, which
are read off the same layout (`_kernel_images`).  The dense accessors
serve maps between modules: each densifies once, on demand, read-only.

Three classes implement it.  `ChainResolution` computes the steps of
one module; a free module's chain starts from its identity cover, whose
empty kernel ends every later step.  `SumResolution` concatenates the
column lists of the parts of a direct sum, which makes equalities like
"syzygy of a sum is the sum of syzygies" literal object-level identities
rather than isomorphisms.  `ShiftedResolution` is the view of a parent
from one of its syzygies on: every syzygy module the parent materializes
carries it as its resolution, so taking a syzygy of a syzygy reuses the
same differentials instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import structure
from .linalg import Matrix, sparse_kernel, sparse_rref
from .modules import (
    Module,
    ModuleMap,
    ShortExactSequence,
    assemble_action_columns,
    direct_sum,
    free_map_columns,
    free_module,
    is_isomorphic,
    zero_module,
)


# Largest allocation, in bytes, that one resolution step may make, at
# ENTRY_BYTES per entry of its storage (`_check_step_size`): the step is
# refused before its differential is built, or as fill-in grows.  For k
# over F_2[x,y]/m^2 the step to window 15 predicts 35 MB.  A dense Ext
# transition is held to the same cap (`_check_dense_size`).
MAX_STEP_BYTES = 2**30
ENTRY_BYTES = 212


class ResolutionError(RuntimeError):
    """Raised when a resolution invariant fails internally, or when a
    step would allocate more than `MAX_STEP_BYTES`."""


class Resolution:
    """Common interface over the chain, sum and shifted variants.

    Subclasses implement `extend`, `betti`, `syzygy_module`, `columns(i)`
    (the sparse columns of d_i, the cover for i = 0) and
    `syzygy_layout(i)` (the i-th syzygy as the kernel of d_{i-1}, as
    `linalg.sparse_kernel` lays it out); the dense accessors are built
    here from those."""

    module: Module

    def betti_list(self, window: int) -> list[int]:
        self.extend(window)
        return [self.betti(i) for i in range(window + 1)]

    def _rows(self, i: int) -> int:
        """Rows of d_i: the dimension of the module, or of F_{i-1}."""
        return self.module.dim if i == 0 else self.betti(i - 1) * self.module.algebra.dim

    def _dense(self, key, rows: int, columns) -> Matrix:
        """`Matrix.from_sparse` of columns(), once per key, read-only."""
        cache = vars(self).setdefault("_dense_cache", {})
        if key not in cache:
            cache[key] = Matrix.from_sparse(self.module.algebra.field, rows, columns())
            cache[key].a.flags.writeable = False
        return cache[key]

    def differential(self, i: int) -> Matrix:
        if i < 1:
            raise ResolutionError("differentials start at index 1")
        return self._dense(("d", i), self._rows(i), lambda: self.columns(i))

    def cover_matrix(self) -> Matrix:
        return self._dense(("d", 0), self._rows(0), lambda: self.columns(0))

    def generator_images(self, i: int) -> Matrix:
        """d_i on the generators of F_i (columns j*d); the cover for i = 0."""
        d = self.module.algebra.dim
        return self._dense(("g", i), self._rows(i), lambda: self.columns(i)[::d])

    def syzygy_subspace(self, i: int) -> Matrix:
        if i < 1:
            raise ResolutionError("syzygy subspaces start at index 1")
        return self._dense(("k", i), self._rows(i), lambda: _basis_columns(
            self.module.algebra, *self.syzygy_layout(i)))

    def free_positions(self, i: int) -> list[int]:
        return self.syzygy_layout(i)[0]

    def ambient_free(self, i: int) -> Module:
        return free_module(self.module.algebra, self.betti(i))

    def terminated_at(self, upto: int) -> int | None:
        """Smallest index within the window where the resolution dies."""
        self.extend(upto)
        for i in range(upto + 1):
            if self.betti(i) == 0:
                return i
        return None


class ChainResolution(Resolution):
    """The steps of a module that is not a remembered direct sum:
    `_steps[i]` holds the columns of d_i and the layout of its kernel.  A
    free module is covered by the unit columns of its own coordinates."""

    def __init__(self, module: Module):
        self.module = module
        fld = module.algebra.field
        if module.free_rank is None:
            gens = module.min_generators()
            cover = assemble_action_columns(module, gens).sparse_columns()
            self._betti = [gens.cols]
        else:
            cover = [{j: fld.one()} for j in range(module.dim)]
            self._betti = [module.free_rank]
        self._steps = [(cover, sparse_kernel(fld, cover))]
        self._syz: dict[int, Module] = {}

    def extend(self, upto: int) -> None:
        alg = self.module.algebra
        d = alg.dim
        by_b = structure(alg, "columns")
        while len(self._betti) <= upto:
            i = len(self._betti)
            gens = _radical_complement(alg, *self._steps[-1][1])
            _assert_minimal(alg, gens)
            shape = (self._betti[-1] * d, len(gens) * d)
            # the columns, and the nonzeros (at most one per structure
            # constant met) in the columns and again in the rows
            _check_step_size(i, shape, shape[1] + 2 * sum(
                len(by_b.get(r % d, ())) for g in gens for r in g))
            diff = free_map_columns(alg, gens)
            n = shape[1] + sum(map(len, diff))
            kernel = sparse_kernel(alg.field, diff,
                                   lambda m: _check_step_size(i, shape, n + m))
            self._betti.append(len(gens))
            self._steps.append((diff, kernel))

    def betti(self, i: int) -> int:
        self.extend(i)
        return self._betti[i]

    def columns(self, i: int) -> list[dict]:
        self.extend(i)
        return self._steps[i][0]

    def syzygy_layout(self, i: int) -> tuple[list[int], dict[int, dict]]:
        if i < 1:
            raise ResolutionError("syzygy subspaces start at index 1")
        self.extend(i - 1)
        return self._steps[i - 1][1]

    def syzygy_module(self, i: int) -> Module:
        if i == 0:
            return self.module
        if i in self._syz:
            return self._syz[i]
        alg = self.module.algebra
        free, block = self.syzygy_layout(i)
        if not free:
            mod = zero_module(alg)
        else:
            n = len(free)
            acts = [Matrix.from_sparse(alg.field, n, [im.get(j, {}) for j in range(n)])
                    for im in map(dict, _kernel_images(alg, free, block)[1])]
            lbl = self.module.label or "?"
            mod = Module(alg, len(free), acts, label=f"syz^{i}({lbl})",
                         validate=False)
        mod._resolution = ShiftedResolution(self, i, mod)
        self._syz[i] = mod
        return mod


class SumResolution(Resolution):
    """Blockwise resolution of a remembered direct sum."""

    def __init__(self, module: Module, children: list[Resolution]):
        self.module = module
        self.children = children
        self._syz: dict[int, Module] = {}

    def extend(self, upto: int) -> None:
        for c in self.children:
            c.extend(upto)

    def betti(self, i: int) -> int:
        return sum(c.betti(i) for c in self.children)

    def columns(self, i: int) -> list[dict]:
        out: list[dict] = []
        off = 0
        for c in self.children:
            out += [{r + off: x for r, x in col.items()} for col in c.columns(i)]
            off += c._rows(i)
        return out

    def syzygy_layout(self, i: int) -> tuple[list[int], dict[int, dict]]:
        free: list[int] = []
        block: dict[int, dict] = {}
        off = 0
        for c in self.children:
            f, b = c.syzygy_layout(i)
            free += [p + off for p in f]
            block.update((p + off, {r + off: x for r, x in col.items()})
                         for p, col in b.items())
            off += c._rows(i)
        return free, block

    def syzygy_module(self, i: int) -> Module:
        if i == 0:
            return self.module
        if i not in self._syz:
            mod = direct_sum([c.syzygy_module(i) for c in self.children])
            mod._resolution = ShiftedResolution(self, i, mod)
            self._syz[i] = mod
        return self._syz[i]


class ShiftedResolution(Resolution):
    """View of a parent (chain or sum) starting at one of its syzygies;
    the resolution of that syzygy module, set when it is materialized."""

    def __init__(self, parent: Resolution, offset: int, module: Module):
        self.parent = parent
        self.offset = offset
        self.module = module

    def extend(self, upto: int) -> None:
        self.parent.extend(self.offset + upto)

    def betti(self, i: int) -> int:
        return self.parent.betti(self.offset + i)

    def columns(self, i: int) -> list[dict]:
        """d_i of the parent at offset + i; the cover (i = 0) is the rows
        of the parent's differential at its syzygy's free positions."""
        cols = self.parent.columns(self.offset + i)
        if i:
            return cols
        at = {p: k for k, p in enumerate(self.parent.free_positions(self.offset))}
        return [{at[r]: x for r, x in col.items() if r in at} for col in cols]

    def syzygy_layout(self, i: int) -> tuple[list[int], dict[int, dict]]:
        return self.parent.syzygy_layout(self.offset + i)

    def syzygy_module(self, i: int) -> Module:
        return self.parent.syzygy_module(self.offset + i)


def _basis_columns(alg, free: list[int], block: dict[int, dict]) -> list[dict]:
    """The basis columns of a kernel laid out by `linalg.sparse_kernel`."""
    one = alg.field.one()
    return [{f: one, **block.get(f, {})} for f in free]


def _kernel_images(alg, free: list[int], block: dict[int, dict]):
    """The basis columns of a kernel laid out by `linalg.sparse_kernel`,
    and for each variable v a generator of (j, x_v times basis column j
    at the free rows), skipping the columns whose image there is zero.
    The basis has identity rows at the free positions, so those rows are
    the image's coordinates in the basis."""
    d, norm = alg.dim, alg.field.coerce
    basis = _basis_columns(alg, free, block)
    at = {p: k for k, p in enumerate(free)}

    def images(v: int):
        left = structure(alg, "left", v)
        img: dict = {}  # reused while empty, as most images are
        for j, col in enumerate(basis):
            for r, x in col.items():
                for (a,), c in left.get(r % d, ()):
                    if (k := at.get(r - r % d + a)) is not None:
                        img[k] = norm(img.get(k, 0) + c * x)
            if img:
                yield j, {k: x for k, x in img.items() if x}
                img.clear()

    return basis, [images(v) for v in range(alg.nvars)]


def _radical_complement(alg, free: list[int], block: dict[int, dict]) -> list[dict]:
    """The basis columns that minimally generate a kernel laid out by
    `linalg.sparse_kernel`: the pivots of the coordinates of x_v times
    the basis (`_kernel_images`) index the part of the span inside the
    radical, and their complement generates it."""
    basis, per_var = _kernel_images(alg, free, block)
    pivots = sparse_rref(alg.field, (img for images in per_var
                                     for _, img in images), back=False)
    return [col for t, col in enumerate(basis) if t not in pivots]


def _check_step_size(i: int, shape: tuple[int, int], entries: int,
                     what: str = "resolution step") -> None:
    """Refuse step i (a rows x cols differential, `shape`) when its
    `entries` would take more than `MAX_STEP_BYTES`.  A step holds one
    dict per column and, while eliminating, each nonzero twice, in the
    columns and the rows (an Ext transition, `what`, once).  ENTRY_BYTES
    is the largest tracemalloc peak per entry over ten steps of k
    (scripts/step_bytes.py): 209 B for step 13 over F_2[x,y]/m^2, 158-212
    B over F_2, F_3, F_{2^31-1} and Q, 2-4 variables, m^2 and m^3."""
    size = ENTRY_BYTES * entries
    if size > MAX_STEP_BYTES:
        raise ResolutionError(
            f"{what} {i} would allocate {size} bytes (a {shape[0]}x"
            f"{shape[1]} sparse matrix and its elimination, {entries} "
            f"entries), over MAX_STEP_BYTES = {MAX_STEP_BYTES}; use a "
            f"window below {i} (--window on the command line)")


def _check_dense_size(i: int, shape: tuple[int, int], field) -> None:
    """Refuse to densify Ext transition i, a rows x cols matrix, past
    `MAX_STEP_BYTES` in `field.wide`, the dtype elimination copies into."""
    size = shape[0] * shape[1] * field.wide.itemsize
    if size > MAX_STEP_BYTES:
        raise ResolutionError(
            f"Ext transition {i} would allocate {size} bytes as a dense "
            f"{shape[0]}x{shape[1]} matrix, over MAX_STEP_BYTES = {MAX_STEP_BYTES}")


def _assert_minimal(alg, gens: list[dict]) -> None:
    """Chosen generators must lie inside the radical of the ambient free."""
    if any(r % alg.dim == 0 for g in gens for r in g):
        raise ResolutionError("resolution step lost minimality")


def resolve(module: Module) -> Resolution:
    """The cached minimal free resolution of a module."""
    if module._resolution is None:
        module._resolution = ChainResolution(module) if module.summands is None \
            else SumResolution(module, [resolve(p) for p, _ in module.summands])
    return module._resolution


def syzygy(module: Module, i: int = 1) -> Module:
    """The i-th syzygy in the minimal resolution, literally shared."""
    return resolve(module).syzygy_module(i)


def cover_sequence(module: Module) -> ShortExactSequence:
    """0 -> syzygy -> minimal free cover -> module -> 0."""
    res = resolve(module)
    omega = res.syzygy_module(1)
    amb = res.ambient_free(0)
    inject = ModuleMap(omega, amb, res.syzygy_subspace(1), validate=False)
    project = ModuleMap(amb, module, res.cover_matrix(), validate=False)
    return ShortExactSequence(inject, project)


@dataclass
class Periodicity:
    start: int
    period: int
    witness: ModuleMap


def detect_periodicity(module: Module, window: int) -> Periodicity | None:
    """First isomorphic pair of syzygies within the window, shortest
    period first; absent when the resolution terminates instead."""
    res = resolve(module)
    res.extend(window)
    if any(res.betti(i) == 0 for i in range(window + 1)):
        return None
    for period in range(1, window + 1):
        for start in range(0, window - period + 1):
            a = res.syzygy_module(start)
            b = res.syzygy_module(start + period)
            if a.dim == 0 or a.dim != b.dim:
                continue
            verdict = is_isomorphic(a, b)
            if verdict.kind == "yes":
                return Periodicity(start, period, verdict.witness)
    return None
