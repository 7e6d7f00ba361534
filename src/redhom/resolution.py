"""Minimal free resolutions kept as subspace chains.

Each syzygy is stored as a kernel basis inside the previous free module
(unit-at-free-column form), never as a standalone dense representation,
so one exact row reduction per step is the whole cost.  Materialized
syzygy modules share the chain: taking a syzygy of a materialized syzygy
reuses the same differentials instead of recomputing them.

Resolutions of direct sums are assembled blockwise from the parts, which
makes equalities like "syzygy of a sum is the sum of syzygies" literal
object-level identities rather than isomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, contract
from .modules import (
    Module,
    ModuleMap,
    ShortExactSequence,
    direct_sum,
    free_map_from_columns,
    free_module,
    is_isomorphic,
    kernel_actions,
    zero_module,
)


# Largest allocation, in bytes, that one resolution step may make: its
# differential and that differential's kernel basis.  Both sizes are
# known before the step starts, so a step past the cap is refused before
# it allocates.  Resolving k over F_2[x,y]/m^2, the step to window 13
# predicts 0.70 GB and is allowed; the step to window 14 predicts 2.8 GB
# and is refused.
MAX_STEP_BYTES = 2**30


class ResolutionError(RuntimeError):
    """Raised when a resolution invariant fails internally, or when a
    step would allocate more than `MAX_STEP_BYTES`."""


def assemble_action_columns(mod: Module, gens: Matrix) -> Matrix:
    """k-matrix of free(g) -> mod sending generator j to column j of
    `gens`; column j*d + t is basis element t acting on that image."""
    fld = mod.algebra.field
    g = gens.cols
    if g == 0:
        return Matrix.zeros(fld, mod.dim, 0)
    out = contract(fld, "tab,bj->ajt", mod.action_stack(), gens.a)
    return Matrix(fld, out.reshape(mod.dim, g * mod.algebra.dim))


class Resolution:
    """Common interface over the chain, free, sum and shifted variants."""

    module: Module

    # subclasses implement extend/betti/differential/cover and the
    # subspace accessors; everything else is shared

    def extend(self, upto: int) -> None:
        raise NotImplementedError

    def betti(self, i: int) -> int:
        raise NotImplementedError

    def betti_list(self, window: int) -> list[int]:
        self.extend(window)
        return [self.betti(i) for i in range(window + 1)]

    def differential(self, i: int) -> Matrix:
        raise NotImplementedError

    def cover_matrix(self) -> Matrix:
        raise NotImplementedError

    def syzygy_subspace(self, i: int) -> Matrix:
        raise NotImplementedError

    def free_positions(self, i: int) -> list[int]:
        raise NotImplementedError

    def syzygy_module(self, i: int) -> Module:
        raise NotImplementedError

    def ambient_free(self, i: int) -> Module:
        if not hasattr(self, "_ambient"):
            self._ambient = {}
        if i not in self._ambient:
            self._ambient[i] = free_module(self.module.algebra, self.betti(i))
        return self._ambient[i]

    def syzygy_cover_matrix(self, i: int) -> Matrix:
        """Cover of the i-th syzygy written in its own coordinates."""
        if i == 0:
            return self.cover_matrix()
        fld = self.module.algebra.field
        diff = self.differential(i)
        fp = self.free_positions(i)
        return Matrix(fld, diff.a[fp, :].copy()) if fp else \
            Matrix.zeros(fld, 0, diff.cols)

    def syzygy_embedding(self, i: int) -> ModuleMap:
        """Inclusion of the materialized i-th syzygy into its ambient free."""
        return ModuleMap(self.syzygy_module(i), self.ambient_free(i - 1),
                         self.syzygy_subspace(i), validate=False)

    def terminated_at(self, upto: int) -> int | None:
        """Smallest index within the window where the resolution dies."""
        self.extend(upto)
        for i in range(upto + 1):
            if self.betti(i) == 0:
                return i
        return None


class FreeResolution(Resolution):
    """A free module covers itself; everything beyond is zero."""

    def __init__(self, module: Module):
        self.module = module
        self._rank = module.free_rank

    def extend(self, upto: int) -> None:
        pass

    def betti(self, i: int) -> int:
        return self._rank if i == 0 else 0

    def differential(self, i: int) -> Matrix:
        fld = self.module.algebra.field
        rows = self.module.dim if i == 1 else 0
        return Matrix.zeros(fld, rows, 0)

    def cover_matrix(self) -> Matrix:
        return Matrix.identity(self.module.algebra.field, self.module.dim)

    def syzygy_subspace(self, i: int) -> Matrix:
        fld = self.module.algebra.field
        rows = self.module.dim if i == 1 else 0
        return Matrix.zeros(fld, rows, 0)

    def free_positions(self, i: int) -> list[int]:
        return []

    def syzygy_module(self, i: int) -> Module:
        return self.module if i == 0 else zero_module(self.module.algebra)


class ChainResolution(Resolution):
    """The working implementation for a plain (non-free, non-sum) module."""

    def __init__(self, module: Module):
        self.module = module
        gens = module.min_generators()
        cover = assemble_action_columns(module, gens)
        self._betti = [gens.cols]
        self._diffs = [cover]          # index i holds d_i; d_0 is the cover
        kb, fp = cover.kernel_data()
        self._kernels = [(kb, fp)]     # index i holds the (i+1)-th syzygy
        self._syz: dict[int, Module] = {}

    def extend(self, upto: int) -> None:
        alg = self.module.algebra
        while len(self._betti) <= upto:
            i = len(self._betti)
            kb, fp = self._kernels[i - 1]
            gen_idx = _radical_complement(self.ambient_free(i - 1), kb, fp)
            _check_step_size(alg, i, kb.rows, len(gen_idx) * alg.dim, kb.cols)
            gens = kb.take_cols(gen_idx)
            _assert_minimal(alg, gens)
            diff = free_map_from_columns(alg, self._betti[i - 1], gens)
            nkb, nfp = diff.kernel_data()
            self._betti.append(len(gen_idx))
            self._diffs.append(diff)
            self._kernels.append((nkb, nfp))

    def betti(self, i: int) -> int:
        self.extend(i)
        return self._betti[i]

    def differential(self, i: int) -> Matrix:
        if i < 1:
            raise ResolutionError("differentials start at index 1")
        self.extend(i)
        return self._diffs[i]

    def cover_matrix(self) -> Matrix:
        return self._diffs[0]

    def syzygy_subspace(self, i: int) -> Matrix:
        if i < 1:
            raise ResolutionError("syzygy subspaces start at index 1")
        self.extend(i - 1)
        return self._kernels[i - 1][0]

    def free_positions(self, i: int) -> list[int]:
        self.extend(i - 1)
        return self._kernels[i - 1][1]

    def syzygy_module(self, i: int) -> Module:
        if i == 0:
            return self.module
        if i in self._syz:
            return self._syz[i]
        alg = self.module.algebra
        self.extend(i - 1)
        kb, fp = self._kernels[i - 1]
        if kb.cols == 0:
            mod = zero_module(alg)
        else:
            lbl = self.module.label or "?"
            mod = Module(alg, kb.cols,
                         kernel_actions(self.ambient_free(i - 1), kb, fp),
                         label=f"syz^{i}({lbl})", validate=False)
            mod._res_hook = (self, i)
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

    def differential(self, i: int) -> Matrix:
        fld = self.module.algebra.field
        return Matrix.block_diag(fld, [c.differential(i) for c in self.children])

    def cover_matrix(self) -> Matrix:
        fld = self.module.algebra.field
        return Matrix.block_diag(fld, [c.cover_matrix() for c in self.children])

    def syzygy_subspace(self, i: int) -> Matrix:
        fld = self.module.algebra.field
        return Matrix.block_diag(fld, [c.syzygy_subspace(i) for c in self.children])

    def free_positions(self, i: int) -> list[int]:
        out = []
        off = 0
        for c in self.children:
            fp = c.free_positions(i)
            out.extend(p + off for p in fp)
            off += c.syzygy_subspace(i).rows
        return out

    def syzygy_module(self, i: int) -> Module:
        if i == 0:
            return self.module
        if i not in self._syz:
            parts = [c.syzygy_module(i) for c in self.children]
            mod = direct_sum(parts) if len(parts) > 1 else parts[0]
            if mod._res_hook is None and mod.free_rank is None:
                mod._res_hook = (self, i)
            self._syz[i] = mod
        return self._syz[i]


class ShiftedResolution(Resolution):
    """View of a parent chain starting at one of its syzygies."""

    def __init__(self, parent: Resolution, offset: int):
        self.parent = parent
        self.offset = offset
        self.module = parent.syzygy_module(offset)

    def extend(self, upto: int) -> None:
        self.parent.extend(self.offset + upto)

    def betti(self, i: int) -> int:
        return self.parent.betti(self.offset + i)

    def differential(self, i: int) -> Matrix:
        return self.parent.differential(self.offset + i)

    def cover_matrix(self) -> Matrix:
        return self.parent.syzygy_cover_matrix(self.offset)

    def syzygy_subspace(self, i: int) -> Matrix:
        return self.parent.syzygy_subspace(self.offset + i)

    def free_positions(self, i: int) -> list[int]:
        return self.parent.free_positions(self.offset + i)

    def syzygy_module(self, i: int) -> Module:
        return self.parent.syzygy_module(self.offset + i)


def _radical_complement(ambient: Module, kb: Matrix,
                        fp: list[int]) -> list[int]:
    """Indices of kernel-basis columns that minimally generate the span.

    Coordinates of radical elements with respect to the kernel basis are
    read off the free positions; the complement of their row-reduced
    pivot set indexes a minimal generating set.
    """
    s = kb.cols
    if s == 0:
        return []
    if ambient.algebra.nvars == 0:
        return list(range(s))
    coords = Matrix.hstack(kernel_actions(ambient, kb, fp))
    _, piv = coords.transpose().rref()
    pivset = set(piv)
    return [j for j in range(s) if j not in pivset]


def _check_step_size(alg, i: int, rows: int, cols: int, image: int) -> None:
    """Refuse step i before it allocates when its rows x cols differential
    and the cols x (cols - image) kernel basis of it, in the field's
    storage dtype (8-byte references over Q), would exceed
    `MAX_STEP_BYTES`; `image` is the dimension of the syzygy the step
    covers, which is the differential's rank."""
    size = alg.field.dtype.itemsize * (rows * cols + cols * (cols - image))
    if size > MAX_STEP_BYTES:
        raise ResolutionError(
            f"resolution step {i} would allocate {size} bytes (a {rows}x{cols} "
            f"differential and its kernel basis), over MAX_STEP_BYTES = "
            f"{MAX_STEP_BYTES}; resolve to a window below {i} (--window on "
            f"the command line)")


def _assert_minimal(alg, gens: Matrix) -> None:
    """Chosen generators must lie inside the radical of the ambient free."""
    if gens.a[::alg.dim, :].any():
        raise ResolutionError("resolution step lost minimality")


def resolve(module: Module) -> Resolution:
    """The cached minimal free resolution of a module."""
    if module._resolution is not None:
        return module._resolution
    if module._res_hook is not None:
        res: Resolution = ShiftedResolution(*module._res_hook)
    elif module.free_rank is not None:
        res = FreeResolution(module)
    elif module.summands is not None:
        res = SumResolution(module, [resolve(p) for p, _ in module.summands])
    else:
        res = ChainResolution(module)
    module._resolution = res
    return res


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
