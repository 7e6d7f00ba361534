"""Minimal free resolutions kept as subspace chains.

A step is stored in its nonzeros, O(betti * dim R) of them: the images
under d_i of the generators of F_i, dicts {row: entry}, and the kernel
of d_i, the next syzygy, in the layout of `linalg.sparse_kernel`.  A
step takes minimal generators of the last kernel off that layout
(`_radical_complement`), multiplies them by the structure constants
(`modules.free_products`) straight into the rows of d_i and eliminates
those (`linalg.row_kernel`); no dense matrix of a step is built, also
not for the actions of a syzygy module (`_kernel_images`).  The columns
of d_i and the dense accessors, which serve maps between modules, are
built on demand, once, as is the cover's section, which every lift
through a cover reads.  No step follows a kernel with no free positions:
every later index reads as zero.

A step is read, not stepped, when it is, as data, the in-order direct
sum of copies of other steps, which `Resolution.parts(i)` names; Betti
numbers, charges and Ext ranks (`homalg.ExtTable`) are summed over them.
A remembered direct sum's steps are its parts', a syzygy's its parent's.
Step i is a function of the kernel layout of step i - 1 alone, so once
step j's layout equals step i's, step j + t is step i + t: a periodic
tail (over a hypersurface, Eisenbud, Trans. AMS 260, 1980).  Once m
kills c_j > 0 minimal generators g of syz^j, each k g is a direct
summand: its column of d_j is independent of the others, so every later
kernel layout is the disjoint union of k's, in g's blocks, and the
rest's.  Step j + t is then the rest's step t (`_rest`, a chain seeded
with step j restricted to the other blocks) and c_j copies of k's
(`_residue_chain`): a split tail, semisimple when m kills all of syz^j.
`generators` and `syzygy_layout` past a split tail step for real.  The
steps are a function of the actions, so every module with the same
actions reads one chain of steps, kept in the algebra's table
(`modules.shared`), as do the split tails that read k's.  Each module
charges every step it reads, through its own index, what stepping it
would be charged before elimination, so a refusal and its message do
not depend on what else was resolved, also in a part stepped to read it.

Four classes implement it.  `ChainResolution` is the chain of steps of
some actions; a free module's chain starts from its identity cover, whose
empty kernel ends it at index 1.  `ShiftedResolution` is the view of a
parent from one of its syzygies on: every syzygy module the parent
materializes carries it as its resolution, so taking a syzygy of a
syzygy reuses the same differentials instead of recomputing them.  A
module's resolution, `ModuleResolution`, is the view of its chain at
offset 0 that keeps the module's own charges and labelled syzygies.
`SumResolution` concatenates the column lists of the parts of a direct
sum, which makes equalities like "syzygy of a sum is the sum of
syzygies" literal object-level identities rather than isomorphisms.
"""

from __future__ import annotations

from .algebra import structure
from .linalg import Matrix, row_kernel, sparse_kernel, sparse_rref
from .modules import (
    Module,
    assemble_action_columns,
    direct_sum,
    free_map_columns,
    free_module,
    free_products,
    residue_field,
    shared,
    zero_module,
)


# Largest allocation, in bytes, that one resolution step may make, at
# ENTRY_BYTES per entry of its storage (`_check_step_size`): the step is
# refused before its differential is built, or as fill-in grows.  For k
# over F_2[x,y]/m^2 the step to window 15 predicts 35 MB.  Ext transitions
# and their eliminations are held to the same cap, and so is every dense
# array sized up front: an algebra's tables, a Hom system, the Ext^1 class
# basis and a certificate's powers (`_check_dense_size`).
MAX_STEP_BYTES = 2**30
ENTRY_BYTES = 212


class ResolutionError(RuntimeError):
    """Raised when a resolution invariant fails internally, or when a step
    would allocate more than `MAX_STEP_BYTES`; `reason` omits the hint."""

    def __init__(self, reason: str, hint: str = ""):
        super().__init__(reason + hint)
        self.reason = reason


class Resolution:
    """Common interface over the chain, module, sum and shifted variants.

    Subclasses implement `extend`, `betti`, `syzygy_module` (not a chain),
    `columns(i)` (the sparse columns of d_i, the cover for i = 0) and
    `generators(i)` (its columns j*d), or `_sparse` for both, and
    `syzygy_layout(i)` (the i-th syzygy as the kernel of d_{i-1}, as
    `linalg.sparse_kernel` lays it out); the dense accessors are built
    here from those."""

    module: Module
    chain: "ChainResolution | None" = None  # the chain whose steps these are

    def betti_list(self, window: int) -> list[int]:
        self.extend(window)
        return [self.betti(i) for i in range(window + 1)]

    def columns(self, i: int) -> list[dict]:
        return self._sparse("columns", i)

    def generators(self, i: int) -> list[dict]:
        return self._sparse("generators", i)

    def _rows(self, i: int) -> int:
        """Rows of d_i: the dimension of the module, or of F_{i-1}."""
        return self.module.dim if i == 0 else self.betti(i - 1) * self.module.algebra.dim

    def _cached(self, key, build) -> Matrix:
        """build(), once per key and chain, read-only."""
        cache = vars(self.chain or self).setdefault("_dense_cache", {})
        if key not in cache:
            cache[key] = build()
            cache[key].a.flags.writeable = False
        return cache[key]

    def _dense(self, key, rows: int, columns) -> Matrix:
        """`Matrix.from_sparse` of columns(), once per key, read-only."""
        return self._cached(key, lambda: Matrix.from_sparse(
            self.module.algebra.field, rows, columns()))

    def differential(self, i: int) -> Matrix:
        """d_i: F_i -> F_{i-1}; the cover F_0 -> module for i = 0."""
        if i < 0:
            raise ResolutionError("differentials start at index 0")
        return self._dense(("d", i), self._rows(i), lambda: self.columns(i))

    def section(self) -> Matrix:
        """The k-linear section s of the cover: cover @ s = I with the free
        variables zero, so its rows at `free_positions(1)` are zero.  That
        solution is linear in the target: s @ y solves cover @ x = y, and
        every lift through a cover reads it (`homalg`, `omega_of_map`)."""
        def build() -> Matrix:
            if (s := self.differential(0).solve(Matrix.identity(
                    self.module.algebra.field, self.module.dim))) is None:
                raise ResolutionError("cover is not surjective: no section")
            return s
        return self._cached("s", build)

    def generator_images(self, i: int) -> Matrix:
        """d_i on the generators of F_i (columns j*d); the cover for i = 0."""
        return self._dense(("g", i), self._rows(i), lambda: self.generators(i))

    def syzygy_subspace(self, i: int) -> Matrix:
        if i < 1:
            raise ResolutionError("syzygy subspaces start at index 1")
        return self._dense(("k", i), self._rows(i), lambda: _basis_columns(
            self.module.algebra, *self.syzygy_layout(i)))

    def free_positions(self, i: int) -> list[int]:
        return self.syzygy_layout(i)[0]

    def ambient_free(self, i: int) -> Module:
        return free_module(self.module.algebra, self.betti(i))

    def parts(self, i: int) -> list[tuple["Resolution", int, int]]:
        """[(part, j, m)] when step i (generators, kernel layout and Betti
        number) is the direct sum of m copies of each part's step j, as
        data, in order (past a split tail, up to the order of blocks); []
        when step i is computed here.  Read after `extend(i)`."""
        return []

    def terminated_at(self, upto: int) -> int | None:
        """Smallest index within the window where the resolution dies."""
        self.extend(upto)
        for i in range(upto + 1):
            if self.betti(i) == 0:
                return i
        return None


class ChainResolution(Resolution):
    """The chain of steps of a module's actions, shared by every module with
    those actions (`resolve`): `_steps[i]` holds `generators(i)` and the
    layout of the kernel of d_i.  Its `module` is any module with its
    actions, whose label is not read; each module reads it through its own
    `ModuleResolution`.  A free module is covered by the unit columns of
    its own coordinates.

    Stepping stops at the first tail whose shape is known (see the module
    docstring): `_period` (s, p) once a kernel layout repeats, or
    `_simple` (j, c_j) once m kills c_j generators of syz^j, and `_rest`
    the chain of the others, if any, started at that step by `seed`
    (generators, kernel layout); it keeps the root's module, for the
    algebra."""

    def __init__(self, module: Module, seed: tuple | None = None):
        self.module = module
        fld, d = module.algebra.field, module.algebra.dim
        self._columns: dict[int, list[dict]] = {}
        if seed is None:
            if module.free_rank is None:
                cover = assemble_action_columns(module, module.min_generators()).sparse_columns()
            else:
                cover = [{j: fld.one()} for j in range(module.dim)]
            self._columns[0] = cover
            seed = cover[::d], sparse_kernel(fld, cover)
        self._betti = [len(seed[0])]
        self._steps = [seed]
        self._entries = [0]  # what each step was charged; the cover is not
        self._seen = {_layout_key(self._betti[0], self._steps[0][1]): [0]}
        self._period: tuple[int, int] | None = None
        self._simple: tuple[int, int] | None = None
        self._rest: ChainResolution | None = None
        self._k: ChainResolution | None = None  # k's chain, once read past a split tail
        self._reads: dict[int, tuple[int, int]] = {}  # read (betti, entries)
        self._plan: tuple | None = None  # the next step's generators, shape, entries

    def extend(self, upto: int) -> None:
        """Step until index `upto`, a tail or the end."""
        while (len(self._betti) <= upto and self._steps[-1][1][0]
               and self._period is self._simple is None):
            self._step()

    def _next(self) -> tuple:
        """The generators of the chain's next step, the shape of its
        differential and the entries it is charged: planned once, built by
        `_step`."""
        if self._plan is None:
            alg = self.module.algebra
            d = alg.dim
            by_b = structure(alg, "columns")
            met = [len(by_b.get(b, ())) for b in range(d)]  # constants per residue
            gens = _radical_complement(alg, *self._steps[-1][1])
            shape = (self._betti[-1] * d, len(gens) * d)
            # the columns, and the nonzeros (at most one per structure
            # constant met) twice, as products and in the rows
            terms = [r % d for g in gens for r in g]
            if 0 in terms:
                raise ResolutionError("resolution step lost minimality")
            self._plan = gens, shape, shape[1] + 2 * sum(map(met.__getitem__, terms))
        return self._plan

    def _step(self, shift: int = 0) -> None:
        """Take the chain's next step; a refusal names its index plus
        `shift`."""
        alg = self.module.algebra
        d = alg.dim
        i = len(self._betti)
        gens, shape, entries = self._next()
        _check_step_size(i + shift, shape, entries)
        # the rows in the order `sparse_kernel` meets them in the columns
        rows: dict[int, dict] = {}
        killed = set()  # generators whose one nonzero product is b_0 g = g
        for j, img in enumerate(free_products(alg, gens)):
            if len(img) == len(gens[j]):
                killed.add(j)
            for t, k in sorted(img, key=lambda tk: tk[0]):  # stable: t by t
                rows.setdefault(k, {})[j * d + t] = img[t, k]
        n = shape[1] + sum(map(len, rows.values()))
        kernel = row_kernel(alg.field, shape[1], rows.values(),
                            lambda m: _check_step_size(i + shift, shape, n + m))
        self._plan = None
        self._betti.append(len(gens))
        self._steps.append((gens, kernel))
        self._entries.append(entries)
        if self._period is self._simple is None:
            key = _layout_key(len(gens), kernel)
            same = [k for k in self._seen.get(key, ())
                    if (self._betti[k], self._steps[k][1]) == (len(gens), kernel)]
            if same:  # step k + 1 on repeats, with period i - k
                self._period = (same[0] + 1, i - same[0])
            elif killed:  # step i + t is the rest's step t and copies of k's
                self._simple = (i, len(killed))
                if len(killed) < len(gens):
                    self._rest = ChainResolution(self.module, _without(d, gens, kernel, killed))
            else:
                self._seen.setdefault(key, []).append(i)

    def _read(self, i: int, shift: int = 0) -> tuple[int, int]:
        """beta_i and the entries step i is charged, off the steps taken
        or summed over a tail's parts; with neither, the steps before i
        are taken and step i is planned, not built.  A refusal names the
        index plus `shift`: a part names the step it is read for."""
        while True:
            i = self._same(i)
            if i < len(self._betti):
                return self._betti[i], self._entries[i]
            if not self._steps[-1][1][0]:
                return 0, 0
            if i not in self._reads and (parts := self.parts(i)):
                reads = [[m * x for x in p._read(t, shift + i - t)] for p, t, m in parts]
                self._reads[i] = tuple(map(sum, zip(*reads)))
            if i in self._reads:
                return self._reads[i]
            if i == len(self._betti):
                gens, _, entries = self._next()
                return len(gens), entries
            self._step(shift)

    def _take(self, i: int) -> int:
        """Index of step i among the steps taken: stepped for real up to a
        periodic tail or the end, also past a split tail, each step
        charged and refused as it is built."""
        while len(self._steps) <= self._same(i) and self._steps[-1][1][0]:
            self._step()
        return self._same(i)

    def _same(self, i: int) -> int:
        """The index of the step taken that step i repeats: i itself
        outside a periodic tail."""
        if (per := self._period) and i >= per[0]:
            return per[0] + (i - per[0]) % per[1]
        return i

    def parts(self, i: int) -> list[tuple[Resolution, int, int]]:
        """Inside a periodic tail, the step taken that step i repeats; past
        a split tail (j, c_j), the rest's step i - j, if there is a rest,
        and c_j copies of k's, up to the order of the blocks of F_j."""
        if (same := self._same(i)) < i:
            return [(self, same, 1)]
        if self._simple and i > self._simple[0]:
            (j, n), rest = self._simple, self._rest
            self._k = self._k or _residue_chain(self.module.algebra)
            copies = [(self._k, i - j, n)]
            return [(rest, i - j, 1)] + copies if rest else copies
        return []

    def betti(self, i: int) -> int:
        self.extend(i)
        return self._read(i)[0]

    def generators(self, i: int) -> list[dict]:
        i = self._take(i)
        return self._steps[i][0] if i < len(self._steps) else []

    def columns(self, i: int) -> list[dict]:
        gens, i = self.generators(i), self._same(i)
        if i not in self._columns:  # built from the generators, once
            self._columns[i] = free_map_columns(self.module.algebra, gens)
        return self._columns[i]

    def syzygy_layout(self, i: int) -> tuple[list[int], dict[int, dict]]:
        if i < 1:
            raise ResolutionError("syzygy subspaces start at index 1")
        i = self._take(i - 1)
        return self._steps[i][1] if i < len(self._steps) else ([], {})


class SumResolution(Resolution):
    """Blockwise resolution of a remembered direct sum; each syzygy layout
    is concatenated once and shared read-only."""

    def __init__(self, module: Module, children: list[Resolution]):
        self.module = module
        self.children = children
        self._syz: dict[int, Module] = {}
        self._layout: dict[int, tuple[list[int], dict[int, dict]]] = {}

    def extend(self, upto: int) -> None:
        for c in self.children:
            c.extend(upto)

    def betti(self, i: int) -> int:
        return sum(c.betti(i) for c in self.children)

    def parts(self, i: int) -> list[tuple[Resolution, int, int]]:
        return [(c, i, 1) for c in self.children]

    def _sparse(self, kind: str, i: int) -> list[dict]:
        out: list[dict] = []
        off = 0
        for c in self.children:
            out += [{r + off: x for r, x in col.items()} for col in getattr(c, kind)(i)]
            off += c._rows(i)
        return out

    def syzygy_layout(self, i: int) -> tuple[list[int], dict[int, dict]]:
        if i not in self._layout:
            free: list[int] = []
            block: dict[int, dict] = {}
            off = 0
            for c in self.children:
                f, b = c.syzygy_layout(i)
                free += [p + off for p in f]
                block.update((p + off, {r + off: x for r, x in col.items()})
                             for p, col in b.items())
                off += c._rows(i)
            self._layout[i] = free, block
        return self._layout[i]

    def syzygy_module(self, i: int) -> Module:
        if i == 0:
            return self.module
        if i not in self._syz:
            mod = direct_sum([c.syzygy_module(i) for c in self.children])
            mod._resolution = ShiftedResolution(self, i, mod)
            self._syz[i] = mod
        return self._syz[i]


class ShiftedResolution(Resolution):
    """View of a parent (a module's or a sum's) from one of its syzygies;
    the resolution of that syzygy module, set when it is materialized."""

    def __init__(self, parent: Resolution, offset: int, module: Module):
        self.parent = parent
        self.offset = offset
        self.module = module

    def extend(self, upto: int) -> None:
        self.parent.extend(self.offset + upto)

    def betti(self, i: int) -> int:
        return self.parent.betti(self.offset + i)

    def _sparse(self, kind: str, i: int) -> list[dict]:
        """The parent's at offset + i; a syzygy's cover (i = 0 < offset) is
        the rows of the parent's differential at its free positions."""
        cols = getattr(self.parent, kind)(self.offset + i)
        if i or not self.offset:
            return cols
        at = {p: k for k, p in enumerate(self.parent.free_positions(self.offset))}
        return [{at[r]: x for r, x in col.items() if r in at} for col in cols]

    def syzygy_layout(self, i: int) -> tuple[list[int], dict[int, dict]]:
        return self.parent.syzygy_layout(self.offset + i)

    def parts(self, i: int) -> list[tuple[Resolution, int, int]]:
        """The parent's step offset + i, except a syzygy's cover (i = 0 <
        offset), which differs."""
        return [(self.parent, self.offset + i, 1)] if i or not self.offset else []

    def syzygy_module(self, i: int) -> Module:
        return self.parent.syzygy_module(self.offset + i)


class ModuleResolution(ShiftedResolution):
    """A module's resolution: `chain`, the chain of its actions, at offset
    0, and what is the module's own, its charges and labelled syzygies."""

    offset = 0
    parent = property(lambda self: self.chain)

    def __init__(self, module: Module, chain: ChainResolution):
        self.module, self.chain = module, chain
        self._done = 0  # charged through this index
        self._syz: dict[int, Module] = {}

    def extend(self, upto: int) -> None:
        """Charge each step through `upto`, in order, what stepping it
        would be charged before elimination, also when another module
        with these actions stepped it; then the chain steps."""
        if upto <= self._done:
            return
        c, d = self.chain, self.module.algebra.dim
        rows = c._read(self._done)[0]
        for i in range(self._done + 1, upto + 1):
            cols, entries = c._read(i)
            if not cols or c._same(i) < i:  # so is every later step
                break
            _check_step_size(i, (rows * d, cols * d), entries)
            rows = cols
        c.extend(upto)
        self._done = upto

    def betti(self, i: int) -> int:
        self.extend(i)
        return self.chain._read(i)[0]

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
            acts = alg.field.zeros((alg.nvars, n, n))
            at = [(v, k, j, x) for v, images in enumerate(_kernel_images(alg, free, block))
                  for j, img in images for k, x in img.items()]
            if at:
                *idx, vals = zip(*at)
                acts[tuple(idx)] = vals
            mod = Module(alg, n, acts, label=f"syz^{i}({self.module.label or '?'})")
        mod._resolution = ShiftedResolution(self, i, mod)
        self._syz[i] = mod
        return mod


def _layout_key(betti: int, layout: tuple[list[int], dict[int, dict]]) -> int:
    """Hash of a step's Betti number and kernel free positions; equal
    keys are compared in full."""
    return hash((betti, tuple(layout[0])))


def _residue_chain(alg) -> ChainResolution:
    """The chain of k's actions; split tails read their steps off it."""
    return resolve(residue_field(alg)).chain


def _without(d: int, gens: list[dict], layout: tuple[list[int], dict[int, dict]],
             killed: set[int]) -> tuple:
    """A step's generators and kernel layout without the blocks of the
    generators in `killed`, the others renumbered in order: no pivot of
    another block's basis column lies in those blocks."""
    at = {s: n * d for n, s in enumerate(s for s in range(len(gens)) if s not in killed)}
    free, block = layout
    return [gens[s] for s in at], (
        [at[p // d] + p % d for p in free if p // d in at],
        {at[p // d] + p % d: {at[r // d] + r % d: x for r, x in col.items()}
         for p, col in block.items() if p // d in at})


def _basis_columns(alg, free: list[int], block: dict[int, dict]) -> list[dict]:
    """The basis columns at `free` of a kernel laid out by `sparse_kernel`."""
    one = alg.field.one()
    return [{f: one, **col} if (col := block.get(f)) else {f: one} for f in free]


def _kernel_images(alg, free: list[int], block: dict[int, dict]) -> list[list]:
    """For each variable v, in one pass, the pairs (j, x_v times basis
    column j of a kernel laid out by `linalg.sparse_kernel`, at the free
    rows) whose image there is not zero.  The basis has identity rows
    at the free positions, so those rows are the image's coordinates."""
    d, norm, one = alg.dim, alg.field.coerce, alg.field.one()
    at = {p: k for k, p in enumerate(free)}
    acting: list[list] = [[] for _ in range(d)]  # b -> [(v, x_v b_b as [((a,), c)])]
    for v in range(alg.nvars):
        for b, prods in structure(alg, "left", v).items():
            acting[b].append((v, prods))
    out: list[list] = [[] for _ in range(alg.nvars)]
    for j, f in enumerate(free):
        if not ((col := block.get(f)) or acting[f % d]):
            continue
        imgs: dict[int, dict] = {}
        for r, x in [(f, one), *col.items()] if col else [(f, one)]:
            base = r - r % d
            for v, prods in acting[r % d]:
                img = imgs.setdefault(v, {})
                for (a,), c in prods:
                    if (k := at.get(base + a)) is not None:
                        img[k] = norm(img.get(k, 0) + c * x)
        for v, img in imgs.items():
            if img:
                out[v].append((j, {k: x for k, x in img.items() if x}))
    return out


def _radical_complement(alg, free: list[int], block: dict[int, dict]) -> list[dict]:
    """The basis columns that minimally generate a kernel laid out by
    `linalg.sparse_kernel`: the pivots of the coordinates of x_v times
    the basis (`_kernel_images`) index the part of the span inside the
    radical, and their complement generates it."""
    pivots = sparse_rref(alg.field, (img for images in _kernel_images(alg, free, block)
                                     for _, img in images), back=False)
    return _basis_columns(alg, [f for t, f in enumerate(free) if t not in pivots], block)


def _check_step_size(i: int, shape: tuple[int, int], entries: int,
                     what: str = "resolution step") -> None:
    """Refuse step i (a rows x cols differential, `shape`, or a function
    giving it) when its `entries` would take more than `MAX_STEP_BYTES`.
    A step counts its columns and each nonzero twice, as a product and in
    the rows (an Ext transition, `what`, once).  ENTRY_BYTES, the largest tracemalloc peak
    per entry when steps stored their columns, bounds it over ten steps
    of k (scripts/step_bytes.py): 167 B for step 13 over F_2[x,y]/m^2,
    91-167 B over F_2, F_3, F_{2^31-1} and Q, 2-4 variables, m^2, m^3."""
    size = ENTRY_BYTES * entries
    if size > MAX_STEP_BYTES:
        shape = shape() if callable(shape) else shape
        raise ResolutionError(
            f"{what} {i} would allocate {size} bytes (a {shape[0]}x"
            f"{shape[1]} sparse matrix and its elimination, {entries} "
            f"entries), over MAX_STEP_BYTES = {MAX_STEP_BYTES}",
            f"; use a window below {i} (--window on the command line)")


def _check_dense_size(what: str, entries: int, field, how: str = "",
                      error=ResolutionError) -> None:
    """Refuse to build `what`, `entries` dense entries, past `MAX_STEP_BYTES`
    in `field.wide`, the dtype elimination copies into: raise `error` with
    the reason, `how` saying in what form they would be allocated."""
    size = entries * field.wide.itemsize
    if size > MAX_STEP_BYTES:
        raise error(f"{what} would allocate {size} bytes{how}, over "
                    f"MAX_STEP_BYTES = {MAX_STEP_BYTES}")


def resolve(module: Module) -> Resolution:
    """The minimal free resolution of a module, one per object: blockwise
    for a remembered direct sum, else over the chain of its actions, one
    per algebra and actions (`modules.shared`)."""
    if module._resolution is None:
        if module.summands:
            module._resolution = SumResolution(module, [resolve(p) for p, _ in module.summands])
        else:
            if "chain" not in (entry := shared(module)):
                entry["chain"] = ChainResolution(module)
            module._resolution = ModuleResolution(module, entry["chain"])
    return module._resolution


def syzygy(module: Module, i: int = 1) -> Module:
    """The i-th syzygy in the minimal resolution, literally shared."""
    return resolve(module).syzygy_module(i)
