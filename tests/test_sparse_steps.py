"""Sparse resolution steps pinned against the dense construction they
replace: `sparse_kernel` against `Matrix.kernel_data`, and every stored
step and syzygy module against the dense step (kernel actions, rref of
their coordinates, `assemble_action_columns`, `kernel_data`) written out
below."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from redhom import resolution
from redhom.algebra import Algebra, build_algebra, structure
from redhom.corpus import random_module
from redhom.linalg import GF2, GF3, QQ, Field, Matrix, sparse_kernel, sparse_rref
from redhom.modules import (Module, direct_sum, free_map_columns, free_module,
                            kernel_actions, residue_field)
from redhom.resolution import assemble_action_columns, resolve, syzygy

P31 = 2**31 - 1
FIELDS = [GF2, GF3, Field(P31), QQ]
PINNED = settings(max_examples=80, deadline=None, derandomize=True)


def same(got: Matrix, want: Matrix) -> bool:
    return got.a.dtype == want.a.dtype and got == want


def dense_kernel(field: Field, rows: int, free, block) -> Matrix:
    """The kernel basis that a layout (free positions, pivot block) holds."""
    return Matrix.from_sparse(field, rows, [{f: field.one(), **block.get(f, {})}
                                            for f in free])


@st.composite
def sparse_or_dense(draw):
    """A matrix over one of the fields, with a drawn share of zeros;
    entries mod 2^31-1 crowd near p."""
    f = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if f.p is None:
        value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    elif f.p == P31:
        value = st.sampled_from([1, 2, P31 - 1, P31 - 2]) | st.integers(1, P31 - 1)
    else:
        value = st.integers(1, f.p - 1)
    zeros = draw(st.sampled_from([0, 5, 9]))  # tenths of the entries
    entry = st.integers(0, 9).flatmap(
        lambda u: st.just(0) if u < zeros else value)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return f, Matrix.from_rows(f, rows) if r else Matrix.zeros(f, 0, c)


class TestSparseKernel:
    @given(sparse_or_dense())
    @PINNED
    def test_equals_dense_kernel_data(self, fm):
        f, m = fm
        assert same(Matrix.from_sparse(f, m.rows, m.sparse_columns()), m)
        free, block = sparse_kernel(f, m.sparse_columns())
        kb, fp = m.kernel_data()
        assert free == fp
        assert set(block) <= set(free)
        assert all(x != 0 and r not in free for col in block.values()
                   for r, x in col.items())
        assert same(dense_kernel(f, m.cols, free, block), kb)

    def test_grow_reports_fill_in(self):
        # an arrow matrix: reducing the rows e_0 + e_j by the all-ones
        # row fills them in; the rref is the identity
        def arrow(n):
            return [dict.fromkeys(range(n), 1)] + [{0: 1, j: 1} for j in range(1, n)]
        seen = []
        kept = sparse_rref(GF3, arrow(6), grow=seen.append)
        assert kept == {c: {c: 1} for c in range(6)}
        assert seen and seen == sorted(seen) and seen[0] > 6 + 2 * 5

        def refuse(size):
            raise MemoryError(size)
        with pytest.raises(MemoryError):
            sparse_rref(GF3, arrow(6), grow=refuse)

        # no fill-in until back-substitution clears column 1 of the
        # first row with the second: 6 entries become 8
        seen = []
        kept = sparse_rref(GF3, [{0: 1, 1: 1}, dict.fromkeys(range(1, 5), 1)],
                           grow=seen.append)
        assert seen == [8] and kept[0] == {0: 1, 2: 2, 3: 2, 4: 2}


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions])


def dense_steps(mod: Module, window: int):
    """(differential, kernel basis, free positions, kernel actions) of
    steps 1..window,
    computed densely as the resolution did before it stored steps
    sparsely: generators are the kernel columns outside the pivots of
    the radical's coordinates."""
    alg = mod.algebra
    kb, fp = assemble_action_columns(mod, mod.min_generators()).kernel_data()
    betti = mod.min_generators().cols
    for _ in range(window):
        radical = set()
        if kb.cols:
            acts = [Matrix(alg.field, a)
                    for a in kernel_actions(free_module(alg, betti), kb, fp)]
            radical = set(Matrix.hstack(acts).transpose().rref()[1])
        gens = kb.take_cols([j for j in range(kb.cols) if j not in radical])
        diff = assemble_action_columns(free_module(alg, betti), gens)
        kb, fp = diff.kernel_data()
        betti = gens.cols
        yield diff, kb, fp, [Matrix(alg.field, a)
                             for a in kernel_actions(free_module(alg, betti), kb, fp)]


RINGS = [(["x", "y"], 2), (["x", "y"], 3), (["x", "y", "z"], 2)]


class TestStepsMatchDense:
    @given(st.sampled_from(FIELDS), st.sampled_from(RINGS), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_random_modules_in_a_random_basis(self, f, ring, seed):
        names, nil = ring
        alg = build_algebra(f, names, [], nil)
        mod = in_random_basis(random_module(alg, 3, 3, seed), random.Random(seed))
        res = resolve(mod)
        window = 3 if nil == 2 and len(names) == 2 else 2
        for i, (diff, kb, fp, acts) in enumerate(dense_steps(mod, window), start=1):
            assert same(res.differential(i), diff)
            assert same(res.syzygy_subspace(i + 1), kb)
            assert res.free_positions(i + 1) == fp
            syz = res.syzygy_module(i + 1).var_actions
            assert len(syz) == len(acts)
            assert all(same(s, a) for s, a in zip(syz, acts))
            assert same(res.generator_images(i),
                        Matrix(f, diff.a[:, ::alg.dim].copy()))
        assert same(res.cover_matrix(),
                    assemble_action_columns(mod, mod.min_generators()))

    @pytest.mark.parametrize("f", FIELDS, ids=str)
    def test_sum_concatenates_its_parts(self, f):
        alg = build_algebra(f, ["x", "y"], [], 2)
        parts = [in_random_basis(random_module(alg, 3, 3, s), random.Random(s))
                 for s in (7, 5)]
        res = resolve(direct_sum(parts))
        kids = [resolve(p) for p in parts]
        assert kids[1].syzygy_layout(1)[1]  # the second part's block is shifted
        for i in range(1, 4):
            assert same(res.differential(i),
                        Matrix.block_diag(f, [k.differential(i) for k in kids]))
            assert same(res.syzygy_subspace(i),
                        Matrix.block_diag(f, [k.syzygy_subspace(i) for k in kids]))


def product_columns(alg: Algebra, gens: list[dict]) -> list[dict]:
    """The columns of the map sending generator j to gens[j], one column
    per b_t, accumulated term by term as the columns were before steps
    were built as rows: column j*d + t is b_t times gens[j]."""
    d, norm = alg.dim, alg.field.coerce
    out = []
    for g in gens:
        cols: list[dict] = [{} for _ in range(d)]
        for r, x in g.items():
            for (a, t), c in structure(alg, "columns").get(r % d, ()):
                col, k = cols[t], r - r % d + a
                if w := norm(col.get(k, 0) + c * x):
                    col[k] = w
                else:
                    del col[k]
        out += cols
    return out


def column_steps(mod: Module, window: int):
    """(generators, columns, kernel layout, fill-in seen) of steps
    1..window, built as the resolution built them when it stored its
    columns: the columns of each step (`product_columns`), then
    `sparse_kernel` of those columns."""
    alg = mod.algebra
    cover = assemble_action_columns(mod, mod.min_generators()).sparse_columns()
    layout = sparse_kernel(alg.field, cover)
    for _ in range(window):
        gens = resolution._radical_complement(alg, *layout)
        cols, grown = product_columns(alg, gens), []
        assert free_map_columns(alg, gens) == cols
        layout = sparse_kernel(alg.field, cols, grown.append)
        yield gens, cols, layout, grown


class TestRowsMatchColumns:
    @given(st.sampled_from(FIELDS), st.sampled_from(RINGS + [(["x", "y", "z"], 3)]),
           st.integers(0, 10**6))
    @example(Field(P31), (["x", "y", "z"], 3), 8)  # fills in as it eliminates
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_random_modules_in_a_random_basis(self, f, ring, seed):
        """Each step, built row by row from its generators, equals the
        step built from its columns: the same kernel, the same rows met
        in the same order (the same fill-in at each `grow`), and the same
        columns, differentials and syzygy modules when asked for."""
        names, nil = ring
        alg = build_algebra(f, names, [], nil)
        mod = in_random_basis(random_module(alg, 3, 3, seed), random.Random(seed))
        window = 3 if nil == 2 and len(names) == 2 else 2
        grown: list[list] = []
        kernel = resolution.row_kernel

        def recorded(field, cols, rows, grow):
            grown.append([])
            return kernel(field, cols, rows,
                          lambda m: (grown[-1].append(m), grow(m)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolution, "row_kernel", recorded)
            res = resolve(mod)
            res.generators(window)  # steps for real, also past a semisimple tail
        steps = list(column_steps(mod, window))
        # no step follows an empty kernel, that is no generators
        made = next((i for i, step in enumerate(steps) if not step[0]), window)
        assert grown == [step[3] for step in steps[:made]]
        for i, (gens, cols, (free, block), _) in enumerate(steps, start=1):
            assert res.betti(i) == len(gens) and res.generators(i) == gens
            assert res.syzygy_layout(i + 1) == (free, block)
            assert [list(c.items()) for c in res.columns(i)] == \
                [list(c.items()) for c in cols]
            assert same(res.differential(i),
                        Matrix.from_sparse(f, res._rows(i), cols))
            assert same(res.generator_images(i),
                        Matrix.from_sparse(f, res._rows(i), gens))
            kb = dense_kernel(f, len(cols), free, block)
            want = [Matrix(f, a) for a in kernel_actions(free_module(alg, len(gens)), kb, free)]
            got = res.syzygy_module(i + 1).var_actions
            assert len(got) == len(want) and all(map(same, got, want))


def test_fill_in_is_refused_as_it_grows(monkeypatch):
    """A step that passes the check before its differential is built is
    still refused when its elimination fills in past the cap: step 1 of
    this module predicts 76 entries and its rows fill in to 79."""
    alg = build_algebra(Field(P31), ["x", "y", "z"], [], 3)
    mod = in_random_basis(random_module(alg, 3, 3, 8), random.Random(8))
    res = resolve(mod)
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 76 * resolution.ENTRY_BYTES)
    with pytest.raises(resolution.ResolutionError, match="step 1 would allocate"):
        res.extend(1)
    assert len(res.chain._steps) == 1
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 79 * resolution.ENTRY_BYTES)
    res.extend(1)
    assert len(res.chain._steps) == 2


def test_deep_resolution_stays_sparse():
    """k over F_2[x,y]/m^2 to window 13: Betti 2^i, and each stored step
    (its generators and its kernel's pivot block) holds at most
    2 * betti_i * dim R nonzeros, as does each differential, which is
    built only when asked for."""
    alg = build_algebra(GF2, ["x", "y"], [], 2)
    res = resolve(residue_field(alg))
    assert res.betti_list(13) == [2**i for i in range(14)]
    res.generators(13)  # m kills syz^1: the betti numbers were read, step them
    assert list(res.chain._columns) == [0] and len(res.chain._steps) == 14
    for i, (gens, (_, block)) in enumerate(res.chain._steps):
        pivots = sum(map(len, block.values()))
        assert sum(map(len, gens)) + pivots <= 2 * res.betti(i) * alg.dim
        assert sum(map(len, res.columns(i))) + pivots <= 2 * res.betti(i) * alg.dim


def test_deep_syzygy_module_takes_no_free_actions(monkeypatch):
    """syz^12(k) over F_2[x,y]/m^2, dim 4096 inside a free module of
    dimension 6144, is built from the sparse step alone: the free
    modules' dense actions are never asked for.  m kills every syzygy of
    k over a ring with m^2 = 0, so its actions are zero."""
    alg = build_algebra(GF2, ["x", "y"], [], 2)

    def refuse(self, rank):
        raise AssertionError(f"dense free actions of rank {rank} were built")
    monkeypatch.setattr(Algebra, "free_varmat", refuse)
    monkeypatch.setattr(Algebra, "free_action_stack", refuse)
    mod = syzygy(residue_field(alg), 12)
    assert mod.dim == 4096
    assert all(a.is_zero() and a.rows == 4096 for a in mod.var_actions)
