"""Each family of matrices (structure constants, variable actions, module
actions, ring-dual maps, Hom-basis systems) pinned against the loop that
builds it one matrix or one column at a time, written out below.

Every comparison checks the values and the storage dtype, on F_2, F_3,
F_{2^31-1} and Q, including zero modules and empty duals.
"""

import random

import pytest

from redhom import invariants, reducing
from redhom.algebra import build_algebra
from redhom.homalg import (biduality, canonical_module, dual_map,
                           horseshoe, pushforward, r_dual)
from redhom.invariants import check_t2
from redhom.linalg import Field, Matrix
from redhom.modules import (
    Module,
    ModuleMap,
    ShortExactSequence,
    direct_sum,
    free_module,
    from_presentation,
    hom_space_matrix,
    injection_map,
    power_module,
    projection_map,
    regular_module,
    residue_field,
    zero_module,
)
from redhom.reducing import (ReducingSequence, ReducingStep, SearchConfig,
                             search, transform_cosyzygy, transform_syzygy)
from redhom.resolution import resolve

PRIMES = [2, 3, 2**31 - 1, None]  # None is Q

PRESENTATIONS = [
    (["x", "y"], [], 2),
    (["x", "y"], [], 3),
    (["x"], [], 4),
    (["x", "y"], ["x*y"], 3),
    (["x", "y"], ["x^2-2*x*y"], 3),
    (["x", "y", "z"], ["x^2+x*y", "x*z+x*y"], 3),
    (["x", "y"], [], 1),
    ([], [], 2),
]


def same(got: Matrix, want: Matrix) -> bool:
    return got.a.dtype == want.a.dtype and got == want


def in_random_basis(mod: Module, rng: random.Random) -> Module:
    """The module conjugated by a random unit-triangular change of basis."""
    fld, n = mod.algebra.field, mod.dim
    lower = [[1 if i == j else (fld.random(rng) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fld.random(rng) if j > i else 0)
              for j in range(n)] for i in range(n)]
    t = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper)
    return Module(mod.algebra, n, [t.inverse() @ a @ t for a in mod.var_actions])


def modules_of(alg, rng):
    """Small modules of several shapes, plain ones in a random basis."""
    k = residue_field(alg)
    mods = [zero_module(alg), k, free_module(alg, 2), canonical_module(alg),
            direct_sum([free_module(alg, 1), k])]
    if alg.nvars:
        names = alg.var_names
        cyc = from_presentation(alg, 1, [[names[0]]])
        two = from_presentation(alg, 2, [[names[0], "0"], [names[-1], names[0]]])
        mods += [in_random_basis(cyc, rng), in_random_basis(two, rng)]
    return mods


# -- algebra tables ------------------------------------------------------------


def reference_tables(alg):
    """The regular representation (`mult`), `var_stack` and each variable's
    class (`var_stack[v][:, :1]`) built one normal-form column per pair
    of monomials, with a zero column for products of degree >= N."""
    fld, d, n = alg.field, alg.dim, alg.nvars

    def nf_column(mon):
        if sum(mon) >= alg.nilpotency:
            return Matrix.zeros(fld, d, 1)
        idx = alg._mon_index[mon]
        return Matrix(fld, alg._nf_table.a[:, idx:idx + 1].copy())

    def times(left):
        return Matrix.hstack([nf_column(tuple(a + b for a, b in zip(left, mj)))
                              for mj in alg.basis_mons])

    units = [tuple(int(t == v) for t in range(n)) for v in range(n)]
    return ([times(m) for m in alg.basis_mons], [times(e) for e in units],
            [nf_column(e) for e in units])


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("names, relations, nilpotency", PRESENTATIONS)
def test_algebra_tables(p, names, relations, nilpotency):
    alg = build_algebra(Field(p), names, relations, nilpotency)
    regmat, varmat, var_class = reference_tables(alg)
    got_regmat = [Matrix(alg.field, m) for m in alg.mult]
    got_varmat = [Matrix(alg.field, m) for m in alg.var_stack]
    got_class = [Matrix(alg.field, m[:, :1]) for m in alg.var_stack]
    for got, want in ((got_regmat, regmat), (got_varmat, varmat),
                      (got_class, var_class)):
        assert len(got) == len(want)
        assert all(same(g, w) for g, w in zip(got, want))
    stack = alg.action_stack()
    assert stack.shape == (alg.dim,) * 3 and stack.dtype == alg.field.dtype
    assert all(same(Matrix(alg.field, s), w) for s, w in zip(stack, regmat))


# -- module actions --------------------------------------------------------------


def reference_actions(mod):
    """Each basis monomial's action as a product of variable actions."""
    alg = mod.algebra
    out = []
    for mon in alg.basis_mons:
        m = Matrix.identity(alg.field, mod.dim)
        for v, e in enumerate(mon):
            for _ in range(e):
                m = mod.var_actions[v] @ m
        out.append(m)
    return out


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("names, relations, nilpotency", PRESENTATIONS)
def test_module_action_stack(p, names, relations, nilpotency):
    alg = build_algebra(Field(p), names, relations, nilpotency)
    for mod in modules_of(alg, random.Random(5)):
        want = reference_actions(mod)
        stack = mod.action_stack()
        assert stack.shape == (alg.dim, mod.dim, mod.dim)
        assert all(same(Matrix(alg.field, s), w) for s, w in zip(stack, want))
        assert all(same(Matrix(alg.field, mod.action_stack()[t]), w)
                   for t, w in enumerate(want))


# -- ring duals -------------------------------------------------------------------


def flatten(m: Matrix) -> Matrix:
    return Matrix(m.field, m.a.reshape(-1, 1).copy())


def reference_maps(mod):
    """The basis maps of the ring dual, one column of Hom(M, R) each."""
    alg = mod.algebra
    flat = hom_space_matrix(mod, regular_module(alg))
    return [Matrix(alg.field, flat.a[:, i].reshape(alg.dim, mod.dim).copy())
            for i in range(flat.cols)]


def reference_dual_map(f, dual_target, dual_source):
    """Coordinates of each precomposed target map in the source's dual."""
    fld = f.source.algebra.field
    t_maps, s_maps = reference_maps(f.target), reference_maps(f.source)
    if not t_maps:
        return Matrix.zeros(fld, dual_source.module.dim, 0)
    composed = Matrix.hstack([flatten(m @ f.matrix) for m in t_maps])
    if not s_maps:
        assert composed.is_zero()
        return Matrix.zeros(fld, 0, dual_target.module.dim)
    coords, ok = Matrix.hstack([flatten(m) for m in s_maps]).solve_columns(composed)
    assert all(ok)
    return coords


def reference_evaluation(mod, d1, d2):
    """The biduality matrix, one evaluation at a basis vector per column."""
    fld = mod.algebra.field
    if mod.dim == 0 or d2.module.dim == 0:
        return Matrix.zeros(fld, d2.module.dim, mod.dim)
    cols = []
    for j in range(mod.dim):
        x = Matrix.zeros(fld, mod.dim, 1)
        x.a[j, 0] = fld.one()
        cols.append(flatten(Matrix.hstack([Matrix(fld, m) @ x
                                           for m in d1.stack()])))
    coords, ok = Matrix.hstack([flatten(Matrix(fld, m))
                                for m in d2.stack()]).solve_columns(
        Matrix.hstack(cols))
    assert all(ok)
    return coords


def maps_of(mods):
    """Module maps between the given modules, zero modules included."""
    out = []
    for mod in mods:
        alg = mod.algebra
        zero = zero_module(alg)
        out += [ModuleMap.identity(mod), ModuleMap.zero(zero, mod),
                ModuleMap.zero(mod, zero)]
        if mod.dim:
            res = resolve(mod)
            out.append(ModuleMap(res.ambient_free(0), mod, res.differential(0)))
            out.append(ModuleMap(res.syzygy_module(1), res.ambient_free(0),
                                 res.syzygy_subspace(1)))
    pair = direct_sum([mods[-1], residue_field(mods[-1].algebra)])
    return out + [injection_map(pair, 0), projection_map(pair, 1)]


DUAL_PRESENTATIONS = [(["x", "y"], [], 2), (["x", "y"], ["y-2*x^2"], 3),
                      (["x", "y"], [], 1), ([], [], 2)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("names, relations, nilpotency", DUAL_PRESENTATIONS)
def test_dual_maps_and_biduality(p, names, relations, nilpotency):
    alg = build_algebra(Field(p), names, relations, nilpotency)
    mods = modules_of(alg, random.Random(11))
    for mod in mods:
        dual = r_dual(mod)
        want = reference_maps(mod)
        got = [Matrix(alg.field, m) for m in dual.stack()]
        assert len(got) == len(want) == dual.module.dim
        assert all(same(g, w) for g, w in zip(got, want))
        assert same(biduality(mod).matrix,
                    reference_evaluation(mod, dual, r_dual(dual.module)))
    for f in maps_of(mods):
        dt, ds = r_dual(f.target), r_dual(f.source)
        assert same(dual_map(f, dt, ds).matrix, reference_dual_map(f, dt, ds))


@pytest.mark.parametrize("p", PRIMES)
def test_pushforward_embedding(p):
    alg = build_algebra(Field(p), ["x"], [], 3)  # Gorenstein: all embed
    for mod in modules_of(alg, random.Random(13)):
        got = pushforward(mod).inject.matrix
        if mod.dim == 0:
            assert got.a.shape == (0, 0)
            continue
        dual = r_dual(mod)
        gens = dual.module.min_generators()
        chosen = []
        for j in range(gens.cols):
            m = Matrix.zeros(alg.field, alg.dim, mod.dim)
            for i, basis_map in enumerate(dual.stack()):
                m = m + Matrix(alg.field, basis_map).scale(gens.a[i, j])
            chosen.append(m)
        assert same(got, Matrix.vstack(chosen))


# -- Hom-basis systems ---------------------------------------------------------------


def hom_columns(hom: Matrix, rows: int, cols: int, fn) -> Matrix:
    """fn of each basis map of a Hom space, flattened, one per column."""
    return Matrix.hstack([flatten(fn(Matrix(hom.field, hom.a[:, j].reshape(
        rows, cols).copy()))) for j in range(hom.cols)])


def capture_systems(monkeypatch, module):
    """Record each `hom_space_matrix` call of `module` and the first
    `Matrix.solve` after it, as [source, target, hom, (matrix, rhs)]."""
    calls = []
    real_hom, real_solve = module.hom_space_matrix, Matrix.solve

    def hom(src, tgt):
        calls.append([src, tgt, real_hom(src, tgt), None])
        return calls[-1][2]

    def solve(self, target):
        if calls and calls[-1][3] is None:
            calls[-1][3] = (self, target)
        return real_solve(self, target)

    monkeypatch.setattr(module, "hom_space_matrix", hom)
    monkeypatch.setattr(Matrix, "solve", solve)
    return calls


def free_chain(alg, rng):
    """A verifying pd chain on R whose middles are free modules written in
    random bases, so each retraction system is a nontrivial one."""
    fld, base, steps = alg.field, regular_module(alg), []
    prev = base
    for a in (1, 2):
        left = power_module(prev, a)
        middle = in_random_basis(free_module(alg, left.dim // alg.dim), rng)
        hom = hom_space_matrix(left, middle)
        while True:  # a random module map left -> middle that is bijective
            coeffs = Matrix.column(fld, [fld.random(rng) for _ in range(hom.cols)])
            iso = Matrix(fld, (hom @ coeffs).a.reshape(middle.dim, left.dim))
            if iso.rank() == left.dim:
                break
        zero = zero_module(alg)
        ses = ShortExactSequence(ModuleMap(left, middle, iso),
                                 ModuleMap.zero(middle, zero))
        steps.append(ReducingStep(a, 1, 1, ses, ModuleMap.identity(zero)))
        prev = middle
    return ReducingSequence(base, steps, "pd")


@pytest.mark.parametrize("p", PRIMES)
def test_t2_retraction_system(p, monkeypatch):
    alg = build_algebra(Field(p), ["x", "y"], [], 2)
    fld = alg.field
    seq = free_chain(alg, random.Random(17))
    calls = capture_systems(monkeypatch, invariants)
    report = check_t2(seq.base, seq, window=3)
    assert report.ok and len(calls) == len(seq.steps)
    mod, emb, prev = seq.base, Matrix.identity(fld, seq.base.dim), seq.base
    for step, (src, tgt, hom, (sysmat, rhs)) in zip(seq.steps, calls):
        ses = step.sequence
        block = Matrix.zeros(fld, ses.left.dim, prev.dim)
        block.a[:prev.dim, :] = Matrix.identity(fld, prev.dim).a
        emb = ses.inject.matrix @ block @ emb
        assert src is ses.middle and tgt is mod
        assert same(sysmat, hom_columns(hom, mod.dim, ses.middle.dim,
                                        lambda h: h @ emb))
        assert same(rhs, flatten(Matrix.identity(fld, mod.dim)))
        prev = ses.middle


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("relation", ["x", "x^2"])
def test_cosyzygy_connecting_system(p, relation, monkeypatch):
    alg = build_algebra(Field(p), ["x"], [], 3)
    rx = from_presentation(alg, 1, [[relation]])
    found = search(rx, "pd", SearchConfig(max_a=2))
    assert found.found and found.sequence.r >= 1
    shifted = transform_syzygy(found.sequence)
    calls = capture_systems(monkeypatch, reducing)
    out = transform_cosyzygy(shifted, rx)
    assert len(calls) == len(shifted.steps)
    for old, new, (mid, z2, hom, (sysmat, _)) in zip(
            shifted.steps, out.steps, calls):
        assert mid is old.sequence.middle
        i1 = old.sequence.inject.matrix
        proj = horseshoe(new.sequence).sequence.project.matrix
        p2 = Matrix.zeros(alg.field, proj.rows, z2.dim)
        p2.a[:, :proj.cols] = proj.a
        want = Matrix.vstack([
            hom_columns(hom, z2.dim, mid.dim, lambda h: h @ i1),
            hom_columns(hom, z2.dim, mid.dim, lambda h: p2 @ h)])
        assert same(sysmat, want)
