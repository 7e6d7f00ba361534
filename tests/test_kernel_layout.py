"""Quotient maps, sections and submodule coordinates read off the
unit-at-free-column kernel layout, pinned against the constructions they
replace: normal forms of the identity, solved sections and solved
coordinates, each written out below.  So are first Ext's class bases,
eliminated from the sparse transitions, the coordinates of the ring
duals, read at the free positions, and the lifts through covers, read
off the cached section."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from redhom.algebra import _monomials_below, build_algebra, parse_polynomial
from redhom import homalg
from redhom.corpus import random_module
from redhom.homalg import (Ext1Data, ExtTable, biduality, canonical_module,
                           class_of_ses, dual_map, extension_from_psi, r_dual)
from redhom.linalg import Field, Matrix, column_space_basis, nf_columns
from redhom.modules import (
    Module,
    ModuleMap,
    assemble_action_columns,
    direct_sum,
    free_module,
    from_presentation,
    hom_space_matrix,
    kernel_module,
    quotient_module,
    regular_module,
    residue_field,
    split_free_summands,
    zero_module,
)
from redhom.reducing import omega_of_map
from redhom.resolution import resolve

from test_module_ranks import radical_span, socle_span

PRIMES = [2, 3, 2**31 - 1, None]  # None is Q


def same(got: Matrix, want: Matrix) -> bool:
    return got.a.dtype == want.a.dtype and got == want


def basis_change(mod, rng):
    """The module conjugated by a unimodular change of basis p, as the
    isomorphism p from the conjugate onto the module."""
    fld, n = mod.algebra.field, mod.dim
    lower, upper = ([[int(i == j) if i <= j else rng.randrange(-1, 2)
                      for j in range(n)] for i in range(n)] for _ in range(2))
    p = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper).transpose()
    conj = Module(mod.algebra, n, [p.inverse() @ a @ p for a in mod.var_actions])
    return ModuleMap(conj, mod, p)


def in_random_basis(mod, rng):
    """The module conjugated by a unimodular change of basis."""
    return basis_change(mod, rng).source


def modules_over(p):
    """Plain, free, summed and re-based modules over k[x,y]/m^3."""
    alg = build_algebra(Field(p), ["x", "y"], [], 3)
    rng = random.Random(11)
    k, r = residue_field(alg), regular_module(alg)
    x = from_presentation(alg, 1, [["x"]])
    two = from_presentation(alg, 2, [["x", "y^2"], ["y", "x*y"]])
    return {"k": k, "R": r, "w": canonical_module(alg), "X": x, "two": two,
            "R+k": direct_sum([r, k]),
            "X+w~": in_random_basis(direct_sum([x, canonical_module(alg)]), rng),
            "two~": in_random_basis(two, rng),
            "0": zero_module(alg)}


# -- the constructions the kernel layout replaces -----------------------------


def reference_quotient(mod, span):
    """Projection as the normal form of the identity modulo span^T's rows,
    restricted to the non-pivot coordinates, and the quotient actions."""
    fld = mod.algebra.field
    rr, piv = span.transpose().rref()
    keep = [i for i in range(mod.dim) if i not in set(piv)]
    proj = nf_columns(Matrix(fld, rr.a[:len(piv)]), list(piv),
                      Matrix.identity(fld, mod.dim)).take_rows(keep)
    lift = Matrix.zeros(fld, mod.dim, len(keep))
    for j, pos in enumerate(keep):
        lift.a[pos, j] = fld.one()
    return proj, [proj @ (mod.var_actions[v] @ lift)
                  for v in range(mod.algebra.nvars)]


def reference_submodule_actions(mod, span):
    """Actions on the column space of `span`, solved one variable at a time."""
    basis = column_space_basis(span)
    out = []
    for v in range(mod.algebra.nvars):
        coords, ok = basis.solve_columns(mod.var_actions[v] @ basis)
        assert all(ok)
        out.append(coords)
    return basis, out


def reference_extension(left, right, psi):
    """inject and project of the pushout sequence through a solved section
    of the quotient projection."""
    fld = left.algebra.field
    res = resolve(right)
    big = direct_sum([left, res.ambient_free(0)])
    glue = Matrix.vstack([psi, -res.syzygy_subspace(1)])
    proj, _ = reference_quotient(big, glue)
    section, ok = proj.solve_columns(Matrix.identity(fld, proj.rows))
    assert all(ok)
    inj_cols = Matrix.zeros(fld, big.dim, left.dim)
    inj_cols.a[:left.dim, :] = Matrix.identity(fld, left.dim).a
    project = Matrix.zeros(fld, right.dim, big.dim)
    project.a[:, left.dim:] = res.differential(0).a
    return proj @ inj_cols, project @ section


def reference_nf_table(fld, names, relations, nilpotency):
    """Normal forms of every truncated monomial onto the non-pivot ones."""
    mons = _monomials_below(len(names), nilpotency)
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for src in relations:
        poly = parse_polynomial(src, names, fld)
        for u in mons:
            row = [fld.zero()] * len(mons)
            for m, c in poly.items():
                tot = tuple(a + b for a, b in zip(u, m))
                if sum(tot) < nilpotency:
                    row[index[tot]] = fld.add(row[index[tot]], c)
            if any(row):
                rows.append(row)
    ideal = (Matrix.from_rows(fld, rows) if rows
             else Matrix.zeros(fld, 0, len(mons)))
    rr, piv = ideal.rref()
    keep = [i for i in range(len(mons)) if i not in set(piv)]
    nf = nf_columns(Matrix(fld, rr.a[:len(piv)]), list(piv),
                    Matrix.identity(fld, len(mons)))
    return [mons[i] for i in keep], nf.take_rows(keep)


# -- spans --------------------------------------------------------------------


def submodule_spans(mod, rng):
    """Column spans closed under the actions: zero, everything, the radical,
    the socle, and images and kernels of multiplication by linear forms."""
    fld = mod.algebra.field
    spans = {"zero-cols": Matrix.zeros(fld, mod.dim, 0),
             "zero": Matrix.zeros(fld, mod.dim, 2),
             "all": Matrix.identity(fld, mod.dim)}
    if mod.dim == 0:
        return spans
    spans["radical"] = radical_span(mod)
    spans["socle"] = socle_span(mod)
    x, y = mod.var_actions
    for t, (a, b) in enumerate(((1, 0), (0, 1), (1, rng.randrange(1, 5)))):
        g = x.scale(a) + y.scale(b)
        spans[f"image{t}"] = g
        spans[f"kernel{t}"] = g.kernel_basis()
    return spans


@pytest.mark.parametrize("p", PRIMES)
class TestQuotient:
    def test_projection_and_actions(self, p):
        rng = random.Random(5)
        for name, mod in modules_over(p).items():
            for which, span in submodule_spans(mod, rng).items():
                quot, proj = quotient_module(mod, span)
                want, va = reference_quotient(mod, span)
                assert same(proj.matrix, want), (name, which)
                assert quot.dim == want.rows
                for got_v, want_v in zip(quot.var_actions, va):
                    assert same(got_v, want_v), (name, which)


@pytest.mark.parametrize("p", PRIMES)
class TestKernelSubmodules:
    def test_kernel_module_actions(self, p):
        rng = random.Random(6)
        for name, mod in modules_over(p).items():
            for which, span in submodule_spans(mod, rng).items():
                # the kernel of the quotient map is the span's submodule
                f = quotient_module(mod, span)[1]
                sub, incl = kernel_module(f)
                basis, va = reference_submodule_actions(mod, f.matrix.kernel_basis())
                assert same(incl.matrix, basis), (name, which)
                assert sub.dim == basis.cols
                if sub.dim:
                    assert all(same(g, w) for g, w in zip(sub.var_actions, va))

    def test_syzygy_actions(self, p):
        for name, mod in modules_over(p).items():
            if mod.free_rank is not None or mod.summands is not None:
                continue
            res = resolve(mod)
            for i in range(1, 4):
                syz = res.syzygy_module(i)
                if syz.dim == 0:
                    break
                basis, va = reference_submodule_actions(
                    res.ambient_free(i - 1), res.syzygy_subspace(i))
                assert same(basis, res.syzygy_subspace(i))
                assert all(same(g, w) for g, w in zip(syz.var_actions, va)), (name, i)

    def test_free_split_remainder(self, p):
        mods = modules_over(p)
        for name in ("R+k", "X+w~", "two~"):
            split = split_free_summands(direct_sum([mods["R"], mods[name]]))
            rem = split.remainder
            incl = split.iso.matrix.take_cols(range(split.iso.matrix.cols - rem.dim,
                                                    split.iso.matrix.cols))
            _, va = reference_submodule_actions(split.iso.target, incl)
            assert all(same(g, w) for g, w in zip(rem.var_actions, va)), name


def extension_pairs(p):
    alg = build_algebra(Field(p), ["x", "y"], [], 2)
    k = residue_field(alg)
    x = from_presentation(alg, 1, [["x"]])
    w = canonical_module(alg)
    return [(k, k), (x, k), (k, x), (w, x), (direct_sum([k, x]), w)]


@pytest.mark.parametrize("p", PRIMES)
class TestExtensionMaps:
    def test_inject_and_project(self, p):
        """The block-triangular middle against the pushout, through the
        isomorphism T = ref_proj [[I, 0], [0, s]], (a, r) -> (a, s r)."""
        fld = Field(p)
        rng = random.Random(7)
        for left, right in extension_pairs(p):
            data = Ext1Data(right, left)
            res = resolve(right)
            s = res.section()
            assert same(res.differential(0) @ s,
                        Matrix.identity(fld, right.dim))
            assert not s.take_rows(res.free_positions(1)).a.any()
            classes = [Matrix.identity(fld, data.dim).take_cols([i])
                       for i in range(data.dim)]
            classes.append(Matrix.column(fld, [rng.randrange(1, 4)
                                               for _ in range(data.dim)]))
            for coords in classes:
                psi = data.psi_from_class(coords)
                if psi.is_zero():
                    continue
                ses = extension_from_psi(left, right, psi)
                inject, project = reference_extension(left, right, psi)
                big = direct_sum([left, res.ambient_free(0)])
                ref_proj, ref_acts = reference_quotient(
                    big, Matrix.vstack([psi, -res.syzygy_subspace(1)]))
                t = ref_proj @ Matrix.block_diag(
                    fld, [Matrix.identity(fld, left.dim), s])
                assert t.inverse() is not None
                assert same(t @ ses.inject.matrix, inject)
                assert same(project @ t, ses.project.matrix)
                for e, q in zip(ses.middle.var_actions, ref_acts):
                    assert same(t @ e, q @ t)
                assert class_of_ses(data, ses) == coords
                ses.validate()


PRESENTATIONS = [
    (["x", "y"], [], 2),
    (["x", "y"], ["x^2 - y^2", "x*y"], 4),
    (["x", "y", "z"], ["x*y - z^2", "x^2 + 2*y*z"], 3),
    (["x", "y"], ["x^2 - 2*x*y + y^3", "y^2*x"], 5),
    (["x", "y"], [], 1),             # the ideal has no rows
    (["x", "y"], ["x", "y"], 3),     # the ideal spans all of m
]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("names,relations,nilpotency", PRESENTATIONS)
def test_nf_table(p, names, relations, nilpotency):
    fld = Field(p)
    alg = build_algebra(fld, names, relations, nilpotency)
    mons, want = reference_nf_table(fld, names, relations, nilpotency)
    assert alg.basis_mons == mons
    assert same(alg._nf_table, want)


# -- first Ext and the ring duals on random modules ----------------------------


def reference_ext1(table: ExtTable):
    """Boundaries, representatives and class basis from the dense
    transitions: the pivot columns of transition 0, then those of
    [boundaries | kernel basis of transition 1]."""
    fld, res, dn = table.source.algebra.field, table.res, table.target.dim
    t0, t1 = (Matrix.from_sparse(fld, res.betti(i + 1) * dn, table.transition_columns(i))
              for i in (0, 1))
    boundaries = column_space_basis(t0)
    basis = column_space_basis(Matrix.hstack([boundaries, t1.kernel_basis()]))
    return boundaries, basis.take_cols(range(boundaries.cols, basis.cols)), basis


def reference_coords(basis: Matrix, vectors: Matrix) -> Matrix:
    coords, ok = basis.solve_columns(vectors)
    assert all(ok)
    return coords


RINGS = [(["x", "y"], 2), (["x", "y"], 3), (["x", "y", "z"], 2)]


@given(st.sampled_from(PRIMES), st.sampled_from(range(len(RINGS))),
       st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_ext1_and_dual_coordinates(p, ring, seed_right, seed_left):
    names, nilpotency = RINGS[ring]
    alg = build_algebra(Field(p), names, [], nilpotency)
    rng = random.Random(seed_right)
    right = in_random_basis(direct_sum([random_module(alg, 2, 2, seed_right),
                                        residue_field(alg)]), rng)
    left = random.Random(seed_left).choice(
        [random_module(alg, 2, 2, seed_left), residue_field(alg),
         regular_module(alg), canonical_module(alg)])
    data = Ext1Data(right, left)
    boundaries, reps, basis = reference_ext1(ExtTable(right, left))
    assert same(data.boundaries, boundaries)
    assert same(data.reps, reps)
    assert same(data._class_basis, basis)

    fld, reg = alg.field, regular_module(alg)
    dual = r_dual(right)
    h = dual.flat.cols
    stack = Matrix(fld, dual.flat.a.reshape(alg.dim, right.dim * h))
    for v, act in enumerate(dual.module.var_actions):
        want = reference_coords(dual.flat, Matrix(fld, (reg.var_actions[v] @ stack)
                                                  .a.reshape(right.dim * alg.dim, h)))
        assert same(act, want)
    ev = dual.flat.a.reshape(alg.dim, right.dim, h).transpose(0, 2, 1)
    assert same(biduality(right).matrix, reference_coords(
        r_dual(dual.module).flat, Matrix(fld, ev.reshape(alg.dim * h, right.dim))))
    res = resolve(right)
    cover = ModuleMap(res.ambient_free(0), right, res.differential(0))
    dual_free = r_dual(cover.source)
    composed = dual.map_from_coords(Matrix.identity(fld, h)) @ cover.matrix
    assert same(dual_map(cover, dual, dual_free).matrix, reference_coords(
        dual_free.flat, Matrix(fld, composed.a.reshape(h, -1).T.copy())))
    # dual_map reads coordinates without solving: for module maps f (the
    # cover, combinations of a Hom basis) they give back each composite φ∘f
    hom = hom_space_matrix(left, right)
    for f in [cover] + [ModuleMap(left, right, Matrix(fld, (hom @ Matrix.column(
            fld, [fld.random(rng) for _ in range(hom.cols)])).a.reshape(
                right.dim, left.dim))) for _ in range(2)]:
        f.check_linear()
        dual_source = r_dual(f.source)
        composed = dual.map_from_coords(Matrix.identity(fld, h)) @ f.matrix
        assert dual_source.flat @ dual_map(f, dual, dual_source).matrix == Matrix(
            fld, composed.a.reshape(h, -1).T.copy())
    # coordinates are read back exactly
    coords = Matrix.column(fld, [fld.random(rng) for _ in range(h)])
    assert same(homalg._coords(dual.flat, dual.flat @ coords), coords)
    vec = Matrix.column(fld, [fld.random(rng) for _ in range(dual.flat.rows)])
    coords, ok = dual.flat.solve_columns(vec)
    if ok[0]:
        assert same(homalg._coords(dual.flat, vec), coords)


# -- lifts through covers -------------------------------------------------------


def reference_omega_of_map(g, steps):
    """The syzygy transport with one carried solve against each target cover."""
    for _ in range(steps):
        res_x, res_y = resolve(g.source), resolve(g.target)
        sols, ok = res_y.differential(0).solve_columns(
            g.matrix @ res_x.generator_images(0))
        assert all(ok)
        u = assemble_action_columns(free_module(g.source.algebra, res_y.betti(0)), sols)
        full = u @ res_x.syzygy_subspace(1)
        g = ModuleMap(res_x.syzygy_module(1), res_y.syzygy_module(1),
                      full.take_rows(res_y.free_positions(1)))
    return g.matrix


def random_ring_element(mod, rng):
    """A random c + sum c_v x_v + c' x_0 x_1 acting on the module: an
    endomorphism, since the ring is commutative."""
    fld, acts = mod.algebra.field, mod.var_actions
    out = Matrix.identity(fld, mod.dim).scale(fld.random(rng))
    for act in acts:
        out = out + act.scale(fld.random(rng))
    return out + (acts[0] @ acts[1]).scale(fld.random(rng))


@given(st.sampled_from(PRIMES), st.sampled_from(range(len(RINGS))),
       st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_lifts_read_the_section(p, ring, seed, plus_k):
    names, nilpotency = RINGS[ring]
    alg = build_algebra(Field(p), names, [], nilpotency)
    fld, rng = alg.field, random.Random(seed)
    mod = in_random_basis(random_module(alg, 2, 2, seed), rng)
    if plus_k:  # a remembered sum: its resolution is a SumResolution
        mod = direct_sum([mod, residue_field(alg)])
    res = resolve(mod)
    # Ext^1's psis: the section of the first syzygy's own cover
    lifts, ok = res.differential(1).solve_columns(res.syzygy_subspace(1))
    assert all(ok)
    assert same(resolve(res.syzygy_module(1)).section(), lifts)
    # any lift through the cover is the section times its target
    y = Matrix.from_rows(fld, [[fld.random(rng) for _ in range(4)]
                               for _ in range(mod.dim)])
    want, ok = res.differential(0).solve_columns(y)
    assert all(ok)
    assert same(res.section() @ y, want)
    # the syzygy transport of maps: a ring element acting on the module,
    # and the same into the sum with R
    a = random_ring_element(mod, rng)
    plus_r = direct_sum([mod, regular_module(alg)])
    for g in (ModuleMap(mod, mod, a),
              ModuleMap(mod, plus_r, Matrix.vstack(
                  [a, Matrix.zeros(fld, alg.dim, mod.dim)]))):
        assert same(omega_of_map(g, 2).matrix, reference_omega_of_map(g, 2))
    # an isomorphism from the module in a random basis, after the unit
    # 1 + x_0 a: its transports are module isomorphisms
    unit = Matrix.identity(fld, mod.dim) + mod.var_actions[0] @ a
    p = basis_change(mod, rng)
    g = ModuleMap(p.source, mod, unit @ p.matrix)
    g.check_linear()
    for n in (1, 2):
        out = omega_of_map(g, n)
        out.check_linear()
        assert out.is_isomorphism()
