"""Duals, Ext tables, extension classes, horseshoes, pushforwards."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import (
    Ext1Data,
    ExtTable,
    HomAlgError,
    biduality,
    canonical_module,
    class_of_ses,
    dual_map,
    ext_dims,
    ext_syzygy_map,
    ext_vanishes_through,
    extension_from_class,
    extension_from_psi,
    horseshoe,
    k_dual,
    p_invariant,
    psi_of_ses,
    pushforward,
    r_dual,
)
from redhom.linalg import GF2, GF3, Field, Matrix, random_matrix
from redhom.modules import (
    Module,
    ModuleMap,
    ShortExactSequence,
    direct_sum,
    free_module,
    from_presentation,
    is_isomorphic,
    power_module,
    regular_module,
    residue_field,
    split_free_summands,
    split_ses,
)
from redhom.resolution import resolve, syzygy

from test_module_ranks import socle_span


def cover_sequence(module):
    """0 -> syzygy -> minimal free cover -> module -> 0."""
    res = resolve(module)
    amb = res.ambient_free(0)
    return ShortExactSequence(
        ModuleMap(res.syzygy_module(1), amb, res.syzygy_subspace(1)),
        ModuleMap(amb, module, res.differential(0)))


@pytest.fixture(scope="module")
def plane():
    return build_algebra(GF2, ["x", "y"], [], 2)


@pytest.fixture(scope="module")
def line2():
    return build_algebra(GF2, ["x"], [], 2)


@pytest.fixture(scope="module")
def line3():
    return build_algebra(GF2, ["x"], [], 3)


def unit(fld, n, i):
    m = Matrix.zeros(fld, n, 1)
    m.a[i, 0] = fld.one()
    return m


# -- duals --------------------------------------------------------------------


class TestDuals:
    def test_dual_of_residue_field_is_socle(self, plane):
        k = residue_field(plane)
        dk = r_dual(k)
        assert dk.module.dim == 2
        assert dk.module.is_radical_killed()
        assert is_isomorphic(dk.module, power_module(k, 2)).kind == "yes"

    def test_dual_of_regular_is_regular(self, plane):
        reg = regular_module(plane)
        dr = r_dual(reg)
        assert dr.module.dim == plane.dim
        assert is_isomorphic(dr.module, reg).kind == "yes"

    def test_dual_basis_maps_are_linear(self, plane):
        k = residue_field(plane)
        dk = r_dual(k)
        reg = regular_module(plane)
        for m in (Matrix(plane.field, s) for s in dk.stack()):
            for v in range(plane.nvars):
                lhs = reg.var_actions[v] @ m
                rhs = m @ (k.var_actions[v] @ Matrix.identity(plane.field, k.dim))
                assert lhs == rhs

    def test_dualizing_a_surjection_is_injective(self, plane):
        k = residue_field(plane)
        ses = cover_sequence(k)
        f = ses.project                       # R -> k
        dk = r_dual(k)
        dr = r_dual(f.source)
        g = dual_map(f, dk, dr)               # k^ -> R^
        assert g.is_injective()

    def test_biduality_of_residue_field(self, plane):
        k = residue_field(plane)
        ev = biduality(k)
        assert r_dual(r_dual(k).module).module.dim == 4
        assert ev.is_injective()
        assert not ev.is_isomorphism()

    def test_free_module_is_reflexive(self, plane):
        assert biduality(free_module(plane, 2)).is_isomorphism()

    def test_cyclic_with_torsion_is_not_torsionless(self, plane):
        mod = from_presentation(plane, 1, [["x"]], label="R/x")
        assert not biduality(mod).is_injective()

    def test_canonical_module_of_square_zero_plane(self, plane):
        w = canonical_module(plane)
        assert w.dim == 3
        assert w.gens_count() == 2
        assert w.socle_dim() == socle_span(w).cols == 1
        assert not w.is_free()

    def test_canonical_module_of_gorenstein_line(self, line3):
        w = canonical_module(line3)
        assert w.is_free()
        assert is_isomorphic(w, regular_module(line3)).kind == "yes"

    def test_k_dual_doubles_back(self, plane):
        w = canonical_module(plane)
        back = k_dual(w)
        assert is_isomorphic(back, regular_module(plane)).kind == "yes"


# -- Ext dimension tables --------------------------------------------------------


class TestExtDims:
    def test_self_ext_of_k_doubles(self, plane):
        k = residue_field(plane)
        assert ext_dims(k, k, 6) == [1, 2, 4, 8, 16, 32, 64]

    def test_ext_of_k_against_ring(self, plane):
        k = residue_field(plane)
        reg = regular_module(plane)
        assert ext_dims(k, reg, 5) == [2, 3, 6, 12, 24, 48]

    def test_free_source_vanishes_above_zero(self, plane):
        k = residue_field(plane)
        f = free_module(plane, 2)
        dims = ext_dims(f, k, 4)
        assert dims[0] == 2
        assert dims[1:] == [0, 0, 0, 0]
        assert ext_vanishes_through(f, k, 4) == (True, None)

    def test_nonvanishing_is_reported(self, plane):
        k = residue_field(plane)
        assert ext_vanishes_through(k, k, 4) == (False, 1)

    def test_self_injective_ring_has_no_higher_ext(self, line3):
        k = residue_field(line3)
        reg = regular_module(line3)
        assert ext_dims(k, reg, 5) == [1, 0, 0, 0, 0, 0]
        mod = from_presentation(line3, 1, [["x^2"]], label="R/x^2")
        assert ext_dims(mod, reg, 5)[1:] == [0] * 5

    def test_ext_over_dual_numbers_is_constant(self, line2):
        k = residue_field(line2)
        assert ext_dims(k, k, 5) == [1] * 6

    def test_source_additivity(self, plane):
        k = residue_field(plane)
        reg = regular_module(plane)
        both = direct_sum([k, reg])
        single = ext_dims(k, k, 3)
        assert ext_dims(both, k, 3) == [single[i] + (1 if i == 0 else 0)
                                        for i in range(4)]
        assert ext_dims(power_module(k, 2), k, 3) == [2 * v for v in single]

    def test_target_additivity(self, plane):
        k = residue_field(plane)
        single = ext_dims(k, k, 3)
        assert ext_dims(k, power_module(k, 3), 3) == [3 * v for v in single]

    def test_syzygy_shifts_higher_ext(self, plane):
        k = residue_field(plane)
        s1 = syzygy(k, 1)
        shifted = ext_dims(s1, k, 4)
        full = ext_dims(k, k, 5)
        assert shifted[1:] == full[2:]

    def test_zero_module_has_no_ext(self, plane):
        k = residue_field(plane)
        z = free_module(plane, 0)
        assert ext_dims(z, k, 3) == [0, 0, 0, 0]
        assert ext_dims(k, z, 3) == [0, 0, 0, 0]


class TestPInvariant:
    def test_never_vanishing_hits_window(self, plane):
        k = residue_field(plane)
        v = p_invariant(k, k, 5)
        assert v.kind == "above_window"

    def test_free_source_is_zero(self, plane):
        k = residue_field(plane)
        v = p_invariant(regular_module(plane), k, 5)
        assert v.kind == "finite" and v.value == 0

    def test_gorenstein_ring_target(self, line3):
        k = residue_field(line3)
        v = p_invariant(k, regular_module(line3), 6)
        assert v.kind == "finite" and v.value == 0

    def test_zero_module(self, plane):
        k = residue_field(plane)
        v = p_invariant(free_module(plane, 0), k, 4)
        assert v.kind == "minus_infinity"
        assert not v.same_as(p_invariant(k, k, 4))


# -- extension classes -------------------------------------------------------------


class TestExtensions:
    def test_cocycle_and_rank_paths_agree(self, plane, line3):
        for alg in (plane, line3):
            k = residue_field(alg)
            data = Ext1Data(k, k)
            assert data.dim == ExtTable(k, k).dim(1)

    def test_zero_class_is_literal_split(self, plane):
        k = residue_field(plane)
        data = Ext1Data(k, k)
        zero = Matrix.zeros(plane.field, data.dim, 1)
        ses = extension_from_class(data, zero)
        ses.validate()
        assert ses.middle.summands is not None
        assert ses.middle.summands[0][0] is k
        assert class_of_ses(data, ses).is_zero()

    def test_class_roundtrip_on_basis(self, plane):
        k = residue_field(plane)
        data = Ext1Data(k, k)
        assert data.dim == 2
        for i in range(data.dim):
            c = unit(plane.field, data.dim, i)
            ses = extension_from_class(data, c)
            ses.validate()
            assert class_of_ses(data, ses) == c

    def test_class_roundtrip_on_combination(self, plane):
        k = residue_field(plane)
        data = Ext1Data(k, k)
        c = Matrix.from_rows(plane.field, [["1"], ["1"]])
        ses = extension_from_class(data, c)
        ses.validate()
        assert class_of_ses(data, ses) == c

    def test_nonsplit_middle_is_not_a_sum(self, plane):
        k = residue_field(plane)
        data = Ext1Data(k, k)
        ses = extension_from_class(data, unit(plane.field, 2, 0))
        verdict = is_isomorphic(ses.middle, power_module(k, 2))
        assert verdict.kind == "no"

    def test_cover_sequence_class_regenerates_free_middle(self, plane):
        k = residue_field(plane)
        ses0 = cover_sequence(k)
        data = Ext1Data(k, ses0.left)
        c = class_of_ses(data, ses0)
        assert not c.is_zero()
        ses1 = extension_from_class(data, c)
        ses1.validate()
        peel = split_free_summands(ses1.middle)
        assert peel.rank == 1
        assert peel.remainder.dim == 0

    def test_a_projection_that_is_not_onto_is_refused(self, plane):
        """The cover of the right term lifts only through a surjection."""
        k = residue_field(plane)
        ses = cover_sequence(k)
        bad = ShortExactSequence(ses.inject, ModuleMap.zero(ses.middle, k))
        for build in (psi_of_ses, horseshoe):
            with pytest.raises(HomAlgError, match="cover does not lift"):
                build(bad)

    def test_psi_shape_is_checked(self, plane):
        k = residue_field(plane)
        bad = Matrix.zeros(plane.field, 3, 5)
        with pytest.raises(HomAlgError):
            extension_from_psi(k, k, bad)

    def test_extension_over_dual_numbers(self, line2):
        k = residue_field(line2)
        data = Ext1Data(k, k)
        assert data.dim == 1
        ses = extension_from_class(data, unit(line2.field, 1, 0))
        ses.validate()
        assert is_isomorphic(ses.middle, regular_module(line2)).kind == "yes"
        assert class_of_ses(data, ses) == unit(line2.field, 1, 0)


# -- pushforward ---------------------------------------------------------------------


class TestPushforward:
    def test_residue_field_over_dual_numbers(self, line2):
        k = residue_field(line2)
        push = pushforward(k)
        push.validate()
        assert push.middle.free_rank == 1
        assert push.right.dim == 1
        assert is_isomorphic(push.right, k).kind == "yes"

    def test_residue_field_over_plane(self, plane):
        k = residue_field(plane)
        push = pushforward(k)
        push.validate()
        assert push.middle.free_rank == 2
        assert push.right.dim == 2 * plane.dim - 1

    def test_torsion_is_rejected(self, plane):
        mod = from_presentation(plane, 1, [["x"]], label="R/x")
        with pytest.raises(HomAlgError):
            pushforward(mod)

    def test_syzygy_embeds(self, line3):
        s = syzygy(residue_field(line3), 1)
        pushforward(s).validate()


# -- horseshoe -----------------------------------------------------------------------


class TestHorseshoe:
    def test_split_input_gives_no_free_excess(self, line3):
        k = residue_field(line3)
        mod = from_presentation(line3, 1, [["x"]], label="R/x")
        ses = split_ses(k, mod)
        shoe = horseshoe(ses)
        assert shoe.middle.summands[1][0].free_rank == 0
        shoe.validate()
        mid = shoe.middle
        assert mid.summands[0][0] is resolve(ses.middle).syzygy_module(1)

    def test_cover_sequence_over_line(self, line3):
        k = residue_field(line3)
        shoe = horseshoe(cover_sequence(k))
        assert shoe.middle.summands[1][0].free_rank == 1
        shoe.validate()
        assert shoe.middle.dim == 3
        assert shoe.left.dim == 1
        assert shoe.right.dim == 2

    def test_cover_sequence_over_plane(self, plane):
        k = residue_field(plane)
        shoe = horseshoe(cover_sequence(k))
        assert shoe.middle.summands[1][0].free_rank == 2
        shoe.validate()
        assert shoe.middle.dim == 6

    def test_extension_then_horseshoe(self, plane):
        k = residue_field(plane)
        data = Ext1Data(k, k)
        ses = extension_from_class(data, unit(plane.field, 2, 1))
        shoe = horseshoe(ses)
        shoe.validate()
        assert shoe.left is syzygy(k, 1)
        assert shoe.right is syzygy(k, 1)


HORSESHOE_RINGS = [(p, names, nil) for p in (2, 3, 2**31 - 1, None)
                   for names, nil in ((["x", "y"], 2), (["x", "y"], 3), (["x"], 3))
                   if p or nil == 2 or len(names) == 1]  # Q at small dimensions


@given(st.sampled_from(HORSESHOE_RINGS), st.sampled_from(["split", "cover", "class"]),
       st.integers(0, 10**6), st.integers(0, 10**6))
@settings(deadline=None, derandomize=True, database=None)
def test_horseshoe_is_exact_with_the_betti_free_rank(ring, kind, seed_right, seed_left):
    """The horseshoe lemma, which `horseshoe` does not re-check: its
    sequence is an exact sequence of module maps, and the free summand of
    its middle has rank beta_0(left) + beta_0(right) - beta_0(middle)."""
    p, names, nil = ring
    alg = build_algebra(Field(p), names, [], nil)
    right = random_module(alg, 2, 2, seed_right)
    left = random.Random(seed_left).choice(
        [random_module(alg, 2, 2, seed_left), residue_field(alg),
         regular_module(alg)])
    if kind == "split":
        ses = split_ses(left, right)
    elif kind == "cover":
        ses = cover_sequence(direct_sum([right, residue_field(alg)]))
    else:
        data = Ext1Data(right, left)
        rng = random.Random(seed_right + seed_left)
        ses = extension_from_class(data, Matrix.column(
            alg.field, [alg.field.random(rng) for _ in range(data.dim)]))
    shoe = horseshoe(ses)
    shoe.validate()
    free, _ = shoe.middle.summands[1]
    assert free.free_rank == (resolve(ses.left).betti(0) + resolve(ses.right).betti(0)
                              - resolve(ses.middle).betti(0))


@given(st.sampled_from(HORSESHOE_RINGS), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_the_cocycle_of_a_sequence_has_its_class(ring, seed_right, seed_left):
    """The extension built from a sequence's cocycle (`psi_of_ses`) has
    the sequence's class, here for extensions whose middle is written in a
    random basis; `transform_cosyzygy` reads the cocycle and never the
    class."""
    p, names, nil = ring
    alg = build_algebra(Field(p), names, [], nil)
    fld, rng = alg.field, random.Random(seed_right + seed_left)
    right, left = random_module(alg, 2, 2, seed_right), random_module(alg, 2, 2, seed_left)
    data = Ext1Data(right, left)
    coords = random_matrix(fld, data.dim, 1, rng)
    ses = extension_from_class(data, coords)
    n = ses.middle.dim
    lower, upper = ([[int(i == j) if i <= j else rng.randrange(-1, 2)
                      for j in range(n)] for i in range(n)] for _ in range(2))
    change = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper).transpose()
    back = change.inverse()
    middle = Module(alg, n, [back @ act @ change for act in ses.middle.var_actions])
    moved = ShortExactSequence(ModuleMap(left, middle, back @ ses.inject.matrix),
                               ModuleMap(middle, right, ses.project.matrix @ change))
    want = class_of_ses(data, moved)
    assert want == coords  # a change of basis of the middle keeps the class
    assert class_of_ses(data, extension_from_psi(left, right, psi_of_ses(moved))) == want


# -- syzygy map on first Ext -----------------------------------------------------------


class TestExtSyzygyMap:
    def test_dual_numbers_self_map(self, line2):
        k = residue_field(line2)
        source, target, matrix = ext_syzygy_map(k, k)
        assert source.dim == 1
        assert target.dim == 1
        assert not matrix.is_zero()
        assert matrix.rank() == target.dim

    def test_gorenstein_line_self_map(self, line3):
        k = residue_field(line3)
        source, target, matrix = ext_syzygy_map(k, k)
        assert source.dim == 1
        assert target.dim == 1
        assert matrix.rank() == target.dim

    def test_zero_class_maps_to_zero_class(self, line2):
        k = residue_field(line2)
        data = Ext1Data(k, k)
        zero = Matrix.zeros(line2.field, data.dim, 1)
        shoe = horseshoe(extension_from_class(data, zero))
        tgt = Ext1Data(syzygy(k, 1), syzygy(k, 1))
        assert class_of_ses(tgt, shoe).is_zero()
