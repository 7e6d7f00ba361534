"""Module representations, maps, sums, hom spaces, isomorphism tests."""

import random

import pytest

from redhom.algebra import build_algebra
from redhom.linalg import GF2, GF3, Matrix
from redhom.modules import (
    Module,
    ModuleError,
    ModuleMap,
    ShortExactSequence,
    cokernel_module,
    direct_sum,
    free_map_from_columns,
    free_module,
    from_presentation,
    hom_basis,
    hom_dim,
    image_module,
    injection_map,
    is_isomorphic,
    kernel_module,
    power_module,
    projection_map,
    quotient_module,
    regular_module,
    residue_field,
    split_free_summands,
    split_ses,
    submodule,
    validate_module,
    zero_module,
)


@pytest.fixture(scope="module")
def plane():
    """k[x,y] with the square of the maximal ideal zero, over F_2."""
    return build_algebra(GF2, ["x", "y"], [], 2)


@pytest.fixture(scope="module")
def line3():
    """F_2[x] with x^3 = 0."""
    return build_algebra(GF2, ["x"], [], 3)


class TestConstructors:
    def test_residue_field(self, plane):
        k = residue_field(plane)
        assert k.dim == 1
        assert k.is_radical_killed()
        assert k.gens_count() == 1
        assert not k.is_free()

    def test_regular_module(self, plane):
        r = regular_module(plane)
        assert r.dim == 3
        assert r.is_free()
        assert r.gens_count() == 1
        assert r.radical_span().cols == 2

    def test_free_module_layout(self, plane):
        f = free_module(plane, 2)
        assert f.dim == 6
        gens = f.min_generators()
        assert gens.cols == 2
        assert gens.entry(0, 0) == 1 and gens.entry(3, 1) == 1

    def test_zero_module(self, plane):
        z = zero_module(plane)
        assert z.dim == 0
        assert z.is_free()
        assert z.gens_count() == 0


class TestPresentation:
    def test_single_relation(self, plane):
        m = from_presentation(plane, 1, [["x"]], label="R/x")
        assert m.dim == 2
        assert m.gens_count() == 1
        assert m.radical_span().cols == 1
        assert m.socle_span().cols == 1
        assert not m.is_free()

    def test_two_generators(self, plane):
        m = from_presentation(plane, 2, [["x", "0"], ["0", "y"]])
        assert m.dim == 4
        assert m.gens_count() == 2

    def test_no_relations_gives_free(self, plane):
        m = from_presentation(plane, 2, [[], []])
        assert m.is_free()
        assert m.dim == 6

    def test_truncated_line_quotients(self, line3):
        m1 = from_presentation(line3, 1, [["x"]])
        m2 = from_presentation(line3, 1, [["x^2"]])
        assert m1.dim == 1
        assert m2.dim == 2

    def test_free_map_from_columns_layout(self, line3):
        # map R -> R given by multiplication with x
        stacked = line3.element_from_string("x")
        mat = free_map_from_columns(line3, 1, stacked)
        assert mat == line3.varmat[0]


class TestSumsAndPowers:
    def test_direct_sum_metadata(self, plane):
        r = regular_module(plane)
        k = residue_field(plane)
        s = direct_sum([r, k])
        assert s.dim == 4
        assert s.summands[0][1] == 0 and s.summands[1][1] == 3
        assert s.free_rank is None

    def test_sum_of_frees_is_free(self, plane):
        s = direct_sum([free_module(plane, 2), free_module(plane, 1)])
        assert s.free_rank == 3
        assert s.is_free()

    def test_power(self, plane):
        k = residue_field(plane)
        p = power_module(k, 3)
        assert p.dim == 3
        assert p.is_radical_killed()
        assert power_module(k, 1) is k
        assert power_module(k, 0).dim == 0

    def test_injection_projection_roundtrip(self, plane):
        r = regular_module(plane)
        k = residue_field(plane)
        s = direct_sum([r, k])
        for i, part in [(0, r), (1, k)]:
            inj = injection_map(s, i)
            proj = projection_map(s, i)
            comp = proj.compose(inj)
            assert comp.matrix == Matrix.identity(GF2, part.dim)
        assert projection_map(s, 0).compose(injection_map(s, 1)).is_zero()

    def test_split_ses_is_valid(self, plane):
        ses = split_ses(residue_field(plane), regular_module(plane))
        ses.validate()


class TestMaps:
    def test_linearity_enforced(self, plane):
        k = residue_field(plane)
        r = regular_module(plane)
        bad = Matrix.zeros(GF2, 3, 1)
        bad.a[0, 0] = 1
        with pytest.raises(ModuleError):
            ModuleMap(k, r, bad)

    def test_cover_map_and_kernel(self, plane):
        r = regular_module(plane)
        k = residue_field(plane)
        cover = ModuleMap(r, k, Matrix.from_rows(GF2, [[1, 0, 0]]))
        assert cover.is_surjective()
        ker, incl = kernel_module(cover)
        assert ker.dim == 2
        assert ker.is_radical_killed()
        assert incl.is_injective()

    def test_image_and_cokernel(self, plane):
        r = regular_module(plane)
        x_mult = ModuleMap(r, r, plane.varmat[0], validate=True)
        img, _ = image_module(x_mult)
        assert img.dim == 1
        cok, proj = cokernel_module(x_mult)
        assert cok.dim == 2
        assert proj.is_surjective()

    def test_ses_validation_catches_non_exact(self, plane):
        r = regular_module(plane)
        k = residue_field(plane)
        cover = ModuleMap(r, k, Matrix.from_rows(GF2, [[1, 0, 0]]))
        sub, incl = submodule(r, r.radical_span())
        good = ShortExactSequence(incl, cover)
        good.validate()
        bad = ShortExactSequence(
            ModuleMap(zero_module(plane), r, Matrix.zeros(GF2, 3, 0),
                      validate=False),
            cover)
        assert not bad.is_valid()


class TestSubQuotient:
    def test_maximal_ideal_submodule(self, plane):
        r = regular_module(plane)
        sub, incl = submodule(r, r.radical_span())
        assert sub.dim == 2
        assert sub.is_radical_killed()

    def test_quotient_by_radical(self, plane):
        r = regular_module(plane)
        q, proj = quotient_module(r, r.radical_span())
        assert q.dim == 1
        assert proj.is_surjective()
        verdict = is_isomorphic(q, residue_field(plane))
        assert verdict.kind == "yes"

    def test_quotient_by_zero_is_identity(self, plane):
        r = regular_module(plane)
        q, proj = quotient_module(r, Matrix.zeros(GF2, 3, 0))
        assert q is r
        assert proj.matrix == Matrix.identity(GF2, 3)

    def test_non_invariant_span_rejected(self, plane):
        r = regular_module(plane)
        span = Matrix.zeros(GF2, 3, 1)
        span.a[0, 0] = 1  # the identity element alone spans no submodule
        with pytest.raises(ModuleError):
            submodule(r, span)


class TestHom:
    def test_hom_from_residue_field_is_socle(self, plane):
        k = residue_field(plane)
        r = regular_module(plane)
        assert hom_dim(k, r) == 2

    def test_hom_from_free_counts_dimension(self, plane):
        r = regular_module(plane)
        m = from_presentation(plane, 1, [["x"]])
        assert hom_dim(r, m) == m.dim

    def test_hom_endomorphisms_of_k(self, plane):
        k = residue_field(plane)
        assert hom_dim(k, k) == 1
        basis = hom_basis(k, k)
        assert len(basis) == 1 and basis[0].entry(0, 0) == 1


class TestIsomorphism:
    def test_radical_killed_fast_path(self, plane):
        k = residue_field(plane)
        sub, _ = submodule(regular_module(plane),
                           regular_module(plane).radical_span())
        verdict = is_isomorphic(sub, power_module(k, 2))
        assert verdict.kind == "yes"
        assert verdict.witness.is_isomorphism()

    def test_dimension_mismatch(self, plane):
        assert is_isomorphic(residue_field(plane),
                             regular_module(plane)).kind == "no"

    def test_definitive_no_by_enumeration(self, plane):
        mx = from_presentation(plane, 1, [["x"]])
        my = from_presentation(plane, 1, [["y"]])
        verdict = is_isomorphic(mx, my)
        assert verdict.kind == "no"

    def test_self_isomorphism_found(self, plane):
        m = from_presentation(plane, 1, [["x"]])
        verdict = is_isomorphic(m, m, seed=3)
        assert verdict.kind == "yes"
        w = verdict.witness
        assert w.is_isomorphism()
        w.check_linear()

    def test_free_vs_free(self, plane):
        verdict = is_isomorphic(free_module(plane, 2), free_module(plane, 2))
        assert verdict.kind == "yes"

    def test_zero_modules(self, plane):
        assert is_isomorphic(zero_module(plane), zero_module(plane)).kind == "yes"


class TestFreeSplit:
    def test_free_module_short_circuit(self, plane):
        sp = split_free_summands(free_module(plane, 2))
        assert sp.rank == 2
        assert sp.remainder.dim == 0

    def test_mixed_sum(self, plane):
        s = direct_sum([regular_module(plane), residue_field(plane)])
        sp = split_free_summands(s)
        assert sp.rank == 1
        assert sp.remainder.dim == 1
        assert sp.iso.is_isomorphism()
        sp.iso.check_linear()

    def test_no_free_part(self, plane):
        k = residue_field(plane)
        sp = split_free_summands(k)
        assert sp.rank == 0
        assert sp.remainder is k

    def test_double_free_with_tail(self, line3):
        s = direct_sum([free_module(line3, 1), free_module(line3, 1),
                        from_presentation(line3, 1, [["x^2"]])])
        sp = split_free_summands(s)
        assert sp.rank == 2
        assert sp.remainder.dim == 2
        assert sp.iso.is_isomorphism()

    def test_syzygy_style_module_has_no_free_part(self, plane):
        # everything inside the radical of a free module is killed too fast
        r = regular_module(plane)
        sub, _ = submodule(r, r.radical_span())
        assert split_free_summands(sub).rank == 0


class TestValidation:
    def test_validate_accepts_presented_modules(self, plane):
        m = from_presentation(plane, 2, [["x", "y"], ["y", "0"]])
        validate_module(m)

    def test_validate_rejects_noncommuting(self):
        alg = build_algebra(GF3, ["x", "y"], [], 2)
        a = Matrix.from_rows(GF3, [[0, 0], [1, 0]])
        b = Matrix.from_rows(GF3, [[0, 1], [0, 0]])
        with pytest.raises(ModuleError):
            Module(alg, 2, [a, b])

    def test_validate_rejects_broken_relation(self, line3):
        # x acts with cube nonzero on a 4-dimensional space
        shift = Matrix.from_rows(GF2, [[0, 0, 0, 0], [1, 0, 0, 0],
                                       [0, 1, 0, 0], [0, 0, 1, 0]])
        with pytest.raises(ModuleError):
            Module(line3, 4, [shift])

    def test_validate_checks_mixed_relations(self):
        # x^2 = y^2 and xy = 0 in the algebra; the regular representation
        # satisfies both, a shift by x with y acting as zero breaks x^2 = y^2
        alg = build_algebra(GF3, ["x", "y"], ["x^2 - y^2", "x*y"], 3)
        Module(alg, alg.dim, list(alg.varmat))
        shift = Matrix.from_rows(GF3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ModuleError, match="relation"):
            Module(alg, 3, [shift, Matrix.zeros(GF3, 3, 3)])
