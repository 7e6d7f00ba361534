"""Minimal resolutions: betti oracles, literal sharing, periodicity."""

import pytest

from redhom.algebra import build_algebra
from redhom.linalg import GF2, GF3, Matrix
from redhom.modules import (
    Module,
    direct_sum,
    free_module,
    from_presentation,
    is_isomorphic,
    power_module,
    regular_module,
    residue_field,
    zero_module,
)
from redhom import resolution
from redhom.resolution import (
    ChainResolution,
    FreeResolution,
    ResolutionError,
    ShiftedResolution,
    SumResolution,
    cover_sequence,
    detect_periodicity,
    resolve,
    syzygy,
)


@pytest.fixture(scope="module")
def plane():
    return build_algebra(GF2, ["x", "y"], [], 2)


@pytest.fixture(scope="module")
def line3():
    return build_algebra(GF2, ["x"], [], 3)


def r_entry(alg, diff, i, j):
    """R-entry (i, j) of a free-module map, as a coordinate column."""
    d = alg.dim
    return Matrix(alg.field, diff.a[i * d:(i + 1) * d, j * d:j * d + 1].copy())


class TestResidueFieldOverPlane:
    def test_betti_doubling(self, plane):
        k = residue_field(plane)
        assert resolve(k).betti_list(4) == [1, 2, 4, 8, 16]

    def test_first_syzygy_is_maximal_ideal(self, plane):
        k = residue_field(plane)
        s1 = syzygy(k, 1)
        assert s1.dim == 2
        assert s1.is_radical_killed()
        assert is_isomorphic(s1, power_module(k, 2)).kind == "yes"

    def test_second_differential_entries(self, plane):
        # two blocks of (x y) along the diagonal
        k = residue_field(plane)
        d2 = resolve(k).differential(2)
        x = plane.element_from_string("x")
        y = plane.element_from_string("y")
        zero = plane.element_from_string("0")
        want = [[x, y, zero, zero], [zero, zero, x, y]]
        for i in range(2):
            for j in range(4):
                assert r_entry(plane, d2, i, j) == want[i][j]

    def test_second_syzygy_is_k4(self, plane):
        k = residue_field(plane)
        s2 = syzygy(k, 2)
        assert s2.dim == 4
        assert is_isomorphic(s2, power_module(k, 4)).kind == "yes"

    def test_cover_sequence_exact(self, plane):
        k = residue_field(plane)
        cover_sequence(k).validate()
        cover_sequence(syzygy(k, 1)).validate()


class TestLiteralSharing:
    def test_syzygy_of_syzygy_is_shared(self, plane):
        k = residue_field(plane)
        w = syzygy(k, 1)
        assert syzygy(w, 1) is syzygy(k, 2)
        assert syzygy(w, 2) is syzygy(k, 3)

    def test_shifted_resolution_kind(self, plane):
        k = residue_field(plane)
        w = syzygy(k, 1)
        assert isinstance(resolve(w), ShiftedResolution)
        assert resolve(w).betti_list(2) == [2, 4, 8]

    def test_sum_resolution_blockwise(self, plane):
        k = residue_field(plane)
        rx = from_presentation(plane, 1, [["x"]], label="R/x")
        s = direct_sum([k, rx])
        res = resolve(s)
        assert isinstance(res, SumResolution)
        assert res.betti_list(3) == [2, 3, 6, 12]
        s2 = res.syzygy_module(2)
        assert s2.summands[0][0] is syzygy(k, 2)
        assert s2.summands[1][0] is syzygy(rx, 2)

    def test_power_module_resolution_shares_parts(self, plane):
        k = residue_field(plane)
        p = power_module(k, 3)
        res = resolve(p)
        assert res.betti_list(2) == [3, 6, 12]
        parts = res.syzygy_module(1).summands
        assert parts[0][0] is parts[1][0] is parts[2][0] is syzygy(k, 1)

    def test_sum_with_free_drops_free_part(self, plane):
        k = residue_field(plane)
        s = direct_sum([k, free_module(plane, 2)])
        res = resolve(s)
        assert res.betti_list(2) == [3, 2, 4]
        s1 = res.syzygy_module(1)
        # the free part contributes nothing beyond degree zero
        assert s1.summands[1][0].dim == 0
        assert s1.summands[0][0] is syzygy(k, 1)


class TestFreeAndZero:
    def test_free_terminates(self, plane):
        f = free_module(plane, 2)
        res = resolve(f)
        assert isinstance(res, FreeResolution)
        assert res.betti_list(3) == [2, 0, 0, 0]
        assert res.terminated_at(3) == 1
        assert res.syzygy_module(1).dim == 0

    def test_zero_module(self, plane):
        res = resolve(zero_module(plane))
        assert res.betti_list(2) == [0, 0, 0]
        assert res.terminated_at(2) == 0

    def test_infinite_resolutions_do_not_terminate(self, plane):
        k = residue_field(plane)
        assert resolve(k).terminated_at(6) is None


class TestTruncatedLine:
    def test_alternating_syzygies(self, line3):
        rx = from_presentation(line3, 1, [["x"]], label="R/x")
        rx2 = from_presentation(line3, 1, [["x^2"]], label="R/x^2")
        assert resolve(rx).betti_list(4) == [1, 1, 1, 1, 1]
        s1 = syzygy(rx, 1)
        assert s1.dim == 2
        assert is_isomorphic(s1, rx2).kind == "yes"
        s2 = syzygy(rx, 2)
        assert s2.dim == 1
        assert is_isomorphic(s2, rx).kind == "yes"

    def test_periodicity_of_length_two(self, line3):
        rx = from_presentation(line3, 1, [["x"]], label="R/x")
        per = detect_periodicity(rx, 4)
        assert per is not None
        assert (per.start, per.period) == (0, 2)
        assert per.witness.is_isomorphism()

    def test_periodicity_of_length_one(self):
        line2 = build_algebra(GF2, ["x"], [], 2)
        k = residue_field(line2)
        per = detect_periodicity(k, 3)
        assert (per.start, per.period) == (0, 1)

    def test_no_periodicity_when_growing(self, plane):
        k = residue_field(plane)
        assert detect_periodicity(k, 3) is None

    def test_no_periodicity_when_terminating(self, line3):
        assert detect_periodicity(free_module(line3, 1), 3) is None


class TestDualizingModule:
    def test_canonical_shape_over_plane(self, plane):
        # linear dual of the regular module: actions are the transposes
        w = Module(plane, 3, [vm.transpose() for vm in plane.varmat],
                   label="w")
        assert w.gens_count() == 2
        assert w.socle_span().cols == 1
        res = resolve(w)
        assert res.betti_list(3) == [2, 3, 6, 12]
        s1 = res.syzygy_module(1)
        assert s1.dim == 3
        assert is_isomorphic(s1, power_module(residue_field(plane), 3)).kind == "yes"


class TestStructuralChecks:
    def test_differentials_compose_to_zero(self, plane):
        rx = from_presentation(plane, 1, [["x"]])
        res = resolve(rx)
        res.extend(3)
        for i in range(1, 3):
            prod = res.differential(i) @ res.differential(i + 1)
            assert prod.is_zero()
        assert (res.cover_matrix() @ res.differential(1)).is_zero()

    def test_exactness_rank_bookkeeping(self, plane):
        k = residue_field(plane)
        res = resolve(k)
        res.extend(3)
        for i in range(1, 3):
            di = res.differential(i)
            dn = res.differential(i + 1)
            assert di.kernel_basis().cols == dn.rank()

    def test_syzygy_embedding_is_linear(self, plane):
        k = residue_field(plane)
        emb = resolve(k).syzygy_embedding(2)
        emb.check_linear()
        assert emb.is_injective()

    def test_gf3_ring(self):
        e3 = build_algebra(GF3, ["x", "y", "z"], [], 2)
        k = residue_field(e3)
        assert resolve(k).betti_list(3) == [1, 3, 9, 27]


class TestStepCap:
    """A step whose sparse storage would exceed MAX_STEP_BYTES is refused
    before its differential is built."""

    # step 4 of k over F_2[x,y]/m^2: a 24 x 48 differential whose 16
    # generators have one nonzero each, so at most 16 nonzeros: 48
    # columns, plus those nonzeros in the columns and again in the rows
    STEP4 = resolution.ENTRY_BYTES * (48 + 2 * 16)

    def test_refused_before_the_product(self, plane, monkeypatch):
        res = resolve(residue_field(plane))
        res.extend(3)
        products = []
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", self.STEP4 - 1)
        monkeypatch.setattr(resolution, "free_map_columns",
                            lambda *args: products.append(args))
        with pytest.raises(ResolutionError) as exc:
            res.extend(6)
        assert f"step 4 would allocate {self.STEP4} bytes" in str(exc.value)
        assert "--window" in str(exc.value)
        assert products == []
        assert (len(res._betti), len(res._steps)) == (4, 4)

    def test_resumes_under_a_larger_cap(self, plane, monkeypatch):
        res = resolve(residue_field(plane))
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", self.STEP4 - 1)
        with pytest.raises(ResolutionError):
            res.extend(4)
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", self.STEP4)
        assert res.betti_list(4) == [1, 2, 4, 8, 16]
