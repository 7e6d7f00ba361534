"""Minimal resolutions: betti oracles, literal sharing, step caps."""

import ast
from functools import reduce
from pathlib import Path

import pytest

from redhom.algebra import build_algebra
from redhom.homalg import ext_dims
from redhom.linalg import GF2, GF3, Field, Matrix
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
    zero_module,
)
from redhom import resolution
from redhom.resolution import (
    ChainResolution,
    ResolutionError,
    resolve,
    syzygy,
)

from test_module_ranks import socle_span


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
        for mod in (k, syzygy(k, 1)):
            res = resolve(mod)
            amb = res.ambient_free(0)
            ShortExactSequence(
                ModuleMap(res.syzygy_module(1), amb, res.syzygy_subspace(1)),
                ModuleMap(amb, mod, res.differential(0))).validate()


class TestLiteralSharing:
    def test_syzygy_of_syzygy_is_shared(self, plane):
        k = residue_field(plane)
        w = syzygy(k, 1)
        assert syzygy(w, 1) is syzygy(k, 2)
        assert syzygy(w, 2) is syzygy(k, 3)

    def test_shifted_resolution_kind(self, plane):
        # a syzygy's resolution reuses its parent's differentials
        k = residue_field(plane)
        w = syzygy(k, 1)
        assert resolve(w).betti_list(2) == [2, 4, 8]
        assert resolve(w).columns(2) is resolve(k).columns(3)

    def test_sum_resolution_blockwise(self, plane):
        k = residue_field(plane)
        rx = from_presentation(plane, 1, [["x"]], label="R/x")
        s = direct_sum([k, rx])
        res = resolve(s)
        assert res.betti_list(3) == [2, 3, 6, 12]
        # the differentials are the parts' own, block by block
        for i in range(1, 4):
            assert res.differential(i) == Matrix.block_diag(plane.field, [
                resolve(k).differential(i), resolve(rx).differential(i)])
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
        assert res.betti_list(3) == [2, 0, 0, 0]
        assert res.differential(0) == Matrix.identity(plane.field, f.dim)
        assert res.terminated_at(3) == 1
        assert res.syzygy_module(1).dim == 0

    def test_zero_module(self, plane):
        res = resolve(zero_module(plane))
        assert res.betti_list(2) == [0, 0, 0]
        assert res.terminated_at(2) == 0

    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1, None])
    @pytest.mark.parametrize("case", ["R^0", "R^1", "R^3", "R^2+R", "R+k"])
    def test_free_and_sums(self, p, case):
        alg = build_algebra(Field(p), ["x", "y"], [], 2)
        k = residue_field(alg)
        mod = {"R^0": free_module(alg, 0), "R^1": free_module(alg, 1),
               "R^3": free_module(alg, 3),
               "R^2+R": direct_sum([free_module(alg, 2), free_module(alg, 1)]),
               "R+k": direct_sum([free_module(alg, 1), k])}[case]
        res = resolve(mod)
        if case == "R+k":
            assert res.betti_list(2) == [2, 2, 4]
            assert res.terminated_at(2) is None
            assert res.syzygy_module(1).summands[1][0] is syzygy(k, 1)
            assert ext_dims(mod, k, 2) == [2, 2, 4]
            return
        rank = mod.dim // alg.dim
        assert res.betti_list(2) == [rank, 0, 0]
        assert res.differential(0) == Matrix.identity(alg.field, mod.dim)
        assert res.syzygy_module(1).dim == 0
        assert res.terminated_at(2) == (0 if rank == 0 else 1)
        assert ext_dims(mod, k, 2) == [rank, 0, 0]

    def test_a_finished_resolution_stops_stepping(self, plane):
        """Past an empty kernel every index reads as zero, with no step
        stored for it, also far out."""
        far = 10**6
        for mod, end in ((free_module(plane, 2), 1), (zero_module(plane), 0)):
            res = resolve(mod)
            assert res.terminated_at(far) == end
            assert res.betti(far) == 0 and res.betti_list(99)[end:] == [0] * (100 - end)
            assert res.generators(far) == res.columns(far) == []
            assert res.syzygy_layout(far) == ([], {})
            assert res.syzygy_module(far).dim == 0
            assert len(res.chain._steps) == 1
        s = direct_sum([residue_field(plane), free_module(plane, 1)])
        res = resolve(s)
        assert res.betti_list(3) == [2, 2, 4, 8]
        assert len(resolve(s.summands[1][0]).chain._steps) == 1

    def test_syzygy_zero_is_the_module(self, plane):
        """Index 0 of a module's resolution and of a sum's is the module
        itself."""
        k = residue_field(plane)
        s = direct_sum([k, free_module(plane, 1)])
        assert resolve(k).syzygy_module(0) is k
        assert resolve(s).syzygy_module(0) is s
        # its subspace and layout start at 1: index 0 would read step -1
        for res in (resolve(k), resolve(s)):
            for read in (res.syzygy_subspace, res.syzygy_layout):
                with pytest.raises(ResolutionError, match="start at index 1"):
                    read(0)

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

    def test_periodicity_of_length_one(self):
        line2 = build_algebra(GF2, ["x"], [], 2)
        k = residue_field(line2)
        assert resolve(k).betti_list(3) == [1, 1, 1, 1]
        verdict = is_isomorphic(syzygy(k, 1), k)
        assert verdict.kind == "yes" and verdict.witness.is_isomorphism()


class TestDualizingModule:
    def test_canonical_shape_over_plane(self, plane):
        # linear dual of the regular module: actions are the transposes
        w = Module(plane, 3, plane.var_stack.transpose(0, 2, 1),
                   label="w")
        assert w.gens_count() == 2
        assert w.socle_dim() == socle_span(w).cols == 1
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
        assert (res.differential(0) @ res.differential(1)).is_zero()

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
        res = resolve(k)
        emb = ModuleMap(res.syzygy_module(2), res.ambient_free(1), res.syzygy_subspace(2))
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

    # step 4 of k over F_2[x,y]/(x^2, y^2), where m kills no minimal
    # generator of a syzygy, so each is stepped: a 16 x 20 differential
    # whose 5 generators have 8 nonzeros, meeting 16 structure constants:
    # 20 columns, plus those products in the columns and again in the rows
    CI_STEP4 = resolution.ENTRY_BYTES * (20 + 2 * 16)

    def test_refused_before_the_product(self, monkeypatch):
        res = resolve(residue_field(build_algebra(GF2, ["x", "y"], ["x^2", "y^2"], 3)))
        res.extend(3)
        products = []
        product = resolution.free_products

        def counted(*args):
            products.append(args)
            return product(*args)
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", self.CI_STEP4 - 1)
        monkeypatch.setattr(resolution, "free_products", counted)
        with pytest.raises(ResolutionError) as exc:
            res.extend(6)
        assert f"step 4 would allocate {self.CI_STEP4} bytes" in str(exc.value)
        assert "--window" in str(exc.value)
        assert products == []
        assert (len(res.chain._betti), len(res.chain._steps)) == (4, 4)
        # the patched name is the product the step makes
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", self.CI_STEP4)
        assert res.betti(4) == 5 and len(products) == 1

    def test_resumes_under_a_larger_cap(self, plane, monkeypatch):
        res = resolve(residue_field(plane))
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", self.STEP4 - 1)
        with pytest.raises(ResolutionError):
            res.extend(4)
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", self.STEP4)
        assert res.betti_list(4) == [1, 2, 4, 8, 16]


def test_missing_section_is_a_resolution_error(plane, monkeypatch):
    """A cover with no section raises with a reason and caches nothing."""
    res = resolve(residue_field(plane))
    monkeypatch.setattr(Matrix, "solve", lambda self, target: None)
    with pytest.raises(ResolutionError, match="no section"):
        res.section()
    monkeypatch.undo()
    assert res.differential(0) @ res.section() == Matrix.identity(plane.field, 1)


def test_a_negative_differential_index_is_refused(plane):
    """d_0 is the cover; a negative index names no step, and is refused
    with a `ResolutionError` before any list of steps is indexed by it."""
    res = resolve(residue_field(plane))
    assert res.differential(0).a.shape == (1, plane.dim)
    with pytest.raises(ResolutionError, match="start at index 0"):
        res.differential(-1)


def tracer_resolution_names() -> list[str]:
    """The `resolution.*` names among the elements of `EXTRA`, the keys of
    `ATTRS` and the values of `COUNTS` in `perfbench/tracer.py`, read from
    its source: nothing under perfbench/ is imported, run or written."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    values = {t.id: node.value for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name)}
    nodes = [*values["EXTRA"].elts, *values["ATTRS"].keys, *values["COUNTS"].values]
    return sorted({n.value for n in nodes if n.value.startswith("resolution.")})


def test_the_tracer_counts_chains_not_views(plane):
    """Every `resolution.*` name the tracer wraps or counts is an attribute
    of `redhom.resolution`, and a module's resolution reads a
    `ChainResolution` without being one, so counting chains counts each
    chain of steps once."""
    names = tracer_resolution_names()
    missing = [n for n in names if reduce(
        lambda obj, a: getattr(obj, a, None), n.split(".")[1:], resolution) is None]
    assert names and missing == []
    res = resolve(residue_field(plane))
    assert isinstance(res.chain, ChainResolution)
    assert not isinstance(res, ChainResolution)
