"""Verdict layer and the mechanical theorem checks."""

import pytest

from redhom.algebra import build_algebra
from redhom.linalg import GF2
from redhom.modules import (
    ModuleMap,
    direct_sum,
    free_module,
    from_presentation,
    hom_dim,
    power_module,
    residue_field,
    regular_module,
    zero_module,
)
from redhom.homalg import canonical_module, ext_dims
from redhom.reducing import (ReducingSequence, ReducingStep, SearchConfig,
                             search, verify)
from redhom.modules import ShortExactSequence
from redhom.invariants import (
    check_P_transfer,
    check_cor33,
    check_main_theorem,
    check_prop27,
    check_t2,
    complete_resolution,
    gdim,
    is_semidualizing,
    is_totally_reflexive,
)


@pytest.fixture(scope="module")
def plane():
    return build_algebra(GF2, ["x", "y"], [], 2)


@pytest.fixture(scope="module")
def line2():
    return build_algebra(GF2, ["x"], [], 2)


@pytest.fixture(scope="module")
def line3():
    return build_algebra(GF2, ["x"], [], 3)


def mod_rx(alg):
    return from_presentation(alg, 1, [["x"]], label="R/x")


def entry_map(report):
    return {e["name"]: e["ok"] for e in report.hypotheses + report.conclusions}


class TestTotallyReflexive:
    def test_free_is_certified(self, plane):
        verdict = is_totally_reflexive(free_module(plane, 2))
        assert verdict.kind == "certified"
        assert verdict.passed

    def test_gorenstein_certifies_everything(self, line3):
        verdict = is_totally_reflexive(mod_rx(line3))
        assert verdict.kind == "certified"

    def test_residue_field_fails_at_first_ext(self, plane):
        verdict = is_totally_reflexive(residue_field(plane))
        assert not verdict.passed
        assert verdict.kind == "fail"
        assert verdict.stage == "ext_module"
        assert verdict.index == 1

    def test_zero_module(self, plane):
        assert is_totally_reflexive(zero_module(plane)).passed


class TestDimensionReports:
    def test_pd_free(self, plane):
        assert free_module(plane, 2).is_free()

    def test_pd_zero(self, plane):
        assert zero_module(plane).is_free()

    def test_pd_infinite(self, plane):
        assert not residue_field(plane).is_free()
        assert not mod_rx(plane).is_free()

    def test_gdim_free(self, plane):
        rep = gdim(free_module(plane, 1))
        assert rep.value == 0
        assert rep.hypothesis == "free"
        assert not rep.above_window

    def test_gdim_gorenstein(self, line2):
        rep = gdim(residue_field(line2))
        assert rep.value == 0
        assert rep.hypothesis == "gorenstein"
        assert rep.dims[1:] == [0] * rep.window

    def test_gdim_above_window(self, plane):
        rep = gdim(residue_field(plane))
        assert rep.above_window
        assert rep.value == -1
        assert rep.hypothesis == "none"
        assert all(d != 0 for d in rep.dims[1:])

    def test_gdim_refuses_bare_claim(self, plane):
        # a non-free module over a non-Gorenstein ring with no chain:
        # the report cannot even arise here because Ext stays alive, but
        # the refusal path needs a window-clear input, so craft none and
        # assert the above-window report instead
        rep = gdim(mod_rx(plane), window=3)
        assert rep.above_window


@pytest.fixture(scope="module")
def sparse_socle():
    """F_2[x,y,z]/(x^2, y^2, yz, z^2) at nilpotency 3: dimension 6, socle
    dimension 2, so not Gorenstein."""
    return build_algebra(GF2, ["x", "y", "z"], ["x^2", "y^2", "y*z", "z^2"],
                         3)


class TestWindowPass:
    """R/(x) over `sparse_socle`: ann(x) = xR, so the complex
    R --x--> R --x--> R is exact and R/(x) is totally reflexive, not free."""

    def test_ring(self, sparse_socle):
        assert sparse_socle.dim == 6
        assert sparse_socle.socle_dim == 2
        assert not sparse_socle.is_gorenstein

    def test_window_pass_verdict(self, sparse_socle):
        mod = mod_rx(sparse_socle)
        assert not mod.is_free()
        assert ext_dims(mod, regular_module(sparse_socle), 6) == [3] + [0] * 6
        verdict = is_totally_reflexive(mod, 6)
        assert verdict.kind == "window_pass"
        assert verdict.passed

    def test_chain_hypothesis(self, sparse_socle):
        mod = mod_rx(sparse_socle)
        chain = ReducingSequence(mod, [], "gdim")
        report = verify(chain, window=6)
        assert report.ok
        assert report.terminal == {"kind": "totally_reflexive",
                                   "certified": False, "window": 6}
        rep = gdim(mod, 6, sequence=chain)
        assert (rep.hypothesis, rep.value) == ("chain", 0)
        assert not rep.above_window

    def test_bare_claim_refused(self, sparse_socle):
        with pytest.raises(ValueError, match="needs a Gorenstein ring"):
            gdim(mod_rx(sparse_socle), 6)

    def test_chain_that_does_not_verify_refused(self, sparse_socle):
        mod = mod_rx(sparse_socle)
        with pytest.raises(ValueError, match="chain does not verify: "
                           "final module is not free"):
            gdim(mod, 6, sequence=ReducingSequence(mod, [], "pd"))

    def test_chain_for_another_module_refused(self, sparse_socle):
        chain = ReducingSequence(free_module(sparse_socle, 1), [], "gdim")
        with pytest.raises(ValueError, match="does not certify this module"):
            gdim(mod_rx(sparse_socle), 6, sequence=chain)


class TestCompleteResolution:
    def test_gorenstein_module(self, line2):
        rep = complete_resolution(residue_field(line2), window=6)
        assert rep.ok and rep.exact and rep.dual_exact
        assert rep.left_ranks == [1] * 7
        assert len(rep.right_ranks) == 6

    def test_free_module(self, plane):
        rep = complete_resolution(free_module(plane, 2))
        assert rep.ok

    def test_zero_module(self, plane):
        assert complete_resolution(zero_module(plane)).ok

    def test_plane_residue_field_fails(self, plane):
        rep = complete_resolution(residue_field(plane), window=3)
        assert not rep.ok
        assert "broke at stage" in rep.reason
        assert rep.left_ranks == [1, 2, 4, 8]


class TestMainTheorem:
    def test_gorenstein_instance(self, line3):
        m = mod_rx(line3)
        seq = search(m, "gdim").sequence
        report = check_main_theorem(m, seq)
        assert report.ok
        names = entry_map(report)
        assert names["chain_verifies"]
        assert names["ext_vanishing"]
        assert names["torsionless"]
        assert names["embedding_chain"]
        assert names["dual_sequences_exact"]
        assert names["complete_resolution"]

    def test_free_instance(self, plane):
        m = free_module(plane, 1)
        seq = search(m, "gdim").sequence
        report = check_main_theorem(m, seq)
        assert report.ok

    def test_hypotheses_gate_conclusions(self, plane):
        k = residue_field(plane)
        report = check_main_theorem(k, None)
        assert not report.ok
        assert not any(h["ok"] for h in report.hypotheses)
        assert report.conclusions == []


def synthetic_step_chain(alg):
    """A one-step chain for the ring: 0 -> R -> R -> 0 -> 0."""
    reg = free_module(alg, 1)
    zero = zero_module(alg)
    ses = ShortExactSequence(ModuleMap.identity(reg),
                             ModuleMap.zero(reg, zero))
    step = ReducingStep(1, 1, 1, ses, ModuleMap.identity(zero))
    return ReducingSequence(reg, [step], "pd")


class TestT2:
    def test_trivial_chain(self, line3):
        reg = free_module(line3, 1)
        seq = ReducingSequence(reg, [], "pd")
        report = check_t2(reg, seq)
        assert report.ok
        assert entry_map(report)["trivial_chain"]

    def test_one_step_chain(self, line3):
        seq = synthetic_step_chain(line3)
        report = check_t2(seq.base, seq)
        assert report.ok
        names = entry_map(report)
        assert names["summand_in_K1"]
        assert names["ext_K1_vanishes"]

    def test_self_ext_hypothesis_gates(self, line3):
        m = mod_rx(line3)
        seq = search(m, "pd", SearchConfig(max_r=1, max_a=2, max_b=2,
                                           max_n=2)).sequence
        report = check_t2(m, seq)
        assert not report.ok
        hyp = {h["name"]: h["ok"] for h in report.hypotheses}
        assert hyp["chain_verifies"]
        assert not hyp["self_ext_vanishing"]
        assert report.conclusions == []


class TestSemidualizing:
    def test_ring_is_semidualizing(self, plane):
        assert is_semidualizing(regular_module(plane))

    def test_canonical_is_semidualizing(self, plane):
        assert is_semidualizing(canonical_module(plane), window=4)

    def test_residue_field_is_not(self, plane):
        assert not is_semidualizing(residue_field(plane))

    def test_zero_is_not(self, plane):
        assert not is_semidualizing(zero_module(plane))

    def test_a_module_with_an_annihilator_is_not(self):
        """k^2 over F_2[x]/x^4 has an endomorphism space of the ring's
        dimension, 4, but m kills it: the homothety has rank 1."""
        line4 = build_algebra(GF2, ["x"], [], 4)
        k2 = power_module(residue_field(line4), 2)
        assert hom_dim(k2, k2) == line4.dim
        assert not is_semidualizing(k2)


class TestCor33:
    def test_gorenstein_branch(self, line3):
        report = check_cor33(line3, window=4)
        assert report.ok
        names = entry_map(report)
        assert names["omega_is_free"]
        assert names["trivial_chain_found"]

    def test_non_gorenstein_branch(self, plane):
        cfg = SearchConfig(max_r=1, max_a=4, max_b=2, max_n=2, budget=20,
                           window=4)
        report = check_cor33(plane, window=4, config=cfg)
        assert report.ok, [e for e in report.conclusions if not e["ok"]]
        names = entry_map(report)
        assert names["omega_not_free"]
        assert names["omega_semidualizing"]
        assert names["search_absent"]


class TestProp27:
    CFG = SearchConfig(max_r=1, max_a=4, max_b=1, max_n=1, budget=30,
                       window=4)

    def test_structured_module(self, plane):
        m = direct_sum([free_module(plane, 1),
                        power_module(residue_field(plane), 2)])
        report = check_prop27(plane, m, config=self.CFG)
        assert report.ok
        names = entry_map(report)
        assert names["pd_chain_short"]
        assert names["gdim_chain_short"]
        detail = [h for h in report.hypotheses
                  if h["name"] == "structure_test"][0]["detail"]
        assert "S=true" in detail and "alpha=1" in detail and "beta=2" in detail

    def test_residue_field(self, plane):
        report = check_prop27(plane, residue_field(plane), config=self.CFG)
        assert report.ok

    def test_unstructured_module(self, plane):
        cfg = SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2, budget=30,
                           window=4)
        report = check_prop27(plane, mod_rx(plane), config=cfg)
        assert report.ok
        names = entry_map(report)
        assert names["pd_search_absent"]
        assert names["gdim_search_absent"]
        detail = [h for h in report.hypotheses
                  if h["name"] == "structure_test"][0]["detail"]
        assert "S=false" in detail

    def test_rejects_deep_radical(self, line3):
        with pytest.raises(ValueError, match="square"):
            check_prop27(line3, mod_rx(line3))

    def test_rejects_gorenstein(self, line2):
        with pytest.raises(ValueError, match="Gorenstein"):
            check_prop27(line2, mod_rx(line2))


class TestPTransfer:
    def test_transfer_along_pd_chain(self, line3):
        m = mod_rx(line3)
        seq = search(m, "pd", SearchConfig(max_r=1, max_a=2, max_b=2,
                                           max_n=2)).sequence
        report = check_P_transfer(seq, regular_module(line3))
        assert report.ok
        assert entry_map(report)["value_at_K1"]

    def test_trivial_chain(self, line3):
        seq = ReducingSequence(free_module(line3, 1), [], "pd")
        report = check_P_transfer(seq, mod_rx(line3))
        assert report.ok
        assert entry_map(report)["trivial_chain"]

    def test_above_window_gates(self, plane):
        k = residue_field(plane)
        seq = search(k, "pd", SearchConfig(max_r=1, max_a=4, max_b=1,
                                           max_n=2)).sequence
        report = check_P_transfer(seq, k)
        assert not report.ok
        hyp = {h["name"]: h["ok"] for h in report.hypotheses}
        assert hyp["chain_verifies"]
        assert not hyp["base_value_finite"]
        assert report.conclusions == []
