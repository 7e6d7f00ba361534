"""Chain certificates: verification, serialization, search, transports."""

import pytest
from hypothesis import given, settings, strategies as st

from redhom import homalg, reducing, resolution
from redhom.algebra import build_algebra
from redhom.linalg import GF2, QQ, Field, Matrix
from redhom.modules import (
    ModuleMap,
    free_module,
    power_module,
    residue_field,
    split_free_summands,
    from_presentation,
    is_isomorphic,
    split_ses,
)
from redhom.resolution import resolve, syzygy
from redhom.reducing import (
    CertificateError,
    InputError,
    ReducingSequence,
    ReducingStep,
    SearchConfig,
    load_certificate,
    omega_of_map,
    save_certificate,
    search,
    sequence_from_dict,
    sequence_to_dict,
    transform_cosyzygy,
    transform_syzygy,
    verify,
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


def pd_cert_for_k(plane):
    cfg = SearchConfig(max_r=1, max_a=4, max_b=1, max_n=2)
    result = search(residue_field(plane), "pd", cfg)
    assert result.found
    return result.sequence


def mod_rx(alg):
    # quotient by the first variable: one generator, relation x*gen
    return from_presentation(alg, 1, [["x"]], label="R/x")


def pd_cert_for_rx(alg):
    return search(mod_rx(alg), "pd", SearchConfig(max_r=1, max_a=2, max_b=2,
                                                  max_n=2)).sequence


class TestVerify:
    def test_trivial_chain_on_free_module(self, plane):
        seq = ReducingSequence(free_module(plane, 2), [], "pd")
        report = verify(seq)
        assert report.ok
        assert report.terminal == {"kind": "free", "dim": 6}

    def test_trivial_chain_on_k_rejected(self, plane):
        seq = ReducingSequence(residue_field(plane), [], "pd")
        report = verify(seq)
        assert not report.ok
        assert "not free" in report.reason

    def test_flagship_certificate(self, plane):
        seq = pd_cert_for_k(plane)
        assert seq.r == 1
        step = seq.steps[0]
        assert (step.a, step.b, step.n) == (4, 1, 1)
        assert step.sequence.middle.free_rank == 2
        assert verify(seq).ok

    def test_corrupted_witness_rejected(self, plane):
        seq = pd_cert_for_k(plane)
        step = seq.steps[0]
        bad = step.witness.matrix + Matrix.identity(GF2,
                                                    step.witness.matrix.rows)
        step.witness = ModuleMap(step.witness.source, step.witness.target, bad)
        report = verify(seq)
        assert not report.ok
        assert report.step == 1
        assert "witness" in report.reason

    def test_corrupted_project_rejected(self, plane):
        seq = pd_cert_for_k(plane)
        step = seq.steps[0]
        bad = Matrix.zeros(GF2, step.sequence.project.matrix.rows,
                           step.sequence.project.matrix.cols)
        step.sequence.project = ModuleMap(step.sequence.middle, step.sequence.right, bad)
        report = verify(seq)
        assert not report.ok
        assert report.step == 1
        assert "exact" in report.reason

    def test_sequence_maps_on_different_middles_rejected(self, plane):
        seq = pd_cert_for_k(plane)
        ses = seq.steps[0].sequence
        ses.project = ModuleMap.zero(free_module(plane, 1), ses.right)
        assert ses.inject.target.dim != 3
        report = verify(seq)
        assert (report.ok, report.step) == (False, 1)
        assert report.reason == ("sequence is not exact: sequence maps do "
                                 "not share a middle module")

    def test_wrong_left_power_rejected(self, plane):
        seq = pd_cert_for_k(plane)
        seq.steps[0].a = 2  # the stored sequence still has a 4-fold left
        report = verify(seq)
        assert not report.ok
        assert "power" in report.reason

    def test_gdim_chain_on_k_rejected(self, plane):
        seq = ReducingSequence(residue_field(plane), [], "gdim")
        report = verify(seq)
        assert not report.ok
        assert report.reason.startswith(
            "final module is not totally reflexive")

    def test_unknown_target_rejected(self, plane):
        report = verify(ReducingSequence(free_module(plane, 1), [], "both"))
        assert not report.ok
        assert (report.reason, report.step) == ("unknown target 'both'", 0)

    @pytest.mark.parametrize("param", ["a", "b", "n"])
    def test_nonpositive_step_parameter_rejected(self, plane, param):
        seq = pd_cert_for_k(plane)
        setattr(seq.steps[0], param, 0)
        report = verify(seq)
        assert (report.ok, report.step) == (False, 1)
        assert report.reason == "step parameters must be positive"

    @pytest.mark.parametrize("end", ["source", "target"])
    def test_witness_on_the_wrong_module_rejected(self, plane, end):
        seq = pd_cert_for_k(plane)
        step = seq.steps[0]
        wit, k = step.witness, residue_field(plane)
        if end == "source":
            step.witness = ModuleMap.zero(k, wit.target)
            reason = "witness source is not the right-hand term"
        else:
            step.witness = ModuleMap.zero(wit.source, k)
            reason = "witness target is not the rebuilt syzygy module"
        report = verify(seq)
        assert (report.ok, report.step, report.reason) == (False, 1, reason)

    def test_bijective_witness_off_the_actions_rejected(self, line3):
        """Over F_2[x]/x^3 the chain for R/x has a right term on which x
        acts by a nonzero nilpotent; swapping its two basis vectors keeps
        the witness bijective but breaks x-linearity."""
        seq = pd_cert_for_rx(line3)
        step = seq.steps[0]
        wit = step.witness
        assert wit.source.dim == 2 and not wit.source.var_actions[0].is_zero()
        swap = Matrix.identity(GF2, 2).take_cols([1, 0])
        step.witness = ModuleMap(wit.source, wit.target, wit.matrix @ swap)
        assert step.witness.is_isomorphism()
        report = verify(seq)
        assert (report.ok, report.step) == (False, 1)
        assert report.reason == "witness is not module-linear"

    def test_gdim_terminal_over_gorenstein(self, line3):
        seq = ReducingSequence(mod_rx(line3), [], "gdim")
        report = verify(seq)
        assert report.ok
        assert report.terminal["kind"] == "totally_reflexive"
        assert report.terminal["certified"]


class TestSerialization:
    def test_roundtrip(self, plane):
        seq = pd_cert_for_k(plane)
        data = sequence_to_dict(seq)
        back = sequence_from_dict(data)
        assert verify(back).ok
        assert sequence_to_dict(back) == data

    def test_roundtrip_with_workspace_algebra(self, plane):
        seq = pd_cert_for_k(plane)
        back = sequence_from_dict(sequence_to_dict(seq), algebra=plane)
        assert back.base.algebra is plane
        assert verify(back).ok

    def test_save_load(self, plane, tmp_path):
        seq = pd_cert_for_k(plane)
        path = tmp_path / "cert.json"
        save_certificate(seq, path)
        back = load_certificate(path)
        assert verify(back).ok

    def test_rational_chain_roundtrip(self):
        alg = build_algebra(QQ, ["x"], [], 3)
        result = search(mod_rx(alg), "pd", SearchConfig(max_r=1, max_a=2,
                                                        max_b=2, max_n=2))
        assert result.found
        back = sequence_from_dict(sequence_to_dict(result.sequence))
        assert verify(back).ok

    @pytest.mark.parametrize("mutate,pointer", [
        (lambda d: d.update(format="bogus/9"), "/format"),
        (lambda d: d.update(target="both"), "/target"),
        (lambda d: d.update(algebra=[1, 2]), "/algebra"),
        (lambda d: d["base"].update(dim=-1), "/base/dim"),
        (lambda d: d["base"]["actions"].pop(), "/base/actions"),
        (lambda d: d["steps"][0].update(a=0), "/steps/0/a"),
        pytest.param(lambda d: d["steps"][0].update(a=10**5), "/steps/0/a",
                     id="a-power-too-large"),
        pytest.param(lambda d: d["steps"][0].update(b=10**5), "/steps/0/b",
                     id="b-power-too-large"),
        (lambda d: d["steps"][0]["witness"].pop(), "/steps/0/witness"),
        (lambda d: d["steps"][0]["inject"][0].pop(), "/steps/0/inject/0"),
    ])
    def test_format_errors_carry_pointers(self, plane, mutate, pointer):
        data = sequence_to_dict(pd_cert_for_k(plane))
        mutate(data)
        with pytest.raises(InputError) as err:
            sequence_from_dict(data)
        assert err.value.pointer == pointer

    def test_unbuildable_syzygy_names_n(self, plane, monkeypatch):
        """A step whose n-th syzygy passes the step cap is malformed input
        at its n, and the message names n, not a command-line window."""
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 10**6)
        data = sequence_to_dict(pd_cert_for_k(plane))
        data["steps"][0]["n"] = 100
        with pytest.raises(InputError) as err:
            sequence_from_dict(data)
        assert err.value.pointer == "/steps/0/n"
        assert err.value.message.startswith("n = 100: ")
        assert "MAX_STEP_BYTES" in err.value.message
        assert "--window" not in err.value.message

    @pytest.mark.parametrize("mutate,pointer", [
        (lambda d: d["base"].update(dim=True), "/base/dim"),
        (lambda d: d["steps"][0].update(a=True), "/steps/0/a"),
        (lambda d: d["steps"][0].update(b=True), "/steps/0/b"),
        (lambda d: d["steps"][0].update(n=True), "/steps/0/n"),
        (lambda d: d["steps"][0]["middle"].update(dim=True),
         "/steps/0/middle/dim"),
        (lambda d: d["algebra"].update(nilpotency=True), "/algebra"),
        (lambda d: d["algebra"].update(nilpotency=2.5), "/algebra"),
        (lambda d: d["algebra"].update(characteristic=True), "/algebra"),
    ], ids=["dim", "a", "b", "n", "middle-dim", "nilpotency",
            "float-nilpotency", "characteristic"])
    def test_boolean_is_not_an_integer(self, plane, mutate, pointer):
        data = sequence_to_dict(pd_cert_for_k(plane))
        mutate(data)
        with pytest.raises(InputError) as err:
            sequence_from_dict(data)
        assert err.value.pointer == pointer

    def test_algebra_mismatch_rejected(self, plane, line3):
        data = sequence_to_dict(pd_cert_for_k(plane))
        with pytest.raises(InputError) as err:
            sequence_from_dict(data, algebra=line3)
        assert err.value.pointer == "/algebra"


class TestSearch:
    def test_flagship_found_via_free_middle(self, plane):
        result = search(residue_field(plane), "pd",
                        SearchConfig(max_r=1, max_a=4, max_b=1, max_n=2))
        assert result.found and not result.exhausted
        assert result.candidates == 0  # free-middle construction is free

    def test_unknown_target_raises(self, plane):
        with pytest.raises(ValueError, match="target must be one of"):
            search(residue_field(plane), "both")

    def test_square_zero_three_variables(self):
        alg = build_algebra(GF2, ["x", "y", "z"], [], 2)
        result = search(residue_field(alg), "pd",
                        SearchConfig(max_r=1, max_a=9, max_b=1, max_n=1))
        assert result.found
        step = result.sequence.steps[0]
        assert (step.a, step.b, step.n) == (9, 1, 1)

    def test_structureless_module_absent(self, plane):
        result = search(mod_rx(plane), "pd",
                        SearchConfig(max_r=2, max_a=4, max_b=2, max_n=2,
                                     budget=60))
        assert not result.found
        assert result.reason in ("no certificate within bounds",
                                 "candidate budget exhausted")

    def test_budget_exhaustion_flagged(self, plane):
        result = search(mod_rx(plane), "pd",
                        SearchConfig(max_r=2, max_a=4, max_b=2, max_n=2,
                                     budget=2))
        assert not result.found
        assert result.exhausted
        assert result.candidates == 2

    def test_gorenstein_gdim_is_immediate(self, line3):
        result = search(mod_rx(line3), "gdim")
        assert result.found
        assert result.sequence.r == 0

    def test_periodic_module_over_line3(self, line3):
        result = search(mod_rx(line3), "pd",
                        SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2))
        assert result.found
        step = result.sequence.steps[0]
        assert (step.a, step.b, step.n) == (1, 1, 1)
        assert step.sequence.middle.free_rank == 1

    def test_a_zero_drawn_class_builds_no_extension(self, plane, monkeypatch):
        """Before the last depth a random draw of zero coefficients gives
        the zero cocycle, which is skipped: it is the split middle."""
        drawn, built = [], []
        combine, extend = reducing._combination_psi, reducing.extension_from_psi

        def combination(*args):
            drawn.append(combine(*args))
            return drawn[-1]

        def extension(left, right, psi):
            built.append(psi)
            return extend(left, right, psi)

        monkeypatch.setattr(reducing, "_combination_psi", combination)
        monkeypatch.setattr(reducing, "extension_from_psi", extension)
        result = search(mod_rx(plane), "pd", SearchConfig(
            max_r=2, max_a=1, max_b=1, max_n=1, budget=30, window=4))
        assert not result.found
        assert sum(psi.is_zero() for psi in drawn) == 3
        assert len(built) == len(drawn) - 3
        assert not any(psi.is_zero() for psi in built)

    def test_deterministic(self, plane):
        cfg = SearchConfig(max_r=1, max_a=2, max_b=2, max_n=1, budget=30,
                           seed=7)
        r1 = search(mod_rx(plane), "gdim", cfg)
        r2 = search(mod_rx(plane), "gdim", cfg)
        assert r1.found == r2.found
        assert r1.candidates == r2.candidates


class TestOmegaOfMap:
    def test_identity_transports_to_isomorphism(self, line3):
        m = mod_rx(line3)
        out = omega_of_map(ModuleMap.identity(m), steps=2)
        assert out.is_isomorphism()
        assert out.source.dim == syzygy(m, 2).dim

    def test_iso_transport_matches_syzygy_dims(self, plane):
        k = residue_field(plane)
        k2 = power_module(k, 2)
        omega = syzygy(k, 1)
        ver = is_isomorphic(k2, omega)
        assert ver.kind == "yes"
        out = omega_of_map(ver.witness)
        assert out.is_isomorphism()
        assert out.source is syzygy(k2, 1)
        assert out.target is syzygy(omega, 1)


class TestTransformSyzygy:
    def test_trivial_chain(self, plane):
        seq = ReducingSequence(free_module(plane, 3), [], "pd")
        out = transform_syzygy(seq)
        assert out.base.dim == 0
        assert verify(out).ok

    def test_line3_chain(self, line3):
        seq = search(mod_rx(line3), "pd",
                     SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2)
                     ).sequence
        out = transform_syzygy(seq)
        assert verify(out).ok
        assert out.r == 1
        step = out.steps[0]
        assert (step.a, step.b, step.n) == (1, 1, 1)
        assert out.base.dim == syzygy(mod_rx(line3), 1).dim
        # middle is syz(R) + one free pad = 0 + R
        assert step.sequence.middle.dim == line3.dim

    def test_flagship_chain(self, plane):
        seq = pd_cert_for_k(plane)
        out = transform_syzygy(seq)
        assert verify(out).ok
        step = out.steps[0]
        # syzygy of a free middle vanishes, leaving pure padding
        peel = split_free_summands(step.sequence.middle)
        assert peel.remainder.dim == 0
        assert step.sequence.middle.dim == 4 * plane.dim

    def test_rejects_bad_input(self, plane):
        seq = ReducingSequence(residue_field(plane), [], "pd")
        with pytest.raises(CertificateError):
            transform_syzygy(seq)


class TestTransformCosyzygy:
    def test_ext_precondition_rejection(self, plane):
        # chain base is k = syz(R/x); Ext^1(k, ring) is nonzero, so the
        # transport must refuse rather than attempt the construction
        seq = pd_cert_for_k(plane)
        with pytest.raises(CertificateError, match="Ext"):
            transform_cosyzygy(seq, mod_rx(plane), window=4)

    def test_base_identification_rejection(self, line3):
        seq = ReducingSequence(free_module(line3, 1), [], "pd")
        with pytest.raises(CertificateError, match="base"):
            transform_cosyzygy(seq, mod_rx(line3), window=4)

    def test_window_guard(self, line3):
        seq = transform_syzygy(
            search(mod_rx(line3), "pd",
                   SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2)
                   ).sequence)
        with pytest.raises(CertificateError, match="window"):
            transform_cosyzygy(seq, mod_rx(line3), window=2)

    def test_roundtrip_line3(self, line3):
        m = mod_rx(line3)
        seq = search(m, "pd",
                     SearchConfig(max_r=1, max_a=2, max_b=2, max_n=2)
                     ).sequence
        shifted = transform_syzygy(seq)
        assert verify(shifted).ok
        back = transform_cosyzygy(shifted, m, window=5)
        assert back.base is m
        assert verify(back).ok
        assert back.r == seq.r
        step = back.steps[0]
        assert (step.a, step.b, step.n) == (1, 1, 1)

    def test_unverified_input_chain_rejected(self, line3):
        shifted = transform_syzygy(pd_cert_for_rx(line3))
        shifted.steps[0].a += 1  # the stored left term stays the old power
        with pytest.raises(CertificateError) as exc:
            transform_cosyzygy(shifted, mod_rx(line3), window=5)
        assert str(exc.value) == (
            "input chain failed verification: left term is not the "
            "declared power of the previous chain module")

    def test_unverified_transported_chain_rejected(self, line3, monkeypatch):
        """The lifted chain is verified again before it is returned; a
        verifier that refuses every chain but the input shows the refusal."""
        shifted = transform_syzygy(pd_cert_for_rx(line3))
        real = reducing.verify
        monkeypatch.setattr(reducing, "verify", lambda seq, window: (
            real(seq, window) if seq is shifted
            else reducing._fail("made up", 1, seq.target, seq.r)))
        with pytest.raises(CertificateError) as exc:
            transform_cosyzygy(shifted, mod_rx(line3), window=5)
        assert str(exc.value) == "transported chain failed verification: made up"

    def test_roundtrip_trivial(self, line2):
        k = residue_field(line2)
        seq = search(k, "gdim").sequence  # r = 0, Gorenstein
        shifted = transform_syzygy(seq)
        assert transform_cosyzygy(shifted, k, window=4).r == 0


# Gorenstein rings, so that every chain found lifts back; Q on the smaller
# two.  Each with cyclic modules R/(relations) that `search` finds a pd
# chain for ([] is k).
GORENSTEIN = [((p, names, rels, nil), mod) for p in (2, 3, 2**31 - 1, None)
              for names, rels, nil, mods in (
                  (["x"], [], 3, ([], ["x"], ["x^2"])),
                  (["x"], [], 4, ([], ["x"], ["x^2"])),
                  (["x", "y"], ["x^2", "y^2"], 3, (["x"], ["x+y"])))
              if p or len(names) == 1 for mod in mods]


@given(st.sampled_from(GORENSTEIN), st.sampled_from(["pd", "gdim"]),
       st.integers(0, 2))
@settings(deadline=None, derandomize=True, database=None)
def test_transports_verify_over_four_fields(case, target, split_a):
    """Chains that `search` finds, with a split step 0 -> K^a -> K^a +
    syz(K) -> syz(K) -> 0 on the last middle K appended when split_a > 0
    (so r reaches 2): the syzygy transport verifies, and the cosyzygy
    transport lifts it back to a chain for the module that verifies.
    Neither transport re-checks the horseshoes, transported classes or
    connecting maps it builds, so these assertions pin them.  Spies check
    the theorems the cosyzygy transport relies on at every step: each
    class lifts through the syzygy shift (dimension shifting), the two
    extensions have a connecting map that is an isomorphism (five lemma),
    and every solve in `class_of_psi` and `psi_of_ses` is solvable in
    every column (a sequence's cocycle lands in its left term, and is a
    cocycle)."""
    (p, names, rels, nil), relations = case
    alg = build_algebra(Field(p), names, rels, nil)
    mod = (from_presentation(alg, 1, [relations]) if relations
           else residue_field(alg))
    found = search(mod, target, SearchConfig(max_a=2, max_b=2))
    assert found.found
    seq = found.sequence
    if split_a:
        last = seq.module_at(seq.r)
        right = syzygy(last, 1)
        seq = ReducingSequence(mod, seq.steps + [ReducingStep(
            split_a, 1, 1, split_ses(power_module(last, split_a), right),
            ModuleMap.identity(right))], target)
    assert verify(seq).ok
    shifted = transform_syzygy(seq)
    assert verify(shifted).ok
    lifts, connections = [], []
    real_solve, real_hom_solve = Matrix.solve_columns, reducing.hom_solve
    real_extension = reducing.extension_from_class

    def solved(fn):
        """fn with every `solve_columns` inside it asserted solvable."""
        def call(*args):
            def solve_columns(self, targets):
                x, ok = real_solve(self, targets)
                assert all(ok)
                return x, ok
            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(Matrix, "solve_columns", solve_columns)
                return fn(*args)
        return call

    def extension_from_class(data, coords):
        lifts.append(coords is not None)
        return real_extension(data, coords)

    def hom_solve(*args):
        rho = real_hom_solve(*args)
        connections.append(rho is not None and rho.is_isomorphism())
        return rho
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homalg.Ext1Data, "class_of_psi", solved(homalg.Ext1Data.class_of_psi))
        mp.setattr(homalg, "psi_of_ses", solved(homalg.psi_of_ses))
        mp.setattr(reducing, "psi_of_ses", solved(reducing.psi_of_ses))
        mp.setattr(reducing, "extension_from_class", extension_from_class)
        mp.setattr(reducing, "hom_solve", hom_solve)
        back = transform_cosyzygy(shifted, mod)
    assert lifts == connections == [True] * seq.r
    assert back.base is mod and back.r == seq.r
    assert verify(back).ok
