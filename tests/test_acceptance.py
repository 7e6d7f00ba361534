"""Acceptance suite: ten structured criteria, exact arithmetic throughout.

Every equality below is exact (zero tolerance).  Later criteria reuse
certificates found by earlier ones through a module-level pool, so this
file relies on pytest's definition-order execution.  Each criterion
prints one summary line, visible under `pytest -s`.
"""

import random as stdrandom
import time

import pytest

from redhom.corpus import (
    line_algebra,
    plane_algebra,
    random_module,
    square_zero_algebra,
    structure_test,
)
from redhom.homalg import (
    Ext1Data,
    canonical_module,
    ext_dims,
    ext_vanishes_through,
    extension_from_class,
    horseshoe,
)
from redhom.invariants import (
    check_P_transfer,
    check_t2,
    complete_resolution,
    gdim,
    is_semidualizing,
    is_totally_reflexive,
)
from redhom.linalg import GF2, GF3, Matrix
from redhom.modules import (
    ModuleMap,
    ShortExactSequence,
    direct_sum,
    free_module,
    from_presentation,
    is_isomorphic,
    power_module,
    quotient_module,
    residue_field,
    zero_module,
)
from redhom.reducing import (
    CertificateError,
    ReducingSequence,
    ReducingStep,
    SearchConfig,
    search,
    transform_cosyzygy,
    transform_syzygy,
    verify,
)
from redhom.resolution import resolve, syzygy

# chains found by criteria 1-3, consumed by criterion 7
CERT_POOL = []

C3_CONFIG = SearchConfig(max_r=2, max_a=8, max_b=8, max_n=2, budget=200)


def socle_step_certificate(alg) -> ReducingSequence:
    """The hand-built one-step chain for the residue field over the
    two-variable square-zero ring: k^4 embeds into R^2 as the socles,
    with cokernel the first syzygy of k."""
    fld = alg.field
    k = residue_field(alg)
    k4 = power_module(k, 4)
    middle = free_module(alg, 2)
    inj = Matrix.zeros(fld, 6, 4)
    # the images are x, y in the first copy and x, y in the second
    for col, row in enumerate((1, 2, 4, 5)):
        inj.a[row, col] = fld.one()
    rest, proj = quotient_module(middle, inj)
    ses = ShortExactSequence(ModuleMap(k4, middle, inj), proj)
    ses.inject.check_linear()
    rebuilt = resolve(k).syzygy_module(1)
    wit = is_isomorphic(rest, rebuilt)
    assert wit.kind == "yes"
    return ReducingSequence(k, [ReducingStep(4, 1, 1, ses, wit.witness)],
                            "pd")


def identity_step_certificate(mod) -> ReducingSequence:
    """A one-step chain 0 -> M -> M -> 0 -> 0 for a module whose minimal
    cover is already injective (free, or isomorphic to free)."""
    alg = mod.algebra
    zero = zero_module(alg)
    ses = ShortExactSequence(ModuleMap.identity(mod),
                             ModuleMap.zero(mod, zero))
    syz = resolve(mod).syzygy_module(1)
    assert syz.dim == 0
    wit = ModuleMap(zero, syz, Matrix.zeros(alg.field, 0, 0))
    return ReducingSequence(mod, [ReducingStep(1, 1, 1, ses, wit)], "pd")


def test_criterion_01_residue_field_pipeline():
    alg = plane_algebra()
    k = residue_field(alg)
    res = resolve(k)
    res.extend(4)
    betti = res.betti_list(4)
    assert betti == [1, 2, 4, 8, 16]

    assert is_isomorphic(syzygy(k, 2), power_module(k, 4)).kind == "yes"

    cert = socle_step_certificate(alg)
    rep = verify(cert, window=10)
    assert rep.ok and rep.r == 1 and rep.target == "pd"

    cfg = SearchConfig(max_r=1, max_a=4, max_b=1, max_n=2, budget=200)
    t0 = time.perf_counter()
    found = search(k, "pd", cfg)
    elapsed = time.perf_counter() - t0
    assert found.found
    assert elapsed < 5.0
    step = found.sequence.steps[0]
    assert (step.a, step.b, step.n) == (4, 1, 1)
    assert verify(found.sequence, window=10).ok

    CERT_POOL.append(("plane k searched", found.sequence))
    CERT_POOL.append(("plane k hand-built", cert))
    print(f"C1 PASS: betti {betti}; second syzygy is k^4; hand-built "
          f"(4,1,1) chain accepted; search found it in {elapsed:.2f}s")


def test_criterion_02_square_zero_family():
    outcomes = []
    for fld in (GF2, GF3):
        for e in (2, 3):
            alg = square_zero_algebra(e, fld)
            k = residue_field(alg)
            cfg = SearchConfig(max_r=1, max_a=e * e, max_b=1, max_n=1,
                               budget=200)
            res = search(k, "pd", cfg)
            assert res.found, (fld.p, e, res.reason)
            assert res.sequence.r == 1
            step = res.sequence.steps[0]
            assert (step.a, step.b, step.n) == (e * e, 1, 1)
            assert verify(res.sequence, window=10).ok
            CERT_POOL.append((f"F{fld.p} e={e} k", res.sequence))
            outcomes.append(f"F{fld.p}/e={e} a={e * e}")
    print("C2 PASS: " + "; ".join(outcomes))


def test_criterion_03_structure_decides_search():
    alg = plane_algebra()
    k = residue_field(alg)
    reg = free_module(alg, 1)
    pool = [(f"seed{seed}", random_module(alg, 2, 2, seed))
            for seed in range(100)]
    pool += [
        ("R", reg),
        ("k", k),
        ("R+k", direct_sum([reg, k])),
        ("k^3", power_module(k, 3)),
        ("R/x", from_presentation(alg, 1, [["x"]])),
        ("syzygy_k", syzygy(k, 1)),
    ]
    structured_count = 0
    for label, mod in pool:
        flat, _, _ = structure_test(mod)
        structured_count += flat
        for target in ("pd", "gdim"):
            res = search(mod, target, C3_CONFIG)
            short = res.found and res.sequence.r <= 1
            assert flat == short, (label, target, flat, res.found,
                                   res.reason)
            if res.found:
                CERT_POOL.append((f"plane {label} {target}", res.sequence))
    print(f"C3 PASS: {len(pool)} modules ({structured_count} structured); "
          f"structure test agrees with bounded search for both targets")


def test_criterion_04_nonvanishing_controls():
    alg = plane_algebra()
    k = residue_field(alg)
    reg = free_module(alg, 1)
    dims = ext_dims(k, reg, 10)
    assert len(dims) == 11
    assert all(d >= 1 for d in dims)

    rx = from_presentation(alg, 1, [["x"]], label="R/x")
    cert = socle_step_certificate(alg)  # k is the first syzygy of R/x
    with pytest.raises(CertificateError, match="Ext") as exc:
        transform_cosyzygy(cert, rx, window=10)

    print(f"C4 PASS: Ext^i(k, R) dims {dims} all positive; cosyzygy "
          f"transport rejected ({exc.value})")


def test_criterion_05_gorenstein_suite():
    lines = []
    for alg, label in ((line_algebra(3, GF2), "F2[x]/x^3"),
                       (line_algebra(2, GF3), "F3[x]/x^2")):
        assert alg.is_gorenstein
        for seed in range(50):
            mod = random_module(alg, 3, 3, seed)
            tr = is_totally_reflexive(mod, window=10)
            assert tr.passed, (label, seed, tr.kind, tr.reason)
            gd = gdim(mod, window=10)
            assert gd.value == 0 and not gd.above_window, (label, seed)
            cr = complete_resolution(mod, window=10)
            assert cr.ok and cr.exact and cr.dual_exact, (label, seed,
                                                          cr.reason)
        lines.append(f"{label}: 50 modules certified")
    print("C5 PASS: " + "; ".join(lines))


def test_criterion_06_extension_horseshoe_suite():
    rng = stdrandom.Random(99)
    total = 0
    split_classes = 0
    for alg in (line_algebra(3, GF2), line_algebra(2, GF3)):
        for trial in range(25):
            left = random_module(alg, 2, 3, seed=1000 + trial)
            right = random_module(alg, 2, 3, seed=2000 + trial)
            data = Ext1Data(right, left)
            if data.dim:
                entries = [alg.field.random(rng) for _ in range(data.dim)]
                # a nonzero class, so most samples are honest extensions
                entries[rng.randrange(data.dim)] = alg.field.one()
                coords = Matrix.column(alg.field, entries)
            else:
                coords = Matrix.zeros(alg.field, 0, 1)
                split_classes += 1
            ses = extension_from_class(data, coords)
            ses.validate()
            assert ses.middle.dim == left.dim + right.dim
            hs = horseshoe(ses)
            hs.sequence.validate()
            assert (hs.sequence.left.dim + hs.sequence.right.dim
                    == hs.sequence.middle.dim)
            assert (hs.sequence.middle.dim
                    == syzygy(ses.middle, 1).dim + hs.free_rank * alg.dim)
            total += 1
    assert total - split_classes >= 10  # enough genuinely glued middles
    print(f"C6 PASS: {total} extension sequences exact ({split_classes} "
          f"split classes); horseshoe output exact with dimension "
          f"bookkeeping")


def test_criterion_07_transfer_pool():
    assert CERT_POOL, "criteria 1-3 must have populated the pool"
    pool = list(CERT_POOL)

    # Gorenstein-world chains give the fixed-module branch substance
    line3 = line_algebra(3, GF2)
    rx = from_presentation(line3, 1, [["x"]], label="R/x")
    res = search(rx, "pd", SearchConfig(max_r=1, max_a=2, max_b=1,
                                        max_n=1, budget=50))
    assert res.found
    pool.append(("line3 R/x pd", res.sequence))
    line2 = line_algebra(2, GF3)
    res2 = search(residue_field(line2), "gdim",
                  SearchConfig(max_r=1, max_a=2, max_b=1, max_n=1,
                               budget=50))
    assert res2.found
    pool.append(("line2/F3 k gdim", res2.sequence))

    certified = 0
    substantive = 0
    gated = 0
    for label, seq in pool:
        alg = seq.base.algebra
        candidates = [("itself", seq.base)]
        if alg.is_gorenstein:
            candidates.append(("ring", free_module(alg, 1)))
        for nlabel, nmod in candidates:
            vanishes, _ = ext_vanishes_through(seq.base, nmod, 10)
            if not vanishes:
                gated += 1
                continue
            rep = check_P_transfer(seq, nmod, window=10)
            assert rep.ok, (label, nlabel,
                            [(c["name"], c["detail"])
                             for c in rep.hypotheses + rep.conclusions])
            certified += 1
            if any(c["name"].startswith("value_at_K")
                   for c in rep.conclusions):
                substantive += 1
    assert substantive >= 1
    print(f"C7 PASS: pool of {len(pool)} chains; {certified} transfer "
          f"checks certified ({substantive} with nontrivial chain "
          f"modules), {gated} gated by nonvanishing Ext")


def test_criterion_08_syzygy_transport_roundtrip():
    alg = line_algebra(3, GF2)
    cfg = SearchConfig(max_r=1, max_a=3, max_b=2, max_n=1, budget=40)
    searched = 0
    for seed in range(20):
        mod = random_module(alg, 3, 3, seed)
        res = search(mod, "pd", cfg)
        if res.found:
            seq = res.sequence
            searched += 1
        else:
            seq = ReducingSequence(mod, [], "gdim")
            assert verify(seq, window=10).ok, seed
        syz_seq = transform_syzygy(seq, window=10)
        assert verify(syz_seq, window=10).ok, seed
        vanishes, _ = ext_vanishes_through(seq.base, free_module(alg, 1),
                                           10)
        assert vanishes, seed  # self-injective ring: always satisfied
        out = transform_cosyzygy(syz_seq, seq.base, window=10)
        assert verify(out, window=10).ok, seed
    print(f"C8 PASS: 20 modules round-tripped through the syzygy "
          f"({searched} searched chains, {20 - searched} trivial chains)")


def test_criterion_09_canonical_module():
    line3 = line_algebra(3, GF2)
    om_line = canonical_module(line3)
    assert is_isomorphic(om_line, free_module(line3, 1)).kind == "yes"
    res = search(om_line, "pd", SearchConfig(max_r=1, max_a=2, max_b=1,
                                             max_n=1, budget=20))
    assert res.found and res.sequence.r == 0

    plane = plane_algebra()
    om = canonical_module(plane)
    assert om.dim == 3
    assert is_isomorphic(om, free_module(plane, 1)).kind == "no"
    assert is_semidualizing(om, 10)
    for target in ("pd", "gdim"):
        out = search(om, target, C3_CONFIG)
        assert not out.found, (target, out.reason)
    print("C9 PASS: canonical module free over the Gorenstein line "
          "(r=0); non-free, semidualizing, and chainless over the plane")


def test_criterion_10_summand_checker():
    plane = plane_algebra()
    line3 = line_algebra(3, GF2)
    line2 = line_algebra(2, GF3)
    cases = [
        ("R over the plane", free_module(plane, 1)),
        ("R over F2[x]/x^3", free_module(line3, 1)),
        ("canonical over F2[x]/x^3", canonical_module(line3)),
        ("canonical over F3[x]/x^2", canonical_module(line2)),
    ]
    labels = []
    for label, mod in cases:
        seq = identity_step_certificate(mod)
        rep = check_t2(mod, seq, window=10)
        assert rep.ok, (label,
                        [(c["name"], c["ok"], c["detail"])
                         for c in rep.hypotheses + rep.conclusions])
        splits = [c for c in rep.conclusions
                  if c["name"].startswith("summand_in_K")]
        assert splits, label
        assert all(c["ok"] and "retraction" in c["detail"]
                   for c in splits), label
        labels.append(label)
    print(f"C10 PASS: split injection exhibited for {', '.join(labels)}")
