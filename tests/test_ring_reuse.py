"""A ring's structure is built once per presentation and process; every
`build_algebra` call still returns a new `Algebra`, with the caller's field
and its own `_table`, over read-only shared arrays and the immutable
sparse layouts and monomial steps its builds fill on first use.  Its
refusals hold for a presentation built earlier, and predict at least what
a cold build takes, as the Hom system's does for its build."""

import json
import random
import re
import tracemalloc
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redhom import algebra, resolution
from redhom.algebra import AlgebraError, build_algebra, structure
from redhom.corpus import random_module
from redhom.linalg import Field, Matrix
from redhom.modules import hom_space_matrix, power_module
from redhom.reducing import load_certificate

from test_algebra import random_presentation

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
PRIMES = (2, 3, 2**31 - 1, None)


@st.composite
def presentations(draw):
    """(p, variables, relations, N): a random presentation over F_2, F_3,
    F_{2^31-1} or Q, with its relations or with none."""
    p = draw(st.sampled_from(PRIMES))
    nvars, nilp = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    nilp = nilp if p else min(nilp, 3)
    names, rels = random_presentation(Field(p), nvars, nilp,
                                      random.Random(draw(st.integers(0, 10**6))))
    return p, names, rels if draw(st.booleans()) else [], nilp


def same(a, b) -> bool:
    """Equal values: arrays and matrices entry by entry, with their dtype,
    and mappings and tuples item by item."""
    if isinstance(a, Matrix):
        return isinstance(b, Matrix) and a.field == b.field and same(a.a, b.a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())
    if isinstance(a, Mapping):
        return type(a) is type(b) and a.keys() == b.keys() \
            and all(same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) \
            and all(map(same, a, b))
    return type(a) is type(b) and a == b


def built(p, names, rels, nilp):
    return build_algebra(Field(p), list(names), list(rels), nilp)


def layouts(alg) -> dict:
    """Every sparse layout and the monomial steps of `alg`, by name."""
    return {"columns": structure(alg, "columns"),
            **{("left", v): structure(alg, "left", v) for v in range(alg.nvars)},
            "steps": alg.monomial_steps}


def cold_layouts(alg) -> dict:
    """`layouts(alg)` read off its own `mult`, `var_stack` and `basis_mons`
    by loops over their entries, as lists."""
    d, mult = alg.dim, alg.mult.tolist()
    out = {"columns": {}}
    for b, a, t in np.ndindex(d, d, d):
        if c := mult[t][a][b]:
            out["columns"].setdefault(b, []).append(((a, t), c))
    for v, act in enumerate(alg.var_stack.tolist()):
        out["left", v] = {}
        for b, a in np.ndindex(d, d):
            if c := act[a][b]:
                out["left", v].setdefault(b, []).append(((a,), c))
    steps = {}  # b_t = x_v b_s, v the first variable of b_t
    for t, mon in enumerate(alg.basis_mons[1:], 1):
        v = next(i for i, e in enumerate(mon) if e)
        s = alg.basis_mons.index(mon[:v] + (mon[v] - 1,) + mon[v + 1:])
        steps.setdefault((sum(mon), v), []).append((t, s))
    out["steps"] = [(v, [t for t, _ in ts], [s for _, s in ts])
                    for (_, v), ts in sorted(steps.items())]
    return out


def as_lists(kept: dict) -> dict:
    """`layouts(alg)` with its mappings, tuples and arrays as dicts and
    lists, to compare with `cold_layouts`."""
    out = {k: {g: list(prods) for g, prods in m.items()}
           for k, m in kept.items() if k != "steps"}
    out["steps"] = [(v, t.tolist(), s.tolist()) for v, t, s in kept["steps"]]
    return out


@settings(deadline=None, derandomize=True, database=None)
@given(presentations())
def test_a_hit_equals_a_cold_build(pres):
    """Field by field, a build that reuses the kept structure equals a
    cold build after it is cleared, and carries the field it was given."""
    built(*pres)
    hits = algebra._structure.cache_info().hits
    fld = Field(pres[0])
    hit = build_algebra(fld, list(pres[1]), list(pres[2]), pres[3])
    assert algebra._structure.cache_info().hits == hits + 1
    layouts(hit)
    algebra._structure.cache_clear()
    cold = built(*pres)
    layouts(cold)
    assert cold.mult.base is not hit.mult.base
    assert cold._layouts is not hit._layouts and len(hit._layouts) == hit.nvars + 2
    assert set(vars(hit)) == set(vars(cold))
    for name in vars(cold):
        assert same(getattr(hit, name), getattr(cold, name)), name
    assert hit.field is fld and hit.socle_basis.field is fld \
        and hit._nf_table.field is fld


@settings(deadline=None, derandomize=True, database=None)
@given(presentations())
def test_builds_share_no_table_and_no_list(pres):
    """Two builds of one presentation share no `_table` and no list: what
    one builds or changes there the other does not see.  They share the
    sparse layouts and monomial steps, which refuse changes."""
    a, b = built(*pres), built(*pres)
    assert a is not b and a._table is not b._table
    for name in ("var_names", "relation_srcs", "basis_mons"):
        assert getattr(a, name) is not getattr(b, name), name
    structure(a, "columns")
    a.free_varmat(2)
    assert b._table == {}
    assert structure(b, "columns") is structure(a, "columns")
    assert b.monomial_steps is a.monomial_steps
    with pytest.raises(TypeError):
        structure(b, "columns")[0] = ()
    a.var_names.append("w")
    a.basis_mons.clear()
    assert b.var_names == list(pres[1]) and len(b.basis_mons) == b.dim


@settings(deadline=None, derandomize=True, database=None)
@given(presentations())
def test_shared_arrays_are_read_only(pres):
    """Every array a build shares with later builds refuses writes, and so
    does the monomial index."""
    alg = built(*pres)
    for arr in (alg.mult, alg.var_stack, alg.socle_basis.a, alg._nf_table.a):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    with pytest.raises(TypeError):
        alg._mon_index[(0,) * alg.nvars] = 0


@settings(deadline=None, derandomize=True, database=None)
@given(presentations())
def test_layouts_are_kept_per_presentation(pres):
    """Every build's sparse layouts and monomial steps are those read off
    its own tables; a second build of the presentation gets the same
    objects, and not the first's `_table`; and none of them can be
    changed: mappings refuse items, tuples have no `append`, arrays
    refuse writes."""
    a = built(*pres)
    kept = layouts(a)
    assert as_lists(kept) == cold_layouts(a)
    b = built(*pres)
    assert b._table is not a._table
    again = layouts(b)
    assert as_lists(again) == cold_layouts(b)
    assert all(again[k] is kept[k] for k in kept)
    for k, m in kept.items():
        if k == "steps":
            assert type(m) is tuple
            for _, t, s in m:
                for arr in (t, s):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = arr[0]
            continue
        with pytest.raises(TypeError):
            m[0] = ()
        for prods in m.values():
            assert type(prods) is tuple
            with pytest.raises(AttributeError):
                prods.append(prods[0])


def refusal(build) -> str:
    with pytest.raises(AlgebraError) as exc:
        build()
    return str(exc.value)


@pytest.mark.parametrize("p, names, rels, nilp", [
    (2, ["x", "y"], [], 3),
    (3, ["x", "y"], ["x^2 - y^2", "x*y"], 3),
    (2**31 - 1, ["x", "y", "z"], ["x*y + z^2"], 3),
    (None, ["x", "y"], ["x^2 - y^3/2"], 4),
], ids=["gf2", "gf3-relations", "gfp-relation", "qq-relation"])
def test_a_built_presentation_is_still_refused(monkeypatch, p, names, rels, nilp):
    """Under a lowered MAX_STEP_BYTES a presentation built before is
    refused with the cold build's message, at the normal-form kernel (a
    cap of 0) and at the product table (a cap of the kernel's bytes)."""
    build = lambda: built(p, names, rels, nilp)  # noqa: E731
    cap = resolution.MAX_STEP_BYTES
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 0)
    algebra._structure.cache_clear()
    kernel = refusal(build)
    kernel_bytes = int(re.search(r"would allocate (\d+) bytes", kernel)[1])
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", kernel_bytes)
    algebra._structure.cache_clear()
    table = refusal(build)
    assert "normal-form kernel" in kernel and "product table" in table
    for lowered, message in ((0, kernel), (kernel_bytes, table)):
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", cap)
        build()
        monkeypatch.setattr(resolution, "MAX_STEP_BYTES", lowered)
        assert refusal(build) == message


def test_a_built_coefficient_is_still_refused(monkeypatch):
    """So is a relation whose coefficient is longer than the parser's cap
    of MAX_STEP_BYTES / ENTRY_BYTES bits."""
    build = lambda: built(None, ["x", "y"], ["3^3000*x^2 - y^2"], 3)  # noqa: E731
    build()
    monkeypatch.setattr(resolution, "MAX_STEP_BYTES", 10**6)
    assert "bits is over MAX_STEP_BYTES" in refusal(build)


def test_two_certificate_loads_have_separate_tables(tmp_path):
    """A certificate read without a workspace builds its ring through
    `build_algebra`: two loads of one file get two algebras and two
    tables."""
    cert = json.loads((EXAMPLES / "plane.json").read_text())["certificates"]["cert_k"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    a, b = load_certificate(path).base.algebra, load_certificate(path).base.algebra
    assert a is not b and a._table is not b._table


R3 = ["x^2 - y*z", "x*y*z + y^3", "z^2 - x^3"]
R6 = R3 + ["x*y - z^3", "y^2 - x*z", "x*z^2"]


@pytest.mark.parametrize("nilp", [6, 7])
@pytest.mark.parametrize("rels", [[], R3, R6], ids=["0", "3", "6"])
@pytest.mark.parametrize("p", PRIMES, ids=["gf2", "gf3", "gfp", "qq"])
def test_the_refusals_predict_the_build_peak(monkeypatch, p, rels, nilp):
    """A cold build of F[x,y,z] / (relations) + m^N takes at most the
    larger of the bytes its two refusals predict, in tracemalloc's peak.
    Below N = 6 its Python objects (free-listed tuples among them, some
    100 KB) outweigh its arrays, which are what the refusals count."""
    predicted = []
    check = resolution._check_dense_size

    def spy(what, entries, field, how="", error=resolution.ResolutionError):
        predicted.append(entries * field.wide.itemsize)
        check(what, entries, field, how, error)
    monkeypatch.setattr(resolution, "_check_dense_size", spy)
    algebra._structure.cache_clear()
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        build_algebra(Field(p), ["x", "y", "z"], rels, nilp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(predicted) == 2 and peak <= max(predicted)


@pytest.mark.parametrize("p", PRIMES, ids=["gf2", "gf3", "gfp", "qq"])
def test_the_hom_refusal_predicts_the_build_peak(monkeypatch, p):
    """End(M^3), for M = random_module(alg, 2, 2, 0) over F[x,y]/m^3, a
    1458 x 729 system, takes at most the bytes its refusal predicts, in
    tracemalloc's peak: its arrays, some 1 MB each, dominate."""
    alg = build_algebra(Field(p), ["x", "y"], [], 3)
    mod = power_module(random_module(alg, 2, 2, 0), 3)
    mod.var_stack
    predicted = []
    check = resolution._check_dense_size

    def spy(what, entries, field, how="", error=resolution.ResolutionError):
        predicted.append(entries * field.wide.itemsize)
        check(what, entries, field, how, error)
    monkeypatch.setattr(resolution, "_check_dense_size", spy)
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        assert hom_space_matrix(mod, mod).cols == 135
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(predicted) == 1 and peak <= predicted[0]
