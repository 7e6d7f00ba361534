"""Exact isomorphism: the top-algebra radical, the radical form, verdicts
against known summand multiplicities, and the one-step free split."""

import itertools
import random

import numpy as np
import pytest

from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import canonical_module
from redhom.linalg import Field, Matrix, algebra_radical
from redhom.modules import (
    Module,
    _hom_tops,
    _top_basis,
    direct_sum,
    from_presentation,
    is_isomorphic,
    radical_forms,
    regular_module,
    residue_field,
    split_free_summands,
)

# Indecomposables over k[x,y]/m^2, each with End(X)/J(End X) = k.  By
# dimension, radical and socle, R + w and X + Y + Z agree, and so do
# X, Y and Z, so swaps among them get past the cheap refusals.
PARTS = ("k", "X", "Y", "Z", "w", "R")


def plane_over(p):
    return build_algebra(Field(p), ["x", "y"], [], 2)


def family(alg):
    return {"k": residue_field(alg),
            "X": from_presentation(alg, 1, [["x"]]),
            "Y": from_presentation(alg, 1, [["y"]]),
            "Z": from_presentation(alg, 1, [["x+y"]]),
            "w": canonical_module(alg),
            "R": regular_module(alg)}


def in_random_basis(mod, rng):
    """The module conjugated by a random unimodular change of basis: unit
    triangular factors keep rational entries integral and small."""
    fld, n = mod.algebra.field, mod.dim
    lower, upper = ([[int(i == j) if i <= j else rng.randrange(-1, 2)
                      for j in range(n)] for i in range(n)] for _ in range(2))
    p = Matrix.from_rows(fld, lower) @ Matrix.from_rows(fld, upper).transpose()
    return Module(mod.algebra, n,
                  [p.inverse() @ a @ p for a in mod.var_actions])


def build(fam, mult, rng):
    parts = [fam[name] for name, m in zip(PARTS, mult) for _ in range(m)]
    rng.shuffle(parts)
    return in_random_basis(direct_sum(parts), rng)


def top_algebra(mod):
    """Basis of the image of End(mod) in the endomorphisms of its top."""
    return _top_basis(mod.algebra.field, _hom_tops(mod, mod)[1])


def elements(cols, n):
    """Every element of the span of the columns, as n x n int64 arrays."""
    p = cols.field.p
    gens = cols.a.T.reshape(-1, n, n).astype(np.int64)
    assert p ** len(gens) <= 2**12, "too many elements to enumerate"
    coeffs = np.array(list(itertools.product(range(p), repeat=len(gens))),
                      dtype=np.int64).reshape(p ** len(gens), len(gens))
    return np.einsum("ck,kab->cab", coeffs, gens) % p


def brute_radical(basis, n):
    """{x in A : xy is nilpotent for all y in A}, by enumerating A."""
    p = basis.field.p
    els = elements(basis, n)
    alive = np.ones(len(els), dtype=bool)
    for lo in range(0, len(els), 64):
        z = np.einsum("xab,ybc->xyac", els[alive], els[lo:lo + 64]) % p
        w = z
        for _ in range(n - 1):
            w = np.matmul(w, z) % p
        alive[alive] = ~w.reshape(len(w), -1).any(axis=1)
    return {x.tobytes() for x in els[alive]}


def pencil(alg):
    """Top k^2 onto socle k^2, x as the identity and y as the companion
    matrix of t^2 + t + 1: End is local with residue field F_4."""
    fld = alg.field
    x = Matrix.zeros(fld, 4, 4)
    y = Matrix.zeros(fld, 4, 4)
    x.a[2:, :2] = np.eye(2, dtype=x.a.dtype)
    y.a[2:, :2] = [[0, 1], [1, 1]]
    return Module(alg, 4, [x, y])


def radical_cases():
    """Top algebras of at most 2^12 elements, so enumeration stays cheap."""
    for p in (2, 3):
        alg = plane_over(p)
        fam = family(alg)
        k, x, w = fam["k"], fam["X"], fam["w"]
        if p == 2:
            yield p, "X^2+k^2", direct_sum([x, x, k, k])
        yield p, "w", w
        yield p, "w^2", direct_sum([w, w])
        yield p, "w+k", direct_sum([w, k])
        yield p, "X+k", direct_sum([x, k])
    yield 2, "pencil", pencil(plane_over(2))


class TestAlgebraRadical:
    @pytest.mark.parametrize("p, name, mod",
                             [pytest.param(*c, id=f"F{c[0]}-{c[1]}")
                              for c in radical_cases()])
    def test_matches_brute_force(self, p, name, mod):
        g = mod.gens_count()
        basis = top_algebra(mod)
        rad = algebra_radical(basis, g)
        assert rad.rank() == rad.cols
        got = {x.tobytes() for x in elements(rad, g)}
        assert got == brute_radical(basis, g)

    def test_scalars_need_the_level_above_dickson(self):
        # w over F_2 has a two-dimensional top on which End(w) acts by
        # scalars: Tr(1) = 2 = 0, so the trace form alone calls 1 radical
        w = canonical_module(plane_over(2))
        basis = top_algebra(w)
        assert basis.cols == 1
        assert algebra_radical(basis, 2).cols == 0

    def test_rational_trace_form(self):
        alg = plane_over(None)
        fam = family(alg)
        mod = direct_sum([fam["X"], fam["X"], fam["k"], fam["w"]])
        basis = top_algebra(mod)
        # A/J(A) = M_2(k) x k x k, one factor each from X^2, k and w
        assert basis.cols - algebra_radical(basis, mod.gens_count()).cols == 6


def mults(rng):
    """A random multiplicity vector over PARTS and one partner vector:
    itself, one X swapped for Y, or R + w traded for X + Y + Z."""
    m = [rng.randrange(2) for _ in PARTS]
    m[PARTS.index("X")] += 1
    choice = rng.randrange(3)
    if choice == 2:
        for name in ("R", "w"):
            m[PARTS.index(name)] = 1
    n = list(m)
    if choice == 1:
        n[PARTS.index("X")] -= 1
        n[PARTS.index("Y")] += 1
    elif choice == 2:
        for name in PARTS[1:]:
            n[PARTS.index(name)] += -1 if name in "Rw" else 1
    return m, n


# Exact elimination over Q grows its entries fast with the dimension, so
# the rational cases stay at dimension 6 or below.
Q_PAIRS = [([1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0]),
           ([0, 1, 1, 0, 0, 0], [0, 1, 1, 0, 0, 0]),
           ([0, 0, 0, 0, 1, 1], [0, 1, 1, 1, 0, 0])]


class TestVerdicts:
    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1, None],
                             ids=["F2", "F3", "Fbig", "Q"])
    def test_multiplicities_decide(self, p):
        alg = plane_over(p)
        fam = family(alg)
        rng = random.Random(p or 0)
        pairs = [mults(rng) for _ in range(4)] if p else Q_PAIRS
        for trial, (m, n) in enumerate(pairs):
            a, b = build(fam, m, rng), build(fam, n, rng)
            verdict = is_isomorphic(a, b, seed=trial)
            assert verdict.kind == ("yes" if m == n else "no"), (m, n)
            if verdict:
                verdict.witness.check_linear()
                assert verdict.witness.is_isomorphism()
            if a.gens_count() == b.gens_count():
                dot = sum(i * j for i, j in zip(m, n))
                assert radical_forms(a, b) == (
                    sum(i * i for i in m), sum(j * j for j in n), dot)
            split = split_free_summands(a)
            assert split.rank == m[PARTS.index("R")]
            assert split.remainder.dim == a.dim - split.rank * alg.dim
            split.iso.check_linear()
            assert split.iso.is_isomorphism()

    def test_one_answer_across_seeds(self):
        alg = plane_over(2)
        fam = family(alg)
        rng = random.Random(4)
        x4w3 = direct_sum([fam["X"]] * 4 + [fam["w"]] * 3)
        swapped = direct_sum([fam["X"]] * 3 + [fam["Y"]] + [fam["w"]] * 3)
        a, same, other = (in_random_basis(m, rng)
                          for m in (x4w3, x4w3, swapped))
        for seed in range(5):
            verdict = is_isomorphic(a, same, seed=seed)
            assert verdict.kind == "yes"
            assert verdict.witness.is_isomorphism()
            assert is_isomorphic(a, other, seed=seed).kind == "no"

    def test_rational_pair_sampling_could_not_refuse(self):
        alg = plane_over(None)
        fam = family(alg)
        rng = random.Random(0)
        a = in_random_basis(direct_sum([fam["X"], fam["k"]]), rng)
        b = in_random_basis(direct_sum([fam["Y"], fam["k"]]), rng)
        verdict = is_isomorphic(a, b)
        assert verdict.kind == "no"
        assert "radical forms" in verdict.reason

    def test_refused_by_ring_and_by_socle(self):
        """Modules over two presentations are refused before their
        dimensions are read.  Over F_2[x,y]/m^2 the canonical module and a
        random cokernel agree in dimension (3) and radical dimension (1),
        and their socles (1 and 2) refuse them."""
        alg = plane_over(2)
        line = build_algebra(Field(2), ["x"], [], 2)
        verdict = is_isomorphic(residue_field(alg), residue_field(line))
        assert (verdict.kind, verdict.reason) == ("no", "different algebras")
        w, m = canonical_module(alg), random_module(alg, 2, 3, 0)
        assert (w.dim, w.radical_dim()) == (m.dim, m.radical_dim()) == (3, 1)
        verdict = is_isomorphic(w, m)
        assert (verdict.kind, verdict.reason) == ("no", "socle dimensions 1 != 2")

    def test_residue_field_f4(self):
        mod = pencil(plane_over(2))
        assert radical_forms(mod, mod) == (2, 2, 2)
        double = direct_sum([mod, mod])
        assert radical_forms(mod, double) == (2, 8, 4)


class TestFreeSplit:
    def test_free_part_of_a_sum_in_a_random_basis(self):
        alg = plane_over(3)
        fam = family(alg)
        rng = random.Random(2)
        mod = build(fam, [1, 1, 0, 0, 1, 3], rng)
        split = split_free_summands(mod)
        assert split.rank == 3
        assert is_isomorphic(split.remainder,
                             direct_sum([fam["k"], fam["X"], fam["w"]])).kind == "yes"
        split.iso.check_linear()
        assert split.iso.is_isomorphism()
