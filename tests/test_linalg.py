"""Exact linear algebra: hand oracles plus property-based checks."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redhom.linalg import (
    GF2,
    GF3,
    QQ,
    Field,
    Matrix,
    _gf2_rows,
    _gf2_rref,
    _is_prime,
    _rref_in_place,
    column_space_basis,
    contract,
    nf_columns,
    random_matrix,
)

FIELDS = [GF2, GF3, Field(101), QQ]
P31 = 2**31 - 1


def brute_kernel(field, m):
    """Enumerate the whole null space over a small prime field."""
    p = field.p
    vecs = []
    for cand in product(range(p), repeat=m.cols):
        col = Matrix.column(field, list(cand))
        if (m @ col).is_zero():
            vecs.append(list(cand))
    return vecs


class TestFieldOps:
    def test_prime_field_arithmetic(self):
        f = GF3
        assert f.add(2, 2) == 1
        assert f.mul(2, 2) == 1
        assert f.inv(2) == 2
        assert f.neg(1) == 2

    def test_rational_arithmetic(self):
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
        assert QQ.parse("-1/2") == Fraction(-1, 2)
        assert QQ.format(Fraction(7, 3)) == "7/3"

    def test_parse_format_roundtrip(self):
        for f in FIELDS:
            rng = random.Random(0)
            for _ in range(20):
                x = f.random(rng)
                assert f.parse(f.format(x)) == x

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            Field(6)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF2.inv(0)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


class TestIsPrime:
    def test_matches_trial_division_below_200000(self):
        # a sieve gives trial division's verdicts for every n at once
        bound = 200_000
        sieve = bytearray([1]) * bound
        sieve[:2] = b"\0\0"
        for d in range(2, math.isqrt(bound) + 1):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, bound, d)))
        assert [n for n in range(bound) if _is_prime(n)] == \
            [n for n in range(bound) if sieve[n]]
        assert all(trial_division(n) == bool(sieve[n])
                   for n in range(0, bound, 97))

    @pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321, 15841,
                                   29341, 1373653, 25326001])
    def test_strong_base_2_pseudoprimes_are_composite(self, n):
        assert strong_probable_prime(n, 2) and not trial_division(n)
        assert not _is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 2**31 - 19, 2**31 - 3,
                                   2**31 - 2, 7, 61, 61 * 61, 7 * 61])
    def test_near_the_field_bound_and_at_the_bases(self, n):
        assert _is_prime(n) == trial_division(n)

    def test_largest_accepted_characteristic_is_prime(self):
        assert _is_prime(P31) and Field(P31).p == P31


class TestRref:
    def test_hand_oracle_gf2(self):
        # [[1,1],[1,1]] over F_2 reduces to [[1,1],[0,0]] with pivot col 0
        m = Matrix.from_rows(GF2, [[1, 1], [1, 1]])
        r, piv = m.rref()
        assert r.a.tolist() == [[1, 1], [0, 0]]
        assert piv == (0,)
        assert m.rank() == 1

    def test_hand_oracle_gf3(self):
        m = Matrix.from_rows(GF3, [[2, 1], [1, 1]])
        r, piv = m.rref()
        assert piv == (0, 1)
        assert r.a.tolist() == [[1, 0], [0, 1]]

    def test_singular_mod_three(self):
        # rows are proportional over F_3 even though not over Z
        m = Matrix.from_rows(GF3, [[2, 1], [1, 2]])
        assert m.rank() == 1

    def test_hand_oracle_rationals(self):
        m = Matrix.from_rows(QQ, [[2, 4], [1, 3]])
        r, piv = m.rref()
        assert piv == (0, 1)
        assert r.a.tolist() == [[1, 0], [0, 1]]

    def test_zero_and_empty_shapes(self):
        for f in FIELDS:
            z = Matrix.zeros(f, 3, 2)
            r, piv = z.rref()
            assert piv == ()
            assert r.is_zero()
            e = Matrix.zeros(f, 0, 4)
            assert e.rank() == 0
            assert e.kernel_basis().cols == 4

    def test_rref_idempotent_seeded(self):
        rng = random.Random(7)
        for f in FIELDS:
            for _ in range(15):
                m = random_matrix(f, rng.randrange(1, 6), rng.randrange(1, 6), rng)
                r, piv = m.rref()
                r2, piv2 = r.rref()
                assert piv2 == piv
                assert r2 == r


class TestKernel:
    def test_kernel_matches_enumeration_gf2(self):
        m = Matrix.from_rows(GF2, [[1, 1]])
        k = m.kernel_basis()
        assert k.cols == 1
        span = {tuple((k.scale(c)).a[:, 0].tolist()) for c in range(2)}
        brute = {tuple(v) for v in brute_kernel(GF2, m)}
        assert span == brute == {(0, 0), (1, 1)}

    def test_kernel_matches_enumeration_gf3(self):
        m = Matrix.from_rows(GF3, [[1, 2, 0], [0, 0, 1]])
        k = m.kernel_basis()
        brute = {tuple(v) for v in brute_kernel(GF3, m)}
        spanned = set()
        for c in range(3):
            v = k.scale(c)
            spanned.add(tuple(int(x) for x in v.a[:, 0]))
        assert spanned <= brute
        assert len(brute) == 3 ** k.cols

    def test_unit_at_free_column_form(self):
        rng = random.Random(11)
        for f in FIELDS:
            for _ in range(10):
                m = random_matrix(f, rng.randrange(1, 5), rng.randrange(1, 6), rng)
                _, piv = m.rref()
                free = [j for j in range(m.cols) if j not in piv]
                k = m.kernel_basis()
                assert k.cols == len(free)
                for idx, fc in enumerate(free):
                    for idx2, fc2 in enumerate(free):
                        want = f.one() if idx == idx2 else f.zero()
                        assert k.entry(fc2, idx) == want


def reference_kernel_data(m):
    """The kernel basis entry by entry: a 1 at each free column and the
    negated rref entries at the pivot rows."""
    f = m.field
    r, piv = m.rref()
    free = [j for j in range(m.cols) if j not in piv]
    out = Matrix.zeros(f, m.cols, len(free))
    for k, fc in enumerate(free):
        out.a[fc, k] = f.one()
        for i, pc in enumerate(piv):
            v = r.entry(i, fc)
            if v != 0:
                out.a[pc, k] = f.neg(v)
    return out, free


def low_rank_matrix(f, r, c, rank, rng):
    if rank == 0:
        return Matrix.zeros(f, r, c)
    return random_matrix(f, r, rank, rng) @ random_matrix(f, rank, c, rng)


def full_column_rank_matrix(f, r, c, rng):
    return Matrix.vstack([Matrix.identity(f, c), random_matrix(f, r - c, c, rng)])


KERNEL_FIELDS = [GF2, GF3, Field(P31), QQ]


class TestKernelDataMatchesReference:
    """kernel_data returns exactly what the entry-by-entry loop builds:
    the same dtype, the same values and the same free columns."""

    def assert_same(self, m):
        got, free = m.kernel_data()
        want, want_free = reference_kernel_data(m)
        assert free == want_free
        assert got.a.dtype == want.a.dtype
        assert got.a.shape == want.a.shape == (m.cols, len(free))
        assert (got.a == want.a).all()
        if m.field.p is None:
            assert all(type(x) is Fraction for x in got.a.flat)
        return got

    @pytest.mark.parametrize("rows,cols", [(3, 6), (40, 128)])
    def test_gf2_both_sides_of_packing(self, rows, cols):
        rng = random.Random(rows)
        for rank in (None, rows // 2):
            m = (random_matrix(GF2, rows, cols, rng) if rank is None
                 else low_rank_matrix(GF2, rows, cols, rank, rng))
            self.assert_same(m)

    @pytest.mark.parametrize("f", KERNEL_FIELDS, ids=str)
    def test_random_and_low_rank(self, f):
        rng = random.Random(29)
        for rows, cols, rank in [(5, 9, None), (7, 12, 4), (12, 7, 3), (6, 6, 5)]:
            m = (random_matrix(f, rows, cols, rng) if rank is None
                 else low_rank_matrix(f, rows, cols, rank, rng))
            k = self.assert_same(m)
            assert (m @ k).is_zero()

    @pytest.mark.parametrize("f", KERNEL_FIELDS, ids=str)
    def test_degenerate_shapes(self, f):
        rng = random.Random(31)
        assert self.assert_same(Matrix.zeros(f, 0, 5)).cols == 5
        assert self.assert_same(Matrix.zeros(f, 4, 0)).a.shape == (0, 0)
        assert self.assert_same(Matrix.zeros(f, 0, 0)).a.shape == (0, 0)
        zero = self.assert_same(Matrix.zeros(f, 4, 5))
        assert zero == Matrix.identity(f, 5)
        assert self.assert_same(full_column_rank_matrix(f, 7, 4, rng)).cols == 0


class TestNegation:
    @pytest.mark.parametrize("f", [GF2, GF3, Field(127), Field(P31), QQ], ids=str)
    def test_negation_keeps_dtype_and_operand(self, f):
        m = random_matrix(f, 4, 5, random.Random(37))
        before = m.copy()
        neg = -m
        assert neg.a.dtype == m.a.dtype
        assert m == before
        assert neg.a.tolist() == [[f.neg(x) for x in row] for row in m.a.tolist()]
        assert (neg + m).is_zero()


def reference_rref(f, rows, pivot_cols):
    """Plain Gauss-Jordan on lists of entries with `Field` arithmetic,
    pivots only among the leading `pivot_cols` columns."""
    rows = [list(row) for row in rows]
    pivots = []
    row = 0
    for col in range(pivot_cols):
        if row == len(rows):
            break
        pr = next((i for i in range(row, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[row], rows[pr] = rows[pr], rows[row]
        inv = f.inv(rows[row][col])
        rows[row] = [f.mul(x, inv) for x in rows[row]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != row and c != 0:
                rows[i] = [f.add(x, f.neg(f.mul(c, y)))
                           for x, y in zip(rows[i], rows[row])]
        pivots.append(col)
        row += 1
    return rows, pivots


def assert_rref_and_kernel(m):
    """m.rref() and m.kernel_data() equal what `reference_rref` gives, and
    m.rank() counts its pivots; returns the reference pivots."""
    f = m.field
    ref, ref_piv = reference_rref(f, m.a.tolist(), m.cols)
    r, piv = m.rref()
    assert piv == tuple(ref_piv)
    assert r.a.dtype == f.dtype
    assert r.a.tolist() == ref

    free = [j for j in range(m.cols) if j not in ref_piv]
    want = [[f.zero()] * len(free) for _ in range(m.cols)]
    for k, fc in enumerate(free):
        want[fc][k] = f.one()
        for i, pc in enumerate(ref_piv):
            want[pc][k] = f.neg(ref[i][fc])
    basis, got_free = m.kernel_data()
    assert got_free == free
    assert basis.a.tolist() == want
    assert m.rank() == len(ref_piv)
    return ref_piv


@st.composite
def carried_systems(draw):
    """A matrix A over F_2, F_3, F_{2^31-1} or Q, random, of low rank or
    zero, of 0-8 rows and 0-8 columns (over F_2 sometimes 60-66, so
    [A | B] may cross the 64-column word), and 0-4 targets B, each A x
    (solvable) or random (unsolvable unless A's columns span it)."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    r = draw(st.integers(0, 8))
    c = draw(st.integers(0, 8) | (st.integers(60, 66) if f.p == 2 else st.nothing()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "low rank", "zero"]))
    rank = {"random": None, "low rank": rng.randrange(min(r, c) + 1), "zero": 0}[kind]
    m = random_matrix(f, r, c, rng) if rank is None else low_rank_matrix(f, r, c, rank, rng)
    t = Matrix.zeros(f, r, 0)
    for solvable in draw(st.lists(st.booleans(), max_size=4)):
        t = Matrix.hstack([t, m @ random_matrix(f, c, 1, rng) if solvable
                           else random_matrix(f, r, 1, rng)])
    return m, t


@st.composite
def square_or_not(draw):
    """An n x n matrix over F_2, F_3, F_{2^31-1} or Q, n in 0-7 (over F_2
    sometimes 33, so [A | I] crosses the 64-column word), that is
    invertible (a product of unit lower and upper triangular ones),
    singular (of rank below n), or random; or a random non-square one."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    kind = draw(st.sampled_from(["invertible", "singular", "random", "non-square"]))
    n = draw(st.integers(0, 7) | (st.just(33) if f.p == 2 else st.nothing()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "invertible":
        lower, upper = random_matrix(f, n, n, rng), random_matrix(f, n, n, rng)
        lower.a[np.triu_indices(n)] = upper.a[np.tril_indices(n)] = f.zero()
        eye = Matrix.identity(f, n)
        return (lower + eye) @ (upper + eye)
    if kind == "singular":
        return low_rank_matrix(f, n, n, rng.randrange(n) if n else 0, rng)
    return random_matrix(f, n, n if kind == "random" else draw(
        st.integers(0, 7).filter(lambda c: c != n)), rng)


class TestEliminationMatchesReference:
    """rref and kernel_data agree entry for entry with the plain-Python
    Gauss-Jordan above, on every field, and carried solves agree with it
    in `ok` and on the solvable columns; each runs the field's own rref
    (over GF(2) on bitset rows), which may pivot inside unsolvable
    targets, whose values are meaningless."""

    def assert_same(self, m, t):
        f = m.field
        ref_piv = assert_rref_and_kernel(m)

        joint, _ = reference_rref(f, [a + b for a, b in zip(m.a.tolist(), t.a.tolist())],
                                  m.cols)
        carried = [row[m.cols:] for row in joint]
        want_x = [[f.zero()] * t.cols for _ in range(m.cols)]
        for i, pc in enumerate(ref_piv):
            want_x[pc] = carried[i]
        want_ok = [all(row[j] == 0 for row in carried[len(ref_piv):])
                   for j in range(t.cols)]
        x, ok = m.solve_columns(t)
        assert ok == want_ok
        solvable = [j for j in range(t.cols) if want_ok[j]]
        assert x.a[:, solvable].tolist() == [[row[j] for j in solvable] for row in want_x]

    def cases(self, f, rows, cols, rng):
        for rank in (None, min(rows, cols) // 2):
            m = (random_matrix(f, rows, cols, rng) if rank is None
                 else low_rank_matrix(f, rows, cols, rank, rng))
            t = Matrix.hstack([m @ random_matrix(f, cols, 2, rng),
                               random_matrix(f, rows, 2, rng)])
            yield m, t

    @pytest.mark.parametrize("rows,cols", [(3, 6), (40, 128)])
    def test_gf2_both_sides_of_packing(self, rows, cols):
        for m, t in self.cases(GF2, rows, cols, random.Random(rows)):
            self.assert_same(m, t)

    @pytest.mark.parametrize("f", KERNEL_FIELDS, ids=str)
    def test_fields(self, f):
        rng = random.Random(43)
        for rows, cols in [(5, 9), (9, 5), (7, 7), (1, 4), (4, 1)]:
            for m, t in self.cases(f, rows, cols, rng):
                self.assert_same(m, t)

    @given(carried_systems())
    @settings(deadline=None, derandomize=True, database=None)
    def test_carried_solves_match_reference(self, system):
        self.assert_same(*system)

    @given(square_or_not())
    @settings(deadline=None, derandomize=True, database=None)
    def test_inverse_matches_reference_rref(self, m):
        # A^-1 is the right half of the rref of [A | I] when A's columns
        # are its pivots; a singular or non-square A has none
        f, n = m.field, m.rows
        got = m.inverse()
        if n != m.cols:
            assert got is None
            return
        eye = Matrix.identity(f, n).a.tolist()
        ref, piv = reference_rref(f, [a + b for a, b in zip(m.a.tolist(), eye)], n)
        if piv != list(range(n)):
            assert got is None
            return
        assert got.a.shape == (n, n) and got.a.dtype == f.dtype
        assert got.a.tolist() == [row[n:] for row in ref]


GF2_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65]


@st.composite
def gf2_matrices(draw):
    """0/1 matrices up to 40x90, widths around the byte and word
    boundaries, from under one nonzero per row to dense, sometimes with a
    duplicated row and a zero row."""
    r = draw(st.integers(min_value=0, max_value=40))
    c = draw(st.one_of(st.sampled_from(GF2_WIDTHS),
                       st.integers(min_value=0, max_value=90)))
    per_row = draw(st.sampled_from([0.3, 1.0, 3.0, c / 4, c / 2, 0.9 * c]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = (rng.random((r, c)) < per_row / max(c, 1)).astype(np.int8)
    if r >= 3 and draw(st.booleans()):
        a[0] = a[r - 1]
        a[r // 2] = 0
    return Matrix(GF2, a)


def resolution_like_map(blocks_out, blocks_in, rng, prob=0.03):
    """A sparse 0/1 matrix shaped like a differential of a resolution over
    F_2[x,y]/m^2 in the basis (1, x, y) of each free summand: every 3x3
    block is 0 or multiplication by a nonzero element of m, so only the
    x and y rows of a block and only its first column can be nonzero."""
    a = np.zeros((3 * blocks_out, 3 * blocks_in), dtype=np.int8)
    for i in range(blocks_out):
        for j in range(blocks_in):
            if rng.random() < prob:
                cx, cy = rng.choice([(1, 0), (0, 1), (1, 1)])
                a[3 * i + 1, 3 * j] = cx
                a[3 * i + 2, 3 * j] = cy
    return Matrix(GF2, a)


def bytes_rows(a: np.ndarray) -> list[int]:
    """Each row of a 0/1 array as its packed bytes read as one big-endian
    int, column 0 in the top bit."""
    return [int.from_bytes(np.packbits(row).tobytes(), "big") >> (-len(row) % 8)
            for row in a]


@st.composite
def gf2_views(draw):
    """A 0/1 array of up to 12 rows and 0-130 columns, often at a byte or
    word boundary, that is a view of a larger one: a transpose, a strided
    slice or a reversed strided slice."""
    r = draw(st.integers(min_value=0, max_value=12))
    c = draw(st.one_of(st.sampled_from(GF2_WIDTHS + [127, 128, 129, 130]),
                       st.integers(min_value=0, max_value=130)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    kind = draw(st.sampled_from(["transpose", "strided", "reversed"]))
    if kind == "transpose":
        return (rng.random((c, r)) < density).astype(np.int8).T
    if kind == "strided":
        return (rng.random((2 * r, 3 * c)) < density).astype(np.int8)[::2, ::3]
    return (rng.random((r, 2 * c)) < density).astype(np.int8)[::-1, ::-2]


class TestGF2Bitset:
    """The GF(2) rref, kernel and rank on Python-int rows agree with the
    plain Gauss-Jordan reference at every shape and density."""

    @given(gf2_views())
    @settings(deadline=None, derandomize=True, database=None)
    def test_views_match_bytes_reference(self, a):
        # rows of one machine word are read as words, wider ones as bytes;
        # the leading 63, 64 and 65 columns are views across that boundary
        for c in {a.shape[1], 63, 64, 65}:
            if c <= a.shape[1]:
                view = a[:, :c]
                assert _gf2_rows(view) == bytes_rows(view)
                out, piv = _gf2_rref(view)
                want, want_piv = _rref_in_place(view.astype(np.int64), GF2)
                assert piv == want_piv
                assert out.dtype == np.int8
                assert out.tolist() == want.tolist()
                assert _gf2_rows(out) == bytes_rows(out)

    @given(gf2_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, m):
        assert_rref_and_kernel(m)

    @pytest.mark.parametrize("c", GF2_WIDTHS)
    def test_widths_at_byte_and_word_boundaries(self, c):
        rng = np.random.default_rng(c)
        for r in (0, 1, 5, 2 * c + 1):
            for per_row in (0.5, 2.0, c / 2):
                a = (rng.random((r, c)) < per_row / max(c, 1)).astype(np.int8)
                assert_rref_and_kernel(Matrix(GF2, a))
        assert_rref_and_kernel(Matrix(GF2, np.ones((3, c), dtype=np.int8)))
        assert_rref_and_kernel(Matrix.identity(GF2, c))

    def test_sparse_resolution_map(self):
        m = resolution_like_map(100, 200, random.Random(53))
        assert m.a.shape == (300, 600)
        assert 0 < m.a.mean() < 0.01
        piv = assert_rref_and_kernel(m)
        assert 50 < len(piv) < 200

    @pytest.mark.parametrize("f", KERNEL_FIELDS, ids=str)
    def test_rank_counts_rref_pivots(self, f):
        rng = random.Random(47)
        for rows, cols, rank in [(0, 3, None), (3, 0, None), (5, 9, None),
                                 (9, 5, None), (8, 8, 0), (9, 12, 4),
                                 (12, 9, 3), (6, 6, 6)]:
            m = (random_matrix(f, rows, cols, rng) if rank is None
                 else low_rank_matrix(f, rows, cols, rank, rng))
            assert m.rank() == len(m.rref()[1])


@st.composite
def qq_arrays(draw):
    """A rational array of 0-12 rows and 0-12 columns, so zero-sized,
    wide and tall ones too: zero, sparse, dense, or of low rank, whose
    rows are dependent."""
    r, c = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "sparse", "dense", "low rank"]))
    if kind == "low rank":
        return low_rank_matrix(QQ, r, c, rng.randrange(min(r, c) + 1), rng).a
    a, full = QQ.zeros((r, c)), random_matrix(QQ, r, c, rng).a
    keep = {"zero": 0, "sparse": 0.2, "dense": 1}[kind]
    for i, j in product(range(r), range(c)):
        if rng.random() < keep:
            a[i, j] = full[i, j]
    return a


class TestQSparseRref:
    """Q's uncarried rref runs `sparse_rref` on the rows as dicts; it and
    rank agree with the general loop `_rref_in_place`, and leave their
    input as it was."""

    @given(qq_arrays())
    @settings(deadline=None, derandomize=True, database=None)
    def test_rref_and_rank_match_the_general_loop(self, a):
        before = a.tolist()
        want, want_piv = _rref_in_place(a.copy(), QQ)
        out, piv = QQ.rref(a)
        assert piv == want_piv
        assert out.shape == a.shape and out.dtype == object
        assert out.tolist() == want.tolist()
        assert Matrix(QQ, a).rank() == QQ.rank(a) == len(want_piv)
        assert a.tolist() == before


STORAGE = [(GF2, np.int8), (GF3, np.int8), (Field(127), np.int8),
           (Field(131), np.int64), (Field(P31), np.int64), (QQ, object)]
# The most terms whose sums of products of entries p - 1 fit in int8:
# terms * (p - 1)^2 <= 127.
STORAGE_BOUNDS = [(2, 127), (3, 31), (5, 7), (7, 3), (11, 1)]


class TestStorage:
    """Every Matrix operation returns canonical entries in the field's
    storage dtype: int8 up to p = 127, int64 above, Fractions over Q."""

    @pytest.mark.parametrize("f,dtype", STORAGE, ids=[str(f) for f, _ in STORAGE])
    def test_storage_dtype(self, f, dtype):
        rng = random.Random(41)
        m = random_matrix(f, 5, 7, rng)
        n = random_matrix(f, 5, 7, rng)
        results = {
            "from_rows": Matrix.from_rows(f, [[1, -2, 3], [0, 5, -1]]),
            "zeros": Matrix.zeros(f, 2, 3),
            "identity": Matrix.identity(f, 3),
            "add": m + n,
            "sub": m - n,
            "scale": m.scale(-3),
            "rref": m.rref()[0],
            "kernel_basis": m.kernel_basis(),
        }
        assert f.dtype == dtype
        for name, x in results.items():
            assert x.a.dtype == dtype, name
            if dtype is object:
                assert all(type(v) is Fraction for v in x.a.flat), name
            else:
                assert ((x.a >= 0) & (x.a < f.p)).all(), name
        assert results["sub"] + n == m
        assert results["identity"].a.tolist() == [
            [f.one() if i == j else f.zero() for j in range(3)] for i in range(3)]

    @pytest.mark.parametrize("p,bound", STORAGE_BOUNDS)
    def test_sums_in_storage_dtype_up_to_the_bound(self, p, bound):
        f = Field(p)
        for terms in range(bound + 3):
            top = f.zeros((2, terms)) + (p - 1)
            want = f.dtype if terms <= bound else np.dtype(np.int64)
            assert f.sum_dtype(terms, top, top.T) == want, terms

    def test_taken_rows_and_columns_are_copies(self):
        m = random_matrix(GF3, 4, 5, random.Random(3))
        before = m.copy()
        for taken in (m.take_cols([0, 2]), m.take_rows([1, 3]),
                      m.take_cols(range(5)), m.take_rows([])):
            taken.a[...] = 2 - taken.a
            assert m == before


class TestSolve:
    def test_solve_hits_and_misses(self):
        # x-column solvable, (0,1) target not in the span
        m = Matrix.from_rows(GF2, [[1, 0], [0, 0]])
        t = Matrix.from_rows(GF2, [[1, 0], [0, 1]])
        x, ok = m.solve_columns(t)
        assert ok == [True, False]
        assert (m @ x.take_cols([0])) == t.take_cols([0])
        assert m.solve(t.take_cols([1])) is None

    def test_augmented_pivot_does_not_corrupt(self):
        # the second target sits outside the span, and the rref of [A | T]
        # takes a pivot inside it: that pivot must not change the first,
        # solvable target's solution
        m = Matrix.from_rows(GF3, [[1, 0], [0, 0], [0, 0]])
        t = Matrix.from_rows(GF3, [[2, 0], [0, 1], [0, 2]])
        x, ok = m.solve_columns(t)
        assert ok == [True, False]
        assert (m @ x.take_cols([0])).a.tolist() == [[2], [0], [0]]

    def test_inverse(self):
        m = Matrix.from_rows(GF3, [[1, 1], [0, 1]])
        inv = m.inverse()
        assert (m @ inv) == Matrix.identity(GF3, 2)
        assert Matrix.from_rows(GF3, [[1, 1], [1, 1]]).inverse() is None
        assert Matrix.from_rows(GF3, [[1, 1]]).inverse() is None

    @pytest.mark.parametrize("f", [GF2, Field(P31), QQ], ids=str)
    def test_products_and_equality_across_fields_and_shapes(self, f):
        """int8, int64 and object storage: `@` across fields is refused,
        np.dot refuses mismatched shapes by itself, and `==` is False
        against another field or shape and not defined for a non-matrix."""
        eye = Matrix.identity(f, 2)
        other = GF3 if f.p != 3 else GF2
        with pytest.raises(ValueError, match="field mismatch"):
            eye @ Matrix.identity(other, 2)
        for a, b in ((2, 3), (0, 1), (3, 0)):
            with pytest.raises(ValueError):
                Matrix.zeros(f, 2, a) @ Matrix.zeros(f, b, 2)
        assert eye == Matrix.identity(f, 2)
        assert eye != Matrix.identity(other, 2)
        assert eye != Matrix.identity(f, 3)
        assert eye.__eq__(eye.a) is NotImplemented and eye != 1

    def test_rational_solve_exact(self):
        m = Matrix.from_rows(QQ, [[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
        t = Matrix.column(QQ, [1, 1])
        x = m.solve(t)
        assert (m @ x) == t
        assert x.entry(1, 0) == Fraction(3, 2)


class TestGF2PackedPath:
    def test_packed_agrees_with_generic(self):
        # the bitset rref against the general loop on the same input
        rng = random.Random(19)
        rows, cols = 80, 70
        m = random_matrix(GF2, rows, cols, rng)
        r_bits, piv_bits = m.rref()
        from redhom.linalg import _rref_in_place

        a64, piv_gen = _rref_in_place(m.a.astype(np.int64).copy(), GF2)
        assert list(piv_bits) == piv_gen
        assert r_bits.a.tolist() == [[int(x) for x in row] for row in a64]

    def test_packed_solve_roundtrip(self):
        rng = random.Random(23)
        a = random_matrix(GF2, 64, 64, rng)
        x = random_matrix(GF2, 64, 4, rng)
        t = a @ x
        got, ok = a.solve_columns(t)
        assert all(ok)
        assert (a @ got) == t


class TestHelpers:
    def test_nf_columns_kills_row_space(self):
        m = Matrix.from_rows(GF3, [[1, 0, 2], [0, 1, 1]])
        r, piv = m.rref()
        v = Matrix.column(GF3, [1, 1, 0])
        nf = nf_columns(r, piv, v)
        # pivot coordinates are cleared
        assert nf.entry(0, 0) == 0
        assert nf.entry(1, 0) == 0

    def test_column_space_basis_spans(self):
        m = Matrix.from_rows(GF2, [[1, 1, 0], [1, 1, 1]])
        b = column_space_basis(m)
        assert b.rank() == m.transpose().rank() == 2

    def test_kron_shape_and_values(self):
        a = Matrix.from_rows(GF3, [[1, 2]])
        b = Matrix.from_rows(GF3, [[0, 1], [1, 0]])
        k = Matrix(GF3, contract(GF3, "ij,kl->ikjl", a.a, b.a).reshape(2, 4))
        assert k.rows == 2 and k.cols == 4
        assert k.a.tolist() == [[0, 1, 0, 2], [1, 0, 2, 0]]

    def test_block_diag(self):
        a = Matrix.identity(GF2, 2)
        b = Matrix.from_rows(GF2, [[1]])
        d = Matrix.block_diag(GF2, [a, b])
        assert d.a.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_str_rows_roundtrip(self):
        for f in FIELDS:
            rng = random.Random(5)
            m = random_matrix(f, 3, 3, rng)
            again = Matrix.from_str_rows(f, m.to_str_rows())
            assert again == m


@st.composite
def field_and_matrix(draw):
    f = draw(st.sampled_from([GF2, GF3, Field(P31), QQ]))
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=5))
    if f.p is not None:
        rows = draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=f.p - 1),
                     min_size=c, max_size=c),
            min_size=r, max_size=r))
    else:
        rows = draw(st.lists(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                     min_size=c, max_size=c),
            min_size=r, max_size=r))
    return f, Matrix.from_rows(f, rows)


class TestProperties:
    @given(field_and_matrix())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, fm):
        _, m = fm
        assert m.rank() + m.kernel_basis().cols == m.cols

    @given(field_and_matrix())
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_killed(self, fm):
        _, m = fm
        k = m.kernel_basis()
        if k.cols:
            assert (m @ k).is_zero()

    @given(field_and_matrix())
    @settings(max_examples=40, deadline=None)
    def test_solve_consistency(self, fm):
        f, m = fm
        rng = random.Random(42)
        x = random_matrix(f, m.cols, 2, rng)
        t = m @ x
        got, ok = m.solve_columns(t)
        assert all(ok)
        assert (m @ got) == t

    @given(field_and_matrix())
    @settings(max_examples=40, deadline=None)
    def test_rref_row_space_preserved(self, fm):
        _, m = fm
        r, _ = m.rref()
        joint = Matrix.vstack([m, r])
        assert joint.rank() == m.rank() == r.rank()
