"""Exact linear algebra over prime fields and the rationals: dense
matrices, and sparse elimination for resolution steps.

All arithmetic is exact: prime-field entries are canonical integers in
[0, p), rational entries are `fractions.Fraction` values.  No floating
point anywhere.

Storage contract: `Field` is the only code that knows which field it is
over.  Its constructor chooses every per-field operation once (listed in
its docstring): how entries are stored (int8 for p <= 127, int64 for
larger p, object arrays of Fractions over Q), the scalar operations, the
parser's coefficient normaliser, the dense product, the `rref`
(`_sparse_dense_rref` over Q) and `rank`, and the rounds of
`algebra_radical`.  `Matrix`, the elimination loops, the radical and the
polynomial parser are written once against these and never ask which
field they are over.

Products come in two kinds.  Dense ones (`contract`, `Matrix @`) go
through the field's `product`: over F_p in the storage dtype while no
sum can pass its maximum (int8: 127 terms over F_2, 31 over F_3), then
int64 while none can reach 2**63, then Python ints, with one reduction
mod p at the end; over Q on integer multiples of the operands.  Free
modules take this path too, through their block-diagonal actions.
Sparse columns, such as resolution steps, meet a fixed coefficient
array, such as the structure constants, entry by entry: `by_gather`
lists its nonzeros by the index they read.

Over F_2 `rref` and `rank` run on rows held as Python ints (bit c-1-j is
column j; one XOR is one row operation) with an echelon basis keyed by
leading bit, so the work follows the nonzeros; `rank` skips the
back-substitution.  Rows of at most 64 columns become ints by one
product with the column bits and come back by one shift-and-mask; wider
rows go through packed bytes.  Over Q `rref` runs `sparse_rref` on the
rows as dicts.  The rref is unique, so the results equal those of the
general loop `_rref_in_place`, which the other fields run.
Carried solves (`solve_columns`, `solve`, `inverse`) run the same `rref`
on [A | B] and keep the pivots in A's columns.  The rref is unique, so a
column of B in A's column span reads, in A's pivot rows, its solution,
and 0 below them, whatever pivots B's other columns hold.

Layout contract relied on by the rest of the package: `kernel_basis`
returns its columns in unit-at-free-column form (each basis vector has a
1 at its own free column of the rref and 0 at the other free columns),
so coordinates of any kernel vector with respect to that basis can be
read off the free positions directly, each basis vector's last nonzero;
the ring duals' actions, dual maps and biduality read them so
(`homalg._coords`).  Quotient maps and sections come from the same
layout: for a span S, the transpose of the kernel basis of S^T is the
projection onto the free coordinates modulo S, and the unit columns at
the free positions are a section of it.

Sparse steps keep that layout without the dense basis.  `sparse_rref`
eliminates rows held as dicts {column: entry}, keyed by leading column,
on every field; `row_kernel` (of rows) and `sparse_kernel` (of columns)
return the free positions and the block -R[piv, free] as {free position:
{pivot position: entry}}, identity rows at the free positions implicit.
The rref is unique, so both give what `kernel_data` gives.  A dense
matrix is built from sparse columns only by `Matrix.from_sparse`, once,
where a module-sized caller asks for one (`sparse_columns` goes back).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import cache, partial
from itertools import count

import numpy as np

_ZERO = Fraction(0)  # the one Fraction that every zero array over Q holds


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on bases 2, 7 and 61, exact for
    n < 4 759 123 141 (Jaeschke, Math. Comp. 61, 1993)."""
    if n < 3 or n % 2 == 0:
        return n == 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in (2, 7, 61):
        x = pow(a, (n - 1) >> s, n)
        if a % n and x not in (1, n - 1) and all(
                pow(x, 1 << r, n) != n - 1 for r in range(1, s)):
            return False
    return True


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} into QQ")


def _inverse_mod(p: int, a: int) -> int:
    if a % p == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, p - 2, p)


def _nonzero_residue(p: int, c) -> int:
    """The residue mod p of a rational c; ArithmeticError if 0 or undefined."""
    if c.denominator % p and (r := c.numerator * pow(c.denominator, -1, p) % p):
        return r
    raise ArithmeticError(f"{c} has no nonzero residue mod {p}")


def _parse(field: "Field", value, s: str):
    """The element that decimal text like "3" or "-1/2" names: `value(q,
    num, den)` of its value q in Q's syntax, which every field reads, and
    of the text's numerator and denominator."""
    s = s.strip()
    try:
        return value(Fraction(s), *s.partition("/")[::2])
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r} over {field!r}") from None


class Field:
    """A prime field F_p (p < 2**31) or the rationals (p is None).

    The constructor chooses every operation that depends on the field:
    - storage: `dtype`; `wide`, the dtype a sum or product of two entries
      fits in; `reduce(x, out=None)`, a wide array back to canonical
      entries (x % p, or x over Q); `zeros(shape)`; over F_p only,
      `sum_dtype(terms, a, b)`, the dtype in which every sum of `terms`
      products of entries of `a` and `b` is exact (the storage dtype
      while terms*(p-1)^2 fits it, else int64 while no such sum reaches
      2**63, else object); `key(a)`, an array's entries as a hashable
      value (its bytes, or over Q its entries, as an object array's bytes
      are pointers);
    - scalars: `coerce(x)`, `inv(a)`, `parse(s)`, `random(rng)`,
      `characteristic` (0 over Q) and `name`, the repr;
    - the parser's coefficient normaliser `residue(c)`: a rational c
      itself over Q, its residue over F_p, with ArithmeticError when that
      is 0 or undefined, as a zero residue may hide a nonzero rational;
      its values have at most `entry_bits` bits (unbounded over Q);
    - kernels: `product(kernel, a, b, terms)`, a numpy kernel summing
      `terms` products per entry, exactly, in the storage dtype;
      `rref(a)` (an array and its pivots) and `rank(a)`; and
      `radical_rounds(n)`, the rounds of `algebra_radical`.
    """

    __slots__ = ("p", "characteristic", "name", "dtype", "wide", "reduce",
                 "zeros", "sum_dtype", "key", "coerce", "inv", "parse",
                 "random", "residue", "entry_bits", "product", "rref",
                 "rank", "radical_rounds")

    def __init__(self, p: int | None = None):
        self.p = p
        self.rref = lambda a: _rref_in_place(a.astype(self.wide), self)
        # through `_rref_carry`, which perfbench's tracer times as elimination
        self.rank = lambda a: len(Matrix(self, a)._rref_carry(None)[1])
        if p is None:
            self.characteristic, self.name = 0, "QQ"
            self.dtype = self.wide = np.dtype(object)
            self.reduce = lambda x, out=None: x
            self.zeros = partial(np.full, fill_value=_ZERO, dtype=self.dtype)
            self.key = lambda a: tuple(a.flat)
            self.coerce, self.inv = _fraction, lambda a: 1 / _fraction(a)
            self.parse = partial(_parse, self, lambda q, num, den: q)
            self.random = lambda rng: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            self.residue, self.entry_bits = (lambda c: c), math.inf
            self.product = _rational_product
            self.rref = partial(_sparse_dense_rref, self)
            self.radical_rounds = lambda n: 1
            return
        if not (2 <= p < 2**31):
            raise ValueError(f"field characteristic out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime: {p}")
        self.characteristic, self.name = p, f"GF({p})"
        self.dtype = np.dtype(np.int8 if p <= 127 else np.int64)
        self.wide = np.dtype(np.int64)
        self.reduce = lambda x, out=None: np.remainder(x, p, out=out)
        self.zeros = partial(np.zeros, dtype=self.dtype)
        top = np.iinfo(self.dtype).max  # storage sums up to this are exact
        self.sum_dtype = lambda terms, a, b: (  # small p need no scan for int64
            self.dtype if terms * (p - 1) ** 2 <= top else self.wide
            if terms * (p - 1) ** 2 < 2**63
            or terms * int(a.max(initial=0)) * int(b.max(initial=0)) < 2**63
            else np.dtype(object))
        self.key = np.ndarray.tobytes
        self.coerce = lambda x: int(x) % p
        self.inv = partial(_inverse_mod, p)
        self.parse = partial(_parse, self, lambda q, num, den: self.div(
            int(num), int(den or 1)))  # not q: "3/3" is 1/0 over F_3; decimals fail
        self.random = lambda rng: rng.randrange(p)
        self.residue, self.entry_bits = partial(_nonzero_residue, p), (p - 1).bit_length()
        self.product = partial(_modular_product, self)
        self.radical_rounds = lambda n: next(i for i in count(1) if p ** i > n)
        if p == 2:
            self.rref = _gf2_rref
            self.rank = lambda a: len(_gf2_echelon(_gf2_rows(a)))

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def add(self, a, b):
        return self.coerce(a + b)

    def mul(self, a, b):
        return self.coerce(a * b)

    def neg(self, a):
        return self.coerce(-a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __reduce__(self):
        """Pickle by characteristic: the `reduce` lambda does not pickle."""
        return Field, (self.p,)

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# Exact bilinear kernels, one per field kind (`Field.product`): mod p in
# the field's `sum_dtype`, reduced once at the end; over Q on integers.


def _modular_product(field: Field, kernel, a: np.ndarray, b: np.ndarray,
                     terms: int) -> np.ndarray:
    """kernel(a, b) over F_p, for a numpy kernel that sums `terms`
    products per output entry: in the field's `sum_dtype`, reduced once
    at the end, returned in its storage dtype."""
    dt = field.sum_dtype(terms, a, b)
    out = kernel(a.astype(dt, copy=False), b.astype(dt, copy=False))
    return field.reduce(out, out=out).astype(field.dtype, copy=False)


def _scaled_integers(a: np.ndarray) -> tuple[list[int], int]:
    """The entries of a rational array times the lcm d of their
    denominators, flattened, together with d."""
    flat = a.ravel().tolist()
    d = math.lcm(*(x.denominator for x in flat))
    if d == 1:
        return [x.numerator for x in flat], 1
    return [x.numerator * (d // x.denominator) for x in flat], d


def _rational_product(kernel, a: np.ndarray, b: np.ndarray,
                      terms: int) -> np.ndarray:
    """kernel(a, b) over Q: the kernel runs on integer multiples of the
    operands (int64 under the same bound as mod p, else Python ints) and
    the result is divided once by the two scale factors."""
    ia, da = _scaled_integers(a)
    ib, db = _scaled_integers(b)
    top = terms * max(map(abs, ia), default=0) * max(map(abs, ib), default=0)
    dtype = np.int64 if top < 2**63 else object
    out = kernel(np.array(ia, dtype=dtype).reshape(a.shape),
                 np.array(ib, dtype=dtype).reshape(b.shape))
    d = da * db
    res = QQ.zeros(out.shape)
    nz = np.flatnonzero(out)
    res.flat[nz] = [Fraction(n, d) for n in out.flat[nz].tolist()]
    return res


@cache  # specs are string literals at the call sites
def _summed_axes(spec: str) -> tuple[tuple[int, int], ...]:
    """(operand, axis) of one occurrence of each index `spec` sums over."""
    inputs, output = spec.split("->")
    axes: dict[str, tuple[int, int]] = {}
    for k, operand in enumerate(inputs.split(",")):
        for ax, index in enumerate(operand):
            if index not in output:
                axes.setdefault(index, (k, ax))
    return tuple(axes.values())


def contract(field: Field, spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.einsum(spec, a, b) exactly over the field, in its storage dtype.

    `spec` is an explicit two-operand spec such as "ab,gbs->gas"; the
    operands hold field entries (canonical residues or Fractions).
    """
    shapes = (a.shape, b.shape)
    terms = 1
    for k, ax in _summed_axes(spec):
        terms *= shapes[k][ax]
    return field.product(lambda x, y: np.einsum(spec, x, y), a, b, terms)


def by_gather(dense: np.ndarray, gather: int,
              scatter: tuple[int, ...]) -> dict[int, list]:
    """The nonzero entries c of a coefficient array as {g: [(slot, c)]}:
    g is the index on the `gather` axis, slot the indices on the
    `scatter` axes (all the others, in that order), slots increasing."""
    t = dense.transpose((gather, *scatter))
    idx = np.nonzero(t)
    out: dict[int, list] = {}
    for g, *slot, c in zip(*(i.tolist() for i in idx), t[idx].tolist()):
        out.setdefault(g, []).append((tuple(slot), c))
    return out


# ---------------------------------------------------------------------------
# GF(2) elimination on Python-int rows: bit c-1-j of a row holds column j,
# so a row's highest set bit is its leftmost nonzero column and one XOR is
# one row operation.


_SHIFTS = np.arange(63, -1, -1, dtype=np.uint64)  # [64 - c:]: bits of c columns
_BITS = np.uint64(1) << _SHIFTS


def _gf2_rows(a: np.ndarray) -> list[int]:
    """The rows of a 0/1 array as Python ints, column 0 in the top bit."""
    r, c = a.shape
    if c <= 64:
        return (a.view(np.uint8) @ _BITS[64 - c:]).tolist()
    width, pad = -(-c // 8), -c % 8
    data = np.packbits(a, axis=1).tobytes()
    return [int.from_bytes(data[i * width:(i + 1) * width], "big") >> pad
            for i in range(r)]


def _gf2_echelon(rows: list[int]) -> dict[int, int]:
    """A row echelon basis of the rows' span, keyed by bit_length: each
    row is reduced by the rows kept so far until its top bit is new."""
    kept: dict[int, int] = {}
    for x in rows:
        while x and (top := x.bit_length()) in kept:
            x ^= kept[top]
        if x:
            kept[top] = x
    return kept


def _gf2_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 0/1 array, in int8, and its pivots.

    Back-substitution runs lowest pivot first, so each row is cleared at
    its lower pivot bits by rows that are already reduced; an XOR with
    such a row clears one pivot bit and sets no other."""
    r, c = a.shape
    kept = _gf2_echelon(_gf2_rows(a))
    tops = sorted(kept)
    below = 0  # the pivot bits of the rows reduced so far
    for t in tops:
        x = kept[t]
        hit = x & below
        while hit:
            b = hit.bit_length()
            x ^= kept[b]
            hit ^= 1 << (b - 1)
        kept[t] = x
        below |= 1 << (t - 1)
    tops.reverse()  # leftmost pivot first
    out = np.zeros((r, c), dtype=np.int8)
    if c <= 64:
        words = np.array([kept[t] for t in tops], dtype=np.uint64)
        out[:len(tops)] = (words[:, None] >> _SHIFTS[64 - c:]) & 1
    else:
        width, pad = -(-c // 8), -c % 8
        data = b"".join((kept[t] << pad).to_bytes(width, "big") for t in tops)
        out[:len(tops)] = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(
            len(tops), width), axis=1, count=c)
    return out, [c - t for t in tops]


# ---------------------------------------------------------------------------
# Sparse elimination: a row is a dict {column: nonzero entry}, and the
# echelon basis is keyed by leading column, as `_gf2_echelon` keys by bit.


def _axpy(norm, x: dict, f, y: dict) -> None:
    """x -= f * y in place; an entry that cancels is removed."""
    for j, v in y.items():
        if w := norm(x.get(j, 0) - f * v):
            x[j] = w
        else:
            del x[j]


def sparse_rref(field: Field, rows, back: bool = True, grow=None) -> dict[int, dict]:
    """Reduced row echelon form of sparse rows (reduced in place), keyed
    by pivot column; with `back` False, the echelon form, whose keys are
    already the pivots.  Each row is reduced by the rows kept so far
    until its leading column is new, then scaled to 1 there.  Back-
    substitution runs rightmost pivot first, as in `_gf2_rref`, so each
    row is cleared by rows already reduced.  `grow(entries)` is called
    whenever fill-in takes the rows past every earlier entry count."""
    norm, kept = field.coerce, {}
    rows = list(rows)
    size = peak = sum(map(len, rows))
    for x in rows:
        before = len(x)
        while x and (lead := min(x)) in kept:
            _axpy(norm, x, x[lead], kept[lead])
        if x:
            if x[lead] != 1:
                inv = field.inv(x[lead])
                for j in x:
                    x[j] = norm(x[j] * inv)
            kept[lead] = x
        size += len(x) - before
        if grow and size > peak:
            peak = size
            grow(size)
    for c in sorted(kept, reverse=True) if back else ():
        x = kept[c]
        if len(x) > 1 and (hits := [j for j in x if j != c and j in kept]):
            before = len(x)
            for j in hits:
                _axpy(norm, x, x[j], kept[j])
            size += len(x) - before
            if grow and size > peak:
                peak = size
                grow(size)
    return kept


def sparse_kernel(field: Field, columns: list[dict],
                  grow=None) -> tuple[list[int], dict[int, dict]]:
    """`row_kernel` of these columns' rows, in the order a scan meets them."""
    rows: dict[int, dict] = defaultdict(dict)
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return row_kernel(field, len(columns), rows.values(), grow)


def row_kernel(field: Field, cols: int, rows, grow=None) -> tuple[list[int], dict[int, dict]]:
    """Kernel of the `cols`-column matrix with these sparse rows, laid out
    as above; `sparse_rref` reduces them in order (fixing the fill-in)."""
    kept = sparse_rref(field, rows, grow=grow)
    block: dict[int, dict] = defaultdict(dict)
    for c in sorted(kept):
        for j, v in kept[c].items():
            if j != c:
                block[j][c] = field.coerce(-v)
    return [j for j in range(cols) if j not in kept], dict(block)


def _sparse_dense_rref(field: Field, a: np.ndarray):
    """Q's uncarried `rref`: `sparse_rref` of the rows, kept in pivot order."""
    kept = sparse_rref(field, ({j: v for j, v in enumerate(row) if v} for row in a.tolist()))
    out, piv = field.zeros(a.shape), sorted(kept)
    for i, c in enumerate(piv):
        out[i, list(kept[c])] = list(kept[c].values())
    return out, piv


# ---------------------------------------------------------------------------


def _rref_in_place(a: np.ndarray, field: Field):
    """In-place reduced row echelon form of `a`, an array in the field's
    wide dtype, and its pivots.  Every row operation reduces its result,
    so `a` stays canonical."""
    r, c = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(c):
        if row == r:
            break
        nz = a[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            a[[row, pr]] = a[[pr, row]]
        pv = a.item(row, col)
        if pv != 1:
            a[row] = field.reduce(a[row] * field.inv(pv))
        fac = a[:, col].copy()
        fac[row] = 0
        nzm = fac.nonzero()[0]
        if nzm.size:
            a[nzm] = field.reduce(a[nzm] - np.outer(fac[nzm], a[row]))
        pivots.append(col)
        row += 1
    return a, pivots


def _negate(field: Field, x: np.ndarray) -> np.ndarray:
    """-x over the field, in place and in x's dtype: -x lies in (-p, 0],
    which the storage dtype of every p < 2**31 holds."""
    return field.reduce(np.negative(x, out=x), out=x)


class Matrix:
    """Dense exact matrix over a `Field`: `a` is a 2-d array in the
    field's storage dtype holding canonical entries."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, a: np.ndarray):
        self.field = field
        self.a = a

    def __array__(self, dtype=None, copy=None):
        """The entries, so numpy takes a Matrix (or a list of them) as an array."""
        return np.array(self.a, dtype=dtype, copy=copy)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        coerce = field.coerce
        return Matrix(field, np.array([[coerce(x) for x in row] for row in rows],
                                      dtype=field.dtype).reshape(r, c))

    @staticmethod
    def zeros(field: Field, r: int, c: int) -> "Matrix":
        return Matrix(field, field.zeros((r, c)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zeros(field, n, n)
        m.a.flat[::n + 1] = field.one()  # the diagonal
        return m

    @staticmethod
    def column(field: Field, entries) -> "Matrix":
        return Matrix.from_rows(field, [[x] for x in entries])

    @staticmethod
    def from_sparse(field: Field, rows: int, columns: list[dict]) -> "Matrix":
        """The rows x len(columns) matrix whose column j holds the entries
        of the dict columns[j] ({row: entry})."""
        out = Matrix.zeros(field, rows, len(columns))
        at = [(i, j) for j, col in enumerate(columns) for i in col]
        if at:
            out.a[tuple(zip(*at))] = [x for col in columns for x in col.values()]
        return out

    def sparse_columns(self) -> list[dict]:
        """The columns as dicts {row: entry} of their nonzero entries."""
        cols: list[dict] = [{} for _ in range(self.cols)]
        j, i = np.nonzero(self.a.T)
        for c, r, x in zip(j.tolist(), i.tolist(), self.a.T[j, i].tolist()):
            cols[c][r] = x
        return cols

    # -- basic shape / access ------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.a.copy())

    def entry(self, i: int, j: int):
        return self.a.item(i, j)

    def take_cols(self, idx) -> "Matrix":
        return Matrix(self.field, self.a[:, list(idx)])  # fancy indexing copies

    def take_rows(self, idx) -> "Matrix":
        return Matrix(self.field, self.a[list(idx), :])

    def to_str_rows(self):
        return [[self.field.format(self.entry(i, j)) for j in range(self.cols)]
                for i in range(self.rows)]

    @staticmethod
    def from_str_rows(field: Field, rows) -> "Matrix":
        """Each entry as `field.parse` reads it; bare integers skip it."""
        coerce, parse = field.coerce, field.parse
        vals = [[coerce(int(s)) if s.removeprefix("-").isdecimal() else parse(s)
                 for s in row] for row in rows]
        return Matrix(field, np.array(vals, dtype=field.dtype).reshape(
            len(vals), len(vals[0]) if vals else 0))

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError("field mismatch")

    def _from_wide(self, x: np.ndarray) -> "Matrix":
        """Matrix of a freshly computed wide array, reduced in place."""
        f = self.field
        return Matrix(f, f.reduce(x, out=x).astype(f.dtype, copy=False))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return self._from_wide(self.a.astype(self.field.wide, copy=False) + other.a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return self._from_wide(self.a.astype(self.field.wide, copy=False) - other.a)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, _negate(self.field, self.a.copy()))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return self._from_wide(self.a.astype(self.field.wide, copy=False) * c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)  # a shape mismatch is np.dot's ValueError
        return Matrix(self.field, self.field.product(np.dot, self.a, other.a, self.cols))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.a.T.copy())

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.a.shape != other.a.shape:
            return False
        return bool((self.a == other.a).all())

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    # -- stacking ---------------------------------------------------------

    @staticmethod
    def hstack(mats: list["Matrix"]) -> "Matrix":
        return Matrix(mats[0].field, np.hstack([m.a for m in mats]))

    @staticmethod
    def vstack(mats: list["Matrix"]) -> "Matrix":
        return Matrix(mats[0].field, np.vstack([m.a for m in mats]))

    @staticmethod
    def block_diag(field: Field, mats: list["Matrix"]) -> "Matrix":
        r = sum(m.rows for m in mats)
        c = sum(m.cols for m in mats)
        out = Matrix.zeros(field, r, c)
        i = j = 0
        for m in mats:
            out.a[i:i + m.rows, j:j + m.cols] = m.a
            i += m.rows
            j += m.cols
        return out

    # -- reduction ---------------------------------------------------------

    def _rref_carry(self, carry: "Matrix | None"):
        """(R, pivots, C): the field's `rref` of [self | carry], or of self
        alone, cut after self's columns, with the pivots among them.

        Those pivots come first, so R is the rref of self and C is the
        carried block (no columns without `carry`)."""
        f, n = self.field, self.cols
        joint, piv = f.rref(self.a if carry is None else np.hstack([self.a, carry.a]))
        joint = joint.astype(f.dtype, copy=False)
        return Matrix(f, joint[:, :n]), [c for c in piv if c < n], Matrix(f, joint[:, n:])

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        r, piv, _ = self._rref_carry(None)
        return r, tuple(piv)

    def rank(self) -> int:
        return self.field.rank(self.a)

    def kernel_data(self) -> tuple["Matrix", list[int]]:
        """Kernel basis plus the free column positions defining it.

        Basis column t has a 1 at its free position and 0 at the other
        free positions, so the coordinates of any kernel vector in this
        basis can be read off the free positions directly.
        """
        f = self.field
        r, piv, _ = self._rref_carry(None)
        pivset = set(piv)
        free = [j for j in range(self.cols) if j not in pivset]
        out = Matrix.zeros(f, self.cols, len(free))
        out.a[free, np.arange(len(free))] = f.one()
        out.a[piv, :] = _negate(f, r.a[:len(piv)].take(free, axis=1))
        return out, free

    def kernel_basis(self) -> "Matrix":
        """Column basis of the right null space, unit-at-free-column form."""
        return self.kernel_data()[0]

    def solve_columns(self, targets: "Matrix") -> tuple["Matrix", list[bool]]:
        """Particular solutions X of self @ X = targets, free vars zero.

        Returns (X, ok) where ok[j] is False when column j is unsolvable
        (the corresponding X column is then meaningless).  Row i of the
        carried block is the value of variable pivots[i]; a nonzero entry
        below the pivot rows makes its column unsolvable.
        """
        _, piv, c = self._rref_carry(targets)
        rank = len(piv)
        x = Matrix.zeros(self.field, self.cols, c.cols)
        x.a[piv, :] = c.a[:rank, :]
        return x, [not v for v in c.a[rank:, :].any(axis=0)]

    def solve(self, target: "Matrix") -> "Matrix | None":
        x, ok = self.solve_columns(target)
        return x if all(ok) else None

    def inverse(self) -> "Matrix | None":
        """A^-1, the solution of A X = I; None if A is singular or not square."""
        square = self.rows == self.cols
        return self.solve(Matrix.identity(self.field, self.rows)) if square else None


def nf_columns(rref: Matrix, pivots, vectors: Matrix) -> Matrix:
    """Normal form of column vectors modulo the row space held in `rref`.

    `rref` rows live in the same coordinate space as the columns of
    `vectors` and are in reduced row echelon form with the given pivots.
    Each row is zero at the other pivots, so eliminating the pivot
    coordinates one at a time equals the single step v - rref^T v[pivots].
    """
    piv = list(pivots)
    upd = contract(rref.field, "ir,ij->rj", rref.a[:len(piv)], vectors.a[piv, :])
    return vectors - Matrix(rref.field, upd)


def column_space_basis(m: Matrix) -> Matrix:
    """Deterministic basis of the column space: the original columns
    sitting at the rref pivot positions."""
    _, piv = m.rref()
    return m.take_cols(list(piv))


def algebra_radical(basis: Matrix, n: int) -> Matrix:
    """Jacobson radical of the algebra A of n x n matrices whose basis is
    the columns of `basis` (row-major), as columns in the same layout.

    Ronyai's chain: I_{-1} = A, I_i = {x in I_{i-1} : Tr(z^(p^i))/p^i = 0
    mod p for z the [0, p) lift of xy, all y in A}, i = 0..floor(log_p n),
    ends at J(A); over Q and for p > n only Dickson's Tr(xy) runs.  The
    field's `radical_rounds(n)` counts the rounds.
    """
    f = basis.field
    ys = basis.a.T.reshape(-1, n, n)
    ideal = basis
    for i in range(f.radical_rounds(n)):
        if not ideal.cols:
            break
        xs = ideal.a.T.reshape(-1, n, n)
        if i == 0:
            gram = contract(f, "sab,tba->st", xs, ys)
        else:  # q <= n^2 keeps int64 exact; stacks are cut to 2^22 entries
            q, rows, parts = f.p ** (i + 1), max(1, 2**22 // ys.size), []
            for lo in range(0, len(xs), rows):
                z = contract(f, "sab,tbc->stac", xs[lo:lo + rows], ys).astype(np.int64)
                w = z
                for _ in range(f.p ** i - 1):
                    w = np.matmul(w, z) % q
                parts.append(np.trace(w, axis1=2, axis2=3) % q // (q // f.p))
            gram = np.vstack(parts).astype(f.dtype)
        ideal = ideal @ Matrix(f, gram).transpose().kernel_basis()
    return ideal


def random_matrix(field: Field, r: int, c: int, rng) -> Matrix:
    return Matrix.from_rows(field, [[field.random(rng) for _ in range(c)]
                                    for _ in range(r)]) if r else Matrix.zeros(field, 0, c)


QQ = Field(None)
GF2 = Field(2)
GF3 = Field(3)
