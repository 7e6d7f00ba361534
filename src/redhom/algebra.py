"""Finite-dimensional commutative local algebras over an exact field.

An algebra is presented by variable names, polynomial relations with zero
constant term, and a declared nilpotency bound N for the maximal ideal.
The underlying ring is k[x_1,...,x_n] modulo the relations together with
all monomials of degree N, so every instance is Artinian local with
residue field k.

The k-basis consists of the monomials of degree below N that are not
reducible by the relation ideal; it is closed under monomial division,
basis index 0 is always the identity element, and indices 1 and up span
the maximal ideal.

The structure constants c[t, a, b] = (b_t b_b)_a are stored once, as
one read-only (dim, dim, dim) array with the basis index first (`mult`,
also `action_stack()`), and the variable actions likewise as one
(nvars, dim, dim) array (`var_stack`).  Both are gathered from the
normal-form table in one indexing step.  Free modules act through
block-diagonal copies of these, kept per rank (`free_varmat`,
`free_action_stack`).  For the products of sparse columns by the
algebra the constants are also kept in sparse form (`structure`): their
nonzero entries listed by the index they read (`linalg.by_gather`), one
read-only map per layout, built on first use.

What a presentation determines is built once per process: the basis
monomials and their index, the normal-form table, the product stack, the
socle and the embedding dimension, kept read-only for the last 32
presentations (`_structure`).  Beside them it keeps one slot, filled on
first use and read by every build of the presentation: the sparse
product layouts and the monomial steps, all immutable (`_layouts`).
Each `build_algebra` call returns a new `Algebra` over them, with the
caller's field, its own lists and its own `_table`, so what depends on
modules (their actions, resolutions and Ext tables) and the free blocks
per rank live per `Algebra` object.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
import math
from operator import add
from types import MappingProxyType

import numpy as np

from .linalg import QQ, Field, Matrix, by_gather


class AlgebraError(ValueError):
    """Raised for ill-formed algebra presentations."""


def _monomials_below(nvars: int, bound: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree < bound, sorted by degree then
    by decreasing leading exponents (so 1, x, y, x^2, x*y, y^2, ...): the
    order in which `combinations_with_replacement` lists variables."""
    return [tuple(map(c.count, range(nvars))) for deg in range(bound)
            for c in combinations_with_replacement(range(nvars), deg)]


def parse_polynomial(src: str, var_names: list[str], fld: Field,
                     nilpotency: int | None = None):
    """Polynomial text (grammar: docs/workspace.md) as {exponent_tuple:
    coefficient}, evaluated exactly over Q, then reduced into `fld`; terms
    of degree >= `nilpotency` vanish in the algebra and are dropped early.

    Coefficients go through the field's normaliser `residue`: over F_p
    they are residues, so a constant's power is taken mod p.  That gives
    the same answer as long as no coefficient or divisor is 0 mod p: then
    each is a nonzero residue exactly when it is a nonzero rational with no
    denominator divisible by p.  At the first residue 0 it runs again
    through QQ's, exactly.  An exact coefficient is refused past
    MAX_STEP_BYTES / ENTRY_BYTES bits, the entries one resolution step may
    hold, and a power of a base with constant term c before it is taken,
    when c^e has more (at least |e|*(bits(c) - 1) + 1; a residue has at
    most `entry_bits`).  Exponents are always evaluated exactly."""
    from .resolution import ENTRY_BYTES, MAX_STEP_BYTES  # it imports this module
    one, cap = (0,) * len(var_names), nilpotency or float("inf")
    limit = MAX_STEP_BYTES // ENTRY_BYTES
    dom = fld  # whose normaliser the coefficients go through

    def refuse_past(bits):
        if bits > limit:
            raise AlgebraError(f"a coefficient of {bits} bits is over "
                               f"MAX_STEP_BYTES / ENTRY_BYTES = {limit}")

    def size(c):
        return max(abs(c.numerator), c.denominator).bit_length()

    def norm(c):
        c = dom.residue(c)
        refuse_past(size(c))
        return c

    def mul(f, g):
        out = {}
        for m, c in f.items():
            for m2, c2 in g.items():
                mm = tuple(a + b for a, b in zip(m, m2))
                if sum(mm) < cap:
                    out[mm] = out.get(mm, 0) + c * c2
        return {m: v for m, c in out.items() if (v := norm(c))}

    def const(node, inverse=False):
        f = ev(node)
        if set(f) - {one} or inverse and not f:
            raise AlgebraError(f"{ast.unparse(node)!r} is not a "
                               f"{'nonzero ' * inverse}constant")
        return 1 / Fraction(f[one]) if inverse else Fraction(f.get(one, 0))

    def ev(node):
        nonlocal dom
        op = type(getattr(node, "op", None))
        s = -1 if op in (ast.Sub, ast.USub) else 1
        if op in (ast.Add, ast.Sub):
            f, g = ev(node.left), ev(node.right)
            return {m: v for m in f.keys() | g.keys()
                    if (v := norm(f.get(m, 0) + s * g.get(m, 0)))}
        if op in (ast.UAdd, ast.USub):
            return {m: norm(s * c) for m, c in ev(node.operand).items()}
        if op is ast.Mult:
            return mul(ev(node.left), ev(node.right))
        if op is ast.Div:
            return mul(ev(node.left), {one: const(node.right, True)})
        if op is ast.Pow:
            dom, outer = QQ, dom
            e = const(node.right)
            dom = outer
            if e.denominator != 1:
                raise AlgebraError(f"exponent {e} is not an integer")
            base = {one: const(node.left, True)} if e < 0 else ev(node.left)
            # refused now if its constant term c^e, c the base's, is too long
            refuse_past(min(dom.entry_bits,
                            abs(int(e)) * (size(base.get(one, 0)) - 1) + 1))
            out = {one: 1}
            for bit in bin(abs(int(e)))[2:]:
                out = mul(mul(out, out), base if bit == "1" else {one: 1})
            return out
        if isinstance(node, ast.Name) and node.id in var_names:
            m = tuple(int(v == node.id) for v in var_names)
            return mul({one: 1}, {m: 1})
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            c = node.value if type(node.value) is int else Fraction(
                ast.get_source_segment(text, node))
            return mul({one: 1}, {one: c})
        raise AlgebraError(f"{ast.unparse(node)!r} is not a variable, "
                           "a constant or a sum, product, quotient or power")

    text = src.strip().replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval").body
        try:
            poly = ev(tree)
        except ArithmeticError:  # a residue was 0
            dom = QQ
            poly = ev(tree)
        return {m: v for m, c in poly.items() if (v := fld.div(
            fld.coerce(c.numerator), fld.coerce(c.denominator)))}
    except ZeroDivisionError:
        raise AlgebraError(f"a coefficient of {src!r} has a denominator "
                           "divisible by the characteristic") from None
    except (SyntaxError, ValueError, RecursionError) as exc:
        # AlgebraError is a ValueError: ev's rejections get this prefix too
        raise AlgebraError(f"cannot parse polynomial {src!r}: {exc}") from None


# (gather axis, scatter axes) of each sparse product: "columns" reads
# c[t, a, b], "left" a variable's matrix.
_LAYOUTS = {
    "columns": (2, (1, 0)),   # b -> (a, t): images of generators times b_t
    "left": (1, (0,)),        # b -> a: x_v times free coordinates
}


def structure(alg, kind: str, v: int | None = None) -> MappingProxyType:
    """The sparse product `kind` of `alg` (see `_LAYOUTS`) as
    `linalg.by_gather` lists it, read-only (a mapping of tuples), built
    from its dense tables on first use and kept in its `_layouts`: once
    per presentation for a built algebra, once per object for anything
    else with the same tables.  `v` names the variable of "left"."""
    kept = vars(alg).setdefault("_layouts", {})
    key = (kind, v)
    if key not in kept:
        dense = alg.action_stack() if v is None else alg.var_stack[v]
        kept[key] = MappingProxyType({g: tuple(prods) for g, prods in by_gather(
            dense, *_LAYOUTS[kind]).items()})
    return kept[key]


@dataclass(eq=False)
class Algebra:
    """Structure constants and cached operators of one local algebra."""

    field: Field
    var_names: list[str]
    nilpotency: int
    relation_srcs: list[str]
    basis_mons: list[tuple[int, ...]]
    dim: int
    mult: np.ndarray       # (dim, dim, dim): mult[t] multiplies by b_t
    var_stack: np.ndarray  # (nvars, dim, dim): var_stack[v] multiplies by x_v
    socle_basis: Matrix
    embedding_dim: int
    # the free blocks per rank, and an entry per module actions
    # (`modules.shared`); never carried by `dataclasses.replace`
    _table: dict = dc_field(default_factory=dict, repr=False, init=False)
    # the sparse layouts and monomial steps, shared by every build of the
    # presentation (`_structure`); a replaced copy builds its own
    _layouts: dict = dc_field(default_factory=dict, repr=False, init=False)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    @property
    def is_gorenstein(self) -> bool:
        return self.socle_basis.cols == 1

    @property
    def radical_square_zero(self) -> bool:  # m^2 = 0: dim m/m^2 = dim m
        return self.embedding_dim == self.dim - 1

    @property
    def socle_dim(self) -> int:
        return self.socle_basis.cols

    def hilbert_function(self) -> list[int]:
        degrees = [sum(m) for m in self.basis_mons]
        return [degrees.count(k) for k in range(max(degrees) + 1)]

    def action_stack(self) -> np.ndarray:
        """All regular-representation matrices as one (dim, dim, dim) array."""
        return self.mult

    @property
    def monomial_steps(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """(v, t, s) read-only index arrays per degree and variable, degrees
        ascending: b_t = x_v b_s for the first variable v of b_t.  Built
        on first use and kept in `_layouts`."""
        if "steps" not in self._layouts:
            index = {m: i for i, m in enumerate(self.basis_mons)}
            steps: dict[tuple[int, int], list] = {}
            for t, mon in enumerate(self.basis_mons[1:], 1):
                v = next(i for i, e in enumerate(mon) if e)
                steps.setdefault((sum(mon), v), []).append(
                    (t, index[mon[:v] + (mon[v] - 1,) + mon[v + 1:]]))
            out = []
            for (_, v), ts in sorted(steps.items()):
                ts = np.array(ts, dtype=np.intp)
                ts.flags.writeable = False
                out.append((v, *ts.T))
            self._layouts["steps"] = tuple(out)
        return self._layouts["steps"]

    def mon_label(self, mon: tuple[int, ...]) -> str:
        return "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(self.var_names, mon) if e) or "1"

    def basis_labels(self) -> list[str]:
        return [self.mon_label(m) for m in self.basis_mons]

    def element_from_string(self, src: str) -> Matrix:
        """Basis-coordinate column of a polynomial expression."""
        poly = parse_polynomial(src, self.var_names, self.field,
                                self.nilpotency)
        vec = Matrix.zeros(self.field, self.dim, 1)
        for mon, coef in poly.items():  # every term is below degree N
            vec = vec + self._nf_table.take_cols([self._mon_index[mon]]).scale(coef)
        return vec

    def free_varmat(self, rank: int) -> np.ndarray:
        """`var_stack` on the rank-g free module (block diagonal)."""
        return self._free_blocks("v", self.var_stack, rank)

    def free_action_stack(self, rank: int) -> np.ndarray:
        """`action_stack` on the rank-g free module (block diagonal)."""
        return self._free_blocks("a", self.mult, rank)

    def _free_blocks(self, kind: str, stack: np.ndarray, rank: int) -> np.ndarray:
        """`stack` on each generator's d x d block of the rank-g free
        module, read-only and kept per rank."""
        if (kind, rank) not in self._table:
            d = self.dim
            out = self.field.zeros((len(stack), rank * d, rank * d))
            np.einsum("vjajb->vjab", out.reshape(len(stack), rank, d, rank, d))[...] = stack[:, None]
            out.flags.writeable = False
            self._table[kind, rank] = out
        return self._table[kind, rank]

    def presentation(self) -> dict:
        return {
            "characteristic": self.field.characteristic,
            "variables": list(self.var_names),
            "relations": list(self.relation_srcs),
            "nilpotency": self.nilpotency,
        }

    def summary(self) -> dict:
        return {
            "presentation": self.presentation(),
            "dimension": self.dim,
            "basis": self.basis_labels(),
            "hilbert_function": self.hilbert_function(),
            "embedding_dimension": self.embedding_dim,
            "socle_dimension": self.socle_dim,
            "gorenstein": self.is_gorenstein,
        }

    def __repr__(self):
        rel = ",".join(self.relation_srcs) or "0"
        return (f"Algebra({self.field}[{','.join(self.var_names)}]/"
                f"({rel})+m^{self.nilpotency}, dim={self.dim})")


def build_algebra(fld: Field, var_names: list[str], relations: list[str],
                  nilpotency: int) -> Algebra:
    """A new algebra on `fld`, with its own lists and empty `_table`, over
    the read-only structure `_structure` builds once per presentation and
    the `_layouts` slot it keeps beside it.

    `relations` are polynomial strings with zero constant term; the ideal
    they generate is enlarged by all monomials of degree `nilpotency`.
    A presentation whose build would take more than MAX_STEP_BYTES is
    refused with an `AlgebraError` before its tables are allocated.
    """
    from .resolution import ENTRY_BYTES, MAX_STEP_BYTES  # it imports this module
    mons, stack, socle, emb, mon_index, nf_table, layouts = _structure(
        fld, tuple(var_names), tuple(relations), nilpotency,
        (MAX_STEP_BYTES, ENTRY_BYTES))
    d = len(mons)
    alg = Algebra(
        field=fld, var_names=list(var_names), nilpotency=nilpotency,
        relation_srcs=list(relations), basis_mons=list(mons), dim=d,
        mult=stack[:d], var_stack=stack[d:],
        socle_basis=Matrix(fld, socle), embedding_dim=emb,
    )
    alg._layouts = layouts
    alg._mon_index = mon_index             # type: ignore[attr-defined]
    alg._nf_table = Matrix(fld, nf_table)  # type: ignore[attr-defined]
    return alg


@lru_cache(maxsize=32)
def _structure(fld: Field, names: tuple, relations: tuple, nilpotency: int,
               caps: tuple) -> tuple:
    """The structure of the presentation, read-only, as (basis monomials,
    the (d+n, d, d) product stack, the socle basis, the embedding
    dimension, the monomial index, the (d, nm) normal-form table, the
    `Algebra._layouts` slot its builds fill on first use).

    Kept per presentation and `caps` (`resolution.MAX_STEP_BYTES` and
    `ENTRY_BYTES`, which the refusals below and the parser's read), so a
    hit is what a cold build under the same caps returns; a refusal is
    raised, never kept.

    The table is a commutative ring's with m^N = 0 by construction: the
    rows u*f below degree N are closed under each x_v, so they span
    (I + m^N)/m^N, and every product is read off that quotient's normal
    form.  `TestRingAxioms` in tests/test_algebra.py checks it.
    """
    from .resolution import _refuse_past  # resolution imports this module
    if nilpotency < 1:
        raise AlgebraError("nilpotency bound must be at least 1")
    if len(set(names)) != len(names):
        raise AlgebraError("duplicate variable names")
    n = len(names)
    nm = math.comb(n + nilpotency - 1, n)
    # at most one ideal row per relation and monomial below degree N - 1;
    # kept: the ideal, its echelon form, the kernel's pivot block and the
    # nm x nm kernel; wide: the elimination's copy and three temporaries
    rows = len(relations) * math.comb(n + nilpotency - 2, n) if nilpotency > 1 else 0
    _refuse_past(f"the {nm}x{nm} normal-form kernel of the monomials below "
                 f"degree {nilpotency}", fld, 3 * rows * nm + nm * nm, 4 * rows * nm,
                 error=AlgebraError)
    mons = _monomials_below(n, nilpotency)
    mon_index = {m: i for i, m in enumerate(mons)}

    parsed = []
    for src in relations:
        poly = parse_polynomial(src, names, fld, nilpotency)
        if (0,) * n in poly:
            raise AlgebraError(f"relation {src!r} has a nonzero constant term")
        if poly:
            parsed.append(poly)

    # the relation ideal inside the degree-truncated monomial space: a
    # row u*f for each relation f and monomial u below degree N - deg f
    # (never 0: u times a term of degree deg f)
    shifts = []
    for poly in parsed:
        fdeg = min(map(sum, poly))
        shifts += [(u, poly) for u in mons if sum(u) + fdeg < nilpotency]
    ideal = fld.zeros((len(shifts), nm))
    for r, (u, poly) in enumerate(shifts):
        for m, c in poly.items():
            if sum(tot := tuple(map(add, u, m))) < nilpotency:
                ideal[r, mon_index[tot]] = c
    # the kernel of the ideal's rows, in unit-at-free-column layout, is
    # the transpose of the normal-form map onto the free (basis) monomials
    kb, basis_pos = Matrix(fld, ideal).kernel_data()
    del ideal
    basis_mons = tuple(mons[i] for i in basis_pos)
    d = len(basis_mons)
    # kept: the stack, the table below, the socle basis and the copy of
    # m^2's spanning set; wide: the gather's index, and the elimination of
    # the n*d x d actions (a copy and three temporaries)
    _refuse_past(f"the {d + n}x{d}x{d} product table", fld,
                 (d + n) * d * d + d * (nm + 1) + (n + 1) * d * d,
                 (d + n) * d + 4 * n * d * d, error=AlgebraError)

    # the normal form of every truncated monomial as column of a (d x nm)
    # table, and column nm, 0, for the monomials of degree >= N
    table = fld.zeros((d, nm + 1))
    table[:, :nm] = kb.a.T
    del kb
    # every product b_i b_j and x_v b_j, gathered from columns of the
    # table as stack[i, a, j] and stack[d + v, a, j], their coordinate a
    units = tuple(tuple(int(v == w) for w in range(n)) for v in range(n))
    cols = np.fromiter((mon_index.get(tuple(map(add, u, w)), nm)
                        for u in basis_mons + units for w in basis_mons),
                       dtype=np.intp, count=(d + n) * d).reshape(d + n, d)
    stack = fld.zeros((d + n, d, d))
    for i, row in enumerate(cols):  # "clip" writes to `out` unbuffered
        table.take(row, axis=1, out=stack[i], mode="clip")
    var_stack = stack[d:]

    # socle: simultaneous kernel of the variable actions
    socle = Matrix(fld, var_stack.reshape(n * d, d)).kernel_basis().a

    # embedding dimension: dim m minus dim m^2
    m2 = var_stack[:, :, 1:].transpose(1, 0, 2).reshape(d, n * (d - 1))
    emb = (d - 1) - Matrix(fld, m2).rank()

    for shared in (stack, socle, table):  # before any view is taken out
        shared.flags.writeable = False
    return (basis_mons, stack, socle, emb, MappingProxyType(mon_index),
            table[:, :nm], {})


def algebra_from_presentation(pres: dict) -> Algebra:
    """Rebuild an algebra from its serialized presentation dict."""
    ch, nilp = pres["characteristic"], pres["nilpotency"]
    if type(ch) is not int or type(nilp) is not int:
        raise ValueError("characteristic and nilpotency must be integers")
    names, rels = pres["variables"], pres["relations"]
    if not (isinstance(names, list) and isinstance(rels, list)
            and all(isinstance(s, str) for s in names + rels)):
        raise ValueError("variables and relations must be lists of strings")
    return build_algebra(Field(ch or None), names, rels, nilp)
