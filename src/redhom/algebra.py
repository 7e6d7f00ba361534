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
map per layout, built once per algebra on first use.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
import math

import numpy as np

from .linalg import QQ, Field, Matrix, by_gather, column_space_basis, contract


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


def structure(alg, kind: str, v: int | None = None) -> dict[int, list]:
    """The sparse product `kind` of `alg` (see `_LAYOUTS`) as
    `linalg.by_gather` lists it, built from its dense tables on first
    use and kept in its `_table`, so each is built once per algebra;
    `v` names the variable of "left"."""
    cache = vars(alg).setdefault("_table", {})
    key = (kind, v)
    if key not in cache:
        dense = alg.action_stack() if v is None else alg.var_stack[v]
        cache[key] = by_gather(dense, *_LAYOUTS[kind])
    return cache[key]


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
    # what is built once per algebra, and an entry per module actions
    # (`modules.shared`)
    _table: dict = dc_field(default_factory=dict, repr=False)

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

    @cached_property
    def monomial_steps(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(v, t, s) index arrays per degree and variable, degrees
        ascending: b_t = x_v b_s for the first variable v of b_t."""
        index = {m: i for i, m in enumerate(self.basis_mons)}
        steps: dict[tuple[int, int], list] = {}
        for t, mon in enumerate(self.basis_mons[1:], 1):
            v = next(i for i, e in enumerate(mon) if e)
            steps.setdefault((sum(mon), v), []).append(
                (t, index[mon[:v] + (mon[v] - 1,) + mon[v + 1:]]))
        return [(v, *np.array(ts, dtype=np.intp).T)
                for (_, v), ts in sorted(steps.items())]

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
        for mon, coef in poly.items():
            vec = vec + self._mon_nf(mon).scale(coef)
        return vec

    def _mon_nf(self, mon: tuple[int, ...]) -> Matrix:
        """Normal form of an arbitrary monomial as a basis column."""
        if sum(mon) >= self.nilpotency:
            return Matrix.zeros(self.field, self.dim, 1)
        try:
            idx = self._mon_index[mon]
        except KeyError:
            raise AlgebraError(f"monomial {mon} has wrong arity") from None
        return Matrix(self.field, self._nf_table.a[:, idx:idx + 1].copy())

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
            for j in range(0, rank * d, d):
                out[:, j:j + d, j:j + d] = stack
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
    """Construct the algebra and all cached structure data.

    `relations` are polynomial strings with zero constant term; the ideal
    they generate is enlarged by all monomials of degree `nilpotency`.
    """
    if nilpotency < 1:
        raise AlgebraError("nilpotency bound must be at least 1")
    if len(set(var_names)) != len(var_names):
        raise AlgebraError("duplicate variable names")
    n = len(var_names)
    nm = math.comb(n + nilpotency - 1, n)
    _check_table_size(f"the {nm}x{nm} normal-form kernel of the monomials "
                      f"below degree {nilpotency}", nm * nm, fld)
    mons = _monomials_below(n, nilpotency)
    mon_index = {m: i for i, m in enumerate(mons)}

    parsed = []
    for src in relations:
        poly = parse_polynomial(src, var_names, fld, nilpotency)
        if (0,) * n in poly:
            raise AlgebraError(f"relation {src!r} has a nonzero constant term")
        if poly:
            parsed.append(poly)

    # span of the relation ideal inside the degree-truncated monomial space
    rows = []
    for poly in parsed:
        fdeg = min(sum(m) for m in poly)
        for u in mons:
            if sum(u) + fdeg >= nilpotency:
                continue
            row = [fld.zero()] * nm  # never 0: u times a term of degree fdeg
            for m, c in poly.items():
                tot = tuple(a + b for a, b in zip(u, m))
                if sum(tot) < nilpotency:
                    row[mon_index[tot]] = fld.add(row[mon_index[tot]], c)
            rows.append(row)
    ideal = Matrix.from_rows(fld, rows) if rows else Matrix.zeros(fld, 0, nm)
    # the kernel of the ideal's rows, in unit-at-free-column layout, is
    # the transpose of the normal-form map onto the free (basis) monomials
    kb, basis_pos = ideal.kernel_data()
    if basis_pos[:1] != [0]:
        raise AlgebraError("relations collapse the identity; algebra is zero")
    basis_mons = [mons[i] for i in basis_pos]
    d = len(basis_mons)
    _check_table_size(f"the {d + n}x{d}x{d} product table",
                      (d + n) * d * d, fld)

    # normal form of every truncated monomial, as a (d x nm) table
    nf_table = kb.transpose()
    # every product b_i b_j and x_v b_j, gathered in one step as columns of
    # the table; monomials of degree >= N are not in `mon_index` and take
    # the zero column nm
    table = np.hstack([nf_table.a, fld.zeros((d, 1))])
    left = np.vstack([np.array(basis_mons, dtype=np.intp).reshape(d, n),
                      np.eye(n, dtype=np.intp)])
    tot = (left[:, None, :] + left[:d]).reshape((d + n) * d, n).tolist()
    cols = [mon_index.get(tuple(m), nm) for m in tot]
    stack = np.ascontiguousarray(  # [i, a, j]: coordinate a of left[i] * b_j
        table[:, cols].reshape(d, d + n, d).transpose(1, 0, 2))
    stack.flags.writeable = False
    mult, var_stack = stack[:d], stack[d:]

    # socle: simultaneous kernel of the variable actions
    socle = Matrix(fld, var_stack.reshape(n * d, d)).kernel_basis()

    # embedding dimension: dim m minus dim m^2
    m2 = var_stack[:, :, 1:].transpose(1, 0, 2).reshape(d, n * (d - 1))
    emb = (d - 1) - Matrix(fld, m2).rank()

    alg = Algebra(
        field=fld, var_names=list(var_names), nilpotency=nilpotency,
        relation_srcs=list(relations), basis_mons=basis_mons, dim=d,
        mult=mult, var_stack=var_stack,
        socle_basis=socle, embedding_dim=emb,
    )
    alg._mon_index = mon_index  # type: ignore[attr-defined]
    alg._nf_table = nf_table    # type: ignore[attr-defined]
    _validate_algebra(alg)
    return alg


def _check_table_size(what: str, entries: int, fld: Field) -> None:
    """Refuse a table of `entries` entries in `fld.wide` past
    `resolution.MAX_STEP_BYTES`, read at call time (resolution imports
    this module)."""
    from .resolution import MAX_STEP_BYTES
    size = entries * fld.wide.itemsize
    if size > MAX_STEP_BYTES:
        raise AlgebraError(f"{what} would allocate {size} bytes, over "
                           f"MAX_STEP_BYTES = {MAX_STEP_BYTES}")


def _validate_algebra(alg: Algebra) -> None:
    """Internal consistency: commutativity, associativity, nilpotency."""
    d, fld, n = alg.dim, alg.field, alg.nvars
    eye = Matrix.identity(fld, d)
    assert alg.basis_mons[0] == (0,) * n
    assert (alg.mult[0] == eye.a).all()
    # prod[u, v] = x_u x_v
    prod = contract(fld, "uab,vbc->uvac", alg.var_stack, alg.var_stack)
    if not (prod == prod.transpose(1, 0, 2, 3)).all():
        raise AlgebraError("variable actions do not commute")
    if n * d ** 4 <= 64 ** 5:
        # Associativity, L_{b_a b_b} = L_a L_b for L_t = mult[t], from the
        # regular representation: x_v L_t = sum_u X_v[u, t] L_u, and each
        # b_t of degree >= 1 is x_v b_s for a basis monomial b_s
        # (`monomial_steps`), read in column s of X_v.  With mult[0] = I
        # and commuting X_v, induction on degree gives L_t = X^{m_t}, so
        # L_{b_a b_b} = L_{X^{m_a} b_b} = X^{m_a} L_b = L_a L_b.  This
        # costs n d^4 products against d^5 for comparing L_a L_b directly;
        # the cap is the cost d^5 has at d = 64.
        mult, va = alg.mult, alg.var_stack
        if not (all((va[v][:, s] == eye.a[:, t]).all()
                    for v, t, s in alg.monomial_steps)
                and (contract(fld, "vab,tbc->vtac", va, mult) == contract(
                    fld, "vut,uab->vtab", va, mult)).all()):
            raise AlgebraError("multiplication table is not associative")
    # m^N = 0: span m, then m^2, ..., m^N, each m times the last
    span = eye.take_cols(range(1, d))
    for _ in range(alg.nilpotency - 1):
        if span.cols == 0:
            return
        nxt = Matrix(fld, contract(fld, "vab,bc->avc", alg.var_stack, span.a)
                     .reshape(d, n * span.cols))
        span = column_space_basis(nxt)
    if span.cols:
        raise AlgebraError("declared nilpotency bound is violated")


@lru_cache(maxsize=32)
def _cached_algebra(p: int | None, names: tuple, rels: tuple, nilp: int) -> Algebra:
    return build_algebra(Field(p), list(names), list(rels), nilp)


def algebra_from_presentation(pres: dict) -> Algebra:
    """Rebuild an algebra from its serialized presentation dict."""
    ch, nilp = pres["characteristic"], pres["nilpotency"]
    if type(ch) is not int or type(nilp) is not int:
        raise ValueError("characteristic and nilpotency must be integers")
    names, rels = pres["variables"], pres["relations"]
    if not (isinstance(names, list) and isinstance(rels, list)
            and all(isinstance(s, str) for s in names + rels)):
        raise ValueError("variables and relations must be lists of strings")
    return _cached_algebra(ch or None, tuple(names), tuple(rels), nilp)
