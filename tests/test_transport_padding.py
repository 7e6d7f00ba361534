"""The padding in the chain transports, against the block loops it replaced.

Each case is a transport whose padded steps carry free blocks:
- an example certificate followed by the split step
  0 -> K^a -> K^a + syz(K) -> syz(K) -> 0 on its last middle K, shifted
  by `transform_syzygy` (the first horseshoe's free summand pads the
  second step) and, over the Gorenstein ring of `line3.json`, lifted back
  by `transform_cosyzygy`;
- the same with the non-split first step 0 -> k -> R/x^2 -> syz^2(k) -> 0
  on `line3.json`, whose middle has a nonzero syzygy, so the second
  step's copies each hold a syzygy block and a free block;
- `transform_cosyzygy` on `line3.json` of a chain whose base is
  syz(M) + R^c: the one `search` finds, and a split step with a = 2.

Every case runs twice, each time on a freshly loaded workspace: once with
`reducing._padded`, once with `reference_padded`, which builds the same
maps with explicit loops over the a copies (the syzygy transport's
injection, and the cosyzygy transport's gather matrix `kappa`).  The two
transported chains must be equal, and the chain must verify.
"""

from pathlib import Path

import pytest

from redhom import reducing
from redhom.homalg import Ext1Data, extension_from_class
from redhom.linalg import Matrix
from redhom.modules import (ModuleMap, direct_sum, free_module, power_module,
                            split_ses)
from redhom.reducing import (ReducingSequence, ReducingStep, search,
                             sequence_to_dict, transform_cosyzygy,
                             transform_syzygy, verify)
from redhom.resolution import syzygy
from redhom.workspace import load_workspace

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

CERTIFICATES = [("line3", "cert_rx"), ("line3", "cert_rx_gdim"),
                ("plane", "cert_k"), ("square_zero_e3", "cert_k")]
CASES = ([("syzygy", "certificate", ws, cert, a)
          for ws, cert in CERTIFICATES for a in (1, 2, 3)]
         + [("round trip", "certificate", "line3", cert, a)
            for cert in ("cert_rx", "cert_rx_gdim") for a in (1, 2, 3)]
         + [(way, "glued", "line3", "k", a)
            for way in ("syzygy", "round trip") for a in (2, 3)]
         + [("cosyzygy", chain, "line3", m, c)
            for chain in ("search", "split") for m in ("Rx", "Rx2", "k")
            for c in (1, 2)])


def reference_padded(ses, a, c_prev):
    alg = ses.left.algebra
    (omega, _), (free, _) = ses.middle.summands
    fld, d, f = alg.field, alg.dim, free.free_rank
    s_prev = ses.left.dim // a
    head = omega.dim + f * d  # rows of the horseshoe's own middle
    blk = s_prev + c_prev * d
    middle = direct_sum([omega, free_module(alg, f + a * c_prev)])
    # the syzygy transport's loop: copy t's syzygy block goes through the
    # horseshoe, its free block onto the t-th padding block
    inj = Matrix.zeros(fld, middle.dim, a * blk)
    for t in range(a):
        inj.a[:head, t * blk:t * blk + s_prev] = \
            ses.inject.matrix.a[:, t * s_prev:(t + 1) * s_prev]
        row0 = head + t * c_prev * d
        inj.a[row0:row0 + c_prev * d, t * blk + s_prev:(t + 1) * blk] = \
            Matrix.identity(fld, c_prev * d).a
    # the cosyzygy transport's loop: kappa gathers the syzygy blocks in
    # front and the free blocks behind
    kappa = Matrix.zeros(fld, a * blk, a * blk)
    for t in range(a):
        kappa.a[t * s_prev:(t + 1) * s_prev, t * blk:t * blk + s_prev] = \
            Matrix.identity(fld, s_prev).a
        row0 = a * s_prev + t * c_prev * d
        kappa.a[row0:row0 + c_prev * d, t * blk + s_prev:(t + 1) * blk] = \
            Matrix.identity(fld, c_prev * d).a
    i2 = Matrix.zeros(fld, middle.dim, a * blk)
    i2.a[:head, :a * s_prev] = ses.inject.matrix.a
    i2.a[head:, a * s_prev:] = Matrix.identity(fld, a * c_prev * d).a
    assert i2 @ kappa == inj
    proj = Matrix.zeros(fld, ses.right.dim, middle.dim)
    proj.a[:, :head] = ses.project.matrix.a
    return middle, inj, proj


def split_step(last, a):
    """0 -> last^a -> last^a + syz(last) -> syz(last) -> 0."""
    right = syzygy(last, 1)
    return ReducingStep(a, 1, 1, split_ses(power_module(last, a), right),
                        ModuleMap.identity(right))


def build_chain(chain, ws, name, p):
    if chain == "certificate":
        cert = ws.certificate(name)
        return ReducingSequence(
            cert.base, cert.steps + [split_step(cert.module_at(cert.r), p)],
            cert.target)
    mod = ws.module(name)
    if chain == "glued":
        right = syzygy(mod, 2)
        data = Ext1Data(right, mod)
        ses = extension_from_class(
            data, Matrix.identity(ws.algebra.field, 1))
        return ReducingSequence(mod, [
            ReducingStep(1, 1, 2, ses, ModuleMap.identity(right)),
            split_step(ses.middle, p)], "gdim")
    base = direct_sum([syzygy(mod, 1), free_module(ws.algebra, p)])
    if chain == "search":
        return search(base, "pd").sequence
    return ReducingSequence(base, [split_step(base, 2)], "gdim")


def transport(way, chain, ws_name, name, p):
    ws = load_workspace(EXAMPLES / f"{ws_name}.json")
    seq = build_chain(chain, ws, name, p)
    if way == "cosyzygy":
        return transform_cosyzygy(seq, ws.module(name))
    shifted = transform_syzygy(seq)
    if way == "syzygy":
        return shifted
    return transform_cosyzygy(shifted, seq.base)


@pytest.mark.parametrize("case", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_padded_steps_match_block_loops(monkeypatch, case):
    padded = reducing._padded
    carried = []

    def spy(build):
        def run(ses, a, c_prev):
            carried.append(c_prev)
            return build(ses, a, c_prev)
        return run

    monkeypatch.setattr(reducing, "_padded", spy(reference_padded))
    expected = transport(*case)
    monkeypatch.setattr(reducing, "_padded", spy(padded))
    out = transport(*case)
    assert max(carried) > 0  # some step pads with free blocks
    # every step's inject and project, and its middle and witness
    assert sequence_to_dict(out) == sequence_to_dict(expected)
    assert verify(out).ok
