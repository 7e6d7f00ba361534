"""Two facts about modules over an Artinian local ring that the engine
reads instead of checking at run time.

A module that is not free has no zero syzygy: depth R = 0, so by
Auslander-Buchsbaum a module of finite projective dimension is free, and
a non-free module has infinite projective dimension.  `_dfs` therefore
tests no syzygy for zero, and the remainder X of a non-free M = R^c + X is
nonzero.

Hom(M, N) is nonzero for nonzero M and N: M maps onto k and k into soc N.
More precisely Hom(M, soc N) = Hom_k(M/mM, soc N) sits inside Hom(M, N),
so dim Hom(M, N) >= (generators of M) * dim soc N.  So `is_isomorphic`
never meets an empty Hom space between nonzero modules of equal size, and
`p_invariant` always finds a nonvanishing index, Ext^0, for nonzero
modules.  Both checks are derandomized over F_2, F_3 and Q.
"""

from hypothesis import assume, given, settings, strategies as st

from redhom.algebra import build_algebra
from redhom.corpus import random_module
from redhom.homalg import p_invariant
from redhom.linalg import GF2, GF3, QQ
from redhom.modules import hom_space_matrix, split_free_summands
from redhom.resolution import syzygy

RINGS = [build_algebra(fld, names, rels, nil) for fld, names, rels, nil in (
    (GF2, ["x", "y"], [], 2), (GF2, ["x", "y"], [], 3),
    (GF2, ["x", "y", "z"], ["x^2", "y^2", "y*z", "z^2"], 3),
    (GF3, ["x", "y"], [], 2), (GF3, ["x"], [], 4),
    (GF3, ["x", "y"], ["x^2", "y^2"], 3),
    (QQ, ["x", "y"], [], 2), (QQ, ["x"], [], 3))]


@given(st.sampled_from(range(len(RINGS))), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_a_non_free_module_has_no_zero_syzygy(ring, seed):
    mod = random_module(RINGS[ring], 3, 3, seed)
    assume(not mod.is_free())
    assert split_free_summands(mod).remainder.dim > 0
    assert all(syzygy(mod, n).dim > 0 for n in range(1, 4))


@given(st.sampled_from(range(len(RINGS))), st.integers(0, 10**6),
       st.integers(0, 10**6))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_nonzero_modules_have_a_nonzero_map(ring, s, t):
    m, n = (random_module(RINGS[ring], 2, 2, seed) for seed in (s, t))
    assert hom_space_matrix(m, n).cols >= m.gens_count() * n.socle_dim() >= 1
    value = p_invariant(m, n, 2)
    assert value.dims[0] > 0 and value.kind in ("finite", "above_window")
