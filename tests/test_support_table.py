"""The integer support table of the subdivisions against the intern loops
it replaced.

``reference_crystalline``, ``reference_barycentric`` and
``reference_compose`` are the subdivision code as it ran before the table:
one ``Fraction`` support tuple per child vertex, interned in a dict in
loop order, coordinates added term by term, and compositions multiplied
out in ``Fraction``s.  The table must reproduce their vertex ids, vertex
bytes, top simplices and supports exactly.
"""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from jigglekit.cli import box_grid, standard_simplex, strip, unit_square_grid
from jigglekit.complexes import (
    SimplicialComplex,
    SubdivisionMap,
    barycentric_subdivide,
    build_complex,
    compose_subdivisions,
    crystalline_subdivide,
)
from jigglekit.engine import _linearize_exactly
from jigglekit.errors import PreconditionViolated
from jigglekit.plmaps import PLMap, linearize


class ReferenceInterner:
    """Dedup table for subdivision vertices keyed by exact rational support."""

    def __init__(self, parent):
        self.parent = parent
        self.coords = [parent.vertices[i] for i in range(parent.num_vertices)]
        self.support = {i: ((i, Fraction(1)),) for i in range(parent.num_vertices)}
        self._table = {((i, Fraction(1)),): i for i in range(parent.num_vertices)}

    def intern(self, support):
        vid = self._table.get(support)
        if vid is not None:
            return vid
        point = np.zeros(self.parent.ambient_dim)
        for gid, frac in support:
            point = point + float(frac) * self.parent.vertices[gid]
        vid = len(self.coords)
        self.coords.append(point)
        self.support[vid] = support
        self._table[support] = vid
        return vid

    def build(self, child_tops):
        child = SimplicialComplex(self.parent.ambient_dim, np.array(self.coords),
                                  child_tops)
        return child, dict(self.support)


def reference_crystalline(complex_, levels):
    if levels == 0:
        return complex_, {i: ((i, Fraction(1)),) for i in range(complex_.num_vertices)}
    scale = 2 ** levels
    interner = ReferenceInterner(complex_)
    child_tops = []
    for top in sorted(complex_.top_simplices):
        m = len(top) - 1
        if m == 0:
            child_tops.append(top)
            continue
        for z in itertools.product(range(scale), repeat=m):
            for chain in itertools.permutations(range(m)):
                cube_vertices = [list(z)]
                for t in range(m):
                    nxt = list(cube_vertices[-1])
                    nxt[chain[m - 1 - t]] += 1
                    cube_vertices.append(nxt)
                csum = [sum(v[i] for v in cube_vertices) for i in range(m)]
                if any(csum[i] >= csum[i + 1] for i in range(m - 1)):
                    continue
                ids = []
                for u in cube_vertices:
                    ns = (0, *u, scale)
                    support = tuple((top[j], Fraction(ns[j + 1] - ns[j], scale))
                                    for j in range(m + 1) if ns[j + 1] != ns[j])
                    ids.append(interner.intern(support))
                child_tops.append(tuple(sorted(ids)))
    return interner.build(child_tops)


def reference_barycentric(complex_):
    interner = ReferenceInterner(complex_)

    def face_barycenter(face):
        frac = Fraction(1, len(face))
        return interner.intern(tuple((g, frac) for g in face))

    child_tops = []
    for top in sorted(complex_.top_simplices):
        if len(top) == 1:
            child_tops.append(top)
            continue
        for perm in itertools.permutations(top):
            child_tops.append(tuple(sorted(
                face_barycenter(tuple(sorted(perm[:r]))) for r in range(1, len(perm) + 1))))
    return interner.build(child_tops)


def reference_compose(first, second):
    """Supports over the first map's parent, from two support dicts."""
    out = {}
    for vid, outer in second.items():
        acc = {}
        for mid, w in outer:
            for gid, inner_w in first[mid]:
                acc[gid] = acc.get(gid, Fraction(0)) + w * inner_w
        out[vid] = tuple(sorted(acc.items()))
    return out


def assert_same_subdivision(got, want):
    (child, smap), (ref_child, ref_support) = got, want
    assert child.vertices.tobytes() == ref_child.vertices.tobytes()
    assert child.top_simplices == ref_child.top_simplices
    assert smap.vertex_support == ref_support
    assert smap.child is child


def mixed_complex():
    """A triangle, a dangling edge and an isolated vertex."""
    return build_complex(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 0.5), (3.0, 3.0)],
                         [(0, 1, 2), (1, 3), (4,)])


def signed_zero_triangle():
    return build_complex(2, [(-0.0, 1.0), (1.0, -0.0), (-1.0, -0.0)], [(0, 1, 2)])


def fan():
    return build_complex(2, [(0, 0), (2, 3), (4, 1), (1, 1.5), (2, 1.5)],
                         [(0, 3, 4), (1, 3, 4), (1, 2, 4), (0, 2, 4)])


CASES = [(f"simplex-{m}", standard_simplex(m), lv)
         for m in (1, 2, 3) for lv in range(5 if m < 3 else 4)]
CASES += [("mixed", mixed_complex(), lv) for lv in (0, 1, 2, 3)]
CASES += [("signed-zero", signed_zero_triangle(), lv) for lv in (1, 2)]
CASES += [("square-grid-2", unit_square_grid(2), lv) for lv in (1, 2, 3)]
CASES += [("strip-3", strip(3), 2), ("box-grid-1", box_grid(1), 2), ("fan", fan(), 3)]


@pytest.mark.parametrize("name, K, level", CASES,
                         ids=[f"{n}-level-{lv}" for n, _, lv in CASES])
def test_table_reproduces_the_intern_loops(name, K, level):
    cryst = crystalline_subdivide(K, level)
    assert_same_subdivision(cryst, reference_crystalline(K, level))
    child, cmap = cryst
    bary = barycentric_subdivide(child)
    ref_bary = reference_barycentric(child)
    assert_same_subdivision(bary, ref_bary)
    assert compose_subdivisions(cmap, bary[1]).vertex_support == \
        reference_compose(cmap.vertex_support, ref_bary[1])


def test_parent_vertices_keep_their_signed_zeros():
    K = signed_zero_triangle()
    for child, _ in (crystalline_subdivide(K, 2), barycentric_subdivide(K)):
        assert child.vertices[:3].tobytes() == K.vertices.tobytes()
        assert ((child.vertices[:3] == 0) & np.signbit(child.vertices[:3])).sum() == 3


def test_native_linearize_reproduces_the_loop_and_its_error():
    """A native ``linearize`` adds each vertex's support terms in support
    order; with an infinite image the first non-finite child vertex, and so
    the error naming it, is the loop's."""
    K = unit_square_grid(2)
    images = K.vertices * np.array([1.0, -2.0])
    images[4] = (np.inf, 0.5)
    images[7] = (-np.inf, -0.0)
    f = PLMap(K, images)
    _, ref_support = reference_crystalline(K, 2)
    # the infinities above make NaNs on purpose, in linearize and in the loop
    with np.errstate(invalid="ignore", over="ignore"):
        flin, child, smap = linearize(f, K, 2)
        want = np.zeros((child.num_vertices, 2))
        for vid in range(child.num_vertices):
            acc = np.zeros(2)
            for gid, frac in ref_support[vid]:
                acc = acc + float(frac) * images[gid]
            want[vid] = acc
    assert flin.images.tobytes() == want.tobytes()
    # linearize alone makes its NaNs quietly: the caller raises a typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert linearize(f, K, 2)[0].images.tobytes() == want.tobytes()
    bad = int(np.flatnonzero(~np.isfinite(want).all(axis=1))[0])
    with pytest.raises(PreconditionViolated,
                       match=f"non-finite value at vertex {bad}$"), \
            np.errstate(invalid="ignore", over="ignore"):
        _linearize_exactly(f, K, 2)


def test_denominators_stop_at_two_to_the_62():
    K = standard_simplex(1)
    with pytest.raises(PreconditionViolated, match="2\\*\\*62"):
        crystalline_subdivide(K, 63)

    def identity(denominator):
        ids = np.arange(K.num_vertices)[:, None]
        return SubdivisionMap(K, K, ids, np.full(ids.shape, denominator), denominator)

    assert compose_subdivisions(identity(2 ** 40), identity(2 ** 22)).denominator == 2 ** 62
    with pytest.raises(PreconditionViolated, match="2\\*\\*62"):
        compose_subdivisions(identity(2 ** 40), identity(2 ** 23))
