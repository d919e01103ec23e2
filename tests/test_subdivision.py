import random
import re
from fractions import Fraction as Fr

import pytest

from skyhn import grmat, hn_core, pipeline, subdivision
from skyhn.grmat import fiber_submodule
from skyhn.subdivision import (ConvexRegion, SlopePoly, all_max_slope,
                               exact_hnf_cell, slope_polynomial)

from skyhn.invariants import Staircase, staircase_at

from conftest import (F2, F3, class_dims, fiber_trees, gm,
                      random_bounded_module, random_unigen_module, rescaled,
                      store_trees)

import reference


def shift_join(M, alpha):
    """M with every row and column degree replaced by its join with alpha."""
    return grmat.GradedMatrix(
        M.field, [reference.join(d, alpha) for d in M.row_degrees],
        [reference.join(d, alpha) for d in M.col_degrees], M.columns)


def _inverse_slope(p, d):
    """The inverse slope p(d) = c0 - cy*d1 - cx*d2 + d1*d2 of the SlopePoly
    p at the offset d, in Fractions."""
    return p.c0 - p.cy * d[0] - p.cx * d[1] + d[0] * d[1]


def test_slope_poly_evaluation():
    p = SlopePoly(Fr(2), Fr(1), Fr(2))
    assert _inverse_slope(p, (Fr(1, 2), Fr(0))) == 1
    assert _inverse_slope(p, (Fr(1, 2), Fr(1, 2))) == \
        2 - 1 - Fr(1, 2) + Fr(1, 4)
    assert p.slope_at(1, 2, 1, 2) == 1 / (2 - 1 - Fr(1, 2) + Fr(1, 4))
    with pytest.raises(ValueError):
        SlopePoly(0, 1, 1)


def test_slope_polynomial_stable(stable):
    p = slope_polynomial(stable)
    assert (p.c0, p.cx, p.cy) == (Fr(9, 2), Fr(5, 2), Fr(5, 2))


def test_slope_polynomial_stable_lines(stable):
    fc, cands = subdivision._subspace_candidates(stable)
    line_polys = sorted((poly.cy, poly.cx) for rows, poly, _ in cands
                        if len(rows) == 1)
    assert line_polys == [(Fr(2), Fr(3)), (Fr(3), Fr(2)), (Fr(3), Fr(3))]
    assert all(poly.c0 == 5 for rows, poly, _ in cands if len(rows) == 1)


def test_slope_polynomial_cross_vertical(cross):
    V = grmat.extract_block(cross, [0], [0, 1])
    V = shift_join(V, (Fr(0), Fr(1)))
    p = slope_polynomial(grmat.minimize(V))
    assert (p.c0, p.cx, p.cy) == (Fr(2), Fr(1), Fr(2))


def test_slope_polynomial_matches_direct_slope(rng):
    for trial in range(20):
        F = F2 if trial % 2 else F3
        M = random_bounded_module(rng, F, rng.randrange(1, 4))
        G = grmat.induced_grid(M)
        for a in G.points():
            sub = fiber_submodule(M, a)
            if sub is None:
                continue
            nx = next((x for x in G.xs if x > a[0]), None)
            ny = next((y for y in G.ys if y > a[1]), None)
            if nx is None or ny is None:
                continue
            p = slope_polynomial(sub)
            for _ in range(5):
                d = ((nx - a[0]) * Fr(rng.randrange(0, 4), 4),
                     (ny - a[1]) * Fr(rng.randrange(0, 4), 4))
                beta = (a[0] + d[0], a[1] + d[1])
                sub_b = fiber_submodule(M, beta)
                direct = reference.integral(sub_b)(
                    reference.dims(sub_b)()) / sub_b.nrows
                assert _inverse_slope(p, d) == direct, (trial, a, beta)
            break


def test_region_clip_and_area():
    R = ConvexRegion.rectangle(0, 0, 2, 2)
    assert R.area() == 4
    half = R.clip(1, 0, 1)     # x <= 1
    assert half.area() == 2
    assert half.contains((Fr(1, 2), Fr(1)))
    assert not half.contains((Fr(3, 2), Fr(1)))
    empty = R.clip(1, 0, -1)
    assert empty.area() == 0


def test_region_has_area_matches_area():
    """has_area decides area() > 0 on integers, also for regions clipped
    to a segment, a point or nothing, and for degenerate rectangles."""
    rng = random.Random(14)
    for _ in range(300):
        x0, y0 = Fr(rng.randrange(-6, 6), rng.randrange(1, 4)), \
            Fr(rng.randrange(-6, 6), rng.randrange(1, 4))
        R = ConvexRegion.rectangle(x0, y0, x0 + Fr(rng.randrange(0, 3), 2),
                                   y0 + Fr(rng.randrange(0, 3), 3))
        for _ in range(rng.randrange(0, 4)):
            R = R.clip(rng.randrange(-2, 3), rng.randrange(-2, 3),
                       Fr(rng.randrange(-9, 9), rng.randrange(1, 5)))
        assert R.has_area() == (R.area() > 0)


def lower_envelope(polys, cell):
    """The (id, region) faces of the minimization diagram of the (id,
    SlopePoly) planes polys on the rectangle cell = (x0, y0, x1, y1), in
    the offset coordinates of both, read off subdivision._envelope_regions
    with the planes in id order."""
    return subdivision._envelope_regions(
        sorted(polys, key=lambda e: e[0]), ConvexRegion.rectangle(*cell),
        (Fr(0), Fr(0)))


def test_envelope_tests_area_of_clipped_regions_only(monkeypatch):
    """A region that no half-plane clipped is the base, whose area is
    tested once: a single plane asks no region for its area(), and a
    degenerate cell still gives no faces."""
    def no_area(self):
        raise AssertionError("area() of an unclipped region")
    monkeypatch.setattr(ConvexRegion, "area", no_area)
    one = [(0, SlopePoly(1, 0, 0))]
    assert len(lower_envelope(one, (0, 0, 1, 1))) == 1
    for cell in [(0, 0, 0, 1), (0, 0, 1, 0), (Fr(1, 2), 0, Fr(1, 2), 0)]:
        assert lower_envelope(one, cell) == []
        assert lower_envelope(one * 2, cell) == []
        assert lower_envelope([(0, SlopePoly(2, 1, 2)),
                               (1, SlopePoly(3, 3, 1))], cell) == []
    monkeypatch.undo()
    faces = lower_envelope([(0, SlopePoly(2, 1, 2)), (1, SlopePoly(3, 3, 1))],
                           (0, 0, 1, 1))
    assert sorted(i for i, _ in faces) == [0, 1]
    assert sum(r.area() for _, r in faces) == 1


def test_lower_envelope_single_plane():
    faces = lower_envelope([(0, SlopePoly(1, 0, 0))], (0, 0, 1, 1))
    assert len(faces) == 1
    assert faces[0][1].area() == 1


def test_lower_envelope_constant_planes():
    faces = lower_envelope([(0, SlopePoly(2, 0, 0)), (1, SlopePoly(1, 0, 0))],
                           (0, 0, 1, 1))
    assert [i for i, _ in faces] == [1]


def test_lower_envelope_cross_wall():
    polys = [(0, SlopePoly(2, 1, 2)),          # e_v
             (1, SlopePoly(3, 3, 1)),          # e_h
             (2, SlopePoly(4, 3, 2)),          # e_v + e_h
             (3, SlopePoly(Fr(5, 2), 2, Fr(3, 2)))]   # whole fiber
    faces = lower_envelope(polys, (0, 0, 1, 1))
    assert sorted(i for i, _ in faces) == [0, 1]
    total = sum(r.area() for _, r in faces)
    assert total == 1
    # the wall is delta2 = (1 + delta1)/2
    fv = dict(faces)[0]
    assert fv.contains((Fr(0), Fr(1, 2)))
    fh = dict(faces)[1]
    assert fh.contains((Fr(0), Fr(3, 4)))
    assert not fh.contains((Fr(0), Fr(1, 4)))


def test_all_max_slope_cross(cross):
    sub = fiber_submodule(cross, (Fr(0), Fr(1)))
    faces = all_max_slope(sub, (0, 1, 1, 2))
    assert len(faces) == 2
    keys = sorted(p.key() for _, _, p in faces)
    assert keys == [(Fr(2), Fr(1), Fr(2)), (Fr(3), Fr(3), Fr(1))]
    assert sum(r.area() for r, _, _ in faces) == 1


def test_all_max_slope_thickness_one():
    M = gm(F2, [(0, 0)], [((2, 0), [(0, 1)]), ((0, 2), [(0, 1)])])
    faces = all_max_slope(M, (0, 0, 1, 1))
    assert len(faces) == 1
    assert faces[0][0].area() == 1


def test_exact_tree_stable_near_origin(stable):
    # on [0,1/2)^2 the whole space owns the envelope: depth-1 tree with a
    # single thickness-2 semistable factor
    tree = exact_hnf_cell(stable, (0, 0, Fr(1, 2), Fr(1, 2)))
    assert len(tree.root.children) == 1
    node = tree.root.children[0]
    assert node.children == []
    assert node.factor_dim == 2


def test_exact_tree_stable_destabilizes_in_first_cell(stable):
    # beyond the wall delta1 + delta2 = 1 a line takes over; the brute
    # engine agrees at an interior point of that face
    tree = exact_hnf_cell(stable, (0, 0, 1, 1))
    assert len(tree.root.children) == 2
    beta = (Fr(3, 4), Fr(3, 4))
    fl = tree.factors_at(beta)
    assert [f.slope for f in fl.factors] == [Fr(16, 17), Fr(16, 25)]
    assert fl == hn_core.hn_filtration_at(stable, beta)


def test_exact_tree_reads_a_minimal_fiber(stable):
    """exact_hnf_cell takes the fiber at alpha as its input presents it: a
    nonzero relation at the generator degree, which would shrink that
    fiber, raises ValueError; a redundant relation above alpha changes no
    class rank, so the tree reads the same everywhere."""
    rels = list(zip(stable.col_degrees, stable.columns))
    at_alpha = gm(F2, [(0, 0), (0, 0)], rels + [((0, 0), [(0, 1)])])
    with pytest.raises(ValueError, match="relation at the generator degree"):
        exact_hnf_cell(at_alpha, (0, 0, 1, 1))
    redundant = gm(F2, [(0, 0), (0, 0)], rels + [((3, 3), [(0, 1)])])
    want = exact_hnf_cell(stable, (0, 0, 1, 1))
    got = exact_hnf_cell(redundant, (0, 0, 1, 1))
    for i in range(4):
        for j in range(4):
            beta = (Fr(i, 4), Fr(j, 4))
            assert got.factors_at(beta) == want.factors_at(beta), beta


def test_exact_tree_cross_structure(cross):
    sub = fiber_submodule(cross, (Fr(0), Fr(1)))
    tree = exact_hnf_cell(sub, (0, 1, 1, 2))
    assert len(tree.root.children) == 2
    for child in tree.root.children:
        assert len(child.children) == 1
        assert child.children[0].children == []


def test_exact_tree_cross_factors(cross):
    sub = fiber_submodule(cross, (Fr(0), Fr(1)))
    tree = exact_hnf_cell(sub, (0, 1, 1, 2))
    fl = tree.factors_at((Fr(0), Fr(19, 10)))
    assert [f.slope for f in fl.factors] == [Fr(10, 3), Fr(10, 11)]
    assert fl == hn_core.hn_filtration_at(cross, (Fr(0), Fr(19, 10)))


def test_exact_tree_outside_point_rejected(cross):
    sub = fiber_submodule(cross, (Fr(0), Fr(1)))
    tree = exact_hnf_cell(sub, (0, 1, 1, 2))
    with pytest.raises(ValueError):
        tree.factors_at((Fr(5), Fr(5)))


def test_path_slopes_strictly_decrease(cross, rng):
    sub = fiber_submodule(cross, (Fr(0), Fr(1)))
    tree = exact_hnf_cell(sub, (0, 1, 1, 2))
    for _ in range(10):
        beta = (Fr(rng.randrange(0, 8), 8), 1 + Fr(rng.randrange(0, 8), 8))
        slopes = [f.slope for f in tree.factors_at(beta).factors]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_exact_tree_matches_brute_random(rng):
    checked = 0
    for trial in range(25):
        F = F2 if trial % 2 else F3
        M = random_bounded_module(rng, F, rng.randrange(1, 4))
        G = grmat.induced_grid(M)
        for a in G.points():
            sub = fiber_submodule(M, a)
            if sub is None:
                continue
            nx = next((x for x in G.xs if x > a[0]), None)
            ny = next((y for y in G.ys if y > a[1]), None)
            if nx is None or ny is None:
                continue
            tree = exact_hnf_cell(sub, (a[0], a[1], nx, ny))
            for _ in range(3):
                beta = (a[0] + (nx - a[0]) * Fr(rng.randrange(0, 8), 8),
                        a[1] + (ny - a[1]) * Fr(rng.randrange(0, 8), 8))
                assert tree.factors_at(beta) == \
                    hn_core.hn_filtration_at(M, beta), (trial, a, beta)
                checked += 1
    assert checked > 100


def _warp(M):
    """M with degrees moved by increasing maps of each axis onto
    coordinates over denominators 2, 3 and 5 (the module is unchanged up
    to reparametrization, but the axes get different common denominators)."""
    def fx(c):
        return c / 2 + (Fr(1, 3) if c >= 2 else 0)

    def fy(c):
        return c / 3 + (Fr(1, 5) if c >= 1 else 0)

    return grmat.GradedMatrix(M.field,
                              [(fx(x), fy(y)) for x, y in M.row_degrees],
                              [(fx(x), fy(y)) for x, y in M.col_degrees],
                              M.columns)


def test_subspace_candidates_match_fraction_reference():
    rng = random.Random(4242)
    for F, t in ((F3, 3), (F3, 4), (F2, 5)):
        for _ in range(2):
            M = random_unigen_module(rng, F, t)
            while len([r for r, _ in grmat.connected_components(M)
                       if r]) != 1:
                M = random_unigen_module(rng, F, t)
            for N in (M, _warp(M)):
                fc, cands = subdivision._subspace_candidates(N)
                got = [(rows, poly.key(), class_dims(fc, ranks))
                       for rows, poly, ranks in cands]
                assert got == reference.candidates(N)


# ---------------------------------------------------------------------------
# integer reads of a tree against their Fraction references

def _rational_axis(rng):
    """4-6 sorted distinct coordinates, negative and over denominators 1,
    2 and 3."""
    while True:
        cs = sorted({Fr(rng.randrange(-8, 8), rng.choice((1, 2, 3)))
                     for _ in range(6)})
        if len(cs) >= 4:
            return cs


def test_staircase_at_matches_fraction_reference():
    """Transport to beta at alpha, inside the first cell, on its upper
    lines, beyond them (where the staircase can become empty, which must
    raise the same error) and at points over other denominators."""
    rng = random.Random(31)
    n_raised = n_moved = 0
    for _ in range(300):
        xs, ys = _rational_axis(rng), _rational_axis(rng)
        alpha = (xs[0], ys[0])
        pts = [(x, y) for x in xs for y in ys if (x, y) != alpha]
        S = Staircase(alpha, reference.minimal_points(
            rng.sample(pts, rng.randrange(0, 5))))
        cx = [xs[0], (xs[0] + xs[1]) / 2, xs[1], xs[2],
              xs[0] + Fr(1, rng.choice((5, 7)))]
        cy = [ys[0], (ys[0] + ys[1]) / 2, ys[1], ys[2],
              ys[0] + Fr(1, rng.choice((5, 7)))]
        for beta in [(x, y) for x in cx for y in cy]:
            try:
                want = reference.transport(S, beta)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    staircase_at(S, beta)
                n_raised += 1
                continue
            got = staircase_at(S, beta)
            assert got == want and got.rels == want.rels
            n_moved += got.rels != S.rels
    assert n_raised > 0 and n_moved > 0


def _undecomposed_trees(M):
    """The subdivision trees of every cell of every connected block of the
    clipped, minimized M, built on each block whole rather than on its
    decompose pieces: exact_hnf_cell on the connected blocks of the
    block's fiber submodule at each cell corner (fiber_trees), fibers of
    one generator included."""
    trees = []
    for block in pipeline._clipped_blocks(M, pipeline.bounding_box(M)):
        grid = grmat.induced_grid(block)
        for corner in grid.points():
            trees += fiber_trees(block, grid, corner)
    return trees


def test_tree_read_slopes_match_fraction_reference():
    """The slopes that SubdivTree.factors_at evaluates on ints, against
    1 / _inverse_slope(poly, delta) in Fractions for the nodes on the path,
    with equal consecutive slopes merged, on the trees of rescaled random
    modules (alpha negative and non-integral) at points beta of each cell
    over denominators 5 and 7.  The trees are built on undecomposed
    blocks, so that some reads have more than one factor."""
    rng = random.Random(34)
    n_reads = n_negative = n_steps = 0
    for i in range(12):
        M = rescaled(random_bounded_module(rng, (F2, F3)[i % 2],
                                           1 + i % 3, dmax=3))
        for t in _undecomposed_trees(M):
            x0, y0, x1, y1 = t.cell
            for _ in range(4):
                beta = (x0 + (x1 - x0) * Fr(rng.randrange(0, 7), 7),
                        y0 + (y1 - y0) * Fr(rng.randrange(0, 5), 5))
                delta = (beta[0] - t.alpha[0], beta[1] - t.alpha[1])
                want = []
                for node in t.path(beta):
                    slope = 1 / _inverse_slope(node.poly, delta)
                    if not want or want[-1] != slope:
                        want.append(slope)
                got = [f.slope for f in t.factors_at(beta).factors]
                assert got == want, (i, t.alpha, beta)
                assert all(type(s) is Fr for s in got)
                n_reads += 1
                n_negative += min(t.alpha) < 0 and min(beta) < 0
                n_steps += len(got) > 1
    assert n_reads > 100 and n_negative > 20 and n_steps > 0


def _tree_regions(rng):
    """Every region of the trees of the cells of the exact stores of
    rescaled random modules (negative degrees over denominators 2 and 3),
    one-generator fibers included (store_trees), and clips of rectangles
    by random rational half-planes."""
    out = []
    for i in range(10):
        M = rescaled(random_bounded_module(rng, (F2, F3)[i % 2],
                                           1 + i % 3, dmax=3))
        todo = [t.root for t in store_trees(pipeline.exact_skyscraper(M))]
        while todo:
            node = todo.pop()
            out.append(node.region)
            todo += node.children
    for _ in range(40):
        R = ConvexRegion.rectangle(Fr(-1, 2), Fr(-2, 3), Fr(3, 2), 1)
        for _ in range(rng.randrange(1, 4)):
            R = R.clip(Fr(rng.randrange(-5, 6), rng.randrange(1, 4)),
                       Fr(rng.randrange(-5, 6), rng.randrange(1, 4)),
                       Fr(rng.randrange(-3, 4), rng.randrange(1, 6)))
        out.append(R)
    return out


def test_region_contains_matches_fraction_reference():
    """Cross-multiplied integer membership against the Fraction half-plane
    test at each region's vertices, on its walls (edge midpoints and
    thirds), inside it, and at random points, ints among them."""
    rng = random.Random(32)
    regions = _tree_regions(rng)
    n_walls = 0
    for R in regions:
        vs = R.vertices
        pts = list(vs)
        for p, q in zip(vs, vs[1:] + vs[:1]):
            pts += [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2),
                    ((2 * p[0] + q[0]) / 3, (2 * p[1] + q[1]) / 3)]
        pts += [(Fr(rng.randrange(-12, 12), rng.randrange(1, 8)),
                 Fr(rng.randrange(-12, 12), rng.randrange(1, 8)))
                for _ in range(8)]
        pts += [(rng.randrange(-2, 3), rng.randrange(-2, 3))
                for _ in range(3)]
        for p in pts + rng.choice(regions).vertices:
            want = reference.region_holds(R, p)
            assert R.contains(p) == want
            n_walls += want and any(a * p[0] + b * p[1] == c
                                    for a, b, c in R.halfplanes)
    assert len(regions) > 60 and n_walls > 100
