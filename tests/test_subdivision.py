import random
from fractions import Fraction as Fr

import pytest

from skyhn import grmat, hn_core, subdivision
from skyhn.subdivision import (ConvexRegion, SlopePoly, all_max_slope,
                               exact_hnf_cell, lower_envelope,
                               slope_polynomial)

from conftest import (F2, F3, gm, random_bounded_module,
                      random_unigen_module)


def fiber_submodule(M, alpha):
    pm = grmat.pointwise_model(M, alpha)
    S = grmat.GradedMatrix(M.field, M.row_degrees, [alpha] * pm.dim,
                           [[(i, 1)] for i in pm.basis_rows])
    return grmat.minimize(grmat.submodule_presentation(M, S))


def test_slope_poly_evaluation():
    p = SlopePoly(Fr(2), Fr(1), Fr(2))
    assert p.truncated((Fr(1, 2), Fr(0))) == 1
    assert p.inverse_slope((Fr(1, 2), Fr(1, 2))) == \
        2 - 1 - Fr(1, 2) + Fr(1, 4)
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
    V = grmat.shift_join(V, (Fr(0), Fr(1)))
    p = slope_polynomial(grmat.minimize(V))
    assert (p.c0, p.cx, p.cy) == (Fr(2), Fr(1), Fr(2))


def test_slope_polynomial_matches_direct_slope(rng):
    for trial in range(20):
        F = F2 if trial % 2 else F3
        M = random_bounded_module(rng, F, rng.randrange(1, 4))
        G = grmat.induced_grid(M)
        for a in G.points():
            sub = fiber_submodule(M, a)
            if sub.nrows == 0:
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
                from skyhn.invariants import integral_of
                direct = integral_of(sub_b) / sub_b.nrows
                assert p.inverse_slope(d) == direct, (trial, a, beta)
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
            if sub.nrows == 0:
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


def _reference_candidates(M):
    """Candidates from fc.dims and the Fraction ray integrals of the dim
    function, deduplicated by polynomial keeping the largest dimension."""
    fc = hn_core.fiber_classes(M)
    ax, ay = fc.alpha

    def ray(coords, point):
        return sum((dims[point(c)] * (cn - c)
                    for c, cn in zip(coords, coords[1:])), Fr(0))

    by_poly, order = {}, []
    for k in range(1, M.nrows + 1):
        for rows in hn_core.subspaces_of_dim(M.field, M.nrows, k):
            iv = fc.to_internal(rows)
            dims = fc.dims(iv)
            ys = [y for y in fc.grid.ys if y >= ay]
            xs = [x for x in fc.grid.xs if x >= ax]
            poly = SlopePoly(fc.integral(iv) / k,
                             ray(xs, lambda x: (x, ay)) / k,
                             ray(ys, lambda y: (ax, y)) / k)
            key = poly.key()
            if key not in by_poly:
                order.append(key)
            if key not in by_poly or k > len(by_poly[key][0]):
                by_poly[key] = (rows, dims)
    return [(by_poly[key][0], key, by_poly[key][1]) for key in order]


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
                _, cands = subdivision._subspace_candidates(N)
                got = [(rows, poly.key(), dims) for rows, poly, dims in cands]
                assert got == _reference_candidates(N)
