"""Acceptance gate: ten criteria, one pass/fail line each (written straight
to the terminal so they appear regardless of capture)."""

import functools
import random
import time
from fractions import Fraction as Fr

from skyhn import cheng, field as fieldmod, grmat, hn_core, invariants, \
    subdivision
from skyhn.grmat import Grid
from skyhn.invariants import erosion_distance
from skyhn.pipeline import (ScanConfig, approx_skyscraper, clip_to_box,
                            exact_skyscraper, parallel_grid_scan)

from conftest import (F2, F3, class_integral, cross_module,
                      random_bounded_module, random_unigen_module,
                      stable_module)

import reference


RESULTS = []   # (n, "PASS"/"FAIL", desc, seconds); printed by conftest


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = time.time()
            try:
                fn(*a, **k)
            except BaseException:
                RESULTS.append((n, "FAIL", desc, time.time() - t0))
                raise
            RESULTS.append((n, "PASS", desc, time.time() - t0))
        return wrapper
    return deco


def fiber_submodule(M, alpha):
    pm = grmat.pointwise_model(M, alpha)
    S = grmat.GradedMatrix(M.field, M.row_degrees, [alpha] * pm.dim,
                           [[(i, 1)] for i in pm.basis_rows])
    return grmat.minimize(grmat.submodule_presentation(M, S))


def _presentation(S):
    """The one-generator presentation over F_2 of the staircase S: a
    relation column of entry 1 at each relation degree."""
    return grmat.GradedMatrix(F2, [S.gen], list(S.rels),
                              [[(0, 1)] for _ in S.rels])


@criterion(1, "slope polynomials of the thickness-2 semistable fixture")
def test_acceptance_1():
    t0 = time.time()
    M = stable_module()
    p = subdivision.slope_polynomial(M)
    assert (p.c0, p.cx, p.cy) == (Fr(9, 2), Fr(5, 2), Fr(5, 2))
    fc, cands = subdivision._subspace_candidates(M)
    lines = [(poly.cy, poly.cx) for rows, poly, _ in cands if len(rows) == 1]
    assert all(poly.c0 == 5 for rows, poly, _ in cands if len(rows) == 1)
    assert sorted(lines) == [(Fr(2), Fr(3)), (Fr(3), Fr(2)), (Fr(3), Fr(3))]
    assert time.time() - t0 < 1.0


@criterion(2, "semistability: whole space slope 2/9, every line 1/5")
def test_acceptance_2():
    M = stable_module()
    rec = hn_core.brute_force_max_slope(M)
    assert rec.dim == 2 and rec.slope == Fr(2, 9)
    fc = hn_core.fiber_classes(M)
    for rows in hn_core.subspaces_of_dim(F2, 2, 1):
        assert class_integral(fc, fc.to_internal(rows)) == 5


@criterion(3, "cross fixture end-to-end: slopes 1/2, 1/3 and the envelope "
              "wall delta2=(1+delta1)/2")
def test_acceptance_3():
    M = cross_module()
    fl = hn_core.hn_filtration_at(M, (Fr(0), Fr(1)))
    assert [f.slope for f in fl.factors] == [Fr(1, 2), Fr(1, 3)]
    sub = fiber_submodule(M, (Fr(0), Fr(1)))
    faces = subdivision.all_max_slope(sub, (0, 1, 1, 2))
    assert len(faces) == 2
    by_key = {p.key(): r for r, _, p in faces}
    fv = by_key[(Fr(2), Fr(1), Fr(2))]     # vertical line wins below
    fh = by_key[(Fr(3), Fr(3), Fr(1))]     # horizontal line wins above
    # wall in absolute coordinates: y = 1 + (1 + (x-0))/2 = (3+x)/2
    for x in (Fr(0), Fr(1, 2), Fr(1)):
        w = (x, (3 + x) / 2)
        assert any(abs(a * w[0] + b * w[1] - c) == 0
                   for a, b, c in fv.halfplanes[4:])
    assert fv.contains((Fr(0), Fr(5, 4)))
    assert fh.contains((Fr(0), Fr(7, 4)))
    assert sum(r.area() for r, _, _ in faces) == 1


@criterion(4, "cross-validation of brute (filter on/off), exact cell trees, "
              "and the randomized engine on 200 random modules")
def test_acceptance_4():
    t0 = time.time()
    rng = random.Random(4)
    mismatches = 0
    modules = 0
    while modules < 200:
        F = F2 if modules % 2 else F3
        thickness = rng.randrange(1, 5)
        M = random_bounded_module(rng, F, thickness)
        G = grmat.induced_grid(M)
        pts = [p for p in G.points()
               if grmat.pointwise_model(M, p).dim > 0]
        if not pts:
            continue
        modules += 1
        beta0 = pts[rng.randrange(len(pts))]
        a = hn_core.hn_filtration_at(M, beta0, use_filter=True)
        b = hn_core.hn_filtration_at(M, beta0, use_filter=False)
        if a != b:
            mismatches += 1
        # exact cell at 3 random interior points
        ax, ay = beta0
        nx = next((x for x in G.xs if x > ax), None)
        ny = next((y for y in G.ys if y > ay), None)
        if nx is not None and ny is not None:
            sub = fiber_submodule(M, beta0)
            if sub.nrows:
                tree = subdivision.exact_hnf_cell(sub, (ax, ay, nx, ny))
                for _ in range(3):
                    beta = (ax + (nx - ax) * Fr(rng.randrange(0, 8), 8),
                            ay + (ny - ay) * Fr(rng.randrange(0, 8), 8))
                    if tree.factors_at(beta) != \
                            hn_core.hn_filtration_at(M, beta):
                        mismatches += 1
        # randomized engine on the smaller instances
        if thickness <= 3 and len(G.xs) <= 5 and len(G.ys) <= 5:
            c = cheng.hn_cheng(M, beta0, seed=modules)
            if c != a:
                mismatches += 1
    assert mismatches == 0
    assert time.time() - t0 < 600


@criterion(5, "approximation error at most epsilon (brute) and 2*epsilon "
              "(randomized engine) against the exact store")
def test_acceptance_5():
    rng = random.Random(5)
    modules = [random_bounded_module(rng, F2 if i % 2 else F3,
                                     rng.randrange(1, 3), dmax=3)
               for i in range(50)]
    for i, M in enumerate(modules):
        ex = exact_skyscraper(M)
        for eps in (Fr(1), Fr(1, 2), Fr(1, 4)):
            sa = approx_skyscraper(M, ScanConfig(epsilon=eps))
            if not sa.keys():
                continue
            snap = ex.snapshot(sa.keys(), epsilon=eps)
            G = Grid(sorted({k[0] for k in sa.keys()}),
                     sorted({k[1] for k in sa.keys()}))
            lo, hi = erosion_distance(sa, snap, Fr(0), G)
            assert hi <= eps, (i, eps, lo, hi)
    # randomized engine on a sample, relaxed bound
    for i, M in enumerate(modules[:6]):
        ex = exact_skyscraper(M)
        for eps in (Fr(1), Fr(1, 2)):
            sa = approx_skyscraper(M, ScanConfig(epsilon=eps,
                                                 engine="cheng", seed=i))
            if not sa.keys():
                continue
            snap = ex.snapshot(sa.keys(), epsilon=eps)
            G = Grid(sorted({k[0] for k in sa.keys()}),
                     sorted({k[1] for k in sa.keys()}))
            lo, hi = erosion_distance(sa, snap, Fr(0), G)
            assert hi <= 2 * eps, (i, eps, lo, hi)


@criterion(6, "grid scan equals the approximation entry-for-entry with a "
              "smaller work counter")
def test_acceptance_6():
    rng = random.Random(6)
    for i in range(50):
        M = random_bounded_module(rng, F2 if i % 2 else F3,
                                  rng.randrange(1, 3), dmax=3)
        for eps in (Fr(1), Fr(1, 2), Fr(1, 4)):
            cfg = ScanConfig(epsilon=eps)
            sa = approx_skyscraper(M, cfg)
            sc = parallel_grid_scan(M, cfg)
            assert sa == sc, (i, eps)
            for w_scan, w_approx in zip(sc.work, sa.work):
                assert w_scan <= w_approx, (i, eps)


@criterion(7, "theta=0 queries reproduce the rank invariant")
def test_acceptance_7():
    rng = random.Random(7)
    for M in (cross_module(), stable_module(),
              random_bounded_module(rng, F2, 2),
              random_bounded_module(rng, F3, 2)):
        ex = exact_skyscraper(M)
        Mc = clip_to_box(M, ex.box)
        x0, y0, x1, y1 = ex.box
        for _ in range(100):
            a = (x0 + (x1 - x0) * Fr(rng.randrange(0, 16), 16),
                 y0 + (y1 - y0) * Fr(rng.randrange(0, 16), 16))
            b = (a[0] + (x1 - a[0]) * Fr(rng.randrange(0, 8), 8),
                 a[1] + (y1 - a[1]) * Fr(rng.randrange(0, 8), 8))
            rank = fieldmod.reduce(grmat.structure_map(Mc, a, b))[0]
            assert ex.query(Fr(0), a, b) == rank, (a, b)


@criterion(8, "inclusion-exclusion integral equals cell-area summation on "
              "100 random staircase sums")
def test_acceptance_8():
    rng = random.Random(8)
    for _ in range(100):
        stairs = []
        for _ in range(rng.randrange(1, 4)):
            gen = (Fr(rng.randrange(0, 3)), Fr(rng.randrange(0, 3)))
            pts = set()
            while len(pts) < rng.randrange(1, 4):
                pts.add((gen[0] + rng.randrange(0, 4),
                         gen[1] + rng.randrange(0, 4)))
            rels = reference.minimal_points(pts)
            if rels and rels[0] == gen:
                continue
            stairs.append(invariants.Staircase(gen, rels))
        if not stairs:
            continue
        M = _presentation(stairs[0])
        for s in stairs[1:]:
            M = grmat.direct_sum(M, _presentation(s))
        bt = invariants.betti_numbers(M)
        degs = bt.all_degrees()
        B = (max(d[0] for d in degs) + 1, max(d[1] for d in degs) + 1)
        via_betti = invariants.integral_dim(bt, B)
        G = Grid(sorted({d[0] for d in degs} | {B[0]}),
                 sorted({d[1] for d in degs} | {B[1]}))
        h = invariants.hilbert_function(M, G)
        total = Fr(0)
        for ix, x in enumerate(G.xs[:-1]):
            for iy, y in enumerate(G.ys[:-1]):
                total += h[(x, y)] * (G.xs[ix + 1] - x) * (G.ys[iy + 1] - y)
        assert via_betti == total


@criterion(9, "thickness-6 brute-force search finishes within 5 seconds")
def test_acceptance_9():
    rng = random.Random(9)
    M = random_unigen_module(rng, F2, 6, dmax=4)
    t0 = time.time()
    rec = hn_core.brute_force_max_slope(M)
    elapsed = time.time() - t0
    assert rec.dim >= 1
    assert elapsed <= 5.0, elapsed


@criterion(10, "randomized shrunk subspaces match exhaustive defect "
               "maximization on 50 random spaces")
def test_acceptance_10():
    from test_cheng import placed, random_space
    rng = random.Random(10)
    for trial in range(50):
        sp = random_space(rng, F2, rng.randrange(1, 5), rng.randrange(1, 5),
                          rng.randrange(1, 5))
        want_rows, _ = reference.shrunk_subspace(F2.q, placed(sp), sp.ncols)
        got = cheng._shrunk_with_retries(sp, 1, 1, None, seed=trial * 7 + 1,
                                         p_cap=64)
        assert len(got) == len(want_rows), trial
        assert reference.same_span(F2.q, got, want_rows)
