import collections
import functools
import gc
import random
import sys
import tracemalloc
from fractions import Fraction as Fr

import pytest

from skyhn import (cheng, cli, grmat, hn_core, invariants, pipeline,
                   subdivision)
from skyhn.grmat import Grid
from skyhn.invariants import SkyscraperStore, merge_factors
from skyhn.pipeline import (ScanConfig, approx_skyscraper, bounding_box,
                            clip_to_box, exact_skyscraper,
                            factor_interval_check, filtered_landscape,
                            hn_at, parallel_grid_scan)

from conftest import (F2, F3, F5, cross_module, disguise, fiber_trees, gm,
                      hidden_corpus, hidden_direct_sum, plain_ranks,
                      random_bounded_module, rescaled, stable_module)

import reference


def test_scan_config_validation():
    for eps in (0, -1, Fr(-1, 2)):
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            ScanConfig(epsilon=eps)
    with pytest.raises(ValueError):
        ScanConfig(engine="magic")


def test_engine_names_are_validated(cross):
    # "exact" names no HN engine, and a misspelt name must not fall back
    # to brute force
    with pytest.raises(ValueError):
        ScanConfig(engine="exact")
    with pytest.raises(ValueError):
        hn_at(cross, (Fr(0), Fr(1)), engine="chen")


def test_bounding_box_and_clip(cross):
    box = bounding_box(cross)
    assert box == (Fr(0), Fr(0), Fr(4), Fr(4))
    Mc = clip_to_box(cross, box)
    assert reference.dim(Mc, (Fr(4), Fr(0))) == 0
    assert reference.dim(Mc, (Fr(0), Fr(1))) == 2


def test_clip_rejects_outside_generator(cross):
    with pytest.raises(ValueError):
        clip_to_box(cross, (1, 1, 4, 4))   # generator (0,0) falls outside


def _clip_from_fractions(M, box):
    """clip_to_box as it was built from Fraction degrees: the cap
    relations appended to M's degrees, which GradedMatrix ranks afresh."""
    x1, y1 = Fr(box[2]), Fr(box[3])
    col_degs, cols = list(M.col_degrees), [list(c) for c in M.columns]
    for i, (gx, gy) in enumerate(M.row_degrees):
        col_degs += [(x1, gy), (gx, y1)]
        cols += [[(i, 1)], [(i, 1)]]
    return grmat.GradedMatrix(M.field, M.row_degrees, col_degs, cols)


def _same_presentation(A, B):
    return (A.field == B.field and A.row_degrees == B.row_degrees
            and A.col_degrees == B.col_degrees
            and plain_ranks(A) == plain_ranks(B) and A.columns == B.columns)


def test_preparation_on_ranks_matches_fraction_built():
    """clip_to_box and extract_block, built on coordinate ranks, equal the
    GradedMatrix built from the same Fraction degrees (same degrees,
    ranks and columns): clip_to_box(M, box) for the bounding box and for
    user boxes whose upper edges are new coordinates, existing ones or
    non-integer rationals, some leaving relations beyond the box, and
    every extract_block of the minimized clip; on the acceptance-5
    corpus, the cross and hidden_corpus."""
    rng = random.Random(5)
    modules = [random_bounded_module(rng, F2 if i % 2 else F3,
                                     rng.randrange(1, 3), dmax=3)
               for i in range(50)]
    modules += [cross_module()] + [M for _, _, M in hidden_corpus()]
    seen = collections.Counter()
    for M in modules:
        x_axis, y_axis, row_rk, col_rk = M._ranks
        xs, ys = x_axis.coords, y_axis.coords
        # the least coordinates above every generator
        ax = xs[max(x for x, _ in row_rk) + 1]
        ay = ys[max(y for _, y in row_rk) + 1]
        boxes = [bounding_box(M),
                 (xs[0], ys[0], xs[-1] + 2, ys[-1] + Fr(1, 3)),
                 (xs[0] - Fr(1, 2), ys[0] - 1, ax, ay),
                 (xs[0], ys[0], ax - Fr(1, 3), ay + Fr(2, 7)),
                 (xs[0], ys[0] - Fr(5, 3), xs[-1], ys[-1] + Fr(1, 2))]
        for box in boxes:
            Mc = clip_to_box(M, box)
            assert _same_presentation(Mc, _clip_from_fractions(M, box))
            seen["new"] += box[2] not in xs or box[3] not in ys
            seen["existing"] += box[2] in xs and box[3] in ys
            seen["rational"] += Fr(box[2]).denominator > 1
            seen["beyond"] += any(not (x < box[2] and y < box[3])
                                  for x, y in M.col_degrees)
            Mm = grmat.minimize(Mc)
            for rows, cols in grmat.connected_components(Mm):
                want = grmat.GradedMatrix(
                    Mm.field, [Mm.row_degrees[i] for i in rows],
                    [Mm.col_degrees[j] for j in cols],
                    [[(rows.index(i), v) for i, v in Mm.columns[j]]
                     for j in cols])
                assert _same_presentation(
                    grmat.extract_block(Mm, rows, cols), want)
                seen["blocks"] += 1
    assert min(seen.values()) >= 50, seen


def test_hn_at_engines_agree(cross):
    a = hn_at(cross, (Fr(0), Fr(1)), engine="brute")
    b = hn_at(cross, (Fr(0), Fr(1)), engine="cheng", seed=5)
    assert a == b
    assert [f.slope for f in a.factors] == [Fr(1, 2), Fr(1, 3)]


def test_approx_cross_entry(cross):
    store = approx_skyscraper(cross, ScanConfig(epsilon=1))
    entry = store.entries[(Fr(0), Fr(1))]
    assert [f.slope for f in entry.factors] == [Fr(1, 2), Fr(1, 3)]
    # keys are exactly the integer support points
    for k in store.keys():
        assert reference.dim(clip_to_box(cross, bounding_box(cross)), k) > 0


def test_approx_zero_module():
    # support is only the unit cell [0,1)^2
    M = gm(F2, [(0, 0)], [((1, 0), [(0, 1)]), ((0, 1), [(0, 1)])])
    store = approx_skyscraper(M, ScanConfig(epsilon=1))
    assert list(store.keys()) == [(Fr(0), Fr(0))]


def test_approx_direct_sum_doubles(cross):
    box = bounding_box(cross)
    MM = grmat.direct_sum(cross, cross)
    s1 = approx_skyscraper(cross, ScanConfig(epsilon=1, box=box))
    s2 = approx_skyscraper(MM, ScanConfig(epsilon=1, box=box))
    assert s1.keys() == s2.keys()
    for k in s1.keys():
        # M + M has each HN factor of M once, with its Hilbert function
        # doubled: every superlevel staircase of the factor twice
        a, b = s1.entries[k].factors, s2.entries[k].factors
        assert [f.slope for f in b] == [f.slope for f in a]
        for fa, fb in zip(a, b):
            assert (sorted(S.key() for S in fb.staircases)
                    == sorted(S.key() for S in fa.staircases * 2))


def test_exact_queries_cross(cross):
    ex = exact_skyscraper(cross)
    assert ex.query(Fr(0), (Fr(0), Fr(1)), (Fr(0), Fr(2))) == 1
    assert ex.query(Fr(2, 5), (Fr(0), Fr(1)), (Fr(0), Fr(2))) == 1
    assert ex.query(Fr(3, 5), (Fr(0), Fr(1)), (Fr(0), Fr(2))) == 0
    assert ex.query(Fr(1), (Fr(0), Fr(19, 10)), (Fr(1, 2), Fr(39, 20))) == 1
    # outside every support
    assert ex.query(Fr(0), (Fr(7, 2), Fr(7, 2)), (Fr(4), Fr(4))) == 0


def test_exact_query_rejects_bad_order(cross):
    ex = exact_skyscraper(cross)
    with pytest.raises(ValueError):
        ex.query(Fr(0), (Fr(1), Fr(1)), (Fr(0), Fr(0)))


def test_exact_theta0_equals_rank(cross, rng):
    ex = exact_skyscraper(cross)
    Mc = clip_to_box(cross, ex.box)
    for _ in range(100):
        a = (Fr(rng.randrange(0, 16), 4), Fr(rng.randrange(0, 16), 4))
        b = (a[0] + Fr(rng.randrange(0, 8), 4),
             a[1] + Fr(rng.randrange(0, 8), 4))
        rank = reference.map_rank(Mc, a, b)
        assert ex.query(Fr(0), a, b) == rank, (a, b)


def test_scan_equals_approx_cross(cross):
    for eps in (Fr(1), Fr(1, 2)):
        cfg = ScanConfig(epsilon=eps)
        assert parallel_grid_scan(cross, cfg) == approx_skyscraper(cross, cfg)


def test_scan_work_bounded_by_approx(cross):
    cfg = ScanConfig(epsilon=Fr(1, 2))
    sa = approx_skyscraper(cross, cfg)
    sc = parallel_grid_scan(cross, cfg)
    assert len(sc.work) == len(sa.work)
    for w_scan, w_approx in zip(sc.work, sa.work):
        assert w_scan <= w_approx


def test_scan_equals_approx_random(rng):
    for trial in range(10):
        F = F2 if trial % 2 else F3
        M = random_bounded_module(rng, F, rng.randrange(1, 3), dmax=3)
        for eps in (Fr(1), Fr(1, 2)):
            cfg = ScanConfig(epsilon=eps)
            sa = approx_skyscraper(M, cfg)
            sc = parallel_grid_scan(M, cfg)
            assert sa == sc, (trial, eps)


def _approx_reference(M, cfg):
    """approx_skyscraper before the shared sweep: zero fibers are skipped
    by a pointwise-model check, every other block runs its engine."""
    box = cfg.box or bounding_box(M)
    blocks = pipeline._clipped_blocks(M, box)
    xs, ys = reference.lattice_points(box, cfg.epsilon)
    store = SkyscraperStore(cfg.epsilon)
    store.work = [0] * len(blocks)
    # a block's dim at alpha is its dim at alpha's floor on its grid
    dims = [(reference.axes(b), reference.dims(b)()) for b in blocks]
    for y in ys:
        for x in xs:
            alpha = (x, y)
            lists = []
            for i, block in enumerate(blocks):
                (bx, by), at = dims[i]
                if not at.get(reference.floor_point(bx, by, alpha)):
                    continue
                if cfg.engine == "cheng":
                    lists.append(cheng.hn_cheng(block, alpha, seed=cfg.seed))
                else:
                    lists.append(hn_core.hn_filtration_at(block, alpha))
                store.work[i] += 1
            if lists:
                store.insert(merge_factors(alpha, lists))
    return store


def _scan_reference(M, cfg):
    """parallel_grid_scan before the shared sweep: its own cell cache per
    summand, evicted when the summand's row pointer advances in y."""
    box = cfg.box or bounding_box(M)
    summands = [(b, grmat.induced_grid(b), {})
                for b in pipeline._clipped_blocks(M, box)]
    xs, ys = reference.lattice_points(box, cfg.epsilon)
    out = SkyscraperStore(cfg.epsilon)
    out.work = [0] * len(summands)
    pointer_y = [None] * len(summands)
    for y in ys:
        for x in xs:
            alpha = (x, y)
            lists = []
            for i, (module, grid, cells) in enumerate(summands):
                corner = reference.floor_point(grid.xs, grid.ys, alpha)
                if corner is None:
                    continue
                if pointer_y[i] != corner[1]:
                    cells.clear()
                    pointer_y[i] = corner[1]
                if corner not in cells:
                    cells[corner] = pipeline._cell_trees(
                        [module], grid, corner)
                    if cells[corner] is not None:
                        out.work[i] += 1
                lists += [t.factors_at(alpha) for t in cells[corner] or ()]
            merged = merge_factors(alpha, lists)
            if merged.factors:
                out.insert(merged)
    return out


def test_sweep_matches_reference_drivers():
    """40 random bounded modules, then 12 hidden direct sums of thickness
    2-4, whose split path the undecomposed references cover; epsilon 1,
    1/2 and 1/3 put one, four and nine lattice points in a unit cell, so
    brute force derives most of its fiber submodules from a cell's
    corner.  Every eighth module also runs the cheng engine, at every
    epsilon, against its reference and brute force."""
    rng = random.Random(2026)
    cheng_runs = 0
    for trial in range(52):
        F = F2 if trial % 2 else F3
        if trial < 40:
            M = random_bounded_module(rng, F, rng.randrange(1, 3), dmax=3)
        else:
            sizes = [rng.randrange(1, 3) for _ in range(2)]
            M = hidden_direct_sum(rng, F, sizes)
        engines = ("brute", "cheng") if trial % 8 == 0 else ("brute",)
        for eps in (Fr(1), Fr(1, 2), Fr(1, 3)):
            stores = {}
            for engine in engines:
                cfg = ScanConfig(epsilon=eps, engine=engine, seed=trial)
                got = stores[engine] = approx_skyscraper(M, cfg)
                want = _approx_reference(M, cfg)
                assert got == want, (trial, eps, engine)
                assert got.work == want.work, (trial, eps, engine)
                cheng_runs += engine == "cheng" and sum(got.work) > 0
            # HN filtrations are unique: both engines store the same ones
            assert stores.get("cheng", stores["brute"]) == stores["brute"], \
                (trial, eps)
            cfg = ScanConfig(epsilon=eps)
            got, want = parallel_grid_scan(M, cfg), _scan_reference(M, cfg)
            assert got == want, (trial, eps)
            assert got.work == want.work, (trial, eps)
    assert cheng_runs >= 5


def _sweep_pieces(n_random=12, n_hidden=12):
    """Decompose pieces of clipped random bounded modules over GF(2) and
    GF(3) and of hidden direct sums over GF(2), GF(3) and GF(5)."""
    rng = random.Random(77)
    modules = [random_bounded_module(rng, F2 if i % 2 else F3,
                                     rng.randrange(1, 4), dmax=3)
               for i in range(n_random)]
    modules += [M for _, _, M in hidden_corpus(n=n_hidden, seed=78,
                                               max_thickness=4)]
    return [p for M in modules
            for b in pipeline._clipped_blocks(M, bounding_box(M))
            for p in grmat.decompose(b)]


def _probe_points(grid):
    """Grid points, points strictly inside cells, points on exactly one
    grid line, and points below the grid on one axis, colexicographic."""
    xs, ys = grid.xs, grid.ys
    mx = [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [xs[-1] + Fr(1, 3)]
    my = [(a + b) / 2 for a, b in zip(ys, ys[1:])] + [ys[-1] + Fr(1, 3)]
    pts = [(x, y) for x in xs + mx for y in ys + my]
    pts += [(xs[0] - Fr(1, 2), y) for y in ys + my]
    pts += [(x, ys[0] - Fr(1, 2)) for x in xs + mx]
    return sorted(pts, key=lambda p: (p[1], p[0]))


def test_cell_fibers_match_fiber_submodule():
    """At every probe point alpha, the HN loop on the fiber submodule of
    alpha's cell, <V_c> at the cell's lower corner c (what the sweep hands
    it), gives the HN filtration of fiber_submodule at alpha, on grid
    points, inside cells and on one grid line in each direction.  Points
    of one cell share its <V_c> and the memos on it."""
    kinds = set()
    for piece in _sweep_pieces():
        cells = pipeline._Cells(grmat.induced_grid(piece),
                                functools.partial(grmat.fiber_submodule, piece))
        for alpha in _probe_points(cells.grid):
            sub = cells.at(alpha)
            want = grmat.fiber_submodule(piece, alpha)
            assert (sub is None) == (want is None), alpha
            if sub is None:
                continue
            on_x, on_y = alpha[0] in cells.grid.xs, alpha[1] in cells.grid.ys
            kinds.add((on_x, on_y))
            assert sub.row_degrees == \
                [reference.floor_point(cells.grid.xs, cells.grid.ys,
                                       alpha)] * sub.nrows
            assert hn_core.hn_filtration_of(sub, alpha) == \
                hn_core.hn_filtration_at(piece, alpha), alpha
    # non-zero fibers at grid points, inside cells and on one line each
    assert kinds == {(True, True), (False, False), (True, False),
                     (False, True)}


def test_interval_cells_match_every_engine():
    """The staircase reader of a one-generator piece (pipeline._Interval)
    against all three engines: every one-generator piece of _sweep_pieces
    and the pieces of rescaled one-generator modules (negative degrees
    over denominators 2 and 3) over GF(2), GF(3) and GF(5).  At every
    probe point alpha of the piece's grid and every point of the
    epsilon-lattice of its box for epsilon = 2/7, whose denominators share
    nothing with the staircases', the reader's factors at alpha are empty
    exactly where the fiber is zero, and otherwise equal brute force on
    fiber_submodule(piece, alpha), the read of exact_hnf_cell's tree of
    alpha's grid cell and hn_cheng."""
    rng = random.Random(91)
    pieces = [p for p in _sweep_pieces() if p.nrows == 1]
    n_sweep = len(pieces)
    for i in range(12):
        M = rescaled(random_bounded_module(rng, (F2, F3, F5)[i % 3], 1,
                                           dmax=4))
        pieces += [p for b in pipeline._clipped_blocks(M, bounding_box(M))
                   for p in grmat.decompose(b)]
    n_reads = n_inside = n_lattice = 0
    for piece in pieces:
        assert piece.nrows == 1
        grid, box = grmat.induced_grid(piece), bounding_box(piece)
        reader = pipeline._Interval(piece)
        xs, ys = reference.lattice_points(box, Fr(2, 7))
        probes = _probe_points(grid)
        for k, alpha in enumerate(probes + [(x, y) for y in ys for x in xs]):
            got = reader.factors_at(alpha)
            sub = grmat.fiber_submodule(piece, alpha)
            assert (not got.factors) == (sub is None), alpha
            assert got.alpha == alpha
            if sub is None:
                continue
            assert len(got.factors) == 1 and type(got.factors[0].slope) is Fr
            assert got == hn_core.hn_filtration_of(sub, alpha), alpha
            tree, = fiber_trees(piece, grid, reference.floor_point(
                grid.xs, grid.ys, alpha))
            assert got == tree.factors_at(alpha), alpha
            assert got == cheng.hn_cheng(piece, alpha)
            n_reads += 1
            n_inside += not grid.index(alpha)[2]
            n_lattice += k >= len(probes)
    assert n_sweep > 50 and len(pieces) >= n_sweep + 10
    assert n_reads > 300 and n_inside > 200 and n_lattice > 1000


def test_sweep_reads_only_the_support(monkeypatch):
    """The sweep visits, per lattice row, only the columns where some read
    can be non-zero (pipeline._row_columns).  On the stable module and
    random modules, rescaled (negative degrees over denominators 2 and
    3), three of them with a piece of two generators, and on the modules
    of _sweep_pieces, with epsilon 1, 1/2, 1/3 and 2/5 and the three boxes
    of test_second_box_replaces_the_memo, brute approx, cheng approx
    (every eighth module, the stable one first) and the scan give the
    stores and work of their references, which visit every lattice point.
    On a module whose pieces all have one generator the columns are the
    support: no point that brute approx or the scan visits merges to an
    empty filtration."""
    rng = random.Random(303)
    modules = [rescaled(stable_module())]
    modules += [rescaled(random_bounded_module(rng, (F2, F3, F5)[i % 3],
                                               2 + i % 2, dmax=3))
                for i in range(12)]
    modules += _sweep_pieces(n_random=6, n_hidden=6)
    empty, watching = [], [False]
    merge = pipeline.merge_factors

    def watched(alpha, lists):
        fl = merge(alpha, lists)
        if watching[0] and not fl.factors:
            empty.append(alpha)
        return fl
    monkeypatch.setattr(pipeline, "merge_factors", watched)
    n_cheng = n_unigen = 0
    for i, M in enumerate(modules):
        x0, y0, x1, y1 = bounding_box(M)
        gx, gy = (max(d[k] for d in M.row_degrees) for k in (0, 1))
        boxes = [(x0, y0, x1, y1), (x0 - 1, y0, x1 + Fr(1, 2), y1 + 2),
                 (x0, y0, gx + Fr(1, 2), gy + Fr(1, 2))]
        unigen = all(p.nrows == 1 for b in pipeline._prepared(M, boxes[0])
                     for p in b.pieces)
        n_unigen += unigen
        engines = ("brute", "cheng") if i % 8 == 0 else ("brute",)
        for box in boxes:
            for eps in (Fr(1), Fr(1, 2), Fr(1, 3), Fr(2, 5)):
                for engine in engines:
                    cfg = ScanConfig(eps, engine, i, box)
                    watching[0] = unigen and engine == "brute"
                    got = approx_skyscraper(M, cfg)
                    watching[0] = False
                    want = _approx_reference(M, cfg)
                    assert got == want and got.work == want.work, \
                        (i, box, eps, engine)
                    n_cheng += engine == "cheng" and sum(got.work) > 0
                cfg = ScanConfig(eps, box=box)
                watching[0] = unigen
                got = parallel_grid_scan(M, cfg)
                watching[0] = False
                want = _scan_reference(M, cfg)
                assert got == want and got.work == want.work, (i, box, eps)
                assert not empty, (i, box, eps, empty)
    assert n_cheng >= 6 and 10 <= n_unigen <= len(modules) - 3


def test_only_hn_at_runs_engines_on_interval_pieces(monkeypatch, cross,
                                                    stable):
    """The cross has two pieces of one generator each: the sweeps and the
    exact store read them from their staircases, with no brute-force
    search, no cell subdivision, no fiber submodule of a one-generator
    piece and no _Cells over one (the scan's and the store's _Cells are
    over summands, and hold the pieces' _Intervals), while hn_at, the
    reference, runs brute force on both.  The stable module is one piece
    of two generators, which every driver hands to the engines."""
    calls = collections.Counter()
    search = hn_core.brute_force_max_slope
    subdivide = subdivision.exact_hnf_cell
    fiber = grmat.fiber_submodule
    caches = []

    class Cells(pipeline._Cells):
        def __init__(self, grid, build):
            super().__init__(grid, build)
            caches.append(self)

    def counted_fiber(M, alpha):
        calls.update(["fiber %d" % M.nrows])
        return fiber(M, alpha)

    monkeypatch.setattr(hn_core, "brute_force_max_slope", lambda *a, **k: (
        calls.update(["search"]) or search(*a, **k)))
    monkeypatch.setattr(subdivision, "exact_hnf_cell", lambda *a, **k: (
        calls.update(["cell"]) or subdivide(*a, **k)))
    monkeypatch.setattr(grmat, "fiber_submodule", counted_fiber)
    monkeypatch.setattr(pipeline, "_Cells", Cells)
    cfg = ScanConfig(epsilon=Fr(1, 2))
    for M, n_gens in ((cross, [1, 1]), (stable, [2])):
        assert [p.nrows for b in pipeline._clipped_blocks(M, bounding_box(M))
                for p in grmat.decompose(b)] == n_gens
        calls.clear()
        del caches[:]
        approx_skyscraper(M, cfg)
        n_approx = len(caches)
        sc = parallel_grid_scan(M, cfg)
        exact_skyscraper(M)
        if M is cross:
            assert not calls and n_approx == 0
            # one _Cells per summand in the scan and in the store, each
            # holding _Intervals only
            assert len(caches) == 4 and sum(sc.work) > 0
            assert all(type(r) is pipeline._Interval for c in caches
                       for rs in c.values() if rs for r in rs)
        else:
            assert calls["search"] > 0 and calls["cell"] > 0
            assert n_approx == 1 and calls["fiber 2"] > 0
        calls.clear()
        hn_at(M, M.row_degrees[0])
        assert calls["search"] > 0 and not calls["cell"]
        assert calls["fiber %d" % n_gens[0]] > 0


def test_brute_hn_at_runs_hn_filtration_at_once_per_piece(monkeypatch,
                                                         cross, stable):
    """hn_at with brute force reads each decompose piece through one
    hn_core.hn_filtration_at call per piece and call: the cross has two
    pieces of one generator each, the stable module is one piece."""
    calls = []
    hn_filtration_at = hn_core.hn_filtration_at
    monkeypatch.setattr(hn_core, "hn_filtration_at", lambda M, alpha: (
        calls.append(M) or hn_filtration_at(M, alpha)))
    for M, n_pieces in ((cross, 2), (stable, 1)):
        pieces = [p for b in pipeline._prepared(M, bounding_box(M))
                  for p in b.pieces]
        assert len(pieces) == n_pieces
        for alpha in (M.row_degrees[0], (Fr(1, 2), Fr(3, 2))):
            calls.clear()
            got = hn_at(M, alpha)
            assert len(calls) == n_pieces, alpha
            assert all(a is b for a, b in zip(calls, pieces)), alpha
            assert got == merge_factors(alpha, [
                hn_filtration_at(p, alpha) for p in pieces])


def test_sweep_runs_each_hn_step_algebra_once_per_cell(monkeypatch):
    """In one approx_skyscraper call, fiber classes are built at most once
    per presentation and a quotient at most once per (presentation,
    chosen subspace), though the presentations of a cell serve all its
    lattice points; no quotient is built at a step that takes the whole
    fiber."""
    quotient, classes = grmat.quotient_presentation, hn_core._FiberClasses
    quotients, built, keep = [], [], []     # keep: no id is reused

    def counted_quotient(M, basis):
        assert len(basis) < M.nrows, "quotient by the whole fiber"
        keep.append(M)
        quotients.append((id(M), tuple(map(tuple, basis))))
        return quotient(M, basis)

    class Counted(classes):
        def __init__(self, M):
            keep.append(M)
            built.append(id(M))
            super().__init__(M)

    monkeypatch.setattr(grmat, "quotient_presentation", counted_quotient)
    monkeypatch.setattr(hn_core, "_FiberClasses", Counted)
    # the first modules of the acceptance-5 corpus of seed 7 (the sixth
    # has a piece whose HN filtrations take two steps) and the stable
    # module, a piece of thickness 2 that is not semistable off alpha
    rng = random.Random(7)
    modules = [random_bounded_module(rng, F2 if i % 2 else F3,
                                     rng.randrange(1, 3), dmax=3)
               for i in range(8)] + [stable_module()]
    n_quotients = n_runs = n_built = 0
    for M in modules:
        for eps in (Fr(1), Fr(1, 2), Fr(1, 3)):
            del quotients[:], built[:], keep[:]
            store = approx_skyscraper(M, ScanConfig(epsilon=eps))
            assert len(quotients) == len(set(quotients)), eps
            assert len(built) == len(set(built)), eps
            n_quotients += len(quotients)
            n_built += len(built)
            n_runs += sum(store.work)
    # multi-step filtrations occur, and cells serve several points
    assert n_quotients > 0 and n_built < n_runs


def test_zero_fiber_shortcut_matches_join_path(monkeypatch):
    """Where every generator lies below alpha, fiber_submodule returns None
    exactly where minimize(join_degrees(M, alpha)) has no rows, and then
    joins and minimizes nothing.  Where the piece is generated at alpha and
    the fiber is non-zero, it returns the piece itself, again with no join
    and no minimize: a piece is minimal, so no relation lies at alpha."""
    join, minimize = grmat.join_degrees, grmat.minimize
    calls = []
    monkeypatch.setattr(grmat, "join_degrees",
                        lambda N, a: calls.append(a) or join(N, a))
    monkeypatch.setattr(grmat, "minimize",
                        lambda N: calls.append(N) or minimize(N))
    n_zero = n_at = n_joined = 0
    for piece in _sweep_pieces():
        for alpha in _probe_points(grmat.induced_grid(piece)):
            if not all(grmat.deg_leq(g, alpha) for g in piece.row_degrees):
                continue
            want = minimize(join(piece, alpha))
            zero = want.nrows == 0
            at = not zero and set(piece.row_degrees) == {alpha}
            calls.clear()
            got = grmat.fiber_submodule(piece, alpha)
            assert (got is None) == zero, alpha
            assert len(calls) == (0 if zero or at else 2), alpha
            assert (got is piece) == at and (zero or got == want), alpha
            n_zero += zero
            n_at += at
            n_joined += not zero and not at
    assert n_zero > 50 and n_at > 20 and n_joined > 50


def test_sweep_builds_each_cell_fiber_once(monkeypatch):
    """In one approx_skyscraper call a piece's fiber submodule is built at
    most once per cell of its induced grid, and no fiber model is built
    where a piece has no generator below the point."""
    built, bad_models = [], []
    sub_presentation = grmat.submodule_presentation
    model = grmat.pointwise_model

    def counted_presentation(M, S):
        built.append((M, S.col_degrees[0]))
        return sub_presentation(M, S)

    def checked_model(M, gamma):
        if not any(grmat.deg_leq(g, gamma) for g in M.row_degrees):
            bad_models.append(gamma)
        return model(M, gamma)

    monkeypatch.setattr(grmat, "submodule_presentation", counted_presentation)
    monkeypatch.setattr(grmat, "pointwise_model", checked_model)
    rng = random.Random(79)
    # one indecomposable piece generated at (0,1) and (1,0): the cell at
    # (0,0) of its grid lies below neither generator
    modules = [gm(F2, [(0, 1), (1, 0)], [((1, 1), [(0, 1), (1, 1)])])]
    modules += [random_bounded_module(rng, F2 if i % 2 else F3, 2, dmax=3)
                for i in range(6)]
    modules += [M for _, _, M in hidden_corpus(n=6, seed=80,
                                               max_thickness=4)]
    n_built = 0
    for M in modules:
        for eps in (Fr(1, 2), Fr(1, 3)):
            built.clear()
            approx_skyscraper(M, ScanConfig(epsilon=eps))
            cells = [(id(N), c) for N, c in built]
            assert len(cells) == len(set(cells)), eps
            assert all(grmat.induced_grid(N).index(c)[2] for N, c in built)
            n_built += len(built)
    assert n_built > 0
    assert bad_models == []


def test_sweep_is_the_one_place_that_evicts_cells(monkeypatch):
    """In every approx_skyscraper (brute force) and parallel_grid_scan
    call, no cell cache ever holds cells of two grid rows, and no cell is
    built twice; an eager exact store keeps every cell, and its work is
    its number of non-empty cells."""
    caches, builds, sweeping = [], [], [True]

    class Watched(pipeline._Cells):
        def __init__(self, grid, build):
            super().__init__(grid, lambda c: builds.append((self, c))
                             or build(c))
            caches.append(self)

        def at(self, alpha):
            out = super().at(alpha)
            assert not sweeping[0] or len({iy for _, iy in self}) <= 1, alpha
            return out

    monkeypatch.setattr(pipeline, "_Cells", Watched)
    n_built = n_rows_left = 0
    for M in _sweep_pieces():
        for eps in (Fr(1), Fr(1, 2), Fr(1, 3)):
            for driver in (approx_skyscraper, parallel_grid_scan):
                caches.clear()
                builds.clear()
                driver(M, ScanConfig(epsilon=eps))
                keys = [(id(cells), c) for cells, c in builds]
                assert len(keys) == len(set(keys)), (driver, eps)
                n_built += len(builds)
                n_rows_left += sum(cells.row is not None for cells in caches)
        sweeping[0] = False
        ex = exact_skyscraper(M)
        sweeping[0] = True
        for _, grid, cells in ex.summands:
            assert len(cells) == len(grid.xs) * len(grid.ys)
        assert ex.work == [sum(v is not None for v in cells.values())
                           for _, _, cells in ex.summands]
    assert n_built > 0 and n_rows_left > 0


def _hn_reference(M, alpha, box):
    """hn_at before decomposition: brute force per connected block."""
    return merge_factors(alpha, [hn_core.hn_filtration_at(b, alpha)
                                 for b in pipeline._clipped_blocks(M, box)])


def test_drivers_match_undecomposed_reference():
    """Brute force and the exact cells run on the pieces grmat.decompose
    finds; on hidden direct sums over GF(2), GF(3) and GF(5) each driver
    equals its undecomposed reference, and the cheng engine, which runs on
    each connected block whole, equals brute force."""
    split = 0
    corpus = hidden_corpus(n=18, seed=99, max_thickness=4)
    for i, (F, _, M) in enumerate(corpus):
        box = bounding_box(M)
        blocks = pipeline._clipped_blocks(M, box)
        split += sum(map(len, map(grmat.decompose, blocks))) > len(blocks)
        cfg = ScanConfig(epsilon=1)
        got, want = approx_skyscraper(M, cfg), _approx_reference(M, cfg)
        assert got == want and got.work == want.work, i
        xs, ys = reference.lattice_points(box, cfg.epsilon)
        snap = exact_skyscraper(M).snapshot(
            [(x, y) for y in ys for x in xs], cfg.epsilon)
        assert snap == _scan_reference(M, cfg), i
        for alpha in sorted(set(M.row_degrees)):
            brute = hn_at(M, alpha)
            assert brute == _hn_reference(M, alpha, box), (i, alpha)
            assert hn_at(M, alpha, engine="cheng", seed=i) == brute, (i, alpha)
    assert split >= len(corpus) // 2


def _with_cancelling_pairs(rng, M, n=2):
    """M with n generators added, each at the join of the degrees of two
    of M's generators and cancelled there by a relation that also holds
    those two: the same module, whose blocks the new relations join."""
    F = M.field
    gens, cols = list(M.row_degrees), [list(c) for c in M.columns]
    rels = list(M.col_degrees)
    for _ in range(n):
        a, b = rng.randrange(M.nrows), rng.randrange(M.nrows)
        d = reference.join(gens[a], gens[b])
        held = {a: 1 + rng.randrange(F.q - 1), b: 1 + rng.randrange(F.q - 1)}
        cols.append(sorted(held.items()) + [(len(gens), 1)])
        gens.append(d)
        rels.append(d)
    return grmat.GradedMatrix(F, gens, rels, cols)


def _invariance_stores(N, box, eps, seed):
    """Brute and cheng approx, the scan and the exact snapshot of N at the
    epsilon-lattice points of the box."""
    xs, ys = reference.lattice_points(box, eps)
    out = [approx_skyscraper(N, ScanConfig(eps, engine, seed, box))
           for engine in ("brute", "cheng")]
    out.append(parallel_grid_scan(N, ScanConfig(eps, box=box)))
    out.append(exact_skyscraper(N, box).snapshot(
        [(x, y) for y in ys for x in xs], eps))
    return out


def test_stores_do_not_depend_on_the_presentation():
    """Presentation invariance, an oracle beside engine agreement: the
    four stores of M equal those of M in disguise, of M with cancelling
    generator-relation pairs, and of the direct sum of the pieces that
    grmat.decompose finds in the blocks of M's clipped minimal
    presentation.  The HN filtration of a direct sum joins the summands'
    factors of equal slope, however the presentation groups them."""
    rng = random.Random(1717)
    modules = [random_bounded_module(rng, F2 if i % 2 else F3, 2 + i % 2,
                                     dmax=3) for i in range(6)]
    modules += [M for _, _, M in hidden_corpus(n=6, seed=1718,
                                               max_thickness=4)]
    eps = Fr(1, 2)
    n_thick = 0
    for i, M in enumerate(modules):
        box = bounding_box(M)
        Mc = grmat.minimize(clip_to_box(M, box))
        pieces = [p for rows, cols in grmat.connected_components(Mc) if rows
                  for p in grmat.decompose(
                      grmat.extract_block(Mc, rows, cols))]
        want = _invariance_stores(M, box, eps, i)
        for k, N in enumerate((disguise(rng, M),
                               _with_cancelling_pairs(rng, M),
                               functools.reduce(grmat.direct_sum, pieces))):
            assert _invariance_stores(N, box, eps, i) == want, (i, k)
        n_thick += any(f.dim > 1 for fl in want[0].entries.values()
                       for f in fl.factors)
    # factors of dimension > 1 occur, where joins happen
    assert n_thick >= len(modules) // 2


def test_erosion_approx_vs_exact(cross):
    ex = exact_skyscraper(cross)
    for eps in (Fr(1), Fr(1, 2)):
        sa = approx_skyscraper(cross, ScanConfig(epsilon=eps))
        snap = ex.snapshot(sa.keys(), epsilon=eps)
        G = Grid(sorted({k[0] for k in sa.keys()}),
                 sorted({k[1] for k in sa.keys()}))
        lo, hi = invariants.erosion_distance(sa, snap, Fr(0), G)
        assert hi <= eps


def _landscape_stores(M):
    """Both kinds of store filtered_landscape reads: the exact store, and
    the approximations at epsilon 1 and 1/2 (SkyscraperStore)."""
    return [exact_skyscraper(M)] + [
        approx_skyscraper(M, ScanConfig(epsilon=e)) for e in (1, Fr(1, 2))]


def test_landscape_positive_inside_support(cross):
    pts = [(Fr(1, 4), Fr(5, 4))]
    for store in _landscape_stores(cross):
        lam = filtered_landscape(store, 1, Fr(0), pts)
        assert lam[pts[0]] > 0


def test_landscape_monotone_in_theta_and_k(cross):
    pts = [(Fr(1, 4), Fr(5, 4)), (Fr(1, 2), Fr(3, 2))]
    for store in _landscape_stores(cross):
        prev = None
        for theta in (Fr(0), Fr(2, 5), Fr(3, 5), Fr(10)):
            lam = filtered_landscape(store, 1, theta, pts)
            if prev is not None:
                for p in pts:
                    assert lam[p] <= prev[p]
            prev = lam
        l1 = filtered_landscape(store, 1, Fr(0), pts)
        l2 = filtered_landscape(store, 2, Fr(0), pts)
        for p in pts:
            assert l2[p] <= l1[p]


def test_landscape_rejects_k_below_one(cross):
    # with k <= 0 every level is >= k: lambda was the whole reach, also
    # where the module is zero
    ex = exact_skyscraper(cross)
    for k in (0, -1):
        with pytest.raises(ValueError):
            filtered_landscape(ex, k, Fr(0), [(Fr(0), Fr(1))])


def test_landscape_source_anchor(cross):
    pts = [(Fr(0), Fr(1))]
    for store in _landscape_stores(cross):
        lam = filtered_landscape(store, 1, Fr(0), pts, anchor="source")
        assert lam[pts[0]] > 0


def test_landscape_saturates_on_a_staircase_without_relations(
        tmp_path, monkeypatch):
    """A store read from a CSV whose one staircase has no relations holds
    every point above its key: from the key, lambda is the whole reach
    hmax (here 1, the keys' span plus one), found from the two end levels
    alone, with no bisection step."""
    path = tmp_path / "free.csv"
    path.write_text(",".join(cli.STORE_FIELDS) + "\n0,0,0,1,1,0,0,\n")
    store = cli.parse_store(str(path))
    assert store.entries[(Fr(0), Fr(0))].factors[0].staircases[0].rels == []
    query, calls = invariants.skyscraper_query, []
    monkeypatch.setattr(invariants, "skyscraper_query",
                        lambda *args: calls.append(args) or query(*args))
    pt = (Fr(0), Fr(0))
    for resolution in (1, 4, 8):
        del calls[:]
        lam = filtered_landscape(store, 1, Fr(0), [pt],
                                 resolution=resolution, anchor="source")
        assert lam == {pt: Fr(1)}
        assert len(calls) == 2


def test_landscape_rejects_unknown_anchor(cross):
    # any anchor but 'center' acted as 'source', so a typo gave wrong lambda
    ex = exact_skyscraper(cross)
    for anchor in ("centre", "Source", ""):
        with pytest.raises(ValueError, match="anchor"):
            filtered_landscape(ex, 1, Fr(0), [(Fr(0), Fr(1))], anchor=anchor)


def test_interval_check_cross_clean_stable_flagged(cross, stable):
    s1 = approx_skyscraper(cross, ScanConfig(epsilon=1))
    assert factor_interval_check(s1) == []
    s2 = approx_skyscraper(stable, ScanConfig(epsilon=1))
    report = factor_interval_check(s2)
    assert any(alpha == (Fr(0), Fr(0)) and thick == 2
               for alpha, _, thick in report)


def test_engine_failure_has_alpha():
    exc = pipeline.EngineFailure((Fr(1), Fr(2)), RuntimeError("x"))
    assert exc.alpha == (Fr(1), Fr(2))
    assert str(exc) == "engine failure at (1, 2): x"


def _fresh(M):
    """A new presentation object equal to M, with nothing kept on it."""
    return grmat.GradedMatrix(M.field, M.row_degrees, M.col_degrees,
                              M.columns)


def _memo_modules():
    """Modules of one and of several blocks, some blocks hidden direct
    sums, over GF(2), GF(3) and GF(5)."""
    rng = random.Random(2222)
    return ([random_bounded_module(rng, F2 if i % 2 else F3, 2 + i % 2,
                                   dmax=3) for i in range(4)]
            + [M for _, _, M in hidden_corpus(n=4, seed=2223,
                                              max_thickness=4)])


def _load_this(monkeypatch, M):
    """Make cli commands run on the module object M, whatever file they
    name."""
    monkeypatch.setattr(cli, "parse_presentation", lambda path, field=None: M)


def test_drivers_decompose_each_block_once(monkeypatch, tmp_path, capsys):
    """hn_at, approx_skyscraper, parallel_grid_scan, exact_skyscraper and
    skyhn check, all on one module object, call grmat.decompose once per
    block of its clipped minimal presentation: the preparation is kept on
    the module."""
    decompose, calls = grmat.decompose, []
    monkeypatch.setattr(grmat, "decompose",
                        lambda B: calls.append(B) or decompose(B))
    for i, M in enumerate(_memo_modules()):
        del calls[:]
        _load_this(monkeypatch, M)
        for alpha in sorted(set(M.row_degrees)):
            hn_at(M, alpha)
        for eps in (Fr(1), Fr(1, 2)):
            approx_skyscraper(M, ScanConfig(epsilon=eps))
            parallel_grid_scan(M, ScanConfig(epsilon=eps))
        exact_skyscraper(M)
        exact_skyscraper(M, eager=False).factors_at(M.row_degrees[0])
        assert cli.main(["--out", str(tmp_path), "check", "m"]) == 0, i
        blocks = pipeline._clipped_blocks(M, bounding_box(M))
        assert sorted(map(id, calls)) == sorted(map(id, blocks)), i
    capsys.readouterr()


def test_cheng_engine_never_decomposes(monkeypatch):
    """The cheng engine runs on each block whole: neither hn_at nor
    approx_skyscraper with engine cheng calls grmat.decompose, on a fresh
    module or on one whose blocks brute force has split."""
    modules = _memo_modules()
    split = [_fresh(M) for M in modules]
    for M in split:
        approx_skyscraper(M, ScanConfig(epsilon=1))

    def refuse(B):
        raise AssertionError("cheng decomposed a block")
    monkeypatch.setattr(grmat, "decompose", refuse)
    for i, M in enumerate(modules + split):
        hn_at(M, M.row_degrees[0], engine="cheng", seed=i)
        approx_skyscraper(M, ScanConfig(epsilon=1, engine="cheng", seed=i))


def test_second_box_replaces_the_memo():
    """The preparation is kept for the latest box alone: a call with
    another box replaces it, and every driver answers as on a fresh copy,
    with each box, in any order.  The third box cuts into the support.  A
    lazy exact store built before the calls with the next box reads, after
    them, as a fresh copy's store for its own box."""
    for i, M in enumerate(_memo_modules()):
        x0, y0, x1, y1 = bounding_box(M)
        gx, gy = (max(d[k] for d in M.row_degrees) for k in (0, 1))
        boxes = [(x0, y0, x1, y1), (x0 - 1, y0, x1 + Fr(1, 2), y1 + 2),
                 (x0, y0, gx + Fr(1, 2), gy + Fr(1, 2))]
        lazy = None
        for box in boxes + boxes[:1] + boxes[2:]:
            cfg = ScanConfig(epsilon=Fr(1, 2), box=box)
            got = [approx_skyscraper(M, cfg), parallel_grid_scan(M, cfg),
                   exact_skyscraper(M, box).snapshot(
                       approx_skyscraper(M, cfg).keys()),
                   hn_at(M, M.row_degrees[0], box=box)]
            assert M._clipped[0] == box
            F = _fresh(M)
            want = [approx_skyscraper(F, cfg), parallel_grid_scan(_fresh(M),
                                                                  cfg),
                    exact_skyscraper(_fresh(M), box).snapshot(
                        approx_skyscraper(F, cfg).keys()),
                    hn_at(_fresh(M), M.row_degrees[0], box=box)]
            assert got == want, (i, box)
            assert got[0].work == want[0].work
            assert got[1].work == want[1].work
            if lazy is not None:
                ex, old_box, keys = lazy
                assert ex.snapshot(keys) == exact_skyscraper(
                    _fresh(M), old_box).snapshot(keys), (i, old_box, box)
            lazy = (exact_skyscraper(M, box, eager=False), box, got[0].keys())


def test_reused_module_writes_the_csvs_of_fresh_copies(monkeypatch,
                                                       tmp_path, capsys):
    """On the acceptance-5 corpus (GF(3) and GF(2)), the approx, scan and
    exact CSVs of one module object that every command runs on are
    byte-identical to those of a fresh copy per command."""
    rng = random.Random(5)
    modules = [random_bounded_module(rng, F2 if i % 2 else F3,
                                     rng.randrange(1, 3), dmax=3)
               for i in range(50)]
    commands = [["check", "m"], ["hn", "m", "--at", "0,0"],
                ["approx", "m", "--epsilon", "1/2"],
                ["scan", "m", "--epsilon", "1/2"], ["exact", "m"],
                ["query", "m", "--theta", "0", "--from", "0,0",
                 "--to", "1,1"]]
    for i, M in enumerate(modules):
        for reuse in (True, False):
            out = str(tmp_path / ("%d-%d" % (i, reuse)))
            for argv in commands:
                _load_this(monkeypatch, M if reuse else _fresh(M))
                assert cli.main(["--out", out] + argv) == 0, (i, argv)
        for name in ("store.csv", "scan.csv", "exact.csv"):
            got, want = ((tmp_path / ("%d-%d" % (i, r)) / name).read_bytes()
                         for r in (True, False))
            assert got == want, (i, name)
    capsys.readouterr()


def test_presentations_are_minimal_by_construction():
    """Every presentation the engines see is minimal, each equal to its own
    minimize, though only the sites that can break minimality run it: the
    blocks of _prepared, their decompose pieces, the fiber submodules of
    the pieces at their grid points and the quotients of those by every
    stratum basis, on random bounded modules and hidden direct sums.  The
    kernel of a minimal presentation is minimal too (what betti_numbers
    reads)."""
    def minimal(N):
        return grmat.minimize(N) == N
    rng = random.Random(2727)
    modules = [random_bounded_module(rng, (F2, F3, F5)[i % 3],
                                     rng.randrange(1, 6))
               for i in range(24)]
    modules += [M for _, _, M in hidden_corpus(n=24, seed=2728)]
    modules.append(stable_module())     # a piece of two generators
    seen = collections.Counter()
    for M in modules:
        assert minimal(grmat.kernel(grmat.minimize(M)))
        for block in pipeline._prepared(M, bounding_box(M)):
            assert minimal(block.module)
            for piece in block.pieces:
                assert minimal(piece) and piece.nrows
                seen["pieces"] += 1
                for alpha in grmat.induced_grid(piece).points():
                    sub = grmat.fiber_submodule(piece, alpha)
                    if sub is None:
                        continue
                    assert minimal(sub), alpha
                    seen["fibers"] += 1
                    fc = hn_core.fiber_classes(sub)
                    for k in range(1, sub.nrows):
                        for _, basis in fc.stratum(k):
                            assert minimal(grmat.quotient_presentation(
                                sub, basis)), (alpha, basis)
                            seen["quotients"] += 1
    assert seen["pieces"] > 100 and seen["fibers"] > 150 and \
        seen["quotients"] > 100


def _query_modules(tmp_path):
    """The cross fixture, I + I of test_cli (two interval pieces whose
    equal slopes merge), three hidden direct sums with a decompose piece
    of two or more generators (two of hidden_corpus, and the stable
    module plus the cross in disguise), and five modules of the
    acceptance-5 corpus."""
    from test_cli import I_PLUS_I
    path = tmp_path / "i_plus_i.skypres"
    path.write_text(I_PLUS_I)
    thick = [M for _, _, M in hidden_corpus(n=14, seed=4243)
             if any(p.nrows > 1 for p in exact_skyscraper(
                 _fresh(M), eager=False).pieces)]
    thick.append(disguise(random.Random(3), grmat.direct_sum(
        stable_module(), cross_module())))
    rng = random.Random(5)
    return [cross_module(), cli.parse_presentation(str(path))] + thick + [
        random_bounded_module(rng, F2 if i % 2 else F3, rng.randrange(1, 3),
                              dmax=3) for i in range(5)]


def test_query_sums_per_piece_counts(tmp_path):
    """ExactStore.query, summed per piece of beta's cells with no factor
    list built, equals the count over the merged factor list at beta
    (reference.held), on lazy and eager stores.  theta: -1, 0, every
    slope at beta exactly (the >= boundary), the midpoints between them
    and above the largest; beta on and between the summands' grid lines,
    below the grid, on the box's upper edges and outside the box; gamma
    >= beta on the relation corners of the clipped module (relations
    are closed), on the box's upper edges and off the grid."""
    rng = random.Random(23)
    seen = collections.Counter()
    for M in _query_modules(tmp_path):
        x0, y0, x1, y1 = bounding_box(M)
        stores = [exact_skyscraper(_fresh(M)),
                  exact_skyscraper(_fresh(M), eager=False)]
        corners = {d for module, _, _ in stores[0].summands
                   for d in module.col_degrees}
        seen["tree"] += any(p.nrows > 1 for p in stores[0].pieces)

        def around(cs, lo, hi):
            mids = [(a + b) / 2 for a, b in zip(cs, cs[1:])]
            return sorted(set(cs + mids + [lo - 1, hi, hi + Fr(1, 3)]))
        bxs = around(sorted({x for _, g, _ in stores[0].summands
                             for x in g.xs}), x0, x1)
        bys = around(sorted({y for _, g, _ in stores[0].summands
                             for y in g.ys}), y0, y1)
        betas = [(x, y) for x in bxs for y in bys]
        betas = rng.sample(betas, min(len(betas), 60))
        for beta in betas:
            fl = stores[0].factors_at(beta)
            slopes = sorted({f.slope for f in fl.factors})
            thetas = [Fr(-1), Fr(0)] + slopes + [
                (a + b) / 2 for a, b in zip(slopes, slopes[1:])] + [
                slopes[-1] + Fr(1, 7) if slopes else Fr(1)]
            gammas = {(x1, beta[1]), (beta[0], y1), (x1, y1), beta,
                      (beta[0] + Fr(1, 2), beta[1] + Fr(1, 3))}
            gammas |= set(corners)
            gammas = [g for g in gammas if grmat.deg_leq(beta, g)]
            for theta in thetas:
                for gamma in gammas:
                    want = reference.held(fl.factors, theta, gamma)
                    for ex in stores:
                        assert ex.query(theta, beta, gamma) == want, \
                            (M, theta, beta, gamma)
                    seen["positive"] += want > 0
                    seen["on a slope"] += want > 0 and theta in slopes
                    seen["on a corner"] += want == 0 and gamma in corners \
                        and bool(fl.factors)
    assert seen.pop("tree") >= 3
    assert min(seen.values()) > 100, seen


def test_landscape_bisects_as_on_fractions(tmp_path):
    """filtered_landscape, bisecting on ints over one denominator per
    evaluation point, equals the Fraction bisection it replaces
    (reference.landscape), value for value, on exact stores,
    approximations and a store without epsilon, at both anchors, at
    theta -1, 0 and 2/5 and k 1 and 2: on the query modules and rescaled
    copies (negative degrees over halves and thirds), at evaluation points
    on, between and outside the grid."""
    modules = _query_modules(tmp_path)[:6]
    modules += [rescaled(M) for M in modules[:3]]
    hit = collections.Counter()
    for M in modules:
        x0, y0, x1, y1 = bounding_box(M)
        pts = [(x0 + (x1 - x0) * Fr(i, 5), y0 + (y1 - y0) * Fr(j, 7))
               for i in range(-1, 7) for j in (-1, 0, 2, 3, 5, 7)]
        ex = exact_skyscraper(M, eager=False)
        sa = approx_skyscraper(M, ScanConfig(epsilon=Fr(1, 2)))
        snap = ex.snapshot(sa.keys())
        for store in (ex, sa, snap, SkyscraperStore(Fr(1, 3))):
            for anchor in ("center", "source"):
                for theta in (Fr(-1), Fr(0), Fr(2, 5)):
                    for k in (1, 2):
                        got = filtered_landscape(store, k, theta, pts, 5,
                                                 anchor)
                        want = reference.landscape(store, k, theta, pts, 5,
                                                   anchor)
                        assert list(got.items()) == list(want.items())
                        assert all(type(v) is Fr for v in got.values())
                        hit["inner"] += sum(0 < v < max(want.values())
                                            for v in want.values())
                        hit["zero"] += sum(v == 0 for v in want.values())
    assert min(hit.values()) > 100, hit


def test_key_grid_floors_leave_no_memo(cross):
    """A store without epsilon floors a point off its keys on the axes of
    its key grid without their memo (Axis.floor_ratio): after a landscape
    over 256 points on the exact snapshot of the cross fixture at its
    pieces' grid points, the key grid's axes hold no memo entry, and the
    landscape equals the Fraction bisection (reference.landscape)."""
    ex = exact_skyscraper(cross, box=(0, 0, 4, 4))
    snap = ex.snapshot([p for _, grid, _ in ex.summands
                        for p in grid.points()])
    assert len(snap) == 3
    pts = [(Fr(i, 5), Fr(j, 5)) for i in range(16) for j in range(16)]
    got = filtered_landscape(snap, 1, Fr(0), pts, resolution=10)
    assert [a.memo for a in snap._key_grid.axes] == [{}, {}]
    assert got == reference.landscape(snap, 1, Fr(0), pts, 10, "center")
    assert any(got.values())


def test_store_entries_share_their_tuples(cross):
    """A stored HN filtration holds only the objects that are its own: the
    value classes have no __dict__, an interval read at a lattice point
    keeps the sweep's point tuple as its alpha and its staircase's
    generator, and the corners that the transport to beta makes are shared
    by the reads on beta's lattice column, (beta_x, r_y), and row, (r_x,
    beta_y), in the approx and the scan store alike.  The points lie in
    the cross fixture's vertical interval [0, 1) x [0, 3) alone, above the
    horizontal one."""
    fl = hn_at(cross, (0, 0))
    values = [fl, fl.factors[0], fl.factors[0].staircases[0]]
    for v in values:
        assert not hasattr(v, "__dict__")
        with pytest.raises(AttributeError):
            v.extra = None
    cfg = ScanConfig(epsilon=Fr(1, 4))
    for store in (approx_skyscraper(cross, cfg),
                  parallel_grid_scan(cross, cfg)):
        def stair(x, y):
            fl = store.entries[(x, y)]
            (f,) = fl.factors
            (S,) = f.staircases
            assert fl.alpha is S.gen
            assert S.rels == [(x, Fr(3)), (Fr(1), y)]
            return S
        a, b = stair(Fr(1, 2), Fr(9, 4)), stair(Fr(1, 2), Fr(5, 2))
        c = stair(Fr(1, 4), Fr(9, 4))
        assert a.rels[0] is b.rels[0] and a.rels[1] is not b.rels[1]
        assert a.rels[1] is c.rels[1] and a.rels[0] is not c.rels[0]


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="object sizes are those of CPython 3.11")
def test_store_bytes_per_entry():
    """An approx store of the cross fixture at epsilon 1/32 (5,120
    entries) holds at most 800 bytes per entry under tracemalloc, the
    module's preparation included: each entry is its key, its factor list,
    factor, staircase, their lists and its slope, and shares its point and
    corner tuples (about 1,014 bytes when each entry copied them)."""
    M = cross_module()
    approx_skyscraper(M, ScanConfig(epsilon=1))     # the preparation
    gc.collect()
    tracemalloc.start()
    try:
        store = approx_skyscraper(M, ScanConfig(epsilon=Fr(1, 32)))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(store) == 5120
    assert held / len(store) <= 800
