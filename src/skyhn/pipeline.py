"""End-to-end drivers: the HN filtration at one degree, the
epsilon-approximation of the skyscraper invariant, the exact per-cell
subdivision store, the cache-friendly grid scan, filtered landscapes, and
the interval-factor diagnostic.

All drivers first clip the module to a bounding box by appending cap
relations, so every integral is finite, minimize it and split it into
connected blocks (``_clipped_blocks``).  Brute force and the exact cells
then run on the direct summands that ``grmat.decompose`` finds in each
block (``_Block``); the cheng engine runs on each block whole.  Both are
kept on the module for its latest box (``_prepared``), so every driver call
shares them; cells, stores and work counts stay per call.  Every
presentation an engine sees is minimal by construction, as the blocks and
pieces are: ``grmat`` minimizes only where an operation can break it.  In
the sweeps and the exact store, a summand of one generator is an interval
module and reaches no engine: one ``_Interval`` per summand reads it from
its staircase, where the HN filtration at every point of the support is the
interval above the point, at slope 1/area.  Most summands that decompose
finds have one generator, so there the engines run on the few that have
more.  ``hn_at`` stays the reference that the staircase reads are checked
against: it runs brute force on every summand.

Every per-point read is a function of the point that returns an
``HNFactorList``, empty on a zero fiber.  ``hn_at`` and
``approx_skyscraper`` build their reads once per call, a list per
connected block: ``hn_core.hn_filtration_at`` on each piece (``hn_at``,
brute force), ``_cheng_read`` of each block (cheng), or, in the
brute-force sweep, ``_Interval.factors_at`` and the HN loop on the cell
fibers of the other pieces.  ``_merged`` calls them at each point and
joins the factors of every read with one ``invariants.merge_factors``,
equal slopes into one, so the answer does not depend on how the
presentation falls into blocks.  ``approx_skyscraper`` and
``parallel_grid_scan`` are one colexicographic sweep of the epsilon lattice
(``_sweep``) with two per-point strategies: HN engine runs, or the lazily
built cells of an ``ExactStore``.  The sweep visits only the support's
lattice points: per lattice row, the columns where some read can be
non-zero, found once per call on ints (``_row_columns``), exactly for an
``_Interval`` and from the least generator at or below the row for any
other piece or cheng block; every other point lies in a cell where every
piece is zero, so it adds no work.  A module is constant on each cell of its
induced grid, and one per-cell cache (``_Cells``) serves both: the
brute-force sweep builds the fiber submodule of a piece of two or more
generators once per cell, at the cell's lower corner, and reads every
lattice point of the cell from it (``hn_core.hn_filtration_of``), as the HN
loop memoizes its linear algebra on it; an ``ExactStore`` builds a
summand's subdivision trees once per cell.  ``_sweep`` is the one place
that evicts cells: it tells every cache which lattice row it enters, and
each drops the cells of its other grid rows.  ``store.work`` counts per
connected block.

Rank queries run on ints and build no factor list: ``ExactStore.query``
sums, over the pieces live in beta's cells, each piece's count of the
theta-staircases at beta that hold gamma, which is the count over the
merged filtration, since merge_factors only joins equal slopes and keeps
their summed indicator.  An ``_Interval`` counts on the integer ratios of
beta, gamma and theta (``_Interval.count``, with the transport it shares
with its factors_at), a subdivision tree from its read at beta.
``filtered_landscape`` bisects over integer reaches, every point over one
denominator per evaluation point.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import cheng, grmat, hn_core, invariants, subdivision
from .grmat import Grid, Lattice, as_degree
from .invariants import (HNFactor, HNFactorList, SkyscraperStore, Staircase,
                         count_containing, merge_factors,
                         staircase_contains, theta_staircases)

__all__ = ["ScanConfig", "EngineFailure", "bounding_box", "clip_to_box",
           "regular_grid", "hn_at", "approx_skyscraper", "ExactStore",
           "exact_skyscraper", "parallel_grid_scan", "filtered_landscape",
           "factor_interval_check"]

ENGINES = ("brute", "cheng")


def _check_engine(engine):
    if engine not in ENGINES:
        raise ValueError("unknown engine %r" % (engine,))


class ScanConfig:
    """Knobs of the lattice drivers: lattice spacing, HN engine, seed of
    the randomized engine, and clipping box (the bounding box when None)."""

    def __init__(self, epsilon=1, engine="brute", seed=0, box=None):
        self.epsilon = Lattice(epsilon).epsilon
        _check_engine(engine)
        self.engine = engine
        self.seed = seed
        self.box = tuple(Fraction(c) for c in box) if box else None


class EngineFailure(RuntimeError):
    """An HN engine failed at a specific base degree."""

    def __init__(self, alpha, cause):
        super().__init__("engine failure at (%s, %s): %s" % (*alpha, cause))
        self.alpha = alpha
        self.cause = cause


def bounding_box(M):
    """Axis-aligned box covering all presentation degrees, reaching one
    unit past the largest degree on each axis: read off the sorted
    distinct coordinates of M's axes (M._ranks)."""
    ax, ay, _, _ = M._ranks
    if not ax.coords:
        z = Fraction(0)
        return (z, z, z, z)
    return (ax.coords[0], ay.coords[0], ax.coords[-1] + 1, ay.coords[-1] + 1)


def clip_to_box(M, box):
    """Append cap relations killing every generator at the box's upper
    edges, making the cokernel bounded (supported inside the box).  Built
    on M's coordinate ranks (grmat._from_ranks): the box's edges are
    floored on M's axes, each upper edge is a coordinate of M or enters
    its axis as a new one, and the generators are checked and the caps
    placed on their ranks."""
    box = [Fraction(c) for c in box]
    ax, ay, row_rk, col_rk = M._ranks
    # per edge, how many of its axis's coordinates lie below it, and
    # whether it is one of them
    (lx, _), (ly, _), (hx, ex), (hy, ey) = (
        (i + 1 - exact, exact) for i, exact in
        (a.floor_ratio(*c.as_integer_ratio())
         for a, c in zip((ax, ay, ax, ay), box)))
    for i, (rx, ry) in enumerate(row_rk):
        if not (lx <= rx < hx and ly <= ry < hy):
            raise ValueError("generator %d at (%s, %s) outside the box"
                             % (i, *M.row_degrees[i]))
    # a new upper edge shifts the coordinates from its rank on up by one;
    # every generator lies below it
    if not ex:
        ax = grmat.Axis(ax.coords + [box[2]])
    if not ey:
        ay = grmat.Axis(ay.coords + [box[3]])
    col_rk = [(x + (not ex and x >= hx), y + (not ey and y >= hy))
              for x, y in col_rk]
    cols = list(M.columns)
    one = M.field.one
    for i, (rx, ry) in enumerate(row_rk):
        col_rk += [(hx, ry), (rx, hy)]
        cols += [[(i, one)], [(i, one)]]
    return grmat._from_ranks(M.field, ax, ay, list(row_rk), col_rk, cols)


def regular_grid(M, extra_points, box):
    """Evenly spaced grid covering the box and containing every degree of M
    and every extra point inside the box; on such a grid discrete slopes
    are proportional to the exact area-weighted ones.  Per axis, the step
    is the largest that hits every such coordinate from the box's lower
    edge on.  Computed on ints: per axis the box's edges, M's coordinates
    (M._ranks) and the extra points over one denominator."""
    extra = [as_degree(d) for d in extra_points]
    ax, ay, row_rk, col_rk = M._ranks
    # per axis: den, the edges and the ints of M's and the extra coordinates
    axes = [grmat._over_lcm([box[k], box[k + 2], *coords,
                             *(d[k] for d in extra)])
            for k, coords in enumerate((ax.coords, ay.coords))]
    (_, (x0, x1, *X)), (_, (y0, y1, *Y)) = axes
    pts = [(X[rx], Y[ry]) for rx, ry in row_rk + col_rk]
    pts += zip(X[len(ax.coords):], Y[len(ay.coords):])
    pts = [(x, y) for x, y in pts if x0 <= x <= x1 and y0 <= y <= y1]
    out = []
    for k, (den, (lo, hi, *_)) in enumerate(axes):
        step = math.gcd(hi - lo, *(p[k] - lo for p in pts))
        out.append([Fraction(lo + i * step, den)
                    for i in range((hi - lo) // step + 1)]
                   if step else [Fraction(lo, den)])
    return Grid(*out)


def _blocks(M):
    return [grmat.extract_block(M, rows, cols)
            for rows, cols in grmat.connected_components(M) if rows]


class _Block:
    """A connected block (module) of a clipped minimal presentation and
    what drivers read of it, each built at its first read: its decompose
    pieces, their readers (_Interval or the piece) and its induced grid.
    Kept off the module: a block that does not split is its own piece,
    and would make a reference cycle."""

    def __init__(self, module):
        self.module = module

    @functools.cached_property
    def pieces(self):
        return tuple(grmat.decompose(self.module))

    @functools.cached_property
    def readers(self):
        return tuple(_Interval(p) if p.nrows == 1 else p
                     for p in self.pieces)

    @functools.cached_property
    def grid(self):
        return grmat.induced_grid(self.module)


def _prepared(M, box):
    """The _Blocks of the minimal presentation of M clipped to the box:
    what every driver runs on, kept on M for the latest box alone
    (M._clipped)."""
    box = tuple(box)
    if getattr(M, "_clipped", (None,))[0] != box:
        M._clipped = (box, tuple(map(_Block, _blocks(
            grmat.minimize(clip_to_box(M, box))))))
    return M._clipped[1]


def _clipped_blocks(M, box):
    """The connected blocks of the minimal presentation of M clipped to
    the box (the modules of _prepared).  The blocks of a minimal
    presentation are minimal, and none of them presents zero."""
    return tuple(b.module for b in _prepared(M, box))


class _Interval:
    """A one-generator piece of decompose, an interval module, read from
    its staircase: at every point beta of the support the module
    generated there is the interval above beta, which is semistable, so
    its one factor is that interval at slope 1/area [FJNT24].  Built once
    per piece, with the readers of its block (_Block).  It keeps the
    staircase as Fractions (stair) and as ints over one denominator, den,
    the lcm of the staircase's denominators (gen, rels), and the corners
    that its reads have made, so that every read on one lattice column or
    row shares them: (beta_x, r_y) keyed on beta_x's integer ratio and
    r's index + 1 (cols), (r_x, beta_y) on r's index and beta_y's ratio
    (rows)."""

    __slots__ = ("stair", "den", "gen", "rels", "cols", "rows")

    def __init__(self, piece):
        """Checked on the piece's coordinate ranks: the relations of a
        minimal one-generator presentation are an antichain, and the box
        caps bound it on both axes."""
        ax, ay, (gen,), rels = piece._ranks
        rels = sorted(rels)
        if not all(a[0] < b[0] and a[1] > b[1]
                   for a, b in zip(rels, rels[1:])):
            raise ValueError("relations do not form an antichain")
        if not rels or rels[0][0] != gen[0] or rels[-1][1] != gen[1]:
            raise ValueError("module is not bounded: infinite inverse slope")
        self.stair = Staircase(piece.row_degrees[0],
                               [(ax.coords[x], ay.coords[y]) for x, y in rels],
                               check=False)
        pts = [self.stair.gen] + self.stair.rels
        self.den, ints = grmat._over_lcm([c for p in pts for c in p])
        self.gen, *self.rels = zip(ints[0::2], ints[1::2])
        self.cols, self.rows = {}, {}

    def _transport(self, b):
        """The one pass on ints over the relations that both reads of the
        interval share, at beta with integer ratios b = (xn, xd, yn, yd),
        any positive denominators: None off the support; on it, (p, s,
        area).  The relations i < p lie left of beta (r_x <= beta_x) and
        those i >= s below it (r_y <= beta_y), so the staircase transported
        to beta (as invariants.staircase_at transports it) has the
        relations (beta_x, r_y) of i = p - 1, those of p <= i < s as they
        are, and (r_x, beta_y) of i = s; the box caps make p >= 1 and s <
        len(rels).  area is its area over L*xd * L*yd (L the den), summed
        as rectangles."""
        xn, xd, yn, yd = b
        L, rels = self.den, self.rels
        X, Y = xn * L, yn * L
        if self.gen[0] * xd > X or self.gen[1] * yd > Y:
            return None
        n = len(rels)
        p, s = 1, n - 1     # rels[0] has the generator's x, rels[-1] its y
        while p < n and rels[p][0] * xd <= X:
            p += 1
        while s and rels[s - 1][1] * yd <= Y:
            s -= 1
        if s < p:       # a relation <= beta
            return None
        px, py = X, rels[p - 1][1] * yd
        area = 0
        for RX, RY in rels[p:s]:
            RX *= xd
            area += (RX - px) * (py - Y)
            px, py = RX, RY * yd
        return p, s, area + (rels[s][0] * xd - px) * (py - Y)

    def factors_at(self, beta):
        """The HN filtration at beta, empty off the support, from the
        transport on ints (_transport); the slope is the one Fraction
        built, and the two moved corners are the ones kept for beta's
        column and row (cols, rows)."""
        b = beta[0].as_integer_ratio() + beta[1].as_integer_ratio()
        at = self._transport(b)
        if at is None:
            return HNFactorList(beta, [])
        p, s, area = at
        rels, L = self.stair.rels, self.den
        key = (b[0], b[1], p)
        first = self.cols.get(key)
        if first is None:
            first = self.cols[key] = (beta[0], rels[p - 1][1])
        key = (s, b[2], b[3])
        last = self.rows.get(key)
        if last is None:
            last = self.rows[key] = (rels[s][0], beta[1])
        out = rels[p - 1:s + 1]
        out[0], out[-1] = first, last
        return HNFactorList(beta, [HNFactor(
            [Staircase(beta, out, check=False)],
            Fraction(L * L * b[1] * b[3], area))])

    def count(self, b, g, tn, td):
        """The interval's term of s^theta(beta, gamma), theta = tn/td, for
        beta <= gamma given by integer ratios b and g (any positive
        denominators), beta on the support, as it is for every interval
        of beta's cells (_cell_trees): its one staircase at beta holds
        gamma exactly when no relation is <= gamma (the relations at beta
        are their joins with beta, and beta <= gamma), and its slope
        L*xd * L*yd / area is >= theta exactly when L*xd * L*yd * td >=
        tn * area, always when theta <= 0."""
        gxn, gxd, gyn, gyd = g
        L = self.den
        GX, GY = gxn * L, gyn * L
        for RX, RY in self.rels:
            if RX * gxd > GX:       # this and every later one right of gamma
                break
            if RY * gyd <= GY:
                return 0
        if tn <= 0:
            return 1
        area = self._transport(b)[2]
        return int(L * L * b[1] * b[3] * td >= tn * area)


def _cheng_read(module, seed, box, grid=None):
    """The cheng engine's read of a connected block, a function of the
    point alpha: hn_cheng on the block whole, on the given grid, else on
    the block's regular grid at alpha in the box, which it builds only
    where the fiber at alpha is non-zero; a ShrunkFailure is raised as
    EngineFailure at alpha."""
    def read(alpha):
        G = (functools.partial(regular_grid, module, [alpha], box)
             if grid is None else grid)
        try:
            return cheng.hn_cheng(module, G, alpha, seed=seed)
        except cheng.ShrunkFailure as exc:
            raise EngineFailure(alpha, exc)
    return read


def _merged(reads, alpha, work=None):
    """HN filtration at alpha of the direct sum of the connected blocks:
    reads holds, per block, the functions of the point that read its
    pieces (the block itself for cheng), and the factors of every read
    are merged once (merge_factors); work[i] counts the points where some
    read of block i is non-empty."""
    lists = []
    for i, block_reads in enumerate(reads):
        fls = [read(alpha) for read in block_reads]
        lists += fls
        if work is not None and any(fl.factors for fl in fls):
            work[i] += 1
    return merge_factors(alpha, lists)


def hn_at(M, alpha, engine="brute", seed=0, box=None, cheng_grid=None):
    """HN filtration of <V_alpha> of the clipped module: brute force runs
    hn_core.hn_filtration_at once per summand found by grmat.decompose,
    one-generator summands included, so that it is the reference for the
    staircase reads that the sweeps and the exact store make of those
    (_Interval); cheng runs once per connected block (_cheng_read); both
    read the blocks kept on M (_prepared), and _merged joins the reads.
    The cheng engine runs on cheng_grid, or else on the regular grid of
    each block and alpha."""
    alpha = as_degree(alpha)
    _check_engine(engine)
    box = box or bounding_box(M)
    if engine == "cheng":
        reads = [[_cheng_read(b, seed, box, cheng_grid)]
                 for b in _clipped_blocks(M, box)]
    else:
        reads = [[functools.partial(hn_core.hn_filtration_at, p)
                  for p in b.pieces] for b in _prepared(M, box)]
    return _merged(reads, alpha)


def _row_columns(readers, lat, bounds):
    """Per row of the Lattice lat in the box of the lattice indices bounds
    (Lattice.indices), bottom up, the sorted positions in the row (column
    k - k0) outside which every read of the readers is zero, on ints, as
    steps (J, lo, hi): from row J up to the next step's the columns lo <=
    k < hi.  An _Interval is non-zero exactly on its support, a step per
    relation r from the highest, from row ceil(r_y) on the columns
    ceil(gen_x) <= k < ceil(r_x); any other reader, a piece of two or more
    generators or a cheng block, is zero left of its generators at or
    below the row, and may be non-zero from the least of their columns to
    the row's end."""
    k0, j0, k1, j1 = bounds
    rows = [set() for _ in range(j0, j1)]
    for r in readers:
        if type(r) is _Interval:
            lo = lat.ceil(r.gen[0], r.den)
            steps = [(lat.ceil(ry, r.den), lo, lat.ceil(rx, r.den))
                     for rx, ry in reversed(r.rels)]
        else:
            steps, lo = [], k1
            for J, K in sorted((lat.ceil(*gy.as_integer_ratio()),
                                lat.ceil(*gx.as_integer_ratio()))
                               for gx, gy in r.row_degrees):
                lo = min(lo, K)
                steps.append((J, lo, k1))
        for (J, lo, hi), (J_up, *_) in zip(steps, steps[1:] + [(j1,)]):
            cols = range(max(lo, k0) - k0, min(hi, k1) - k0)
            for row in rows[max(J - j0, 0):max(J_up - j0, 0)]:
                row.update(cols)
    return [sorted(row) for row in rows]


class _Cells(dict):
    """Data constant on each cell of a module's induced grid: build(c) runs
    on the first read of the cell with lower corner c, and its result is
    kept under the cell's grid-index pair; `built` counts the builds that
    returned something other than None.  A sweep calls keep_row on entering
    each lattice row, which drops the cells of every other grid row."""

    def __init__(self, grid, build):
        super().__init__()
        self.grid = grid
        self.build = build
        self.built = 0
        self.row = None

    def at(self, alpha):
        """The data of alpha's cell, or None where alpha lies below the
        grid."""
        ix, iy, _ = self.grid.index(alpha)
        if ix < 0 or iy < 0:
            return None
        data = self.get((ix, iy), self)      # self: not built yet
        if data is self:
            data = self[ix, iy] = self.build(
                (self.grid.xs[ix], self.grid.ys[iy]))
            self.built += data is not None
        return data

    def keep_row(self, y):
        iy = self.grid.axes[1].floor(y)[0]     # the row index at finds
        if iy != self.row:
            self.row = iy
            self.clear()


def _sweep(box, epsilon, hn_of, readers, caches=()):
    """Store of the non-empty filtrations hn_of(alpha) at the epsilon-lattice
    points alpha of the box, visited colexicographically, where alpha lies
    in the columns of its row outside which every read of the readers is
    zero (_row_columns): hn_of reads only the support, and any other
    lattice point lies in a cell where every piece is zero.  Each of
    the caches (_Cells) is told every lattice row the sweep enters, and
    keeps only that row's cells.  The store's Lattice gives the lattice
    indices of the box, once."""
    store = SkyscraperStore(epsilon)
    lat = store.lattice
    bounds = lat.indices(box)
    xs, ys = lat.points(bounds)
    for y, cols in zip(ys, _row_columns(readers, lat, bounds)):
        for cells in caches:
            cells.keep_row(y)
        for k in cols:
            fl = hn_of((xs[k], y))
            if fl.factors:
                store.insert(fl)
    return store


def approx_skyscraper(M, cfg):
    """Store of HN filtrations at every epsilon-lattice point of the
    support; an epsilon-approximation of the true invariant in erosion
    distance.  The sweep (_sweep) visits only the lattice points where some
    read can be non-zero.  The reads are built once per call and merged at
    each point (_merged).  Brute force reads a one-generator piece from its
    _Interval (the readers kept on each _Block), and builds any other
    piece's fiber submodule once per cell of the piece's induced grid, in
    one _Cells cache per piece and call that _sweep evicts row by row, and
    runs the HN loop on it at every lattice point of the cell
    (hn_core.hn_filtration_of), so each HN step's linear algebra runs once
    per cell; the cheng engine runs on each block whole at every point
    (_cheng_read), on the regular grid of the block and the point, as
    hn_at does.  store.work counts, per connected block, the lattice
    points where its pieces' reads found a non-zero fiber."""
    box = cfg.box or bounding_box(M)
    caches = []

    def cell_read(piece):
        cells = _Cells(grmat.induced_grid(piece),
                       functools.partial(grmat.fiber_submodule, piece))
        caches.append(cells)
        return lambda alpha: hn_core.hn_filtration_of(cells.at(alpha), alpha)

    if cfg.engine == "cheng":
        readers = _clipped_blocks(M, box)
        reads = [[_cheng_read(b, cfg.seed, box)] for b in readers]
    else:
        blocks = _prepared(M, box)
        readers = [r for b in blocks for r in b.readers]
        reads = [[r.factors_at if type(r) is _Interval else cell_read(r)
                  for r in b.readers] for b in blocks]
    work = [0] * len(reads)
    store = _sweep(box, cfg.epsilon,
                   functools.partial(_merged, reads, work=work), readers,
                   caches)
    store.work = work
    return store


def _cell_trees(readers, grid, corner):
    """What an ExactStore reads over the cell of a summand's grid with the
    given lower corner, per piece of the summand (readers: the _Interval
    of a one-generator piece, any other piece itself): the _Intervals
    live at the corner, and the subdivision trees of the blocks of
    <V_corner> of the other pieces (<V>(A + B) = <V>(A) + <V>(B)); None
    when every fiber is zero or the cell is unbounded."""
    ix, iy, _ = grid.index(corner)
    if ix + 1 == len(grid.xs) or iy + 1 == len(grid.ys):
        return None
    rect = (corner[0], corner[1], grid.xs[ix + 1], grid.ys[iy + 1])
    out = []
    for p in readers:
        if type(p) is _Interval:
            if staircase_contains(p.stair, corner):
                out.append(p)
            continue
        sub = grmat.fiber_submodule(p, corner)
        if sub is not None:
            out += [subdivision.exact_hnf_cell(block, rect)
                    for block in _blocks(sub)]
    return out or None


class ExactStore:
    """Per-summand, per-grid-cell subdivision trees; answers HN filtrations
    and skyscraper queries at arbitrary rational points of the box.

    A summand is one connected block of the clipped, minimized module
    (_clipped_blocks), with its induced grid and its cells (a _Cells
    cache); its pieces are the summands that grmat.decompose finds in it,
    and each cell holds the _Intervals of the one-generator pieces live
    there and the trees of the fiber submodules of the others
    (_cell_trees).  The store is built from the module and the box: its
    summands are the _Blocks of _prepared(M, box), whose grid, pieces and
    readers it shares; the cells belong to the store."""

    def __init__(self, M, box):
        self.box = box
        # (module, grid, _Cells of [SubdivTree or _Interval] or None), one
        # per summand
        self.summands = []
        self.pieces = []        # the decompose pieces of every summand
        for b in _prepared(M, box):
            build = functools.partial(_cell_trees, b.readers, b.grid)
            self.summands.append((b.module, b.grid, _Cells(b.grid, build)))
            self.pieces += b.pieces

    @property
    def work(self):
        """Per summand: the non-empty cell lists built."""
        return [cells.built for _, _, cells in self.summands]

    def factors_at(self, beta):
        beta = as_degree(beta)
        return merge_factors(beta, [t.factors_at(beta)
                                    for _, _, cells in self.summands
                                    for t in cells.at(beta) or ()])

    def query(self, theta, beta, gamma):
        """s^theta(beta, gamma): staircase memberships of gamma among HN
        factors at beta of slope >= theta, summed over the pieces live in
        beta's cells (_count), with no factor list built; beta <= gamma is
        tested on their integer ratios.  The sum is the count over the
        merged list that factors_at returns: counting the theta-staircases
        that hold gamma sums the indicator functions of the factors of
        slope >= theta at gamma, and merge_factors only joins factors of
        one slope, whose summed indicator renormalize keeps."""
        beta, gamma = as_degree(beta), as_degree(gamma)
        b, g = grmat._ratios(beta), grmat._ratios(gamma)
        if b[0] * g[1] > g[0] * b[1] or b[2] * g[3] > g[2] * b[3]:
            raise ValueError("query requires beta <= gamma")
        return self._count(theta, beta, b, g, gamma)

    def _count(self, theta, beta, b, g, gamma=None):
        """query for beta <= gamma, with beta's integer ratios b and
        gamma's g (any positive denominators): an _Interval counts on ints
        (_Interval.count), a tree counts the staircases of its factors at
        beta, for which gamma's Fractions are built when not given."""
        tn, td = theta.as_integer_ratio()
        n = 0
        for _, _, cells in self.summands:
            for t in cells.at(beta) or ():
                if type(t) is _Interval:
                    n += t.count(b, g, tn, td)
                    continue
                if gamma is None:
                    gamma = (Fraction(g[0], g[1]), Fraction(g[2], g[3]))
                n += count_containing(theta_staircases(
                    t.factors_at(beta).factors, theta), gamma)
        return n

    def snapshot(self, keys, epsilon=None):
        """SkyscraperStore of the exact filtrations at the given keys."""
        store = SkyscraperStore(epsilon)
        for alpha in keys:
            fl = self.factors_at(alpha)
            if fl.factors:
                store.insert(fl)
        return store


def exact_skyscraper(M, box=None, eager=True):
    """Exact skyscraper store: the clipped module is minimized and split
    into connected summands, each further into its decompose pieces, and
    each cell of a summand's induced grid gets, at its lower corner, the
    subdivision trees of the pieces' fiber submodules, and the _Intervals
    of the one-generator pieces live there (all cells now when eager,
    else each cell at its first query)."""
    box = box or bounding_box(M)
    store = ExactStore(M, box)
    if eager:
        for _, grid, cells in store.summands:
            for corner in grid.points():
                cells.at(corner)
    return store


def parallel_grid_scan(M, cfg):
    """The epsilon-lattice sweep of approx_skyscraper, over the same
    support's lattice points (the columns of the pieces' readers), answered
    from the lazily built cells of an ExactStore: a summand's trees serve
    every lattice point of one grid row, and _sweep evicts its cells when it
    leaves their row.  Produces the same store as approx_skyscraper;
    store.work counts tree computations per summand (never more than the
    engine runs of approx)."""
    box = cfg.box or bounding_box(M)
    ex = exact_skyscraper(M, box, eager=False)
    store = _sweep(box, cfg.epsilon, ex.factors_at,
                   [r for b in _prepared(M, box) for r in b.readers],
                   [cells for _, _, cells in ex.summands])
    store.work = ex.work
    return store


def filtered_landscape(store, k, theta, eval_points, resolution=8,
                       anchor="center"):
    """lambda_k^theta at each evaluation point: the largest diagonal reach h
    with s^theta(alpha - h*1, alpha + h*1) >= k (anchor 'center'), or
    s^theta(alpha, alpha + h*1) >= k (anchor 'source'), found by bisection
    to resolution hmax / 2^resolution; k is an integer >= 1.

    The bisection runs on ints: the reaches are h = m*step, step =
    hmax / 2^resolution, and per evaluation point, alpha and step go over
    one denominator E (grmat._over_lcm), so every point a level reads is
    a pair of int numerators over E.  An exact store counts on them
    (ExactStore._count), and only a moving beta (anchor 'center') becomes
    Fractions, for the lookup of its cells; a SkyscraperStore gets the
    Fraction points of its query."""
    if k < 1:
        raise ValueError("k must be at least 1, got %r" % (k,))
    if anchor not in ("center", "source"):
        raise ValueError("anchor must be 'center' or 'source', got %r"
                         % (anchor,))
    # the reaches h = m * step, 0 <= m <= 2**resolution, hmax = H/D
    exact = isinstance(store, ExactStore)
    if exact:
        D, (x0, y0, x1, y1) = grmat._over_lcm(store.box)
        H = max(x1 - x0, y1 - y0)
    else:
        ks = store.keys()
        D, ints = grmat._over_lcm(
            [c for b in ks for c in b] + [store.epsilon or 1])
        H = (max(max(ints[0:-1:2]) - min(ints[0:-1:2]),
                 max(ints[1:-1:2]) - min(ints[1:-1:2])) + ints[-1]
             if ks else 0)
    if H <= 0:
        H, D = 1, 1
    step = Fraction(H, D << resolution)

    out = {}
    for alpha in eval_points:
        alpha = as_degree(alpha)
        E, (AX, AY, S) = grmat._over_lcm([*alpha, step])

        def level(m):
            """s^theta(alpha - h*1, alpha + h*1) (center) or s^theta(alpha,
            alpha + h*1) (source) at h = m*step, every point over E."""
            b = ((AX, E, AY, E) if anchor == "source"
                 else (AX - m * S, E, AY - m * S, E))
            g = (AX + m * S, E, AY + m * S, E)
            beta = (alpha if anchor == "source"
                    else (Fraction(b[0], E), Fraction(b[2], E)))
            if exact:
                return store._count(theta, beta, b, g)
            return invariants.skyscraper_query(
                store, theta, beta, (Fraction(g[0], E), Fraction(g[2], E)))

        lo, hi = 0, 1 << resolution
        if level(0) < k:
            lo = hi = 0
        elif level(hi) >= k:
            lo = hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if level(mid) >= k:
                lo = mid
            else:
                hi = mid
        out[alpha] = Fraction(lo * S, E)
    return out


def factor_interval_check(store):
    """Flag factors whose superlevel decomposition has more than one
    staircase (thickness > 1); returns (alpha, factor_index, thickness)
    tuples.  Empty report: every semistable factor is an interval."""
    report = []
    for alpha in store.keys():
        for j, f in enumerate(store.entries[alpha].factors):
            if len(f.staircases) > 1:
                report.append((alpha, j, len(f.staircases)))
    return report
