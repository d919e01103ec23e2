"""Brute-force highest-slope search over F_q-subspaces, and the full HN
filtration by iterated quotients.

Fractions at the API, ints below: slopes, integrals, degrees and
staircases leave this module as Fractions, and the loops inside run on
ints.  The search needs the integral of dim <W> for very many subspaces W
of the fiber at the generator degree.  Grid cells are grouped into classes
with a common active-relation column space, found by comparing the
integer coordinate ranks of the induced grid, so each subspace costs one
tuple of small per-class ranks.  Class weights are exact integers over one
common denominator (each axis scaled by the lcm of its coordinate
denominators), so scoring a subspace is an integer dot product, and a
factor's superlevel staircases come from one sweep over grid indices.
The ranks are echelon inserts through field._vector_form, which packs the
vectors (F_2 bitmasks or lists); this module never reads a packed vector.

The classes, their ranks and the quotients depend only on the integer
ranks; only the weights depend on the point alpha of the first cell where
the filtration is read.  ``hn_filtration_at`` builds the fiber submodule
<V_alpha> and hands it to ``hn_filtration_of``, the quotient loop; the
lattice sweep hands the loop its cell's <V_c> at every lattice point
alpha of the cell, so the linear algebra of a cell runs once per HN step.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from . import grmat, invariants
from .field import _vector_form
from .invariants import HNFactor, HNFactorList

__all__ = ["SlopeRecord", "brute_force_max_slope", "hn_filtration_at",
           "hn_filtration_of", "subspaces_of_dim"]


def _scaled_gaps(coords):
    """(gaps, scale): the coordinate gaps as ints over scale, the lcm of the
    denominators; the last coordinate's unbounded cell gets gap 0."""
    scale, ints = grmat._over_lcm(coords)
    return [b - a for a, b in zip(ints, ints[1:])] + [0], scale


class _FiberClasses:
    """Per-presentation cache of what depends only on the integer ranks:
    the induced grid, per-point fiber class, and per nonzero-fiber class
    its relation-column echelon and corank.  `at(alpha)` gives the class
    weights at a point alpha of the first cell [generator degree, next
    coordinate): they read the grid with the generator's coordinates
    replaced by alpha's (`axes_at`), so only the first gap on each axis
    moves, and the classes and weights are those of the presentation
    joined with alpha.

    Grid points are index pairs (ix, iy) into the module's axes (`axes`),
    and every degree comparison is one of integer ranks.  `ranks` gives
    the per-class ranks of one subspace.  Two memos serve the HN steps at
    every point of a cell: `stratum(k)`, the k-subspaces with their ranks,
    and `quotients`, the quotient presentation by each chosen subspace."""

    def __init__(self, M):
        F = self.field = M.field
        form = _vector_form(F.q)
        self._pack, self._insert = form.pack, form.insert
        t = self.t = M.nrows
        fx, fy, row_rk, col_rk = M._ranks
        if len(set(row_rk)) != 1:
            raise ValueError("module is not uniquely generated")
        self.alpha = M.row_degrees[0]
        self.axes = fx, fy
        self.origin = ax, ay = row_rk[0]     # alpha's index pair
        dense = self.to_internal(M.dense_column(j) for j in range(M.ncols))
        class_by_J = {}
        # (ix, iy) -> class index, or -1 where the fiber is zero
        self.point_class = {}
        self.echs = []          # per class: echelon dict of relation columns
        self.coranks = []       # per class: fiber dimension, > 0
        for iy in range(len(fy.coords)):
            for ix in range(len(fx.coords)):
                if ix < ax or iy < ay:
                    self.point_class[ix, iy] = -1
                    continue
                J = tuple(j for j, (cx, cy) in enumerate(col_rk)
                          if cx <= ix and cy <= iy)
                cid = class_by_J.get(J)
                if cid is None:
                    ech = {}
                    rank = sum(self._insert({}, ech, dense[j]) for j in J)
                    cid = -1
                    if rank < t:
                        cid = len(self.echs)
                        self.echs.append(ech)
                        self.coranks.append(t - rank)
                    class_by_J[J] = cid
                self.point_class[ix, iy] = cid
        self._strata = {}
        self.quotients = {}     # chosen basis, as row tuples -> quotient

    def at(self, alpha):
        """The class weights at alpha, a point of the first cell."""
        return _ClassWeights(self, alpha)

    def axes_at(self, alpha):
        """The grid coordinates with the generator's replaced by alpha's."""
        (ax, ay), (xs, ys) = self.origin, (a.coords for a in self.axes)
        return (xs[:ax] + [alpha[0]] + xs[ax + 1:],
                ys[:ay] + [alpha[1]] + ys[ay + 1:])

    def to_internal(self, vectors):
        """Convert dense basis vectors to the internal representation."""
        return [self._pack(vec) for vec in vectors]

    def ranks(self, ivecs):
        """Per class, the dim of the image of span(ivecs) in its fiber."""
        insert = self._insert
        out = []
        for ech, corank in zip(self.echs, self.coranks):
            r = 0
            tmp = {}
            for v in ivecs:
                r += insert(ech, tmp, v)
                if r == corank:
                    break
            out.append(r)
        return tuple(out)

    def stratum(self, k):
        """The k-subspaces of the fiber as (ranks, rows) pairs in
        subspaces_of_dim order, enumerated on first use: every line for
        k = 1, and for k > 1 one pair per distinct ranks tuple, with the
        first subspace that has it.  Subspaces of equal dim and ranks have
        the same slope at every point of the cell."""
        out = self._strata.get(k)
        if out is None:
            pairs = ((self.ranks(self.to_internal(rows)), rows)
                     for rows in subspaces_of_dim(self.field, self.t, k))
            if k == 1:
                out = list(pairs)
            else:
                first = {}
                for ranks, rows in pairs:
                    first.setdefault(ranks, rows)
                out = list(first.items())
            self._strata[k] = out
        return out

    def staircases(self, ranks, thickness, alpha):
        """invariants.staircases_from_dims at alpha, a point of the first
        cell, of the dims of a subspace with these per-class ranks
        (``coranks`` for the whole fiber), swept over grid indices."""
        dims = {p: ranks[cid] for p, cid in self.point_class.items()
                if cid >= 0}
        return invariants.grid_staircases(*self.axes_at(alpha), self.origin,
                                          dims, thickness, alpha)


class _ClassWeights:
    """The fiber classes' weights at a point alpha of the first cell, all
    exact ints: the x and y cell gaps are ints over `scale` = (sx, sy), so
    per class the lengths on the rays {alpha1} x [alpha2, inf) (`vert`)
    and [alpha1, inf) x {alpha2} (`horiz`) are over sy and sx, and the
    areas (`area`) over den = sx*sy.  `scaled_integral` gives den times
    the integral of a subspace's dims from its per-class ranks."""

    def __init__(self, fc, alpha):
        ax, ay = fc.origin
        xs, ys = fc.axes_at(alpha)
        wx, sx = _scaled_gaps(xs)
        wy, sy = _scaled_gaps(ys)
        self.scale = (sx, sy)
        self.den = sx * sy
        n = len(fc.coranks)
        self.area, self.vert, self.horiz = [0] * n, [0] * n, [0] * n
        for (ix, iy), cid in fc.point_class.items():
            if cid >= 0:
                self.area[cid] += wx[ix] * wy[iy]
                if ix == ax:
                    self.vert[cid] += wy[iy]
                if iy == ay:
                    self.horiz[cid] += wx[ix]

    def scaled_integral(self, ranks):
        """den * the integral of the dims given by per-class ranks."""
        return sum(map(operator.mul, self.area, ranks))


def fiber_classes(M):
    cache = getattr(M, "_fiber_classes", None)
    if cache is None:
        cache = _FiberClasses(M)
        M._fiber_classes = cache
    return cache


# ---------------------------------------------------------------------------
# Grassmannian enumeration by reduced row-echelon patterns

def subspaces_of_dim(field, t, k):
    """Yield bases (lists of k dense row vectors of length t) of all
    k-subspaces of F_q^t, one per subspace, in deterministic order:
    pivot patterns lexicographic, then free entries odometer-style."""
    if k == 0:
        yield []
        return
    elems = list(field.elements())
    for pattern in itertools.combinations(range(t), k):
        pset = set(pattern)
        free = [(i, j) for i in range(k)
                for j in range(pattern[i] + 1, t) if j not in pset]
        for assignment in itertools.product(elems, repeat=len(free)):
            rows = [[field.zero] * t for _ in range(k)]
            for i in range(k):
                rows[i][pattern[i]] = field.one
            for (i, j), v in zip(free, assignment):
                rows[i][j] = v
            yield rows


def gaussian_line_count(q, k):
    """Number of lines in F_q^k: (q^k - 1)/(q - 1)."""
    return (q ** k - 1) // (q - 1)


class SlopeRecord:
    """The maximal subspace of maximal slope: its basis, a list of vectors
    of length t over the generators at alpha (shared with
    _FiberClasses.stratum, so never mutated), its per-class ranks, and its
    inverse slope (integral per dimension)."""

    def __init__(self, alpha, basis, dim, integral, ranks):
        self.alpha = alpha
        self.basis = basis            # dim vectors of length t
        self.dim = dim
        self.integral = integral
        self.ranks = ranks
        self.inv_slope = Fraction(integral, dim)

    @property
    def slope(self):
        return 1 / self.inv_slope


def brute_force_max_slope(M, use_filter=True, alpha=None):
    """Exhaustive highest-slope submodule search at alpha, a point of the
    first cell of M's induced grid above its generator degree (that
    degree when None), over the subspaces of the fiber at the generator.

    Lines are scanned first; a dimension-k stratum is skipped when fewer
    than (q^k - 1)/(q - 1) lines reach slope mu(best)/k, since a k-subspace
    beating the current best would force all its lines above that bound.
    (The skip also rules out equal-slope subspaces at that dimension: the
    bounding chain is strict.)  A stratum is scanned once per distinct
    ranks tuple (_FiberClasses.stratum), whose first subspace is the one a
    scan of every subspace would keep.

    Ties favor the larger dimension, then the earlier echelon pattern, so
    the result is the unique maximal subspace of maximal slope -- the
    first member of the HN filtration (the sum of two maximal-slope
    submodules again has maximal slope, so the maximal one is unique and
    contains all others).
    """
    F = M.field
    t = M.nrows
    if t == 0:
        raise ValueError("zero thickness: no generators")
    fc = fiber_classes(M)
    alpha = fc.alpha if alpha is None else alpha
    # integrals are compared as ints over the common denominator w.den
    w = fc.at(alpha)
    lines = fc.stratum(1)
    line_ints = [w.scaled_integral(ranks) for ranks, _ in lines]

    best, best_dim, best_int = None, 0, None
    for line, integ in zip(lines, line_ints):
        if integ <= 0:
            raise ValueError("unbounded or empty submodule integral")
        # slope 1/integ > best_dim/best_int  <=>  best_int > best_dim*integ
        if best is None or best_int > best_dim * integ:
            best, best_dim, best_int = line, 1, integ

    for k in range(2, t + 1):
        if use_filter:
            # lines with slope >= mu(best)/k: 1/l >= best_dim/(k*best_int)
            reach = sum(1 for l in line_ints if k * best_int >= best_dim * l)
            if reach < gaussian_line_count(F.q, k):
                continue
        for sub in fc.stratum(k):
            integ = w.scaled_integral(sub[0])
            if integ <= 0:
                raise ValueError("unbounded or empty submodule integral")
            # k/integ > best_dim/best_int, or equal at a larger k
            if k * best_int > best_dim * integ or (
                    k * best_int == best_dim * integ and k > best_dim):
                best, best_dim, best_int = sub, k, integ

    ranks, rows = best
    return SlopeRecord(alpha, rows, best_dim, Fraction(best_int, w.den),
                       ranks)


def hn_filtration_at(M, alpha, use_filter=True):
    """HN filtration of the submodule generated by the fiber at alpha:
    grmat.fiber_submodule, then hn_filtration_of."""
    alpha = grmat.as_degree(alpha)
    return hn_filtration_of(grmat.fiber_submodule(M, alpha), alpha,
                            use_filter)


def hn_filtration_of(cur, alpha, use_filter=True):
    """HN filtration at alpha of <V_alpha>, given cur, a presentation of
    <V_c> with every generator at one point c (as grmat.fiber_submodule
    returns it), where alpha lies in c's cell [c, next coordinate of cur);
    of zero when cur is None.  On the up-set of alpha the module cur
    presents is generated at alpha, and presented by cur with every degree
    joined with alpha: a relabelling of c's coordinates as alpha's that
    keeps cur's integer ranks, so the loop reads cur's fiber classes with
    the first gaps measured from alpha (_FiberClasses.at).  A piece is
    constant on its grid cells, so there this is the piece's <V_alpha>.

    Repeatedly extracts the highest-slope subspace, records its factor as
    superlevel staircases with its slope, and passes to the quotient
    presentation until the subspace is the whole fiber.  The strata and
    the quotients are memoized on cur's fiber classes, so at every point
    of a cell after the first a step is integer dot products only.
    """
    if cur is None:
        return HNFactorList(alpha, [])
    factors = []
    while cur.nrows > 0:
        rec = brute_force_max_slope(cur, use_filter, alpha)
        fc = fiber_classes(cur)
        factors.append(HNFactor(fc.staircases(rec.ranks, rec.dim, alpha),
                                rec.slope))
        if rec.dim == cur.nrows:
            break           # semistable: the quotient is zero
        key = tuple(map(tuple, rec.basis))
        quot = fc.quotients.get(key)
        if quot is None:
            quot = fc.quotients[key] = grmat.quotient_presentation(
                cur, rec.basis)
        cur = quot
    for a, b in zip(factors, factors[1:]):
        if not a.slope > b.slope:
            raise AssertionError("HN slopes not strictly decreasing")
    return HNFactorList(alpha, factors)
