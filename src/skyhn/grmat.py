"""Graded matrices over rational bidegrees: presentations of 2-parameter
persistence modules and the operations on them.

A graded matrix M with degree-labeled rows (generators) and columns
(relations) presents the module coker(M: A[R] -> A[G]).  Entries are
nonzero only where row degree <= column degree componentwise.

Fractions at the API, ints below: every degree that enters or leaves this
module is a pair of exact rationals (fractions.Fraction), and the loops
inside compare, hash and sort integer coordinate ranks (``_ranks``), the
positions of each coordinate among the matrix's sorted distinct ones.
An ``Axis`` holds sorted coordinates as Fractions and as ints over one
denominator and floors a point on the ints.  Every matrix has its two
axes and its ranks from the moment it is built, and is validated once,
on them: the constructor computes them from the degrees, and
``_from_ranks`` hands over what an operation already holds, the axes cut
to the coordinates in use.  An epsilon-lattice is a ``Lattice``, whose
indices are ints.  A ``Grid`` is a pair of axes.  Every other list of
Fractions goes on one denominator once, through ``_over_lcm``.
The echelon forms, kernels and column reductions run in field (_Echelon,
ColumnReduction, reduce, kernel_combos; grmat._Echelon is field's
class, imported); minimize's unit-pivot cancellation is its own loop of
modulo-q row operations on dense columns.  decompose
holds every matrix as a list of columns in field's internal vector form
and multiplies them with its times primitive, so it has one code path for
every prime field: bitmasks over F_2, lists otherwise.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction

from . import field as fieldmod
from .field import (PrimeField, _Echelon, _inverses, _poly_gcd, _poly_powmod,
                    _poly_sub)

POS_INF = float("inf")


def as_degree(d):
    """Coerce a pair of numbers/strings to an exact rational degree;
    coordinates that already are Fractions are kept as they are, and a
    tuple of two Fractions is returned itself, so that every object built
    at one point shares its tuple."""
    x, y = d
    if type(x) is Fraction and type(y) is Fraction:
        return d if type(d) is tuple else (x, y)
    return (x if type(x) is Fraction else Fraction(x),
            y if type(y) is Fraction else Fraction(y))


def deg_leq(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


class GradedMatrix:
    """Homogeneous matrix over a prime field with bidegree-labeled rows/cols.

    columns[j] is a sparse list of (row index, nonzero field element),
    sorted by row index.  Every module is over a PrimeField: this is the one
    place that is checked, and everything below computes modulo field.q.
    ``_ranks`` is (ax, ay, row ranks, column ranks): the x and y Axis of
    the sorted distinct coordinates of the degrees (the induced grid, when
    there is a degree) and each row's and column's pair of integer ranks
    in them.  They are computed when the matrix is built, and homogeneity
    is validated on them.
    """

    def __init__(self, field, row_degrees, col_degrees, columns):
        row_degrees = [as_degree(d) for d in row_degrees]
        col_degrees = [as_degree(d) for d in col_degrees]
        ax, ay, rk = _rank_degrees(row_degrees + col_degrees)
        self._init(field, row_degrees, col_degrees, columns,
                   (ax, ay, rk[:len(row_degrees)], rk[len(row_degrees):]))

    def _init(self, field, row_degrees, col_degrees, columns, ranks):
        """Set the fields from degrees and their ranks (see _ranks), and
        check that every entry's row rank pair is <= its column's."""
        if not isinstance(field, PrimeField):
            raise ValueError("module coefficients must form a prime field, "
                             "got %r" % (field,))
        self.field = field
        self.row_degrees = row_degrees
        self.col_degrees = col_degrees
        self.columns = [sorted(((i, v) for i, v in col if v != field.zero))
                        for col in columns]
        self._ranks = ranks
        _, _, rows, cols = ranks
        if len(self.columns) != len(cols):
            raise ValueError("column count mismatch")
        for j, col in enumerate(self.columns):
            cx, cy = cols[j]
            for i, v in col:
                if not 0 <= i < len(rows):
                    raise ValueError("row index out of range in column %d" % j)
                if rows[i][0] > cx or rows[i][1] > cy:
                    raise ValueError(
                        "inhomogeneous entry (%d, %d): row degree (%s, %s) > "
                        "column degree (%s, %s)"
                        % (i, j, *row_degrees[i], *col_degrees[j]))

    @property
    def nrows(self):
        return len(self.row_degrees)

    @property
    def ncols(self):
        return len(self.col_degrees)

    def dense_column(self, j):
        z = self.field.zero
        v = [z] * self.nrows
        for i, x in self.columns[j]:
            v[i] = x
        return v

    def __eq__(self, other):
        return (isinstance(other, GradedMatrix) and self.field == other.field
                and self.row_degrees == other.row_degrees
                and self.col_degrees == other.col_degrees
                and self.columns == other.columns)

    def __repr__(self):
        return "GradedMatrix(%d gens, %d rels over %r)" % (
            self.nrows, self.ncols, self.field)


def _from_ranks(field, ax, ay, row_rk, col_rk, cols):
    """GradedMatrix with degrees (ax.coords[rx], ay.coords[ry]) given by
    integer ranks into the axes ax and ay: the axes are cut to the
    coordinates in use (Axis.sub) and the ranks renumbered, and both are
    handed over, not computed again."""
    rk = row_rk + col_rk
    ux, uy = sorted({x for x, _ in rk}), sorted({y for _, y in rk})
    if len(ux) < len(ax.keys) or len(uy) < len(ay.keys):
        mx = {r: k for k, r in enumerate(ux)}
        my = {r: k for k, r in enumerate(uy)}
        ax, ay = ax.sub(ux), ay.sub(uy)
        row_rk = [(mx[x], my[y]) for x, y in row_rk]
        col_rk = [(mx[x], my[y]) for x, y in col_rk]
    xs, ys = ax.coords, ay.coords
    M = GradedMatrix.__new__(GradedMatrix)
    M._init(field, [(xs[x], ys[y]) for x, y in row_rk],
            [(xs[x], ys[y]) for x, y in col_rk], cols,
            (ax, ay, row_rk, col_rk))
    return M


class Axis:
    """Sorted distinct coordinates on one axis: as Fractions (coords), as
    their integer ratios (keys) and, from the first floor on, as ints over
    den, the lcm of their denominators or of those of the axis it was cut
    from (sub).  Built on the ratio keys, without Fraction hashes or
    comparisons (every GradedMatrix has two); the last of equal Fractions
    is kept."""

    __slots__ = ("den", "keys", "coords", "memo", "_ints")

    def __init__(self, frs):
        byk = {c.as_integer_ratio(): c for c in frs}
        den = self.den = math.lcm(*(d for _, d in byk))
        self.keys = sorted(byk, key=lambda k: k[0] * (den // k[1]))
        self.coords = [byk[k] for k in self.keys]
        self.memo = {}      # a coordinate's integer ratio -> its floor
        self._ints = None

    def sub(self, used):
        """The axis of the coordinates at the ascending indices used, over
        this axis's den; this axis itself when used are all of them."""
        if len(used) == len(self.keys):
            return self
        out = Axis.__new__(Axis)
        out.den, out.memo, out._ints = self.den, {}, None
        out.keys = [self.keys[i] for i in used]
        out.coords = [self.coords[i] for i in used]
        return out

    @property
    def ints(self):
        if self._ints is None:
            self._ints = [n * (self.den // d) for n, d in self.keys]
        return self._ints

    def even(self):
        """The coarsest evenly spaced coordinates from the first to the
        last that hold every coordinate (an axis of two or more), each
        paired with its floor index on this axis: the step is the gcd of
        the offsets from the first on ints."""
        ints, den = self.ints, self.den
        lo = ints[0]
        out, i = [], -1
        for v in range(lo, ints[-1] + 1, math.gcd(*(v - lo for v in ints))):
            i += ints[i + 1] == v
            out.append((Fraction(v, den), i))
        return out

    def floor_ratio(self, n, d):
        """(i, exact): the index of the largest coordinate <= n/d (d > 0;
        -1 below them all) and whether it equals n/d, with no memo.  Found
        on ints: a coordinate c*den <= v*den exactly when it is <= the
        floor of v*den."""
        ints, den = self._ints or self.ints, self.den
        i = bisect.bisect_right(ints, n * den // d) - 1
        return i, i >= 0 and ints[i] * d == n * den

    def floor(self, v):
        """floor_ratio of the Fraction v, memoized per v: for the points
        of a grid, which are few."""
        key = v.as_integer_ratio()
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self.floor_ratio(*key)
        return hit


class Lattice:
    """The lattice epsilon*Z of an epsilon > 0, indexed on ints: the
    lattice point k*epsilon has index k, and for n/d (d > 0) ceil(n, d) is
    the least k with k*epsilon >= n/d and floor(n, d) the greatest with
    k*epsilon <= n/d."""

    def __init__(self, epsilon):
        self.epsilon = Fraction(epsilon)
        self.en, self.ed = self.epsilon.as_integer_ratio()
        if self.en <= 0:
            raise ValueError("epsilon must be positive")

    def ceil(self, n, d):
        return -(-n * self.ed // (d * self.en))

    def floor(self, n, d):
        return n * self.ed // (d * self.en)

    def ratio(self, k):
        """The integer ratio of k*epsilon, reduced as a Fraction's is."""
        g = math.gcd(k * self.en, self.ed)
        return k * self.en // g, self.ed // g

    def indices(self, box):
        """(k0, j0, k1, j1): the box's lattice columns are k0 <= k < k1 and
        its rows j0 <= j < j1 (the half-open box)."""
        return tuple(self.ceil(*c.as_integer_ratio()) for c in box)

    def points(self, indices):
        """The x and y coordinates of the lattice points of the half-open
        box given by its indices."""
        k0, j0, k1, j1 = indices
        return ([Fraction(k * self.en, self.ed) for k in range(k0, k1)],
                [Fraction(j * self.en, self.ed) for j in range(j0, j1)])


class Grid:
    """Product grid of an x and a y Axis (axes); xs and ys are their
    strictly increasing coordinates, and coordinates that already are
    Fractions are kept as they are."""

    def __init__(self, xs, ys):
        self.axes = ax, ay = (
            Axis([c if type(c) is Fraction else Fraction(c) for c in xs]),
            Axis([c if type(c) is Fraction else Fraction(c) for c in ys]))
        self.xs, self.ys = ax.coords, ay.coords

    def points(self):
        for y in self.ys:
            for x in self.xs:
                yield (x, y)

    def index(self, d):
        """(ix, iy, on_grid): per axis the index of the largest grid
        coordinate <= d's (-1 below them all), and whether d is a grid
        point.  A memo hit (Axis.floor) is read inline: a lattice sweep
        asks for few distinct coordinates."""
        x, y = d
        ax, ay = self.axes
        hx = ax.memo.get(x.as_integer_ratio()) or ax.floor(x)
        hy = ay.memo.get(y.as_integer_ratio()) or ay.floor(y)
        return hx[0], hy[0], hx[1] and hy[1]

    def __repr__(self):
        return "Grid(%d x %d)" % (len(self.xs), len(self.ys))


def _over_lcm(frs):
    """(den, ints): the rationals frs over one common denominator, den the
    lcm of their denominators, and ints their numerators over den, in the
    order of frs; (1, []) for none.  Each one's integer ratio is read
    once; ints are taken as they are."""
    ratios = [c.as_integer_ratio() for c in frs]
    den = math.lcm(*(d for _, d in ratios))
    return den, [n * (den // d) for n, d in ratios]


def _ratios(d):
    """The integer ratios (xn, xd, yn, yd) of a degree's coordinates."""
    return d[0].as_integer_ratio() + d[1].as_integer_ratio()


def induced_grid(M):
    """Smallest grid containing all row and column degrees of M: on the
    sorted distinct coordinates of M's axes (M._ranks)."""
    ax, ay, _, _ = M._ranks
    return Grid(ax.coords or [Fraction(0)], ay.coords or [Fraction(0)])


def _rank_degrees(degs):
    """Coordinate compression: the x and y Axis of the coordinates of degs
    and every degree's pair of integer ranks in them, looked up by
    (numerator, denominator), which hashes far faster than a Fraction."""
    ax, ay = Axis([d[0] for d in degs]), Axis([d[1] for d in degs])
    xr = {k: r for r, k in enumerate(ax.keys)}
    yr = {k: r for r, k in enumerate(ay.keys)}
    return ax, ay, [
        (xr[x.as_integer_ratio()], yr[y.as_integer_ratio()]) for x, y in degs]


def _leq_ranks(M, d):
    """Per generator and per relation of M, whether its degree is <= the
    degree d: decided on the coordinate ranks, against the floors of d's
    coordinates on M's axes (Axis.floor_ratio, no memo: d is any point)."""
    ax, ay, row_rk, col_rk = M._ranks
    kx = ax.floor_ratio(*d[0].as_integer_ratio())[0] + 1
    ky = ay.floor_ratio(*d[1].as_integer_ratio())[0] + 1
    return ([x < kx and y < ky for x, y in row_rk],
            [x < kx and y < ky for x, y in col_rk])


def kernel(M):
    """Minimal generating set of the syzygy module {v : Mv = 0}.

    Colexicographic sweep over the join-grid of column degrees: at each
    degree the nullspace of the active columns is computed, and coefficient
    vectors not spanned by previously found generators (shifted up) are
    recorded as new syzygies at that degree.  The sweep, the active sets
    and the "earlier generator <= delta" test run on integer coordinate
    ranks; the result is a graded matrix with row degrees = col degrees of
    M, built on those ranks (_from_ranks).
    """
    F = M.field
    n = M.ncols
    ax, ay, rk = _rank_degrees(M.col_degrees)
    dense_cols = [M.dense_column(j) for j in range(n)]
    gens = []   # (rank pair, dense coefficient vector over ncols)
    seen_active = set()
    for ry in range(len(ay.keys)):
        for rx in range(len(ax.keys)):
            J = tuple(j for j in range(n)
                      if rk[j][0] <= rx and rk[j][1] <= ry)
            if not J or J in seen_active:
                continue
            seen_active.add(J)
            combos = fieldmod.kernel_combos(
                F, [dense_cols[j] for j in J], M.nrows)
            if not combos:
                continue
            # echelon of previously found generators, restricted to J
            ech = _Echelon(F, len(J))
            for (gx, gy), gvec in gens:
                if gx <= rx and gy <= ry:
                    ech.insert([gvec[j] for j in J])
            for v in combos:
                rem = ech.insert_reduced(v)
                if rem is not None:
                    full = [F.zero] * n
                    for idx, j in enumerate(J):
                        full[j] = rem[idx]
                    gens.append(((rx, ry), full))
    cols = [[(i, v) for i, v in enumerate(gvec) if v != F.zero]
            for _, gvec in gens]
    return _from_ranks(F, ax, ay, rk, [r for r, _ in gens], cols)


def minimize(M):
    """Minimal presentation of coker M.

    Two reductions, neither of which changes the cokernel: (a) cancel unit
    pivots (nonzero entries with equal row and column degree), deleting the
    generator and relation involved; (b) drop relation columns lying in the
    span of the other columns at their own degree (_pruned, which _split
    runs on its pieces too).
    """
    F = M.field
    q = F.q
    ax, ay, row_degs, col_degs = M._ranks
    row_degs, col_degs = list(row_degs), list(col_degs)
    cols = [M.dense_column(j) for j in range(M.ncols)]

    # (a) unit-pivot cancellation
    while True:
        hit, gens = None, set(row_degs)
        for j, cd in enumerate(col_degs):
            if cd not in gens:
                continue
            for i, v in enumerate(cols[j]):
                if v and row_degs[i] == cd:
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            break
        i, j = hit
        piv = cols[j]
        piv_inv = _inverses(q)[piv[i]]
        for j2 in range(len(cols)):
            if j2 == j or not cols[j2][i]:
                continue
            c = cols[j2][i] * piv_inv % q
            col2 = cols[j2]
            for r in range(len(row_degs)):
                if piv[r]:
                    col2[r] = (col2[r] - c * piv[r]) % q
        del cols[j]
        del col_degs[j]
        for col in cols:
            del col[i]
        del row_degs[i]

    # (b) redundant-column pruning
    form = fieldmod._vector_form(q)
    keep = _pruned(form, len(row_degs), col_degs, list(map(form.pack, cols)))
    return _from_ranks(F, ax, ay, row_degs, [col_degs[j] for j in keep],
                       [[(i, v) for i, v in enumerate(cols[j]) if v]
                        for j in keep])


def _pruned(form, nrows, degs, packed):
    """The indices, ascending, of the relation columns that minimize keeps
    in its step (b): packed are the columns, of length nrows in the vector
    form `form`, and degs their degrees as integer rank pairs.

    It runs once per distinct column degree d and keeps, modulo the span
    of the columns strictly below d, the greedy basis of the columns at d
    from the highest index down.  That is what "delete the first redundant
    column, restart" keeps: a deletion changes the span at no degree, and
    within one degree that loop is reverse-delete, whose result is this
    greedy basis.  The degrees run in lexicographic order, which extends
    the componentwise one, so the span below d is that of the columns
    already kept below d, and at a d where it is all of k^nrows nothing is
    kept.  Zero columns are never kept.  Costs O(#degrees * kept) echelon
    inserts; the result depends on the order of the ranks alone, so ranks
    before and after _from_ranks cuts the axes keep the same columns."""
    insert = form.insert
    at = {}
    for j, d in enumerate(degs):
        at.setdefault(d, []).append(j)
    keep = []
    for dx, dy in sorted(at):
        ech = {}
        for j in keep:
            cx, cy = degs[j]
            if cx <= dx and cy <= dy:
                insert(ech, ech, packed[j])
        if len(ech) < nrows:
            keep += [j for j in reversed(at[dx, dy])
                     if insert(ech, ech, packed[j])]
    keep.sort()
    return keep


def submodule_presentation(M, S):
    """Presentation of the submodule generated by the graded columns S.

    S is a GradedMatrix over the same generators as M (row_degrees equal).
    The result N has row degrees = column degrees of S, computed as the top
    block of the kernel of [S M]; columns with zero top block are pure
    syzygies of M and dropped.
    """
    if S.row_degrees != M.row_degrees:
        raise ValueError("S must be graded columns over the generators of M")
    F = M.field
    concat = GradedMatrix(F, M.row_degrees,
                          S.col_degrees + M.col_degrees,
                          S.columns + M.columns)
    K = kernel(concat)
    s = S.ncols
    out_cols = []
    out_degs = []
    for j in range(K.ncols):
        top = [(i, v) for i, v in K.columns[j] if i < s]
        if top:
            out_cols.append(top)
            out_degs.append(K.col_degrees[j])
    return GradedMatrix(F, S.col_degrees, out_degs, out_cols)


def quotient_presentation(M_alpha, basis):
    """Presentation of coker(M_alpha) / <W> for a subspace W of the fiber at
    the common generator degree alpha, given by `basis`, a list of
    independent vectors of length t over the generators.

    Column-echelonizes the basis, reduces the relation columns at the pivot
    rows, deletes those rows, and fully minimizes.
    """
    F = M_alpha.field
    ax, ay, row_rk, col_rk = M_alpha._ranks
    if len(set(row_rk)) > 1:
        raise ValueError("module is not uniquely generated")
    t = M_alpha.nrows
    if not basis:
        return M_alpha
    # column echelon of the basis, pivot = last nonzero row
    ech = _Echelon(F, t)
    for v in basis:
        if len(v) != t:
            raise ValueError("basis vector length mismatch")
        if not ech.insert(v):
            raise ValueError("degenerate basis: vectors not independent")
    keep = [i for i in range(t) if i not in ech.pivots]
    new_cols = []
    for j in range(M_alpha.ncols):
        col = ech.reduce(M_alpha.dense_column(j))
        # minimize drops zero columns
        new_cols.append([(k, col[i]) for k, i in enumerate(keep) if col[i]])
    return minimize(_from_ranks(F, ax, ay, [row_rk[i] for i in keep],
                                col_rk, new_cols))


class PointwiseModel:
    """The fiber V_gamma = (A[G]/Im M)_gamma with a chosen basis, built from
    the generators <= gamma (live_rows) and the relations <= gamma, whose
    echelon it keeps.  Both are picked on M's coordinate ranks (_leq_ranks),
    with no Fraction comparison.

    basis_rows are the generator rows (global indices) whose classes form a
    basis; reduce_vector sends a vector over the live rows to coordinates in
    that basis.
    """

    def __init__(self, M, gamma):
        rows, cols = _leq_ranks(M, as_degree(gamma))
        self.live_rows = [i for i, live in enumerate(rows) if live]
        self._pos = {g: k for k, g in enumerate(self.live_rows)}
        n = len(self.live_rows)
        ech = _Echelon(M.field, n)
        for j, live in enumerate(cols):
            if live:
                col = [0] * n
                for i, v in M.columns[j]:
                    col[self._pos[i]] = v
                ech.insert(col)
        self._ech = ech
        self.basis_rows = [g for g in self.live_rows
                           if self._pos[g] not in ech.pivots]
        self.dim = n - ech.rank

    def reduce_vector(self, v):
        """Reduce a vector over live_rows to coordinates in basis_rows."""
        v = self._ech.reduce(v)
        return [v[self._pos[g]] for g in self.basis_rows]

    def image_rank(self, rows):
        """The dimension of the span of the classes of the generators rows
        (live here) in the fiber: how many of their unit vectors stay
        independent as they go into a copy of the relations' echelon."""
        ech, n = self._ech.copy(), len(self.live_rows)
        rank = 0
        for i in rows:
            e = [0] * n
            e[self._pos[i]] = 1
            rank += bool(ech.insert(e))
        return rank


def pointwise_model(M, gamma):
    """The fiber model at gamma (PointwiseModel)."""
    return PointwiseModel(M, gamma)


def fiber_submodule(M, alpha):
    """Presentation of <V_alpha>, the submodule generated by the fiber at
    alpha, or None when the fiber vanishes; minimal when M is.

    When every generator lies <= alpha, <V_alpha> is M with its degrees
    joined with alpha (join_degrees), minimized, and no kernel is computed:
    A[alpha]^t -> M has image <V_alpha>, and at each d >= alpha its kernel
    is spanned by the relations c_j <= d, which are exactly the columns at
    c_j v alpha.  When M is generated at alpha with no relation there, the
    join moves no degree and M itself is returned.  Otherwise the
    relations of the fiber's basis generators come from a kernel
    (submodule_presentation).  No fiber model is built when no generator
    lies below alpha."""
    alpha = as_degree(alpha)
    below, cols_below = _leq_ranks(M, alpha)
    if not any(below):
        return None
    if all(below):
        # the fiber is zero when the relations <= alpha have rank nrows
        ech = _Echelon(M.field, M.nrows)
        for j, live in enumerate(cols_below):
            if (live and ech.insert(M.dense_column(j))
                    and ech.rank == M.nrows):
                return None
        ax, ay, _, _ = M._ranks
        if not ech.rank and (ax.coords[0], ay.coords[0]) == alpha:
            return M        # generated at alpha, no relation there
        return minimize(join_degrees(M, alpha))
    pm = pointwise_model(M, alpha)
    if pm.dim == 0:
        return None
    S = GradedMatrix(M.field, M.row_degrees, [alpha] * pm.dim,
                     [[(i, M.field.one)] for i in pm.basis_rows])
    return minimize(submodule_presentation(M, S))


def join_degrees(N, alpha):
    """N with every row and column degree joined with alpha.

    When every generator of N lies <= alpha, the result presents <V_alpha>
    (see fiber_submodule).  The join acts on N's coordinate ranks: every
    coordinate <= alpha's (floored on N's axes) becomes alpha's, and the
    others keep their order above it."""
    alpha = as_degree(alpha)
    ax, ay, row_rk, col_rk = N._ranks
    kx = ax.floor_ratio(*alpha[0].as_integer_ratio())[0] + 1
    ky = ay.floor_ratio(*alpha[1].as_integer_ratio())[0] + 1

    def join(rk):
        return [(x - kx + 1 if x >= kx else 0, y - ky + 1 if y >= ky else 0)
                for x, y in rk]
    return _from_ranks(N.field, Axis([alpha[0]] + ax.coords[kx:]),
                       Axis([alpha[1]] + ay.coords[ky:]),
                       join(row_rk), join(col_rk), N.columns)


def structure_map(M, gamma, delta):
    """Matrix of V_{gamma -> delta} in the pointwise-model bases: column k
    is the k-th basis generator at gamma reduced in the model at delta."""
    gamma, delta = as_degree(gamma), as_degree(delta)
    if not deg_leq(gamma, delta):
        raise ValueError("structure map requires gamma <= delta")
    src, dst = PointwiseModel(M, gamma), PointwiseModel(M, delta)
    return fieldmod.DenseMatrix.from_columns(
        [dst.reduce_vector([int(g == i) for g in dst.live_rows])
         for i in src.basis_rows], dst.dim, M.field)


def connected_components(M):
    """Partition rows and columns into blocks with disjoint column supports.

    Returns a list of (row_indices, col_indices).  Untouched rows become
    singleton free blocks; zero columns are attached to an empty-row block
    of their own.  Blocks are genuine direct summands, but a block can be a
    direct sum in disguise (after a change of generators): ``decompose``
    splits one block further.
    """
    parent = list(range(M.nrows))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for col in M.columns:
        rows = [i for i, _ in col]
        for r in rows[1:]:
            union(rows[0], r)
    blocks = {}
    for i in range(M.nrows):
        blocks.setdefault(find(i), ([], []))[0].append(i)
    zero_col_blocks = []
    for j, col in enumerate(M.columns):
        if col:
            blocks[find(col[0][0])][1].append(j)
        else:
            zero_col_blocks.append(([], [j]))
    out = [blocks[k] for k in sorted(blocks, key=lambda r: min(blocks[r][0]))]
    return out + zero_col_blocks


def extract_block(M, rows, cols):
    """The sub-presentation on the given rows/columns (a direct summand),
    built on M's coordinate ranks (_from_ranks)."""
    pos = {g: k for k, g in enumerate(rows)}
    ax, ay, row_rk, col_rk = M._ranks
    return _from_ranks(M.field, ax, ay, [row_rk[i] for i in rows],
                       [col_rk[j] for j in cols],
                       [[(pos[i], v) for i, v in M.columns[j]] for j in cols])


def direct_sum(M1, M2):
    if M1.field != M2.field:
        raise ValueError("direct sum requires a common field")
    off = M1.nrows
    cols = list(M1.columns) + [[(i + off, v) for i, v in col]
                               for col in M2.columns]
    return GradedMatrix(M1.field,
                        M1.row_degrees + M2.row_degrees,
                        M1.col_degrees + M2.col_degrees,
                        cols)


# ---------------------------------------------------------------------------
# direct-sum decomposition of one block by orthogonal idempotents of End(M)_0

_SPLIT_SEED = 0      # every run draws the same endomorphisms
_SPLIT_TRIES = 8     # failed draws before a piece is taken as indecomposable


def _product(form, A, B, n):
    """The product A.B of column lists, A with columns of length n."""
    times = form.times
    return [times(A, b, n) for b in B]


def _identity(form, n):
    return [form.pack([int(i == j) for i in range(n)]) for j in range(n)]


def _invert(F, B):
    """The inverse of the square column list B over F: the kernel combos
    of the columns of [B | -I] are (B^-1 e_k, e_k), one per k, exactly
    when B is invertible."""
    form, n = fieldmod._vector_form(F.q), len(B)
    units = _identity(form, n)
    kern = fieldmod.ColumnReduction(
        F, B + [form.combine([(F.q - 1, 0, e)], n) for e in units], n).kernel
    if any(form.slice(c, n, 2 * n) != e for c, e in zip(kern, units)):
        raise AssertionError("decompose: singular base change")
    return [form.slice(c, 0, n) for c in kern]


def _endomorphisms(M):
    """Basis of End(M)_0, each generator matrix X packed as one vector of
    length t^2, its column b at entries b*t..b*t+t-1: X[a][b]
    != 0 only where g_a <= g_b, and X.p_j in R<=r_j = span{p_k : r_k <=
    r_j} for every relation column p_j.  The second condition is y.X.p_j =
    0 for y in the annihilator of R<=r_j, one annihilator per distinct
    relation degree; the basis is the nullspace of these equations over
    the unknowns X[a][b], in the order of (a, b).  The equations of
    unknown X[a][b] form one vector: the sum over the relations j of
    p_j[b] times the a-th entries of the annihilator of R<=r_j.  A basis
    matrix is its kernel combo scattered into the t^2 entries, with no
    arithmetic, and packed once."""
    F, t = M.field, M.nrows
    form = fieldmod._vector_form(F.q)
    _, _, gd, rd = M._ranks
    P = [M.dense_column(j) for j in range(M.ncols)]
    ann = {}    # d -> (size, (y[a] for y in the annihilator of R<=d) per a)
    for d in set(rd):
        below = [p for p, r in zip(P, rd) if deg_leq(r, d)]
        ys = fieldmod.kernel_combos(F, [list(row) for row in zip(*below)],
                                    len(below))
        ann[d] = len(ys), [form.pack(list(col)) for col in zip(*ys)]
    rels, n = [], 0     # (offset, p_j, annihilator of R<=r_j)
    for p, r in zip(P, rd):
        size, ys = ann[r]
        if size:
            rels.append((n, p, ys))
            n += size
    unknowns = [(a, b) for a in range(t) for b in range(t)
                if deg_leq(gd[a], gd[b])]
    eqs = [form.combine([(p[b], off, ys[a]) for off, p, ys in rels if p[b]],
                        n) for a, b in unknowns]
    # unknown (a, b) is entry b*t + a of X, column by column
    at, out = [b * t + a for a, b in unknowns], []
    for c in fieldmod.ColumnReduction(F, eqs, n).kernel:
        X = [0] * (t * t)
        for k, x in zip(at, form.unpack(c, len(at))):
            X[k] = x
        out.append(form.pack(X))
    return out


def _eigenvalue(F, f, rng):
    """A root in F_q of the monic f (coefficients from the constant term
    up), or None, without a loop over F_q: g = gcd(f, x^q - x) is the
    product of f's distinct linear factors, and gcd(g, (x + a)^((q-1)/2)
    - 1) for random a splits it until one factor is left."""
    q = F.q
    g = _poly_gcd(F, f, _poly_sub(F, _poly_powmod(F, [0, 1], q, f), [0, 1]))
    while len(g) > 2:
        if q == 2:      # g = x(x + 1)
            return 0
        h = _poly_gcd(F, g, _poly_sub(
            F, _poly_powmod(F, [rng.randrange(q), 1], (q - 1) // 2, g), [1]))
        if 1 < len(h) < len(g):
            g = h
    return -g[0] % q if len(g) == 2 else None


def _eigen_split(F, draw, U, W, rng):
    """Split the idempotent E = U.W of rank r in its corner, U (t x r) a
    basis of im E and W (r x t) its coordinates, W.U = I: the pairs (U',
    W') of two graded idempotents that sum to E, E.P first, or None after
    _SPLIT_TRIES failed draws.  Matrices are column lists in the vector
    form of F.

    Y = W.X.U for X = draw(), uniform in End(M)_0, is uniform in the
    corner E.End.E, read in the basis U.  c is a root of the monic f of
    least degree with f(Y).v = 0 for a random v = W.w, so an eigenvalue
    of Y.  P is the Fitting projection of Y - c, onto the image of Z =
    (Y - c)^k along its kernel (k >= r), a polynomial in Y.  With B the
    basis of Z's image and then its kernel, the children are U.B and
    B^-1.W, cut after the image, and rank E.P = rank Z.  c, Y - c and B
    come from _fitting, or at r = 2 from its closed form _fitting2, which
    gives the same from the same draws.

    The draw fails when rank Z = 0: c is Y's one eigenvalue, and N = Y -
    c is nilpotent.  When N != 0 the next Y is W.X.U.N, singular, so the
    root 0 splits it unless it is nilpotent too; that draw is not
    counted.  Two isomorphic summands make the corner hold a matrix ring,
    where a uniform Y often has one eigenvalue and such an N."""
    form, q = fieldmod._vector_form(F.q), F.q
    times, pack, zero = form.times, form.pack, form.zero
    t, r = len(W), len(U)
    fitting = _fitting2 if r == 2 else _fitting
    fresh, N = 0, None
    while fresh < _SPLIT_TRIES:
        Y = draw()
        if r < t:
            Y = _product(form, W, _product(form, Y, U, t), r)
        follow = N is not None      # the follow-up draw W.X.U.N
        if follow:
            Y, N = _product(form, Y, N, r), None
        else:
            fresh += 1
        v = zero(r)
        while v == zero(r):         # v = W.w != 0
            v = times(W, pack([rng.randrange(q) for _ in range(t)]), r)
        c, Y, fit = fitting(F, Y, v, rng)
        if c is None:
            continue
        if fit is None:
            if not follow and any(y != zero(r) for y in Y):
                N = Y
            continue
        im, ker, Binv = fit
        n, BW, cut = len(im), _product(form, Binv, W, r), form.slice
        return [(_product(form, U, im, t), [cut(x, 0, n) for x in BW]),
                (_product(form, U, ker, t), [cut(x, n, r) for x in BW])]
    return None


def _fitting(F, Y, v, rng):
    """(c, Y - c, split) for the r x r column list Y and a vector v != 0:
    c is a root of the monic f of least degree with f(Y).v = 0, found
    from the Krylov vectors v, Y.v, ..., Y^r.v (_eigenvalue); split is
    (im, ker, B^-1), im a basis of the image of Z = (Y - c)^k (k >= r) and
    ker of its kernel, B = im + ker, or None when Z = 0 (Y - c is
    nilpotent).  (None, None, None) when f has no root in F_q."""
    form, q = fieldmod._vector_form(F.q), F.q
    r, one = len(Y), form.pack([1])
    vs = [v]
    for _ in range(r):          # v, Y.v, ..., Y^r.v
        vs.append(form.times(Y, vs[-1], r))
    f = list(form.unpack(fieldmod.ColumnReduction(F, vs, r).kernel[0], r + 1))
    while not f[-1]:
        f.pop()
    c = _eigenvalue(F, f, rng)
    if c is None:
        return None, None, None
    if c:
        Y = [form.combine([(1, 0, y), (q - c, b, one)], r)
             for b, y in enumerate(Y)]
    Z, k = Y, 1
    while k < r:
        Z = _product(form, Z, Z, r)
        k *= 2
    red = fieldmod.ColumnReduction(F, Z, r)
    if red.rank == 0:
        return c, Y, None
    im, ker = red.basis, red.kernel
    return c, Y, (im, ker, _invert(F, im + ker))


def _fitting2(F, Y, v, rng):
    """_fitting for r = 2 in closed form: the same result from the same
    draws of rng.  With Y.v = a.v, f = x - a and c = a; otherwise f is
    Y's characteristic polynomial x^2 - tr.x + det, whose root _eigenvalue
    picks; over F_2 it draws nothing there, and the root is 0 when det = 0,
    else 1 when tr = 0.  Y - c has the eigenvalues 0 and delta = tr(Y - c).
    delta = 0 is the nilpotent case.  Otherwise Z = (Y - c)^2 = delta.(Y -
    c) has rank 1, and ColumnReduction would give im = Z's first non-zero
    column and ker = (-lambda, 1) for Z's second column lambda times its
    first, or (1, 0) when the first is zero; B^-1 is the 2 x 2 adjugate
    over the determinant."""
    form, q = fieldmod._vector_form(F.q), F.q
    inv, pack = _inverses(q), form.pack
    (y00, y10), (y01, y11) = form.unpack(Y[0], 2), form.unpack(Y[1], 2)
    v0, v1 = form.unpack(v, 2)
    w0, w1 = (y00 * v0 + y01 * v1) % q, (y10 * v0 + y11 * v1) % q
    if (v0 * w1 - v1 * w0) % q == 0:        # Y.v = c.v
        c = w1 * inv[v1] % q if v1 else w0 * inv[v0] % q
    else:
        tr, det = (y00 + y11) % q, (y00 * y11 - y01 * y10) % q
        if q > 2:
            c = _eigenvalue(F, [det, -tr % q, 1], rng)
        else:
            c = 1 if det and not tr else None if det else 0
        if c is None:
            return None, None, None
    s00, s11 = (y00 - c) % q, (y11 - c) % q
    if c:
        Y = [pack([s00, y10]), pack([y01, s11])]
    delta = (s00 + s11) % q
    if not delta:
        return c, Y, None
    if s00 or y10:
        im = s00, y10
        k0, k1 = -(s11 * inv[y10] if y10 else y01 * inv[s00]) % q, 1
    else:
        im, (k0, k1) = (y01, s11), (1, 0)
    b0, b1 = delta * im[0] % q, delta * im[1] % q
    d = inv[(b0 * k1 - k0 * b1) % q]
    return c, Y, ([pack([b0, b1])], [pack([k0, k1])],
                  [pack([k1 * d % q, -b1 * d % q]),
                   pack([-k0 * d % q, b0 * d % q])])


def _split(M, idempotents):
    """The pieces of M along orthogonal graded idempotents of End(M)_0,
    column lists that sum to the identity, each minimal when M is.

    T's columns are generators of each idempotent's image, picked per
    generator degree modulo the picks strictly below it, and block i of the
    rows of T^-1 P presents piece i.  Raises unless the picks are t
    generators, T and T^-1 are graded, and every block part of every
    relation p_j lies in R<=r_j, the span of the relations of degree <=
    r_j: then the block parts generate the relations, and the pieces' direct
    sum presents M.

    One pass on the vectors T^-1 p_j: the check is one echelon per degree
    of a relation with parts in two or more blocks, each part reduced
    against it without being stored, and each piece keeps the block parts
    that minimize's step (b) keeps (_pruned) and is built once on M's
    ranks.  Step (a) has nothing to cancel: T^-1 is graded, so a part's
    entry at a generator of the relation's own degree comes from an entry
    of p_j at a generator of that degree, which a minimal M does not have.
    So the pieces' minimal presentations sum to M's."""
    F, t = M.field, M.nrows
    form = fieldmod._vector_form(F.q)
    ax, ay, gd, rd = M._ranks
    picks, bounds = [], [0]   # (generator index, column); block boundaries
    for E in idempotents:
        mine = []
        for d in sorted(set(gd)):
            ech = _Echelon(F, t)
            for b, col in mine:
                if gd[b] != d and deg_leq(gd[b], d):
                    ech.add(col)
            mine += [(b, E[b]) for b in range(t)
                     if gd[b] == d and ech.add(E[b])]
        picks += mine
        bounds.append(len(picks))
    if len(picks) != t:
        raise AssertionError("decompose: %d generators for %d"
                             % (len(picks), t))
    T = [col for _, col in picks]
    Tinv = _invert(F, T)
    nd = [gd[b] for b, _ in picks]
    if any(x and not deg_leq(gd[a], nd[k])
           for k, col in enumerate(T)
           for a, x in enumerate(form.unpack(col, t))) or \
            any(x and not deg_leq(nd[k], gd[a])
                for a, col in enumerate(Tinv)
                for k, x in enumerate(form.unpack(col, t))):
        raise AssertionError("decompose: the base change is not graded")
    Pn = [form.times(Tinv, form.pack(M.dense_column(j)), t)
          for j in range(M.ncols)]
    blocks = list(zip(bounds, bounds[1:]))
    cut, insert, unpack = form.slice, form.insert, form.unpack
    zeros = [form.zero(hi - lo) for lo, hi in blocks]
    # parts[i]: (relation index, block part) of each non-zero part in block i
    parts, mixed = [[] for _ in blocks], {}
    for j, p in enumerate(Pn):
        mine = []
        for i, (lo, hi) in enumerate(blocks):
            v = cut(p, lo, hi)
            if v != zeros[i]:
                mine.append((i, v))
                parts[i].append((j, v))
        # a relation within one block is its own block part; in a relation
        # with several, the last part is the relation less the others
        if len(mine) > 1:
            mixed.setdefault(rd[j], []).extend(
                form.place(v, blocks[i][0], t) for i, v in mine[:-1])
    for d, placed in mixed.items():
        ech = {}
        for p, r in zip(Pn, rd):
            if deg_leq(r, d):
                insert(ech, ech, p)
        if any(insert(ech, {}, v) for v in placed):
            raise AssertionError("decompose: a block part leaves R<=d")
    out = []
    for (lo, hi), mine in zip(blocks, parts):
        keep = _pruned(form, hi - lo, [rd[j] for j, _ in mine],
                       [v for _, v in mine])
        out.append(_from_ranks(
            F, ax, ay, nd[lo:hi], [rd[mine[k][0]] for k in keep],
            [[(i, x) for i, x in enumerate(unpack(mine[k][1], hi - lo)) if x]
             for k in keep]))
    return out


def decompose(M):
    """Direct summands of the block M, from orthogonal idempotents of
    End(M)_0, found by eigenvalue splits, each in its idempotent's corner
    (``_eigen_split``), on column lists in the vector form of M's field.

    End(M)_0 is computed once (``_endomorphisms``), as vectors of length
    t^2, so a draw from a constant seed is one product.
    A node of the split tree is an idempotent E = U.W, U a basis of its
    image and W its coordinates, starting from U = W = I.  A piece of one
    generator is not drawn on, and after _SPLIT_TRIES failed draws a
    piece is kept whole: a missed split costs speed only.  M is presented
    again once, along the t x t idempotents U.W of all the final pieces,
    and that split is checked (``_split``).  Returns the pieces of M, a
    minimal block, each minimal and non-zero, or [M] when none is found.
    """
    if M.nrows <= 1:
        return [M]
    ends = _endomorphisms(M)
    if len(ends) == 1:      # End(M)_0 is the scalars
        return [M]
    F, t = M.field, M.nrows
    form = fieldmod._vector_form(F.q)
    rng = random.Random(_SPLIT_SEED)

    def draw():
        X = form.times(ends, form.pack([rng.randrange(F.q) for _ in ends]),
                       t * t)
        return [form.slice(X, b, b + t) for b in range(0, t * t, t)]
    ident = _identity(form, t)
    done, todo = [], [(ident, ident)]
    while todo:
        U, W = todo.pop()
        parts = _eigen_split(F, draw, U, W, rng) if len(U) > 1 else None
        if parts is None:
            done.append((U, W))
        else:
            todo += reversed(parts)
    if len(done) == 1:
        return [M]
    return _split(M, [_product(form, U, W, t) for U, W in done])
