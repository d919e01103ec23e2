"""Betti tables, Hilbert functions, integrals, staircases, HN factor
lists with the one equal-slope join (``HNFactorList.joined``, through
``renormalize``) that ``merge_factors`` and the subdivision trees share,
the Skyscraper store with theta-queries, and erosion distance.

Fractions at the API, ints below: staircases, factor lists, store keys and
erosion brackets are exact rationals, while staircase membership
(``staircase_contains``) and transport to a higher generator
(``staircase_at``) compare cross-multiplied ints, superlevel staircases
are swept over grid indices (``grid_staircases``) and equal-slope factors
are joined by a threshold merge of their relations on ints
(``renormalize``).
A store keys its entries by their integer ratios inside, and hands out
Fractions at ``keys``, ``locate`` and ``entries``.  At shift 0,
erosion_distance compares the staircases the two stores locate at each
probe point, and visits the probe pairs only where they differ somewhere.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import types
from fractions import Fraction

from . import grmat
from .grmat import Grid, Lattice, as_degree, deg_leq, POS_INF


class BettiTable:
    """Degree multisets b0, b1, b2 of a minimal free resolution."""

    def __init__(self, b0, b1, b2):
        self.b0 = sorted(b0)
        self.b1 = sorted(b1)
        self.b2 = sorted(b2)

    def all_degrees(self):
        return self.b0 + self.b1 + self.b2

    def __eq__(self, other):
        return (isinstance(other, BettiTable) and self.b0 == other.b0
                and self.b1 == other.b1 and self.b2 == other.b2)

    def __repr__(self):
        return "BettiTable(b0=%r, b1=%r, b2=%r)" % (self.b0, self.b1, self.b2)


def betti_numbers(M):
    """Graded Betti numbers of coker M: minimize, then take the kernel of
    the minimal presentation for b2, which is minimal already."""
    Mmin = grmat.minimize(M)
    K = grmat.kernel(Mmin)
    return BettiTable(Mmin.row_degrees, Mmin.col_degrees, K.col_degrees)


def integral_dim(bt, B):
    """Integral of the pointwise dimension over the plane, via the
    inclusion-exclusion polynomial sum_i (-1)^i sum_{g in b_i} prod(B_j - g_j).

    Requires B componentwise above every Betti degree (bounded support
    witness); the value is independent of any valid B.
    """
    B = as_degree(B)
    for d in bt.all_degrees():
        if not deg_leq(d, B):
            raise ValueError("bound (%s, %s) is below the Betti degree "
                             "(%s, %s)" % (*B, *d))
    total = Fraction(0)
    for degs, sign in ((bt.b0, 1), (bt.b1, -1), (bt.b2, 1)):
        for g in degs:
            total += sign * (B[0] - g[0]) * (B[1] - g[1])
    return total


def hilbert_function(M, G):
    """Pointwise dimensions at the points of the grid G: {point: dim}."""
    return {pt: grmat.pointwise_model(M, pt).dim for pt in G.points()}


EMPTY_STAIRCASE = "empty staircase (relation at the generator)"


class Staircase:
    """Uniquely generated interval: one generator degree and an antichain of
    relation degrees, sorted by x ascending (hence y descending).

    The support is {b : gen <= b and no rel <= b}; relations act closed at
    their degree.  check=False takes rels as they are, for callers that
    build an x-sorted antichain above gen and not at it by construction
    (they check emptiness on integer indices).
    """

    __slots__ = ("gen", "rels")

    def __init__(self, gen, rels, check=True):
        self.gen = as_degree(gen)
        if check:
            rels = sorted((as_degree(r) for r in rels))
            for a, b in zip(rels, rels[1:]):
                if not (a[0] < b[0] and a[1] > b[1]):
                    raise ValueError("relations do not form an antichain: "
                                     "(%s, %s), (%s, %s)" % (*a, *b))
            for r in rels:
                if not deg_leq(self.gen, r):
                    raise ValueError("relation (%s, %s) below generator "
                                     "(%s, %s)" % (*r, *self.gen))
            if rels and rels[0] == self.gen:
                raise ValueError(EMPTY_STAIRCASE)
        self.rels = rels

    def key(self):
        return (self.gen, tuple(self.rels))

    def __eq__(self, other):
        return isinstance(other, Staircase) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Staircase(gen=%s, rels=%s)" % (self.gen, self.rels)


def staircase_contains(S, beta):
    """Membership test: gen <= beta and no relation <= beta, on
    cross-multiplied ints.  The relations are sorted by x, so the first
    one right of beta ends the scan: every later one lies right of it."""
    bx, by = as_degree(beta)
    xn, xd = bx.numerator, bx.denominator
    yn, yd = by.numerator, by.denominator
    gx, gy = S.gen
    if gx.numerator * xd > xn * gx.denominator or \
            gy.numerator * yd > yn * gy.denominator:
        return False
    for rx, ry in S.rels:
        if rx.numerator * xd > xn * rx.denominator:         # rx > bx
            return True
        if ry.numerator * yd <= yn * ry.denominator:        # ry <= by
            return False
    return True


def staircase_at(S, beta):
    """Transport a staircase generated below beta to generator beta: the
    relations become the minimal elements of their joins with beta.  Valid
    while beta lies below every relation's activation (first cell).

    One pass over the x-sorted antichain: the joins' x coordinates are
    beta's for a prefix of it and their y coordinates beta's for a suffix,
    so among equal x the last join is minimal and among equal y the first;
    coordinates compare as cross-multiplied ints.  A relation that beta
    does not move is kept as the same tuple."""
    bx, by = beta
    xn, xd = bx.numerator, bx.denominator
    yn, yd = by.numerator, by.denominator
    out = []
    last_xb = last_yb = False
    for r in S.rels:
        rx, ry = r
        xb = rx.numerator * xd <= xn * rx.denominator      # rx <= bx
        yb = ry.numerator * yd <= yn * ry.denominator      # ry <= by
        if xb and yb:
            raise ValueError(EMPTY_STAIRCASE)
        if last_xb and xb:
            out[-1] = (bx, ry)
        elif not (last_yb and yb):
            out.append((bx, ry) if xb else (rx, by) if yb else r)
        last_xb, last_yb = xb, yb
    return Staircase(beta, out, check=False)


def staircases_from_dims(grid, dims, alpha, thickness=None):
    """Superlevel staircases of a dim function that is non-increasing along
    the order, constant on the cells of `grid`, and supported on <alpha>.

    dims maps grid points to counts.  Returns staircases S_1..S_T whose
    indicators sum to the dim function; they are those of grid_staircases
    on the grid points >= alpha.
    """
    alpha = as_degree(alpha)
    xs, ys = grid.xs, grid.ys
    ox = bisect.bisect_left(xs, alpha[0])
    oy = bisect.bisect_left(ys, alpha[1])
    idims = {(ix, iy): dims.get((xs[ix], ys[iy]), 0)
             for iy in range(oy, len(ys)) for ix in range(ox, len(xs))}
    if thickness is None:
        thickness = max(idims.values(), default=0)
    return grid_staircases(xs, ys, (ox, oy), idims, thickness, alpha)


def grid_staircases(xs, ys, origin, dims, thickness, alpha):
    """The superlevel staircases S_1..S_thickness generated at alpha of a
    dim function on the grid points (xs[ix], ys[iy]) with (ix, iy) >=
    origin, given by dims: index pair -> count (0 where missing).

    S_j's relations are the minimal grid points where the dim is < j, found
    in one sweep over the columns ix: a column's first such row iy is a
    minimal point exactly when it lies below the first such row of every
    column to its left.  Only the relations become Fractions."""
    ox, oy = origin
    corners = [[] for _ in range(thickness)]
    low = [len(ys)] * thickness     # per level: least first row so far
    for ix in range(ox, len(xs) if thickness else ox):
        m = thickness               # least dim of the column so far, capped
        # low[j] <= low[0]: no level records a row at or above low[0]
        for iy in range(oy, low[0]):
            d = dims.get((ix, iy), 0)
            if d < m:
                # the levels j + 1 in (d, m] first drop below here
                for j in range(d, m):
                    if iy < low[j]:
                        low[j] = iy
                        corners[j].append((ix, iy))
                m = d
                if not m:
                    break
    out = []
    for c in corners:
        if (c and c[0] == origin and xs[ox] == alpha[0]
                and ys[oy] == alpha[1]):
            raise ValueError(EMPTY_STAIRCASE)
        out.append(Staircase(alpha, [(xs[ix], ys[iy]) for ix, iy in c],
                             check=False))
    return out


def renormalize(stairs, alpha):
    """The superlevel staircases of the summed Hilbert function of
    staircases all generated at alpha (the canonical form of a joined
    factor), in the order of grid_staircases, as a threshold merge of
    their relations on ints over one lcm denominator.  At x, staircase i
    holds the points below its threshold h_i(x), the y of its last
    relation at or left of x (infinite left of its first), so the
    summed dim is < j exactly at or above the j-th largest threshold: the
    level-j staircase has a relation wherever that threshold drops, as x
    runs over the relations' distinct x coordinates."""
    owned = [(i, r) for i, S in enumerate(stairs) for r in S.rels]
    _, (AX, AY, *ints) = grmat._over_lcm(
        [*alpha, *(c for _, r in owned for c in r)])
    events = sorted(((X, Y, i, r) for (i, r), X, Y
                     in zip(owned, ints[0::2], ints[1::2])),
                    key=operator.itemgetter(0))
    if any(e[:2] == (AX, AY) for e in events):
        raise ValueError(EMPTY_STAIRCASE)
    T = len(stairs)
    h = {}              # staircase -> (Y, y) of its threshold, once finite
    last = [None] * T   # per level: its threshold Y so far, None above all
    out = [[] for _ in range(T)]
    for _, group in itertools.groupby(events, key=operator.itemgetter(0)):
        for _, Y, i, r in group:
            h[i] = (Y, r[1])
        # the T - len(h) infinite thresholds are the largest
        for j, (Y, y) in enumerate(sorted(h.values(), reverse=True,
                                          key=operator.itemgetter(0)),
                                   T - len(h)):
            if last[j] is None or Y < last[j]:
                last[j] = Y
                out[j].append((r[0], y))
    return [Staircase(alpha, rels, check=False) for rels in out]


class HNFactor:
    """One HN factor: its Hilbert function as staircases, and its slope."""

    __slots__ = ("staircases", "slope")

    def __init__(self, staircases, slope):
        self.staircases = list(staircases)
        self.slope = slope if type(slope) is Fraction else Fraction(slope)

    @property
    def dim(self):
        return len(self.staircases)

    def key(self):
        return (-self.slope, tuple(sorted(s.key() for s in self.staircases)))

    def __eq__(self, other):
        return isinstance(other, HNFactor) and self.key() == other.key()

    def __repr__(self):
        return "HNFactor(slope=%s, %d staircases)" % (self.slope,
                                                      len(self.staircases))


class HNFactorList:
    """Ordered HN factors at one base degree alpha, slopes decreasing.

    Equality is canonical: factors with equal slope are compared as a
    multiset (their relative order carries no information).
    """

    __slots__ = ("alpha", "factors")

    def __init__(self, alpha, factors):
        self.alpha = as_degree(alpha)
        self.factors = list(factors)

    @classmethod
    def joined(cls, alpha, factors):
        """The list at alpha of factors given in non-increasing slope
        order, each run of equal slopes, compared on their integer ratios,
        joined into one factor in canonical superlevel form
        (renormalize), so the slopes strictly decrease."""
        out, last = [], None
        for f in factors:
            ratio = f.slope.as_integer_ratio()
            if ratio == last:
                out[-1] = HNFactor(renormalize(
                    out[-1].staircases + f.staircases, alpha), f.slope)
            else:
                out.append(f)
            last = ratio
        return cls(alpha, out)

    def canonical(self):
        return (self.alpha, tuple(sorted(f.key() for f in self.factors)))

    def _ratio_form(self):
        """canonical() with every Fraction as its integer ratio, the
        factors in the order of their ratio keys: equal exactly when
        canonical() is (a Fraction's ratio is normalized), and compared,
        sorted and built on ints."""
        pt = grmat._ratios
        return (pt(self.alpha), sorted(
            (f.slope.as_integer_ratio(),
             sorted((pt(s.gen), [pt(r) for r in s.rels])
                    for s in f.staircases))
            for f in self.factors))

    def __eq__(self, other):
        return (isinstance(other, HNFactorList)
                and self._ratio_form() == other._ratio_form())

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def __repr__(self):
        return "HNFactorList(alpha=%s, slopes=%s)" % (
            self.alpha, [f.slope for f in self.factors])


def merge_factors(alpha, lists):
    """The HN filtration at alpha of a direct sum, from its summands'
    factor lists at alpha: the factors sorted by decreasing slope, those
    of one slope joined into one (HNFactorList.joined).  The one non-empty
    list, where there is one, is returned as it is; none: the empty list
    at alpha."""
    alpha = as_degree(alpha)
    full = []
    for l in lists:
        if l.alpha != alpha:
            raise ValueError("mismatched base degrees in merge")
        if l.factors:
            full.append(l)
    if len(full) == 1:
        return full[0]
    factors = [f for l in full for f in l.factors]
    factors.sort(key=lambda f: f.slope, reverse=True)
    return HNFactorList.joined(alpha, factors)


class SkyscraperStore:
    """Dictionary alpha -> HNFactorList with a provenance grid for snapping.

    Queries at non-key points snap by componentwise floor, onto the
    store's epsilon-lattice (lattice, a grmat.Lattice) when it has an
    epsilon and else onto the grid of stored keys; misses return None.
    The one dict is keyed by each key's integer ratios (xn, xd, yn, yd),
    so that insert, locate, equality and keys hash and compare ints.  The
    Fractions stay at the API: keys and locate return the entries' own
    alphas and factor lists, and entries is a read-only mapping by
    Fraction key, built at its first read after an insert.
    """

    def __init__(self, epsilon=None):
        self.lattice = Lattice(epsilon) if epsilon is not None else None
        self.epsilon = self.lattice.epsilon if self.lattice else None
        self._entries = {}      # integer ratios of alpha -> HNFactorList
        self._view = None       # entries, built on demand
        self._key_grid = None   # grid of the keys, built on demand

    @property
    def entries(self):
        """alpha -> HNFactorList, read-only."""
        if self._view is None:
            self._view = types.MappingProxyType(
                {fl.alpha: fl for fl in self._entries.values()})
        return self._view

    def insert(self, factor_list):
        x, y = factor_list.alpha
        self._entries[x.as_integer_ratio() + y.as_integer_ratio()] = \
            factor_list
        self._view = self._key_grid = None

    def keys(self):
        """The keys in lexicographic order, sorted as ints: by their
        coordinate ranks (grmat._rank_degrees), distinct per key."""
        alphas = [fl.alpha for fl in self._entries.values()]
        _, _, ranks = grmat._rank_degrees(alphas)
        return [a for _, a in sorted(zip(ranks, alphas))]

    def locate(self, alpha):
        """The entry at alpha's floor, on ints; None where it has none."""
        x, y = as_degree(alpha)
        key = xn, xd, yn, yd = x.as_integer_ratio() + y.as_integer_ratio()
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        lat = self.lattice
        if lat is not None:
            floor = lat.ratio(lat.floor(xn, xd)) + lat.ratio(lat.floor(yn, yd))
        else:
            if self._key_grid is None:
                self._key_grid = Grid(
                    [fl.alpha[0] for fl in self._entries.values()],
                    [fl.alpha[1] for fl in self._entries.values()])
            ax, ay = self._key_grid.axes
            ix, iy = ax.floor_ratio(xn, xd)[0], ay.floor_ratio(yn, yd)[0]
            if ix < 0 or iy < 0:
                return None
            floor = ax.keys[ix] + ay.keys[iy]
        if floor == key:
            return None
        return self._entries.get(floor)

    def __eq__(self, other):
        if not isinstance(other, SkyscraperStore):
            return NotImplemented
        return self._entries == other._entries

    def __len__(self):
        return len(self._entries)


def theta_staircases(factors, theta):
    """The staircases of the factors of slope >= theta, in factor order;
    each slope is compared with theta as cross-multiplied ints."""
    tn, td = theta.as_integer_ratio()
    return [s for f in factors
            if f.slope.numerator * td >= tn * f.slope.denominator
            for s in f.staircases]


def count_containing(staircases, beta):
    """How many of the staircases contain beta."""
    return sum(1 for s in staircases if staircase_contains(s, beta))


def skyscraper_query(store, theta, alpha, beta):
    """s^theta(alpha, beta): over the located entry, count staircases
    containing beta among factors of slope >= theta."""
    alpha, beta = as_degree(alpha), as_degree(beta)
    if not deg_leq(alpha, beta):
        raise ValueError("query requires alpha <= beta")
    entry = store.locate(alpha)
    if entry is None:
        return 0
    return count_containing(theta_staircases(entry.factors, theta), beta)


def erosion_distance(r, s, theta, probe_grid):
    """Bracket the erosion distance between two stores at a fixed theta.

    Checks both one-sided conditions s(a-e, b+e) <= r(a, b) and
    r(a-e, b+e) <= s(a, b) at all probe pairs a <= b, over shifts e that
    are multiples of the probe spacing h, the least gap between two probe
    coordinates (1 without one), up to the coordinates' span plus 2h.
    Returns (lower, upper), lower = upper = 0 where e = 0 holds and
    upper = inf where no shift does; the resolution is h.  Each store
    locates each probe point at most once per shift, and the pair loop
    compares no Fractions.
    """
    xs, ys = probe_grid.xs, probe_grid.ys
    D, ints = grmat._over_lcm(xs + ys)
    X, Y = ints[:len(xs)], ints[len(xs):]
    steps = ([b - a for a, b in zip(X, X[1:])] +
             [b - a for a, b in zip(Y, Y[1:])])
    H = min(steps) if steps else D      # the spacing h = H/D
    h = Fraction(H, D)
    pts = list(probe_grid.points())
    idx = [(ix, iy) for iy in range(len(ys)) for ix in range(len(xs))]

    seen = {}   # (k, n, i) -> theta-staircases of store n at pts[i] - k*h

    def stairs_at(k, n, i):
        got = seen.get((k, n, i))
        if got is None:
            x, y = pts[i]
            entry = (r, s)[n].locate((x - k * h, y - k * h) if k else pts[i])
            got = seen[k, n, i] = (theta_staircases(entry.factors, theta)
                                   if entry else [])
        return got

    def holds(k):
        # at e = 0 the conditions read r(a, b) == s(a, b), which equal
        # staircases at every probe point a give at every pair
        if not k and all(stairs_at(0, 0, i) == stairs_at(0, 1, i)
                         for i in range(len(pts))):
            return True
        E = k * H
        hi = [(Fraction(X[ix] + E, D), Fraction(Y[iy] + E, D))
              for ix, iy in idx]
        return not any(
            count_containing(stairs_at(k, n, i), hi[j])
            > count_containing(stairs_at(0, 1 - n, i), pts[j])
            for i, (ix, iy) in enumerate(idx)
            for j, (jx, jy) in enumerate(idx) if ix <= jx and iy <= jy
            for n in (1, 0))

    if holds(0):
        return (Fraction(0), Fraction(0))
    # binary search the smallest multiple of h that works
    kmax = max(X[-1] - X[0], Y[-1] - Y[0]) // H + 2
    if not holds(kmax):
        return (kmax * h, POS_INF)
    lo_k, hi_k = 0, kmax
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        if holds(mid):
            hi_k = mid
        else:
            lo_k = mid
    return (lo_k * h, hi_k * h)
