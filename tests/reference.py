"""Independent references for the tests: one implementation per quantity.

Every function computes on plain ints mod q and on Fractions read off
public fields (a presentation's field.q, row_degrees, col_degrees and
columns; a store's epsilon and entries; a staircase's gen and rels; a
region's halfplanes and vertices), and builds only public value types.
So it shares no code with what it checks, and a fault in skyhn's
elimination, fiber classes, axes or rank comparisons cannot hide on both
sides of a test.
"""

import bisect
import itertools
import math
from fractions import Fraction

from skyhn import SkyscraperStore, Staircase


# Elimination mod q, pivot = the last nonzero entry.

def eliminate(q, echelons, v, lo=0):
    """v reduced against the echelons (dicts pivot -> vector), in order,
    until its last nonzero entry at or past lo is no pivot of theirs:
    (v, that entry), or (v, None).  Entries below lo are a tracked tail."""
    v = list(v)
    for piv in range(len(v) - 1, lo - 1, -1):   # v is 0 above piv
        if v[piv]:
            col = next((e[piv] for e in echelons if piv in e), None)
            if col is None:
                return v, piv
            c = v[piv] * pow(col[piv], q - 2, q) % q
            v = [(x - c * y) % q for x, y in zip(v, col)]
    return v, None


def insert(q, ech, v):
    """v reduced against ech and stored at its pivot; None if dependent."""
    v, piv = eliminate(q, [ech], v)
    if piv is not None:
        ech[piv] = v
        return v


def basis(q, vecs):
    """The remainders of the independent vectors of vecs, in order."""
    ech = {}
    return [w for w in (insert(q, ech, v) for v in vecs) if w is not None]


def rank(q, vecs):
    return len(basis(q, vecs))


def in_span(q, vecs, v):
    return rank(q, list(vecs) + [v]) == rank(q, vecs)


def same_span(q, avecs, bvecs):
    return rank(q, avecs) == rank(q, bvecs) == rank(q, list(avecs) + bvecs)


def reduce(q, ech, v):
    """v with every pivot row of ech cleared, from the top pivot down."""
    for piv in sorted(ech, reverse=True):
        c = v[piv] * pow(ech[piv][piv], q - 2, q) % q
        v = [(x - c * y) % q for x, y in zip(v, ech[piv])]
    return list(v)


def reduced_basis(q, vecs):
    """The reduced column echelon basis of span(vecs): per pivot
    ascending, 1 there and 0 at the other pivots; one list per span."""
    ech, out = {}, []
    for v in vecs:
        insert(q, ech, v)
    for piv in sorted(ech):
        v = reduce(q, {p: w for p, w in ech.items() if p != piv}, ech[piv])
        out.append([x * pow(v[piv], q - 2, q) % q for x in v])
    return out


def column_echelon(q, cols):
    """(tail, remainder) per column reduced against the earlier ones, the
    tail tracking the combination of cols it has become."""
    n, ech, out = len(cols), {}, []
    for j, c in enumerate(cols):
        w, piv = eliminate(q, [ech], [int(i == j) for i in range(n)] + c, n)
        if piv is not None:
            ech[piv] = w
        out.append((w[:n], w[n:]))
    return out


def reduce_columns(q, cols):
    """(rank, remainders of the independent columns, the tails of the
    others: kernel combos of cols)."""
    out = column_echelon(q, cols)
    kept = [r for _, r in out if any(r)]
    return len(kept), kept, [t for t, r in out if not any(r)]


def subspaces(q, t, k):
    """A basis of each k-subspace of F_q^t in reduced row echelon form:
    pivot patterns lexicographic, free entries odometer-style."""
    for pattern in itertools.combinations(range(t), k):
        free = [(i, j) for i in range(k) for j in range(pattern[i] + 1, t)
                if j not in pattern]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[int(j == p) for j in range(t)] for p in pattern]
            for (i, j), x in zip(free, values):
                rows[i][j] = x
            yield rows


def matvec(q, rows, v):
    return [sum(a * b for a, b in zip(row, v)) % q for row in rows]


def shrunk_subspace(q, mats, ncols):
    """The first smallest U <= F_q^ncols, in subspaces order, maximizing
    dim U - dim span(A.U) over mats (lists of rows): (basis, defect)."""
    best = None
    for k in range(ncols + 1):
        for rows in subspaces(q, ncols, k):
            key = (rank(q, [matvec(q, A, u) for u in rows for A in mats]) - k,
                   k)
            if best is None or key < best[0]:
                best = (key, rows)
    return best[1], -best[0][0]


# Degrees, grids and floors on Fraction coordinates.

def leq(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def join(a, b):
    return (max(Fraction(a[0]), Fraction(b[0])),
            max(Fraction(a[1]), Fraction(b[1])))


def axes(M):
    """The sorted distinct x and y coordinates of M's degrees."""
    degs = list(M.row_degrees) + list(M.col_degrees)
    return sorted({d[0] for d in degs}), sorted({d[1] for d in degs})


def points(xs, ys):
    return [(x, y) for y in ys for x in xs]


def floor(coords, c):
    """The index of the last sorted coordinate <= c, or -1."""
    return bisect.bisect_right(coords, c) - 1


def floor_point(xs, ys, d):
    """The largest grid point <= d, or None below the grid."""
    ix, iy = floor(xs, d[0]), floor(ys, d[1])
    return None if ix < 0 or iy < 0 else (xs[ix], ys[iy])


def lattice_points(box, epsilon):
    """The x and y epsilon-lattice coordinates in the half-open box."""
    eps = Fraction(epsilon)
    return tuple([k * eps for k in range(math.ceil(Fraction(lo) / eps),
                                         math.ceil(Fraction(hi) / eps))]
                 for lo, hi in (box[0::2], box[1::2]))


# Pointwise dims, integrals and slopes of a presentation.

def fiber(M, beta):
    """(q, the echelon of M's relations <= beta, whether each generator
    is <= beta)."""
    q, n, ech = M.field.q, M.nrows, {}
    for d, col in zip(M.col_degrees, M.columns):
        if leq(d, beta):
            insert(q, ech, [dict(col).get(i, 0) for i in range(n)])
    return q, ech, [leq(g, beta) for g in M.row_degrees]


def image_dim(fib, vecs):
    """The dim of the span of vecs, combinations of the generators, in the
    fiber fib (entries on generators not <= beta dropped)."""
    q, rels, live = fib
    ech = dict(rels)
    return sum(insert(q, ech, [x if ok else 0 for x, ok in zip(v, live)])
               is not None for v in vecs)


def basis_rows(fib):
    """The generators <= beta that are no pivot of the relations: their
    images are a basis of the fiber."""
    _, ech, live = fib
    return [i for i, ok in enumerate(live) if ok and i not in ech]


def coordinates(fib, v):
    """v reduced modulo the relations of the fiber, on its basis_rows."""
    v = reduce(fib[0], fib[1], v)
    return [v[i] for i in basis_rows(fib)]


def units(n, rows):
    return [[int(i == r) for i in range(n)] for r in rows]


def dim(M, beta):
    return len(basis_rows(fiber(M, beta)))


def map_rank(M, a, b):
    """The rank of the structure map V(a -> b), a <= b."""
    below = [i for i, g in enumerate(M.row_degrees) if leq(g, a)]
    return image_dim(fiber(M, b), units(M.nrows, below))


def dims(M):
    """The function vecs -> {grid point of M: image_dim of vecs there},
    by default of every generator (then the dims of M).  Points with the
    same generators and relations below them share one fiber."""
    degs, groups = list(M.row_degrees) + list(M.col_degrees), {}
    for p in points(*axes(M)):
        groups.setdefault(tuple(leq(d, p) for d in degs), []).append(p)
    fibers = [(ps, fiber(M, ps[0])) for ps in groups.values()]

    def at(vecs=None):
        vecs = units(M.nrows, range(M.nrows)) if vecs is None else vecs
        return {p: n for ps, fib in fibers
                for n in [image_dim(fib, vecs)] for p in ps}
    return at


def sum_dims(modules, pts):
    """The dims of the direct sum of the modules at the points."""
    return [sum(dim(M, p) for M in modules) for p in pts]


def integral(M):
    """The function d -> the sum of d (a dim per grid point of M) times
    the area of each point's cell above it, 0 past the last grid line."""
    xs, ys = axes(M)
    wx = [b - a for a, b in zip(xs, xs[1:])] + [0]
    wy = [b - a for a, b in zip(ys, ys[1:])] + [0]
    area = {(x, y): a * b for y, b in zip(ys, wy) for x, a in zip(xs, wx)}
    return lambda d: sum((n * area[p] for p, n in d.items() if n),
                         Fraction(0))


def max_slope(M):
    """The first subspace of the fiber of M (generated at one degree) of
    greatest slope dim/integral, ties to the larger dim: (rows, dim,
    integral)."""
    best, at, area = None, dims(M), integral(M)
    for k in range(1, M.nrows + 1):
        for rows in subspaces(M.field.q, M.nrows, k):
            integ = area(at(rows))
            mu = Fraction(k) / integ
            if best is None or mu > best[3] or (
                    mu == best[3] and k > best[1]):
                best = (rows, k, integ, mu)
    return best[:3]


def candidates(M):
    """(rows, (c0, cx, cy), dims) per distinct slope polynomial of the
    subspaces of the fiber of M (generated at alpha), the first of the
    largest dim: c0, cx and cy are the integral per dim and the integrals
    per dim along the horizontal and the vertical ray from alpha."""
    ax, ay = M.row_degrees[0]
    xs, ys = axes(M)
    xs, ys = [x for x in xs if x >= ax], [y for y in ys if y >= ay]
    by_poly, at, area = {}, dims(M), integral(M)
    for k in range(1, M.nrows + 1):
        for rows in subspaces(M.field.q, M.nrows, k):
            d = at(rows)
            key = (area(d) / k,
                   sum((d[(x, ay)] * (xn - x) for x, xn in zip(xs, xs[1:])),
                       Fraction(0)) / k,
                   sum((d[(ax, y)] * (yn - y) for y, yn in zip(ys, ys[1:])),
                       Fraction(0)) / k)
            if key not in by_poly or k > len(by_poly[key][0]):
                by_poly[key] = (rows, d)
    return [(rows, key, d) for key, (rows, d) in by_poly.items()]


# Staircases and regions.

def minimal_points(pts):
    mins = []
    for p in sorted(set(pts)):
        if not any(leq(m, p) for m in mins):
            mins.append(p)
    return mins


def superlevel_staircases(xs, ys, dims, alpha, thickness=None):
    """Per level j up to thickness (the largest dim above alpha), the
    staircase at alpha whose relations are the minimal points of the grid
    above alpha where the dim is below j."""
    pts = [p for p in points(xs, ys) if leq(alpha, p)]
    if thickness is None:
        thickness = max((dims.get(p, 0) for p in pts), default=0)
    return [Staircase(alpha, minimal_points(
                [p for p in pts if dims.get(p, 0) < j]))
            for j in range(1, thickness + 1)]


def staircase_holds(S, beta):
    """gen <= beta and no relation <= beta (relations are closed)."""
    return leq(S.gen, beta) and not any(leq(r, beta) for r in S.rels)


def transport(S, beta):
    """S at the generator beta: the minimal joins of its relations."""
    return Staircase(beta, minimal_points([join(r, beta) for r in S.rels]))


def region_holds(region, point):
    x, y = Fraction(point[0]), Fraction(point[1])
    return all(a * x + b * y <= c for a, b, c in region.halfplanes)


def region_area(region):
    """The shoelace area of the region's vertices, on Fractions."""
    vs = region.vertices
    return sum((x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                in zip(vs, vs[1:] + vs[:1])), Fraction(0)) / 2


# Stores: query, erosion and landscape.

def locator(store):
    """The function alpha -> the factor list a SkyscraperStore snaps alpha
    to, or None: its entry at alpha, else at alpha's floor on the
    epsilon-lattice, or without an epsilon on the grid of the keys."""
    entries, eps = store.entries, store.epsilon
    xs, ys = (sorted({k[i] for k in entries}) for i in (0, 1))

    def locate(alpha):
        entry = entries.get(tuple(alpha))
        if entry is None and eps is not None:
            entry = entries.get(tuple(math.floor(c / eps) * eps
                                      for c in alpha))
        elif entry is None:
            entry = entries.get(floor_point(xs, ys, alpha))
        return entry
    return locate


def held(factors, theta, beta):
    """How many staircases of the factors of slope >= theta hold beta."""
    return sum(1 for f in factors if f.slope >= theta
               for S in f.staircases if staircase_holds(S, beta))


def query(store, theta):
    """The function (alpha, beta) -> s^theta(alpha, beta) of the store."""
    locate = locator(store)

    def count(alpha, beta):
        if not leq(alpha, beta):
            raise ValueError("query requires alpha <= beta")
        entry = locate(alpha)
        return 0 if entry is None else held(entry.factors, theta, beta)
    return count


def erosion(r, s, theta, probe_grid):
    """(lower, upper) bracket of the erosion distance of two stores at
    theta: four queries per probe pair a <= b and shift, a multiple of the
    least probe spacing, in a binary search over the shifts."""
    xs, ys = probe_grid.xs, probe_grid.ys
    gaps = [b - a for cs in (xs, ys) for a, b in zip(cs, cs[1:])]
    h = min(gaps) if gaps else Fraction(1)
    pts = points(xs, ys)
    pairs = [(a, b) for a in pts for b in pts if leq(a, b)]
    qr, qs = query(r, theta), query(s, theta)

    def holds(e):
        return all(u((a[0] - e, a[1] - e), (b[0] + e, b[1] + e)) <= v(a, b)
                   for a, b in pairs for u, v in ((qs, qr), (qr, qs)))

    span = max(xs[-1] - xs[0], ys[-1] - ys[0]) if pts else Fraction(0)
    kmax = int(span / h) + 2
    if holds(Fraction(0)):
        return (Fraction(0), Fraction(0))
    if not holds(kmax * h):
        return (kmax * h, math.inf)
    lo_k, hi_k = 0, kmax
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        lo_k, hi_k = (lo_k, mid) if holds(mid * h) else (mid, hi_k)
    return (lo_k * h, hi_k * h)


def landscape(store, k, theta, pts, resolution, anchor):
    """The filtered landscape by bisection on Fraction reaches h in
    [0, hmax], counting at (alpha - h*1, or alpha, and alpha + h*1).  An
    exact store counts by its query, hmax its box's wider side; on a
    SkyscraperStore hmax is the keys' wider span plus epsilon (or 1)."""
    if isinstance(store, SkyscraperStore):
        count = query(store, theta)
        ks = list(store.entries)
        hmax = Fraction(1)
        if ks:
            hmax = max(max(b[i] for b in ks) - min(b[i] for b in ks)
                       for i in (0, 1)) + (store.epsilon or Fraction(1))
    else:
        def count(lo, hi):
            return store.query(theta, lo, hi)
        x0, y0, x1, y1 = store.box
        hmax = max(x1 - x0, y1 - y0)
    hmax = hmax if hmax > 0 else Fraction(1)

    def level(alpha, h):
        lo = (alpha[0] - h, alpha[1] - h) if anchor == "center" else alpha
        return count(lo, (alpha[0] + h, alpha[1] + h))
    out = {}
    for alpha in pts:
        lo, hi = Fraction(0), hmax
        if level(alpha, lo) < k:
            out[alpha] = lo
        elif level(alpha, hi) >= k:
            out[alpha] = hi
        else:
            for _ in range(resolution):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if level(alpha, mid) >= k else (lo, mid)
            out[alpha] = lo
    return out
