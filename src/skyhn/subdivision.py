"""Exact wall-and-chamber slope subdivision inside a grid cell.

Within the first induced-grid cell above the generator degree, the inverse
slope of the submodule spanned by a fixed fiber subspace is a multilinear
polynomial in the offset; the quadratic term is common to all subspaces, so
the highest-slope subspace at each point of the cell is read off the lower
envelope of affine truncations.  Iterating on quotients yields a nested
subdivision realizing the HN filtration at every interior point.

All geometry is exact: polygon vertices and wall equations are rationals.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import grmat, hn_core, invariants
from .field import DenseMatrix
from .grmat import as_degree, deg_join, deg_leq
from .hn_core import fiber_classes
from .invariants import HNFactor, HNFactorList, Staircase

__all__ = ["SlopePoly", "ConvexRegion", "SubdivNode", "SubdivTree",
           "slope_polynomial", "lower_envelope", "all_max_slope",
           "exact_hnf_cell"]


class SlopePoly:
    """Truncated inverse-slope polynomial p~(d) = c0 - cy*d1 - cx*d2 in the
    offset d from the generator degree; the full inverse slope adds the
    common quadratic term: p(d) = p~(d) + d1*d2."""

    def __init__(self, c0, cx, cy):
        self.c0 = Fraction(c0)
        self.cx = Fraction(cx)
        self.cy = Fraction(cy)
        if self.c0 <= 0:
            raise ValueError("inverse slope constant must be positive")

    def truncated(self, delta):
        return self.c0 - self.cy * delta[0] - self.cx * delta[1]

    def inverse_slope(self, delta):
        return self.truncated(delta) + delta[0] * delta[1]

    def slope(self, delta):
        return 1 / self.inverse_slope(delta)

    def key(self):
        return (self.c0, self.cx, self.cy)

    def __eq__(self, other):
        return isinstance(other, SlopePoly) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "SlopePoly(%s - %s*d1 - %s*d2)" % (self.c0, self.cy, self.cx)


class ConvexRegion:
    """Convex rational polygon (vertices CCW) with provenance half-planes
    a*x + b*y <= c in absolute coordinates."""

    def __init__(self, vertices, halfplanes=()):
        self.vertices = [(Fraction(x), Fraction(y)) for x, y in vertices]
        self.halfplanes = list(halfplanes)

    @classmethod
    def rectangle(cls, x0, y0, x1, y1):
        x0, y0, x1, y1 = Fraction(x0), Fraction(y0), Fraction(x1), Fraction(y1)
        return cls([(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                   [(-1, 0, -x0), (1, 0, x1), (0, -1, -y0), (0, 1, y1)])

    def clip(self, a, b, c):
        """Intersect with the half-plane a*x + b*y <= c (exact
        Sutherland-Hodgman step)."""
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        out = []
        n = len(self.vertices)
        for i in range(n):
            p = self.vertices[i]
            q = self.vertices[(i + 1) % n]
            fp = a * p[0] + b * p[1] - c
            fq = a * q[0] + b * q[1] - c
            if fp <= 0:
                out.append(p)
            if (fp < 0 < fq) or (fq < 0 < fp):
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]),
                            p[1] + t * (q[1] - p[1])))
        dedup = []
        for v in out:
            if not dedup or dedup[-1] != v:
                dedup.append(v)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        return ConvexRegion(dedup, self.halfplanes + [(a, b, c)])

    def area(self):
        vs = self.vertices
        n = len(vs)
        if n < 3:
            return Fraction(0)
        tot = Fraction(0)
        for i in range(n):
            x0, y0 = vs[i]
            x1, y1 = vs[(i + 1) % n]
            tot += x0 * y1 - x1 * y0
        return tot / 2

    def contains(self, point):
        """Closed membership; half-open tiling semantics are realized by
        the caller's least-id rule on shared walls."""
        x, y = Fraction(point[0]), Fraction(point[1])
        return all(a * x + b * y <= c for a, b, c in self.halfplanes)

    def __repr__(self):
        return "ConvexRegion(%d vertices)" % len(self.vertices)


def _poly_from_ranks(fc, dim, ranks):
    """Slope polynomial of a dim-subspace with the given per-class ranks:
    c0 = integral/dim; cy and cx are the integrals of dims along the
    vertical and horizontal rays from alpha, over dim (the last grid line
    has length 0, as bounded modules vanish there)."""
    integ = fc.scaled_integral(ranks)
    if integ <= 0:
        raise ValueError("module is not bounded: infinite inverse slope")
    sx, sy = fc.scale
    return SlopePoly(Fraction(integ, fc.den * dim),
                     Fraction(sum(map(operator.mul, fc.horiz, ranks)),
                              sx * dim),
                     Fraction(sum(map(operator.mul, fc.vert, ranks)),
                              sy * dim))


def slope_polynomial(M):
    """Inverse-slope polynomial of a bounded module uniquely generated at
    alpha: constant term integral/dim, linear coefficients the normalized
    integrals of the restrictions to the vertical and horizontal rays
    through alpha."""
    fc = fiber_classes(M)
    F = M.field
    t = M.nrows
    ident = [[F.one if i == j else F.zero for i in range(t)]
             for j in range(t)]
    return _poly_from_ranks(fc, t, fc.ranks(fc.to_internal(ident)))


def _envelope_regions(entries, base_region, origin):
    """Clip, for each (id, poly), the base region by all pairwise
    half-planes {p~_i <= p~_j}; keep regions with positive area.

    Polynomials take offsets from `origin`; the inequality
    (cy_j - cy_i) d1 + (cx_j - cx_i) d2 <= c0_j - c0_i is translated to
    absolute coordinates before clipping.
    """
    out = []
    ox, oy = origin
    for i, (ident, pi) in enumerate(entries):
        region = base_region
        for j, (_, pj) in enumerate(entries):
            if i == j or pi.key() == pj.key():
                continue
            a = pj.cy - pi.cy
            b = pj.cx - pi.cx
            c = (pj.c0 - pi.c0) + a * ox + b * oy
            region = region.clip(a, b, c)
            if len(region.vertices) < 3:
                break
        if region.area() > 0:
            out.append((ident, region))
    return out


def lower_envelope(polys, cell):
    """Minimization diagram of truncated slope polynomials on a rectangle.

    polys is a list of (id, SlopePoly) in offset coordinates; cell is
    (x0, y0, x1, y1) in the same coordinates.  Returns (id, ConvexRegion)
    for every plane owning a region of positive area; ties on walls resolve
    to the lexicographically least id via first-match point location.
    """
    base = ConvexRegion.rectangle(*cell)
    entries = sorted(polys, key=lambda e: e[0])
    return _envelope_regions(entries, base, (Fraction(0), Fraction(0)))


def _subspace_candidates(M):
    """Enumerate all nonzero fiber subspaces, compute their slope data, and
    dedup by the polynomial, keeping the largest dimension.

    Subspaces sharing a truncated polynomial attain the same slope wherever
    one of them is maximal, and their sum (also in the class) is the unique
    maximal-dimension member -- the correct HN step for the whole face.
    """
    F = M.field
    t = M.nrows
    fc = fiber_classes(M)
    polys = {}      # (dim, class ranks) -> SlopePoly
    by_poly = {}
    order = []
    for rows in (r for k in range(1, t + 1)
                 for r in hn_core.subspaces_of_dim(F, t, k)):
        sig = (len(rows), fc.ranks(fc.to_internal(rows)))
        poly = polys.get(sig)
        if poly is None:
            poly = polys[sig] = _poly_from_ranks(fc, *sig)
        key = poly.key()
        prev = by_poly.get(key)
        if prev is None:
            by_poly[key] = (rows, poly)
            order.append(key)
        elif len(rows) > len(prev[0]):
            by_poly[key] = (rows, poly)
    return fc, [(rows, poly, fc.dims(fc.to_internal(rows)))
                for rows, poly in map(by_poly.get, order)]


def all_max_slope(M, C):
    """Envelope faces of a module uniquely generated at alpha over the
    rectangle C = (x0, y0, x1, y1) in absolute coordinates; C must lie in
    the first induced-grid cell above alpha.  Returns a list of
    (ConvexRegion, basis DenseMatrix, SlopePoly)."""
    fc, cands = _subspace_candidates(M)
    base = ConvexRegion.rectangle(*C)
    entries = [(i, poly) for i, (_, poly, _) in enumerate(cands)]
    faces = _envelope_regions(entries, base, fc.alpha)
    F = M.field
    t = M.nrows
    out = []
    for ident, region in faces:
        rows, poly, _ = cands[ident]
        out.append((region, DenseMatrix.from_columns(rows, t, F), poly))
    return out


class SubdivNode:
    """One face of the nested subdivision: its region, the cumulative
    subspace basis (in the original fiber coordinates), the staircases of
    the factor introduced at this node, and the factor's polynomial."""

    def __init__(self, region, basis, staircases, poly):
        self.region = region
        self.basis = basis          # DenseMatrix t0 x (cumulative dim)
        self.staircases = list(staircases)
        self.poly = poly
        self.children = []

    @property
    def factor_dim(self):
        return len(self.staircases)

    def __repr__(self):
        return "SubdivNode(dim=%d, %d children)" % (self.factor_dim,
                                                    len(self.children))


class SubdivTree:
    """Nested slope subdivision of a cell for a module uniquely generated
    at alpha.  Root carries no factor; each child layer refines the parent
    region, and a root-to-leaf path lists the HN factors valid on the leaf
    region."""

    def __init__(self, alpha, cell, root):
        self.alpha = alpha
        self.cell = cell
        self.root = root

    def path(self, beta):
        """Nodes whose factors constitute the HN filtration at beta; walls
        resolve to the least-id (first) child."""
        beta = as_degree(beta)
        out = []
        node = self.root
        while node.children:
            nxt = None
            for child in node.children:
                if child.region.contains(beta):
                    nxt = child
                    break
            if nxt is None:
                raise ValueError("point %s outside the subdivided cell"
                                 % (beta,))
            out.append(nxt)
            node = nxt
        return out

    def factors_at(self, beta):
        """HN factor list of the submodule generated at beta, with slopes
        evaluated from the polynomials and staircases transported to beta."""
        beta = as_degree(beta)
        delta = (beta[0] - self.alpha[0], beta[1] - self.alpha[1])
        factors = []
        for node in self.path(beta):
            stairs = [_staircase_at(s, beta) for s in node.staircases]
            slope = 1 / node.poly.inverse_slope(delta)
            if factors and factors[-1].slope == slope:
                # on a wall consecutive steps share a slope: one factor,
                # re-decomposed into canonical superlevel staircases
                merged = _renormalize(factors[-1].staircases + stairs, beta)
                factors[-1] = HNFactor(merged, slope)
            else:
                factors.append(HNFactor(stairs, slope))
        return HNFactorList(beta, factors)


def _renormalize(stairs, beta):
    """Superlevel staircases of the summed Hilbert function of staircases
    all generated at beta (the canonical form of a merged factor)."""
    xs = sorted({beta[0]} | {r[0] for s in stairs for r in s.rels})
    ys = sorted({beta[1]} | {r[1] for s in stairs for r in s.rels})
    grid = grmat.Grid(xs, ys)
    dims = {}
    for pt in grid.points():
        dims[pt] = sum(1 for s in stairs
                       if invariants.staircase_contains(s, pt))
    return invariants.staircases_from_dims(grid, dims, beta,
                                           thickness=len(stairs))


def _staircase_at(S, beta):
    """Transport a staircase generated below beta to generator beta: the
    relations become the minimal elements of their joins with beta.  Valid
    while beta lies below every relation's activation (first cell)."""
    joined = [deg_join(r, beta) for r in S.rels]
    return Staircase(beta, invariants._minimal_points(joined))


def _lift(vec, positions, t0, F):
    out = [F.zero] * t0
    for i, v in enumerate(vec):
        out[positions[i]] = v
    return out


def _build(cur, region, alpha, positions, cum_cols, parent, t0, F):
    if cur.nrows == 0:
        return
    fc, cands = _subspace_candidates(cur)
    entries = [(i, poly) for i, (_, poly, _) in enumerate(cands)]
    faces = _envelope_regions(entries, region, alpha)
    for ident, face in faces:
        rows, poly, dims = cands[ident]
        d = len(rows)
        stairs = invariants.staircases_from_dims(fc.grid, dims, alpha,
                                                 thickness=d)
        lifted = cum_cols + [_lift(v, positions, t0, F) for v in rows]
        node = SubdivNode(face, DenseMatrix.from_columns(lifted, t0, F),
                          stairs, poly)
        parent.children.append(node)
        basis = DenseMatrix.from_columns(rows, cur.nrows, F)
        # row classes kept by the quotient, for coordinate lifting below
        ech = grmat._Echelon(F, cur.nrows)
        for j in range(d):
            ech.insert(basis.column(j))
        keep = [i for i in range(cur.nrows) if i not in ech.pivots]
        quot = grmat.quotient_presentation(cur, basis)
        _build(quot, face, alpha, [positions[i] for i in keep],
               list(lifted), node, t0, F)


def exact_hnf_cell(M, C):
    """Nested slope subdivision of the rectangle C for a bounded module
    uniquely generated at alpha; C must lie inside the first induced-grid
    cell above alpha.  Each envelope face spawns a child carrying the
    face's factor, and the quotient recurses on the face region."""
    cur = grmat.minimize(M)
    degs = set(cur.row_degrees)
    if len(degs) != 1:
        raise ValueError("module is not uniquely generated")
    alpha = next(iter(degs))
    F = cur.field
    t0 = cur.nrows
    root = SubdivNode(ConvexRegion.rectangle(*C),
                      DenseMatrix.zero(t0, 0, F), [], None)
    _build(cur, root.region, alpha, list(range(t0)), [], root, t0, F)
    return SubdivTree(alpha, tuple(Fraction(c) for c in C), root)
