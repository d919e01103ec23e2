"""Exact wall-and-chamber slope subdivision inside a grid cell.

Within the first induced-grid cell above the generator degree, the inverse
slope of the submodule spanned by a fixed fiber subspace is a multilinear
polynomial in the offset; the quadratic term is common to all subspaces, so
the highest-slope subspace at each point of the cell is read off the lower
envelope of affine truncations.  Iterating on quotients yields a nested
subdivision realizing the HN filtration at every interior point.

All geometry is exact: polygon vertices and wall equations are rationals.
Reads of a built tree run on ints: point location cross-multiplies by the
point's denominators against integer half-plane coefficients, each slope
is one Fraction of the polynomial evaluated on the offset's numerators
and denominators, and staircases are transported on integer comparisons
(``invariants.staircase_at``) and joined on a wall by
``invariants.renormalize``.  The half-planes, the polynomial coefficients
and the vertices of the area test are put on ints by ``grmat._over_lcm``:
a region's half-planes once, at its first point location, and a
polynomial's coefficients at each read, since the envelope builds far more
polynomials than a sweep reads.  Each face's staircases come from the
class ranks its candidate subspace was enumerated with.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import grmat, invariants
from .grmat import as_degree
from .hn_core import fiber_classes
from .invariants import HNFactor, HNFactorList, staircase_at

__all__ = ["SlopePoly", "ConvexRegion", "SubdivNode", "SubdivTree",
           "slope_polynomial", "all_max_slope",
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

    def slope_at(self, n1, d1, n2, d2):
        """The slope 1/p(d) at the offset d = (n1/d1, n2/d2), from ints:
        with c0, cx and cy as C0, CX and CY over their common denominator
        D, p(d) * D*d1*d2 = C0*d1*d2 - CY*n1*d2 - CX*n2*d1 + D*n1*n2."""
        D, (c0, cx, cy) = grmat._over_lcm((self.c0, self.cx, self.cy))
        return Fraction(D * d1 * d2, c0 * d1 * d2 - cy * n1 * d2
                        - cx * n2 * d1 + D * n1 * n2)

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
        self._int_planes = None     # see contains

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

    def has_area(self):
        """area() > 0, decided on integers: the shoelace sum of the
        vertices scaled to one common denominator."""
        vs = self.vertices
        if len(vs) < 3:
            return False
        _, ints = grmat._over_lcm([c for v in vs for c in v])
        pts = list(zip(ints[0::2], ints[1::2]))
        return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                   in zip(pts, pts[1:] + pts[:1])) > 0

    def contains(self, point):
        """Closed membership; half-open tiling semantics are realized by
        the caller's least-id rule on shared walls.  With x = p/q and
        y = r/s, a*x + b*y <= c is A*p*s + B*r*q <= C*q*s for the integer
        multiple (A, B, C) of (a, b, c), computed once per region."""
        planes = self._int_planes
        if planes is None:
            planes = self._int_planes = [grmat._over_lcm(h)[1]
                                         for h in self.halfplanes]
        x, y = as_degree(point)
        p, q = x.numerator, x.denominator
        r, s = y.numerator, y.denominator
        for A, B, C in planes:
            if A * p * s + B * r * q > C * q * s:
                return False
        return True

    def __repr__(self):
        return "ConvexRegion(%d vertices)" % len(self.vertices)


def _poly_from_ranks(w, dim, ranks):
    """Slope polynomial of a dim-subspace with the given per-class ranks,
    from the class weights w at alpha: c0 = integral/dim; cy and cx are
    the integrals of dims along the vertical and horizontal rays from
    alpha, over dim (the last grid line has length 0, as bounded modules
    vanish there)."""
    integ = w.scaled_integral(ranks)
    if integ <= 0:
        raise ValueError("module is not bounded: infinite inverse slope")
    sx, sy = w.scale
    return SlopePoly(Fraction(integ, w.den * dim),
                     Fraction(sum(map(operator.mul, w.horiz, ranks)),
                              sx * dim),
                     Fraction(sum(map(operator.mul, w.vert, ranks)),
                              sy * dim))


def slope_polynomial(M):
    """Inverse-slope polynomial of a bounded module uniquely generated at
    alpha: constant term integral/dim, linear coefficients the normalized
    integrals of the restrictions to the vertical and horizontal rays
    through alpha."""
    fc = fiber_classes(M)
    return _poly_from_ranks(fc.at(fc.alpha), M.nrows, fc.coranks)


def _envelope_regions(entries, base_region, origin):
    """Clip, for each (id, poly), the base region by all pairwise
    half-planes {p~_i <= p~_j}; keep regions with positive area.  A region
    that no half-plane clipped is the base region, whose area is tested
    once: most calls have one entry, which nothing clips.

    Polynomials take offsets from `origin`; the inequality
    (cy_j - cy_i) d1 + (cx_j - cx_i) d2 <= c0_j - c0_i is translated to
    absolute coordinates before clipping.
    """
    out = []
    ox, oy = origin
    whole = base_region.has_area()
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
        if (whole if region is base_region else region.has_area()):
            out.append((ident, region))
    return out


def _subspace_candidates(M):
    """Enumerate all nonzero fiber subspaces, compute their slope data, and
    dedup by the polynomial, keeping the largest dimension.  Returns the
    fiber classes and the (rows, poly, class ranks) triples in first-seen
    order.

    Subspaces sharing a truncated polynomial attain the same slope wherever
    one of them is maximal, and their sum (also in the class) is the unique
    maximal-dimension member -- the correct HN step for the whole face.
    The polynomial depends only on the dim and the per-class ranks, so each
    stratum is read as _FiberClasses.stratum gives it, with the first
    subspace of each ranks tuple.
    """
    fc = fiber_classes(M)
    w = fc.at(fc.alpha)
    polys = {}      # (dim, class ranks) -> SlopePoly
    by_poly = {}
    order = []
    for k in range(1, M.nrows + 1):
        for ranks, rows in fc.stratum(k):
            poly = polys.get((k, ranks))
            if poly is None:
                poly = polys[k, ranks] = _poly_from_ranks(w, k, ranks)
            key = poly.key()
            prev = by_poly.get(key)
            if prev is None:
                by_poly[key] = (rows, poly, ranks)
                order.append(key)
            elif k > len(prev[0]):
                by_poly[key] = (rows, poly, ranks)
    return fc, [by_poly[key] for key in order]


def all_max_slope(M, C):
    """Envelope faces of a module uniquely generated at alpha over the
    rectangle C = (x0, y0, x1, y1) in absolute coordinates; C must lie in
    the first induced-grid cell above alpha.  Returns a list of
    (ConvexRegion, basis, SlopePoly), the basis a list of vectors of length
    t over the generators, shared with _FiberClasses.stratum."""
    fc, cands = _subspace_candidates(M)
    base = ConvexRegion.rectangle(*C)
    entries = [(i, poly) for i, (_, poly, _) in enumerate(cands)]
    faces = _envelope_regions(entries, base, fc.alpha)
    return [(region, *cands[ident][:2]) for ident, region in faces]


class SubdivNode:
    """One face of the nested subdivision: its region, the staircases of
    the factor introduced at this node, and the factor's polynomial."""

    def __init__(self, region, staircases, poly):
        self.region = region
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
                raise ValueError("point (%s, %s) outside the subdivided cell"
                                 % beta)
            out.append(nxt)
            node = nxt
        return out

    def factors_at(self, beta):
        """HN factor list of the submodule generated at beta, with slopes
        evaluated from the polynomials on ints (one Fraction per slope)
        and staircases transported to beta."""
        beta = as_degree(beta)
        # the offset beta - alpha as numerators over denominators
        (bx, by), (ax, ay) = beta, self.alpha
        d1 = bx.denominator * ax.denominator
        n1 = bx.numerator * ax.denominator - ax.numerator * bx.denominator
        d2 = by.denominator * ay.denominator
        n2 = by.numerator * ay.denominator - ay.numerator * by.denominator
        factors = []
        for node in self.path(beta):
            stairs = [staircase_at(s, beta) for s in node.staircases]
            slope = node.poly.slope_at(n1, d1, n2, d2)
            # Fractions are normalized: equal exactly when their ratios are
            if (factors and factors[-1].slope.as_integer_ratio()
                    == slope.as_integer_ratio()):
                # on a wall consecutive steps share a slope: one factor,
                # joined as invariants.merge_factors joins one slope
                merged = invariants.renormalize(
                    factors[-1].staircases + stairs, beta)
                factors[-1] = HNFactor(merged, slope)
            else:
                factors.append(HNFactor(stairs, slope))
        return HNFactorList(beta, factors)


def _build(cur, region, alpha, parent):
    fc, cands = _subspace_candidates(cur)
    entries = [(i, poly) for i, (_, poly, _) in enumerate(cands)]
    faces = _envelope_regions(entries, region, alpha)
    for ident, face in faces:
        rows, poly, ranks = cands[ident]
        d = len(rows)
        stairs = fc.staircases(ranks, d, alpha)
        node = SubdivNode(face, stairs, poly)
        parent.children.append(node)
        if d == cur.nrows:
            continue        # semistable: the quotient is zero
        _build(grmat.quotient_presentation(cur, rows), face, alpha, node)


def exact_hnf_cell(M, C):
    """Nested slope subdivision of the rectangle C for a bounded module
    uniquely generated at alpha, presented by M with no nonzero relation
    at alpha (else ValueError), as grmat.fiber_submodule presents <V_alpha>;
    a redundant relation changes no class rank.  C must lie inside the
    first induced-grid cell above alpha.  Each envelope face spawns a child
    carrying the face's factor, and the quotient recurses on the face
    region."""
    _, _, row_rk, col_rk = M._ranks
    if len(set(row_rk)) != 1:
        raise ValueError("module is not uniquely generated")
    alpha = M.row_degrees[0]
    if any(col for rk, col in zip(col_rk, M.columns) if rk == row_rk[0]):
        raise ValueError("relation at the generator degree (%s, %s)" % alpha)
    root = SubdivNode(ConvexRegion.rectangle(*C), [], None)
    _build(M, root.region, alpha, root)
    return SubdivTree(alpha, tuple(Fraction(c) for c in C), root)
