"""Brute-force highest-slope search over F_q-subspaces, the full HN
filtration by iterated quotients, and slope-sorted merging.

The search needs the integral of dim <W> for very many subspaces W of the
fiber at the generator degree.  Grid cells are grouped into classes with a
common active-relation column space, so each subspace costs one tuple of
small per-class ranks.  Class weights are exact integers over one common
denominator (each axis scaled by the lcm of its coordinate denominators),
so scoring a subspace is an integer dot product; Fractions appear only at
the API.  F_2 vectors ride on bitmask ints.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from . import grmat, invariants
from .field import DenseMatrix
from .grmat import deg_leq, induced_grid
from .invariants import HNFactor, HNFactorList, merge_factors  # noqa: F401

__all__ = ["SlopeRecord", "brute_force_max_slope", "hn_filtration_at",
           "merge_factors", "subspaces_of_dim", "subspace_grid_dims"]


# ---------------------------------------------------------------------------
# echelon kernels: prime-field vectors (lists) and F_2 bitmasks (ints)

@functools.lru_cache(maxsize=None)
def _inverses(q):
    """Multiplicative inverses in F_q, indexed by element (0 maps to 0)."""
    return (0,) + tuple(pow(a, q - 2, q) for a in range(1, q))


def _insert_generic(F, base, tmp, v):
    """Insert v (list over the prime field F, mutated) into the echelon
    `tmp` over the read-only echelon `base`; pivot = last nonzero row.
    True if v was independent."""
    q = F.q
    inv = _inverses(q)
    piv = len(v) - 1
    while True:
        while piv >= 0 and not v[piv]:
            piv -= 1
        if piv < 0:
            return False
        pc = base.get(piv)
        if pc is None:
            pc = tmp.get(piv)
        if pc is None:
            tmp[piv] = v
            return True
        c = v[piv] * inv[pc[piv]] % q
        for r in range(piv):
            b = pc[r]
            if b:
                v[r] = (v[r] - c * b) % q
        v[piv] = 0


def _insert_f2(base, tmp, v):
    while v:
        piv = v.bit_length() - 1
        pc = base.get(piv)
        if pc is None:
            pc = tmp.get(piv)
        if pc is None:
            tmp[piv] = v
            return True
        v ^= pc
    return False


def _scaled_gaps(coords):
    """(gaps, scale): the coordinate gaps as ints over scale, the lcm of the
    denominators; the last coordinate's unbounded cell gets gap 0."""
    scale = math.lcm(*(c.denominator for c in coords))
    ints = [c.numerator * (scale // c.denominator) for c in coords]
    return [b - a for a, b in zip(ints, ints[1:])] + [0], scale


class _FiberClasses:
    """Per-presentation cache: the induced grid, per-point fiber class, and
    per nonzero-fiber class its relation-column echelon, corank, area and
    lengths on the vertical and horizontal rays from alpha.

    All are exact ints: the x and y cell gaps are ints over `scale` =
    (sx, sy), so ray lengths are over sy and sx and areas over den = sx*sy.
    `ranks` gives the per-class ranks of one subspace and `scaled_integral`
    their area-weighted sum over `den`; `integral` and `dims` convert at
    the API, so every result stays exact."""

    def __init__(self, M):
        F = M.field
        self.f2 = (getattr(F, "q", None) == 2)
        t = M.nrows
        G = induced_grid(M)
        self.grid = G
        alphas = set(M.row_degrees)
        if len(alphas) != 1:
            raise ValueError("module is not uniquely generated")
        self.alpha = next(iter(alphas))
        ax, ay = self.alpha
        xs, ys = G.xs, G.ys
        wx, sx = _scaled_gaps(xs)
        wy, sy = _scaled_gaps(ys)
        self.scale = (sx, sy)
        self.den = sx * sy
        dense = [M.dense_column(j) for j in range(M.ncols)]
        if self.f2:
            dense = [sum(1 << i for i, v in enumerate(c) if v) for c in dense]
            self._insert = _insert_f2
        else:
            # _insert_generic reduces its vector in place: insert a copy
            self._insert = (lambda base, tmp, v:
                            _insert_generic(F, base, tmp, list(v)))
        class_by_J = {}
        # grid point -> class index, or -1 where the fiber is zero
        self.point_class = {}
        self.echs = []          # per class: echelon dict of relation columns
        self.coranks = []       # per class: fiber dimension, > 0
        self.weights = []       # per class: area, an int over den
        self.vert = []          # per class: length on {ax} x [ay, inf)
        self.horiz = []         # per class: length on [ax, inf) x {ay}
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                pt = (x, y)
                if not deg_leq(self.alpha, pt):
                    self.point_class[pt] = -1
                    continue
                J = tuple(j for j in range(M.ncols)
                          if deg_leq(M.col_degrees[j], pt))
                cid = class_by_J.get(J)
                if cid is None:
                    ech = {}
                    rank = sum(self._insert({}, ech, dense[j]) for j in J)
                    cid = -1
                    if rank < t:
                        cid = len(self.echs)
                        self.echs.append(ech)
                        self.coranks.append(t - rank)
                        self.weights.append(0)
                        self.vert.append(0)
                        self.horiz.append(0)
                    class_by_J[J] = cid
                self.point_class[pt] = cid
                if cid >= 0:
                    self.weights[cid] += wx[ix] * wy[iy]
                    self.vert[cid] += wy[iy] if x == ax else 0
                    self.horiz[cid] += wx[ix] if y == ay else 0

    def to_internal(self, vectors):
        """Convert dense basis vectors to the internal representation."""
        if self.f2:
            return [sum(1 << i for i, v in enumerate(vec) if v)
                    for vec in vectors]
        return [list(vec) for vec in vectors]

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

    def scaled_integral(self, ranks):
        """den * the integral of the dims given by per-class ranks."""
        return sum(map(operator.mul, self.weights, ranks))

    def integral(self, ivecs):
        """Integral over the plane of dim <span(ivecs)> (bounded modules)."""
        return Fraction(self.scaled_integral(self.ranks(ivecs)), self.den)

    def dims(self, ivecs):
        """dim <span(ivecs)> at every grid point."""
        ranks = self.ranks(ivecs)
        return {pt: ranks[cid] if cid >= 0 else 0
                for pt, cid in self.point_class.items()}


def fiber_classes(M):
    cache = getattr(M, "_fiber_classes", None)
    if cache is None:
        cache = _FiberClasses(M)
        M._fiber_classes = cache
    return cache


def subspace_grid_dims(M, basis_vectors):
    """Pointwise dims of the submodule generated by the given fiber vectors
    (dense lists over the generators), on the induced grid of M."""
    fc = fiber_classes(M)
    return fc.grid, fc.dims(fc.to_internal(basis_vectors))


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
    """A maximizing subspace: basis columns over the generators at alpha,
    with its inverse slope (integral per dimension)."""

    def __init__(self, alpha, basis, dim, integral):
        self.alpha = alpha
        self.basis = basis            # DenseMatrix t x dim
        self.dim = dim
        self.integral = integral
        self.inv_slope = Fraction(integral, dim)

    @property
    def slope(self):
        return 1 / self.inv_slope

    def basis_vectors(self):
        return [self.basis.column(j) for j in range(self.basis.cols)]


def brute_force_max_slope(M, use_filter=True, largest=False):
    """Exhaustive highest-slope submodule search at the generator degree.

    Lines are scanned first; a dimension-k stratum is skipped when fewer
    than (q^k - 1)/(q - 1) lines reach slope mu(best)/k, since a k-subspace
    beating the current best would force all its lines above that bound.
    (The skip also rules out equal-slope subspaces at that dimension: the
    bounding chain is strict.)

    Ties favor smaller dimension, then the earlier echelon pattern.  With
    largest=True they favor the larger dimension instead, which returns the
    unique maximal subspace of maximal slope -- the first member of the HN
    filtration (the sum of two maximal-slope submodules again has maximal
    slope, so the maximal one is unique and contains all others).
    """
    F = M.field
    t = M.nrows
    if t == 0:
        raise ValueError("zero thickness: no generators")
    fc = fiber_classes(M)
    q = F.q

    # integrals are compared as ints over the common denominator fc.den
    def score(rows):
        return fc.scaled_integral(fc.ranks(fc.to_internal(rows)))

    lines = list(subspaces_of_dim(F, t, 1))
    line_ints = [score(rows) for rows in lines]

    best_rows, best_dim, best_int = None, 0, None
    for rows, integ in zip(lines, line_ints):
        if integ <= 0:
            raise ValueError("unbounded or empty submodule integral")
        # slope 1/integ > best_dim/best_int  <=>  best_int > best_dim*integ
        if best_rows is None or best_int > best_dim * integ:
            best_rows, best_dim, best_int = rows, 1, integ

    for k in range(2, t + 1):
        if use_filter:
            # lines with slope >= mu(best)/k: 1/l >= best_dim/(k*best_int)
            reach = sum(1 for l in line_ints if k * best_int >= best_dim * l)
            if reach < gaussian_line_count(q, k):
                continue
        for rows in subspaces_of_dim(F, t, k):
            integ = score(rows)
            if integ <= 0:
                raise ValueError("unbounded or empty submodule integral")
            # k/integ > best_dim/best_int
            if k * best_int > best_dim * integ or (
                    largest and k * best_int == best_dim * integ
                    and k > best_dim):
                best_rows, best_dim, best_int = rows, k, integ

    basis = DenseMatrix.from_columns(best_rows, t, F)
    return SlopeRecord(fc.alpha, basis, best_dim,
                       Fraction(best_int, fc.den))


def hn_filtration_at(M, alpha, use_filter=True):
    """HN filtration of the submodule generated by the fiber at alpha.

    Repeatedly extracts the highest-slope subspace, records its factor as
    superlevel staircases with its slope, and passes to the quotient
    presentation until nothing is left.
    """
    alpha = grmat.as_degree(alpha)
    pm = grmat.pointwise_model(M, alpha)
    if pm.dim == 0:
        return HNFactorList(alpha, [])
    S = grmat.GradedMatrix(M.field, M.row_degrees, [alpha] * pm.dim,
                           [[(i, M.field.one)] for i in pm.basis_rows])
    cur = grmat.minimize(grmat.submodule_presentation(M, S))
    factors = []
    while cur.nrows > 0:
        rec = brute_force_max_slope(cur, use_filter=use_filter, largest=True)
        fcc = fiber_classes(cur)
        dims = fcc.dims(fcc.to_internal(rec.basis_vectors()))
        stairs = invariants.staircases_from_dims(fcc.grid, dims, alpha,
                                                 thickness=rec.dim)
        factors.append(HNFactor(stairs, rec.slope))
        cur = grmat.quotient_presentation(cur, rec.basis)
    for a, b in zip(factors, factors[1:]):
        if not a.slope > b.slope:
            raise AssertionError("HN slopes not strictly decreasing")
    return HNFactorList(alpha, factors)
