"""Randomized shrunk-subspace engine for HN filtrations (Cheng's
algorithm).

- ``build_A_alpha``: the matrix space A_alpha of the structure maps out of
  the fiber at alpha of a module generated there, on the coarsest evenly
  spaced grid that holds its coordinates.
- ``shrunk_subspace_random``: one draw of the minimal shrunk subspace of a
  (p, q)-blow-up of a ``MatrixSpace`` (``BlowUp``) over an extension
  field, certified by its Wong sequence (``WongState``), or None.
- ``hn_cheng``: the HN filtration at alpha, split at certified shrunk
  subspaces and recursed on subquotients of <V_alpha> (``_Subquotients``),
  with the probe schedule of ``_split_fiber``; ``ShrunkFailure`` when every
  retry of a probe fails.

Extension elements exist only as g x g blocks over the prime field
(field.embed_phi), so every draw, Wong step and certificate is prime-field
work on the vectors of field._vector_form, which this module moves
through field's primitives and never reads.  A seed gives the same answer
every time.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction

from . import field as fieldmod
from . import grmat
from .field import embed_phi, ext_field_build
from .grmat import _Echelon, as_degree
from .hn_core import fiber_classes
from .invariants import HNFactor, HNFactorList

__all__ = ["MatrixSpace", "BlowUp", "WongState", "ShrunkFailure",
           "build_A_alpha", "shrunk_subspace_random",
           "hn_cheng"]


class ShrunkFailure(RuntimeError):
    """The randomized shrunk-subspace search kept failing its certificate."""

    def __init__(self, alpha, attempts):
        super().__init__(
            "no certified shrunk subspace at (%s, %s) after %d attempts"
            % (*alpha, attempts))
        self.alpha = alpha
        self.attempts = attempts


class MatrixSpace:
    """A subspace of k^{nrows x ncols} given by an independent basis.  Each
    basis matrix is kept as its nonzero rows: a list of (row index, row),
    indices ascending, each row a list of length ncols."""

    def __init__(self, field, nrows, ncols, basis):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.basis = list(basis)
        span = _Echelon(field, nrows * ncols)
        for B in self.basis:
            flat, prev = [0] * (nrows * ncols), -1
            for a, row in B:
                if not prev < a < nrows:
                    raise ValueError("basis row index out of range or order")
                if len(row) != ncols:
                    raise ValueError("basis row length is not ncols")
                flat[a * ncols:(a + 1) * ncols] = row
                prev = a
            if not span.insert(flat):
                raise ValueError("basis matrices are not independent")

    @functools.cached_property
    def vectors(self):
        """The basis in field's vector form, packed on the first draw: per
        basis matrix, (lo, cols, rows), with cols a (b, v) for each of its
        nonzero columns b, v that column cut to the matrix's nonzero band,
        its rows lo through its last nonzero row, and rows its nonzero
        rows as (row index, row)."""
        pack = fieldmod._vector_form(self.field.q).pack
        out, zero = [], [0] * self.ncols
        for B in self.basis:
            lo, at = B[0][0], dict(B)
            band = [at.get(a, zero) for a in range(lo, B[-1][0] + 1)]
            out.append((lo, [(b, pack(list(c)))
                             for b, c in enumerate(zip(*band)) if any(c)],
                        [(a, pack(row)) for a, row in B]))
        return out

    @property
    def ell(self):
        return len(self.basis)

    def __repr__(self):
        return "MatrixSpace(%d x %d, ell=%d)" % (
            self.nrows, self.ncols, self.ell)


class BlowUp:
    """The Kronecker blow-up k^{p x q} tensor space."""

    def __init__(self, space, p, q):
        if p < 1 or q < 1:
            raise ValueError("blow-up sizes must be >= 1")
        self.space = space
        self.p = p
        self.q = q

    def image_core(self, ucols):
        """Core S of the blow-up image: span{A_k . u_j} over base matrices
        A_k and column blocks u_j of the given vectors (field's vector
        form, like the result); the full image of span(ucols) is k^p
        tensor S, because every block position i is reachable through some
        E_{ij} tensor A_k.  S depends only on the span T of the blocks, of
        dim at most ncols, so the blocks are echelonized first and A_k is
        applied to a basis of T, until S is all of k^nrows.  Returns S's
        reduced column echelon basis (field._vector_form's reduced)."""
        sp = self.space
        Np, N = sp.ncols, sp.nrows
        form = fieldmod._vector_form(sp.field.q)
        cut, apply, insert = form.slice, form.apply, form.insert
        blocks = {}
        for blk in (cut(u, j * Np, (j + 1) * Np) for u in ucols
                    for j in range(self.q)):
            if insert(blocks, blocks, blk) and len(blocks) == Np:
                break
        span = {}
        for t in blocks.values():
            for _, _, rows in sp.vectors:
                if insert(span, span, apply(rows, t, N)) and len(span) == N:
                    return form.reduced(span)
        return form.reduced(span)


class WongState:
    """Wong-sequence iteration state for a matrix A inside a blow-up.

    A is given by its columns in field's vector form, as are all vectors
    here.  The limit candidate W always has the form k^p tensor S for a
    subspace S of k^nrows; only a basis of S is stored.  A's columns are
    reduced once: that reduction gives rank_a and the kernel of A, and
    every preimage continues it with the columns of W alone.
    """

    def __init__(self, acols, blow):
        self.blow = blow
        self.step = 0
        self.s_basis = []
        self.last_preimage = []
        F = blow.space.field
        self._red = fieldmod.ColumnReduction(F, acols,
                                             blow.p * blow.space.nrows)
        self.rank_a = self._red.rank
        self._kernel_a = _Echelon(F, len(acols))
        for c in self._red.kernel:
            self._kernel_a.add(c)
        self._last_aug_rank = None

    def w_columns(self):
        """Basis of W = k^p tensor S as columns of length p*nrows."""
        N, p = self.blow.space.nrows, self.blow.p
        place = self._red.form.place
        return [place(s, a * N, p * N) for a in range(p)
                for s in self.s_basis]

    def preimage(self):
        """Basis of A^{-1}(W) in k^{q*ncols}: the A-parts of the kernel
        combos of [A | W], which continue A's reduction with W's columns,
        spanned after A's own kernel."""
        rank, combos = self._red.extend(self.w_columns())
        self._last_aug_rank = rank
        span = self._kernel_a.copy()
        for c in combos:
            span.add(c)
        return span.columns()

    def advance(self):
        """One Wong step W -> blow(A^{-1}(W)); True if W grew."""
        self.last_preimage = self.preimage()
        new_s = self.blow.image_core(self.last_preimage)
        self.step += 1
        if len(new_s) == len(self.s_basis):
            return False
        self.s_basis = new_s
        return True

    @property
    def contained(self):
        """Whether the (stabilized) limit lies inside Im A; valid after the
        final preimage call, whose augmented rank is cached."""
        return self._last_aug_rank == self.rank_a


def _run_wong(acols, blow):
    st = WongState(acols, blow)
    limit = min(blow.p * blow.space.nrows, blow.q * blow.space.ncols) + 1
    while st.advance():
        if st.step > limit:
            raise AssertionError("Wong sequence failed to stabilize")
    return st


# ---------------------------------------------------------------------------
# randomized minimal shrunk subspace

def _partial_reduce(F, stack):
    """Sparsify the coefficient matrices before forming A.

    stack holds the columns of all X_k stacked vertically: column j
    collects the coefficients of A's block-column j, entry k*P + i being
    entry (i, j) of X_k, for P the rows of each X_k.  A common invertible
    right factor C (column echelon of the stack) maps each X_k to X_k . C;
    the resulting A picks up zero block-columns while staying in the span
    of the blow-up, since only the X coefficients changed.  Column j of
    the stack times C is the echelon's remainder of column j (zero for a
    dependent column).  Returns these remainders, laid out as the stack.
    """
    ech = _Echelon(F, len(stack[0]))
    return [ech.insert_reduced(col) or [0] * ech.nrows for col in stack]


def shrunk_subspace_random(space, p, seed, q=None, g_extra=0):
    """One randomized attempt at the minimal shrunk subspace of `space`.

    Blows the space up by (p, q) (q defaults to p), extends the field by
    degree g = max(1, ceil(log^2_|k| p)), raised until |k|^g >= _MIN_FIELD
    (over GF(2) and GF(3) at g = 1 most draws fail their certificate), plus
    g_extra; draws random coefficient matrices over the extension, embeds
    them as g x g blocks, partially column-reduces, and runs the Wong
    sequence.  The coefficients are drawn X_k by X_k, row by row of
    blocks, and each block is written straight into the stacked columns
    that _partial_reduce reduces.  When the limit lies in Im A the
    preimage is the certified minimal shrunk subspace of the blow-up, of
    the form k^{gq} tensor U*; the projection U* is returned as a basis, a
    list of vectors of length ncols (the unit vectors when the space or
    its matrices are trivial).  Returns None when the certificate fails
    (caller retries with a fresh seed or a larger blow-up).
    """
    if q is None:
        q = p
    F = space.field
    Np = space.ncols
    if space.ell == 0 or space.nrows == 0:
        # every vector shrinks to nothing: the whole space is minimal
        return [[int(i == j) for i in range(Np)] for j in range(Np)]
    g = 1 if p <= 1 else max(1, math.ceil(math.log(p, F.q) ** 2))
    while F.q ** g < _MIN_FIELD:
        g += 1
    g += g_extra
    rng = random.Random(seed)
    draw = rng.randrange
    ext = ext_field_build(F.q, g)
    P, Q = g * p, g * q
    # X_k is a p x q array of random extension elements as g x g blocks:
    # entry (a, b) of its block (i, j) is entry r + a = k*P + i*g + a of
    # stacked column c + b = j*g + b
    stack = [[0] * (space.ell * P) for _ in range(Q)]
    for r in range(0, space.ell * P, g):
        for c in range(0, Q, g):
            x = [draw(F.q) for _ in range(g)]
            for b, col in enumerate(zip(*embed_phi(x, ext)), c):
                stack[b][r:r + g] = col
    # A = sum_k X_k (x) A_k: column (j, b) sums X_k[i][j] times column b
    # of A_k placed at block i, over the k where that column is nonzero
    N, vecs = space.nrows, space.vectors
    form = fieldmod._vector_form(F.q)
    combine, n = form.combine, P * N
    acols = []
    for xcol in _partial_reduce(F, stack):
        terms = [[] for _ in range(Np)]     # per column b of the space
        for r, x in enumerate(xcol):
            if x:
                k, i = divmod(r, P)
                lo, kcols, _ = vecs[k]
                for b, c in kcols:
                    terms[b].append((x, i * N + lo, c))
        acols += [combine(t, n) for t in terms]
    st = _run_wong(acols, BlowUp(space, P, Q))
    if not st.contained:
        return None
    pre = st.last_preimage     # basis of k^{Q} tensor U*
    span = _Echelon(F, Np)
    for c in pre:
        span.add(form.slice(c, 0, Np))    # first block projects onto U*
    if span.rank * Q != len(pre):
        # the preimage does not have the tensor shape the scaling law
        # demands; treat as a failed draw rather than returning junk
        return None
    return span.basis_columns()


# ---------------------------------------------------------------------------
# the matrix space of a module at a grid point

def _stacked_space(F, ncols, blocks):
    """The matrix space whose rows stack the blocks (lists of rows of
    length ncols), with one basis matrix per nonzero block: the block's
    nonzero rows at their stacked row indices, zeros elsewhere.  Nonzero
    matrices on disjoint rows are independent, so MatrixSpace's check is
    skipped."""
    basis, off = [], 0
    for rows in blocks:
        nz = [(a, r) for a, r in enumerate(rows, off) if any(r)]
        if nz:
            basis.append(nz)
        off += len(rows)
    space = MatrixSpace.__new__(MatrixSpace)
    space.field, space.nrows, space.ncols, space.basis = F, off, ncols, basis
    return space


def build_A_alpha(M, alpha):
    """Matrix space of all structure maps out of the fiber at alpha, for M
    generated at alpha (as grmat.fiber_submodule returns <V_alpha>) and
    bounded; any other module raises ValueError.

    The grid is M's own: per axis, the coarsest evenly spaced coordinates
    from alpha's to M's last that hold every coordinate of M
    (grmat.Axis.even).  M is constant on its cells and zero on its last
    row and column, so the discrete slopes on it are the area-weighted
    ones.  Rows are the stacked fibers at the grid points strictly above
    alpha (colexicographic order, zero-dimensional fibers contribute no
    rows); the basis has one matrix per point with a nonzero structure
    map, carrying that map in its block and zeros elsewhere.  A point's
    map is that of its fiber class (hn_core.fiber_classes), the class of
    its floor on M's axes: column k is the k-th basis generator at alpha
    fully reduced modulo the class's relations (field._vector_form's
    reduce) on the rows that are not pivots, as in grmat.structure_map.

    Returns (space, betas), betas the grid points above alpha; the
    space's ncols is the dimension at alpha and its nrows the total
    stacked dimension.
    """
    alpha = as_degree(alpha)
    if len(set(M._ranks[2])) != 1 or M.row_degrees[0] != alpha:
        raise ValueError("build_A_alpha needs a module generated at "
                         "(%s, %s)" % alpha)
    t, form, fc = M.nrows, fieldmod._vector_form(M.field.q), fiber_classes(M)
    src = fc.point_class[fc.origin]
    if src < 0:
        raise ValueError("zero fiber at (%s, %s)" % alpha)
    (ax, ay), (fx, fy) = fc.origin, fc.axes
    if (fc.point_class[len(fx.coords) - 1, ay] >= 0
            or fc.point_class[ax, len(fy.coords) - 1] >= 0):
        raise ValueError("module is not bounded at (%s, %s)" % alpha)
    units = [form.pack([int(i == j) for j in range(t)])
             for i in range(t) if i not in fc.echs[src]]
    maps = []           # per class, its map as rows
    for ech in fc.echs:
        cols = [form.unpack(form.reduce(ech, u), t) for u in units]
        maps.append([[c[r] for c in cols] for r in range(t) if r not in ech])
    maps.append([])     # maps[-1]: the points of class -1, the zero fiber
    (xs, ixs), (ys, iys) = (zip(*a.even()) for a in fc.axes)
    betas = [(x, y) for y in ys for x in xs][1:]
    classes = [fc.point_class[ix, iy] for iy in iys for ix in ixs][1:]
    return _stacked_space(M.field, len(units),
                          [maps[c] for c in classes]), betas


# ---------------------------------------------------------------------------
# HN driver: probes, retries, split-and-recurse

_MAX_RETRIES = 8      # draws per blow-up before ShrunkFailure
_MIN_FIELD = 4        # least field size a draw starts over


def _shrunk_with_retries(space, p, q, alpha, seed, p_cap):
    """Retry schedule: fresh deterministic seed each attempt, alternately
    enlarging the field extension and the blow-up scale (ratio preserved,
    p capped by p_cap).  Over tiny base fields the default extension leaves
    a random matrix singular too often, so the extension degree must grow
    with the attempts."""
    for attempt in range(_MAX_RETRIES):
        m = 1 << (attempt // 2)
        while m > 1 and m * p > p_cap:
            m >>= 1
        extra = (attempt + 1) // 2
        sub_seed = hash((seed, alpha, p, q, attempt)) & 0x7FFFFFFF
        U = shrunk_subspace_random(space, m * p, sub_seed, q=m * q,
                                   g_extra=extra)
        if U is not None:
            return U
    raise ShrunkFailure(alpha, _MAX_RETRIES)


def _split_fiber(space, alpha, seed):
    """Find the fiber of a proper nonzero HN filtration member, or None
    when the module is certified semistable at alpha; p0 and q0 are the
    space's ncols, the dimension at alpha, and nrows.

    The shrunk subspace of a (p, q)-blow-up of the space is the fiber of
    the largest filtration member whose factors all have discrete slope
    above p/(p+q), so only the exact (rp, rq) blow-up can certify the node
    semistable.  At rp >= 2 the ceiling probe (1, ceil(rq/rp)) is drawn
    first, and the exact one only when its answer is trivial (0 or the
    whole fiber); at rp = 1 the exact probe is itself a p = 1 draw.
    """
    p0, q0 = space.ncols, space.nrows
    if q0 == 0 or space.ell == 0 or p0 == 1:
        # a one-dimensional fiber has no proper nonzero subspace
        return None
    g = math.gcd(p0, q0)
    rp, rq = p0 // g, q0 // g
    p_cap = p0 * q0
    if rp > 1:
        U = _shrunk_with_retries(space, 1, -(-rq // rp), alpha, seed, p_cap)
        if 0 < len(U) < p0:
            return U
    U = _shrunk_with_retries(space, rp, rq, alpha, seed, p_cap)
    if len(U) in (0, p0):
        return None
    return U


class _Subquotients:
    """The recursion of hn_cheng on subquotients of the fiber at alpha.

    cur presents <V_alpha> with its t generators at alpha, and its
    generator coordinates are those of V_alpha = k^t.  A node is the
    subquotient <U2>/<U1> for subspaces U1 <= U2 of k^t, given as lists of
    vectors: `lo` spans U1, and `top` is a basis of U2 modulo U1 and the
    node's coordinates.  Its fiber at a grid point beta is T.U2 / T.U1, T
    the structure map to beta, so its matrix space (``space``) is read off
    the root's A_alpha, which is built once (build_A_alpha), and the
    slopes and staircases of a leaf off cur's fiber classes."""

    def __init__(self, cur, alpha):
        self.field, self.alpha = cur.field, alpha
        self.root = build_A_alpha(cur, alpha)[0]
        if self.root.ncols != cur.nrows:
            raise AssertionError("hn_cheng: the fiber at alpha is not k^t")
        # per root basis matrix, the nonzero rows of its structure map,
        # packed once, numbered within the block
        self.form = form = fieldmod._vector_form(self.field.q)
        self.maps = [[(a, form.pack(r)) for a, (_, r) in enumerate(B)]
                     for B in self.root.basis]
        self.fc = fiber_classes(cur)
        self.weights = self.fc.at(self.fc.alpha)

    def space(self, lo, top):
        """The matrix space of the node: per root basis matrix, with T
        the nonzero rows of its structure map, a basis of the rows of
        T.top reduced modulo the span of T.lo, placed in the block's rows
        as build_A_alpha places the maps of a presentation of the node
        generated in the node's coordinates; the two agree up to
        invertible row operations within each block.  T is applied to
        packed vectors (field._vector_form's apply) and reduced in field's
        internal form; only the reduced columns are unpacked, to read
        their rows."""
        form = self.form
        pack, insert, apply, reduce, unpack = (
            form.pack, form.insert, form.apply, form.reduce, form.unpack)
        lo, top = [pack(v) for v in lo], [pack(c) for c in top]
        blocks = []
        for T in self.maps:
            n, ech, keep = len(T), {}, {}
            for v in lo:
                insert(ech, ech, apply(T, v, n))
            red = [unpack(reduce(ech, apply(T, c, n)), n) for c in top]
            blocks.append([r for r in map(list, zip(*red))
                           if insert(keep, keep, pack(r))])
        return _stacked_space(self.field, len(top), blocks)

    def factors(self, lo, top, space, seed):
        """The HN factors of the node, split by a certified shrunk
        subspace U into <U1 + lift U>/<U1> and <U2>/<U1 + lift U>, whose
        coordinates are lift U and the node's coordinates off the pivot
        rows of U's echelon (as grmat.quotient_presentation picks them)."""
        U = _split_fiber(space, self.alpha, seed)
        if U is None:
            return [self.semistable(lo, top)]
        ech = _Echelon(self.field, len(top))
        for u in U:
            ech.insert(u)
        q = self.field.q
        lift = [[sum(map(operator.mul, u, coord)) % q for coord in zip(*top)]
                for u in U]
        rest = [c for i, c in enumerate(top) if i not in ech.pivots]
        mid = lo + lift
        return (self.factors(lo, lift, self.space(lo, lift), hash((seed, 1)))
                + self.factors(mid, rest, self.space(mid, rest),
                               hash((seed, 2))))

    def semistable(self, lo, top):
        """The node as one HN factor: its per-class ranks are those of U2
        less those of U1 on cur's fiber classes."""
        fc, w = self.fc, self.weights
        ranks = fc.ranks(fc.to_internal(lo + top))
        if lo:
            ranks = tuple(map(operator.sub, ranks,
                              fc.ranks(fc.to_internal(lo))))
        integ = Fraction(w.scaled_integral(ranks), w.den)
        return HNFactor(fc.staircases(ranks, len(top), fc.alpha),
                        len(top) / integ)


def hn_cheng(M, alpha, seed=0):
    """HN filtration at alpha via recursive shrunk-subspace splits.

    The splits run on subquotients of the fiber at alpha (_Subquotients)
    of the module <V_alpha> that M generates there, on its own evenly
    spaced grid (build_A_alpha), so the discrete filtration there is the
    continuous one; a <V_alpha> that is not bounded raises ValueError.
    Slopes are computed exactly with cell-area weighting, making the
    output directly comparable with the brute-force search.  A_alpha is
    built once per call, and no presentation of a filtration member is
    computed.
    """
    alpha = as_degree(alpha)
    cur = grmat.fiber_submodule(M, alpha)
    if cur is None:
        return HNFactorList(alpha, [])
    sq = _Subquotients(cur, alpha)
    t = cur.nrows
    factors = sq.factors([], [[int(i == j) for i in range(t)]
                              for j in range(t)], sq.root, seed)
    for a, b in zip(factors, factors[1:]):
        if not a.slope > b.slope:
            raise AssertionError("HN slopes not strictly decreasing")
    return HNFactorList(alpha, factors)
