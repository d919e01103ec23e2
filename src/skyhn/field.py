"""Exact arithmetic over prime fields and dense matrices over them.

Field elements are plain ints in [0, q) for a prime q, and every matrix
operation inlines its ``% q``.  Extension fields F_{q^g} appear only inside
the randomized engine: ext_field_build picks the modulus and embed_phi turns
an element (g base-field coefficients, constant term first) into a g x g
block over F_q, so no extension arithmetic exists.  Elimination is one
list-level column reduction loop with an F_2 bitmask path and an inlined
``% q`` path: reduce_columns runs it once, ColumnReduction keeps it open
for further columns, reduce wraps it for DenseMatrix, and the incremental
echelon primitives _insert_f2/_insert_generic share its cached inverse
table.  Module-level sparsity is handled upstream.
"""

from __future__ import annotations

import functools


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_q for a prime q <= 2^16. Elements are ints in [0, q)."""

    def __init__(self, q):
        if not _is_prime(q):
            raise ValueError("field order must be prime, got %r" % (q,))
        if q > 1 << 16:
            raise ValueError("field order too large: %r" % (q,))
        self.q = q
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.q)
        return pow(a, self.q - 2, self.q)

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return "PrimeField(%d)" % self.q


# ---------------------------------------------------------------------------
# polynomial helpers over a prime field (coefficient lists, constant first)

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c

def _poly_mul(F, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % F.q
    return _poly_trim(out)

def _poly_mod(F, a, m):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % F.q
        a.pop()
    return _poly_trim(a)

def _poly_powmod(F, a, e, m):
    r = [1]
    b = _poly_mod(F, a, m)
    while e:
        if e & 1:
            r = _poly_mod(F, _poly_mul(F, r, b), m)
        b = _poly_mod(F, _poly_mul(F, b, b), m)
        e >>= 1
    return r

def _poly_sub(F, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim([(x - y) % F.q for x, y in zip(a, b)])

def _poly_gcd(F, a, b):
    """The monic gcd of a and b ([] when both are 0)."""
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic on the fly
        lead_inv = F.inv(b[-1])
        bm = [(c * lead_inv) % F.q for c in b]
        a = _poly_mod(F, a, bm)
        a, b = b, a
    return [c * F.inv(a[-1]) % F.q for c in a] if a else a


def _irreducible(F, coeffs):
    """Check irreducibility of a monic polynomial (coefficient list, monic).

    Exhaustive trial division for degree <= 8, Rabin's test otherwise.
    """
    g = len(coeffs) - 1
    if g == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    if g <= 8:
        # trial divide by every monic polynomial of degree 1..g//2
        for d in range(1, g // 2 + 1):
            for code in range(F.q ** d):
                div = []
                c = code
                for _ in range(d):
                    div.append(c % F.q)
                    c //= F.q
                div.append(1)
                if not _poly_mod(F, coeffs, div):
                    return False
        return True
    # Rabin: x^(q^g) == x mod f, and gcd(x^(q^(g/p)) - x, f) = 1 for primes p|g
    q = F.q
    xq = _poly_powmod(F, [0, 1], q ** g, coeffs)
    if _poly_sub(F, xq, [0, 1]):
        return False
    primes = set()
    n = g
    d = 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    if n > 1:
        primes.add(n)
    for p in primes:
        h = _poly_powmod(F, [0, 1], q ** (g // p), coeffs)
        gc = _poly_gcd(F, coeffs, _poly_sub(F, h, [0, 1]))
        if len(gc) - 1 >= 1:
            return False
    return True


class FieldExt:
    """The extension F_{q^g} = F_q[x]/(modulus), kept only as its modulus
    (length g+1, monic, constant term first) and `companion`, the g x g
    matrix of multiplication by the class of x acting on coefficient
    columns: subdiagonal ones, last column the negated modulus tail.
    Extension elements are coefficient tuples that only embed_phi reads;
    all arithmetic happens on their g x g blocks over the base field."""

    def __init__(self, base, g, modulus):
        self.base = base
        self.g = g
        self.modulus = list(modulus)
        comp = [[0] * g for _ in range(g)]
        for j in range(g - 1):
            comp[j + 1][j] = 1
        for i in range(g):
            comp[i][g - 1] = (-self.modulus[i]) % base.q
        self.companion = comp

    def __repr__(self):
        return "FieldExt(q=%d, g=%d)" % (self.base.q, self.g)


def ext_field_build(q, g):
    """Build F_{q^g} with the lexicographically least monic irreducible modulus.

    Candidate moduli x^g + a_{g-1} x^{g-1} + ... + a_0 are enumerated in
    increasing order of the integer code sum(a_i q^i); the first irreducible
    one wins, so the construction is deterministic.  g = 1 yields F_q[x]/(x).
    """
    base = PrimeField(q)
    for code in range(q ** g):
        coeffs = []
        c = code
        for _ in range(g):
            coeffs.append(c % q)
            c //= q
        coeffs.append(1)
        if _irreducible(base, coeffs):
            return FieldExt(base, g, coeffs)
    raise AssertionError("no irreducible polynomial found (unreachable)")


def embed_phi(x, ext):
    """Embed an extension-field element (g coefficients, constant first) as
    a g x g base-field matrix.

    phi(x) = sum_j x_j * companion^j, a ring homomorphism L -> k^{g x g}.
    Its column k is companion^k applied to x (phi(x) commutes with the
    companion and sends e_0 to x), so column 0 is x and each next column
    is the companion times the one before.
    """
    g, q, comp = ext.g, ext.base.q, ext.companion
    cols = [[a % q for a in x]]
    for _ in range(g - 1):
        v = cols[-1]
        top = v[-1]
        cols.append([((v[i - 1] if i else 0) + comp[i][g - 1] * top) % q
                     for i in range(g)])
    return DenseMatrix.from_columns(cols, g, ext.base)


class DenseMatrix:
    """Dense matrix over a PrimeField, row-major list of lists of ints."""

    def __init__(self, rows, cols, field, data=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        self.data = data

    @classmethod
    def zero(cls, rows, cols, field):
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n, field):
        m = cls(n, n, field)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_columns(cls, cols, nrows, field):
        return cls(nrows, len(cols), field,
                   [[col[i] for col in cols] for i in range(nrows)])

    def column(self, j):
        return [row[j] for row in self.data]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def matmul(self, other):
        assert self.cols == other.rows and self.field == other.field
        q = self.field.q
        out = []
        for srow in self.data:
            acc = [0] * other.cols
            for a, brow in zip(srow, other.data):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append([x % q for x in acc])
        return DenseMatrix(self.rows, other.cols, self.field, out)

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and self.data == other.data)

    def __repr__(self):
        return "DenseMatrix(%d, %d, %r, %r)" % (
            self.rows, self.cols, self.field, self.data)


# ---------------------------------------------------------------------------
# elimination: prime-field vectors (lists) and F_2 bitmasks (ints); the
# pivot of a vector is its last nonzero row

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


class ColumnReduction:
    """reduce_columns, kept open for more columns.

    ColumnReduction(F, cols, nrows) column-reduces cols as reduce_columns
    does and keeps `rank`, `basis` and `kernel`.  extend(more) continues
    the elimination with further columns on a copy of the saved pivots, so
    one reduction serves any number of extensions.  Their tails start at
    zero: a combo it returns is the part on `cols` of the kernel combo that
    reduce_columns(F, cols + more, nrows) gives for the same column, and
    the rank it returns is that reduction's rank.
    """

    def __init__(self, F, cols, nrows):
        self.q, self.nrows, self.n = F.q, nrows, len(cols)
        self._pivots = {}   # pivot row -> (reduced column, its tail)
        self.basis, self.kernel = self._reduce(self._pivots, cols, True)
        self.rank = len(self.basis)

    def extend(self, more):
        """(rank, combos over the first columns) of the reduction continued
        with the columns `more`; the saved state is left unchanged."""
        pivots = dict(self._pivots)
        kernel = self._reduce(pivots, more, False)[1]
        return len(pivots), kernel

    def _reduce(self, pivots, cols, tracked):
        """The one elimination loop: reduce cols against `pivots`, storing
        fresh pivots; a tail starts at the identity column when tracked,
        else at zero.  Returns (reduced columns with a fresh pivot, tails
        of the columns that reduced to zero), as lists."""
        q, nrows, n = self.q, self.nrows, self.n
        basis, kernel = [], []
        if q == 2:
            for j, col in enumerate(cols):
                v = 0
                for i, x in enumerate(col):
                    if x:
                        v |= 1 << i
                t = 1 << j if tracked else 0
                while v:
                    hit = pivots.get(v.bit_length() - 1)
                    if hit is None:
                        pivots[v.bit_length() - 1] = (v, t)
                        basis.append(v)
                        break
                    v ^= hit[0]
                    t ^= hit[1]
                else:
                    kernel.append(t)
            return ([[(v >> i) & 1 for i in range(nrows)] for v in basis],
                    [[(t >> r) & 1 for r in range(n)] for t in kernel])
        inv = _inverses(q)
        for j, col in enumerate(cols):
            v = list(col)
            t = [0] * n
            if tracked:
                t[j] = 1
            piv = nrows - 1
            while True:
                while piv >= 0 and not v[piv]:
                    piv -= 1
                if piv < 0:
                    kernel.append(t)
                    break
                hit = pivots.get(piv)
                if hit is None:
                    pivots[piv] = (v, t)
                    basis.append(v)
                    break
                pc, pt = hit
                c = v[piv] * inv[pc[piv]] % q
                for r in range(piv):
                    if pc[r]:
                        v[r] = (v[r] - c * pc[r]) % q
                for r, b in enumerate(pt):
                    if b:
                        t[r] = (t[r] - c * b) % q
                v[piv] = 0
        return basis, kernel


def reduce_columns(F, cols, nrows):
    """Column-reduce dense columns of length nrows over the prime field F
    (left unchanged).

    Returns (rank, pivot_cols, combos): the reduced columns with a fresh
    pivot, in input order, span the column space; each dependent column
    gives one kernel combo, a dense coefficient vector over the input
    columns.  The pivot of a column is its last nonzero row; while it
    collides with an earlier pivot, the stored reduced column is
    subtracted, and an identity tail tracks the column operations.  F_2
    columns ride on bitmask ints, other prime fields on inlined ``% q``
    arithmetic with a cached inverse table.  ColumnReduction runs the
    elimination and keeps it open for further columns.
    """
    red = ColumnReduction(F, cols, nrows)
    return red.rank, red.basis, red.kernel


def reduce(M):
    """Column-reduce a dense matrix.

    Returns (rank, column_basis, kernel_basis): column_basis spans the column
    space, kernel_basis spans the right null space; rank + kernel columns =
    cols.  See reduce_columns.
    """
    F = M.field
    rank, basis, kernel = reduce_columns(F, M.columns(), M.rows)
    return (rank, DenseMatrix.from_columns(basis, M.rows, F),
            DenseMatrix.from_columns(kernel, M.cols, F))


def kron(X, A):
    """Kronecker product: block (i,j) of the result is X[i][j] * A."""
    assert X.field == A.field
    q = X.field.q
    out = DenseMatrix.zero(X.rows * A.rows, X.cols * A.cols, X.field)
    for i, xrow in enumerate(X.data):
        for j, x in enumerate(xrow):
            if not x:
                continue
            for a, arow in enumerate(A.data):
                orow = out.data[i * A.rows + a]
                for b, y in enumerate(arow):
                    if y:
                        orow[j * A.cols + b] = x * y % q
    return out
