"""Exact arithmetic over prime fields, and elimination on vectors over them.

Field elements are plain ints in [0, q) for a prime q, and every operation
inlines its ``% q``.  Extension fields F_{q^g} appear only inside the
randomized engine: ext_field_build picks the modulus and embed_phi turns an
element (g base-field coefficients, constant term first) into the g rows of
a block over F_q, so no extension arithmetic exists.  DenseMatrix is left
only behind reduce, kron and grmat.structure_map.

Vectors have one internal form per field, _vector_form(q): F_2 bitmask ints
(_F2Vectors) or lists with inlined ``% q`` (_ListVectors).  Elimination is
one loop per form for each of insert, full reduction, the reduced basis
and column reduction with tracked tails, and each form has the few
coarse primitives that other modules need to work on internal vectors
without reading them: pack, unpack, place, slice, combine,
multiply a list of columns and apply a list of rows.  Other modules
reach elimination through _vector_form, _Echelon (lists through insert,
internal vectors through add; it holds its form and never branches on
the field) and ColumnReduction (internal columns; reduce and
kernel_combos take lists), and never read a bitmask.
Module-level sparsity is handled upstream.
"""

from __future__ import annotations

import functools
import operator


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
        # the bound first: trial division up to sqrt(q) is slow for large q
        if q > 1 << 16:
            raise ValueError("field order too large: %r" % (q,))
        if not _is_prime(q):
            raise ValueError("field order must be prime, got %r" % (q,))
        self.q = q
        self.zero = 0
        self.one = 1

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
    """Check irreducibility of a monic polynomial (coefficient list, monic)
    by Rabin's test."""
    g = len(coeffs) - 1
    if g == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
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
        self._phi = {}      # embed_phi's memo: element tuple -> rows

    def __repr__(self):
        return "FieldExt(q=%d, g=%d)" % (self.base.q, self.g)


@functools.lru_cache(maxsize=None)
def ext_field_build(q, g):
    """Build F_{q^g} with the lexicographically least monic irreducible modulus.

    Candidate moduli x^g + a_{g-1} x^{g-1} + ... + a_0 are enumerated in
    increasing order of the integer code sum(a_i q^i); the first irreducible
    one wins, so the construction is deterministic and built once per
    (q, g).  g = 1 yields F_q[x]/(x).
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
    the g rows of a g x g base-field matrix.

    phi(x) = sum_j x_j * companion^j, a ring homomorphism L -> k^{g x g}.
    Its column k is companion^k applied to x (phi(x) commutes with the
    companion and sends e_0 to x), so column 0 is x and each next column
    is the companion times the one before; the rows are read off the
    columns.  Memoized per element on ext, so the memo holds at most the
    q^g elements of L; the rows are shared between calls, and no caller
    mutates them.
    """
    key = tuple(x)
    rows = ext._phi.get(key)
    if rows is None:
        g, q, comp = ext.g, ext.base.q, ext.companion
        cols = [[a % q for a in x]]
        for _ in range(g - 1):
            v = cols[-1]
            top = v[-1]
            cols.append([((v[i - 1] if i else 0) + comp[i][g - 1] * top) % q
                         for i in range(g)])
        rows = ext._phi[key] = [list(row) for row in zip(*cols)]
    return rows


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
    """Insert a copy of v (list over the prime field F) into the echelon
    `tmp` over the read-only echelon `base`; pivot = last nonzero row.
    True if v was independent."""
    q = F.q
    inv = _inverses(q)
    v = list(v)
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


_BIT_CHARS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _pack_f2(v):
    """The bitmask of an F_2 list: bit i is set where v[i] is 1.  The list
    is read as one binary numeral, most significant entry first."""
    return int(bytes(v[::-1]).translate(_BIT_CHARS) or b"0", 2)


def _unpack_f2(m, lo, hi):
    """Entries lo..hi-1 of an F_2 bitmask below 2^hi, as a list: the
    binary numeral of m with a leading 1 at bit hi, read backwards."""
    return list(format(m | 1 << hi, "b")[hi - lo:0:-1].encode()
                .translate(_BIT_VALUES))


class _F2Vectors:
    """Vectors over F_2 as bitmask ints: entry i is bit i, and a vector of
    length n is below 2^n.  See _vector_form."""

    pack = staticmethod(_pack_f2)
    insert = staticmethod(_insert_f2)

    @staticmethod
    def unpack(v, n):
        return _unpack_f2(v, 0, n)

    @staticmethod
    def zero(n):
        return 0

    @staticmethod
    def place(v, off, n):
        return v << off

    @staticmethod
    def slice(v, lo, hi):
        return v >> lo & (1 << hi - lo) - 1

    @staticmethod
    def combine(terms, n):
        out = 0
        for c, off, v in terms:
            if c:
                out ^= v << off
        return out

    @staticmethod
    def times(cols, v, n):
        out = 0
        while v:
            low = v & -v
            out ^= cols[low.bit_length() - 1]
            v ^= low
        return out

    @staticmethod
    def apply(rows, v, n):
        out = 0
        for a, row in rows:
            if (row & v).bit_count() & 1:
                out |= 1 << a
        return out

    @staticmethod
    def reduce(pivots, v):
        for piv in sorted(pivots, reverse=True):
            if v >> piv & 1:
                v ^= pivots[piv]
        return v

    @staticmethod
    def eliminate(base, fresh, cols, n, tracked):
        kernel = []
        for j, v in enumerate(cols):
            v <<= n
            if tracked:
                v |= 1 << j
            while True:
                piv = v.bit_length() - 1
                if piv < n:
                    kernel.append(v)
                    break
                pc = base.get(piv) or fresh.get(piv)
                if pc is None:
                    fresh[piv] = v
                    break
                v ^= pc
        return kernel

    @staticmethod
    def reduced(pivots):
        out = {}
        for piv in sorted(pivots):
            v = pivots[piv]
            for p, w in out.items():
                if v >> p & 1:
                    v ^= w
            out[piv] = v
        return list(out.values())


class _ListVectors:
    """Vectors over F_q as lists of ints in [0, q), with the ``% q``
    inlined.  See _vector_form."""

    def __init__(self, q):
        self.q = q
        self.insert = functools.partial(_insert_generic, PrimeField(q))

    @staticmethod
    def pack(v):
        return v

    @staticmethod
    def unpack(v, n):
        return v

    @staticmethod
    def zero(n):
        return [0] * n

    @staticmethod
    def place(v, off, n):
        out = [0] * n
        out[off:off + len(v)] = v
        return out

    @staticmethod
    def slice(v, lo, hi):
        return v[lo:hi]

    def combine(self, terms, n):
        q = self.q
        out = [0] * n
        for c, off, v in terms:
            for a, y in enumerate(v, off):
                if y:
                    out[a] = (out[a] + c * y) % q
        return out

    def times(self, cols, v, n):
        q = self.q
        out = [0] * n
        for c, col in zip(v, cols):
            if c:
                out = [x + c * y for x, y in zip(out, col)]
        return [x % q for x in out]

    def apply(self, rows, v, n):
        q = self.q
        out = [0] * n
        for a, row in rows:
            out[a] = sum(map(operator.mul, row, v)) % q
        return out

    def reduce(self, pivots, v):
        q = self.q
        inv = _inverses(q)
        v = list(v)
        for piv in sorted(pivots, reverse=True):
            if v[piv]:
                pc = pivots[piv]
                c = v[piv] * inv[pc[piv]] % q
                for r in range(piv + 1):
                    if pc[r]:
                        v[r] = (v[r] - c * pc[r]) % q
        return v

    def eliminate(self, base, fresh, cols, n, tracked):
        q = self.q
        inv = _inverses(q)
        kernel = []
        for j, col in enumerate(cols):
            v = [0] * n + col
            if tracked:
                v[j] = 1
            piv = len(v) - 1
            while True:
                while piv >= n and not v[piv]:
                    piv -= 1
                if piv < n:
                    kernel.append(v[:n])
                    break
                pc = base.get(piv) or fresh.get(piv)
                if pc is None:
                    fresh[piv] = v
                    break
                c = v[piv] * inv[pc[piv]] % q
                for r in range(piv):
                    b = pc[r]
                    if b:
                        v[r] = (v[r] - c * b) % q
                v[piv] = 0
        return kernel

    def reduced(self, pivots):
        q = self.q
        inv = _inverses(q)
        out = {}
        for piv in sorted(pivots):
            v = pivots[piv]
            c = inv[v[piv]]
            v = [x * c % q for x in v]
            for p, w in out.items():
                if v[p]:
                    c = v[p]
                    v = [(x - c * y) % q for x, y in zip(v, w)]
            out[piv] = v
        return list(out.values())


@functools.lru_cache(maxsize=None)
def _vector_form(q):
    """The internal vector form over the prime field F_q: bitmask ints over
    F_2 (_F2Vectors), else lists (_ListVectors).  Other modules hold
    internal vectors only through it, and never read one:
      pack(v), unpack(v, n)   list v <-> internal v of length n
      insert(base, tmp, v)    reduce a copy of v against the read-only
                              echelon `base` and then `tmp`, store it in
                              `tmp` under its pivot; True if independent
      zero(n)                 the zero vector of length n
      place(v, off, n)        v at entries off.. of a vector of length n
      slice(v, lo, hi)        entries lo..hi-1 of v
      combine(terms, n)       sum of c * place(v, off, n) over the
                              (c, off, v) of terms, c an element of F_q
      times(cols, v, n)       the product of the matrix whose columns
                              are the vectors cols, of length n, with
                              v, of length len(cols): the sum of v's
                              entry k times cols[k]
      apply(rows, v, n)       the vector of length n with entry a the
                              product row . v, for each (a, row) of rows,
                              and 0 elsewhere
      reduce(pivots, v)       v less the combination of the columns of
                              the echelon `pivots` that clears every
                              pivot row of v, from the top down
      reduced(pivots)         the reduced column echelon basis of the
                              span of `pivots`, which depends on the span
                              alone: per pivot row, ascending, a column
                              with 1 there and 0 at the other pivot rows
      eliminate(base, fresh, cols, n, tracked)
                              ColumnReduction's loop: each column of cols
                              after n leading tail entries (0, but for a
                              1 at entry j for the j-th column when
                              tracked) reduced against `base` and then
                              `fresh`; one whose pivot stays >= n is
                              stored in `fresh`, any other gives its
                              tail, entries 0..n-1, as a kernel combo.
                              Returns the kernel combos
    No primitive mutates its arguments, and no caller mutates an internal
    vector (a list packs to itself), so internal vectors may be shared."""
    if q == 2:
        return _F2Vectors
    return _ListVectors(q)


class _Echelon:
    """Incremental column echelon over a prime field, pivot = last nonzero
    row: insert tells whether the list v was independent, add does the
    same for an internal vector, insert_reduced also returns the reduced
    remainder (a list), else None.  `pivots` maps each pivot row to its
    stored column in the internal form of _vector_form(F.q), whose
    primitives are bound once per echelon."""

    def __init__(self, F, nrows):
        self.F = F
        self.nrows = nrows
        self.form = form = _vector_form(F.q)
        self._pack, self._unpack = form.pack, form.unpack
        self._insert, self._reduce = form.insert, form.reduce
        self.pivots = {}  # row -> stored column with that last nonzero row

    def insert(self, v):
        pivots = self.pivots
        return self._insert(pivots, pivots, self._pack(v))

    def add(self, v):
        pivots = self.pivots
        return self._insert(pivots, pivots, v)

    def insert_reduced(self, v):
        if not self.insert(v):
            return None
        return self._unpack(next(reversed(self.pivots.values())),  # newest
                            self.nrows)

    def reduce(self, v):
        """Fully reduced copy of the list v (see _vector_form's reduce)."""
        return self._unpack(self._reduce(self.pivots, self._pack(v)),
                            self.nrows)

    def copy(self):
        """An echelon with the same pivots, to insert into independently
        (stored columns are never mutated, so they are shared)."""
        out = _Echelon(self.F, self.nrows)
        out.pivots = dict(self.pivots)
        return out

    def columns(self):
        """The stored columns, internal, in insertion order."""
        return list(self.pivots.values())

    def basis_columns(self):
        """Copies of the stored columns as lists, in insertion order."""
        return [list(self._unpack(v, self.nrows))
                for v in self.pivots.values()]

    @property
    def rank(self):
        return len(self.pivots)


class ColumnReduction:
    """Column reduction of internal vectors, kept open for more columns.

    ColumnReduction(F, cols, nrows) column-reduces cols, vectors of length
    nrows in the internal form of _vector_form(F.q), pivot = last nonzero
    row, with an identity tail tracking the column operations; it keeps
    `rank` and `kernel` (internal combos over cols, one per dependent
    column), and `basis` is read off the saved pivots on demand.
    extend(more) continues the elimination with further columns over the
    saved pivots, which it leaves unchanged, so one reduction serves any
    number of extensions.  Their tails start at zero: a combo it returns is
    the part on `cols` of the kernel combo that the reduction of
    cols + more gives for the same column, and the rank it returns is that
    reduction's rank.  The reduction and every extension are one call of
    the form's eliminate, one loop over their columns that lifts each
    column and eliminates it inline, so a column costs its elimination
    and no call, copy or pivot lookup besides.
    """

    def __init__(self, F, cols, nrows):
        self.F, self.nrows, self.n = F, nrows, len(cols)
        self.form = _vector_form(F.q)
        self._pivots = {}   # pivot row >= n -> tail, then reduced column
        self.kernel = self.form.eliminate(self._pivots, self._pivots, cols,
                                          self.n, True)
        self.rank = len(self._pivots)

    @property
    def basis(self):
        """The reduced columns with a fresh pivot, internal, in input
        order."""
        n, end, cut = self.n, self.n + self.nrows, self.form.slice
        return [cut(v, n, end) for v in self._pivots.values()]

    def extend(self, more):
        """(rank, combos over the first columns) of the reduction continued
        with the columns `more`; the saved state is left unchanged."""
        fresh = {}
        kernel = self.form.eliminate(self._pivots, fresh, more, self.n, False)
        return self.rank + len(fresh), kernel


def kernel_combos(F, cols, nrows):
    """ColumnReduction's kernel combos of the lists cols, as lists."""
    form = _vector_form(F.q)
    n, unpack = len(cols), form.unpack
    return [unpack(c, n) for c in
            ColumnReduction(F, list(map(form.pack, cols)), nrows).kernel]


def reduce(M):
    """Column-reduce a dense matrix (left unchanged).

    Returns (rank, column_basis, kernel_basis): column_basis holds the
    reduced columns with a fresh pivot, in input order, and spans the
    column space; kernel_basis holds one kernel combo per dependent column
    and spans the right null space; rank + kernel columns = cols.  See
    ColumnReduction.
    """
    F, nrows = M.field, M.rows
    form = _vector_form(F.q)
    red = ColumnReduction(F, [form.pack(c) for c in M.columns()], nrows)
    return (red.rank, DenseMatrix.from_columns(
                [form.unpack(v, nrows) for v in red.basis], nrows, F),
            DenseMatrix.from_columns(
                [form.unpack(c, red.n) for c in red.kernel], M.cols, F))


def kron(X, A):
    """Kronecker product: block (i,j) of the result is X[i][j] * A."""
    assert X.field == A.field
    q = X.field.q
    out = DenseMatrix(X.rows * A.rows, X.cols * A.cols, X.field)
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
