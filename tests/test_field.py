import itertools
import random

import pytest
from hypothesis import given, strategies as st

from skyhn import field as fieldmod
from skyhn.field import (DenseMatrix, PrimeField, ext_field_build, embed_phi,
                         kron)

import reference

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_checks_its_bound_before_primality(monkeypatch):
    """2^61 - 1 is prime, and trial division up to its square root does
    not finish in any reasonable time: the 2^16 bound rejects it first,
    without a primality test; 65,521 = the largest prime below 2^16 is
    accepted."""
    tested = []
    real = fieldmod._is_prime
    monkeypatch.setattr(fieldmod, "_is_prime",
                        lambda n: tested.append(n) or real(n))
    for q in (2 ** 61 - 1, (1 << 16) + 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(q)
    assert tested == []
    assert PrimeField(65521).q == 65521 and tested == [65521]


@given(st.integers(1, 4))
def test_f5_inverse(a):
    assert a * F5.inv(a) % 5 == F5.one


def test_elements_enumeration():
    assert sorted(F3.elements()) == [0, 1, 2]


def _ext_elements(E):
    """Every element of the extension E as a coefficient tuple."""
    return list(itertools.product(range(E.base.q), repeat=E.g))


def _ext_mul(E, a, b):
    """Product of extension elements: the polynomial product reduced
    modulo E.modulus (monic), written out independently of skyhn."""
    q, g, m = E.base.q, E.g, E.modulus
    prod = [0] * (2 * g - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, g - 1, -1):
        c = prod[k]
        for i in range(g + 1):
            prod[k - g + i] -= c * m[i]
    return tuple(x % q for x in prod[:g])


def _is_field(E):
    one = (1,) + (0,) * (E.g - 1)
    els = _ext_elements(E)
    return all(any(_ext_mul(E, a, b) == one for b in els)
               for a in els if any(a))


def _irreducible_by_trial_division(F, coeffs):
    """The oracle: a monic polynomial of degree g >= 2 is irreducible
    exactly when no monic polynomial of degree 1..g//2 divides it."""
    g = len(coeffs) - 1
    for d in range(1, g // 2 + 1):
        for div in itertools.product(range(F.q), repeat=d):
            if not fieldmod._poly_mod(F, coeffs, list(div) + [1]):
                return False
    return True


def test_irreducible_matches_trial_division():
    """Rabin's test against trial division on every monic polynomial of
    degree <= 8 over GF(2), <= 5 over GF(3) and <= 4 over GF(5); and the
    modulus ext_field_build picks is the least irreducible one in its
    enumeration order (the constant coefficient first, varying fastest)."""
    n_irreducible = 0
    for F, gmax in ((F2, 8), (F3, 5), (F5, 4)):
        for g in range(1, gmax + 1):
            first = None
            for code in range(F.q ** g):
                coeffs = [code // F.q ** i % F.q for i in range(g)] + [1]
                want = _irreducible_by_trial_division(F, coeffs)
                assert fieldmod._irreducible(F, coeffs) == want, coeffs
                if want and first is None:
                    first = coeffs
                n_irreducible += want
            assert ext_field_build(F.q, g).modulus == first
    assert n_irreducible > 200


def test_ext_field_build_f4():
    E = ext_field_build(2, 2)
    # modulus x^2 + x + 1
    assert E.modulus == [1, 1, 1]
    assert len(_ext_elements(E)) == 4
    assert _is_field(E)


def test_ext_field_build_f9():
    E = ext_field_build(3, 2)
    # modulus x^2 + 1
    assert E.modulus == [1, 0, 1]
    assert len(_ext_elements(E)) == 9
    assert _is_field(E)


def test_embed_phi_is_multiplicative():
    # degree 1: phi(x) is the 1 x 1 block of x itself, so a draw over the
    # base field goes through the extension path unchanged
    for q in (5, 7):
        E = ext_field_build(q, 1)
        for x in range(q):
            assert embed_phi([x], E) == [[x]]
    for q, g in ((2, 3), (3, 2), (5, 2), (2, 1)):
        E = ext_field_build(q, g)
        els = _ext_elements(E)
        for a in els[:6]:
            for b in els[-6:]:
                pa, pb = embed_phi(a, E), embed_phi(b, E)
                ma, mb = (DenseMatrix(g, g, E.base, p) for p in (pa, pb))
                assert ma.matmul(mb).data == embed_phi(_ext_mul(E, a, b), E)
                # phi(x) is sum_j x_j companion^j
                want = [[0] * g for _ in range(g)]
                pw = DenseMatrix(g, g, E.base, [[int(i == j) for j in range(g)]
                                                for i in range(g)])
                comp = DenseMatrix(g, g, E.base, E.companion)
                for x in a:
                    want = [[(w + x * y) % q for w, y in zip(wr, pr)]
                            for wr, pr in zip(want, pw.data)]
                    pw = comp.matmul(pw)
                assert pa == want


def test_reduce_rank_and_kernel():
    # columns: c0, c1 independent, c2 = c0 + c1 over F_2
    cols = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    M = DenseMatrix.from_columns(cols, 3, F2)
    rank, basis, ker = fieldmod.reduce(M)
    assert rank == 2
    assert ker.cols == 1
    combo = ker.column(0)
    # kernel combo really kills the columns
    for r in range(3):
        acc = F2.zero
        for j in range(3):
            acc = (acc + combo[j] * cols[j][r]) % 2
        assert acc == F2.zero


def test_reduce_zero_matrix():
    M = DenseMatrix(3, 2, F2)
    rank, basis, ker = fieldmod.reduce(M)
    assert rank == 0
    assert ker.cols == 2


def test_kron_shapes_and_values():
    X = DenseMatrix.from_columns([[1, 0], [1, 1]], 2, F2)
    A = DenseMatrix.from_columns([[1], [1]], 1, F2)
    K = kron(X, A)
    assert (K.rows, K.cols) == (2, 4)


def test_dense_algebra_matches_definitions():
    """matmul and kron against their entrywise definitions."""
    rng = random.Random(53)
    for F in [F2, F3, PrimeField(7)]:
        q = F.q
        for _ in range(30):
            n, k, m = rng.randrange(0, 4), rng.randrange(0, 4), \
                rng.randrange(0, 4)
            X = DenseMatrix(n, k, F, [[rng.randrange(q) for _ in range(k)]
                                      for _ in range(n)])
            Y = DenseMatrix(k, m, F, [[rng.randrange(q) for _ in range(m)]
                                      for _ in range(k)])
            assert X.matmul(Y).data == [
                [sum(X.data[i][l] * Y.data[l][j] for l in range(k)) % q
                 for j in range(m)] for i in range(n)]
            K = kron(X, Y)
            assert (K.rows, K.cols) == (n * k, k * m)
            assert all(K.data[i * k + a][j * m + b]
                       == X.data[i][j] * Y.data[a][b] % q
                       for i in range(n) for j in range(k)
                       for a in range(k) for b in range(m))


# ---------------------------------------------------------------------------
# reduce and ColumnReduction against the elimination they replaced

def test_column_reduction_extend_matches_whole_reduction():
    """ColumnReduction(cols).extend(more), any number of times, on the
    internal vectors of _vector_form, gives the rank of the reference
    reduction of cols + more on their lists and the parts on cols of its
    kernel combos for the columns of more."""
    rng = random.Random(59)
    for F in [F2, F3, F5]:
        form = fieldmod._vector_form(F.q)

        def opened(cols, m):
            red = fieldmod.ColumnReduction(F, [form.pack(c) for c in cols],
                                           m)
            assert (red.rank, [form.unpack(v, m) for v in red.basis],
                    [form.unpack(c, len(cols)) for c in red.kernel]) == \
                reference.reduce_columns(F.q, cols)
            return red

        def extended(red, more, m):
            rank, combos = red.extend([form.pack(c) for c in more])
            return rank, [form.unpack(c, red.n) for c in combos]
        for _ in range(150):
            n, k, m = rng.randrange(0, 6), rng.randrange(0, 4), \
                rng.randrange(0, 6)
            cols = [[rng.randrange(F.q) for _ in range(m)] for _ in range(n)]
            red = opened(cols, m)
            for _ in range(2):
                more = [[rng.randrange(F.q) for _ in range(m)]
                        for _ in range(k)]
                rank, _, combos = reference.reduce_columns(F.q, cols + more)
                assert extended(red, more, m) == (
                    rank, [c[:n] for c in combos[len(red.kernel):]])
        # sizes where a column's tail and its entries share bit positions;
        # batches with zero, repeated and mutually dependent columns, whose
        # combos over cols are zero
        for _ in range(10):
            n, m = rng.randrange(20, 41), rng.randrange(20, 41)
            cols = _with_dependent(rng, F, _random_columns(rng, F, m, n), 4)
            n = len(cols)
            red = opened(cols, m)
            for _ in range(2):
                more = _random_columns(rng, F, m, rng.randrange(1, 8))
                more = _with_dependent(rng, F, more + [[0] * m], 3)
                rank, _, combos = reference.reduce_columns(F.q, cols + more)
                got = extended(red, more, m)
                assert got == (rank,
                               [c[:n] for c in combos[len(red.kernel):]])
                assert [0] * n in got[1]


def _random_columns(rng, F, nrows, ncols):
    els = list(F.elements())
    cols = []
    for _ in range(ncols):
        kind = rng.random()
        if kind < 0.15 or not els:
            cols.append([F.zero] * nrows)          # zero column
        elif kind < 0.3 and cols:
            cols.append(list(rng.choice(cols)))    # repeated column
        else:
            cols.append([rng.choice(els) if rng.random() < 0.6 else F.zero
                         for _ in range(nrows)])
    return cols


def _with_dependent(rng, F, cols, k):
    """cols followed by k random combinations of them."""
    out = list(cols)
    for _ in range(k):
        cs = [rng.randrange(F.q) for _ in out]
        out.append([sum(c * col[i] for c, col in zip(cs, out)) % F.q
                    for i in range(len(out[0]))])
    return out


def test_reduce_columns_matches_reference():
    rng = random.Random(97)
    small = [(F, (0, 5), (0, 10), 0) for F in [F2, F3, PrimeField(7)]
             for _ in range(150)]
    wide = [(F, (20, 41), (20, 41), 4) for F in [F2, F3, F5]
            for _ in range(8)]      # tails and columns share bit positions
    for F, rr, cr, extra in small + wide:
        nrows, ncols = rng.randrange(*rr), rng.randrange(*cr)
        cols = _with_dependent(
            rng, F, _random_columns(rng, F, nrows, ncols), extra)
        M = DenseMatrix.from_columns(cols, nrows, F)
        snapshot = [list(row) for row in M.data]
        got = fieldmod.reduce(M)
        r, basis, kernel = reference.reduce_columns(F.q, cols)
        assert got == (r, DenseMatrix.from_columns(basis, nrows, F),
                       DenseMatrix.from_columns(kernel, len(cols), F))
        assert M.data == snapshot          # the input is left unchanged


def test_times_matches_list_product():
    """times(cols, v, n) of _vector_form is the matrix-vector product of
    the columns cols with v, on GF(2), GF(3) and GF(5): against a list
    reference, with zero vectors, zero and repeated columns, vectors of
    length 1 and 0 columns, and its arguments left unchanged."""
    rng = random.Random(61)
    for F in [F2, F3, F5]:
        form = fieldmod._vector_form(F.q)
        shapes = [(1, 1), (1, 3), (3, 1), (2, 0), (0, 2)] + [
            (rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(80)]
        for n, k in shapes:
            cols = _random_columns(rng, F, n, k)
            for v in ([0] * k, [1] * k,
                      [rng.randrange(F.q) for _ in range(k)]):
                want = [sum(c * col[a] for c, col in zip(v, cols)) % F.q
                        for a in range(n)]
                packed = [form.pack(c) for c in cols]
                pv = form.pack(v)
                got = form.times(packed, pv, n)
                assert form.unpack(got, n) == want
                assert [form.unpack(c, n) for c in packed] == cols
                assert form.unpack(pv, k) == v


_PRIMITIVES = {"pack", "unpack", "insert", "zero", "place", "slice",
               "combine", "times", "apply", "reduce", "reduced", "eliminate"}


def test_vector_forms_expose_the_same_primitives():
    """_F2Vectors and every _ListVectors(q) have the primitives that
    _vector_form documents, and no other public name but the list form's
    q."""
    assert {n for n in dir(fieldmod._F2Vectors)
            if not n.startswith("_")} == _PRIMITIVES
    for q in (3, 5, 7):
        form = fieldmod._ListVectors(q)
        assert {n for n in dir(form) if not n.startswith("_")} == \
            _PRIMITIVES | {"q"}


def _packed(form, ech, n):
    return {piv: form.unpack(v, n) for piv, v in ech.items()}


def test_vector_form_primitives_match_list_references():
    """Every primitive of _vector_form but times (see above) on GF(2),
    GF(3) and GF(5), against list references on random vectors with zero
    and repeated ones: zero, place, slice, combine, apply, insert, reduce,
    reduced and eliminate, with their arguments left unchanged."""
    rng = random.Random(62)
    for F in [F2, F3, F5]:
        q, form = F.q, fieldmod._vector_form(F.q)
        pack, unpack = form.pack, form.unpack
        for _ in range(60):
            n, k = rng.randrange(1, 9), rng.randrange(0, 9)
            cols = _random_columns(rng, F, n, k)
            packed = [pack(c) for c in cols]
            assert unpack(form.zero(n), n) == [0] * n
            for v, pv in zip(cols, packed):
                lo = rng.randrange(n + 1)
                hi = rng.randrange(lo, n + 1)
                assert unpack(form.slice(pv, lo, hi), hi - lo) == v[lo:hi]
                off = rng.randrange(4)
                assert unpack(form.place(pv, off, n + off), n + off) == \
                    [0] * off + v
            # combine: sum of c * v placed at off, over a length m
            m = n + 3
            terms = [(rng.randrange(q), rng.randrange(4), i)
                     for i in range(k)]
            want = [0] * m
            for c, off, i in terms:
                for a, y in enumerate(cols[i], off):
                    want[a] = (want[a] + c * y) % q
            got = form.combine([(c, off, packed[i]) for c, off, i in terms],
                               m)
            assert unpack(got, m) == want
            # apply: entry a is row . v for each (a, row), 0 elsewhere
            v = [rng.randrange(q) for _ in range(n)]
            at = sorted(rng.sample(range(m), min(k, m)))
            rows = list(zip(at, packed))
            want = [0] * m
            for a, row in zip(at, cols):
                want[a] = sum(x * y for x, y in zip(row, v)) % q
            assert unpack(form.apply(rows, pack(v), m), m) == want
            # insert: into tmp over base, True exactly when the rank grows
            base, tmp = {}, {}
            for c in cols[:k // 2]:
                form.insert(base, base, pack(c))
            frozen = _packed(form, base, n)
            seen = cols[:k // 2]
            for c, pc in zip(cols[k // 2:], packed[k // 2:]):
                red, piv = reference.eliminate(
                    q, [_packed(form, base, n), _packed(form, tmp, n)], c, 0)
                assert form.insert(base, tmp, pc) == (piv is not None)
                if piv is not None:
                    assert unpack(tmp[piv], n) == red
                assert reference.rank(q, seen + [c]) == len(base) + len(tmp)
                seen.append(c)
            assert _packed(form, base, n) == frozen
            # reduce: clear every pivot row of v, from the top down
            ech = {**base, **tmp}
            lists = _packed(form, ech, n)
            want = reference.reduce(q, lists, v)
            assert unpack(form.reduce(ech, pack(v)), n) == want
            assert all(want[piv] == 0 for piv in lists)
            assert reference.rank(q, list(lists.values())
                             + [[(x - y) % q for x, y in zip(v, want)]]) \
                == len(lists)
            # reduced: per pivot, ascending, 1 there and 0 at the others
            got = [unpack(c, n) for c in form.reduced(ech)]
            assert len(got) == len(lists)
            for c, piv in zip(got, sorted(lists)):
                assert [c[p] for p in sorted(lists)] == \
                    [int(p == piv) for p in sorted(lists)]
            assert reference.rank(q, got + list(lists.values())) == len(lists)
            assert _packed(form, ech, n) == lists
            # eliminate: each column after k tail entries, reduced against
            # base and then fresh on its entries >= k
            for tracked in (False, True):
                fresh, want_kernel, want_fresh = {}, [], {}
                for j, c in enumerate(cols):
                    w = [int(tracked and a == j) for a in range(k)] + c
                    w, piv = reference.eliminate(
                        q, [{p + k: [0] * k + b for p, b in frozen.items()},
                            want_fresh], w, k)
                    if piv is None:
                        want_kernel.append(w[:k])
                    else:
                        want_fresh[piv] = w
                got = form.eliminate({p + k: form.place(b, k, n + k)
                                      for p, b in base.items()},
                                     fresh, packed, k, tracked)
                assert [unpack(c, k) for c in got] == want_kernel
                assert _packed(form, fresh, n + k) == want_fresh
            assert [unpack(c, n) for c in packed] == cols
