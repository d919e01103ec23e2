import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skyhn import field as fieldmod
from skyhn.field import (DenseMatrix, PrimeField, ext_field_build, embed_phi,
                         kron)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


@given(st.integers(0, 4), st.integers(0, 4))
def test_f5_ring_axioms(a, b):
    assert F5.add(a, b) == (a + b) % 5
    assert F5.mul(a, b) == (a * b) % 5
    assert F5.sub(F5.add(a, b), b) == a


@given(st.integers(1, 4))
def test_f5_inverse(a):
    assert F5.mul(a, F5.inv(a)) == F5.one


def test_elements_enumeration():
    assert sorted(F3.elements()) == [0, 1, 2]


def test_ext_field_build_f4():
    E = ext_field_build(2, 2)
    # modulus x^2 + x + 1
    assert E.modulus == [1, 1, 1]
    els = list(E.elements())
    assert len(els) == 4
    for a in els:
        if a != E.zero:
            assert E.mul(a, E.inv(a)) == E.one


def test_ext_field_build_f9():
    E = ext_field_build(3, 2)
    # modulus x^2 + 1
    assert E.modulus == [1, 0, 1]
    assert len(list(E.elements())) == 9


def test_embed_phi_is_multiplicative():
    E = ext_field_build(2, 3)
    els = list(E.elements())
    for a in els[:4]:
        for b in els[:4]:
            pa, pb = embed_phi(a, E), embed_phi(b, E)
            assert pa.matmul(pb).data == embed_phi(E.mul(a, b), E).data


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
            acc = F2.add(acc, F2.mul(combo[j], cols[j][r]))
        assert acc == F2.zero


def test_reduce_zero_matrix():
    M = DenseMatrix.zero(3, 2, F2)
    rank, basis, ker = fieldmod.reduce(M)
    assert rank == 0
    assert ker.cols == 2


def test_kron_shapes_and_values():
    X = DenseMatrix.from_columns([[1, 0], [1, 1]], 2, F2)
    A = DenseMatrix.from_columns([[1], [1]], 1, F2)
    K = kron(X, A)
    assert (K.rows, K.cols) == (2, 4)


def test_matvec_matches_matmul():
    cols = [[1, 2], [0, 1]]
    M = DenseMatrix.from_columns(cols, 2, F3)
    v = [2, 1]
    direct = M.matvec(v)
    via = M.matmul(DenseMatrix.from_columns([v], 2, F3)).column(0)
    assert direct == via


# ---------------------------------------------------------------------------
# reduce / reduce_columns against the elimination they replaced

def _reference_reduce(M):
    """field.reduce as it was before reduce_columns: generic F ops, one
    inverse per collision, an identity tail per column."""
    F = M.field
    z = F.zero
    ncols, nrows = M.cols, M.rows
    cols = [M.column(j) for j in range(ncols)]
    trans = [[F.one if i == j else z for i in range(ncols)]
             for j in range(ncols)]
    pivots = {}
    basis_cols, kernel_cols = [], []
    for j in range(ncols):
        col, tr = cols[j], trans[j]
        while True:
            piv = None
            for i in range(nrows - 1, -1, -1):
                if col[i] != z:
                    piv = i
                    break
            if piv is None or piv not in pivots:
                break
            pc, pt = cols[pivots[piv]], trans[pivots[piv]]
            c = F.mul(col[piv], F.inv(pc[piv]))
            for r in range(piv + 1):
                if pc[r] != z:
                    col[r] = F.sub(col[r], F.mul(c, pc[r]))
            for r in range(ncols):
                if pt[r] != z:
                    tr[r] = F.sub(tr[r], F.mul(c, pt[r]))
        if piv is None:
            kernel_cols.append(tr)
        else:
            pivots[piv] = j
            basis_cols.append(col)
    return (len(basis_cols), DenseMatrix.from_columns(basis_cols, nrows, F),
            DenseMatrix.from_columns(kernel_cols, ncols, F))


class _OpsOnly:
    """A field seen only through its operations, so that reduce_columns
    takes its generic path (no bitmask, no inlined % q)."""

    def __init__(self, F):
        self.F, self.zero, self.one = F, F.zero, F.one

    def mul(self, a, b):
        return self.F.mul(a, b)

    def sub(self, a, b):
        return self.F.sub(a, b)

    def inv(self, a):
        return self.F.inv(a)


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


def test_reduce_columns_matches_reference():
    rng = random.Random(97)
    fields = [F2, F3, PrimeField(7), ext_field_build(2, 2),
              ext_field_build(3, 2)]
    for F in fields:
        for _ in range(150):
            nrows, ncols = rng.randrange(0, 5), rng.randrange(0, 10)
            cols = _random_columns(rng, F, nrows, ncols)
            snapshot = [list(c) for c in cols]
            M = DenseMatrix.from_columns(cols, nrows, F)
            got = fieldmod.reduce(M)
            assert got == _reference_reduce(M)
            rank, basis, combos = fieldmod.reduce_columns(F, cols, nrows)
            assert cols == snapshot            # inputs are left unchanged
            assert (rank, basis, combos) == (got[0], got[1].columns(),
                                             got[2].columns())
            # the fast paths (F_2 bitmasks, inlined % q) give exactly the
            # vectors of the generic path on the same input
            assert fieldmod.reduce_columns(_OpsOnly(F), cols, nrows) == \
                (rank, basis, combos)
