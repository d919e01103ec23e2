import itertools
import random
from fractions import Fraction as Fr

import pytest

from skyhn import cheng, grmat, hn_core
from skyhn.cheng import (BlowUp, MatrixSpace, ShrunkFailure, build_A_alpha,
                         hn_cheng, shrunk_subspace_random)
from skyhn.field import DenseMatrix, PrimeField
from skyhn.grmat import Grid

from conftest import F2, F3, gm, random_bounded_module


def random_space(rng, F, N, Np, ell):
    ell = min(ell, N * Np)
    basis = []
    span = grmat._Echelon(F, N * Np)
    while len(basis) < ell:
        B = DenseMatrix(N, Np, F, [[rng.randrange(F.q) for _ in range(Np)]
                                   for _ in range(N)])
        if span.insert([x for row in B.data for x in row]):
            basis.append(B)
    return MatrixSpace(F, N, Np, basis)


def all_subspace_bases(F, n):
    for k in range(0, n + 1):
        for rows in hn_core.subspaces_of_dim(F, n, k):
            yield rows


def min_shrunk_exhaustive(space):
    """Smallest subspace maximizing dim U - dim(span of A.U)."""
    F = space.field
    best = None
    for rows in all_subspace_bases(F, space.ncols):
        span = grmat._Echelon(F, space.nrows)
        for u in rows:
            for A in space.basis:
                span.insert(A.matvec(list(u)))
        defect = len(rows) - span.rank
        key = (-defect, len(rows))
        if best is None or key < best[0]:
            best = (key, rows)
    return best[1], -best[0][0]


def same_span(F, avecs, bvecs, n):
    ech = grmat._Echelon(F, n)
    for v in avecs:
        ech.insert(list(v))
    if any(not ech.contains(list(v)) for v in bvecs):
        return False
    ech2 = grmat._Echelon(F, n)
    for v in bvecs:
        ech2.insert(list(v))
    return all(ech2.contains(list(v)) for v in avecs)


def image_naive(blow, ucols):
    """Reference blow-up image: apply every E_ij tensor A_k to every vector
    and span the results in k^{p*nrows}."""
    sp = blow.space
    F = sp.field
    Np, N = sp.ncols, sp.nrows
    span = grmat._Echelon(F, blow.p * N)
    for u in ucols:
        for j in range(blow.q):
            blk = u[j * Np:(j + 1) * Np]
            for A in sp.basis:
                w0 = A.matvec(blk)
                for i in range(blow.p):
                    w = [F.zero] * (blow.p * N)
                    w[i * N:(i + 1) * N] = w0
                    span.insert(w)
    return span.basis_columns()


def test_matrix_space_rejects_dependent_basis():
    B = DenseMatrix(2, 2, F2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        MatrixSpace(F2, 2, 2, [B, B])


def test_blowup_core_matches_naive(rng):
    for _ in range(15):
        sp = random_space(rng, F2, rng.randrange(1, 4), rng.randrange(1, 4),
                          rng.randrange(1, 4))
        p = rng.randrange(1, 3)
        q = rng.randrange(1, 3)
        blow = BlowUp(sp, p, q)
        ucols = [[rng.randrange(2) for _ in range(q * sp.ncols)]
                 for _ in range(rng.randrange(1, 4))]
        core = blow.image_core(ucols)
        naive = image_naive(blow, ucols)
        # the naive image must be exactly k^p tensor the core
        assert len(naive) == p * len(core)


def test_shrunk_identity_for_zero_space():
    sp = MatrixSpace(F2, 2, 3, [])
    U = shrunk_subspace_random(sp, 1, seed=0)
    assert U.cols == 3


def test_shrunk_matches_exhaustive_small_spaces(rng):
    for trial in range(50):
        sp = random_space(rng, F2, rng.randrange(1, 5), rng.randrange(1, 5),
                          rng.randrange(1, 5))
        want_rows, want_defect = min_shrunk_exhaustive(sp)
        U = cheng._shrunk_with_retries(sp, 1, 1, None, seed=trial,
                                       g_extra=0, max_retries=8, p_cap=64)
        got = [U.column(j) for j in range(U.cols)]
        assert len(got) == len(want_rows), trial
        assert same_span(F2, got, [list(r) for r in want_rows], sp.ncols)


def test_build_A_alpha_cross(cross):
    G = grmat.induced_grid(cross)
    space, p0, q0, betas = build_A_alpha(cross, G, (Fr(0), Fr(1)))
    assert p0 == 2
    assert len(betas) == len([b for b in G.points()
                              if grmat.deg_leq((Fr(0), Fr(1)), b)]) - 1
    assert space.ncols == 2 and space.nrows == q0


def test_farey_probe_sequence():
    probes = cheng._farey_probes(3, 5, budget=6, cap=36)
    assert probes[0] == (1, 1)
    for p, q in probes:
        assert p * q <= 36 and (p, q) != (3, 5)


def test_hn_cheng_matches_brute_cross(cross):
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    for seed in range(10):
        fl = hn_cheng(cross, G, (Fr(0), Fr(1)), seed=seed)
        assert fl == hn_core.hn_filtration_at(cross, (Fr(0), Fr(1)))


def test_hn_cheng_asks_for_a_lazy_grid_on_nonzero_fibers(cross):
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    asked = []

    def grid():
        asked.append(1)
        return G
    below = (Fr(-1), Fr(-1))
    assert hn_cheng(cross, grid, below, seed=0).factors == []
    assert asked == []
    alpha = (Fr(0), Fr(1))
    assert hn_cheng(cross, grid, alpha, seed=0) == \
        hn_cheng(cross, G, alpha, seed=0)
    assert asked == [1]


def test_hn_cheng_semistable_stable(stable):
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    fl = hn_cheng(stable, G, (Fr(0), Fr(0)), seed=1)
    assert len(fl.factors) == 1
    assert fl.factors[0].slope == Fr(2, 9)
    assert len(fl.factors[0].staircases) == 2


def test_hn_cheng_matches_brute_random(rng):
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    for trial in range(30):
        F = F2 if trial % 2 else F3
        M = random_bounded_module(rng, F, rng.randrange(1, 4))
        pts = [p for p in grmat.induced_grid(M).points()
               if p in G]
        beta = pts[rng.randrange(len(pts))]
        a = hn_cheng(M, G, beta, seed=trial)
        b = hn_core.hn_filtration_at(M, beta)
        assert a == b, (trial, beta)


def test_shrunk_failure_carries_alpha():
    exc = ShrunkFailure((Fr(0), Fr(0)), 8)
    assert exc.alpha == (Fr(0), Fr(0))
    assert exc.attempts == 8


def _echelon_transform(F, cols):
    """The invertible C with [cols] . C in column echelon form, computed as
    the randomized engine's partial reduction once did: generic field
    operations and one identity tail per column."""
    n = len(cols)
    work = [list(c) for c in cols]
    trans = [[F.one if i == j else F.zero for i in range(n)]
             for j in range(n)]
    pivots = {}
    for j in range(n):
        col, tr = work[j], trans[j]
        while True:
            piv = None
            for i in range(len(col) - 1, -1, -1):
                if col[i] != F.zero:
                    piv = i
                    break
            if piv is None or piv not in pivots:
                break
            pc, pt = work[pivots[piv]], trans[pivots[piv]]
            c = F.mul(col[piv], F.inv(pc[piv]))
            for r in range(piv + 1):
                if pc[r] != F.zero:
                    col[r] = F.sub(col[r], F.mul(c, pc[r]))
            for r in range(n):
                if pt[r] != F.zero:
                    tr[r] = F.sub(tr[r], F.mul(c, pt[r]))
        if piv is not None:
            pivots[piv] = j
    return trans    # the columns of C


def test_partial_reduce_matches_echelon_transform():
    rng = random.Random(71)
    dependent = 0
    for F in [F2, F3, PrimeField(5), PrimeField(7)]:
        for _ in range(100):
            ell, P, Q = rng.randrange(1, 4), rng.randrange(1, 4), \
                rng.randrange(1, 7)
            xmats = [[[rng.randrange(F.q) if rng.random() < 0.6 else 0
                       for _ in range(Q)] for _ in range(P)]
                     for _ in range(ell)]
            if Q > 1 and rng.random() < 0.3:     # a repeated block-column
                for X in xmats:
                    for row in X:
                        row[-1] = row[0]
            C = _echelon_transform(
                F, [[row[b] for X in xmats for row in X] for b in range(Q)])
            want = [[[sum(row[k] * C[j][k] for k in range(Q)) % F.q
                      for j in range(Q)] for row in X] for X in xmats]
            got = cheng._partial_reduce(F, xmats)
            assert got == want
            dependent += any(not any(row[j] for X in got for row in X)
                             for j in range(Q))
    assert dependent > 50


def test_one_dimensional_fiber_draws_nothing(monkeypatch, stable):
    """A one-dimensional fiber has no proper nonzero subspace, so it is
    semistable without a randomized draw."""
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    staircase = gm(F2, [(0, 0)], [((3, 0), [(0, 1)]), ((0, 3), [(0, 1)])])
    calls = []
    real = cheng.shrunk_subspace_random

    def counting(*a, **k):
        calls.append(a)
        return real(*a, **k)
    monkeypatch.setattr(cheng, "shrunk_subspace_random", counting)
    alpha = (Fr(0), Fr(0))
    fl = hn_cheng(staircase, G, alpha, seed=0)
    assert fl == hn_core.hn_filtration_at(staircase, alpha)
    assert len(fl.factors) == 1 and calls == []
    # the patched name is the one the engine draws through: the
    # thickness-2 fixture's two-dimensional fiber does call it
    assert hn_cheng(stable, G, alpha, seed=1) == \
        hn_core.hn_filtration_at(stable, alpha)
    assert calls
