import itertools
import random
from fractions import Fraction as Fr

import pytest

from skyhn import cheng, grmat, hn_core
from skyhn.cheng import (BlowUp, MatrixSpace, ShrunkFailure, build_A_alpha,
                         hn_cheng, shrunk_subspace_random)
from skyhn.field import DenseMatrix
from skyhn.grmat import Grid

from conftest import F2, F3, gm, random_bounded_module


def random_space(rng, F, N, Np, ell):
    ell = min(ell, N * Np)
    basis = []
    span = cheng._Span(F, N * Np)
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
        span = cheng._Span(F, space.nrows)
        for u in rows:
            for A in space.basis:
                span.insert(A.matvec(list(u)))
        defect = len(rows) - span.dim
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
    span = cheng._Span(F, blow.p * N)
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
