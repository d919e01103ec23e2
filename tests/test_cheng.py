import collections
import math
import random
from fractions import Fraction as Fr

import pytest

from skyhn import cheng, grmat, hn_core, pipeline
from skyhn import field as fieldmod
from skyhn.cheng import (BlowUp, MatrixSpace, ShrunkFailure, build_A_alpha,
                         hn_cheng, shrunk_subspace_random)
from skyhn.field import DenseMatrix, PrimeField
from skyhn.grmat import Grid

from conftest import (F2, F3, F5, cross_module, gm, hidden_corpus,
                      random_bounded_module, random_unigen_module,
                      stable_module)

import reference


def random_space(rng, F, N, Np, ell, sparse=False):
    """Random independent basis; sparse: each matrix's nonzero entries lie
    in one random band of rows, as in the spaces build_A_alpha builds."""
    ell = min(ell, N * Np)
    basis, span = [], {}
    while len(basis) < ell:
        lo = rng.randrange(N) if sparse else 0
        hi = rng.randrange(lo + 1, N + 1) if sparse else N
        B = [[rng.randrange(F.q) if lo <= a < hi else 0 for _ in range(Np)]
             for a in range(N)]
        if reference.insert(F.q, span, [x for row in B for x in row]):
            basis.append([(a, row) for a, row in enumerate(B) if any(row)])
    return MatrixSpace(F, N, Np, basis)


def placed(space):
    """The basis matrices of the space as lists of rows, each with its
    nonzero rows placed back among zero rows."""
    out = []
    for B in space.basis:
        data = [[0] * space.ncols for _ in range(space.nrows)]
        for a, row in B:
            data[a] = list(row)
        out.append(data)
    return out


def image_naive(blow, ucols):
    """Reference blow-up image: apply every E_ij tensor A_k to every vector
    and span the results in k^{p*nrows}."""
    sp = blow.space
    F = sp.field
    Np, N = sp.ncols, sp.nrows
    image = []
    for u in ucols:
        for j in range(blow.q):
            for A in placed(sp):
                w = reference.matvec(F.q, A, u[j * Np:(j + 1) * Np])
                image += [[0] * (i * N) + w + [0] * ((blow.p - i - 1) * N)
                          for i in range(blow.p)]
    return reference.basis(F.q, image)


def test_matrix_space_rejects_dependent_basis():
    B = [(0, [1, 0]), (1, [0, 1])]
    with pytest.raises(ValueError):
        MatrixSpace(F2, 2, 2, [B, B])


def test_matrix_space_rejects_malformed_rows():
    """A basis matrix is its nonzero rows, indices ascending and in range,
    each row of length ncols; a zero matrix is a dependent one."""
    assert MatrixSpace(F2, 3, 2, [[(0, [1, 0]), (2, [0, 1])]]).ell == 1
    for B, what in [([(3, [1, 0])], "index"), ([(-1, [1, 0])], "index"),
                    ([(2, [1, 0]), (0, [0, 1])], "index"),
                    ([(1, [1, 0]), (1, [0, 1])], "index"),
                    ([(0, [1])], "length"), ([(0, [1, 0, 1])], "length"),
                    ([], "independent")]:
        with pytest.raises(ValueError, match=what):
            MatrixSpace(F2, 3, 2, [B])


def core_all_rows(blow, ucols):
    """image_core multiplying every row of every basis matrix by every
    column block of the lists ucols, in the same canonical form: the
    reduced column echelon basis of the span, which is the same list for
    any spanning set."""
    sp = blow.space
    Np = sp.ncols
    return reference.reduced_basis(sp.field.q, [
        reference.matvec(sp.field.q, A, u[j * Np:(j + 1) * Np])
        for u in ucols for j in range(blow.q) for A in placed(sp)])


def a_alpha_spaces():
    """Matrix spaces that build_A_alpha builds for the fixtures' fiber
    submodules."""
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    return [build_A_alpha(grmat.fiber_submodule(M, alpha), G, alpha)[0]
            for M, alpha in [(cross_module(), (Fr(0), Fr(1))),
                             (stable_module(), (Fr(0), Fr(0))),
                             (stable_module(), (Fr(1), Fr(0)))]]


def test_blowup_core_matches_naive(rng):
    """image_core, which multiplies only the nonzero rows of the basis
    matrices, against the core over all rows and the naive image, on
    dense and row-sparse random spaces and on build_A_alpha's spaces."""
    spaces = [random_space(rng, F3 if k % 3 == 0 else F2, rng.randrange(1, 5),
                           rng.randrange(1, 4), rng.randrange(1, 4),
                           sparse=k % 2)
              for k in range(30)]
    for sp in spaces + a_alpha_spaces():
        p = rng.randrange(1, 3)
        q = rng.randrange(1, 3)
        blow = BlowUp(sp, p, q)
        ucols = [[rng.randrange(sp.field.q) for _ in range(q * sp.ncols)]
                 for _ in range(rng.randrange(1, 4))]
        form = fieldmod._vector_form(sp.field.q)
        core = blow.image_core([form.pack(u) for u in ucols])
        assert [form.unpack(v, sp.nrows) for v in core] == \
            core_all_rows(blow, ucols)
        naive = image_naive(blow, ucols)
        # the naive image must be exactly k^p tensor the core
        assert len(naive) == p * len(core)


def test_shrunk_identity_for_zero_space():
    sp = MatrixSpace(F2, 2, 3, [])
    U = shrunk_subspace_random(sp, 1, seed=0)
    assert U == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_shrunk_matches_exhaustive_small_spaces(rng):
    for trial in range(50):
        sp = random_space(rng, F2, rng.randrange(1, 5), rng.randrange(1, 5),
                          rng.randrange(1, 5))
        want_rows, want_defect = reference.shrunk_subspace(
            F2.q, placed(sp), sp.ncols)
        got = cheng._shrunk_with_retries(sp, 1, 1, None, seed=trial,
                                         p_cap=64)
        assert len(got) == len(want_rows), trial
        assert reference.same_span(F2.q, got, want_rows)


def _build_A_alpha_per_beta(M, G, alpha):
    """build_A_alpha with the reference's fiber and structure map built
    afresh for every grid point above alpha: (basis data, p0, q0, betas)."""
    gens = reference.units(M.nrows, reference.basis_rows(
        reference.fiber(M, alpha)))
    betas = [b for b in G.points() if reference.leq(alpha, b) and b != alpha]
    maps, q0 = [], 0
    for b in betas:
        fib = reference.fiber(M, b)
        T = [list(row) for row in
             zip(*(reference.coordinates(fib, u) for u in gens))]
        maps.append((q0, T))
        q0 += len(T)
    basis = []
    for off, T in maps:
        if any(map(any, T)):
            B = [[0] * len(gens) for _ in range(q0)]
            B[off:off + len(T)] = T
            basis.append(B)
    return basis, len(gens), q0, betas


def test_build_A_alpha_matches_per_beta_construction():
    """The same basis, p0, q0 and betas as a fresh fiber model per point,
    on fiber submodules on their regular grid and on a grid of spacing 1/3
    (where several points lie in one fiber class and share its map);
    clipped modules whose generators do not all lie at alpha raise
    ValueError."""
    rng = random.Random(6010)
    modules = [random_bounded_module(rng, F, rng.randrange(1, 4), dmax=3)
               for F in (F2, F3) * 4]
    modules += [random_unigen_module(rng, F3, 3, dmax=3)]
    modules += [M for _, _, M in hidden_corpus(n=3, seed=6011,
                                               max_thickness=3)]
    shared = mixed = 0
    for M in modules:
        box = pipeline.bounding_box(M)
        Mc = pipeline.clip_to_box(M, box)
        x0, y0, x1, y1 = box
        fine = Grid([x0 + Fr(k, 3) for k in range(3 * int(x1 - x0) + 1)],
                    [y0 + Fr(k, 3) for k in range(3 * int(y1 - y0) + 1)])
        for alpha in grmat.induced_grid(Mc).points():
            if grmat.pointwise_model(Mc, alpha).dim == 0:
                continue
            sub = grmat.fiber_submodule(Mc, alpha)
            regular = pipeline.regular_grid(Mc, [alpha], box)
            if set(Mc.row_degrees) != {alpha}:
                with pytest.raises(ValueError, match="generated at"):
                    build_A_alpha(Mc, regular, alpha)
                mixed += 1
            fc = hn_core.fiber_classes(sub)
            for G in (regular, fine):
                space, p0, q0, betas = build_A_alpha(sub, G, alpha)
                assert (placed(space), p0, q0, betas) == \
                    _build_A_alpha_per_beta(sub, G, alpha)
                assert (space.nrows, space.ncols) == (q0, p0)
                xs, ys = (a.coords for a in fc.axes)
                classes = [fc.point_class[reference.floor(xs, x),
                                           reference.floor(ys, y)]
                           for x, y in betas]
                classes = [c for c in classes if c >= 0]
                shared += len(set(classes)) < len(classes)
    assert shared >= 20 and mixed >= 10


class _WongReference:
    """Wong steps on list columns: [A | W] reduced afresh at every step,
    A reduced on its own for rank_a, and the core over all rows."""

    def __init__(self, acols, blow):
        self.blow = blow
        self.s_basis, self.last_preimage = [], []
        self.acols = acols
        self.rank_a = reference.rank(blow.space.field.q, acols)
        self.contained = None

    def advance(self):
        q, N, p = self.blow.space.field.q, self.blow.space.nrows, self.blow.p
        wcols = [[0] * (a * N) + s + [0] * ((p - a - 1) * N)
                 for a in range(p) for s in self.s_basis]
        rank, _, combos = reference.reduce_columns(q, self.acols + wcols)
        self.contained = rank == self.rank_a
        na = len(self.acols)
        self.last_preimage = reference.basis(q, [c[:na] for c in combos])
        new_s = core_all_rows(self.blow, self.last_preimage)
        if len(new_s) == len(self.s_basis):
            return False
        self.s_basis = new_s
        return True


def _run_reference(acols, blow):
    ref = _WongReference(acols, blow)
    while ref.advance():
        pass
    return ref


def _extension_degree(F, p, g_extra):
    """The draw's default degree for p, raised until the extension has at
    least 4 elements, then g_extra more."""
    g = 1 if p <= 1 else max(1, math.ceil(math.log(p, F.q) ** 2))
    while F.q ** g < 4:
        g += 1
    return g + g_extra


def _draw_reference(space, p, seed, q=None, g_extra=0):
    """shrunk_subspace_random on lists, as the engine drew before it
    worked in field's vector form: the same random stream, X_k . C from
    the echelon transform, A = sum_k kron(X_k, A_k) as a dense matrix, and
    the Wong steps of _WongReference on its columns."""
    if q is None:
        q = p
    F, Np, N = space.field, space.ncols, space.nrows
    if space.ell == 0 or N == 0:
        return [[int(i == j) for i in range(Np)] for j in range(Np)]
    g = _extension_degree(F, p, g_extra)
    rng = random.Random(seed)
    ext = fieldmod.ext_field_build(F.q, g) if g > 1 else None
    P, Q = g * p, g * q
    xmats = []
    for _ in range(space.ell):
        X = [[0] * Q for _ in range(P)]
        for i in range(p):
            for j in range(q):
                x = [rng.randrange(F.q) for _ in range(g)]
                blk = fieldmod.embed_phi(x, ext) if ext else [x]
                for a in range(g):
                    X[i * g + a][j * g:(j + 1) * g] = blk[a]
        xmats.append(X)
    C = [tail for tail, _ in reference.column_echelon(
        F.q, [[row[b] for X in xmats for row in X] for b in range(Q)])]
    A = DenseMatrix.zero(P * N, Q * Np, F)
    for X, B in zip(xmats, placed(space)):
        XC = DenseMatrix(P, Q, F, [[sum(row[k] * C[j][k] for k in range(Q))
                                    % F.q for j in range(Q)] for row in X])
        K = fieldmod.kron(XC, DenseMatrix(N, Np, F, B))
        A.data = [[(x + y) % F.q for x, y in zip(ra, rk)]
                  for ra, rk in zip(A.data, K.data)]
    ref = _run_reference(A.columns(), cheng.BlowUp(space, P, Q))
    if not ref.contained:
        return None
    U = reference.basis(F.q, [c[:Np] for c in ref.last_preimage])
    if len(U) * Q != len(ref.last_preimage):
        return None
    return U


def _draw_cases(rng):
    """Random dense and row-sparse spaces over GF(2), GF(3) and GF(5), and
    build_A_alpha's spaces, each with (p, q, g_extra) blow-ups whose
    extension degree is 1 (GF(5) only) and more than 1."""
    spaces = [random_space(rng, F3 if k % 2 else F2, rng.randrange(1, 4),
                           rng.randrange(1, 4), rng.randrange(1, 4),
                           sparse=k % 4 > 1)
              for k in range(24)]
    spaces += a_alpha_spaces()
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    for F, t in ((F2, 4), (F3, 3), (F2, 5), (F3, 4), (F5, 3), (F5, 4)):
        M = random_unigen_module(rng, F, t)
        spaces.append(build_A_alpha(M, G, M.row_degrees[0])[0])
    spaces += [random_space(rng, F5, rng.randrange(1, 4), rng.randrange(1, 4),
                            rng.randrange(1, 4), sparse=k % 2)
               for k in range(12)]
    return [(sp, draw_p, q, g_extra) for sp in spaces
            for draw_p, q, g_extra in [(1, 1, 0), (1, 2, 0), (2, 1, 1),
                                       (3, 2, 0), (2, 3, 0)]]


# (field size, whether the extension degree is > 1) for the draws: a draw
# over GF(2) or GF(3) always extends the field, to at least 4 elements
_DEGREE_KINDS = {(2, True), (3, True), (5, False), (5, True)}
# where the draws must see both certificate outcomes
_CERTIFIED_KINDS = {(q, big, fails) for q, big in
                    [(2, True), (3, True), (5, False)]
                    for fails in (False, True)}


def test_draws_match_list_reference(rng):
    """Every randomized draw, over GF(2), GF(3) and GF(5), on random and
    build_A_alpha spaces, returns exactly the U (or None) of the list-form
    reference; both certificate outcomes occur at extension degree g = 1
    (GF(5)) and g > 1 (GF(2) and GF(3)), and no draw over GF(2) or GF(3)
    has g = 1."""
    outcomes = set()
    for k, (sp, draw_p, q, g_extra) in enumerate(_draw_cases(rng)):
        got = shrunk_subspace_random(sp, draw_p, seed=k, q=q,
                                     g_extra=g_extra)
        want = _draw_reference(sp, draw_p, seed=k, q=q, g_extra=g_extra)
        assert got == want, (k, sp, draw_p, q, g_extra)
        g = _extension_degree(sp.field, draw_p, g_extra)
        outcomes.add((sp.field.q, g > 1, got is None))
    assert {(q, big) for q, big, _ in outcomes} == _DEGREE_KINDS
    assert _CERTIFIED_KINDS <= outcomes


def test_wong_matches_fresh_reduction(monkeypatch, rng):
    """Every Wong run of the randomized draws, step by step against the
    reference on the unpacked columns: the same preimages, cores and
    certificate, over GF(2), GF(3) and GF(5), with both certificate
    outcomes at extension degree g = 1 (GF(5)) and g > 1 (GF(2) and
    GF(3))."""
    outcomes = set()

    def checked(acols, blow):
        F = blow.space.field
        unpack = fieldmod._vector_form(F.q).unpack
        nrows, ncols = blow.p * blow.space.nrows, len(acols)
        st = cheng.WongState(acols, blow)
        ref = _WongReference([unpack(c, nrows) for c in acols], blow)
        while True:
            grew = st.advance()
            assert grew == ref.advance()
            assert [unpack(v, ncols) for v in st.last_preimage] == \
                ref.last_preimage
            assert [unpack(v, blow.space.nrows) for v in st.s_basis] == \
                ref.s_basis
            if not grew:
                break
        assert st.contained == ref.contained
        assert st.rank_a == ref.rank_a
        # blow.p is g times the draw's p
        outcomes.add((F.q, blow.p > draw_p, not st.contained))
        return st
    monkeypatch.setattr(cheng, "_run_wong", checked)
    spaces = [random_space(rng, F3 if k % 2 else F2, rng.randrange(1, 4),
                           rng.randrange(1, 4), rng.randrange(1, 4),
                           sparse=k % 2)
              for k in range(24)]
    spaces += [random_space(rng, F5 if k % 2 else F3, rng.randrange(1, 4),
                            rng.randrange(1, 4), rng.randrange(1, 4),
                            sparse=k % 4 > 1)
               for k in range(24)]
    for k, sp in enumerate(spaces + a_alpha_spaces()):
        for draw_p, q, g_extra in [(1, 1, 0), (1, 2, 0), (2, 1, 1),
                                   (3, 2, 0)]:
            shrunk_subspace_random(sp, draw_p, seed=k, q=q, g_extra=g_extra)
    assert {(q, big) for q, big, _ in outcomes} == _DEGREE_KINDS
    assert _CERTIFIED_KINDS <= outcomes


def test_build_A_alpha_cross(cross):
    G = grmat.induced_grid(cross)
    alpha = (Fr(0), Fr(1))
    space, p0, q0, betas = build_A_alpha(grmat.fiber_submodule(cross, alpha),
                                         G, alpha)
    assert p0 == 2
    assert len(betas) == len([b for b in G.points()
                              if grmat.deg_leq((Fr(0), Fr(1)), b)]) - 1
    assert space.ncols == 2 and space.nrows == q0


def _probe_spaces(rng):
    """Random spaces and the spaces of random fiber submodules."""
    spaces = [random_space(rng, (F2, F3, F5)[k % 3], rng.randrange(1, 6),
                           rng.randrange(2, 5), rng.randrange(1, 5),
                           sparse=k % 2)
              for k in range(60)]
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    for k in range(30):
        M = random_unigen_module(rng, F3 if k % 2 else F2, rng.randrange(2, 6))
        alpha = M.row_degrees[0]
        spaces.append(build_A_alpha(grmat.fiber_submodule(M, alpha), G,
                                    alpha)[0])
    return spaces


def _recording_probes(monkeypatch):
    """Wrap _split_fiber and _shrunk_with_retries: returns the list that
    gets one (p0, q0, whether the node draws at all, probes) per node,
    probes its (p, q, len(U)) in drawing order."""
    real_split, real_retry = cheng._split_fiber, cheng._shrunk_with_retries
    nodes = []

    def split(space, p0, q0, alpha, seed):
        nodes.append((p0, q0, q0 > 0 and space.ell > 0 and p0 > 1, []))
        return real_split(space, p0, q0, alpha, seed)

    def retry(space, p, q, alpha, seed, p_cap):
        U = real_retry(space, p, q, alpha, seed, p_cap)
        nodes[-1][3].append((p, q, len(U)))
        return U
    monkeypatch.setattr(cheng, "_split_fiber", split)
    monkeypatch.setattr(cheng, "_shrunk_with_retries", retry)
    return nodes


def _check_schedule(p0, q0, draws, probes):
    """probes are the node's ceiling probe (1, ceil(rq/rp)) when rp >= 2,
    then its exact (rp, rq) probe only when the ceiling answer is trivial;
    none when the node cannot draw.  Returns the node's kind."""
    if not draws:
        assert probes == []
        return "none"
    g = math.gcd(p0, q0)
    rp, rq = p0 // g, q0 // g
    got = [(p, q) for p, q, _ in probes]
    if rp == 1:
        assert got == [(1, rq)]
        return "exact at rp = 1"
    assert got[0] == (1, -(-rq // rp))
    if 0 < probes[0][2] < p0:
        assert len(got) == 1
        return "ceiling split"
    assert got[1:] == [(rp, rq)]
    return "exact after ceiling"


def test_probe_order(monkeypatch):
    """_split_fiber's schedule on random spaces: no draw where the node
    cannot split, the exact (1, rq) probe alone at rp = 1, and at rp >= 2
    the ceiling probe (1, ceil(rq/rp)), then the exact (rp, rq) probe only
    when the ceiling answer is 0 or the whole fiber; the node splits by
    the last probe's answer exactly when that answer is proper."""
    spaces = _probe_spaces(random.Random(3233))
    nodes = _recording_probes(monkeypatch)
    seen = collections.Counter()
    for n, sp in enumerate(spaces):
        U = cheng._split_fiber(sp, sp.ncols, sp.nrows, None, n)
        p0, q0, draws, probes = nodes[-1]
        seen[_check_schedule(p0, q0, draws, probes)] += 1
        if U is None:
            assert not probes or probes[-1][2] in (0, p0)
        else:
            assert 0 < len(U) == probes[-1][2] < p0
    assert len(nodes) == len(spaces)
    assert all(seen[k] >= 3 for k in ("exact at rp = 1", "ceiling split",
                                      "exact after ceiling")), seen


def test_p1_probes_are_dropped_soundly():
    """The p = 1 probes around _split_fiber's ceiling probe, on random
    spaces and on the spaces of random fiber submodules: with
    mu = p0/(p0 + r) the space's own slope (r the dim of its image) and
    tau = 1/(1 + k), a certified (1, k) probe above mu is never the whole
    fiber, one below mu is never 0, and when both bracket probes
    (1, ceil(rq/rp)) and (1, floor(rq/rp)) are trivial (0 or the whole
    fiber), so is every other (1, k)."""
    spaces = _probe_spaces(random.Random(3232))
    seen = {"dropped": 0, "split": 0}
    for n, sp in enumerate(spaces):
        p0 = sp.ncols
        r = reference.rank(sp.field.q, [
            reference.matvec(sp.field.q, A, v) for A in placed(sp)
            for v in reference.units(p0, range(p0))])
        if r == 0:
            continue
        g = math.gcd(p0, r)
        rp, rq = p0 // g, r // g
        sizes = {}
        ks = range(1, -(-rq // rp) + 4)     # up to 3 past the ceiling
        for k in ks:
            U = cheng._shrunk_with_retries(sp, 1, k, None, seed=n, p_cap=64)
            sizes[k] = len(U)
            if k * rp < rq:         # tau above mu
                assert len(U) < p0, (n, k)
            elif k * rp > rq:       # tau below mu
                assert len(U) > 0, (n, k)
        assert all(sizes[k] <= sizes[k + 1] for k in ks[:-1])
        if rp < 2:
            continue
        brackets = [-(-rq // rp)] + [rq // rp] * (rq >= rp)
        if all(sizes[k] in (0, p0) for k in brackets):
            assert all(s in (0, p0) for s in sizes.values()), n
            seen["dropped"] += 1
        else:
            seen["split"] += 1
    assert seen["dropped"] >= 5 and seen["split"] >= 5, seen


def test_found_module_draws_only_exact_p1_blowups(monkeypatch):
    """A GF(3) module with 8 generators at (0, 0) whose nodes all have
    ratio 1/rq, the slow case of the earlier probe schedule (75 draws and
    a (7, 52) blow-up over seeds 0 and 1): cheng equals brute force with
    at most 20 draws, none of them with p > 1."""
    M = gm(F3, [(0, 0)] * 8,
           [((2, 2), [(1, 1), (3, 1), (4, 1), (5, 2), (6, 2), (7, 2)]),
            ((1, 2), [(0, 1), (1, 1), (2, 1), (4, 2), (5, 1)]),
            ((2, 2), [(0, 1), (1, 1), (2, 1), (3, 2), (4, 1), (5, 1),
                      (6, 1), (7, 1)]),
            ((1, 1), [(0, 1), (2, 1), (4, 1), (5, 1), (6, 1)])]
           + [(d, [(i, 1)]) for i in range(8) for d in ((3, 0), (0, 3))])
    real = cheng.shrunk_subspace_random
    draws = []

    def counting(space, p, seed, q=None, g_extra=0):
        draws.append((p, q))
        if p > 1 or len(draws) > 20:
            raise AssertionError("draw %d at (%d, %s)" % (len(draws), p, q))
        return real(space, p, seed, q=q, g_extra=g_extra)
    monkeypatch.setattr(cheng, "shrunk_subspace_random", counting)
    alpha = (Fr(0), Fr(0))
    want = pipeline.hn_at(M, alpha)
    assert len(want.factors) == 4
    for seed in (0, 1):
        assert pipeline.hn_at(M, alpha, "cheng", seed) == want
    assert draws


def _gf2_rels(t, rels):
    """GF(2) relations given by their degree and the rows of their 1s,
    then a (3, 0) and a (0, 3) relation on each of the t generators."""
    return ([(d, [(i, 1) for i in rows]) for d, rows in rels]
            + [(d, [(i, 1)]) for i in range(t) for d in ((3, 0), (0, 3))])


# two GF(2) modules with 10 generators at (0, 0) on which an earlier
# schedule, after both p = 1 brackets came back trivial, split nodes of
# ratio 3/10 and 5/16 with (2, 7) blow-ups
_P2_SPLIT_MODULES = [
    gm(F2, [(0, 0)] * 10, _gf2_rels(10, [
        ((1, 2), [0, 2, 3, 4, 5, 6, 8]), ((2, 1), [0, 6, 7, 8, 9]),
        ((1, 1), [0, 7, 8]), ((2, 0), [2, 3, 4, 6, 8]),
        ((1, 0), [0, 1, 3, 4, 8, 9]), ((0, 1), [1, 2, 5, 6, 9]),
        ((2, 0), [2, 4, 6, 7, 8, 9]), ((0, 1), [1, 2, 4, 5, 7]),
        ((1, 1), [0, 1, 2, 3, 4, 5, 6, 7]), ((0, 1), [4, 5, 7, 8, 9]),
        ((0, 2), [3, 6, 9]), ((2, 1), [1, 5, 7, 8, 9]),
        ((1, 1), [2, 4, 7])])),
    gm(F2, [(0, 0)] * 10, _gf2_rels(10, [
        ((1, 1), [1, 2, 3, 6]), ((0, 1), [0, 1, 3, 4, 7]),
        ((2, 1), [5, 6, 9]), ((2, 0), [0, 1, 4, 6, 7]),
        ((1, 1), [1, 3, 4, 6, 7]), ((2, 1), [2, 3, 4, 9]),
        ((1, 1), [2, 4, 5, 6, 8, 9]), ((2, 0), [0, 1, 2, 4, 6, 7, 8, 9]),
        ((1, 1), [2, 5, 8]), ((1, 2), [5]), ((0, 2), [2, 5, 6, 7]),
        ((2, 1), [0, 1, 3, 4, 6, 8]), ((2, 2), [0, 3, 4, 5, 6, 8]),
        ((0, 1), [2, 3, 5, 6, 8, 9]), ((2, 1), [0, 1, 3, 5, 7, 9]),
        ((2, 0), [4, 6, 7, 8]), ((0, 2), [0, 1, 2, 3, 5, 6, 7, 8, 9]),
        ((0, 1), [0, 1, 4, 7, 8]), ((1, 0), [0, 1, 2, 4, 5, 6, 7]),
        ((0, 2), [1, 2, 6, 8, 9])])),
]


def test_found_modules_draw_only_ceiling_and_exact_probes(monkeypatch):
    """On _P2_SPLIT_MODULES cheng equals brute force at seeds 0 and 1, and
    every node draws its ceiling probe (1, ceil(rq/rp)) when rp >= 2 and
    then, only when that answer is trivial, its exact (rp, rq) probe."""
    alpha = (Fr(0), Fr(0))
    wants = [pipeline.hn_at(M, alpha) for M in _P2_SPLIT_MODULES]
    assert [len(w.factors) for w in wants] == [6, 4]
    nodes = _recording_probes(monkeypatch)
    for M, want in zip(_P2_SPLIT_MODULES, wants):
        for seed in (0, 1):
            assert pipeline.hn_at(M, alpha, "cheng", seed) == want
    kinds = collections.Counter(_check_schedule(*node) for node in nodes)
    assert kinds["exact after ceiling"] >= 4, kinds


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
               if G.index(p)[2]]
        beta = pts[rng.randrange(len(pts))]
        a = hn_cheng(M, G, beta, seed=trial)
        b = hn_core.hn_filtration_at(M, beta)
        assert a == b, (trial, beta)


def test_shrunk_failure_carries_alpha():
    exc = ShrunkFailure((Fr(0), Fr(1, 2)), 8)
    assert exc.alpha == (Fr(0), Fr(1, 2))
    assert exc.attempts == 8
    assert str(exc) == "no certified shrunk subspace at (0, 1/2) after 8 " \
        "attempts"


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
            stack = [[row[b] for X in xmats for row in X] for b in range(Q)]
            C = [tail for tail, _ in reference.column_echelon(F.q, stack)]
            want = [[[sum(row[k] * C[j][k] for k in range(Q)) % F.q
                      for j in range(Q)] for row in X] for X in xmats]
            got = cheng._partial_reduce(F, stack)
            # column j of the stacked X_k . C
            assert got == [[row[j] for X in want for row in X]
                           for j in range(Q)]
            dependent += any(not any(col) for col in got)
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


def test_hn_cheng_checks_its_grid(cross):
    """hn_cheng reads the fiber submodule on G only where that is exact:
    G evenly spaced, alpha and every coordinate of the module generated at
    alpha on G, and the module bounded; else ValueError."""
    alpha = (Fr(0), Fr(1))
    cases = [
        (Grid([Fr(k) for k in range(5)], [Fr(0), Fr(2), Fr(4)]), "lacks y"),
        (Grid([Fr(0), Fr(2), Fr(4)], [Fr(k) for k in range(5)]), "lacks x"),
        (Grid([Fr(k) for k in range(5)] + [Fr(6)],
              [Fr(k) for k in range(5)]), "evenly spaced"),
        # ends before the module vanishes at x = 3
        (Grid([Fr(k) for k in range(3)], [Fr(k) for k in range(5)]),
         "lacks x"),
    ]
    for G, what in cases:
        with pytest.raises(ValueError, match=what):
            hn_cheng(cross, G, alpha, seed=0)
    # a grid that ends where the module vanishes is enough
    assert hn_cheng(cross, Grid([Fr(k) for k in range(4)],
                                [Fr(k) for k in range(4)]), alpha, seed=0) \
        == hn_core.hn_filtration_at(cross, alpha)
    line = gm(F2, [(0, 0)], [((1, 0), [(0, 1)])])   # [0, 1) x [0, inf)
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    with pytest.raises(ValueError, match="not bounded"):
        hn_cheng(line, G, (Fr(0), Fr(0)), seed=0)
    # a zero fiber needs no grid at all
    assert hn_cheng(cross, cases[0][0], (Fr(-1), Fr(0)), seed=0).factors == []


def test_hn_cheng_on_user_grids_is_exact_or_refuses():
    """Random bounded modules at random points of random evenly spaced
    grids over their box, as ``skyhn hn --engine cheng --grid NX,NY``
    builds them: where the grid holds alpha and every degree of the
    clipped module inside its span, cheng equals brute force; elsewhere it
    equals brute force or raises ValueError, and it does raise."""
    rng = random.Random(5)
    seen = {"cover": 0, "refused": 0, "exact": 0}
    for m in range(60):
        M = random_bounded_module(rng, F2 if m % 2 else F3,
                                  rng.randrange(1, 4))
        box = pipeline.bounding_box(M)
        x0, y0, x1, y1 = box
        Mc = pipeline.clip_to_box(M, box)
        for _ in range(2):
            if rng.random() < 0.5:
                nx = int(x1 - x0) * rng.randrange(1, 3) + 1
                ny = int(y1 - y0) * rng.randrange(1, 3) + 1
            else:
                nx, ny = rng.randrange(2, 7), rng.randrange(2, 7)
            G = Grid([x0 + (x1 - x0) * Fr(i, nx - 1) for i in range(nx)],
                     [y0 + (y1 - y0) * Fr(j, ny - 1) for j in range(ny)])
            pts = list(G.points()) + list(grmat.induced_grid(M).points())
            alpha = pts[rng.randrange(len(pts))]
            want = pipeline.hn_at(M, alpha, box=box)
            if not want.factors:
                continue
            cover = G.index(alpha)[2] and all(
                G.index(d)[2] for d in Mc.row_degrees + Mc.col_degrees
                if x0 <= d[0] <= x1 and y0 <= d[1] <= y1)
            seen["cover"] += cover
            try:
                got = pipeline.hn_at(M, alpha, "cheng", m, box, G)
            except ValueError:
                assert not cover, (m, alpha)
                seen["refused"] += 1
                continue
            assert got == want, (m, alpha)
            seen["exact"] += 1
    assert seen["cover"] >= 10 and seen["refused"] >= 10, seen


def _old_children(P, U, alpha):
    """The presentations hn_cheng once recursed on after a split by the
    shrunk subspace U of P's fiber at alpha: the submodule that U
    generates and the quotient by it."""
    S = grmat.GradedMatrix(P.field, P.row_degrees, [alpha] * len(U),
                           [[(i, v) for i, v in enumerate(c) if v]
                            for c in U])
    return (grmat.minimize(grmat.submodule_presentation(P, S)),
            grmat.quotient_presentation(P, U))


def test_split_nodes_match_old_presentations(monkeypatch):
    """Every node of the split recursion, a subquotient <lo + top>/<lo> of
    the fiber at alpha, against the presentation of the same module that
    the engine once built with submodule_presentation and
    quotient_presentation (kept here): build_A_alpha on it has the node's
    p0 and q0, its fiber dims per grid point are the node's ranks
    rank T(lo + top) - rank T(lo), and the node's matrix space has one
    block of that many rows per grid point where it is nonzero.  On the
    fixtures and on small unigen modules over GF(2) and GF(3)."""
    real_factors = cheng._Subquotients.factors
    real_split = cheng._split_fiber
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    state = {"stack": [], "node": None, "splits": 0, "nodes": 0}

    def factors(self, lo, top, space, q0, seed):
        P = state["stack"].pop()
        F, alpha = self.field, self.alpha
        old, p0, old_q0, betas = build_A_alpha(P, G, alpha)
        assert (len(top), q0) == (p0, old_q0)
        assert (space.ncols, space.nrows) == (p0, q0)
        dims = [reference.dim(P, b) for b in betas]
        ranks = []
        for T in state["root_maps"]:
            imgs = [reference.matvec(F.q, T.data, v) for v in lo + top]
            ranks.append(reference.rank(F.q, imgs)
                         - reference.rank(F.q, imgs[:len(lo)]))
        assert ranks == dims
        assert [len(B) for B in space.basis] == \
            [r for r in ranks if r]
        state["node"] = P
        state["nodes"] += 1
        return real_factors(self, lo, top, space, q0, seed)

    def split(space, p0, q0, alpha, seed):
        U = real_split(space, p0, q0, alpha, seed)
        if U is not None:
            sub, quot = _old_children(state["node"], U, alpha)
            state["stack"] += [quot, sub]
            state["splits"] += 1
        return U
    monkeypatch.setattr(cheng._Subquotients, "factors", factors)
    monkeypatch.setattr(cheng, "_split_fiber", split)
    rng = random.Random(1313)
    cases = [(cross_module(), (Fr(0), Fr(1))),
             (stable_module(), (Fr(0), Fr(0))),
             (stable_module(), (Fr(1), Fr(0)))]
    for k in range(16):
        M = random_unigen_module(rng, F3 if k % 2 else F2, rng.randrange(3, 6))
        cases.append((M, M.row_degrees[0]))
    for k, (M, alpha) in enumerate(cases):
        cur = grmat.fiber_submodule(M, alpha)
        betas = build_A_alpha(cur, G, alpha)[3]
        state["root_maps"] = [grmat.structure_map(cur, alpha, b)
                              for b in betas]
        state["stack"] = [cur]
        assert hn_cheng(M, G, alpha, seed=k) == \
            hn_core.hn_filtration_at(M, alpha), k
        assert state["stack"] == []
    assert state["splits"] >= 10 and state["nodes"] > 2 * state["splits"]


def _node_space_from_lists(sq, lo, top):
    """_Subquotients.space as it was built on lists: per root basis
    matrix, its nonzero rows T applied to lo and top by list dot products,
    T.top reduced modulo T.lo in a list echelon, and the independent rows
    of the reduced columns kept from the top down; the blocks stacked into
    a MatrixSpace through its checking constructor."""
    F, p = sq.field, len(top)
    q, blocks = F.q, []
    for B in sq.root.basis:
        T = [row for _, row in B]
        ech, keep = {}, {}
        for v in lo:
            reference.insert(q, ech, reference.matvec(q, T, v))
        red = [reference.reduce(q, ech, reference.matvec(q, T, c))
               for c in top]
        blocks.append([r for r in map(list, zip(*red))
                       if reference.insert(q, keep, r) is not None])
    basis, off = [], 0
    for rows in blocks:
        nz = [(a, r) for a, r in enumerate(rows, off) if any(r)]
        if nz:
            basis.append(nz)
        off += len(rows)
    return MatrixSpace(F, off, p, basis), off


def test_packed_node_spaces_match_list_construction(monkeypatch):
    """_Subquotients.space, built on packed structure maps, against the
    list construction it replaced (kept above): the same basis and q0 at
    every node of real split recursions over GF(2), GF(3) and GF(5), and
    at random nodes <lo + top>/<lo> over the spaces build_A_alpha builds
    for the same modules.  The reference stacks through MatrixSpace's
    checking constructor, so the stacked bases are independent."""
    real_factors = cheng._Subquotients.factors
    seen = {"nodes": set(), "splits": set()}

    def factors(self, lo, top, space, q0, seed):
        want = _node_space_from_lists(self, lo, top)
        assert (space.basis, q0) == (want[0].basis, want[1])
        assert (space.nrows, space.ncols) == (want[0].nrows, len(top))
        seen["nodes"].add(self.field.q)
        if lo:
            seen["splits"].add(self.field.q)
        return real_factors(self, lo, top, space, q0, seed)
    monkeypatch.setattr(cheng._Subquotients, "factors", factors)
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    rng = random.Random(3307)
    random_nodes = 0
    for k in range(24):
        F = (F2, F3, F5)[k % 3]
        M = random_unigen_module(rng, F, rng.randrange(2, 6))
        alpha = M.row_degrees[0]
        assert hn_cheng(M, G, alpha, seed=k) == \
            hn_core.hn_filtration_at(M, alpha), k
        sq = cheng._Subquotients(grmat.fiber_submodule(M, alpha), G, alpha)
        t = sq.root.ncols
        for _ in range(4):
            k1 = rng.randrange(t)
            vecs = [[rng.randrange(F.q) for _ in range(t)]
                    for _ in range(t)]
            lo, top = vecs[:k1], vecs[k1:rng.randrange(k1 + 1, t + 1)]
            got, want = sq.space(lo, top), _node_space_from_lists(sq, lo, top)
            assert (got[0].basis, got[1]) == (want[0].basis, want[1])
            random_nodes += bool(got[0].basis)
    assert seen["nodes"] == seen["splits"] == {2, 3, 5}
    assert random_nodes >= 60


def test_non_minimal_module_generated_at_alpha():
    """A module generated at alpha that carries a redundant relation on G
    is handed on by fiber_submodule as it is; hn_filtration_at and
    hn_cheng on it agree with the same calls on its minimal presentation,
    since a redundant relation changes no class rank."""
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    rng = random.Random(2730)
    split = 0
    for k in range(16):
        M = random_unigen_module(rng, F3 if k % 2 else F2, rng.randrange(2, 5))
        rels = list(zip(M.col_degrees, M.columns))
        (d1, col), (d2, _) = rng.sample(rels, 2)
        N = gm(M.field, M.row_degrees,
               rels + [(reference.join(d1, d2), col)])
        alpha, small = N.row_degrees[0], grmat.minimize(N)
        assert small.ncols < N.ncols and grmat.fiber_submodule(N, alpha) is N
        want = hn_core.hn_filtration_at(small, alpha)
        assert hn_core.hn_filtration_at(N, alpha) == want, k
        assert hn_cheng(N, G, alpha, seed=k) == \
            hn_cheng(small, G, alpha, seed=k) == want, k
        split += len(want.factors) > 1
    assert split >= 8


def test_hn_cheng_builds_one_space_and_no_presentation(monkeypatch):
    """One build_A_alpha per call and no presentation algebra: on a module
    generated at alpha with no relation there, the fiber submodule is the
    module itself, with no join and no minimize; the splits happen on
    subquotients, and A_alpha is read off the fiber classes, so no fiber
    model is built."""
    calls = {"build_A_alpha": 0, "minimize": 0, "kernel": 0,
             "submodule_presentation": 0, "quotient_presentation": 0,
             "PointwiseModel": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*a, **k):
            calls[name] += 1
            return real(*a, **k)
        monkeypatch.setattr(owner, name, wrapped)
    counting(cheng, "build_A_alpha")
    for name in ("minimize", "kernel", "submodule_presentation",
                 "quotient_presentation", "PointwiseModel"):
        counting(grmat, name)
    G = Grid([Fr(k) for k in range(5)], [Fr(k) for k in range(5)])
    rng = random.Random(1414)
    runs = split = 0
    for k in range(12):
        M = random_unigen_module(rng, F3 if k % 2 else F2, rng.randrange(3, 6))
        fl = hn_cheng(M, G, M.row_degrees[0], seed=k)
        runs += 1
        split += len(fl.factors) > 1
    assert split >= 3
    assert calls == {"build_A_alpha": runs, "minimize": 0, "kernel": 0,
                     "submodule_presentation": 0, "quotient_presentation": 0,
                     "PointwiseModel": 0}
