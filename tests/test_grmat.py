import collections
import functools
import itertools
import math
import random
from fractions import Fraction as Fr
from math import lcm

import pytest

from skyhn import field as fieldmod
from skyhn import grmat, hn_core
from skyhn.field import PrimeField
from skyhn.grmat import deg_leq, induced_grid

from conftest import (F2, F3, F5, cut_presentations, disguise, gm,
                      hidden_corpus, plain_ranks, random_bounded_module,
                      random_unigen_module, rescaled)

import reference


def test_degree_lattice():
    assert deg_leq((0, 1), (1, 1))
    assert not deg_leq((2, 0), (1, 1))


def test_as_degree_coerces_and_keeps_fractions():
    half, three = Fr(1, 2), Fr(3)
    for d in [(1, 3), ("1/2", "3"), (half, three), [half, 3], ["1/2", three]]:
        got = grmat.as_degree(d)
        assert type(got) is tuple
        assert all(type(c) is Fr for c in got)
        assert got == (Fr(d[0]), Fr(d[1]))
    got = grmat.as_degree((half, three))
    assert got[0] is half and got[1] is three
    assert grmat.as_degree([half, "3"])[0] is half
    with pytest.raises(ValueError):
        grmat.as_degree(("x", 1))
    with pytest.raises(ValueError):
        grmat.as_degree((1, "x"))


def test_homogeneity_validated():
    with pytest.raises(ValueError, match="inhomogeneous"):
        gm(F2, [(0, 1)], [((0, 0), [(0, 1)])])
    # matrices built from integer ranks are validated on the ranks
    ax, ay = grmat.Axis([Fr(-1, 2), Fr(1, 3)]), grmat.Axis([Fr(0), Fr(5, 2)])
    with pytest.raises(ValueError, match="inhomogeneous"):
        grmat._from_ranks(F2, ax, ay, [(0, 1)], [(1, 0)], [[(0, 1)]])
    M = grmat._from_ranks(F2, ax, ay, [(0, 0)], [(1, 1)], [[(0, 1)]])
    assert M == gm(F2, [(Fr(-1, 2), 0)], [((Fr(1, 3), Fr(5, 2)), [(0, 1)])])


def test_induced_grid_cross(cross):
    G = induced_grid(cross)
    assert G.xs == [Fr(0), Fr(1), Fr(3)]
    assert G.ys == [Fr(0), Fr(1), Fr(2), Fr(3)]


def test_grid_floor_ceil(cross):
    """Grid.index: per axis the index of the largest coordinate <= the
    point's (-1 below them all), and whether the point is a grid point."""
    G = induced_grid(cross)
    assert G.index((Fr(1, 2), Fr(17, 10))) == (0, 1, False)
    assert G.index((Fr(3), Fr(2))) == (2, 2, True)
    assert G.index((Fr(1), Fr(7, 2))) == (1, 3, False)
    assert G.index((Fr(-1), Fr(0))) == (-1, 0, False)


def test_grid_coordinates_match_fraction_sets():
    # the axis lists equal the sorted set of Fraction(c), and coordinates
    # that already are Fractions are kept as they are
    half = Fr(1, 2)
    cases = [[3, 1, 2, 1, 0, -2],
             ["1/2", "0.5", "3", "2/4", "-1", "1/3"],
             [half, Fr(2, 4), Fr(1, 2), Fr(3), Fr(-1, 3), Fr(3, 1)],
             [1, "1", Fr(1), Fr(2, 2), "1/3", Fr(1, 3), 0]]
    for xs in cases:
        ys = list(reversed(xs))
        G = grmat.Grid(xs, ys)
        assert G.xs == sorted({Fr(x) for x in xs})
        assert G.ys == sorted({Fr(y) for y in ys})
        assert all(type(c) is Fr for c in G.xs + G.ys)
    G = grmat.Grid([half], [half, 1])
    assert G.xs[0] is half and G.ys[0] is half
    assert grmat.Grid([], []).xs == []


def _random_rational(rng):
    return Fr(rng.randrange(-12, 13), rng.choice([1, 2, 3, 4, 6, 7, 12]))


def test_axis_floor_matches_bisect_on_fractions():
    """Axis.floor against the reference floor on the sorted set of
    Fractions: axes of random rationals with negatives and duplicates, the
    empty axis among them, floored at their own coordinates (exact hits),
    at values below every coordinate and at random rationals, each twice
    (the second a memo hit)."""
    rng = random.Random(37)
    for trial in range(300):
        frs = [_random_rational(rng) for _ in range(rng.randrange(0, 9))]
        frs += rng.sample(frs, len(frs) // 2)           # duplicates
        ref = sorted(set(frs))
        axis = grmat.Axis(frs)
        assert axis.coords == ref, trial
        assert axis.ints == [c * axis.den for c in ref], trial
        probes = list(frs) + [_random_rational(rng) for _ in range(8)]
        probes.append((ref[0] if ref else Fr(0)) - Fr(1, 5))     # below all
        for v in probes + probes:
            i = reference.floor(ref, v)
            assert axis.floor(v) == (i, i >= 0 and ref[i] == v), (trial, v)
    assert grmat.Axis([]).floor(Fr(3)) == (-1, False)


def _around(cs):
    """The coordinates, their midpoints, and points below and beyond them
    all."""
    mids = [(a + b) / 2 for a, b in zip(cs, cs[1:])]
    return cs + mids + [cs[0] - 1, cs[-1] + 1, cs[0] - Fr(1, 3),
                        cs[-1] + Fr(2, 7)]


def test_cut_axes_floor_as_fresh_ones():
    """An axis that _from_ranks cuts (Axis.sub) keeps the den of the axis
    it was cut from, a multiple of the lcm of its own denominators, and
    one it drops nothing from is the source's own; its
    floors, memoized or not, equal those of a fresh Axis of its
    coordinates at points below, between, on and above them, and its
    coordinates, keys and ranks are those of the matrix built afresh from
    the same degrees: on what minimize, extract_block, join_degrees and
    quotient_presentation make of random modules over GF(2) and GF(3) and
    of their rescaled copies (cut_presentations)."""
    rng = random.Random(38)
    seen = collections.Counter()
    for i in range(60):
        for op, src, N in cut_presentations(rng, (F2, F3)[i % 2]):
            fresh = grmat.GradedMatrix(N.field, N.row_degrees,
                                       N.col_degrees, N.columns)
            assert plain_ranks(N) == plain_ranks(fresh), op
            for a, b, s in zip(N._ranks, fresh._ranks, src._ranks[:2]):
                seen[op] += len(a.coords) < len(s.coords)
                seen["den above the lcm"] += a.den != b.den
                if len(a.coords) == len(s.coords) and op != "join_degrees":
                    assert a is s, op       # nothing dropped: shared
                    seen["shared"] += 1
                assert a.den % b.den == 0, op
                probes = _around(a.coords) + [
                    Fr(rng.randrange(-12, 13), rng.choice([1, 2, 3, 6]))
                    for _ in range(4)]
                for v in probes + probes:
                    want = b.floor(v)
                    assert a.floor_ratio(*v.as_integer_ratio()) == want, op
                    assert a.floor(v) == want, op
    assert min(seen.values()) >= 20, seen


def test_lattice_indices_match_fraction_arithmetic():
    """Lattice.ceil and floor against math.ceil and math.floor of v/eps,
    and Lattice.ratio(k) against Fraction(k*eps).as_integer_ratio(), for
    random positive eps and rationals v of either sign, lattice points
    among them; a lattice of eps <= 0 is refused."""
    rng = random.Random(41)
    for trial in range(300):
        eps = Fr(rng.randrange(1, 13), rng.randrange(1, 13))
        lat = grmat.Lattice(eps)
        assert lat.epsilon == eps
        for v in [_random_rational(rng) for _ in range(6)] + [
                rng.randrange(-9, 10) * eps]:
            n, d = v.as_integer_ratio()
            assert lat.ceil(n, d) == math.ceil(v / eps), (eps, v)
            assert lat.floor(n, d) == math.floor(v / eps), (eps, v)
            # the same on an unreduced ratio of v
            assert lat.floor(3 * n, 3 * d) == math.floor(v / eps), (eps, v)
        for k in range(-6, 7):
            assert lat.ratio(k) == Fr(k * eps).as_integer_ratio(), (eps, k)
    box = (Fr(-1, 2), Fr(0), Fr(3, 2), Fr(1))
    lat = grmat.Lattice(Fr(1, 2))
    assert lat.indices(box) == (-1, 0, 3, 2)
    assert lat.points(lat.indices(box)) == (
        [Fr(-1, 2), Fr(0), Fr(1, 2), Fr(1)], [Fr(0), Fr(1, 2)])
    for bad in (0, Fr(-1, 2), -1, "0"):
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            grmat.Lattice(bad)


def test_over_lcm_puts_fractions_on_one_denominator():
    # each case against den = lcm of the denominators and n/d * den
    cases = [[Fr(-3, 4), Fr(0), Fr(5, 6), Fr(-1, 3)],
             [Fr(1, 2), Fr(1, 3), Fr(1, 5), Fr(7, 10)],
             [Fr(-7, 9)], [Fr(0)], [Fr(2), Fr(-1)],
             [Fr(5, 6), Fr(1, 4), Fr(5, 6), Fr(-1, 4)]]
    for frs in cases:
        den, ints = grmat._over_lcm(frs)
        assert den == lcm(*(c.denominator for c in frs))
        assert all(type(n) is int for n in ints)
        assert [Fr(n, den) for n in ints] == frs       # in the given order
    assert grmat._over_lcm([Fr(-3, 4), Fr(0), Fr(5, 6)]) == (12, [-9, 0, 10])
    assert grmat._over_lcm([Fr(-7, 9)]) == (9, [-7])
    assert grmat._over_lcm([Fr(1, 3), Fr(-1, 2), Fr(1, 3)]) == (6, [2, -3, 2])
    assert grmat._over_lcm([]) == (1, [])


def test_kernel_two_vertical_columns(cross):
    # restrict to g1's two relations: single syzygy at the join (1,3)
    M = grmat.extract_block(cross, [0], [0, 1])
    K = grmat.kernel(M)
    assert K.ncols == 1
    assert K.col_degrees[0] == (Fr(1), Fr(3))


def test_minimize_leaves_minimal_unchanged(cross):
    assert grmat.minimize(cross) == cross


def test_minimize_cancels_unit_pivot():
    M = gm(F2, [(0, 0), (1, 1)], [((1, 1), [(0, 1), (1, 1)])])
    Mm = grmat.minimize(M)
    assert Mm.nrows == 1 and Mm.ncols == 0


def test_minimize_prunes_dominated_column():
    # x*e1 then x^2*e1: the second column is redundant
    M = gm(F2, [(0, 0)], [((1, 0), [(0, 1)]), ((2, 0), [(0, 1)])])
    Mm = grmat.minimize(M)
    assert Mm.ncols == 1
    assert Mm.col_degrees == [(Fr(1), Fr(0))]


def test_submodule_presentation_vertical_slice(cross):
    alpha = (Fr(0), Fr(1))
    S = grmat.GradedMatrix(F2, cross.row_degrees, [alpha], [[(0, 1)]])
    N = grmat.minimize(grmat.submodule_presentation(cross, S))
    assert N.row_degrees == [alpha]
    assert sorted(N.col_degrees) == [(Fr(0), Fr(3)), (Fr(1), Fr(1))]


def test_quotient_presentation_horizontal_factor(cross):
    sub = grmat.fiber_submodule(cross, (Fr(0), Fr(1)))
    # quotient by the vertical line e_v; identify which generator spans the
    # vertical piece: its relations are at (1,1) and (0,3)
    cols_for = {i: sorted(sub.col_degrees[j] for j in range(sub.ncols)
                          if any(r == i for r, _ in sub.columns[j]))
                for i in range(sub.nrows)}
    vrow = next(i for i, degs in cols_for.items()
                if (Fr(1), Fr(1)) in degs)
    vec = [0] * sub.nrows
    vec[vrow] = 1
    Q = grmat.quotient_presentation(sub, [vec])
    assert Q.nrows == 1
    assert sorted(Q.col_degrees[j] for j in range(Q.ncols)) == \
        [(Fr(0), Fr(2)), (Fr(3), Fr(1))]


def test_quotient_rejects_degenerate_basis(cross):
    sub = grmat.fiber_submodule(cross, (Fr(0), Fr(1)))
    with pytest.raises(ValueError, match="independent"):
        grmat.quotient_presentation(sub, [[1, 1], [1, 1]])
    for basis in ([[1, 0, 1]], [[1, 0], [1]]):
        with pytest.raises(ValueError, match="length"):
            grmat.quotient_presentation(sub, basis)


def test_pointwise_dims_and_structure_map(cross):
    assert grmat.pointwise_model(cross, (Fr(0), Fr(1))).dim == 2
    assert grmat.pointwise_model(cross, (Fr(0), Fr(2))).dim == 1
    assert grmat.pointwise_model(cross, (Fr(5), Fr(5))).dim == 0
    a, b = (Fr(0), Fr(1)), (Fr(0), Fr(2))
    sm = grmat.structure_map(cross, a, b)
    assert reference.rank(2, sm.columns()) == reference.map_rank(cross, a, b) \
        == 1


def test_connected_components(cross):
    comps = grmat.connected_components(cross)
    assert sorted(tuple(r) for r, _ in comps) == [(0,), (1,)]


def test_direct_sum_dims(cross):
    MM = grmat.direct_sum(cross, cross)
    for pt in induced_grid(cross).points():
        assert grmat.pointwise_model(MM, pt).dim == \
            2 * grmat.pointwise_model(cross, pt).dim


# ---------------------------------------------------------------------------
# differential tests: kernel and minimize against the Fraction-comparing,
# restart-loop versions they replaced

def _kernel_reference(M):
    """kernel with the colex sweep and filters comparing Fraction degrees."""
    F = M.field
    q, n = F.q, M.ncols
    if n == 0:
        return grmat.GradedMatrix(F, [], [], [])
    xs = sorted({d[0] for d in M.col_degrees})
    ys = sorted({d[1] for d in M.col_degrees})
    dense_cols = [M.dense_column(j) for j in range(n)]
    gens = []
    seen_active = set()
    for y in ys:
        for x in xs:
            delta = (x, y)
            J = tuple(j for j in range(n)
                      if reference.leq(M.col_degrees[j], delta))
            if not J or J in seen_active:
                continue
            seen_active.add(J)
            _, _, combos = reference.reduce_columns(
                q, [dense_cols[j] for j in J])
            if not combos:
                continue
            ech = {}
            for gdeg, gvec in gens:
                if reference.leq(gdeg, delta):
                    reference.insert(q, ech, [gvec[j] for j in J])
            for combo in combos:
                rem = reference.insert(q, ech, combo)
                if rem is not None:
                    full = [F.zero] * n
                    for idx, j in enumerate(J):
                        full[j] = rem[idx]
                    gens.append((delta, full))
    cols = [[(i, v) for i, v in enumerate(gvec) if v != F.zero]
            for _, gvec in gens]
    return grmat.GradedMatrix(F, list(M.col_degrees), [g for g, _ in gens],
                              cols)


def _minimize_reference(M):
    """minimize with step (b) as "delete the first redundant column,
    restart", comparing Fraction degrees."""
    F = M.field
    z = F.zero
    row_degs = list(M.row_degrees)
    col_degs = list(M.col_degrees)
    cols = [M.dense_column(j) for j in range(M.ncols)]
    while True:
        hit = None
        for j, cd in enumerate(col_degs):
            for i, v in enumerate(cols[j]):
                if v != z and row_degs[i] == cd:
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            break
        i, j = hit
        piv = cols[j]
        piv_inv = F.inv(piv[i])
        for j2 in range(len(cols)):
            if j2 == j or cols[j2][i] == z:
                continue
            c = cols[j2][i] * piv_inv % F.q
            col2 = cols[j2]
            for r in range(len(row_degs)):
                if piv[r] != z:
                    col2[r] = (col2[r] - c * piv[r]) % F.q
        del cols[j]
        del col_degs[j]
        for col in cols:
            del col[i]
        del row_degs[i]
    changed = True
    while changed:
        changed = False
        for j in range(len(cols)):
            others = [cols[j2] for j2 in range(len(cols))
                      if j2 != j and reference.leq(col_degs[j2], col_degs[j])]
            if reference.in_span(F.q, others, cols[j]):
                del cols[j]
                del col_degs[j]
                changed = True
                break
    return grmat.GradedMatrix(F, row_degs, col_degs,
                              [list(enumerate(c)) for c in cols])


_COORDS = [Fr(k, den) for den in (1, 2, 3) for k in range(0, 3 * den + 1)]


def _random_presentation(rng, F):
    """Random homogeneous presentation with degrees over denominators 1, 2
    and 3, mixing in zero columns, unit pivots, several dependent columns
    at one degree and combinations of lower columns pushed up."""
    coords = sorted(set(rng.sample(_COORDS, rng.randrange(2, 7))))
    rows = [(rng.choice(coords), rng.choice(coords))
            for _ in range(rng.randrange(1, 6))]
    col_degs, cols = [], []

    def add(d, col):
        col_degs.append(d)
        cols.append(col)

    for _ in range(rng.randrange(1, 13)):
        d = (rng.choice(coords), rng.choice(coords))
        live = [i for i, r in enumerate(rows) if deg_leq(r, d)]
        kind = rng.randrange(6)
        if kind == 0 or not live:
            add(d, [0] * len(rows))
        elif kind == 1 and cols:
            # a combination of earlier columns, at the join of their degrees
            picks = rng.sample(range(len(cols)), min(len(cols), 3))
            deg = d
            comb = [0] * len(rows)
            for j in picks:
                deg = reference.join(deg, col_degs[j])
                c = rng.randrange(F.q)
                comb = [(a + c * b) % F.q for a, b in zip(comb, cols[j])]
            add(deg, comb)
        else:
            col = [0] * len(rows)
            for i in live:
                col[i] = rng.randrange(F.q)
            for _ in range(rng.randrange(1, 4) if kind == 2 else 1):
                add(d, list(col))
                col = [rng.randrange(1, F.q) * x % F.q for x in col]
    order = list(range(len(cols)))
    rng.shuffle(order)
    return grmat.GradedMatrix(F, rows, [col_degs[j] for j in order],
                              [list(enumerate(cols[j])) for j in order])


def _submodule_inputs(rng, F):
    """Submodule presentations of a random bounded module at a random
    fiber, the input shape of the HN engines' minimize calls."""
    M = random_bounded_module(rng, F, rng.randrange(1, 5))
    pts = list(grmat.induced_grid(M).points())
    rng.shuffle(pts)
    for alpha in pts[:3]:
        pm = grmat.pointwise_model(M, alpha)
        if pm.dim == 0:
            continue
        S = grmat.GradedMatrix(F, M.row_degrees, [alpha] * pm.dim,
                               [[(i, 1)] for i in pm.basis_rows])
        yield S, M


def test_kernel_and_minimize_match_reference():
    rng = random.Random(3141)
    fields = [F2, F3, PrimeField(5)]
    seen_pruned = 0
    for trial in range(180):
        F = fields[trial % 3]
        M = _random_presentation(rng, F)
        assert grmat.kernel(M) == _kernel_reference(M)
        Mm = grmat.minimize(M)
        assert Mm == _minimize_reference(M)
        seen_pruned += Mm.ncols < M.ncols
        for S, B in _submodule_inputs(rng, F):
            concat = grmat.GradedMatrix(F, B.row_degrees,
                                        S.col_degrees + B.col_degrees,
                                        S.columns + B.columns)
            assert grmat.kernel(concat) == _kernel_reference(concat)
            N = grmat.submodule_presentation(B, S)
            assert grmat.minimize(N) == _minimize_reference(N)
    assert seen_pruned > 60
    # generators and no relations: the kernel is the empty matrix
    for F in fields:
        M = grmat.GradedMatrix(F, [(Fr(0), Fr(1)), (Fr(1, 2), Fr(0))], [], [])
        assert grmat.kernel(M) == _kernel_reference(M) == \
            grmat.GradedMatrix(F, [], [], [])


def test_echelon_matches_reference(monkeypatch):
    """The merged echelon returns the reference's remainders and pivots,
    and insert its independence flag; over GF(2) its
    bitmask form and its ``% q`` list form (forced by building one echelon
    while _vector_form gives fieldmod._ListVectors) store the same
    columns."""
    rng = random.Random(31)
    for F in [F2, F3, PrimeField(7)]:
        els = list(F.elements())
        for _ in range(60):
            n = rng.randrange(0, 6)
            got, want = grmat._Echelon(F, n), {}
            flags = grmat._Echelon(F, n)
            with monkeypatch.context() as mp:
                mp.setattr(fieldmod, "_vector_form", fieldmod._ListVectors)
                lists = grmat._Echelon(F, n)
            assert isinstance(lists.form, fieldmod._ListVectors)
            for _ in range(rng.randrange(0, 9)):
                v = [rng.choice(els) if rng.random() < 0.5 else F.zero
                     for _ in range(n)]
                assert got.reduce(v) == lists.reduce(v)
                rem = reference.insert(F.q, want, v)
                assert got.insert_reduced(v) == rem == lists.insert_reduced(v)
                assert flags.insert(v) is (rem is not None)
                assert got.basis_columns() == list(want.values()) \
                    == lists.basis_columns()
                assert got.pivots.keys() == want.keys()
                assert flags.pivots == got.pivots
                assert lists.pivots == want
                assert [got.form.unpack(v, n)
                        for v in got.form.reduced(got.pivots)] \
                    == lists.form.reduced(lists.pivots)


def test_echelon_reduce_clears_pivots():
    """reduce(v) is zero on every pivot row and differs from v by a vector
    of the span."""
    rng = random.Random(37)
    for F in [F2, F3, PrimeField(7)]:
        els = list(F.elements())
        for _ in range(60):
            n = rng.randrange(1, 6)
            ech = grmat._Echelon(F, n)
            for _ in range(rng.randrange(0, n + 1)):
                ech.insert([rng.choice(els) for _ in range(n)])
            v = [rng.choice(els) for _ in range(n)]
            r = ech.reduce(v)
            assert all(r[piv] == F.zero for piv in ech.pivots)
            assert reference.in_span(F.q, ech.basis_columns(),
                                     [(a - b) % F.q for a, b in zip(v, r)])


def test_graded_matrix_rejects_non_prime_fields():
    E = fieldmod.ext_field_build(2, 2)
    with pytest.raises(ValueError, match="prime field"):
        grmat.GradedMatrix(E, [(0, 0)], [(1, 0)], [[(0, (1, 0))]])
    with pytest.raises(ValueError, match="prime field"):
        grmat.GradedMatrix(E, [], [], [])


def test_decompose_hidden_direct_sums():
    """The pieces of the minimal presentation of a hidden direct sum are
    non-zero and add up to it pointwise on its induced grid, the same input
    gives the same pieces, and most inputs split into at least as many
    pieces as summands were hidden."""
    corpus = hidden_corpus()
    found = 0
    for F, k, M in corpus:
        M = grmat.minimize(M)       # decompose takes a minimal block
        pieces = grmat.decompose(M)
        assert all(p.field == F and p.nrows for p in pieces)
        pts = reference.points(*reference.axes(M))
        assert reference.sum_dims(pieces, pts) == reference.sum_dims([M], pts)
        assert grmat.decompose(M) == pieces
        found += len(pieces) >= k
    assert found >= 0.8 * len(corpus)


def test_decompose_keeps_indecomposables_whole(stable, cross):
    assert grmat.decompose(stable) == [stable]
    for rows, cols in grmat.connected_components(cross):
        block = grmat.extract_block(cross, rows, cols)
        assert grmat.decompose(block) == [block]
    # one relation less and the stable module splits in two
    M = grmat.extract_block(stable, [0, 1], [0, 1, 3, 4])
    assert sorted(p.nrows for p in grmat.decompose(M)) == [1, 1]


def _mixed_degree_block():
    return gm(F3, [(0, 1), (0, 0)],
              [((1, 3), [(0, 2), (1, 1)]), ((2, 1), [(0, 1), (1, 1)]),
               ((3, 1), [(0, 1)]), ((0, 3), [(0, 1)]), ((3, 0), [(1, 1)]),
               ((0, 3), [(1, 1)]), ((4, 1), [(0, 1)]), ((0, 4), [(0, 1)]),
               ((4, 0), [(1, 1)]), ((0, 4), [(1, 1)])])


def test_decompose_mixed_degree_block():
    """A GF(3) block with generators at (0,1) and (0,0) whose split needs
    the graded change of generators: E's generator columns are picked per
    degree, modulo the picks strictly below it."""
    M = _mixed_degree_block()
    pieces = grmat.decompose(M)
    assert sorted(p.row_degrees for p in pieces) == [
        [(Fr(0), Fr(0))], [(Fr(0), Fr(1))]]
    pts = reference.points(*reference.axes(M))
    assert reference.sum_dims(pieces, pts) == reference.sum_dims([M], pts)


def _moved(M, g):
    """M translated so that its first generator lies at the degree g."""
    dx, dy = g[0] - M.row_degrees[0][0], g[1] - M.row_degrees[0][1]
    return gm(M.field, [(x + dx, y + dy) for x, y in M.row_degrees],
              [((x + dx, y + dy), col)
               for (x, y), col in zip(M.col_degrees, M.columns)])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 31])
def test_decompose_splits_one_generator_parts(q, monkeypatch):
    """The minimal presentation of a disguised direct sum of 2-4
    one-generator parts comes back as many non-zero pieces as it has
    non-zero parts, over every prime field (each part is indecomposable,
    so every split was found), and the pieces add up to it pointwise.  So do sums of 5-7 parts all generated at one degree,
    whose split trees run three or more levels deep: a split hands each
    corner on to its children."""
    F = PrimeField(q)
    rng = random.Random(2027)
    depth, deepest = {}, []
    real = grmat._eigen_split

    def split(F, draw, U, W, rng):
        level = depth.setdefault(id(U), 0)
        parts = real(F, draw, U, W, rng)
        for child, _ in parts or ():
            depth[id(child)] = level + 1
            deepest.append(level + 1)
        return parts
    monkeypatch.setattr(grmat, "_eigen_split", split)

    def check(parts):
        # decompose takes a minimal block
        M = grmat.minimize(disguise(rng, functools.reduce(grmat.direct_sum,
                                                          parts)))
        depth.clear()
        pieces = grmat.decompose(M)
        assert sum(p.nrows > 0 for p in pieces) == \
            sum(grmat.minimize(p).nrows > 0 for p in parts)
        pts = reference.points(*reference.axes(M))
        assert reference.sum_dims(pieces, pts) == reference.sum_dims([M], pts)
    for _ in range(60):
        check([(random_bounded_module if rng.random() < 0.5
                else random_unigen_module)(rng, F, 1, dmax=3)
               for _ in range(rng.randrange(2, 5))])
    del deepest[:]
    for _ in range(6):
        g = (Fr(rng.randrange(3)), Fr(rng.randrange(3)))
        check([_moved(random_unigen_module(rng, F, 1, dmax=4), g)
               for _ in range(rng.randrange(5, 8))])
    assert max(deepest) >= 3


def test_gf2_decompose_runs_no_list_primitive(monkeypatch):
    """A GF(2) block is decomposed on bitmasks alone: no list vector form
    is asked for and no _ListVectors primitive runs."""
    rng = random.Random(2029)
    blocks = [M for F, _, M in hidden_corpus(n=12, seed=33) if F == F2]
    for _ in range(4):
        parts = [_moved(random_unigen_module(rng, F2, 1, dmax=4), (0, 0))
                 for _ in range(6)]
        blocks.append(disguise(rng, functools.reduce(grmat.direct_sum,
                                                     parts)))

    def refuse(*args, **kwargs):
        raise AssertionError("a list vector primitive ran on GF(2)")
    for name in ("pack", "unpack", "zero", "place", "slice", "combine",
                 "times", "apply", "reduce", "reduced"):
        monkeypatch.setattr(fieldmod._ListVectors, name, refuse)
    monkeypatch.setattr(fieldmod, "_insert_generic", refuse)
    forms = fieldmod._vector_form

    def form_of(q):
        assert q == 2
        return forms(q)
    monkeypatch.setattr(fieldmod, "_vector_form", form_of)
    pieces = [len(grmat.decompose(M)) for M in blocks]
    assert sum(n > 1 for n in pieces[:-4]) >= 2
    assert pieces[-4:] == [6] * 4


def test_decompose_splits_isomorphic_summands(monkeypatch):
    """Two copies of one interval module: End(M)_0 is M_2(F_2), where a
    uniform draw splits with probability 3/8 only, so 8 draws miss the
    split for about 2.3% of seeds.  The follow-up draw E.X.E.(Y - c.E)
    after a draw with one eigenvalue brings that below 0.5%.  Over GF(3),
    where _eigenvalue draws, two copies take the rank-2 closed form's
    nilpotent branch and follow-up draw, and miss the split for 1 seed of
    the 2000, as the general Fitting path did."""
    M = gm(F2, [(0, 0), (0, 0)], [((1, 0), [(0, 1)]), ((0, 1), [(0, 1)]),
                                  ((1, 0), [(1, 1)]), ((0, 1), [(1, 1)])])
    missed = 0
    for seed in range(2000):
        monkeypatch.setattr(grmat, "_SPLIT_SEED", seed)
        missed += len(grmat.decompose(M)) < 2
    assert missed <= 10
    M = gm(F3, M.row_degrees, list(zip(M.col_degrees, M.columns)))
    nilpotent, real = [], grmat._fitting2

    def fitting2(F, Y, v, rng):
        c, Y, fit = real(F, Y, v, rng)
        nilpotent.append(c is not None and fit is None)
        return c, Y, fit
    monkeypatch.setattr(grmat, "_fitting2", fitting2)
    missed = 0
    for seed in range(2000):
        monkeypatch.setattr(grmat, "_SPLIT_SEED", seed)
        missed += len(grmat.decompose(M)) < 2
    assert missed <= 1
    assert any(nilpotent)


def _columns(F, rows):
    """The column list, in the vector form of F, of a row-major matrix."""
    form = fieldmod._vector_form(F.q)
    return [form.pack(list(col)) for col in zip(*rows)]


def test_split_checks_every_projection(stable, cross):
    """_split raises on idempotents whose images do not give t generators,
    on a change of generators that is not graded, and on pieces whose
    block parts leave the relations below a relation's degree."""
    one, two = _columns(F2, [[1, 0], [0, 0]]), _columns(F2, [[0, 0], [0, 1]])
    with pytest.raises(AssertionError, match="1 generators for 2"):
        grmat._split(stable, [one])
    with pytest.raises(AssertionError, match="4 generators for 2"):
        grmat._split(stable, [one, two, one, two])
    with pytest.raises(AssertionError, match="not graded"):
        grmat._split(cross, [_columns(F2, [[0, 0], [1, 1]]),
                             _columns(F2, [[1, 0], [1, 0]])])
    with pytest.raises(AssertionError, match="leaves R<=d"):
        grmat._split(stable, [one, two])
    # the graded idempotents of the cross module split it
    assert sorted(p.row_degrees for p in grmat._split(cross, [one, two])) \
        == [[(Fr(0), Fr(0))], [(Fr(0), Fr(1))]]


def _split_reference(M, idempotents):
    """_split as it was before it ran in one pass: each piece built from
    unpacked block parts and minimized, each block part checked for
    membership in the span of the relations below."""
    F, t = M.field, M.nrows
    form = fieldmod._vector_form(F.q)
    ax, ay, gd, rd = M._ranks
    picks, bounds = [], [0]
    for E in idempotents:
        mine = []
        for d in sorted(set(gd)):
            ech = {}
            for b, col in mine:
                if gd[b] != d and reference.leq(gd[b], d):
                    reference.insert(F.q, ech, form.unpack(col, t))
            mine += [(b, E[b]) for b in range(t) if gd[b] == d and
                     reference.insert(F.q, ech, form.unpack(E[b], t))]
        picks += mine
        bounds.append(len(picks))
    assert len(picks) == t
    T = [col for _, col in picks]
    Tinv = grmat._invert(F, T)
    nd = [gd[b] for b, _ in picks]
    Pn = [form.unpack(form.times(Tinv, form.pack(M.dense_column(j)), t), t)
          for j in range(M.ncols)]
    blocks = list(zip(bounds, bounds[1:]))
    mixed = {}
    for p, r in zip(Pn, rd):
        parts = [(lo, hi) for lo, hi in blocks if any(p[lo:hi])]
        if len(parts) > 1:
            mixed.setdefault(r, []).append((p, parts[:-1]))
    for d, rels in mixed.items():
        below = [p for p, r in zip(Pn, rd) if reference.leq(r, d)]
        assert all(reference.in_span(F.q, below,
                                     [0] * lo + p[lo:hi] + [0] * (t - hi))
                   for p, parts in rels for lo, hi in parts)
    out = []
    for lo, hi in blocks:
        cols, cdegs = [], []
        for p, r in zip(Pn, rd):
            part = [(i - lo, p[i]) for i in range(lo, hi) if p[i]]
            if part:
                cols.append(part)
                cdegs.append(r)
        out.append(grmat.minimize(
            grmat._from_ranks(F, ax, ay, nd[lo:hi], cdegs, cols)))
    return out


def _exactly(pieces):
    """Everything a piece holds: degrees, columns and coordinate ranks, with
    the coordinates and keys of its axes."""
    return [(p.field, p.row_degrees, p.col_degrees, p.columns, plain_ranks(p))
            for p in pieces]


def test_split_matches_reference(monkeypatch, stable):
    """_split gives byte-identical pieces to the reference on every split
    that decompose makes of hidden sums, disguised sums of one-generator
    parts over GF(2), GF(3) and GF(5), a disguised stable + interval +
    interval, whose stable piece has two generators and relations to
    choose between, and the mixed-degree fixture."""
    real, calls = grmat._split, []

    def split(M, idempotents):
        pieces = real(M, idempotents)
        ref = _split_reference(M, idempotents)
        assert _exactly(pieces) == _exactly(ref)
        calls.append(pieces)
        return pieces
    monkeypatch.setattr(grmat, "_split", split)
    rng = random.Random(2031)
    blocks = [grmat.minimize(M) for seed in (4242, 4243, 4244)
              for _, _, M in hidden_corpus(n=24, seed=seed)]
    for F in (F2, F3, F5):
        for _ in range(8):
            parts = [random_unigen_module(rng, F, 1, dmax=4)
                     for _ in range(rng.randrange(2, 5))]
            blocks.append(grmat.minimize(
                disguise(rng, functools.reduce(grmat.direct_sum, parts))))
    intervals = [gm(F2, [(0, 0)], [((2, 0), [(0, 1)]), ((0, 1), [(0, 1)])]),
                 gm(F2, [(1, 0)], [((3, 0), [(0, 1)]), ((1, 2), [(0, 1)])])]
    for _ in range(4):
        blocks.append(grmat.minimize(disguise(rng, functools.reduce(
            grmat.direct_sum, [stable] + intervals))))
    for M in blocks + [_mixed_degree_block()]:
        grmat.decompose(M)
    assert len(calls) >= 40
    # the stable piece came back with two generators each time
    assert sum(sorted(p.nrows for p in pieces) == [1, 1, 2]
               for pieces in calls) >= 4


class _BasisInt(int):
    """A GF(2) End(M)_0 basis matrix, packed as one vector, told apart by
    type: every operation on it returns a plain int."""


class _BasisList(list):
    """The same for a basis matrix over a larger field."""


def test_decompose_presents_once_and_conjugates_no_basis(monkeypatch):
    """All splitting happens among idempotents in M's coordinates: the
    final split runs at most once per decompose call, exactly when M does
    not come back whole, and no basis matrix of End(M)_0 enters a matrix
    product of the vector form's times but a draw's, whose columns (the
    left factor) are the whole basis: none is the right factor or a
    column of any other product, on GF(2), GF(3) and GF(5)."""
    splits, basis, products = [], [], collections.Counter()
    real_split, real_ends = grmat._split, grmat._endomorphisms
    tags = (_BasisInt, _BasisList)

    def split(M, idempotents):
        splits.append(len(idempotents))
        return real_split(M, idempotents)

    def ends(M):
        tag = _BasisInt if M.field.q == 2 else _BasisList
        basis[:] = [tag(X) for X in real_ends(M)]
        return basis

    def spy(q, times):
        def product(cols, v, n):
            assert cols is basis or not any(isinstance(c, tags)
                                            for c in cols)
            assert not isinstance(v, tags)
            products[q] += 1
            return times(cols, v, n)
        return product
    monkeypatch.setattr(grmat, "_split", split)
    monkeypatch.setattr(grmat, "_endomorphisms", ends)
    monkeypatch.setattr(fieldmod._F2Vectors, "times",
                        staticmethod(spy(2, fieldmod._F2Vectors.times)))
    for q in (3, 5):
        form = fieldmod._vector_form(q)
        monkeypatch.setattr(form, "times", spy(q, form.times))
    multi = 0
    for _, _, M in hidden_corpus(n=18, seed=31):
        M = grmat.minimize(M)
        del splits[:]
        pieces = grmat.decompose(M)
        # a minimal block has no zero piece
        assert len(splits) <= 1
        assert len(pieces) == (splits[0] if splits else 1)
        assert (len(splits) == 1) == (pieces != [M])
        multi += len(pieces) > 2
    assert multi >= 3
    assert all(products[q] for q in (2, 3, 5))


def _rank2_cases(q, rng):
    """(Y as four entries, column by column, and v != 0): every pair over
    GF(2) and GF(3); over larger fields random matrices, scalars plus a
    nilpotent, triangular ones and ones with a zero first column, with v
    random or e_0."""
    if q <= 3:
        for y in itertools.product(range(q), repeat=4):
            for v in itertools.product(range(q), repeat=2):
                if any(v):
                    yield y, v
        return
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        u0, u1, s = (rng.randrange(q) for _ in range(3))
        n = [u0 * -u1 * s, u1 * -u1 * s, u0 * u0 * s, u1 * u0 * s]
        y = rng.choice([[rng.randrange(q) for _ in range(4)],
                        [a + n[0], n[1], n[2], a + n[3]],
                        [a, 0, b, c], [a, 0, b, a], [0, 0, b, c]])
        v = rng.choice([(1, 0), (rng.randrange(1, q), rng.randrange(q))])
        yield [x % q for x in y], v


def _rank2_children(form, fit):
    """The idempotents U'.W' of the two children that _eigen_split cuts
    from a split of the 2 x 2 identity."""
    im, ker, Binv = fit
    n = len(im)
    return [grmat._product(form, B, [form.slice(x, lo, hi) for x in Binv], 2)
            for B, lo, hi in ((im, 0, n), (ker, n, 2))]


def test_rank2_closed_form_matches_fitting():
    """_fitting2 gives what the general Fitting path _fitting gives on
    every 2 x 2 matrix Y with every v != 0 over GF(2) and GF(3), and on
    random ones over GF(5), GF(7) and GF(65521): the same c, the same
    decision (no root, nilpotent with the same N = Y - c, or a split with
    the same bases and inverse, so the same children in the same order
    and the same idempotents), and the same state of rng after it.  The
    split's idempotents are idempotents that sum to the identity."""
    seen = collections.Counter()
    for q in (2, 3, 5, 7, 65521):
        F, form = PrimeField(q), fieldmod._vector_form(q)
        rng = random.Random(q)
        ident = [form.pack([1, 0]), form.pack([0, 1])]
        for y, v in _rank2_cases(q, rng):
            Y, v = [form.pack(list(y[:2])), form.pack(list(y[2:]))], \
                form.pack(list(v))
            seed, got = rng.random(), []
            for fitting in (grmat._fitting2, grmat._fitting):
                r = random.Random(seed)
                out = fitting(F, Y, v, r)
                got.append((out, r.getstate(), out[2] and
                            _rank2_children(form, out[2])))
            assert got[0] == got[1]
            (c, _, fit), _, children = got[0]
            seen[q, c is None, fit is None] += 1
            if children:
                e1, e2 = children
                assert grmat._product(form, e1, e1, 2) == e1
                assert [form.combine([(1, 0, x), (1, 0, y)], 2)
                        for x, y in zip(e1, e2)] == ident
    # every field sees a failed draw, a nilpotent Y - c and a split
    assert all(seen[q, False, nil] for q in (2, 3, 5, 7, 65521)
               for nil in (False, True))
    assert all(seen[q, True, True] for q in (2, 3, 5, 7, 65521))


def test_decompose_without_the_rank2_closed_form(monkeypatch):
    """decompose gives byte-identical pieces with _fitting in place of
    the closed form _fitting2, which it calls."""
    blocks = [grmat.minimize(M) for _, _, M in hidden_corpus(n=24)]
    calls, real = [], grmat._fitting2

    def fitting2(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(grmat, "_fitting2", fitting2)
    pieces = [_exactly(grmat.decompose(M)) for M in blocks]
    assert calls
    monkeypatch.setattr(grmat, "_fitting2", grmat._fitting)
    assert [_exactly(grmat.decompose(M)) for M in blocks] == pieces


def test_eigenvalue_finds_a_root_when_there_is_one():
    """_eigenvalue returns a root in F_q of a monic polynomial exactly when
    it has one, also for repeated roots and products of linear factors."""
    rng = random.Random(5)
    for q in (2, 3, 5, 13, 31):
        F = PrimeField(q)
        for _ in range(60):
            f = [1]
            for _ in range(rng.randrange(1, 6)):
                g = [rng.randrange(q) for _ in range(rng.randrange(1, 3))]
                f = fieldmod._poly_mul(F, f, g + [1])

            def at(c):
                return sum(x * c ** k for k, x in enumerate(f)) % q
            c = grmat._eigenvalue(F, f, rng)
            if c is None:
                assert all(at(x) for x in range(q))
            else:
                assert at(c) == 0


def _basis_columns(form, X, t):
    """The column list, in the vector form, of a t x t matrix X packed as
    one vector, column b at entries b*t..b*t+t-1."""
    return [form.slice(X, b, b + t) for b in range(0, t * t, t)]


def test_endomorphisms_of_a_direct_sum():
    """End of a hidden direct sum contains the identity, and every basis
    element, one vector of length t^2 in the vector form, is graded and
    maps each relation into the relations of degree below it."""
    for F, _, M in hidden_corpus(n=9, seed=7):
        t, form = M.nrows, fieldmod._vector_form(F.q)
        ends = grmat._endomorphisms(M)
        ech = {}
        for X in ends:
            cols = [form.unpack(col, t) for col in _basis_columns(form, X, t)]
            assert len(cols) == t
            assert all(not x or deg_leq(M.row_degrees[a], M.row_degrees[b])
                       for b, col in enumerate(cols)
                       for a, x in enumerate(col))
            assert reference.insert(F.q, ech,
                                    [x for col in cols for x in col])
            for j, d in enumerate(M.col_degrees):
                below = [M.dense_column(k)
                         for k, e in enumerate(M.col_degrees)
                         if reference.leq(e, d)]
                p = M.dense_column(j)
                assert reference.in_span(
                    F.q, below, [sum(col[a] * y for col, y in zip(cols, p))
                                 % F.q for a in range(t)])
        ident = [int(a == b) for b in range(t) for a in range(t)]
        assert reference.in_span(F.q, list(ech.values()), ident)


def test_inverse_of_base_changes():
    """_invert returns B^-1 for an invertible column list B and raises on
    a singular one, so a degenerate change of generators can never split
    a block."""
    rng = random.Random(11)
    for F in [F2, F3, PrimeField(5)]:
        form = fieldmod._vector_form(F.q)
        for _ in range(60):
            n = rng.randrange(1, 6)
            A = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
            B = [form.pack(col) for col in A]
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            if reference.rank(F.q, A) < n:
                with pytest.raises(AssertionError, match="singular"):
                    grmat._invert(F, B)
                continue
            Bi = grmat._invert(F, B)
            for X, Y in ((B, Bi), (Bi, B)):
                assert [form.unpack(c, n) for c in
                        grmat._product(form, X, Y, n)] == ident


def _fiber_submodule_by_kernel(M, alpha):
    """fiber_submodule by the kernel path alone: the fiber's basis
    generators at alpha, their relations from submodule_presentation."""
    pm = grmat.pointwise_model(M, alpha)
    if pm.dim == 0:
        return None
    S = grmat.GradedMatrix(M.field, M.row_degrees, [alpha] * pm.dim,
                           [[(i, 1)] for i in pm.basis_rows])
    return grmat.minimize(grmat.submodule_presentation(M, S))


def _points_above_generators(rng, M):
    """Points alpha >= every generator of M: grid points of M's induced
    grid, points off the grid, and points past every relation."""
    G = induced_grid(M)
    top = (max(d[0] for d in M.row_degrees), max(d[1] for d in M.row_degrees))
    pts = [p for p in G.points() if deg_leq(top, p)]
    rng.shuffle(pts)
    pts = pts[:4] + [top]
    off = [(x + Fr(1, 3), y + Fr(1, 2) * k) for x, y in pts[:2]
           for k in range(2)]
    return pts + off + [(G.xs[-1] + Fr(1, 2), G.ys[-1] + 1)]


def test_fiber_submodule_minimizes_a_relation_at_alpha():
    """A module generated at alpha is its own <V_alpha> only when no
    relation lies at alpha: one that does, with the fiber non-zero, is
    still minimized, to fewer generators, as the join path does it."""
    rng = random.Random(2729)
    cases = [gm(F3, [(1, 1)] * 3,
                [((1, 1), [(0, 1), (1, 2)]), ((2, 2), [(2, 1)])] +
                [(d, [(i, 1)]) for i in range(3) for d in ((4, 1), (1, 4))])]
    for k in range(20):
        M = random_unigen_module(rng, (F2, F3, F5)[k % 3],
                                 rng.randrange(2, 5))
        t, alpha = M.nrows, M.row_degrees[0]
        rel = [(i, rng.randrange(1, M.field.q)) for i in range(t - 1)
               if rng.random() < 0.7] or [(0, 1)]
        cases.append(gm(M.field, M.row_degrees,
                        list(zip(M.col_degrees, M.columns)) + [(alpha, rel)]))
    for M in cases:
        alpha = M.row_degrees[0]
        sub = grmat.fiber_submodule(M, alpha)
        assert sub is not None and 0 < sub.nrows < M.nrows
        assert sub == grmat.minimize(grmat.join_degrees(M, alpha))


def test_fiber_submodule_join_path_matches_kernel_path(monkeypatch):
    """Where every generator lies <= alpha, fiber_submodule joins the
    degrees with alpha and computes no kernel; its result presents the
    module of the kernel path: the same number of generators, the same
    pointwise dims and HN filtration, and it is minimal.  Elsewhere it is
    the kernel path."""
    rng = random.Random(907)
    modules = [random_bounded_module(rng, (F2, F3, F5)[i % 3],
                                     rng.randrange(1, 4), dmax=3)
               for i in range(15)]
    for _, _, M in hidden_corpus(n=9, seed=908, max_thickness=4):
        modules.append(M)
        modules += grmat.decompose(grmat.minimize(M))
    cases = [(M, alpha, _fiber_submodule_by_kernel(M, alpha))
             for M in modules for alpha in _points_above_generators(rng, M)]

    def no_kernel(M):
        raise AssertionError("the join path computed a kernel")
    monkeypatch.setattr(grmat, "kernel", no_kernel)
    got = [grmat.fiber_submodule(M, alpha) for M, alpha, _ in cases]
    monkeypatch.undo()
    cut = zero = 0
    for (M, alpha, want), sub in zip(cases, got):
        if want is None:
            assert sub is None, alpha
            zero += 1
            continue
        assert sub.nrows == want.nrows
        assert set(sub.row_degrees) == {alpha}
        assert all(sub.row_degrees[i] != sub.col_degrees[j]
                   for j, col in enumerate(sub.columns) for i, _ in col)
        (xa, ya), (xb, yb) = reference.axes(sub), reference.axes(want)
        pts = reference.points(sorted(set(xa + xb)), sorted(set(ya + yb)))
        assert reference.sum_dims([sub], pts) == \
            reference.sum_dims([want], pts)
        assert hn_core.hn_filtration_of(sub, alpha) == \
            hn_core.hn_filtration_of(want, alpha)
        cut += sub.nrows < M.nrows
    assert zero >= 20 and cut >= 20
    # below some generator's degree the kernel path is taken unchanged
    partial = 0
    for M in modules:
        top = (max(d[0] for d in M.row_degrees),
               max(d[1] for d in M.row_degrees))
        for alpha in induced_grid(M).points():
            if not deg_leq(top, alpha):
                partial += any(deg_leq(g, alpha) for g in M.row_degrees)
                assert grmat.fiber_submodule(M, alpha) == \
                    _fiber_submodule_by_kernel(M, alpha)
    assert partial >= 20


class _FractionModel:
    """grmat.PointwiseModel read off the reference's fiber at gamma, whose
    generators and relations <= gamma are picked with Fraction
    comparisons."""

    def __init__(self, M, gamma):
        self.n, self.fib = M.nrows, reference.fiber(M, gamma)
        self.live_rows = [i for i, ok in enumerate(self.fib[2]) if ok]
        self.basis_rows = reference.basis_rows(self.fib)
        self.dim = len(self.basis_rows)

    def reduce_vector(self, v):
        full = [0] * self.n
        for g, x in zip(self.live_rows, v):
            full[g] = x
        return reference.coordinates(self.fib, full)


def test_pointwise_model_on_ranks_matches_fraction_selection():
    """PointwiseModel picks the generators and relations <= gamma on M's
    coordinate ranks: its live_rows, basis_rows, dim and reduce_vector on
    random vectors equal those of a model that picks them with Fraction
    deg_leq, and image_rank of random live generators is the rank of
    their reduced unit vectors there, at gamma on, between, below and
    beyond M's grid coordinates,
    on random bounded modules with integer degrees and their rescaled
    copies (negative degrees over halves and thirds), and on matrices
    whose axes minimize, extract_block, join_degrees or
    quotient_presentation cut (cut_presentations), at gammas over thirds,
    halves and sevenths."""
    rng, cut = random.Random(17), random.Random(38)
    cases = 0
    for i in range(24):
        F = (F2, F3, F5)[i % 3]
        M = random_bounded_module(rng, F, rng.randrange(1, 5), dmax=4)
        # the cut matrices draw from their own generator, so the others
        # see the same draws as without them
        more = cut_presentations(cut, F) if i < 6 else []
        for r, N in [(rng, M), (rng, rescaled(M))] + [
                (cut, R) for _, _, R in more]:
            xs, ys = (a.coords for a in N._ranks[:2])
            gx = _around(xs) + [Fr(r.randrange(-9, 15), 3)
                                for _ in range(3)]
            gy = _around(ys) + [Fr(r.randrange(-9, 15), 2)
                                for _ in range(3)]
            for gamma in [(x, y) for x in gx for y in gy]:
                got, want = grmat.pointwise_model(N, gamma), \
                    _FractionModel(N, gamma)
                assert got.live_rows == want.live_rows, gamma
                assert got.basis_rows == want.basis_rows, gamma
                assert got.dim == want.dim, gamma
                for _ in range(2):
                    v = [r.randrange(F.q) for _ in got.live_rows]
                    assert got.reduce_vector(v) == want.reduce_vector(v)
                    rows = [g for g in got.live_rows if r.random() < 0.6]
                    assert got.image_rank(rows) == reference.rank(
                        F.q, [want.reduce_vector([int(g == i)
                                                  for g in want.live_rows])
                              for i in rows])
                cases += 1
    assert cases > 1000
