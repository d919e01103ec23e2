import random
from fractions import Fraction as Fr

import pytest

from skyhn import field as fieldmod
from skyhn import grmat, hn_core
from skyhn.field import PrimeField
from skyhn.hn_core import (brute_force_max_slope, gaussian_line_count,
                           hn_filtration_at, subspaces_of_dim)

from conftest import (F2, F3, class_dims, class_integral, gm,
                      random_bounded_module, random_unigen_module, rescaled)

import reference


def gaussian_binomial(q, n, k):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_subspace_enumeration_counts():
    for q, F in ((2, F2), (3, F3)):
        for t in range(1, 4):
            for k in range(0, t + 1):
                rows = list(subspaces_of_dim(F, t, k))
                assert rows == list(reference.subspaces(q, t, k))
                assert len(rows) == gaussian_binomial(q, t, k)


def test_subspaces_are_distinct():
    seen = set()
    for rows in subspaces_of_dim(F2, 3, 2):
        key = frozenset(tuple(r) for r in rows)
        assert key not in seen
        seen.add(key)


def test_gaussian_line_count():
    assert gaussian_line_count(2, 3) == 7
    assert gaussian_line_count(3, 2) == 4


def test_stable_whole_space_semistable(stable):
    rec = brute_force_max_slope(stable)
    assert rec.dim == 2
    assert rec.inv_slope == Fr(9, 2)
    assert rec.slope == Fr(2, 9)


def test_stable_lines_all_slope_one_fifth(stable):
    fc = hn_core.fiber_classes(stable)
    for rows in subspaces_of_dim(F2, 2, 1):
        assert class_integral(fc, fc.to_internal(rows)) == 5


def test_no_tie_whole_space_is_maximal(stable):
    # STABLE has no tie (2/9 > 1/5): the whole space is the unique
    # subspace of maximal slope
    rec = brute_force_max_slope(stable)
    assert rec.dim == 2


def test_ties_go_to_the_maximal_subspace():
    # two copies of one interval: every subspace has the same slope
    M = gm(F2, [(0, 0), (0, 0)],
           [((2, 0), [(0, 1)]), ((0, 2), [(0, 1)]),
            ((2, 0), [(1, 1)]), ((0, 2), [(1, 1)])])
    assert brute_force_max_slope(M).dim == 2


def test_hn_filtration_cross(cross):
    fl = hn_filtration_at(cross, (Fr(0), Fr(1)))
    assert [f.slope for f in fl.factors] == [Fr(1, 2), Fr(1, 3)]
    assert fl.factors[0].staircases[0].rels == [(Fr(0), Fr(3)), (Fr(1), Fr(1))]
    assert fl.factors[1].staircases[0].rels == [(Fr(0), Fr(2)), (Fr(3), Fr(1))]


def test_hn_empty_fiber(cross):
    assert len(hn_filtration_at(cross, (Fr(5), Fr(5)))) == 0


def test_hn_slopes_strictly_decrease_random(rng):
    for trial in range(40):
        F = F2 if trial % 2 else F3
        M = random_bounded_module(rng, F, rng.randrange(1, 4))
        G = grmat.induced_grid(M)
        pts = list(G.points())
        beta = pts[rng.randrange(len(pts))]
        fl = hn_filtration_at(M, beta)
        slopes = [f.slope for f in fl.factors]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_filter_equals_no_filter_random(rng):
    for trial in range(30):
        F = F2 if trial % 2 else F3
        M = random_bounded_module(rng, F, rng.randrange(1, 4))
        G = grmat.induced_grid(M)
        beta = list(G.points())[rng.randrange(len(list(G.points())))]
        a = hn_filtration_at(M, beta, use_filter=True)
        b = hn_filtration_at(M, beta, use_filter=False)
        assert a == b


def test_zero_thickness_rejected():
    M = gm(F2, [], [])
    with pytest.raises(ValueError):
        brute_force_max_slope(M)


# ---------------------------------------------------------------------------
# differential check of the integer class scoring against Fraction sums

def _mixed_unigen_module(rng, F, thickness):
    """Bounded module generated at one degree, with degree coordinates over
    denominators 2, 3 and 5, so the common denominator is a real lcm."""
    def coord():
        return Fr(rng.randrange(0, 8), rng.choice((1, 2, 3, 5)))

    g = (coord(), coord())
    rels = []
    for _ in range(rng.randrange(1, 2 * thickness + 2)):
        d = (g[0] + coord(), g[1] + coord() + Fr(1, 5))
        ents = [(j, c) for j in range(thickness)
                for c in [rng.randrange(F.q)] if c]
        if ents:
            rels.append((d, ents))
    cap = Fr(9, 2) + coord()
    for i in range(thickness):
        rels.append(((g[0] + cap, g[1]), [(i, 1)]))
        rels.append(((g[0], g[1] + cap), [(i, 1)]))
    return gm(F, [g] * thickness, rels)


def test_integer_scoring_matches_fraction_reference():
    rng = random.Random(235)
    for trial in range(24):
        F = (F2, F3, PrimeField(5), PrimeField(7))[trial % 4]
        t = 1 + trial % 3 if F.q < 5 else 1 + trial % 2
        M = _mixed_unigen_module(rng, F, t)
        fc = hn_core.fiber_classes(M)
        assert fc.at(fc.alpha).den > 1
        at, area = reference.dims(M), reference.integral(M)
        for k in range(1, t + 1):
            for rows in subspaces_of_dim(F, t, k):
                dims = at(rows)
                iv = fc.to_internal(rows)
                assert class_dims(fc, fc.ranks(iv)) == dims
                integ = class_integral(fc, iv)
                assert type(integ) is Fr
                assert integ == area(dims)
        rec = brute_force_max_slope(M)
        rows, dim, integ = reference.max_slope(M)
        assert rec.basis == rows
        assert (rec.dim, rec.integral) == (dim, integ)
        assert type(rec.integral) is Fr


# ---------------------------------------------------------------------------
# _FiberClasses on integer ranks against the Fraction-degree construction

class _ReferenceFiberClasses:
    """_FiberClasses as it was on Fraction degrees: deg_leq at every grid
    point and relation, classes keyed by grid points."""

    def __init__(self, M):
        F = M.field
        t = M.nrows
        self.xs, self.ys = xs, ys = reference.axes(M)
        self.alpha = ax, ay = M.row_degrees[0]
        wx, sx = hn_core._scaled_gaps(xs)
        wy, sy = hn_core._scaled_gaps(ys)
        self.scale, self.den = (sx, sy), sx * sy
        form = fieldmod._vector_form(F.q)
        dense = [form.pack(M.dense_column(j)) for j in range(M.ncols)]
        insert = form.insert
        class_by_J = {}
        self.point_class = {}
        self.echs, self.coranks, self.weights = [], [], []
        self.vert, self.horiz = [], []
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                pt = (x, y)
                if not reference.leq(self.alpha, pt):
                    self.point_class[pt] = -1
                    continue
                J = tuple(j for j in range(M.ncols)
                          if reference.leq(M.col_degrees[j], pt))
                cid = class_by_J.get(J)
                if cid is None:
                    ech = {}
                    rank = sum(insert({}, ech, dense[j]) for j in J)
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

    def rank_dims(self, ranks):
        return {pt: ranks[cid] if cid >= 0 else 0
                for pt, cid in self.point_class.items()}


def _staircases_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _fiber_class_modules():
    """Uniquely generated modules with integral, negative and non-integral
    degrees: random unigen modules, their rescaled copies, and fiber
    submodules of rescaled random modules at points on and off their grids
    (built from integer ranks by the join and kernel paths)."""
    rng = random.Random(2718)
    out = []
    for i in range(15):
        F = (F2, F3, PrimeField(5))[i % 3]
        M = random_unigen_module(rng, F, 1 + i % 3)
        out += [M, rescaled(M)]
    for i in range(12):
        M = rescaled(random_bounded_module(rng, (F2, F3)[i % 2],
                                           1 + i % 3, dmax=4))
        G = grmat.induced_grid(M)
        for x in G.xs[:3]:
            for y in G.ys[:3]:
                for alpha in ((x, y), (x + Fr(1, 7), y + Fr(2, 5))):
                    sub = grmat.fiber_submodule(M, alpha)
                    if sub is not None:
                        out.append(sub)
    return out


def test_fiber_classes_match_fraction_reference():
    n_subspaces = n_errors = 0
    for M in _fiber_class_modules():
        fc, ref = hn_core._FiberClasses(M), _ReferenceFiberClasses(M)
        xs, ys = (a.coords for a in fc.axes)
        assert (xs, ys) == (ref.xs, ref.ys)
        assert fc.alpha == ref.alpha
        assert {(xs[ix], ys[iy]): cid for (ix, iy), cid
                in fc.point_class.items()} == ref.point_class
        assert (fc.echs, fc.coranks) == (ref.echs, ref.coranks)
        w = fc.at(fc.alpha)
        assert (w.area, w.vert, w.horiz) == (ref.weights, ref.vert, ref.horiz)
        assert (w.scale, w.den) == (ref.scale, ref.den)
        cases = [(fc.coranks, M.nrows)]
        for k in range(1, M.nrows + 1):
            for rows in subspaces_of_dim(M.field, M.nrows, k):
                ranks = fc.ranks(fc.to_internal(rows))
                assert class_dims(fc, ranks) == ref.rank_dims(ranks)
                cases.append((ranks, k))
                n_subspaces += 1
        # thickness one past the dim at alpha: an empty staircase
        cases.append((fc.coranks, M.nrows + 1))
        for ranks, k in cases:
            got = _staircases_or_error(fc.staircases, ranks, k, fc.alpha)
            want = _staircases_or_error(reference.superlevel_staircases,
                                        ref.xs, ref.ys, ref.rank_dims(ranks),
                                        ref.alpha, k)
            assert got == want
            n_errors += type(got) is tuple
    assert n_subspaces > 100 and n_errors > 0


def _first_cell_points(M, rng):
    """The generator degree g, points on the two lines through g inside
    the first cell, and points inside it, over denominators up to 7."""
    G = grmat.induced_grid(M)
    (gx, gy), out = M.row_degrees[0], []
    nx = next((x for x in G.xs if x > gx), gx + 1)
    ny = next((y for y in G.ys if y > gy), gy + 1)
    for fx, fy in ((0, 0), (0, 1), (1, 0), (1, 1), (1, 1)):
        out.append((gx + fx * (nx - gx) * Fr(rng.randrange(1, 7), 7),
                    gy + fy * (ny - gy) * Fr(rng.randrange(1, 5), 5)))
    return out


def test_first_cell_points_read_the_joined_presentation():
    """At every point alpha of the first cell, the fiber classes' weights
    and staircases, the brute-force search and the HN loop read the
    presentation as if its degrees were joined with alpha: the same as
    on that joined presentation built from Fraction degrees."""
    rng = random.Random(1789)
    n_off = 0
    for trial in range(16):
        F = (F2, F3, PrimeField(5))[trial % 3]
        M = _mixed_unigen_module(rng, F, 1 + trial % 3)
        fc = hn_core.fiber_classes(M)
        for alpha in _first_cell_points(M, rng):
            J = grmat.GradedMatrix(
                F, [reference.join(d, alpha) for d in M.row_degrees],
                [reference.join(d, alpha) for d in M.col_degrees], M.columns)
            ref = _ReferenceFiberClasses(J)
            w = fc.at(alpha)
            assert (w.area, w.vert, w.horiz) == \
                (ref.weights, ref.vert, ref.horiz), (trial, alpha)
            assert (w.scale, w.den) == (ref.scale, ref.den)
            for k in range(1, M.nrows + 1):
                for rows in subspaces_of_dim(F, M.nrows, k):
                    ranks = fc.ranks(fc.to_internal(rows))
                    assert fc.staircases(ranks, k, alpha) == \
                        reference.superlevel_staircases(
                            ref.xs, ref.ys, ref.rank_dims(ranks), alpha, k)
            got = brute_force_max_slope(M, alpha=alpha)
            want = brute_force_max_slope(J)
            assert got.alpha == alpha
            assert (got.basis, got.dim, got.integral) == \
                (want.basis, want.dim, want.integral), (trial, alpha)
            assert hn_core.hn_filtration_of(M, alpha) == \
                hn_core.hn_filtration_of(J, alpha), (trial, alpha)
            n_off += alpha != M.row_degrees[0]
    assert n_off > 50
