import random
from fractions import Fraction as Fr

import pytest

from skyhn import field as fieldmod
from skyhn import grmat, hn_core
from skyhn.field import DenseMatrix, PrimeField
from skyhn.hn_core import (brute_force_max_slope, gaussian_line_count,
                           hn_filtration_at, subspaces_of_dim,
                           subspace_grid_dims)

from conftest import F2, F3, gm, random_bounded_module


def _count(field, t, k):
    return sum(1 for _ in subspaces_of_dim(field, t, k))


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
                assert _count(F, t, k) == gaussian_binomial(q, t, k)


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
    rec = brute_force_max_slope(stable, largest=True)
    assert rec.dim == 2
    assert rec.inv_slope == Fr(9, 2)
    assert rec.slope == Fr(2, 9)


def test_stable_lines_all_slope_one_fifth(stable):
    fc = hn_core.fiber_classes(stable)
    for rows in subspaces_of_dim(F2, 2, 1):
        assert fc.integral(fc.to_internal(rows)) == 5


def test_smallest_dim_tie_break_default(stable):
    # without the largest flag ties resolve to lower dimension when the
    # slopes coincide; STABLE has no tie (2/9 > 1/5) so both agree
    rec = brute_force_max_slope(stable)
    assert rec.dim == 2


def test_largest_flag_picks_maximal_on_tie():
    # two copies of one interval: every subspace has the same slope
    M = gm(F2, [(0, 0), (0, 0)],
           [((2, 0), [(0, 1)]), ((0, 2), [(0, 1)]),
            ((2, 0), [(1, 1)]), ((0, 2), [(1, 1)])])
    assert brute_force_max_slope(M).dim == 1
    assert brute_force_max_slope(M, largest=True).dim == 2


def test_subspace_grid_dims(cross):
    alpha = (Fr(0), Fr(1))
    pm = grmat.pointwise_model(cross, alpha)
    S = grmat.GradedMatrix(F2, cross.row_degrees, [alpha] * pm.dim,
                           [[(i, 1)] for i in pm.basis_rows])
    sub = grmat.minimize(grmat.submodule_presentation(cross, S))
    G, dims = subspace_grid_dims(sub, [[1, 1]])
    assert dims[(Fr(0), Fr(1))] == 1


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


def _reference_dims(M, rows):
    """dim <span(rows)> at every grid point: rank of the active relation
    columns with the rows, minus the rank of the relation columns alone."""
    F = M.field
    t = M.nrows
    alpha = M.row_degrees[0]
    out = {}
    for pt in grmat.induced_grid(M).points():
        if not grmat.deg_leq(alpha, pt):
            out[pt] = 0
            continue
        act = [M.dense_column(j) for j in range(M.ncols)
               if grmat.deg_leq(M.col_degrees[j], pt)]
        both = DenseMatrix.from_columns(act + [list(r) for r in rows], t, F)
        rels = DenseMatrix.from_columns(act, t, F)
        out[pt] = fieldmod.reduce(both)[0] - fieldmod.reduce(rels)[0]
    return out


def _reference_integral(M, dims):
    """Sum of dim times the Fraction cell area; the last grid line bounds
    an unbounded cell and gets area 0."""
    G = grmat.induced_grid(M)
    wx = dict(zip(G.xs, [b - a for a, b in zip(G.xs, G.xs[1:])] + [0]))
    wy = dict(zip(G.ys, [b - a for a, b in zip(G.ys, G.ys[1:])] + [0]))
    return sum((d * wx[x] * wy[y] for (x, y), d in dims.items()), Fr(0))


def _reference_max_slope(M, largest):
    """Exhaustive search over every subspace with the documented ties."""
    best = None
    for k in range(1, M.nrows + 1):
        for rows in subspaces_of_dim(M.field, M.nrows, k):
            integ = _reference_integral(M, _reference_dims(M, rows))
            if best is None or Fr(k) / integ > Fr(best[1]) / best[2] or (
                    largest and Fr(k) / integ == Fr(best[1]) / best[2]
                    and k > best[1]):
                best = (rows, k, integ)
    return best


def test_integer_scoring_matches_fraction_reference():
    rng = random.Random(235)
    for trial in range(24):
        F = (F2, F3, PrimeField(5), PrimeField(7))[trial % 4]
        t = 1 + trial % 3 if F.q < 5 else 1 + trial % 2
        M = _mixed_unigen_module(rng, F, t)
        fc = hn_core.fiber_classes(M)
        assert fc.den > 1
        for k in range(1, t + 1):
            for rows in subspaces_of_dim(F, t, k):
                dims = _reference_dims(M, rows)
                iv = fc.to_internal(rows)
                assert fc.dims(iv) == dims
                integ = fc.integral(iv)
                assert type(integ) is Fr
                assert integ == _reference_integral(M, dims)
        for largest in (False, True):
            rec = brute_force_max_slope(M, largest=largest)
            rows, dim, integ = _reference_max_slope(M, largest)
            assert rec.basis_vectors() == rows
            assert (rec.dim, rec.integral) == (dim, integ)
            assert type(rec.integral) is Fr
