import collections
import random
import re
from fractions import Fraction as Fr

import pytest

from skyhn import grmat, invariants
from skyhn.grmat import Grid, induced_grid
from skyhn.invariants import (HNFactor, HNFactorList, SkyscraperStore,
                              Staircase, betti_numbers, hilbert_function,
                              integral_dim, integral_of, merge_factors,
                              skyscraper_query, slope_at, staircase_contains,
                              staircases_from_dims)
from skyhn.pipeline import ScanConfig, approx_skyscraper, exact_skyscraper

from conftest import (F2, F3, count_fraction_comparisons, cross_module,
                      random_bounded_module, rescaled)

import reference


def vertical_block():
    return grmat.extract_block(cross_module(), [0], [0, 1])


def test_betti_vertical_staircase():
    bt = betti_numbers(vertical_block())
    assert bt.b0 == [(Fr(0), Fr(0))]
    assert sorted(bt.b1) == [(Fr(0), Fr(3)), (Fr(1), Fr(0))]
    assert bt.b2 == [(Fr(1), Fr(3))]


def test_betti_additive_over_sum(cross):
    bt = betti_numbers(cross)
    assert len(bt.b0) == 2 and len(bt.b1) == 4 and len(bt.b2) == 2


def test_integral_dim_values(cross):
    bt = betti_numbers(vertical_block())
    assert integral_dim(bt, (Fr(3), Fr(3))) == 3
    assert integral_dim(betti_numbers(cross), (Fr(3), Fr(3))) == 6
    # independent of the bound
    assert integral_dim(bt, (Fr(5), Fr(7))) == 3


def test_integral_dim_rejects_low_bound(cross):
    with pytest.raises(ValueError):
        integral_dim(betti_numbers(cross), (Fr(1), Fr(1)))


def test_staircase_contains_boundary():
    S = Staircase((Fr(0), Fr(0)), [(Fr(1), Fr(0)), (Fr(0), Fr(3))])
    assert staircase_contains(S, (Fr(0), Fr(0)))
    assert not staircase_contains(S, (Fr(1), Fr(0)))   # relations are closed
    assert staircase_contains(S, (Fr(1, 2), Fr(5, 2)))
    assert not staircase_contains(S, (Fr(0), Fr(3)))


def test_staircase_contains_matches_bisect_reference(monkeypatch):
    """The integer membership test against the Fraction one, on random
    staircases with negative coordinates over denominators 1, 2, 3 and 6,
    probed at the generator, at the relations, on the relations' lines,
    between them and outside; it makes no Fraction comparison."""
    rng = random.Random(17)

    def coord():
        return Fr(rng.randrange(-12, 12), rng.choice((1, 2, 3, 6)))
    cases = []
    for _ in range(300):
        gen = (coord(), coord())
        rels = reference.minimal_points(
            [(gen[0] + abs(coord()), gen[1] + abs(coord()))
             for _ in range(rng.randrange(0, 5))])
        S = Staircase(gen, [r for r in rels if r != gen])
        xs = sorted({gen[0]} | {x for x, _ in S.rels})
        ys = sorted({gen[1]} | {y for _, y in S.rels})
        mx = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        my = [(a + b) / 2 for a, b in zip(ys, ys[1:])]
        px = xs + mx + [xs[0] - Fr(1, 6), xs[-1] + Fr(1, 5)]
        py = ys + my + [ys[0] - Fr(1, 6), ys[-1] + Fr(1, 5)]
        cases += [(S, (x, y), reference.staircase_holds(S, (x, y)))
                  for x in px for y in py]
    counts, _ = count_fraction_comparisons(monkeypatch)
    got = [staircase_contains(S, beta) for S, beta, _ in cases]
    assert counts["n"] == 0
    monkeypatch.undo()
    assert got == [want for _, _, want in cases]
    assert 0.2 < sum(got) / len(got) < 0.8
    # the generator is in, every relation out
    assert all(staircase_contains(S, S.gen) for S, _, _ in cases)
    assert not any(staircase_contains(S, r) for S, _, _ in cases
                   for r in S.rels)


def test_staircase_antichain_validation():
    with pytest.raises(ValueError):
        Staircase((0, 0), [(1, 1), (2, 2)])


def test_superlevel_staircases_at_base(cross):
    alpha = (Fr(0), Fr(1))
    sub = grmat.fiber_submodule(cross, alpha)
    G = induced_grid(sub)
    stairs = staircases_from_dims(G, hilbert_function(sub, G), alpha)
    assert len(stairs) == 2
    # level 1: union shape; level 2: the overlap rectangle [0,1)x[1,2)
    assert stairs[1].rels == [(Fr(0), Fr(2)), (Fr(1), Fr(1))]


def test_hilbert_function(cross):
    G = induced_grid(cross)
    h = hilbert_function(cross, G)
    assert h[(Fr(0), Fr(0))] == 1
    assert h[(Fr(0), Fr(1))] == 2
    assert h[(Fr(1), Fr(1))] == 1
    assert h[(Fr(1), Fr(2))] == 0


def test_slope_at(cross):
    assert slope_at(cross, (Fr(0), Fr(1))) == Fr(2, 5)


def test_integral_of_matches_area(cross):
    assert integral_of(cross) == 6


def _cross_store():
    store = SkyscraperStore()
    alpha = (Fr(0), Fr(1))
    f1 = HNFactor([Staircase(alpha, [(Fr(0), Fr(3)), (Fr(1), Fr(1))])],
                  Fr(1, 2))
    f2 = HNFactor([Staircase(alpha, [(Fr(0), Fr(2)), (Fr(3), Fr(1))])],
                  Fr(1, 3))
    store.insert(HNFactorList(alpha, [f1, f2]))
    return store


def test_skyscraper_query_thresholds():
    store = _cross_store()
    a, b = (Fr(0), Fr(1)), (Fr(0), Fr(2))
    assert skyscraper_query(store, Fr(0), a, b) == 1
    assert skyscraper_query(store, Fr(2, 5), a, b) == 1
    assert skyscraper_query(store, Fr(3, 5), a, b) == 0


def test_query_requires_order():
    with pytest.raises(ValueError):
        skyscraper_query(_cross_store(), Fr(0), (Fr(1), Fr(1)), (Fr(0), Fr(0)))


def test_store_keys_sorted_lexicographically(rng):
    store = SkyscraperStore()
    for _ in range(40):
        alpha = (Fr(rng.randrange(-9, 9), rng.randrange(1, 7)),
                 Fr(rng.randrange(-9, 9), rng.randrange(1, 7)))
        store.insert(HNFactorList(alpha, []))
    assert store.keys() == sorted(store.entries) and len(store) > 20


def test_store_locate_snapping():
    store = _cross_store()
    assert store.locate((Fr(1, 2), Fr(3, 2))) is not None
    assert store.locate((Fr(-1), Fr(0))) is None


def test_store_refuses_nonpositive_epsilon(tmp_path):
    """A store snaps to the lattice of a positive epsilon only: at epsilon
    0 a locate off the keys divided by zero, and at a negative epsilon it
    took the ceiling for the floor.  The store and parse_store refuse
    both with the message of ScanConfig."""
    from skyhn.cli import emit_store, parse_store
    store = SkyscraperStore(Fr(1))
    store.insert(HNFactorList((Fr(1), Fr(1)), [HNFactor(
        [Staircase((Fr(1), Fr(1)), [(Fr(1), Fr(2)), (Fr(2), Fr(1))])],
        Fr(1))]))
    assert store.locate((Fr(3, 2), Fr(3, 2))).alpha == (Fr(1), Fr(1))
    assert store.locate((Fr(1, 2), Fr(1, 2))) is None
    path = str(tmp_path / "store.csv")
    emit_store(store, path)
    for eps in (Fr(0), Fr(-1, 2), -1):
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            SkyscraperStore(eps)
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            parse_store(path, eps)
    assert parse_store(path, Fr(1)) == store


def test_store_locate_key_grid_follows_inserts():
    # a grid-snapped store reuses its key grid between inserts; every
    # insert must drop it, so off-key points see later keys
    rng = random.Random(77)
    store = SkyscraperStore()
    assert store.locate((Fr(1), Fr(1))) is None

    store.insert(HNFactorList((Fr(0), Fr(0)), []))
    assert store.locate((Fr(3, 2), Fr(3, 2))).alpha == (Fr(0), Fr(0))
    store.insert(HNFactorList((Fr(1), Fr(1)), []))
    assert store.locate((Fr(3, 2), Fr(3, 2))).alpha == (Fr(1), Fr(1))
    for _ in range(30):
        key = (Fr(rng.randrange(-4, 8), 2), Fr(rng.randrange(-4, 8), 2))
        store.insert(HNFactorList(key, []))
        for _ in range(10):
            p = (Fr(rng.randrange(-6, 10), 3), Fr(rng.randrange(-6, 10), 3))
            assert store.locate(p) is reference.locator(store)(p), p


def test_merge_factors_sorted():
    alpha = (Fr(0), Fr(0))
    s = Staircase(alpha, [(Fr(1), Fr(0))])
    l1 = HNFactorList(alpha, [HNFactor([s], Fr(1, 3))])
    l2 = HNFactorList(alpha, [HNFactor([s], Fr(1, 2))])
    merged = merge_factors(alpha, [l1, l2])
    assert [f.slope for f in merged.factors] == [Fr(1, 2), Fr(1, 3)]
    # one slope in two lists: one factor, whose staircases are the
    # superlevel sets of the summed Hilbert function of [0,2)x[0,1) and
    # [0,1)x[0,2), the L-shape and the unit square
    wide = Staircase(alpha, [(2, 0), (0, 1)])
    tall = Staircase(alpha, [(1, 0), (0, 2)])
    l3 = HNFactorList(alpha, [HNFactor([wide], Fr(1, 2)),
                              HNFactor([s], Fr(1, 3))])
    l4 = HNFactorList(alpha, [HNFactor([tall], Fr(1, 2))])
    merged = merge_factors(alpha, [l3, l4])
    assert [f.slope for f in merged.factors] == [Fr(1, 2), Fr(1, 3)]
    assert merged.factors[0].staircases == [
        Staircase(alpha, [(2, 0), (1, 1), (0, 2)]),
        Staircase(alpha, [(1, 0), (0, 1)])]
    assert merged.factors[1].staircases == [s]
    # a list at another base degree cannot be merged
    with pytest.raises(ValueError, match="mismatched"):
        merge_factors(alpha, [l1, HNFactorList((Fr(1), Fr(0)), [])])
    # nothing to merge: the empty list at alpha
    assert merge_factors((0, 0), []) == HNFactorList(alpha, [])


def test_merge_factors_returns_the_one_non_empty_read():
    alpha = (Fr(1, 2), Fr(1, 3))
    s = Staircase(alpha, [(Fr(3, 2), Fr(1, 3)), (Fr(1, 2), Fr(4, 3))])
    one = HNFactorList(alpha, [HNFactor([s], Fr(2, 5))])
    empty = HNFactorList(alpha, [])
    assert merge_factors(alpha, [empty, one, empty]) is one
    assert merge_factors(alpha, [one]) is one
    none = merge_factors(alpha, [empty, empty])
    assert none.alpha == alpha and none.factors == []
    with pytest.raises(ValueError, match="mismatched"):
        merge_factors(alpha, [one, HNFactorList((Fr(0), Fr(0)), [])])


def _random_stairs(rng, alpha):
    """2-4 staircases generated at alpha whose relations are antichains
    drawn from a few off-integer coordinates per axis (alpha's among
    them), so that x's and y's are shared; a staircase may repeat an
    earlier one, contain it (its relations moved up) or have one or no
    relation."""
    ax, ay = alpha
    px = [ax + Fr(k, 7) for k in range(6)]
    py = [ay + Fr(k, 4) for k in range(6)]
    stairs = []
    for _ in range(rng.randrange(2, 5)):
        kind = rng.randrange(5) if stairs else 0
        if kind == 1:
            stairs.append(rng.choice(stairs))
        elif kind == 2:
            S = rng.choice(stairs)
            d = Fr(rng.randrange(1, 3), 4)
            stairs.append(Staircase(alpha, [(x, y + d) for x, y in S.rels]))
        else:
            m = rng.choice([0, 1, 1, 2, 3, 4])
            xs = sorted(rng.sample(px, m))
            ys = sorted(rng.sample(py, m), reverse=True)
            rels = [r for r in zip(xs, ys) if r != alpha]
            stairs.append(Staircase(alpha, rels))
    return stairs


def test_renormalize_matches_summed_indicator_reference():
    """renormalize equals the superlevel staircases of the staircases'
    summed indicator on the grid of their coordinates, staircase for
    staircase and in order, and raises the empty-staircase error exactly
    where the sweep of that dim function (staircases_from_dims) does."""
    rng = random.Random(2828)
    seen = {"shared x": 0, "shared y": 0, "identical": 0, "one rel": 0,
            "empty": 0}
    for trial in range(300):
        alpha = (Fr(rng.randrange(-5, 5), 3), Fr(rng.randrange(-5, 5), 5))
        stairs = _random_stairs(rng, alpha)
        if trial % 10 == 0:
            # a relation at alpha: the staircase is empty
            i = rng.randrange(len(stairs))
            stairs[i] = Staircase(alpha, [alpha], check=False)
        pts = [alpha] + [r for S in stairs for r in S.rels]
        G = Grid([p[0] for p in pts], [p[1] for p in pts])
        dims = {p: sum(reference.staircase_holds(S, p) for S in stairs)
                for p in G.points()}
        try:
            invariants.staircases_from_dims(G, dims, alpha, len(stairs))
        except ValueError as exc:
            assert str(exc) == invariants.EMPTY_STAIRCASE
            seen["empty"] += 1
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                invariants.renormalize(stairs, alpha)
            continue
        assert invariants.renormalize(stairs, alpha) == \
            reference.superlevel_staircases(G.xs, G.ys, dims, alpha,
                                            len(stairs))
        xs = [x for S in stairs for x in {x for x, _ in S.rels}]
        ys = [y for S in stairs for y in {y for _, y in S.rels}]
        seen["shared x"] += len(set(xs)) < len(xs)
        seen["shared y"] += len(set(ys)) < len(ys)
        seen["identical"] += len(set(stairs)) < len(stairs)
        seen["one rel"] += any(len(S.rels) == 1 for S in stairs)
    assert min(seen.values()) >= 20, seen


def test_factor_list_equality_is_canonical():
    alpha = (Fr(0), Fr(0))
    s1 = Staircase(alpha, [(Fr(1), Fr(0))])
    s2 = Staircase(alpha, [(Fr(2), Fr(0))])
    a = HNFactorList(alpha, [HNFactor([s1], Fr(1)), HNFactor([s2], Fr(1))])
    b = HNFactorList(alpha, [HNFactor([s2], Fr(1)), HNFactor([s1], Fr(1))])
    assert a == b


def test_factor_list_equality_agrees_with_canonical():
    """HNFactorList equality, compared on integer ratios, holds exactly
    when canonical() equality does: on random factor lists against copies
    made of fresh Fractions, with the factors of one slope and the
    staircases of a factor reordered, and against lists changed in one
    coordinate of a late relation, of a generator or of alpha, in the
    denominator of one slope, or by one more staircase."""
    rng = random.Random(29)

    def fr():
        return Fr(rng.randrange(0, 12), rng.choice((1, 2, 3)))

    def stair(alpha):
        xs = sorted({fr() for _ in range(4)} - {Fr(0)})
        ys = sorted({fr() for _ in range(len(xs))} - {Fr(0)},
                    reverse=True)[:len(xs)]
        return Staircase(alpha, [(alpha[0] + x, alpha[1] + y)
                                 for x, y in zip(xs, ys)])

    def copy(fl, **change):
        """fl rebuilt from fresh Fractions, equal-slope factors and each
        factor's staircases shuffled, with one change."""
        def new(c):
            return Fr(c.numerator, c.denominator)
        alpha = tuple(map(new, fl.alpha))
        if change.get("alpha"):
            alpha = (alpha[0], alpha[1] + Fr(1, 7))
        factors = []
        for k, f in enumerate(fl.factors):
            stairs = [Staircase(tuple(map(new, S.gen)),
                                [tuple(map(new, r)) for r in S.rels])
                      for S in f.staircases]
            if k == 0 and change.get("rel"):
                S = stairs[0]
                last = S.rels[-1]
                stairs[0] = Staircase(S.gen, S.rels[:-1] + [
                    (last[0] + Fr(1, 5), last[1])])
            if k == 0 and change.get("gen"):
                S = stairs[0]
                stairs[0] = Staircase((S.gen[0], S.gen[1] - Fr(1, 9)),
                                      S.rels)
            if k == 0 and change.get("extra"):
                stairs.append(stairs[0])
            rng.shuffle(stairs)
            slope = new(f.slope)
            if k == 0 and change.get("slope"):   # the numerator kept
                slope = Fr(slope.numerator, slope.denominator + 1)
            factors.append(HNFactor(stairs, slope))
        rng.shuffle(factors)
        return HNFactorList(alpha, factors)

    seen = {True: 0, False: 0}
    for _ in range(200):
        alpha = (fr(), fr())
        fl = HNFactorList(alpha, [
            HNFactor([stair(alpha) for _ in range(rng.randrange(1, 4))],
                     Fr(rng.randrange(1, 4), rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 4))])
        for change in ({}, {"alpha": 1}, {"rel": 1}, {"gen": 1},
                       {"slope": 1}, {"extra": 1}):
            other = copy(fl, **change)
            want = fl.canonical() == other.canonical()
            assert (fl == other) is want
            assert (other == fl) is want
            seen[want] += 1
    assert min(seen.values()) >= 200, seen


def test_erosion_distance_identical_stores():
    store = _cross_store()
    G = Grid([Fr(0)], [Fr(1)])
    assert invariants.erosion_distance(store, store, Fr(0), G) == \
        (Fr(0), Fr(0))


def test_erosion_distance_shifted_staircase():
    alpha = (Fr(0), Fr(0))
    big = SkyscraperStore()
    big.insert(HNFactorList(alpha, [HNFactor(
        [Staircase(alpha, [(Fr(4), Fr(4))])], Fr(1))]))
    small = SkyscraperStore()
    small.insert(HNFactorList(alpha, [HNFactor(
        [Staircase(alpha, [(Fr(2), Fr(2))])], Fr(1))]))
    G = Grid([Fr(0), Fr(1), Fr(2), Fr(3), Fr(4)],
             [Fr(0), Fr(1), Fr(2), Fr(3), Fr(4)])
    lo, hi = invariants.erosion_distance(big, small, Fr(0), G)
    assert lo >= 1 and hi <= 2


def test_staircases_from_dims_roundtrip(rng):
    # indicator sums of the produced staircases reproduce the dim function
    for _ in range(20):
        xs = [Fr(k) for k in range(4)]
        ys = [Fr(k) for k in range(4)]
        G = Grid(xs, ys)
        alpha = (Fr(0), Fr(0))
        stairs = [Staircase(alpha, [(Fr(rng.randrange(1, 4)), Fr(0))
                                    if rng.random() < .5 else
                                    (Fr(0), Fr(rng.randrange(1, 4)))])
                  for _ in range(rng.randrange(1, 4))]
        dims = {p: sum(1 for s in stairs if staircase_contains(s, p))
                for p in G.points()}
        rebuilt = staircases_from_dims(G, dims, alpha)
        dims2 = {p: sum(1 for s in rebuilt if staircase_contains(s, p))
                 for p in G.points()}
        assert dims == dims2


def _random_axis(rng):
    """3-6 sorted distinct coordinates, negative and over denominators 1,
    2 and 3, unevenly spaced."""
    return sorted({Fr(rng.randrange(-9, 9), rng.choice((1, 2, 3)))
                   for _ in range(rng.randrange(3, 7))})


def test_staircases_from_dims_matches_fraction_reference():
    """The column sweep over grid indices against minimal dead points found
    by pairwise Fraction comparison: monotone dims (sums of staircases)
    and arbitrary ones, alpha on, between and off the grid's lines, with
    and without a thickness (one past the dim at alpha raises)."""
    rng = random.Random(1618)
    n_raised = 0
    for trial in range(300):
        G = Grid(_random_axis(rng), _random_axis(rng))
        alpha = (rng.choice(G.xs[:2] + [G.xs[0] - Fr(1, 5),
                                        (G.xs[0] + G.xs[1]) / 2]),
                 rng.choice(G.ys[:2] + [G.ys[0] - Fr(1, 5),
                                        (G.ys[0] + G.ys[1]) / 2]))
        if trial % 2:
            dims = {p: rng.randrange(4) for p in G.points()
                    if rng.random() < 0.8}
        else:
            stairs = [Staircase(alpha, _minimal_points_of(rng, G, alpha))
                      for _ in range(rng.randrange(1, 4))]
            dims = {p: sum(reference.staircase_holds(s, p) for s in stairs)
                    for p in G.points()}
        for thickness in (None, 1, 2, 4):
            try:
                want = reference.superlevel_staircases(G.xs, G.ys, dims,
                                                       alpha, thickness)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    staircases_from_dims(G, dims, alpha, thickness)
                n_raised += 1
                continue
            assert staircases_from_dims(G, dims, alpha, thickness) == want
    assert n_raised > 0


def _minimal_points_of(rng, G, alpha):
    """The minimal ones of a few random grid points above alpha, strictly
    above it on one axis."""
    pts = [p for p in G.points() if grmat.deg_leq(alpha, p) and p != alpha]
    return reference.minimal_points(
        rng.sample(pts, min(len(pts), rng.randrange(0, 4))))


# ---------------------------------------------------------------------------
# erosion_distance against the query-per-pair reference

class _CountingStore(SkyscraperStore):
    """A copy of a store that counts its locate calls."""

    def __init__(self, store):
        super().__init__(store.epsilon)
        for fl in store.entries.values():
            self.insert(fl)
        self.locates = 0

    def locate(self, alpha):
        self.locates += 1
        return super().locate(alpha)


def _moved(store, rng):
    """A copy of store with the relations of one staircase moved up by
    (k, k), k in 1..3, so that erosion needs a shift e > 0."""
    out = SkyscraperStore(store.epsilon)
    for fl in store.entries.values():
        out.insert(fl)
    alpha = rng.choice(store.keys())
    fl = store.entries[alpha]
    fi = rng.randrange(len(fl.factors))
    f = fl.factors[fi]
    si = rng.randrange(len(f.staircases))
    st = f.staircases[si]
    k = rng.randrange(1, 4)
    moved = Staircase(st.gen, [(x + k, y + k) for x, y in st.rels])
    stairs = f.staircases[:si] + [moved] + f.staircases[si + 1:]
    factors = list(fl.factors)
    factors[fi] = HNFactor(stairs, f.slope)
    out.insert(HNFactorList(alpha, factors))
    return out


def _key_grid(store):
    keys = store.keys()
    return Grid(sorted({k[0] for k in keys}), sorted({k[1] for k in keys}))


def _assert_same_erosion(r, s, theta, G):
    r1, s1 = _CountingStore(r), _CountingStore(s)
    got = invariants.erosion_distance(r1, s1, theta, G)
    asked, locator = collections.Counter(), reference.locator

    def counted(store):
        locate = locator(store)
        return lambda alpha: asked.update([id(store)]) or locate(alpha)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "locator", counted)
        assert got == reference.erosion(r, s, theta, G)
    # each store resolves each probe point at most as often as before
    assert r1.locates <= asked[id(r)] and s1.locates <= asked[id(s)]
    return got


def test_erosion_distance_matches_reference():
    rng = random.Random(4711)
    results = []
    for trial in range(14):
        F = (F2, F3)[trial % 2]
        M = random_bounded_module(rng, F, rng.randrange(1, 4), dmax=3)
        ex = exact_skyscraper(M)
        for eps in (Fr(1), Fr(1, 2)):
            sa = approx_skyscraper(M, ScanConfig(epsilon=eps))
            if not sa.keys():
                continue
            snaps = [ex.snapshot(sa.keys(), eps), ex.snapshot(sa.keys())]
            slopes = sorted({f.slope for st in [sa] + snaps
                             for fl in st.entries.values() for f in fl})
            # theta = 0 and a theta between the two least factor slopes
            thetas = [Fr(0)] + [(a + b) / 2
                                for a, b in zip(slopes, slopes[1:])][:1]
            # a coarse probe grid keeps the reference's four queries per
            # pair and shift affordable
            G = _key_grid(sa) if eps == 1 else Grid(
                _key_grid(sa).xs[::2], _key_grid(sa).ys[::2])
            one = Grid([G.xs[len(G.xs) // 2]], [G.ys[len(G.ys) // 2]])
            for theta in thetas:
                for snap in snaps:
                    results.append(_assert_same_erosion(sa, snap, theta, G))
                    results.append(_assert_same_erosion(snap, sa, theta, one))
                    moved = _moved(snap, rng)
                    results.append(_assert_same_erosion(sa, moved, theta, G))
                    results.append(_assert_same_erosion(moved, sa, theta, one))
    # an empty store against an unbounded staircase far below the probes
    far = (Fr(-10), Fr(-10))
    wide = SkyscraperStore()
    wide.insert(HNFactorList(far, [HNFactor([Staircase(far, [])], Fr(1))]))
    G = Grid([Fr(0), Fr(1), Fr(2)], [Fr(0), Fr(1)])
    for r, s in ((wide, SkyscraperStore()), (SkyscraperStore(), wide)):
        got = _assert_same_erosion(r, s, Fr(0), G)
        assert got == (4, grmat.POS_INF)
        results.append(got)
    # the shifted path and its binary search really ran
    assert sum(1 for lo, hi in results if 0 < hi < grmat.POS_INF) >= 10
    assert any(0 < lo and hi < grmat.POS_INF for lo, hi in results)


def test_erosion_scales_staircases_only_for_the_pair_loop(monkeypatch):
    """At shift 0 erosion_distance compares the located theta-staircases
    as they are: equal stores scale no staircase to the lattice, and a
    store that differs at one probe point scales its staircases for the
    pair loop, with the reference's answer either way."""
    scaled = []
    ceil_scaled = invariants._ceil_scaled
    monkeypatch.setattr(invariants, "_ceil_scaled",
                        lambda c, D: scaled.append(c) or ceil_scaled(c, D))
    rng = random.Random(4712)
    runs = 0
    for trial in range(6):
        M = random_bounded_module(rng, (F2, F3)[trial % 2],
                                  rng.randrange(1, 4), dmax=3)
        sa = approx_skyscraper(M, ScanConfig(epsilon=Fr(1)))
        if not sa.keys():
            continue
        snap = exact_skyscraper(M).snapshot(sa.keys(), Fr(1))
        G = _key_grid(sa)
        del scaled[:]
        assert _assert_same_erosion(sa, snap, Fr(0), G) == (0, 0)
        assert scaled == []
        _assert_same_erosion(sa, _moved(snap, rng), Fr(0), G)
        assert scaled
        runs += 1
    assert runs >= 3


def _uneven_grid(G, rng):
    """Probe grid from G's coordinates: every other one dropped at random
    and a point over a new denominator (5 or 7) added on each axis."""
    def axis(cs):
        kept = [c for k, c in enumerate(cs) if k == 0 or rng.random() < 0.6]
        return kept + [cs[0] + Fr(rng.randrange(1, 9), rng.choice((5, 7)))]
    return Grid(axis(G.xs), axis(G.ys))


def test_erosion_distance_matches_reference_off_integers():
    """The integer-lattice erosion against the Fraction reference on
    rescaled modules (negative degrees over denominators 2 and 3), lattice
    spacings 1/3 and 2/3 and unevenly spaced probe grids over further
    denominators, so that the 1/D scaling is exercised."""
    rng = random.Random(4712)
    results = []
    for trial in range(8):
        F = (F2, F3)[trial % 2]
        M = rescaled(random_bounded_module(rng, F, rng.randrange(1, 4),
                                           dmax=3))
        ex = exact_skyscraper(M)
        for eps in (Fr(1, 3), Fr(2, 3)):
            sa = approx_skyscraper(M, ScanConfig(epsilon=eps))
            if not sa.keys():
                continue
            snap = ex.snapshot(sa.keys())
            slopes = sorted({f.slope for st in (sa, snap)
                             for fl in st.entries.values() for f in fl})
            thetas = [Fr(0)] + [(a + b) / 2
                                for a, b in zip(slopes, slopes[1:])][:1]
            G = _key_grid(sa)
            G = Grid(G.xs[::3], G.ys[::3])
            for theta in thetas:
                for probe in (G, _uneven_grid(_key_grid(sa), rng)):
                    if len(probe.xs) * len(probe.ys) > 20:
                        probe = Grid(probe.xs[:4], probe.ys[:4])
                    moved = _moved(snap, rng)
                    results.append(_assert_same_erosion(sa, snap, theta,
                                                        probe))
                    results.append(_assert_same_erosion(moved, sa, theta,
                                                        probe))
    assert sum(1 for lo, hi in results if 0 < hi < grmat.POS_INF) >= 5
    assert any(hi.denominator > 1 for _, hi in results
               if 0 < hi < grmat.POS_INF)
