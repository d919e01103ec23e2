import functools
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from skyhn import field as fieldmod
from skyhn import grmat, pipeline, subdivision
from skyhn.field import DenseMatrix, PrimeField

# the same examples on every run, and no per-example deadline for a slow
# or loaded machine to trip over
settings.register_profile("skyhn", derandomize=True, deadline=None)
settings.load_profile("skyhn")

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def gm(F, gens, rels):
    """Build a GradedMatrix from (degree, [(row, coeff), ...]) pairs."""
    return grmat.GradedMatrix(F, [tuple(Fraction(c) for c in g) for g in gens],
                              [tuple(Fraction(c) for c in d) for d, _ in rels],
                              [[(i, c) for i, c in col] for _, col in rels])


def cross_module():
    """Vertical staircase [0,1)x[0,3) + horizontal staircase [0,3)x[1,2)."""
    return gm(F2, [(0, 0), (0, 1)],
              [((1, 0), [(0, 1)]), ((0, 3), [(0, 1)]),
               ((3, 1), [(1, 1)]), ((0, 2), [(1, 1)])])


def stable_module():
    """Thickness-2 semistable module over F_2 generated at the origin."""
    return gm(F2, [(0, 0), (0, 0)],
              [((2, 0), [(1, 1)]), ((0, 2), [(0, 1)]),
               ((1, 1), [(0, 1), (1, 1)]),
               ((3, 0), [(0, 1)]), ((0, 3), [(1, 1)])])


def random_bounded_module(rng, F, thickness, dmax=4):
    """Random uniquely-bounded presentation: generators and relations with
    integer degrees in [0,dmax)^2 plus cap relations at dmax per generator."""
    gens = [(Fraction(rng.randrange(0, dmax - 1)),
             Fraction(rng.randrange(0, dmax - 1)))
            for _ in range(thickness)]
    rels = []
    for _ in range(rng.randrange(1, 2 * thickness + 2)):
        i = rng.randrange(thickness)
        gx, gy = gens[i]
        d = (gx + rng.randrange(0, 3), gy + rng.randrange(0, 3))
        ents = []
        for j in range(thickness):
            if grmat.deg_leq(gens[j], d):
                c = rng.randrange(F.q)
                if c:
                    ents.append((j, c))
        if ents:
            rels.append((d, ents))
    for i, (gx, gy) in enumerate(gens):
        rels.append(((Fraction(dmax), gy), [(i, 1)]))
        rels.append(((gx, Fraction(dmax)), [(i, 1)]))
    return gm(F, gens, rels)


def random_unigen_module(rng, F, thickness, dmax=4):
    """Random bounded module with all generators at one common degree."""
    gx = Fraction(rng.randrange(0, dmax - 1))
    gy = Fraction(rng.randrange(0, dmax - 1))
    gens = [(gx, gy)] * thickness
    rels = []
    for _ in range(rng.randrange(1, 2 * thickness + 2)):
        dx, dy = rng.randrange(0, 3), rng.randrange(0, 3)
        if (dx, dy) == (0, 0):
            dy = 1    # relations at the generator degree would make the
            # presentation non-minimal
        d = (gx + dx, gy + dy)
        ents = [(j, c) for j in range(thickness)
                for c in [rng.randrange(F.q)] if c]
        if ents:
            rels.append((d, ents))
    for i in range(thickness):
        rels.append(((Fraction(dmax), gy), [(i, 1)]))
        rels.append(((gx, Fraction(dmax)), [(i, 1)]))
    return gm(F, gens, rels)


def hidden_direct_sum(rng, F, sizes, dmax=3):
    """A direct sum of random bounded and unigen modules of the given
    thicknesses in disguise (see disguise)."""
    parts = [(random_bounded_module if rng.random() < 0.5
              else random_unigen_module)(rng, F, t, dmax=dmax)
             for t in sizes]
    return disguise(rng, functools.reduce(grmat.direct_sum, parts))


def disguise(rng, M):
    """M conjugated by a random invertible degree-respecting change of
    generators, then mixed by random column operations within one relation
    degree: the same module, presented differently."""
    F = M.field
    t, q, g = M.nrows, F.q, M.row_degrees
    while True:
        G = [[rng.randrange(q) if grmat.deg_leq(g[a], g[b]) else 0
              for b in range(t)] for a in range(t)]
        if fieldmod.reduce(DenseMatrix(t, t, F, G))[0] == t:
            break
    cols = [[sum(x * y for x, y in zip(row, M.dense_column(j))) % q
             for row in G] for j in range(M.ncols)]
    for _ in range(2 * len(cols)):
        j, k = rng.randrange(len(cols)), rng.randrange(len(cols))
        if j != k and M.col_degrees[j] == M.col_degrees[k]:
            c = rng.randrange(q)
            cols[j] = [(x + c * y) % q for x, y in zip(cols[j], cols[k])]
    return grmat.GradedMatrix(F, g, M.col_degrees,
                              [list(enumerate(c)) for c in cols])


def hidden_corpus(n=36, seed=4242, max_thickness=6):
    """(field, number of hidden summands, module): hidden direct sums of
    2-3 summands of thickness 1-2 and at most max_thickness in all,
    cycling over GF(2), GF(3) and GF(5)."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        F = (F2, F3, F5)[i % 3]
        while True:
            sizes = [rng.randrange(1, 3) for _ in range(rng.randrange(2, 4))]
            if sum(sizes) <= max_thickness:
                break
        out.append((F, len(sizes), hidden_direct_sum(rng, F, sizes)))
    return out


def rescaled(M):
    """M moved by the increasing maps x -> (x - 2)/2 and y -> (y - 1)/3:
    the same module up to reparametrization, with negative degrees over
    denominators 2 and 3."""
    def move(d):
        return ((d[0] - 2) / 2, (d[1] - 1) / 3)
    return grmat.GradedMatrix(M.field, [move(d) for d in M.row_degrees],
                              [move(d) for d in M.col_degrees], M.columns)


def plain_ranks(M):
    """M._ranks with each axis read as its coordinates and ratio keys."""
    ax, ay, rows, cols = M._ranks
    return ax.coords, ax.keys, ay.coords, ay.keys, rows, cols


def cut_presentations(rng, F):
    """(operation, source, result) for minimize, extract_block (of every
    block of the minimized source), join_degrees (at a point of the
    source's grid) and quotient_presentation (by a random line) run on a
    random bounded and a random unigen module over F and on their rescaled
    copies: results whose axes the operation may have cut from the
    source's (Axis.sub).  The rescaled sources are floored first, as a
    fiber model leaves them, so that their axes hold their ints when they
    are cut.  Results with no generator are left out."""
    def floored(N):
        for a in N._ranks[:2]:
            a.floor_ratio(0, 1)
        return N
    out = []
    M = random_bounded_module(rng, F, rng.randrange(1, 4))
    U = random_unigen_module(rng, F, rng.randrange(2, 4))
    for N, V in ((M, U), (floored(rescaled(M)), floored(rescaled(U)))):
        Nm = grmat.minimize(N)
        if N is not M:
            floored(Nm)
        out.append(("minimize", N, Nm))
        out += [("extract_block", Nm, grmat.extract_block(Nm, rows, cols))
                for rows, cols in grmat.connected_components(Nm) if rows]
        alpha = tuple(rng.choice(a.coords) for a in N._ranks[:2])
        out.append(("join_degrees", N, grmat.join_degrees(N, alpha)))
        line = [rng.randrange(F.q) for _ in range(V.nrows)]
        if any(line):
            out.append(("quotient_presentation", V,
                        grmat.quotient_presentation(V, [line])))
    return [(op, src, R) for op, src, R in out if R.nrows]


def fiber_trees(module, grid, corner):
    """subdivision.exact_hnf_cell on each connected block of <V_corner> of
    the module, over the cell of grid with that lower corner; [] on a zero
    fiber or an unbounded cell.  One-generator fibers get trees too, though
    the drivers read them in closed form (pipeline._Interval), so that
    tree reads keep their coverage."""
    ix, iy = grid.xs.index(corner[0]), grid.ys.index(corner[1])
    if ix + 1 == len(grid.xs) or iy + 1 == len(grid.ys):
        return []
    sub = grmat.fiber_submodule(module, corner)
    if sub is None:
        return []
    rect = (corner[0], corner[1], grid.xs[ix + 1], grid.ys[iy + 1])
    return [subdivision.exact_hnf_cell(block, rect)
            for block in pipeline._blocks(sub)]


def store_trees(ex):
    """fiber_trees of every decompose piece of every summand of the exact
    store ex, at every point of the summand's grid, in the order in which
    an eager store builds its cells."""
    return [t for module, grid, _ in ex.summands
            for pieces in [grmat.decompose(module)]
            for corner in grid.points() for piece in pieces
            for t in fiber_trees(piece, grid, corner)]


# ---------------------------------------------------------------------------
# dims and integrals of subspaces from a presentation's fiber classes

def class_dims(fc, ranks):
    """The dim at every grid point (a Fraction pair) of a subspace with
    these per-class ranks; 0 where the fiber is zero or not above alpha."""
    xs, ys = (a.coords for a in fc.axes)
    return {(xs[ix], ys[iy]): ranks[cid] if cid >= 0 else 0
            for (ix, iy), cid in fc.point_class.items()}


def class_integral(fc, ivecs):
    """The integral over the plane of dim <span(ivecs)>, a Fraction, from
    the class weights at the generator degree."""
    w = fc.at(fc.alpha)
    return Fraction(w.scaled_integral(fc.ranks(ivecs)), w.den)


# ---------------------------------------------------------------------------
# counting Fraction comparisons

def count_fraction_comparisons(monkeypatch):
    """Count the rich comparisons Fraction makes from now on, except while
    a function wrapped by pause() runs; returns (counts, pause)."""
    counts = {"n": 0, "paused": 0}
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def counted(a, b, _orig=getattr(Fraction, name)):
            counts["n"] += not counts["paused"]
            return _orig(a, b)
        monkeypatch.setattr(Fraction, name, counted)

    def pause(owner, attr):
        orig = getattr(owner, attr)

        def paused(*args):
            counts["paused"] += 1
            try:
                return orig(*args)
            finally:
                counts["paused"] -= 1
        monkeypatch.setattr(owner, attr, paused)
    return counts, pause


def count_fraction_hashes(monkeypatch):
    """Count the Fraction hashes taken from now on; returns the counts."""
    counts = {"n": 0}

    def counted(self, _orig=Fraction.__hash__):
        counts["n"] += 1
        return _orig(self)
    monkeypatch.setattr(Fraction, "__hash__", counted)
    return counts


@pytest.fixture
def cross():
    return cross_module()


@pytest.fixture
def stable():
    return stable_module()


@pytest.fixture
def rng():
    return random.Random(20260823)


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    results = getattr(test_acceptance, "RESULTS", [])
    if results:
        terminalreporter.section("acceptance criteria")
        for n, status, desc, secs in sorted(results):
            terminalreporter.write_line(
                "acceptance %2d: %s  %s (%.1fs)" % (n, status, desc, secs))
