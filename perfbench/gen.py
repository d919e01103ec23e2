"""Frozen input generators for the benchmark.

These are copies of the generators in ``tests/conftest.py`` at the commit
that introduced the benchmark, so later edits to the test helpers cannot
silently change the benchmark's inputs.  ``selftest.py`` checks that
``acceptance5_corpus(5)`` still reproduces the acceptance-5 corpus of the
tests module for module.

Every generator draws only from the ``random.Random`` it is given, so the
same seed always gives the same modules.
"""

import random
from fractions import Fraction

from skyhn import grmat, pipeline
from skyhn.field import PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


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


def acceptance5_corpus(seed, n=50):
    """The corpus of acceptance criterion 5: n bounded modules alternating
    GF(3)/GF(2), thickness 1-2, dmax=3.  Seed 5 with n=50 is the test
    corpus; a larger n continues the same random stream."""
    rng = random.Random(seed)
    return [random_bounded_module(rng, F2 if i % 2 else F3,
                                  rng.randrange(1, 3), dmax=3)
            for i in range(n)]


def is_one_block(M):
    """True when M stays one connected block after clipping to its
    bounding box.

    One-block rejection rule: most random unigen modules are direct sums
    of small blocks, and the drivers run the engines per block, so a split
    module never enumerates subspaces at its full thickness (at GF(2) t=6 a
    split module costs about 0.01 s against 0.1-0.4 s for one block).  The
    thickness workloads therefore redraw until the module is one block.
    """
    blocks = [rows for rows, _ in grmat.connected_components(
        pipeline.clip_to_box(M, pipeline.bounding_box(M))) if rows]
    return len(blocks) == 1 and len(blocks[0]) == M.nrows


def one_block_unigen(rng, F, thickness, dmax=4):
    """Draw random_unigen_module until it is one block (see is_one_block)."""
    while True:
        M = random_unigen_module(rng, F, thickness, dmax=dmax)
        if is_one_block(M):
            return M
