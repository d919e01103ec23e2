"""The benchmark's four workloads.

Each workload has ``setup(seed, workdir)``, which builds its inputs from the
seed alone (and writes input files under ``workdir``), and
``run_pass(items, rec)``, which runs every operation once through ``rec.op``
(None when the operation raised) and queues the checks of its outputs with
``rec.later``; they run after the pass clock stops.  A workload may also
have ``final_check(items, rec)`` for checks that run skyhn again (brute
force), run after the pass and its queued checks.  An operation is one
public driver call or one ``cli.main`` invocation; skyhn receives only the
generated inputs.  A timed run is one pass; the inputs are sized so that it
takes about ``run.RUN_SECONDS`` at the reference speed (speed.py).

Why each workload exists and which layers it stresses is documented in
README.md next to this file.
"""

import contextlib
import io
import os
import random
from fractions import Fraction

from skyhn import cli, grmat, invariants, pipeline

import gen

# ---------------------------------------------------------------------------
# lattice: the acceptance-5 corpus through every lattice driver

# epsilon = 1/4 is left out: it is three quarters of the cost, and heavy
# tailed, so that 25 modules took 10-22 s per pass depending on the seed.
# Many corpora's worth of modules keep a pass steady from seed to seed.
LATTICE_EPS = (Fraction(1), Fraction(1, 2))
LATTICE_MODULES = 180


def lattice_setup(seed, workdir):
    return gen.acceptance5_corpus(seed, LATTICE_MODULES)


def erosion_on_keys(sa, snap):
    """erosion_distance at theta=0 on the grid of sa's lattice points."""
    keys = sa.keys()
    G = grmat.Grid(sorted({k[0] for k in keys}), sorted({k[1] for k in keys}))
    return invariants.erosion_distance(sa, snap, Fraction(0), G)


def check_scan(rec, sa, sc):
    rec.check(sa == sc, "scan store differs from approx store")
    rec.check(len(sc.work) == len(sa.work)
              and all(s <= a for s, a in zip(sc.work, sa.work)),
              "scan work exceeds approx work")


def check_erosion(rec, er, eps):
    rec.check(er[1] <= eps, "erosion upper bound above epsilon")


def lattice_pass(items, rec):
    for M in items:
        ex = rec.op("exact_skyscraper", pipeline.exact_skyscraper, M)
        for eps in LATTICE_EPS:
            cfg = pipeline.ScanConfig(epsilon=eps)
            sa = rec.op("approx_skyscraper", pipeline.approx_skyscraper, M, cfg)
            sc = rec.op("parallel_grid_scan", pipeline.parallel_grid_scan,
                        M, cfg)
            if sa is None or sc is None:
                continue
            rec.later(check_scan, rec, sa, sc)
            if not sa.keys() or ex is None:
                continue
            snap = rec.op("snapshot", ex.snapshot, sa.keys(), eps)
            if snap is None:
                continue
            er = rec.op("erosion_distance", erosion_on_keys, sa, snap)
            if er is not None:
                rec.later(check_erosion, rec, er, eps)


# ---------------------------------------------------------------------------
# thick: thick one-block unigen modules, brute force against the exact cell

# (field, thickness).  Brute force takes 0.03-0.3 s at these shapes and
# the exact cell 0.3-0.75 s, so the two kinds of operation form two
# clusters.  Every third module also goes through the exact cell: then
# brute force has three quarters of the operations and the median
# operation lies well inside its cluster, not near the gap between the
# two, where it would jump with the seed (with every second module it
# still spread by up to 22% over ten seeds).  The exact cell at t=7 costs
# 3-4 s, a quarter of a pass for one module, so t=7 is brute force only.
# The cost of one exact cell varies tenfold from module to module, so the
# pass takes as many modules as fit: with 43 modules the ten-seed spread
# of wall_s and op_ms_tail was up to 20% and 27%.
THICK_SHAPES = [(gen.F3, 5)] * 45 + [(gen.F2, 6)] * 27 + [(gen.F2, 7)]
THICK_EXACT_EVERY = 3


def thick_setup(seed, workdir):
    rng = random.Random(seed)
    return [(gen.one_block_unigen(rng, F, t),
             i % THICK_EXACT_EVERY == 0 and t < 7)
            for i, (F, t) in enumerate(THICK_SHAPES)]


def exact_factors_at(M, alpha):
    """HN factors at alpha from a lazily built exact store (one cell)."""
    return pipeline.exact_skyscraper(M, eager=False).factors_at(alpha)


def check_filtration(rec, fl, dim):
    slopes = [f.slope for f in fl.factors]
    rec.check(all(a > b for a, b in zip(slopes, slopes[1:])),
              "slopes do not strictly decrease")
    rec.check(sum(f.dim for f in fl.factors) == dim,
              "factor dimensions do not sum to the fiber dimension")


def check_same(rec, got, want, what):
    rec.check(got == want, what)


def thick_pass(items, rec):
    for M, exact in items:
        alpha = M.row_degrees[0]
        brute = rec.op("hn_at", pipeline.hn_at, M, alpha)
        if brute is None:
            continue
        rec.later(check_filtration, rec, brute, M.nrows)
        if exact:
            ex = rec.op("exact_factors_at", exact_factors_at, M, alpha)
            if ex is not None:
                rec.later(check_same, rec, ex, brute,
                          "exact cell differs from brute force")


# ---------------------------------------------------------------------------
# cheng: the randomized engine on one-block modules, several seeds each

CHENG_SHAPES = [(gen.F2, 6), (gen.F2, 8), (gen.F2, 10), (gen.F3, 6),
                (gen.F3, 8)]
CHENG_PER_SHAPE = 32
CHENG_SEEDS = (0, 1)
# at dmax=3 about one module in seven needs a 5-9 s certification blow-up,
# so a run's time would be set by how many of those its seed drew
CHENG_DMAX = 2
# brute force is affordable on these (field, thickness) shapes: about 0.2 s
# at GF(2) t=6 against 2-4 s at GF(3) t=6 and 10-20 s at GF(2) t=8
CHENG_BRUTE = {(2, 6)}


def cheng_setup(seed, workdir):
    rng = random.Random(seed)
    items = []
    for F, t in CHENG_SHAPES:
        for _ in range(CHENG_PER_SHAPE):
            M = gen.one_block_unigen(rng, F, t, dmax=CHENG_DMAX)
            items.append({"M": M, "alpha": M.row_degrees[0], "result": None})
    return items


def cheng_pass(items, rec):
    for it in items:
        M, alpha = it["M"], it["alpha"]
        first = None
        for s in CHENG_SEEDS:
            fl = rec.op("hn_at_cheng", pipeline.hn_at, M, alpha, "cheng", s)
            if fl is None:
                continue
            rec.later(check_filtration, rec, fl, M.nrows)
            if first is None:
                first = fl
            else:
                rec.later(check_same, rec, fl, first, "seeds disagree")
        it["result"] = first


def cheng_final_check(items, rec):
    for it in items:
        M = it["M"]
        if (M.field.q, M.nrows) in CHENG_BRUTE and it["result"] is not None:
            brute = pipeline.hn_at(M, it["alpha"])
            rec.check(it["result"] == brute, "cheng differs from brute force",
                      op=False)


# ---------------------------------------------------------------------------
# cli: in-process skyhn.cli.main over skypres files written at setup

# thickness cycles through 1, 2, 3, so every seed has the same mix
CLI_RANDOM_FILES = 90
CLI_DMAX = 3
OK = {cli.EXIT_OK}
ERROR = {cli.EXIT_PARSE, cli.EXIT_ENGINE, cli.EXIT_CHECK}


def to_skypres(M):
    lines = ["skypres v1", "field %d" % M.field.q,
             "generators %d" % M.nrows]
    lines += ["%s %s" % d for d in M.row_degrees]
    lines.append("relations %d" % M.ncols)
    for d, col in zip(M.col_degrees, M.columns):
        lines.append("%s %s : %s" % (d[0], d[1], " ".join(
            "%d %d" % e for e in col)))
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_cli(argv):
    """One in-process skyhn invocation; returns the exit status a process
    would have (1 for an uncaught exception, as Python exits then)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            return 1


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def cli_setup(seed, workdir):
    rng = random.Random(seed)
    modules = [gen.cross_module()] + [
        gen.random_bounded_module(rng, gen.F2 if i % 2 else gen.F3,
                                  1 + i % 3, dmax=CLI_DMAX)
        for i in range(CLI_RANDOM_FILES)]
    groups = []
    for i, M in enumerate(modules):
        path = _write(os.path.join(workdir, "m%d.skypres" % i), to_skypres(M))
        out = os.path.join(workdir, "out%d" % i)
        g = "%s,%s" % M.row_degrees[0]
        top = "%s,%s" % tuple(c + 1 for c in M.row_degrees[0])
        groups.append({"file": path, "out": out, "steps": [
            (["hn", path, "--at", g], "brute"),
            (["hn", path, "--at", g, "--engine", "cheng", "--seed", "1"],
             "cheng"),
            (["approx", path, "--epsilon", "1/2"], ""),
            (["scan", path, "--epsilon", "1/2"], ""),
            (["exact", path], ""),
            (["query", path, "--theta", "0", "--from", g, "--to", top], ""),
            (["landscape", path, "--resolution", "4"], ""),
            (["check", path], ""),
        ]})
    cross = groups[0]["file"]
    gx = _write(os.path.join(workdir, "generators_x.skypres"),
                "skypres v1\nfield 2\ngenerators x\n")
    header = _write(os.path.join(workdir, "bad_header.skypres"),
                    "skypres v9\nfield 2\n")
    field4 = _write(os.path.join(workdir, "field4.skypres"),
                    "skypres v1\nfield 4\ngenerators 0\nrelations 0\n")
    coeff = _write(os.path.join(workdir, "coeff.skypres"),
                   "skypres v1\nfield 2\ngenerators 1\n0 0\nrelations 1\n"
                   "1 1 : 0 5\n")
    missing = os.path.join(workdir, "missing.skypres")
    malformed = [
        ("bad header", ["approx", header, "--epsilon", "1"]),
        ("field 4", ["approx", field4, "--epsilon", "1"]),
        ("coefficient out of range", ["approx", coeff, "--epsilon", "1"]),
        ("missing file", ["approx", missing, "--epsilon", "1"]),
        ("unknown engine", ["hn", cross, "--at", "0,0", "--engine", "nope"]),
        # the five malformed inputs of ROADMAP item 5
        ("generators x", ["approx", gx, "--epsilon", "1"]),
        ("box without a generator",
         ["--box", "10,10,11,11", "approx", cross, "--epsilon", "1"]),
        ("cheng grid 1,1",
         ["hn", cross, "--at", "0,0", "--engine", "cheng", "--grid", "1,1"]),
        ("query from > to",
         ["query", cross, "--theta", "0", "--from", "1,1", "--to", "0,0"]),
        ("negative epsilon", ["approx", cross, "--epsilon", "-1"]),
    ]
    return {"groups": groups, "malformed": malformed,
            "out": os.path.join(workdir, "outbad")}


def cli_items_slice(items, n):
    """The first n module files, and every malformed input."""
    return dict(items, groups=items["groups"][:n])


def check_cli_outputs(rec, out, ok):
    """Check the files that the commands of one module file wrote to out."""
    if {"brute", "cheng"} <= ok:
        hn = [cli.parse_store(os.path.join(out, tag, "hn.csv"))
              for tag in ("brute", "cheng")]
        rec.check(hn[0] == hn[1], "hn --engine cheng differs from brute",
                  op=False)
    if {"approx", "scan"} <= ok:
        store_csv = os.path.join(out, "store.csv")
        rec.check(_read(store_csv) == _read(os.path.join(out, "scan.csv")),
                  "store.csv differs from scan.csv", op=False)
        s = cli.parse_store(store_csv, Fraction(1, 2))
        again = os.path.join(out, "roundtrip.csv")
        cli.emit_store(s, again)
        rec.check(_read(again) == _read(store_csv)
                  and cli.parse_store(again, Fraction(1, 2)) == s,
                  "parse_store/emit_store round trip changed the store",
                  op=False)


def cli_pass(items, rec):
    for grp in items["groups"]:
        out = grp["out"]
        ok = set()
        for argv, tag in grp["steps"]:
            dest = os.path.join(out, tag) if tag else out
            code = rec.op("cli." + argv[0], run_cli, ["--out", dest] + argv)
            if rec.check_exit(code, OK):
                ok.add(tag or argv[0])
        rec.later(check_cli_outputs, rec, out, ok)
    for label, argv in items["malformed"]:
        code = rec.op("cli malformed (%s)" % label, run_cli,
                      ["--out", items["out"]] + argv)
        rec.check_exit(code, ERROR)


class Workload:
    def __init__(self, setup, run_pass, final_check=None, prefix=None,
                 may_fail=False):
        self.setup = setup
        self.run_pass = run_pass
        self.final_check = final_check or (lambda items, rec: None)
        self._prefix = prefix
        # True only where inputs that break the contract at this commit are
        # run on purpose: their failures count in `failed` but leave the
        # run correct
        self.may_fail = may_fail

    def prefix(self, items, n):
        """The first n inputs, for warm-up and self-tests."""
        return self._prefix(items, n) if self._prefix else items[:n]


WORKLOADS = {
    "lattice": Workload(lattice_setup, lattice_pass),
    "thick": Workload(thick_setup, thick_pass),
    "cheng": Workload(cheng_setup, cheng_pass, final_check=cheng_final_check),
    "cli": Workload(cli_setup, cli_pass, prefix=cli_items_slice,
                    may_fail=True),
}
