"""File formats and the command-line surface.

Presentation files use the line-oriented "skypres v1" format::

    skypres v1
    field 2
    generators 2
    0 0
    0 1
    relations 2
    1 0 : 0 1
    0/1 3 : 0 1

Degrees are decimals or p/q rationals, parsed exactly.  '#' starts a
comment.  Stores and landscapes are emitted as sorted CSV.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction

from . import field as fieldmod
from . import grmat, hn_core, invariants, pipeline
from .grmat import GradedMatrix
from .invariants import (HNFactor, HNFactorList, SkyscraperStore, Staircase,
                         skyscraper_query)

__all__ = ["ParseError", "parse_presentation", "parse_store", "emit_store",
           "emit_landscape", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ENGINE = 3
EXIT_CHECK = 4


class ParseError(ValueError):
    def __init__(self, path, lineno, msg):
        super().__init__("%s:%d: %s" % (path, lineno, msg))
        self.path = path
        self.lineno = lineno


def _rational(tok):
    return Fraction(tok)   # handles "3", "1.5", and "3/2" exactly


def _count(path, no, tok):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, no, "count is not an integer")


def parse_presentation(path):
    """Read a skypres v1 file into a GradedMatrix; all violations are
    reported with line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = []
    for no, line in enumerate(raw, 1):
        text = line.split("#", 1)[0].strip()
        if text:
            lines.append((no, text))
    it = iter(lines)

    def take(what):
        try:
            return next(it)
        except StopIteration:
            raise ParseError(path, len(raw) + 1, "missing %s" % what)

    no, text = take("header")
    if text != "skypres v1":
        raise ParseError(path, no, "expected 'skypres v1' header")
    no, text = take("field line")
    parts = text.split()
    if len(parts) != 2 or parts[0] != "field":
        raise ParseError(path, no, "expected 'field <q>'")
    try:
        q = int(parts[1])
    except ValueError:
        raise ParseError(path, no, "field order is not an integer")
    try:
        F = fieldmod.PrimeField(q)
    except ValueError as exc:
        raise ParseError(path, no, str(exc))

    no, text = take("generators line")
    parts = text.split()
    if len(parts) != 2 or parts[0] != "generators":
        raise ParseError(path, no, "expected 'generators <m>'")
    m = _count(path, no, parts[1])
    row_degs = []
    for _ in range(m):
        no, text = take("generator degree")
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, no, "expected '<x> <y>'")
        try:
            row_degs.append((_rational(parts[0]), _rational(parts[1])))
        except (ValueError, ZeroDivisionError):
            raise ParseError(path, no, "bad rational degree")

    no, text = take("relations line")
    parts = text.split()
    if len(parts) != 2 or parts[0] != "relations":
        raise ParseError(path, no, "expected 'relations <n>'")
    n = _count(path, no, parts[1])
    col_degs = []
    cols = []
    for _ in range(n):
        no, text = take("relation")
        if ":" not in text:
            raise ParseError(path, no, "expected '<x> <y> : i c ...'")
        head, tail = text.split(":", 1)
        hp = head.split()
        if len(hp) != 2:
            raise ParseError(path, no, "expected two degree coordinates")
        try:
            d = (_rational(hp[0]), _rational(hp[1]))
        except (ValueError, ZeroDivisionError):
            raise ParseError(path, no, "bad rational degree")
        tp = tail.split()
        if len(tp) % 2:
            raise ParseError(path, no, "entries must be index/value pairs")
        col = []
        for i in range(0, len(tp), 2):
            try:
                idx, val = int(tp[i]), int(tp[i + 1])
            except ValueError:
                raise ParseError(path, no, "bad entry pair")
            if not 0 <= idx < m:
                raise ParseError(path, no, "row index %d out of range" % idx)
            if not 0 <= val < q:
                raise ParseError(path, no, "coefficient %d outside [0,%d)"
                                 % (val, q))
            if val:
                col.append((idx, val))
            if not grmat.deg_leq(row_degs[idx], d):
                raise ParseError(path, no,
                                 "inhomogeneous entry: row degree %s above "
                                 "column degree %s" % (row_degs[idx], d))
        col_degs.append(d)
        cols.append(col)
    try:
        return GradedMatrix(F, row_degs, col_degs, cols)
    except ValueError as exc:
        raise ParseError(path, 0, str(exc))


def _fr(x):
    return str(Fraction(x))


STORE_FIELDS = ["alpha_x", "alpha_y", "factor", "slope_num", "slope_den",
                "stair_gen_x", "stair_gen_y", "stair_rels"]


def emit_store(store, path):
    """One CSV row per staircase, sorted by (alpha_x, alpha_y, factor)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(STORE_FIELDS)
        for alpha in store.keys():
            for j, f in enumerate(store.entries[alpha].factors):
                for s in f.staircases:
                    rels = ";".join("%s:%s" % (_fr(r[0]), _fr(r[1]))
                                    for r in s.rels)
                    w.writerow([_fr(alpha[0]), _fr(alpha[1]), j,
                                f.slope.numerator, f.slope.denominator,
                                _fr(s.gen[0]), _fr(s.gen[1]), rels])


def parse_store(path, epsilon=None):
    """Rebuild a SkyscraperStore from an emitted CSV (exact round trip)."""
    groups = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != STORE_FIELDS:
            raise ParseError(path, 1, "bad store CSV header")
        for row in r:
            ax, ay, j = Fraction(row[0]), Fraction(row[1]), int(row[2])
            slope = Fraction(int(row[3]), int(row[4]))
            gen = (Fraction(row[5]), Fraction(row[6]))
            rels = []
            if row[7]:
                for tok in row[7].split(";"):
                    x, y = tok.split(":")
                    rels.append((Fraction(x), Fraction(y)))
            groups.setdefault((ax, ay), {}).setdefault(
                (j, slope), []).append(Staircase(gen, rels))
    store = SkyscraperStore(epsilon)
    for alpha in sorted(groups):
        factors = [HNFactor(groups[alpha][k], k[1])
                   for k in sorted(groups[alpha])]
        store.insert(HNFactorList(alpha, factors))
    return store


def emit_landscape(rows, path):
    """rows: iterable of (x, y, k, theta, lam)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "k", "theta", "lambda"])
        for x, y, k, theta, lam in sorted(rows):
            w.writerow([_fr(x), _fr(y), k, _fr(theta), _fr(lam)])


# ---------------------------------------------------------------------------


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected X,Y")
    return (Fraction(parts[0]), Fraction(parts[1]))


def _quad(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected X0,Y0,X1,Y1")
    return tuple(Fraction(p) for p in parts)


def _frac_list(text):
    return [Fraction(p) for p in text.split(",")]


def _int_list(text):
    return [int(p) for p in text.split(",")]


def _grid_size(text):
    parts = _int_list(text)
    if len(parts) != 2 or min(parts) < 2:
        raise argparse.ArgumentTypeError("expected NX,NY, both >= 2")
    return parts


def build_parser():
    ap = argparse.ArgumentParser(
        prog="skyhn",
        description="HN filtrations and the skyscraper invariant of "
                    "2-parameter persistence modules over finite fields.")
    ap.add_argument("--field", type=int, default=None,
                    help="expected prime field order (validated)")
    ap.add_argument("--box", type=_quad, default=None,
                    help="clipping box X0,Y0,X1,Y1")
    ap.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("hn", help="HN filtration at one degree")
    p.add_argument("input")
    p.add_argument("--at", type=_pair, required=True)
    p.add_argument("--engine", choices=["brute", "cheng"], default="brute")
    p.add_argument("--grid", type=_grid_size, default=None,
                   help="NX,NY override for the cheng engine grid")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("approx", help="epsilon-approximate store")
    p.add_argument("input")
    p.add_argument("--epsilon", type=Fraction, required=True)
    p.add_argument("--engine", choices=["brute", "cheng"], default="brute")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("exact", help="exact store snapshot on the grid")
    p.add_argument("input")

    p = sub.add_parser("scan", help="parallel grid scan store")
    p.add_argument("input")
    p.add_argument("--epsilon", type=Fraction, required=True)

    p = sub.add_parser("query", help="skyscraper query s^theta(from, to)")
    p.add_argument("input")
    p.add_argument("--theta", type=Fraction, required=True)
    p.add_argument("--from", dest="src", type=_pair, required=True)
    p.add_argument("--to", dest="dst", type=_pair, required=True)

    p = sub.add_parser("landscape", help="filtered landscape CSV")
    p.add_argument("input")
    p.add_argument("--k", type=_int_list, default=[1])
    p.add_argument("--theta", type=_frac_list, default=[Fraction(0)])
    p.add_argument("--resolution", type=int, default=8)
    p.add_argument("--anchor", choices=["center", "source"],
                   default="center")

    p = sub.add_parser("check", help="self-tests + interval-factor report")
    p.add_argument("input")
    p.add_argument("--epsilon", type=Fraction, default=Fraction(1))
    return ap


def _load(args):
    M = parse_presentation(args.input)
    if args.field is not None and M.field.q != args.field:
        raise ParseError(args.input, 2, "field %d does not match --field %d"
                         % (M.field.q, args.field))
    return M


def _box(args, M):
    return args.box or pipeline.bounding_box(M)


def _store_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_hn(args):
    M = _load(args)
    box = _box(args, M)
    cheng_grid = None
    if args.grid and args.engine == "cheng":
        nx, ny = args.grid
        x0, y0, x1, y1 = box
        cheng_grid = grmat.Grid(
            [x0 + (x1 - x0) * Fraction(i, nx - 1) for i in range(nx)],
            [y0 + (y1 - y0) * Fraction(j, ny - 1) for j in range(ny)])
    fl = pipeline.hn_at(M, args.at, engine=args.engine, seed=args.seed,
                        box=box, cheng_grid=cheng_grid)
    store = SkyscraperStore()
    store.insert(fl)
    emit_store(store, _store_path(args, "hn.csv"))
    for j, f in enumerate(fl.factors):
        print("factor %d slope %s dim %d" % (j, f.slope, len(f.staircases)))
    return EXIT_OK


def _cmd_approx(args):
    M = _load(args)
    cfg = pipeline.ScanConfig(epsilon=args.epsilon, engine=args.engine,
                              seed=args.seed, box=args.box)
    store = pipeline.approx_skyscraper(M, cfg)
    emit_store(store, _store_path(args, "store.csv"))
    print("entries %d" % len(store))
    return EXIT_OK


def _cmd_exact(args):
    M = _load(args)
    ex = pipeline.exact_skyscraper(M, box=args.box)
    keys = sorted({p for _, grid, _ in ex.summands for p in grid.points()})
    snap = ex.snapshot(keys)
    emit_store(snap, _store_path(args, "exact.csv"))
    print("entries %d" % len(snap))
    return EXIT_OK


def _cmd_scan(args):
    M = _load(args)
    cfg = pipeline.ScanConfig(epsilon=args.epsilon, box=args.box)
    store = pipeline.parallel_grid_scan(M, cfg)
    emit_store(store, _store_path(args, "scan.csv"))
    print("entries %d work %s" % (len(store), store.work))
    return EXIT_OK


def _cmd_query(args):
    M = _load(args)
    ex = pipeline.exact_skyscraper(M, box=args.box)
    print(ex.query(args.theta, args.src, args.dst))
    return EXIT_OK


def _cmd_landscape(args):
    M = _load(args)
    box = _box(args, M)
    ex = pipeline.exact_skyscraper(M, box=box)
    x0, y0, x1, y1 = box
    R = args.resolution
    pts = [(x0 + (x1 - x0) * Fraction(i, R - 1),
            y0 + (y1 - y0) * Fraction(j, R - 1))
           for i in range(R) for j in range(R)]
    rows = []
    for k in args.k:
        for theta in args.theta:
            lam = pipeline.filtered_landscape(ex, k, theta, pts,
                                              resolution=args.resolution,
                                              anchor=args.anchor)
            for (x, y), v in lam.items():
                rows.append((x, y, k, theta, v))
    emit_landscape(rows, _store_path(args, "landscape.csv"))
    print("rows %d" % len(rows))
    return EXIT_OK


def _cmd_check(args):
    import random
    M = _load(args)
    box = _box(args, M)
    cfg = pipeline.ScanConfig(epsilon=args.epsilon, box=box)
    approx = pipeline.approx_skyscraper(M, cfg)
    scan = pipeline.parallel_grid_scan(M, cfg)
    failures = []
    if approx != scan:
        failures.append("scan store differs from approx store")
    for alpha in approx.keys():
        slopes = [f.slope for f in approx.entries[alpha].factors]
        if any(a < b for a, b in zip(slopes, slopes[1:])):
            failures.append("slopes increase at %s" % (alpha,))
    ex = pipeline.exact_skyscraper(M, box=box)
    Mc = pipeline.clip_to_box(M, box)
    rng = random.Random(0)
    x0, y0, x1, y1 = box
    for _ in range(25):
        a = (x0 + (x1 - x0) * Fraction(rng.randrange(0, 8), 8),
             y0 + (y1 - y0) * Fraction(rng.randrange(0, 8), 8))
        b = (a[0] + (x1 - a[0]) * Fraction(rng.randrange(0, 8), 8),
             a[1] + (y1 - a[1]) * Fraction(rng.randrange(0, 8), 8))
        rank = fieldmod.reduce(grmat.structure_map(Mc, a, b))[0]
        if ex.query(Fraction(0), a, b) != rank:
            failures.append("theta=0 query differs from rank at %s -> %s"
                            % (a, b))
    report = pipeline.factor_interval_check(approx)
    for alpha, j, thick in report:
        print("non-interval factor at %s index %d thickness %d"
              % (alpha, j, thick))
    if failures:
        for msg in failures:
            print("FAIL:", msg, file=sys.stderr)
        return EXIT_CHECK
    print("check ok (%d entries, %d non-interval factors)"
          % (len(approx), len(report)))
    return EXIT_OK


_COMMANDS = {"hn": _cmd_hn, "approx": _cmd_approx, "exact": _cmd_exact,
             "scan": _cmd_scan, "query": _cmd_query,
             "landscape": _cmd_landscape, "check": _cmd_check}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # domain errors: a box without generators, --from not <= --to, ...
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (pipeline.EngineFailure,) as exc:
        print("engine failure: %s" % exc, file=sys.stderr)
        return EXIT_ENGINE
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
