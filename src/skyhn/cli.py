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

Degrees are decimals or p/q rationals, parsed exactly; a decimal
exponent above _MAX_EXPONENT = 4300 in absolute value, whose power of ten
alone would take seconds to build, is refused like any bad rational.  '#'
starts a comment.  Stores and landscapes are emitted as sorted CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import random
import sys
from fractions import Fraction

from . import field as fieldmod
from . import grmat, pipeline
from .grmat import GradedMatrix
from .invariants import HNFactor, HNFactorList, SkyscraperStore, Staircase

__all__ = ["ParseError", "parse_presentation", "parse_store", "emit_store",
           "emit_landscape", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ENGINE = 3
EXIT_CHECK = 4

_MAX_EXPONENT = 4300
_MAX_RESOLUTION = 128   # landscape's work grows as the resolution cubed


class ParseError(ValueError):
    def __init__(self, path, lineno, msg):
        super().__init__("%s:%d: %s" % (path, lineno, msg))
        self.path = path
        self.lineno = lineno


def _fraction(tok):
    """Fraction(tok) of "3", "1.5", "3/2" or "1e-3", exactly.  A malformed
    token, a zero denominator or an exponent above _MAX_EXPONENT raises
    ArgumentTypeError, which argparse reports as a one-line usage error."""
    try:
        _, e, exp = tok.lower().partition("e")
        if e and abs(int(exp)) > _MAX_EXPONENT:
            raise ValueError
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("bad rational %r" % tok)


def _count(path, no, tok):
    try:
        n = int(tok)
    except ValueError:
        raise ParseError(path, no, "count is not an integer")
    if n < 0:
        raise ParseError(path, no, "count is negative")
    return n


def parse_presentation(path, field=None):
    """Read a skypres v1 file into a GradedMatrix; all violations are
    reported with line numbers.  A field order other than `field`, when
    given, is one of them, on the field line."""
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

    def word_line(word, sym):
        no, text = take(word + " line")
        parts = text.split()
        if len(parts) != 2 or parts[0] != word:
            raise ParseError(path, no, "expected '%s <%s>'" % (word, sym))
        return no, parts[1]

    def degree(no, parts, shape):
        if len(parts) != 2:
            raise ParseError(path, no, shape)
        try:
            return (_fraction(parts[0]), _fraction(parts[1]))
        except argparse.ArgumentTypeError:
            raise ParseError(path, no, "bad rational degree")

    no, text = take("header")
    if text != "skypres v1":
        raise ParseError(path, no, "expected 'skypres v1' header")
    no, tok = word_line("field", "q")
    try:
        q = int(tok)
    except ValueError:
        raise ParseError(path, no, "field order is not an integer")
    try:
        F = fieldmod.PrimeField(q)
    except ValueError as exc:
        raise ParseError(path, no, str(exc))
    if field is not None and q != field:
        raise ParseError(path, no, "field %d does not match --field %d"
                         % (q, field))

    no, tok = word_line("generators", "m")
    m = _count(path, no, tok)
    row_degs = []
    for _ in range(m):
        no, text = take("generator degree")
        row_degs.append(degree(no, text.split(), "expected '<x> <y>'"))

    no, tok = word_line("relations", "n")
    n = _count(path, no, tok)
    col_degs = []
    cols = []
    for _ in range(n):
        no, text = take("relation")
        if ":" not in text:
            raise ParseError(path, no, "expected '<x> <y> : i c ...'")
        head, tail = text.split(":", 1)
        d = degree(no, head.split(), "expected two degree coordinates")
        tp = tail.split()
        if len(tp) % 2:
            raise ParseError(path, no, "entries must be index/value pairs")
        col = []
        named = set()
        for i in range(0, len(tp), 2):
            try:
                idx, val = int(tp[i]), int(tp[i + 1])
            except ValueError:
                raise ParseError(path, no, "bad entry pair")
            if not 0 <= idx < m:
                raise ParseError(path, no, "row index %d out of range" % idx)
            if idx in named:
                raise ParseError(path, no, "row index %d named twice" % idx)
            named.add(idx)
            if not 0 <= val < q:
                raise ParseError(path, no, "coefficient %d outside [0,%d)"
                                 % (val, q))
            if val:
                col.append((idx, val))
            if not grmat.deg_leq(row_degs[idx], d):
                raise ParseError(path, no,
                                 "inhomogeneous entry: row degree (%s, %s) "
                                 "above column degree (%s, %s)"
                                 % (*row_degs[idx], *d))
        col_degs.append(d)
        cols.append(col)
    for no, _ in it:
        raise ParseError(path, no, "line after the last declared relation")
    try:
        return GradedMatrix(F, row_degs, col_degs, cols)
    except ValueError as exc:
        raise ParseError(path, 0, str(exc))


STORE_FIELDS = ["alpha_x", "alpha_y", "factor", "slope_num", "slope_den",
                "stair_gen_x", "stair_gen_y", "stair_rels"]


def emit_store(store, path):
    """One CSV row per staircase, sorted by (alpha_x, alpha_y, factor);
    the store's Fraction coordinates are written as str writes them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(STORE_FIELDS)
        for alpha in store.keys():
            for j, f in enumerate(store.entries[alpha].factors):
                for s in f.staircases:
                    rels = ";".join("%s:%s" % (x, y) for x, y in s.rels)
                    w.writerow([alpha[0], alpha[1], j,
                                f.slope.numerator, f.slope.denominator,
                                s.gen[0], s.gen[1], rels])


def parse_store(path, epsilon=None):
    """Rebuild a SkyscraperStore from an emitted CSV (exact round trip); a
    malformed row is reported with its CSV line number."""
    store = SkyscraperStore(epsilon)
    groups = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != STORE_FIELDS:
            raise ParseError(path, 1, "bad store CSV header")
        for row in r:
            if len(row) != len(STORE_FIELDS):
                raise ParseError(path, r.line_num, "expected %d fields, got %d"
                                 % (len(STORE_FIELDS), len(row)))
            try:
                ax, ay, j = _fraction(row[0]), _fraction(row[1]), int(row[2])
                slope = Fraction(int(row[3]), int(row[4]))
                gen = (_fraction(row[5]), _fraction(row[6]))
                rels = []
                if row[7]:
                    for tok in row[7].split(";"):
                        x, y = tok.split(":")
                        rels.append((_fraction(x), _fraction(y)))
                stair = Staircase(gen, rels)
            except (ValueError, ZeroDivisionError,
                    argparse.ArgumentTypeError) as exc:
                raise ParseError(path, r.line_num, "bad store row: %s" % exc)
            groups.setdefault((ax, ay), {}).setdefault(
                (j, slope), []).append(stair)
    for alpha in sorted(groups):
        factors = [HNFactor(groups[alpha][k], k[1])
                   for k in sorted(groups[alpha])]
        store.insert(HNFactorList(alpha, factors))
    return store


def emit_landscape(rows, path):
    """rows: iterable of (x, y, k, theta, lam), the rationals as Fractions
    (or ints), written as str writes them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "k", "theta", "lambda"])
        for x, y, k, theta, lam in sorted(rows):
            w.writerow([x, y, k, theta, lam])


# ---------------------------------------------------------------------------


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected X,Y")
    return (_fraction(parts[0]), _fraction(parts[1]))


def _quad(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected X0,Y0,X1,Y1")
    return tuple(_fraction(p) for p in parts)


def _frac_list(text):
    return [_fraction(p) for p in text.split(",")]


def _k_list(text):
    parts = text.split(",")
    if not all(p.isdigit() and int(p) >= 1 for p in parts):
        raise argparse.ArgumentTypeError("expected integers >= 1")
    return [int(p) for p in parts]


def _resolution(text):
    if not text.isdigit() or not 2 <= int(text) <= _MAX_RESOLUTION:
        raise argparse.ArgumentTypeError("expected an integer from 2 to %d"
                                         % _MAX_RESOLUTION)
    return int(text)


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
    p.add_argument("--engine", choices=pipeline.ENGINES, default="brute")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("approx", help="epsilon-approximate store")
    p.add_argument("input")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--engine", choices=pipeline.ENGINES, default="brute")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("exact", help="exact store snapshot on the grid")
    p.add_argument("input")

    p = sub.add_parser("scan", help="parallel grid scan store")
    p.add_argument("input")
    p.add_argument("--epsilon", type=_fraction, required=True)

    p = sub.add_parser("query", help="skyscraper query s^theta(from, to)")
    p.add_argument("input")
    p.add_argument("--theta", type=_fraction, required=True)
    p.add_argument("--from", dest="src", type=_pair, required=True)
    p.add_argument("--to", dest="dst", type=_pair, required=True)

    p = sub.add_parser("landscape", help="filtered landscape CSV")
    p.add_argument("input")
    # tuples: one parser serves every call of main (see _parser)
    p.add_argument("--k", type=_k_list, default=(1,),
                   help="levels k of lambda_k, integers >= 1")
    p.add_argument("--theta", type=_frac_list, default=(Fraction(0),))
    p.add_argument("--resolution", type=_resolution, default=8,
                   help="evaluation points per axis and bisection steps, "
                   "2 to %d" % _MAX_RESOLUTION)
    p.add_argument("--anchor", choices=["center", "source"],
                   default="center")

    p = sub.add_parser("check", help="self-tests + interval-factor report")
    p.add_argument("input")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1))
    return ap


def _store_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_hn(args, M, box):
    fl = pipeline.hn_at(M, args.at, engine=args.engine, seed=args.seed,
                        box=box)
    store = SkyscraperStore()
    store.insert(fl)
    emit_store(store, _store_path(args, "hn.csv"))
    for j, f in enumerate(fl.factors):
        print("factor %d slope %s dim %d" % (j, f.slope, len(f.staircases)))


def _cmd_approx(args, M, box):
    cfg = pipeline.ScanConfig(epsilon=args.epsilon, engine=args.engine,
                              seed=args.seed, box=box)
    store = pipeline.approx_skyscraper(M, cfg)
    emit_store(store, _store_path(args, "store.csv"))
    print("entries %d" % len(store))


def _cmd_exact(args, M, box):
    ex = pipeline.exact_skyscraper(M, box, eager=False)
    # the grid points of the decompose pieces, where a filtration changes:
    # a presentation that hides a direct sum in one block gets no more
    keys = sorted({p for piece in ex.pieces
                   for p in grmat.induced_grid(piece).points()})
    snap = ex.snapshot(keys)
    emit_store(snap, _store_path(args, "exact.csv"))
    print("entries %d" % len(snap))


def _cmd_scan(args, M, box):
    cfg = pipeline.ScanConfig(epsilon=args.epsilon, box=box)
    store = pipeline.parallel_grid_scan(M, cfg)
    emit_store(store, _store_path(args, "scan.csv"))
    print("entries %d work %s" % (len(store), store.work))


def _cmd_query(args, M, box):
    ex = pipeline.exact_skyscraper(M, box, eager=False)
    print(ex.query(args.theta, args.src, args.dst))


def _cmd_landscape(args, M, box):
    ex = pipeline.exact_skyscraper(M, box, eager=False)
    # R evenly spaced points per axis from the box's lower to its upper
    # corner, x0 + (x1 - x0) * i/(R - 1), on ints over (R - 1)*D
    D, (x0, y0, x1, y1) = grmat._over_lcm(box)
    n = args.resolution - 1
    pts = [(Fraction(n * x0 + (x1 - x0) * i, n * D),
            Fraction(n * y0 + (y1 - y0) * j, n * D))
           for i in range(n + 1) for j in range(n + 1)]
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


def _map_rank(M, a, b):
    """Rank of V(a -> b) from one fiber model, at b: the rank of the
    images there of the generators <= a, which span V_a; both picked on
    M's coordinate ranks."""
    below, _ = grmat._leq_ranks(M, a)
    return grmat.pointwise_model(M, b).image_rank(
        [i for i, live in enumerate(below) if live])


def _probe_pairs(box):
    """check's 25 probe pairs a <= b, drawn from random.Random(0) four
    draws i, j, k, l in 0..7 per pair: a = (x0 + (x1 - x0)*i/8, y0 + (y1 -
    y0)*j/8) and b = (a_x + (x1 - a_x)*k/8, a_y + (y1 - a_y)*l/8), on ints
    over the box's common denominator D, a over 8*D and b over 64*D."""
    rng = random.Random(0)
    D, (x0, y0, x1, y1) = grmat._over_lcm(box)
    for _ in range(25):
        i, j, k, l = (rng.randrange(0, 8) for _ in range(4))
        ax, ay = 8 * x0 + (x1 - x0) * i, 8 * y0 + (y1 - y0) * j
        yield ((Fraction(ax, 8 * D), Fraction(ay, 8 * D)),
               (Fraction(8 * ax + (8 * x1 - ax) * k, 64 * D),
                Fraction(8 * ay + (8 * y1 - ay) * l, 64 * D)))


def _cmd_check(args, M, box):
    cfg = pipeline.ScanConfig(epsilon=args.epsilon, box=box)
    approx = pipeline.approx_skyscraper(M, cfg)
    scan = pipeline.parallel_grid_scan(M, cfg)
    failures = []
    if approx != scan:
        failures.append("scan store differs from approx store")
    for alpha in approx.keys():
        slopes = [f.slope.as_integer_ratio()
                  for f in approx.entries[alpha].factors]
        if any(an * bd <= bn * ad
               for (an, ad), (bn, bd) in zip(slopes, slopes[1:])):
            failures.append("slopes do not strictly decrease at (%s, %s)"
                            % alpha)
    # the drivers' box object: the store finds their preparation on M by
    # identity, with no Fraction comparison
    ex = pipeline.exact_skyscraper(M, box=cfg.box, eager=False)
    # every probe point b lies strictly below the box's upper edges, where
    # no cap relation of clip_to_box is <= b: the ranks are those of M
    for a, b in _probe_pairs(box):
        if ex.query(Fraction(0), a, b) != _map_rank(M, a, b):
            failures.append("theta=0 query differs from rank at (%s, %s) -> "
                            "(%s, %s)" % (*a, *b))
    report = pipeline.factor_interval_check(approx)
    for alpha, j, thick in report:
        print("non-interval factor at (%s, %s) index %d thickness %d"
              % (*alpha, j, thick))
    if failures:
        for msg in failures:
            print("FAIL:", msg, file=sys.stderr)
        return EXIT_CHECK
    print("check ok (%d entries, %d non-interval factors)"
          % (len(approx), len(report)))


_COMMANDS = {"hn": _cmd_hn, "approx": _cmd_approx, "exact": _cmd_exact,
             "scan": _cmd_scan, "query": _cmd_query,
             "landscape": _cmd_landscape, "check": _cmd_check}


@functools.cache
def _parser():
    """The parser of main, built once per process: parse_args leaves it
    unchanged, and its defaults are immutable."""
    return build_parser()


def main(argv=None):
    """Run one command on the presentation args.input in its box (--box,
    else the bounding box); exit status 0 unless the command returns
    another (check's EXIT_CHECK)."""
    args = _parser().parse_args(argv)
    try:
        M = parse_presentation(args.input, args.field)
        return _COMMANDS[args.cmd](
            args, M, args.box or pipeline.bounding_box(M)) or EXIT_OK
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # domain errors: a box without generators, --from not <= --to, ...
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except pipeline.EngineFailure as exc:
        # its message starts with "engine failure at (x, y)"
        print(exc, file=sys.stderr)
        return EXIT_ENGINE
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
