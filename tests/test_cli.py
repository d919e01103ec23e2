import functools
import os
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skyhn import cheng, cli, grmat, invariants, pipeline
from skyhn.cli import (ParseError, emit_store, main, parse_presentation,
                       parse_store)
from skyhn.field import PrimeField
from skyhn.pipeline import ScanConfig, approx_skyscraper, bounding_box

from conftest import (cross_module, hidden_corpus, random_bounded_module,
                      stable_module)

import reference


CROSS_TEXT = """\
# cross fixture
skypres v1
field 2
generators 2
0 0
0 1
relations 4
1 0 : 0 1
0 3 : 0 1
3 1 : 1 1
0 2 : 1 1
"""


@pytest.fixture
def cross_file(tmp_path):
    p = tmp_path / "cross.skypres"
    p.write_text(CROSS_TEXT)
    return str(p)


def test_parse_presentation_round_trip(cross_file):
    M = parse_presentation(cross_file)
    assert M == cross_module()


def test_parse_rational_and_decimal_degrees(tmp_path):
    p = tmp_path / "m.skypres"
    p.write_text("skypres v1\nfield 3\ngenerators 1\n1/2 0.25\n"
                 "relations 1\n3/2 1.25 : 0 2\n")
    M = parse_presentation(str(p))
    assert M.row_degrees == [(Fr(1, 2), Fr(1, 4))]
    assert M.col_degrees == [(Fr(3, 2), Fr(5, 4))]


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("nope\n", 1),
        ("skypres v1\nfield 4\n", 2),
        ("skypres v1\nfield 2\ngenerators 1\n0 0\nrelations 1\n"
         "1 0 : 5 1\n", 6),
        ("skypres v1\nfield 2\ngenerators 1\n0 1\nrelations 1\n"
         "1 0 : 0 1\n", 6),
        ("skypres v1\nfield 2\ngenerators 1\n0 0\nrelations 1\n"
         "1 0 : 0 7\n", 6),
    ]
    for text, lineno in cases:
        p = tmp_path / "bad.skypres"
        p.write_text(text)
        with pytest.raises(ParseError) as ei:
            parse_presentation(str(p))
        assert ei.value.lineno == lineno, text


def test_empty_relations_free_module(tmp_path):
    p = tmp_path / "free.skypres"
    p.write_text("skypres v1\nfield 2\ngenerators 1\n0 0\nrelations 0\n")
    M = parse_presentation(str(p))
    assert M.nrows == 1 and M.ncols == 0


def test_store_csv_round_trip(tmp_path, cross):
    from skyhn.pipeline import ScanConfig, approx_skyscraper
    store = approx_skyscraper(cross, ScanConfig(epsilon=1))
    path = str(tmp_path / "store.csv")
    emit_store(store, path)
    back = parse_store(path, epsilon=Fr(1))
    for theta in (Fr(0), Fr(2, 5), Fr(3, 5)):
        for a in store.keys():
            b = (a[0], a[1] + 1)
            assert invariants.skyscraper_query(store, theta, a, b) == \
                invariants.skyscraper_query(back, theta, a, b)
    # emit of the reparsed store is byte-identical
    path2 = str(tmp_path / "store2.csv")
    emit_store(back, path2)
    assert open(path).read() == open(path2).read()


def test_parse_store_errors_carry_line_numbers(tmp_path):
    """A malformed store row is a ParseError at its CSV line, as in
    parse_presentation: a short or long row, a zero slope denominator, a
    relation token without ':', a bad rational and relations that are no
    antichain."""
    head = ",".join(cli.STORE_FIELDS) + "\n0,0,0,1,2,0,0,0:1;1:0\n"
    for row, msg in (("0,0,0,1", "expected 8 fields, got 4"),
                     ("0,0,0,1,0,0,0,1:0", "bad store row"),
                     ("0,0,0,1,2,0,0,2", "bad store row"),
                     ("x,0,0,1,2,0,0,1:0", "bad store row"),
                     ("0,0,0,1,2,0,0,1:1;2:2", "antichain"),
                     ("0,0,0,1,2,0,0,1:0,9", "expected 8 fields, got 9")):
        p = tmp_path / "bad.csv"
        p.write_text(head + row + "\n")
        with pytest.raises(ParseError, match=msg) as ei:
            parse_store(str(p))
        assert ei.value.lineno == 3, row
    p.write_text(head)
    assert parse_store(str(p)).keys() == [(Fr(0), Fr(0))]


def test_cli_hn(cross_file, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "hn", cross_file, "--at", "0,1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope 1/2" in out and "slope 1/3" in out
    assert os.path.exists(os.path.join(str(tmp_path), "hn.csv"))


def test_cli_scan_matches_approx(cross_file, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["--out", out1, "approx", cross_file,
                 "--epsilon", "1/2"]) == 0
    assert main(["--out", out2, "scan", cross_file, "--epsilon", "1/2"]) == 0
    a = open(os.path.join(out1, "store.csv")).read()
    b = open(os.path.join(out2, "scan.csv")).read()
    assert a == b


def test_cli_query(cross_file, capsys):
    rc = main(["query", cross_file, "--theta", "2/5",
               "--from", "0,1", "--to", "0,2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_landscape(cross_file, tmp_path):
    rc = main(["--out", str(tmp_path), "landscape", cross_file,
               "--k", "1", "--theta", "0", "--resolution", "4"])
    assert rc == 0
    lines = open(os.path.join(str(tmp_path), "landscape.csv")).read().strip()
    assert lines.splitlines()[0] == "x,y,k,theta,lambda"
    assert len(lines.splitlines()) == 17


def test_cli_check_ok(cross_file, capsys):
    assert main(["check", cross_file]) == 0
    assert "check ok" in capsys.readouterr().out


def test_cli_check_reports_each_failure(cross_file, monkeypatch, capsys):
    """With drivers that disagree, check exits 4 and writes one FAIL line
    per failure to stderr, with no traceback: a scan store that differs
    from the approx store, an entry whose slopes do not strictly decrease,
    and a theta=0 query that differs from the rank at each of the 25 probe
    pairs."""
    approx = pipeline.approx_skyscraper

    def bad_approx(M, cfg):
        store = approx(M, cfg)
        fl = store.entries[store.keys()[0]]
        store.insert(invariants.HNFactorList(fl.alpha, fl.factors * 2))
        return store
    monkeypatch.setattr(pipeline, "approx_skyscraper", bad_approx)
    monkeypatch.setattr(pipeline, "parallel_grid_scan",
                        lambda M, cfg: invariants.SkyscraperStore(cfg.epsilon))
    monkeypatch.setattr(cli, "_map_rank", lambda M, a, b: -1)
    assert main(["check", cross_file]) == 4
    out, err = capsys.readouterr()
    assert "check ok" not in out and "Traceback" not in err
    lines = err.splitlines()
    assert all(line.startswith("FAIL: ") for line in lines)
    assert lines[0] == "FAIL: scan store differs from approx store"
    assert lines[1] == "FAIL: slopes do not strictly decrease at (0, 0)"
    assert len(lines) == 27
    assert all("query differs from rank" in line for line in lines[2:])


def test_cli_io_errors_exit_2(cross_file, tmp_path, capsys):
    """A missing input file, an input path that is a directory and an
    --out below a regular file each end in exit 2 with one i/o error
    line."""
    plain = tmp_path / "plain"
    plain.write_text("")
    for argv in (["approx", str(tmp_path / "missing.skypres")],
                 ["approx", str(tmp_path)],
                 ["--out", str(plain / "out"), "approx", cross_file]):
        assert main(argv + ["--epsilon", "1"]) == 2, argv
        err = _one_line_error(capsys)
        assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")


def test_cli_check_clips_once(cross_file, tmp_path, monkeypatch, capsys):
    """skyhn check clips the module once, in the preparation its three
    drivers share, and takes its rank checks on the parsed module: they
    probe points b strictly below the box's upper edges, where no cap
    relation of clip_to_box is <= b, so the ranks there equal those of
    the clipped module."""
    clip, calls = pipeline.clip_to_box, []
    monkeypatch.setattr(pipeline, "clip_to_box",
                        lambda M, box: calls.append(box) or clip(M, box))
    rng = random.Random(43)
    files = [cross_file]
    for i in range(4):
        M = random_bounded_module(rng, PrimeField((2, 3)[i % 2]),
                                  rng.randrange(1, 4), dmax=4)
        path = tmp_path / ("m%d.skypres" % i)
        path.write_text(_skypres(M))
        files.append(str(path))
    for path in files:
        del calls[:]
        assert main(["check", path]) == 0
        assert "check ok" in capsys.readouterr().out
        assert len(calls) == 1
    for _ in range(40):
        M = random_bounded_module(rng, PrimeField(rng.choice((2, 3))),
                                  rng.randrange(1, 4), dmax=4)
        x0, y0, x1, y1 = box = bounding_box(M)
        Mc = clip(M, box)
        for _ in range(10):
            a = (x0 + (x1 - x0) * Fr(rng.randrange(0, 8), 8),
                 y0 + (y1 - y0) * Fr(rng.randrange(0, 8), 8))
            b = (a[0] + (x1 - a[0]) * Fr(rng.randrange(0, 8), 8),
                 a[1] + (y1 - a[1]) * Fr(rng.randrange(0, 8), 8))
            assert cli._map_rank(M, a, b) == cli._map_rank(Mc, a, b)


@pytest.mark.parametrize("q", [2, 3])
def test_check_rank_reads_one_fiber_model(monkeypatch, q):
    """skyhn check takes the rank of V(a -> b) from one fiber model, at b
    (cli._map_rank): it equals the rank of V(a -> b) of the reference,
    on random pairs a <= b of random clipped modules, including pairs with
    a zero fiber at either end."""
    F, rng = PrimeField(q), random.Random(40 + q)
    model, models = grmat.pointwise_model, []
    monkeypatch.setattr(grmat, "pointwise_model",
                        lambda M, g: models.append(g) or model(M, g))
    ranks = set()
    for _ in range(30):
        M = random_bounded_module(rng, F, rng.randrange(1, 5), dmax=4)
        Mc = pipeline.clip_to_box(M, bounding_box(M))
        for _ in range(40):
            a = (Fr(rng.randrange(-1, 9), 2), Fr(rng.randrange(-1, 9), 2))
            b = (a[0] + Fr(rng.randrange(0, 5), 2),
                 a[1] + Fr(rng.randrange(0, 5), 2))
            want = reference.map_rank(Mc, a, b)
            del models[:]
            assert cli._map_rank(Mc, a, b) == want, (a, b)
            assert models == [b]
            ranks.add(want)
    assert {0, 1, 2} <= ranks


def _probe_pairs_reference(box):
    """skyhn check's probe pairs as they were computed, by Fraction
    arithmetic on the box's corners."""
    rng = random.Random(0)
    x0, y0, x1, y1 = box
    out = []
    for _ in range(25):
        a = (x0 + (x1 - x0) * Fr(rng.randrange(0, 8), 8),
             y0 + (y1 - y0) * Fr(rng.randrange(0, 8), 8))
        b = (a[0] + (x1 - a[0]) * Fr(rng.randrange(0, 8), 8),
             a[1] + (y1 - a[1]) * Fr(rng.randrange(0, 8), 8))
        out.append((a, b))
    return out


def test_check_probe_pairs_match_the_fraction_formula():
    """skyhn check's probe pairs, built on ints over the box's common
    denominator (cli._probe_pairs), are the pairs of the Fraction formula,
    in the same draw order of random.Random(0), on 200 random boxes with
    mixed denominators, negative corners and an empty side now and then;
    so are the failure messages, which print them with str."""
    rng = random.Random(31)
    dens = (1, 2, 3, 4, 5, 6, 7, 9, 12, 35)
    for _ in range(200):
        x0 = Fr(rng.randrange(-40, 40), rng.choice(dens))
        y0 = Fr(rng.randrange(-40, 40), rng.choice(dens))
        box = (x0, y0, x0 + Fr(rng.randrange(0, 30), rng.choice(dens)),
               y0 + Fr(rng.randrange(0, 30), rng.choice(dens)))
        got = list(cli._probe_pairs(box))
        want = _probe_pairs_reference(box)
        assert got == want, box
        assert [str(c) for a, b in got for c in a + b] == \
            [str(c) for a, b in want for c in a + b]
        assert all(type(c) is Fr for a, b in got for c in a + b)


# I + I, I one generator at (0,0) killed at (1,0) and (0,1) over GF(2), and
# the same module with a third generator cancelled by a relation at (0,0),
# which makes the presentation one connected block
I_PLUS_I = """\
skypres v1
field 2
generators 2
0 0
0 0
relations 4
1 0 : 0 1
0 1 : 0 1
1 0 : 1 1
0 1 : 1 1
"""
I_PLUS_I_CANCELLED = """\
skypres v1
field 2
generators 3
0 0
0 0
0 0
relations 5
0 0 : 0 1 1 1 2 1
1 0 : 0 1
0 1 : 0 1
1 0 : 1 1
0 1 : 1 1
"""


def test_cli_check_same_report_on_both_presentations(tmp_path, capsys):
    """The HN filtration of I + I at (0,0) is one factor of slope 1 and
    thickness 2 whatever the presentation: check passes on both, with
    strictly decreasing slopes, and reports the same non-interval
    factor."""
    reports = []
    for k, text in enumerate((I_PLUS_I, I_PLUS_I_CANCELLED)):
        p = tmp_path / ("m%d.skypres" % k)
        p.write_text(text)
        assert main(["--out", str(tmp_path), "check", str(p)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "non-interval factor at (0, 0) index 0 thickness 2" in reports[0]


def _skypres(M):
    """The skypres v1 text of a presentation."""
    lines = ["skypres v1", "field %d" % M.field.q, "generators %d" % M.nrows]
    lines += ["%s %s" % d for d in M.row_degrees]
    lines.append("relations %d" % M.ncols)
    lines += ["%s %s : %s" % (d[0], d[1], " ".join("%d %d" % e for e in col))
              for d, col in zip(M.col_degrees, M.columns)]
    return "\n".join(lines) + "\n"


def test_cli_reads_a_lazy_exact_store(cross_file, tmp_path, monkeypatch,
                                      capsys):
    """query, landscape and check build the exact store lazily and answer
    as the eager store does; query builds at most one cell per summand
    (and at most one non-empty one, ExactStore.work)."""
    p = tmp_path / "m.skypres"
    M = random_bounded_module(random.Random(8), PrimeField(3), 3, dmax=4)
    p.write_text(_skypres(M))
    real = cli.pipeline.exact_skyscraper
    stores = []

    def record(M, box=None, eager=True):
        stores.append(real(M, box, eager))
        return stores[-1]

    def run(argv, out):
        stores.clear()
        rc = main(["--out", str(out)] + argv)
        return rc, capsys.readouterr().out, [
            open(os.path.join(out, f)).read() for f in sorted(os.listdir(out))]
    commands = [
        ["query", path, "--theta", "0", "--from", a, "--to", b]
        for path, a, b in [(cross_file, "0,1", "0,2"),
                           (str(p), "%s,%s" % M.row_degrees[0], "4,4")]
    ] + [["landscape", f, "--resolution", "3"] for f in (cross_file, str(p))
         ] + [["check", f] for f in (cross_file, str(p))]
    for k, argv in enumerate(commands):
        monkeypatch.setattr(cli.pipeline, "exact_skyscraper", record)
        (tmp_path / ("lazy%d" % k)).mkdir()
        lazy = run(argv, tmp_path / ("lazy%d" % k))
        assert lazy[0] == 0
        if argv[0] == "query":
            assert len(stores) == 1 and all(n <= 1 for n in stores[0].work)
            assert all(len(cells) <= 1 for _, _, cells in stores[0].summands)
        monkeypatch.setattr(cli.pipeline, "exact_skyscraper",
                            lambda M, box=None, eager=True: real(M, box))
        (tmp_path / ("eager%d" % k)).mkdir()
        assert run(argv, tmp_path / ("eager%d" % k)) == lazy


def test_cli_negative_coordinates_take_the_equals_form(tmp_path, capsys):
    """argparse reads "-1,2" after --at as a flag and exits 2; the form
    --at=-1,2 (and --box=...) parses."""
    p = tmp_path / "neg.skypres"
    p.write_text("skypres v1\nfield 2\ngenerators 1\n-1 2\nrelations 2\n"
                 "3 2 : 0 1\n-1 4 : 0 1\n")
    with pytest.raises(SystemExit) as ei:
        main(["hn", str(p), "--at", "-1,2"])
    assert ei.value.code == 2
    capsys.readouterr()
    out = ["--out", str(tmp_path)]
    assert main(out + ["hn", str(p), "--at=-1,2"]) == 0
    assert "slope 1/8" in capsys.readouterr().out
    assert main(out + ["--box=-1,-1,5,5", "approx", str(p),
                       "--epsilon", "1"]) == 0
    assert os.path.exists(os.path.join(str(tmp_path), "store.csv"))


def test_cli_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.skypres"
    p.write_text("skypres v1\nfield 4\ngenerators 0\nrelations 0\n")
    assert main(["hn", str(p), "--at", "0,0"]) == 2


def test_cli_field_mismatch(cross_file, tmp_path, capsys):
    """--field names the field line's own number, after comments and
    blank lines, in the parser's error and in the CLI's message."""
    assert main(["--field", "3", "hn", cross_file, "--at", "0,1"]) == 2
    assert "cross.skypres:3: field 2 does not match --field 3" in \
        _one_line_error(capsys)
    p = tmp_path / "c.txt"
    p.write_text("# a comment\n\nskypres v1\nfield 2\ngenerators 0\n"
                 "relations 0\n")
    with pytest.raises(ParseError) as ei:
        parse_presentation(str(p), 3)
    assert ei.value.lineno == 4
    assert parse_presentation(str(p), 2).field.q == 2
    assert main(["--field", "3", "--out", str(tmp_path), "exact",
                 str(p)]) == 2
    assert "c.txt:4: field 2 does not match --field 3" in \
        _one_line_error(capsys)


def test_cli_field_too_large_exits_2(tmp_path, capsys):
    """A field order past 2^16, here the prime 2^61 - 1, is a parse error
    on its line (it once hung in the primality test)."""
    p = tmp_path / "big.skypres"
    p.write_text("skypres v1\nfield 2305843009213693951\ngenerators 0\n"
                 "relations 0\n")
    assert main(["--out", str(tmp_path), "exact", str(p)]) == 2
    err = _one_line_error(capsys)
    assert "big.skypres:2: field order too large" in err
    assert len(err.splitlines()) == 1


def test_cli_messages_write_degrees_as_rationals(cross_file, tmp_path,
                                                 capsys, monkeypatch):
    """Degrees in error messages read (0, 1) and (1/2, 0), and no stderr
    line holds a Fraction's repr: an inhomogeneous entry, a generator
    outside --box, and an engine failure (every draw failing on a
    thickness-2 semistable module)."""
    inh = tmp_path / "inh.skypres"
    inh.write_text("skypres v1\nfield 3\ngenerators 1\n0 1\nrelations 1\n"
                   "1/2 0 : 0 1\n")
    stable = tmp_path / "stable.skypres"
    stable.write_text(_skypres(stable_module()))
    cases = [
        (["hn", str(inh), "--at", "0,1"], 2,
         "inh.skypres:6: inhomogeneous entry: row degree (0, 1) above "
         "column degree (1/2, 0)"),
        (["--box", "1/2,0,4,4", "hn", cross_file, "--at", "1,1"], 2,
         "error: generator 0 at (0, 0) outside the box"),
        (["hn", str(stable), "--at", "0,0", "--engine", "cheng"], 3,
         "engine failure: engine failure at (0, 0): no certified shrunk "
         "subspace at (0, 0) after 8 attempts"),
    ]
    monkeypatch.setattr(cheng, "shrunk_subspace_random",
                        lambda *a, **k: None)
    for argv, code, msg in cases:
        assert main(["--out", str(tmp_path)] + argv) == code, msg
        err = _one_line_error(capsys)
        assert msg in err
        assert not [line for line in err.splitlines() if "Fraction(" in line]


def test_cli_exact(cross_file, tmp_path):
    rc = main(["--out", str(tmp_path), "exact", cross_file])
    assert rc == 0
    assert os.path.exists(os.path.join(str(tmp_path), "exact.csv"))


def test_cli_exact_keys_do_not_depend_on_the_presentation(tmp_path, capsys):
    """A hidden direct sum that stays one connected block and the direct
    sum of its decompose pieces write the same exact.csv under one --box:
    the keys are the grid points of the pieces, not of the blocks."""
    n_hidden = 0
    for i, (_, _, M) in enumerate(hidden_corpus(n=18, seed=99,
                                                max_thickness=4)):
        box = bounding_box(M)
        blocks = pipeline._clipped_blocks(M, box)
        pieces = [p for b in blocks for p in grmat.decompose(b)]
        n_hidden += len(blocks) < len(pieces)
        texts = []
        for k, N in enumerate((M, functools.reduce(grmat.direct_sum,
                                                   pieces))):
            p = tmp_path / ("m%d.skypres" % k)
            p.write_text(_skypres(N))
            out = tmp_path / ("out%d" % k)
            assert main(["--out", str(out), "--box",
                         ",".join(str(c) for c in box), "exact", str(p)]) == 0
            texts.append((out / "exact.csv").read_text())
        assert texts[0] == texts[1], i
    capsys.readouterr()
    assert n_hidden >= 10


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip()
    assert "Traceback" not in err
    return err


def test_cli_refuses_nonpositive_epsilon(cross_file, tmp_path, capsys):
    """approx, scan and check exit 2 on an epsilon <= 0 with one line,
    the message of ScanConfig, and no traceback."""
    for cmd in ("approx", "scan", "check"):
        for eps in (["--epsilon", "0"], ["--epsilon=-1/2"]):
            assert main(["--out", str(tmp_path), cmd, cross_file]
                        + eps) == 2, (cmd, eps)
            assert _one_line_error(capsys) == \
                "error: epsilon must be positive", (cmd, eps)


def test_cli_generators_not_an_integer(tmp_path, capsys):
    p = tmp_path / "gx.skypres"
    p.write_text("skypres v1\nfield 2\ngenerators x\n")
    with pytest.raises(ParseError) as ei:
        parse_presentation(str(p))
    assert ei.value.lineno == 3
    assert main(["approx", str(p), "--epsilon", "1"]) == 2
    assert len(_one_line_error(capsys).splitlines()) == 1


def test_cli_malformed_counts_and_trailing_relation(tmp_path, capsys):
    # all three exited 0; the extra relation line was silently dropped
    head = "skypres v1\nfield 2\n"
    cases = [
        ("neg_gens", head + "generators -2\n", 3),
        ("neg_rels", head + "generators 1\n0 0\nrelations -1\n", 5),
        ("extra_rel", head + "generators 1\n0 0\nrelations 1\n"
         "1 0 : 0 1\n# comment\n0 1 : 0 1\n", 8),
    ]
    for name, text, lineno in cases:
        p = tmp_path / (name + ".skypres")
        p.write_text(text)
        with pytest.raises(ParseError) as ei:
            parse_presentation(str(p))
        assert ei.value.lineno == lineno, name
        assert main(["--out", str(tmp_path / "out"), "approx", str(p),
                     "--epsilon", "1"]) == 2, name
        assert len(_one_line_error(capsys).splitlines()) == 1, name


def test_relation_naming_a_generator_twice(tmp_path, capsys):
    """A relation that names one generator twice was read with its last
    entry winning, although the two entries would sum to zero over GF(3);
    it is a parse error on its own line, and the CLI exits 2."""
    head = "skypres v1\nfield 3\ngenerators 2\n0 0\n0 0\nrelations 2\n"
    cases = [("twice", head + "1 0 : 1 1\n1 1 : 0 1 0 2\n", 8),
             ("with a zero", head + "1 1 : 1 0 0 1 1 2\n0 1 : 0 1\n", 7)]
    for name, text, lineno in cases:
        p = tmp_path / (name.replace(" ", "_") + ".skypres")
        p.write_text(text)
        with pytest.raises(ParseError, match="named twice") as ei:
            parse_presentation(str(p))
        assert ei.value.lineno == lineno, name
        assert main(["--out", str(tmp_path / "out"), "approx", str(p),
                     "--epsilon", "1"]) == 2, name
        assert len(_one_line_error(capsys).splitlines()) == 1, name
    ok = tmp_path / "once.skypres"
    ok.write_text(head + "1 0 : 1 1\n1 1 : 0 1 1 2\n")
    assert parse_presentation(str(ok)).columns[1] == [(0, 1), (1, 2)]


def test_cli_box_without_generator(cross_file, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--box", "10,10,11,11", "approx",
                 cross_file, "--epsilon", "1"]) == 2
    assert len(_one_line_error(capsys).splitlines()) == 1


def test_cli_cheng_grid_needs_two_lines_per_axis(cross_file, tmp_path,
                                                 capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--out", str(tmp_path), "hn", cross_file, "--at", "0,0",
              "--engine", "cheng", "--grid", "1,1"])
    assert ei.value.code == 2
    assert "--grid" in _one_line_error(capsys).splitlines()[-1]


def test_cli_cheng_grid_must_hold_the_degrees(cross_file, tmp_path, capsys):
    """The cross fixture's box is [0, 4]^2: a 4 x 4 grid (spacing 4/3)
    misses its degrees at 1, 2 and 3, and the answer would not be the
    HN filtration, so hn exits 2 with one line; the 5 x 5 grid holds
    them and agrees with brute force."""
    out = str(tmp_path)
    assert main(["--out", out, "hn", cross_file, "--at", "0,1",
                 "--engine", "cheng", "--grid", "4,4"]) == 2
    err = _one_line_error(capsys)
    assert len(err.splitlines()) == 1 and "cheng grid" in err
    assert not os.path.exists(os.path.join(out, "hn.csv"))
    assert main(["--out", out, "hn", cross_file, "--at", "0,1",
                 "--engine", "cheng", "--grid", "5,5"]) == 0
    cheng_out = capsys.readouterr().out
    assert main(["--out", out, "hn", cross_file, "--at", "0,1"]) == 0
    assert capsys.readouterr().out == cheng_out


def test_cli_landscape_resolution_below_two(cross_file, tmp_path, capsys):
    # 1 divided by zero and 0 or less wrote an empty landscape
    for bad in ("1", "0", "-3", "x"):
        with pytest.raises(SystemExit) as ei:
            main(["--out", str(tmp_path), "landscape", cross_file,
                  "--resolution", bad])
        assert ei.value.code == 2, bad
        err = _one_line_error(capsys).splitlines()
        assert "--resolution" in err[-1], bad
    assert not os.path.exists(os.path.join(str(tmp_path), "landscape.csv"))
    assert main(["--out", str(tmp_path), "landscape", cross_file,
                 "--resolution", "2"]) == 0
    rows = open(os.path.join(str(tmp_path), "landscape.csv")).readlines()
    assert len(rows) == 1 + 2 * 2


def test_cli_landscape_k_below_one(tmp_path, capsys):
    # --k 0 and --k -1 wrote lambda = 2 everywhere, also at (2, 2), where
    # this module is zero
    p = tmp_path / "a.skypres"
    p.write_text("skypres v1\nfield 2\ngenerators 2\n0 0\n1 1\n"
                 "relations 0\n")
    argv = ["--out", str(tmp_path), "--box", "0,0,2,2", "landscape", str(p),
            "--resolution", "2"]
    for bad in ("0", "-1", "1,0", "x"):
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--k", bad])
        assert ei.value.code == 2, bad
        errors = [line for line in _one_line_error(capsys).splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "--k" in errors[0], bad
    assert not os.path.exists(os.path.join(str(tmp_path), "landscape.csv"))
    assert main(argv + ["--k", "1,2"]) == 0
    rows = open(os.path.join(str(tmp_path), "landscape.csv")).readlines()
    assert "2,2,1,0,0\n" in rows and "2,2,2,0,0\n" in rows


def test_cli_parser_built_once_and_calls_share_no_state(cross_file, tmp_path,
                                                        monkeypatch):
    """main builds its parser once per process, and consecutive calls with
    different subcommands see only their own arguments and defaults,
    including landscape's --k and --theta defaults after a call changed
    the values it was given."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {
        name: (lambda args: seen.append(args) or 0)
        for name in cli._COMMANDS})
    out = ["--out", str(tmp_path)]
    calls = [["landscape", cross_file],
             ["approx", cross_file, "--epsilon", "1/2"],
             ["landscape", cross_file, "--k", "2,3", "--theta", "1/2"],
             ["--box", "0,0,4,4", "hn", cross_file, "--at", "0,0"],
             ["landscape", cross_file]]
    for argv in calls:
        assert main(out + argv) == 0
        # a command that changed its arguments leaves the next call alone
        for value in vars(seen[-1]).values():
            if isinstance(value, list):
                value.append("changed")
    first, approx, given, hn, last = seen
    assert len(builds) == 1
    assert list(first.k) == list(last.k) == [1]
    assert list(first.theta) == list(last.theta) == [Fr(0)]
    assert given.k[:2] == [2, 3] and given.theta[:1] == [Fr(1, 2)]
    assert not hasattr(approx, "k") and approx.epsilon == Fr(1, 2)
    assert approx.box is None and last.box is None
    assert hn.box == (0, 0, 4, 4) and hn.at == (0, 0)
    assert first.cmd == last.cmd == "landscape" and approx.cmd == "approx"
    cli._parser.cache_clear()


def test_cli_query_from_not_below_to(cross_file, capsys):
    assert main(["query", cross_file, "--theta", "0",
                 "--from", "1,1", "--to", "0,0"]) == 2
    assert len(_one_line_error(capsys).splitlines()) == 1


def test_cli_negative_epsilon(cross_file, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "approx", cross_file,
                 "--epsilon", "-1"]) == 2
    assert len(_one_line_error(capsys).splitlines()) == 1


def test_cli_zero_denominator_is_a_usage_error(cross_file, tmp_path, capsys):
    """A rational flag with denominator 0 exits 2 with one error line that
    names the flag, not a ZeroDivisionError traceback."""
    cases = [(["approx", cross_file, "--epsilon", "1/0"], "--epsilon"),
             (["scan", cross_file, "--epsilon", "1/0"], "--epsilon"),
             (["check", cross_file, "--epsilon", "1/0"], "--epsilon"),
             (["query", cross_file, "--theta", "1/0", "--from", "0,0",
               "--to", "1,1"], "--theta"),
             (["landscape", cross_file, "--theta", "1/0"], "--theta"),
             (["hn", cross_file, "--at", "1/0,0"], "--at"),
             (["--box", "0,0,1/0,1", "approx", cross_file, "--epsilon", "1"],
              "--box")]
    for argv, flag in cases:
        with pytest.raises(SystemExit) as ei:
            main(["--out", str(tmp_path)] + argv)
        assert ei.value.code == 2, argv
        errors = [line for line in _one_line_error(capsys).splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and flag in errors[0], argv


_FUZZ_LINES = st.sampled_from(
    ["relations 0", "relations 1", "relations x", "0 0", "1/2 0.5", "1/0 1",
     "1 0 : 0 1", "1 0 : 0 5", "1 0 : 3 1", "0 1 : 0", "x y : 0 1",
     "1 1 : a b", "# comment", ""])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["skypres v1", "skypres v2"]),
              st.sampled_from(["field 2", "field 3", "field 4", "field x"]),
              st.sampled_from(["generators 0", "generators 1",
                               "generators x", "generators -1"]),
              st.lists(_FUZZ_LINES, max_size=6))
    .map(lambda t: "\n".join(list(t[:3]) + t[3]))))
def test_parse_presentation_fuzz(tmp_path, text):
    p = tmp_path / "fuzz.skypres"
    p.write_text(text, encoding="utf-8")
    try:
        M = parse_presentation(str(p))
    except ParseError:
        return
    assert isinstance(M, grmat.GradedMatrix)


@st.composite
def _skypres_text(draw):
    """Mostly well-formed skypres files: thickness <= 3, relation degrees
    above the generators', in-range entries, and at most one flaw: a bad
    degree token, an out-of-range coefficient or row, or a wrong count."""
    q = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 3))
    gens = [(draw(st.sampled_from(["0", "1/2", "1"])),
             draw(st.sampled_from(["0", "2/3", "1"]))) for _ in range(m)]
    rels = []
    for _ in range(draw(st.integers(0, 4))):
        ents = ["%d %d" % (draw(st.integers(0, m - 1)),
                           draw(st.integers(0, q - 1)))
                for _ in range(draw(st.integers(0, 3 if m else 0)))]
        rels.append("%s %s : %s" % (draw(st.sampled_from(["1", "3/2", "2"])),
                                    draw(st.sampled_from(["1", "4/3", "2"])),
                                    " ".join(ents)))
    if draw(st.booleans()):   # cap every generator: a bounded module
        for i, (x, y) in enumerate(gens):
            rels += ["4 %s : %d 1" % (y, i), "%s 4 : %d 1" % (x, i)]
    count = str(len(rels))
    flaw = draw(st.sampled_from(["none"] * 3 + ["degree", "entry", "count"]))
    lines = ["%s %s" % g for g in gens] + rels
    if flaw == "degree" and lines:
        k = draw(st.integers(0, len(lines) - 1))
        bad = draw(st.sampled_from(["x", "1/0", "-1", "", "1 1"]))
        lines[k] = bad + lines[k][lines[k].index(" "):]
    elif flaw == "entry" and rels:
        k = draw(st.integers(0, len(rels) - 1))
        rels[k] += " %d %d" % draw(st.sampled_from(
            [(0, q), (0, -1), (m, 1), (-1, 1)]))
        lines[m:] = rels
    elif flaw == "count":
        count = draw(st.sampled_from([str(len(rels) + 1), "x", "-1"]))
    return "\n".join(["skypres v1", "field %d" % q, "generators %d" % m]
                     + lines[:m] + ["relations " + count] + lines[m:]) + "\n"


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_skypres_text())
def test_cli_fuzzed_files_keep_exit_codes(tmp_path, capsys, text):
    p = tmp_path / "fuzz.skypres"
    p.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    for argv in (["--out", out, "hn", str(p), "--at", "1,1"],
                 ["--out", out, "approx", str(p), "--epsilon", "1"]):
        assert main(argv) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), q=st.sampled_from([2, 3]),
       dens=st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3])),
       eps=st.sampled_from([Fr(1), Fr(1, 2), Fr(1, 3)]))
def test_store_round_trip_property(tmp_path_factory, seed, q, dens, eps):
    rng = random.Random(seed)
    F = PrimeField(q)
    M = random_bounded_module(rng, F, rng.randrange(1, 4))
    dx, dy = dens
    M = grmat.GradedMatrix(F, [(x / dx, y / dy) for x, y in M.row_degrees],
                           [(x / dx, y / dy) for x, y in M.col_degrees],
                           M.columns)
    store = approx_skyscraper(M, ScanConfig(epsilon=eps))
    d = tmp_path_factory.mktemp("store")
    path, path2 = str(d / "a.csv"), str(d / "b.csv")
    emit_store(store, path)
    back = parse_store(path, eps)
    assert back == store
    emit_store(back, path2)
    assert open(path).read() == open(path2).read()
