import os
from fractions import Fraction as Fr

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skyhn import cli, grmat, invariants
from skyhn.cli import (ParseError, emit_store, main, parse_presentation,
                       parse_store)

from conftest import cross_module


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


def test_cli_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.skypres"
    p.write_text("skypres v1\nfield 4\ngenerators 0\nrelations 0\n")
    assert main(["hn", str(p), "--at", "0,0"]) == 2


def test_cli_field_mismatch(cross_file):
    assert main(["--field", "3", "hn", cross_file, "--at", "0,1"]) == 2


def test_cli_exact(cross_file, tmp_path):
    rc = main(["--out", str(tmp_path), "exact", cross_file])
    assert rc == 0
    assert os.path.exists(os.path.join(str(tmp_path), "exact.csv"))


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip()
    assert "Traceback" not in err
    return err


def test_cli_generators_not_an_integer(tmp_path, capsys):
    p = tmp_path / "gx.skypres"
    p.write_text("skypres v1\nfield 2\ngenerators x\n")
    with pytest.raises(ParseError) as ei:
        parse_presentation(str(p))
    assert ei.value.lineno == 3
    assert main(["approx", str(p), "--epsilon", "1"]) == 2
    assert len(_one_line_error(capsys).splitlines()) == 1


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


def test_cli_query_from_not_below_to(cross_file, capsys):
    assert main(["query", cross_file, "--theta", "0",
                 "--from", "1,1", "--to", "0,0"]) == 2
    assert len(_one_line_error(capsys).splitlines()) == 1


def test_cli_negative_epsilon(cross_file, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "approx", cross_file,
                 "--epsilon", "-1"]) == 2
    assert len(_one_line_error(capsys).splitlines()) == 1


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
