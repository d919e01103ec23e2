"""The benchmark's layer tracer (perfbench/layertrace.py) wraps public names
of every skyhn layer from outside; these checks fail when a name it wraps
or reads is renamed or removed.  A source scan keeps imports honest."""

import ast
import glob
import importlib
import os
import random
import sys
from fractions import Fraction as Fr

import skyhn
from skyhn import cli, grmat, hn_core, invariants, pipeline, subdivision

from conftest import (F2, F3, count_fraction_comparisons,
                      count_fraction_hashes, hidden_direct_sum,
                      random_bounded_module, store_trees)

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench"))
import layertrace  # noqa: E402


def _bindings():
    """Every (namespace, attribute, object) the tracer wraps."""
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "skyhn" or n.startswith("skyhn."))]
    out = []
    for _, owner, attr, _ in layertrace.TARGETS:
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            out.append((owner, attr, orig))
            continue
        out += [(mod, key, orig) for mod in mods
                for key, val in list(vars(mod).items()) if val is orig]
    return out


def test_tracer_install_uninstall_restores_every_name(cross):
    # a hidden direct sum that is one connected block of four pieces
    hidden = hidden_direct_sum(random.Random(2), F2, [2, 2])
    box = pipeline.bounding_box(hidden)
    blocks = pipeline._clipped_blocks(hidden, box)
    assert len(blocks) == 1 and len(grmat.decompose(blocks[0])) == 4
    for M, n_blocks in ((cross, 2), (hidden, 1)):
        before = _bindings()
        assert {attr for _, attr, _ in before} >= {
            attr for _, _, attr, _ in layertrace.TARGETS}
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            assert all(getattr(ns, attr) is not orig
                       for ns, attr, orig in before)
            cfg = pipeline.ScanConfig(epsilon=1)
            sa = tracer.op(0, pipeline.approx_skyscraper, M, cfg)
            sc = tracer.op(1, pipeline.parallel_grid_scan, M, cfg)
        finally:
            tracer.uninstall()
        assert all(getattr(ns, attr) is orig for ns, attr, orig in before)
        assert tracer.counts["pipeline.approx.engine_runs"] == sum(sa.work) > 0
        assert tracer.counts["pipeline.scan.tree_builds"] == sum(sc.work) > 0
        assert len(sa.work) == len(sc.work) == n_blocks
        # perfbench/run.py and the cli read the summands of an exact store:
        # one (module, grid, cells) per connected block
        ex = pipeline.exact_skyscraper(M, eager=False)
        assert len(ex.summands) == n_blocks
        assert all(len(summand) == 3 for summand in ex.summands)
    assert ex.box == box
    assert pipeline.exact_skyscraper(cross).box == (Fr(0), Fr(0), Fr(4), Fr(4))


def _count_fraction_constructions(monkeypatch):
    """Count the Fractions constructed from now on; returns the counts."""
    counts = {"n": 0}
    new = Fr.__new__

    def counted(cls, *args, **kwargs):
        counts["n"] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fr, "__new__", counted)
    return counts


def test_erosion_pair_loop_and_tree_reads_compare_no_fractions(
        cross, monkeypatch):
    """On the cross fixture the probe-pair loop of erosion_distance makes
    no Fraction comparison (the store lookups, the per-entry choice of
    staircases and the shift-0 comparison of the located staircases,
    outside it, may), and neither do SubdivTree.factors_at
    reads at points already read, walls included, nor the reads of the
    interval cells (pipeline._Interval) that the exact store holds; a
    tree read builds one Fraction per slope at most, an interval read
    one.  Counts, not times."""
    sa = pipeline.approx_skyscraper(cross, pipeline.ScanConfig(Fr(1, 2)))
    ex = pipeline.exact_skyscraper(cross)
    snap = ex.snapshot(sa.keys())
    # a copy with one staircase's relations moved up, so shifts e > 0 run
    moved = invariants.SkyscraperStore(snap.epsilon)
    for entry in snap.entries.values():
        moved.insert(entry)
    alpha = sa.keys()[0]
    fl = snap.entries[alpha]
    f = fl.factors[0]
    S = f.staircases[0]
    moved.insert(invariants.HNFactorList(alpha, [invariants.HNFactor(
        [invariants.Staircase(S.gen, [(x + 2, y + 2) for x, y in S.rels])]
        + f.staircases[1:], f.slope)] + fl.factors[1:]))
    keys = sa.keys()
    G = grmat.Grid([k[0] for k in keys], [k[1] for k in keys])
    # the trees of the cells the store reads in closed form, and the
    # closed-form cells themselves (both pieces of the cross have one
    # generator)
    trees = store_trees(ex)
    intervals = [(c, rect) for _, grid, cells in ex.summands
                 for (ix, iy), cs in cells.items() if cs for c in cs
                 for rect in [(grid.xs[ix], grid.ys[iy],
                               grid.xs[ix + 1], grid.ys[iy + 1])]]
    assert all(type(c) is pipeline._Interval for c, _ in intervals)
    # the tree of <V_(0,1)> has the wall y = (3 + x)/2 (acceptance 3)
    trees.append(subdivision.exact_hnf_cell(
        grmat.fiber_submodule(cross, (0, 1)), (Fr(0), Fr(1), Fr(1), Fr(2))))
    # a 4 x 4 lattice of each tree's cell below its upper lines
    reads = [(t, (x0 + (x1 - x0) * Fr(i, 4), y0 + (y1 - y0) * Fr(j, 4)))
             for t in trees for x0, y0, x1, y1 in [t.cell]
             for i in range(4) for j in range(4)]
    interval_reads = [
        (c, (x0 + (x1 - x0) * Fr(i, 4), y0 + (y1 - y0) * Fr(j, 4)))
        for c, (x0, y0, x1, y1) in intervals
        for i in range(4) for j in range(4)]
    for t, beta in reads + interval_reads:
        t.factors_at(beta)
    merged = []
    renormalize = invariants.renormalize
    monkeypatch.setattr(invariants, "renormalize",
                        lambda st, b: merged.append(b) or renormalize(st, b))
    counts, pause = count_fraction_comparisons(monkeypatch)
    pause(invariants.SkyscraperStore, "locate")
    pause(invariants, "theta_staircases")
    pause(invariants.Staircase, "__eq__")
    brackets = [invariants.erosion_distance(r, s, Fr(0), G)
                for r, s in ((sa, snap), (moved, sa), (sa, moved))]
    assert counts["n"] == 0
    # at most one Fraction per slope of a node on the read's path
    slopes = sum(len(t.path(beta)) for t, beta in reads)
    built = _count_fraction_constructions(monkeypatch)
    for t, beta in reads:
        t.factors_at(beta)
    assert counts["n"] == 0
    assert 0 < built["n"] <= slopes
    built["n"] = 0
    for c, beta in interval_reads:
        c.factors_at(beta)
    assert counts["n"] == 0
    assert built["n"] == len(interval_reads)
    monkeypatch.undo()
    # the shifted pair loop ran, and the reads crossed walls, where
    # equal-slope factors merge
    assert any(0 < hi < grmat.POS_INF for _, hi in brackets)
    assert len(reads) > 20 and merged and len(interval_reads) > 20


def test_lattice_sweeps_compare_no_fractions(cross, monkeypatch):
    """Outside the per-point reads and the merge, the lattice sweeps make
    no Fraction comparison, and they, the exact store's snapshot at their
    keys and erosion_distance between the two take no Fraction hash:
    approx_skyscraper and parallel_grid_scan on the cross fixture and on
    five modules of the acceptance-5 corpus, at epsilon 1 and 1/2, find
    the lattice rows, the support's columns and each cache's grid row on
    ints, and the stores key, locate and sort their entries on ints.  Each
    module runs as a fresh copy per epsilon, and before each counted call
    a call of the driver with the same config prepares the copy for its
    box (clip, minimize, decompose; the copy keeps them), and is not
    counted, nor is building the exact store."""
    rng = random.Random(5)
    modules = [cross] + [random_bounded_module(rng, F2 if i % 2 else F3,
                                               rng.randrange(1, 3), dmax=3)
                         for i in range(5)]
    counts, pause = count_fraction_comparisons(monkeypatch)
    hashes = count_fraction_hashes(monkeypatch)
    pause(pipeline._Interval, "factors_at")
    pause(pipeline._Cells, "at")
    pause(hn_core, "hn_filtration_of")
    pause(pipeline.ExactStore, "factors_at")
    pause(pipeline, "merge_factors")
    stores, n, h, erosions = [], 0, 0, []
    for M in modules:
        for eps in (Fr(1), Fr(1, 2)):
            M = grmat.GradedMatrix(M.field, M.row_degrees, M.col_degrees,
                                   M.columns)       # nothing kept on it
            cfg = pipeline.ScanConfig(eps, box=pipeline.bounding_box(M))
            for driver in (pipeline.approx_skyscraper,
                           pipeline.parallel_grid_scan):
                driver(M, cfg)
                before, hashed = counts["n"], hashes["n"]
                stores.append(driver(M, cfg))
                n += counts["n"] - before
                h += hashes["n"] - hashed
            ex = pipeline.exact_skyscraper(M, cfg.box)
            hashed = hashes["n"]
            keys = stores[-2].keys()
            snap = ex.snapshot(keys, eps)
            G = grmat.Grid([k[0] for k in keys], [k[1] for k in keys])
            erosions.append((eps, invariants.erosion_distance(
                stores[-2], snap, Fr(0), G)))
            h += hashes["n"] - hashed
    assert n == 0
    assert h == 0
    monkeypatch.undo()
    assert all(len(s) > 0 for s in stores)
    assert sum(sum(s.work) for s in stores[::2]) > 0
    assert all(hi <= eps for eps, (_, hi) in erosions)


def test_rank_queries_compare_no_fractions(cross, stable, monkeypatch,
                                           tmp_path, capsys):
    """skyhn check and skyhn landscape answer their rank queries on ints:
    on the cross fixture, the stable module (a piece of two generators,
    read from subdivision trees) and random bounded modules, outside
    parsing, the approx and scan drivers, cell builds, SubdivTree reads
    and file output, they make no Fraction rich comparison.  That covers
    check's probe pairs, its store comparison and slope test, the exact
    store's preparation and queries, the fiber model of each rank, and
    filtered_landscape's bisection at both anchors and a positive
    theta."""
    from test_cli import _skypres
    rng = random.Random(7)
    modules = [cross, stable] + [
        random_bounded_module(rng, F2 if i % 2 else F3, 1 + i % 3, dmax=3)
        for i in range(6)]
    paths = []
    for i, M in enumerate(modules):
        paths.append(tmp_path / ("m%d.skypres" % i))
        paths[-1].write_text(_skypres(M))
    counts, pause = count_fraction_comparisons(monkeypatch)
    pause(cli, "parse_presentation")
    pause(pipeline, "approx_skyscraper")
    pause(pipeline, "parallel_grid_scan")
    pause(pipeline, "_cell_trees")
    pause(subdivision.SubdivTree, "factors_at")
    pause(cli, "emit_store")
    pause(cli, "emit_landscape")
    reads = {"n": 0}
    tree_read = subdivision.SubdivTree.factors_at
    monkeypatch.setattr(subdivision.SubdivTree, "factors_at",
                        lambda t, b: reads.update(n=reads["n"] + 1)
                        or tree_read(t, b))
    out = str(tmp_path / "out")
    for p in map(str, paths):
        for argv in (["check", p], ["landscape", p, "--resolution", "4"],
                     ["landscape", p, "--anchor", "source", "--theta",
                      "0,1/3", "--k", "1,2", "--resolution", "3"]):
            assert cli.main(["--out", out] + argv) == 0
    assert counts["n"] == 0
    monkeypatch.undo()
    assert reads["n"] > 0
    assert "check ok" in capsys.readouterr().out


def test_graded_matrix_from_degrees_compares_no_fractions(monkeypatch):
    """Building a GradedMatrix ranks its Fraction degrees by (numerator,
    denominator) and validates it on the integer ranks: no Fraction rich
    comparison, where a validation on the degrees makes two per entry."""
    degs = [(Fr(k, 3), Fr(5 - k, 2)) for k in range(5)]
    rels = [(Fr(4, 3), Fr(5, 2))] * 5
    cols = [[(i, 1) for i in range(5)] for _ in range(5)]
    counts, _ = count_fraction_comparisons(monkeypatch)
    M = grmat.GradedMatrix(F2, degs, rels, cols)
    assert counts["n"] == 0
    monkeypatch.undo()
    assert sum(len(c) for c in M.columns) == 25


def _sources(directory):
    """{file name: source text} of every Python file of the directory."""
    sources = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    return sources


_TESTS = os.path.dirname(os.path.abspath(__file__))


def _src_sources():
    """{file name: source text} of every module of src/skyhn, by name."""
    return _sources(os.path.dirname(pipeline.__file__))


def _unused_imports(source):
    """Names the module source imports and never reads: not a Name node
    anywhere in it, not listed in its __all__, and not imported by a
    statement that carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    nodes = list(ast.walk(tree))
    used = {n.id for n in nodes if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in nodes:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "noqa: F401" in line
                for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        out += [alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if (alias.asname or alias.name.split(".")[0]) not in used]
    return out


def test_no_unused_imports_in_src():
    assert _unused_imports("import os\nfrom a import (b,\n    c)\nc()\n") \
        == ["os", "b"]
    assert _unused_imports("from __future__ import annotations\n"
                           "import os.path\nfrom a import (b,  # noqa: F401\n"
                           "    c)\n__all__ = ['os']\n") == []
    found = {}
    for where, sources in (("src", _src_sources()),
                           ("tests", _sources(_TESTS))):
        for fname, text in sources.items():
            names = _unused_imports(text)
            if names:
                found[where, fname] = names
    assert found == {}


def _reference_leaks(source, exported):
    """What a module source takes from skyhn beyond the names exported:
    skyhn imports other than ``from skyhn import`` of those names, and
    reads of names and attributes that start with an underscore."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names
                    if (a.name + ".").startswith("skyhn.")]
        elif isinstance(node, ast.ImportFrom):
            mod = "." * node.level + (node.module or "")
            if mod == "skyhn":
                out += [a.name for a in node.names if a.name not in exported]
            elif node.level or mod.startswith("skyhn."):
                out.append(mod)
        elif isinstance(node, ast.Attribute) and node.attr[0] == "_":
            out.append(node.attr)
        elif (isinstance(node, ast.Name) and node.id[0] == "_"
              and isinstance(node.ctx, ast.Load)):
            out.append(node.id)
    return out


def test_reference_reads_no_internals():
    """tests/reference.py, the tests' oracle, imports from skyhn only
    exported names, through ``from skyhn import``, and reads no private
    name or attribute, so it shares no code with what it checks."""
    assert _reference_leaks(
        "import math, skyhn.grmat\nfrom skyhn import grmat, Staircase\n"
        "from skyhn.field import PrimeField\nfrom . import x\n"
        "def f(M, _n):\n    _, m = M._ranks, _n.q\n", {"Staircase"}) == [
            "skyhn.grmat", "grmat", "skyhn.field", ".", "_ranks", "_n"]
    assert _reference_leaks(_sources(_TESTS)["reference.py"],
                            set(skyhn.__all__)) == []


def _dead_private_names(sources):
    """(file, name) of every private module-level name (one leading
    underscore) that a file of sources, {file: text}, defines and that no
    file reads outside the definition itself: not as a Name, nor as an
    attribute."""
    defs, reads = [], []
    for fname, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            defs += [(fname, name, node.lineno, node.end_lineno)
                     for name in names
                     if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((fname, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((fname, node.attr, node.lineno))
    return [(fname, name) for fname, name, lo, hi in defs
            if not any(n == name and (f != fname or not lo <= line <= hi)
                       for f, n, line in reads)]


def test_no_dead_private_names_in_src():
    """Every private module-level name in src/ is read somewhere in src/
    outside its own definition, so no helper outlives the code that
    called it (the tests are no caller)."""
    assert _dead_private_names({
        "a.py": "_X = 1\n_Y = 2\ndef _f(n):\n    return _f(n - 1)\n"
                "def _g():\n    return _X\nclass _C:\n    pass\n",
        "b.py": "import a\na._g()\n"}) == [
            ("a.py", "_Y"), ("a.py", "_f"), ("a.py", "_C")]
    assert _dead_private_names(_src_sources()) == []


def _dead_methods(sources, outside):
    """(file, "Class.method") of every method (a def in a class body,
    dunders left out) of sources, {file: text}, that no file of sources
    reads as an attribute outside the method's own body, and that no file
    of outside reads as an attribute or names in a string constant (the
    layer tracer wraps methods by name)."""
    defs, reads, named = [], [], set()
    for fname, text in sources.items():
        tree = ast.parse(text)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defs += [(fname, cls.name, node.name, node.lineno,
                          node.end_lineno) for node in cls.body
                         if isinstance(node, ast.FunctionDef)
                         and not node.name.startswith("__")]
        reads += [(fname, node.attr, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    for text in outside.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and type(node.value) is str:
                named.add(node.value)
    return [(fname, cls + "." + name) for fname, cls, name, lo, hi in defs
            if name not in named
            and not any(n == name and (f != fname or not lo <= line <= hi)
                        for f, n, line in reads)]


def test_no_dead_methods_in_src():
    """Every method of src/ is read as an attribute somewhere in src/
    outside its own body, or by the benchmark (perfbench/), so no method
    outlives its callers (the tests are no caller); a helper method goes
    with the last method that called it."""
    src = {"a.py": "class A:\n    def __len__(self):\n        return 0\n"
                   "    def f(self, n):\n        return self.f(n - 1)\n"
                   "    def g(self):\n        return self.h()\n"
                   "    def h(self):\n        pass\n"
                   "    def k(self):\n        pass\n"
                   "    def m(self):\n        pass\n",
           "b.py": "def k():\n    pass\n"}
    bench = {"run.py": "import a\na.A().k()\nTARGETS = ['m', 'g h']\n"}
    assert _dead_methods(src, bench) == [("a.py", "A.f"), ("a.py", "A.g")]
    # without g, its helper h has no reader left
    src["a.py"] = src["a.py"].replace("self.h()", "None")
    assert _dead_methods(src, bench) == [("a.py", "A.f"), ("a.py", "A.g"),
                                         ("a.py", "A.h")]
    assert _dead_methods(src, {}) == [("a.py", "A.f"), ("a.py", "A.g"),
                                      ("a.py", "A.h"), ("a.py", "A.k"),
                                      ("a.py", "A.m")]
    assert _dead_methods(_src_sources(), _sources(
        os.path.dirname(layertrace.__file__))) == []


_BITMASK_NAMES = {"_pack_f2", "_unpack_f2", "_insert_f2", "bit_count",
                  "bit_length"}


def _bitmask_names(source):
    """The names of _BITMASK_NAMES that a module source uses: as a
    variable, an attribute or an imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found & _BITMASK_NAMES


def test_only_field_reads_a_bitmask():
    """GF(2) vectors are bitmask ints inside field alone: every other
    module of src/ holds them through field._vector_form and never packs,
    unpacks, eliminates or counts bits itself."""
    assert _bitmask_names(
        "from .field import _pack_f2 as p\nv.bit_length()\n"
        "x = bit_count\n# _insert_f2\n") == {"_pack_f2", "bit_length",
                                            "bit_count"}
    found = {fname: _bitmask_names(text)
             for fname, text in _src_sources().items()}
    assert found.pop("field.py") == _BITMASK_NAMES
    assert {fname: names for fname, names in found.items() if names} == {}


def _imported_modules(source):
    """The top-level names of the modules a source imports, by import or
    from-import, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_grmat_keeps_no_row_product():
    """decompose multiplies its matrices only through the times primitive
    of field._vector_form: grmat imports no operator module, so no
    row-by-column product of its own is left beside it."""
    assert _imported_modules(
        "import operator as op\nfrom operator import mul\n"
        "import os.path\nfrom . import field\n# import math\n") == {
            "operator", "os"}
    with open(grmat.__file__, encoding="utf-8") as fh:
        assert "operator" not in _imported_modules(fh.read())


_SHARED_BASE = {"field", "grmat"}


def _private_cross_reads(sources):
    """(file, "module._name") for every private module-level name (one
    leading underscore) that a file of sources, {file: text}, reads from
    another of those modules, as module._name or by
    ``from .module import _name``, unless that module is one of
    _SHARED_BASE, whose private helpers the layers above share by
    design."""
    mods = {os.path.splitext(f)[0] for f in sources}
    out = []
    for fname, text in sources.items():
        own = os.path.splitext(fname)[0]
        aliases = {}        # local name -> module of sources
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = node.module or ""
            if not node.level:
                if base.split(".")[0] != "skyhn":
                    continue
                base = base[len("skyhn."):]
            for alias in node.names:
                if not base and alias.name in mods:
                    aliases[alias.asname or alias.name] = alias.name
                elif (base in mods and alias.name.startswith("_")
                      and not alias.name.startswith("__")):
                    out.append((fname, "%s.%s" % (base, alias.name)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                out.append((fname, "%s.%s" % (aliases[node.value.id],
                                              node.attr)))
    return [(f, name) for f, name in out
            if name.split(".")[0] not in _SHARED_BASE | {
                os.path.splitext(f)[0]}]


def test_no_private_reads_across_layers():
    """No module of src/ reads a private module-level name of another,
    except of field and grmat, the base layers whose elimination,
    vector-form and coordinate-rank helpers are shared by design."""
    assert _private_cross_reads({
        "a.py": "_X = 1\n",
        "b.py": "from . import a, grmat as g\nfrom .a import _X, Y\n"
                "from .grmat import _Echelon\ndef f(m):\n"
                "    return a._X + g._ranks + m._ranks + a.__name__\n",
        "c.py": "from . import b as bb\nbb._f()\n",
        "grmat.py": "from . import a\nfrom os import _exit\na._X\n",
        "d.py": "from skyhn import c\nfrom skyhn.a import _X\nc._g\n"}) == [
            ("b.py", "a._X"), ("b.py", "a._X"), ("c.py", "b._f"),
            ("grmat.py", "a._X"), ("d.py", "a._X"), ("d.py", "c._g")]
    assert _private_cross_reads(_src_sources()) == []


# the calls that prepare a module for the drivers, and the one pipeline
# helper each may sit in
_PREPARATION = {"clip_to_box": ["_prepared"], "minimize": ["_prepared"],
                "decompose": ["_Block"]}

# the top-level functions of src/ that call minimize, by file: those whose
# input comes from outside (_prepared, betti_numbers) and those whose
# operation can break minimality; every other presentation is minimal
# because what it is derived from is
_MINIMIZE_SITES = {
    "grmat.py": ["quotient_presentation", "fiber_submodule"],
    "invariants.py": ["betti_numbers"],
    "pipeline.py": ["_prepared"]}


def _call_sites(source, names):
    """{name: the top-level functions and classes of the module source that
    call it, bare or as an attribute (grmat.decompose), in source order}
    for every name of `names` that is called; a call in any other
    top-level statement counts as "<module>"."""
    sites = {}
    for node in ast.parse(source).body:
        site = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name in names and site not in sites.setdefault(name, []):
                sites[name].append(site)
    return sites


def test_pipeline_prepares_a_module_in_one_place():
    """pipeline clips, minimizes and decomposes a module only in the
    preparation that the module keeps (_prepared and its _Blocks), so no
    driver prepares a module again per call."""
    assert _call_sites(
        "def _prepared(M, box):\n    return minimize(clip_to_box(M))\n"
        "class _Block:\n    def pieces(self):\n"
        "        return grmat.decompose(self.module)\n"
        "def hn_at(M):\n    return [grmat.decompose(b) for b in M]\n"
        "class ExactStore:\n    def add(self, M):\n"
        "        self.m = grmat.minimize(M)\n"
        "def clip_to_box(M, box):\n    return M\n"
        "x = grmat.decompose(1)\n", _PREPARATION) == {
            "minimize": ["_prepared", "ExactStore"],
            "clip_to_box": ["_prepared"],
            "decompose": ["_Block", "hn_at", "<module>"]}
    assert _call_sites(_src_sources()["pipeline.py"],
                       _PREPARATION) == _PREPARATION


def test_cli_reads_its_input_in_main():
    """skyhn reads the presentation and settles its box once, in main,
    which hands both to the command: no _cmd_* parses a file or takes a
    bounding box."""
    names = ("parse_presentation", "bounding_box")
    assert _call_sites(
        "def main(a):\n    M = parse_presentation(a.input)\n"
        "    return f(a, M, a.box or pipeline.bounding_box(M))\n"
        "def _cmd_hn(a, M, box):\n    return pipeline.bounding_box(M)\n"
        "def parse_presentation(path):\n    pass\n", names) == {
            "parse_presentation": ["main"],
            "bounding_box": ["main", "_cmd_hn"]}
    assert _call_sites(_src_sources()["cli.py"], names) == {
        "parse_presentation": ["main"], "bounding_box": ["main"]}


def _grid_builders(sources):
    """The files of sources, {file: text}, that call Grid (_call_sites),
    bare or as grmat.Grid, sorted."""
    return sorted(fname for fname, text in sources.items()
                  if _call_sites(text, ("Grid",)))


def _parameters(source, names):
    """{name: its parameter names} for the top-level functions of the
    module source named in `names`."""
    return {node.name: [a.arg for a in node.args.args]
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def test_cheng_picks_its_own_grid():
    """cheng derives the grid it reads a module on from the module
    generated at alpha (build_A_alpha, grmat.Axis.even), so nothing hands
    it one: no module but grmat and invariants constructs a Grid, and
    neither hn_cheng nor build_A_alpha has a grid parameter."""
    assert _grid_builders({
        "grmat.py": "class Grid:\n    pass\n"
                    "def induced_grid(M):\n    return Grid(M.xs, M.ys)\n",
        "cli.py": "def _cmd_hn(a):\n    return grmat.Grid(a.xs, a.ys)\n",
        "cheng.py": "def f(G, Grid):\n    return G.points()\n"}) \
        == ["cli.py", "grmat.py"]
    assert _grid_builders(_src_sources()) == ["grmat.py", "invariants.py"]
    names = ("hn_cheng", "build_A_alpha")
    assert _parameters(
        "def hn_cheng(M, G, alpha, seed=0):\n    pass\n"
        "def build_A_alpha(M, alpha):\n    pass\n", names) == {
            "hn_cheng": ["M", "G", "alpha", "seed"],
            "build_A_alpha": ["M", "alpha"]}
    assert _parameters(_src_sources()["cheng.py"], names) == {
        "hn_cheng": ["M", "alpha", "seed"], "build_A_alpha": ["M", "alpha"]}


def _minimize_sites(sources):
    """{file: the top-level sites that call minimize (_call_sites)} over
    sources, {file: text}, for the files that call it at all."""
    calls = {fname: _call_sites(text, ("minimize",))
             for fname, text in sources.items()}
    return {fname: c["minimize"] for fname, c in calls.items() if c}


def test_minimize_runs_where_minimality_can_break():
    """Every module the engines see is a minimal presentation by
    construction, so only the sites of _MINIMIZE_SITES call minimize."""
    assert _minimize_sites({
        "grmat.py": "def minimize(M):\n    return M\n"
                    "def kernel(M):\n    return M\n"
                    "def _split(M):\n    return [minimize(M), minimize(M)]\n",
        "__init__.py": "from .grmat import minimize\n",
        "pipeline.py": "m = grmat.minimize(1)\n"
                       "class ExactStore:\n    def add(self, M):\n"
                       "        self.m = grmat.minimize(M)\n"}) == {
            "grmat.py": ["_split"], "pipeline.py": ["<module>", "ExactStore"]}
    assert _minimize_sites(_src_sources()) == _MINIMIZE_SITES


# the engine entry points, each of which one top-level pipeline function
# may name
def _lcm_calls(source):
    """The lines of a module source that call math.lcm: as an attribute of
    the math module under any name it is imported as, or by any name that
    a from-import binds it to."""
    mods, funcs = set(), set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(a.asname or a.name for a in node.names
                        if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            funcs.update(a.asname or a.name for a in node.names
                         if a.name == "lcm")
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if ((isinstance(f, ast.Attribute) and f.attr == "lcm"
             and isinstance(f.value, ast.Name) and f.value.id in mods)
                or (isinstance(f, ast.Name) and f.id in funcs)):
            out.append(node.lineno)
    return sorted(out)


def test_only_grmat_takes_an_lcm():
    """Fractions go over one common denominator in grmat alone: every other
    module of src/ calls grmat._over_lcm or reads a grmat.Axis, and
    grmat's only other lcm is Axis's, on the ratio keys it already
    holds."""
    assert _lcm_calls(
        "import math as m\nfrom math import lcm as L, gcd\nimport math\n"
        "a = m.lcm(1, 2)\nb = L(3)\nc = math.lcm(*x)\nd = gcd(1, 2)\n"
        "e = math.gcd(2, 4)\nf = np.lcm(1, 2)\ng = lcm(1)\n"
        "# math.lcm(1)\n") == [4, 5, 6]
    found = {fname: _lcm_calls(text)
             for fname, text in _src_sources().items()}
    assert len(found.pop("grmat.py")) == 2
    assert {fname: lines for fname, lines in found.items() if lines} == {}


def _epsilon_ratio_calls(source):
    """The lines of a module source that call as_integer_ratio on a name or
    an attribute called epsilon (epsilon.as_integer_ratio(),
    cfg.epsilon.as_integer_ratio())."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "as_integer_ratio"
        and (getattr(node.func.value, "id", None) == "epsilon"
             or getattr(node.func.value, "attr", None) == "epsilon"))


def test_only_grmat_takes_epsilon_apart():
    """The epsilon-lattice arithmetic is grmat.Lattice's: no module of src/
    but grmat reads the integer ratio of an epsilon."""
    assert _epsilon_ratio_calls(
        "a = epsilon.as_integer_ratio()\nb = cfg.epsilon.as_integer_ratio()\n"
        "c = eps.as_integer_ratio()\nd = epsilon.numerator\n"
        "e = self.lattice.epsilon.as_integer_ratio()\n"
        "f = x.epsilon_k.as_integer_ratio()\n") == [1, 2, 5]
    found = {fname: _epsilon_ratio_calls(text)
             for fname, text in _src_sources().items()}
    assert found.pop("grmat.py")
    assert {fname: lines for fname, lines in found.items() if lines} == {}


def _axis_sites(source):
    """The top-level functions and classes of the module source that call
    Axis, bare or as an attribute (grmat.Axis); any other top-level
    statement that calls it counts as "<module>"."""
    return [getattr(node, "name", "<module>")
            for node in ast.parse(source).body
            if any(isinstance(n, ast.Call)
                   and getattr(n.func, "attr", getattr(n.func, "id", None))
                   == "Axis" for n in ast.walk(node))]


# the sites outside grmat that build a grmat.Axis: the upper box edges that
# clip_to_box adds to a module's axes.  Every other axis of a module is
# built, cut or read by grmat
_AXIS_SITES = {"pipeline.py": ["clip_to_box"]}


def test_axes_are_built_in_grmat_and_clip_to_box():
    """Modules keep their axes (GradedMatrix._ranks), so no engine builds
    one: outside grmat, only the sites of _AXIS_SITES construct a
    grmat.Axis, and cheng and hn_core none."""
    assert _axis_sites(
        "from .grmat import Axis\nA = Axis([1])\n"
        "def f(M):\n    return grmat.Axis(M.xs)\n"
        "class C:\n    def m(self):\n        return [Axis(x) for x in y]\n"
        "def g(M):\n    return M.axes, grmat.Axis\n") == ["<module>", "f", "C"]
    found = {fname: _axis_sites(text)
             for fname, text in _src_sources().items() if fname != "grmat.py"}
    assert found["cheng.py"] == found["hn_core.py"] == []
    assert {fname: sites for fname, sites in found.items() if sites} \
        == _AXIS_SITES


_ENTRY_POINTS = ("hn_cheng", "hn_filtration_at", "hn_filtration_of",
                 "exact_hnf_cell")


def _entry_point_sites(source, names=_ENTRY_POINTS):
    """For every name of `names`, the top-level functions and classes of
    the module source that name it, bare or as an attribute
    (cheng.hn_cheng), called, imported or neither (a functools.partial of
    it counts); any other top-level statement that names it, a module-level
    import among them, counts as "<module>"."""
    sites = {name: [] for name in names}
    for node in ast.parse(source).body:
        named = {n.attr if isinstance(n, ast.Attribute) else
                 n.name if isinstance(n, ast.alias) else n.id
                 for n in ast.walk(node)
                 if isinstance(n, (ast.Attribute, ast.Name, ast.alias))}
        for name in sites:
            if name in named:
                sites[name].append(getattr(node, "name", "<module>"))
    return sites


def test_pipeline_names_each_engine_entry_point_in_one_place():
    """pipeline reads each engine through one function of the point, so
    each engine entry point is named in one top-level function only."""
    assert _entry_point_sites(
        "def _read(m):\n    return cheng.hn_cheng(m, 1)\n"
        "def hn_at(ps):\n"
        "    return [functools.partial(hn_core.hn_filtration_at, p)\n"
        "            for p in ps]\n"
        "def approx(M):\n    f = hn_filtration_at\n"
        "    return hn_core.hn_filtration_of(M, 0)\n"
        "x = exact_hnf_cell\n") == {
            "hn_cheng": ["_read"], "hn_filtration_at": ["hn_at", "approx"],
            "hn_filtration_of": ["approx"], "exact_hnf_cell": ["<module>"]}
    with open(pipeline.__file__, encoding="utf-8") as fh:
        sites = _entry_point_sites(fh.read())
    assert all(len(funcs) == 1 for funcs in sites.values()), sites


# the top-level sites besides field.py that may name DenseMatrix: the
# package's export and grmat.structure_map, which the layer tracer wraps
_DENSE_MATRIX_SITES = {"__init__.py": ["<module>"],
                       "grmat.py": ["structure_map"]}


def _dense_matrix_strays(sources):
    """(file, site) for every top-level site of a file of sources,
    {file: text}, that names DenseMatrix (_entry_point_sites) where
    _DENSE_MATRIX_SITES does not allow it; field.py may name it anywhere."""
    out = []
    for fname, text in sorted(sources.items()):
        if fname != "field.py":
            allowed = _DENSE_MATRIX_SITES.get(fname, [])
            out += [(fname, site) for site in _entry_point_sites(
                text, ("DenseMatrix",))["DenseMatrix"] if site not in allowed]
    return out


def test_dense_matrix_stays_in_field():
    """Subspaces pass between modules as lists of basis vectors and a
    matrix space keeps its basis matrices as their nonzero rows, so no
    engine names DenseMatrix: only field, the package's export and
    grmat.structure_map do."""
    assert _dense_matrix_strays({
        "field.py": "class DenseMatrix:\n    pass\n",
        "__init__.py": "from .field import DenseMatrix\n",
        "grmat.py": "from . import field\n"
                    "def structure_map(M):\n    return field.DenseMatrix(M)\n"
                    "def quotient(M, B):\n    return B.DenseMatrix\n",
        "cheng.py": "from .field import DenseMatrix as D, embed_phi\n"
                    "def draw():\n    return embed_phi\n"}) == [
            ("cheng.py", "<module>"), ("grmat.py", "quotient")]
    assert _dense_matrix_strays(_src_sources()) == []


def test_every_exported_name_resolves():
    """Every name in the __all__ of skyhn and of each of its modules is
    bound there, and ``from skyhn import *`` binds them all."""
    names = sorted(os.path.splitext(f)[0] for f in _src_sources())
    assert "__init__" in names and "cheng" in names
    checked = 0
    for name in names:
        mod = importlib.import_module(
            "skyhn" if name == "__init__" else "skyhn." + name)
        exported = getattr(mod, "__all__", [])
        assert len(set(exported)) == len(exported), name
        missing = [n for n in exported if not hasattr(mod, n)]
        assert missing == [], (name, missing)
        checked += bool(exported)
    assert checked >= 6
    scope = {}
    exec("from skyhn import *", scope)
    assert set(skyhn.__all__) <= set(scope)
