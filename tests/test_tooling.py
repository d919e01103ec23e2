"""The benchmark's layer tracer (perfbench/layertrace.py) wraps public names
of every skyhn layer from outside; these checks fail when a name it wraps
or reads is renamed or removed."""

import os
import sys
from fractions import Fraction as Fr

from skyhn import pipeline

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
    before = _bindings()
    assert {attr for _, attr, _ in before} >= {
        attr for _, _, attr, _ in layertrace.TARGETS}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert all(getattr(ns, attr) is not orig for ns, attr, orig in before)
        cfg = pipeline.ScanConfig(epsilon=1)
        sa = tracer.op(0, pipeline.approx_skyscraper, cross, cfg)
        sc = tracer.op(1, pipeline.parallel_grid_scan, cross, cfg)
    finally:
        tracer.uninstall()
    assert all(getattr(ns, attr) is orig for ns, attr, orig in before)
    assert tracer.counts["pipeline.approx.engine_runs"] == sum(sa.work) > 0
    assert tracer.counts["pipeline.scan.tree_builds"] == sum(sc.work) > 0
    # perfbench/run.py and the cli read the summands of an exact store
    ex = pipeline.exact_skyscraper(cross, eager=False)
    assert ex.box == (Fr(0), Fr(0), Fr(4), Fr(4))
    assert len(ex.summands) == 2
    assert all(len(summand) == 3 for summand in ex.summands)
