"""Self-tests of the benchmark itself (not collected by pytest).

    python3 perfbench/selftest.py

1. The frozen generators in gen.py reproduce the generators of
   tests/conftest.py; seed 5 gives the acceptance-5 corpus module for module.
2. A traced pass returns the same outputs as an untraced pass, and the self
   times of each operation add up to no more than its traced wall time.
3. The deterministic counts repeat exactly across runs and across
   PYTHONHASHSEED values.

Each check runs on a small prefix of the workload inputs, so the whole
file takes about a minute.
"""

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

HASH_SEEDS = ("0", "1", "12345")


def small_items(name, seed, workdir):
    wl = workloads.WORKLOADS[name]
    items = wl.setup(seed, workdir)
    if name == "cheng":    # one module of every shape
        return items[::workloads.CHENG_PER_SHAPE]
    return wl.prefix(items, 3)


def load_conftest():
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_generators_match_conftest():
    ct = load_conftest()
    rng = random.Random(5)
    want = [ct.random_bounded_module(rng, ct.F2 if i % 2 else ct.F3,
                                     rng.randrange(1, 3), dmax=3)
            for i in range(50)]
    got = gen.acceptance5_corpus(5)
    assert len(got) == len(want) == 50
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, "acceptance-5 module %d differs" % i
    # the lattice workload continues the same stream past the 50 modules
    assert gen.acceptance5_corpus(5, workloads.LATTICE_MODULES)[:50] == want
    assert gen.cross_module() == ct.cross_module()
    for seed in range(5):
        for F in (gen.F2, gen.F3):
            a = gen.random_unigen_module(random.Random(seed), F, 6)
            b = ct.random_unigen_module(random.Random(seed), F, 6)
            assert a == b, ("unigen", seed, F)
            a = gen.random_bounded_module(random.Random(seed), F, 3)
            b = ct.random_bounded_module(random.Random(seed), F, 3)
            assert a == b, ("bounded", seed, F)


def test_one_block_rule():
    rng = random.Random(0)
    for _ in range(5):
        M = gen.one_block_unigen(rng, gen.F2, 6)
        assert gen.is_one_block(M)
    # a direct sum of two modules is never one block
    M = gen.cross_module()
    assert not gen.is_one_block(M)


def test_traced_equals_untraced():
    for name, wl in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            items = small_items(name, 3, workdir)
            plain = run.Recorder(digest=True)
            wl.run_pass(items, plain)
            plain.run_checks()
            tracer = layertrace.Tracer()
            traced = run.Recorder(tracer=tracer, digest=True)
            tracer.install()
            try:
                wl.run_pass(items, traced)
            finally:
                tracer.uninstall()
            traced.run_checks()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert plain.hash.hexdigest() == traced.hash.hexdigest(), name
        assert plain.wrong == traced.wrong == 0, name
        assert plain.failed == traced.failed, name
        n_ops, bad = tracer.check_ops()
        assert n_ops == traced.attempted and not bad, (name, bad[:3])


def counts_of(name, seed):
    """Deterministic counts of one traced pass over the small inputs."""
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        items = small_items(name, seed, workdir)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            workloads.WORKLOADS[name].run_pass(items,
                                               run.Recorder(tracer=tracer))
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    m = tracer.metrics()
    return {k: m[k] for k in layertrace.DETERMINISTIC}


def test_counts_repeat():
    for name in workloads.WORKLOADS:
        runs = []
        for hs in HASH_SEEDS + HASH_SEEDS[:1]:
            env = dict(os.environ, PYTHONHASHSEED=hs)
            out = subprocess.run(
                [sys.executable, __file__, "--counts", name], env=env,
                check=True, capture_output=True, text=True, timeout=600)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        assert all(r == runs[0] for r in runs), (name, runs)
        assert any(runs[0].values()), (name, runs[0])


def main(argv):
    os.makedirs(run.OUT, exist_ok=True)
    if argv[:1] == ["--counts"]:
        print(json.dumps(counts_of(argv[1], 3)))
        return 0
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print("FAIL %s: %s" % (name, exc))
            else:
                print("ok   %s" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
