"""skyhn benchmark: one workload per run, end-to-end metrics or a traced
per-layer breakdown.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run from the root of a checkout: the package is imported from ``src/`` of
the checkout this file lives in, never from anywhere else.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable report goes to
standard error.  See README.md for the workloads and the metrics.

Every workload is one process and one thread, a closed loop: each
operation starts when the previous one returns.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 8
# the run_seconds of BENCHMARK.json: the timed pass of every workload is
# sized to take about this long at the reference speed (speed.py)
RUN_SECONDS = 15
WARMUP_SEED = 0
perf = time.perf_counter


class Recorder:
    """Times operations and keeps the outcome of every output check.

    An operation fails when it raises, exits with an undocumented status,
    or fails an output check; a failed output check also makes the run
    incorrect (a wrong answer, as opposed to a broken contract).  Output
    checks are queued with ``later`` and run by ``run_checks`` after the
    pass clock has stopped, so they add nothing to the measured times.
    """

    def __init__(self, tracer=None, digest=False, speed=None):
        self.latencies = []
        self.attempted = 0
        self.failed_ops = set()
        self.wrong = 0
        self.messages = collections.Counter()
        self.tracer = tracer
        self.speed = speed
        self.hash = hashlib.sha1() if digest else None
        self.pending = []
        self._current = None

    @property
    def failed(self):
        return len(self.failed_ops)

    def op(self, name, fn, *args):
        """Run and time one operation; None when it raised."""
        self.attempted += 1
        self._current = (self.attempted, name)
        t0 = perf()
        try:
            if self.tracer is not None:
                result = self.tracer.op(self.attempted, fn, *args)
            else:
                result = fn(*args)
        except Exception as exc:   # a failed operation is counted, not raised
            self.latencies.append(perf() - t0)
            self._fail("raised %s: %s" % (type(exc).__name__, exc))
            result = None
        else:
            self.latencies.append(perf() - t0)
        if self.speed is not None:
            self.speed.add(self.latencies[-1])
        if self.hash is not None:
            self.hash.update(("%s=%s;" % (name, canonical(result))).encode())
        return result

    def later(self, fn, *args):
        """Queue a check of the last operation's output (or, if it calls
        ``check(..., op=False)``, of the run) for ``run_checks``."""
        self.pending.append((self._current, fn, args))

    def run_checks(self):
        pending, self.pending = self.pending, []
        for current, fn, args in pending:
            self._current = current
            fn(*args)

    def _fail(self, msg):
        self.failed_ops.add(self._current[0])
        self.messages["%s: %s" % (self._current[1], msg)] += 1

    def check(self, ok, what, op=True):
        """Output check of the current operation (op=False: of the run)."""
        if ok:
            return True
        self.wrong += 1
        if op:
            self._fail(what)
        else:
            self.messages["run check: " + what] += 1
        return False

    def check_exit(self, code, expected):
        """Exit-status check of the last (cli) operation.  A status outside
        the documented set breaks the contract; status 4 where success was
        expected is the cli's own self-check failing, a wrong answer."""
        if code in expected:
            return True
        if code == 4 and 0 in expected:
            return self.check(False, "skyhn check failed")
        self._fail("exit status %r, expected %s" % (code, sorted(expected)))
        return False


def canonical(x):
    """Text that equal outputs share (for comparing two runs)."""
    from skyhn import invariants, pipeline
    if isinstance(x, invariants.HNFactorList):
        return repr(x.canonical())
    if isinstance(x, invariants.SkyscraperStore):
        return repr((sorted((k, v.canonical()) for k, v in x.entries.items()),
                     getattr(x, "work", None)))
    if isinstance(x, pipeline.ExactStore):
        return repr((x.box, len(x.summands)))
    return repr(x)


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 11."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def import_skyhn():
    """Import skyhn and the workloads afresh from this checkout's src/;
    returns the workloads module.  Bytecode is neither read nor written
    (``sys.pycache_prefix`` points at a directory that is never filled), so
    every import compiles the sources, the same in every checkout."""
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(OUT, "no-pycache")
    if sys.path[:2] != [SRC, HERE]:
        sys.path[:0] = [SRC, HERE]
    for name in list(sys.modules):
        if name.partition(".")[0] in ("skyhn", "gen", "workloads",
                                      "layertrace"):
            del sys.modules[name]
    import skyhn
    import workloads
    if not os.path.abspath(skyhn.__file__).startswith(SRC + os.sep):
        raise ImportError("skyhn imported from %s, not from %s"
                          % (skyhn.__file__, SRC))
    return workloads


def set_ups(name, workdir, reps, times, speed):
    """Set up reps times, appending each set-up's time to times (and to
    speed, with a probe after each); returns the workload of the last
    set-up.  A set-up imports skyhn, builds and
    writes the inputs of WARMUP_SEED and warms up on the first of them: the
    same work in every run, so that set-up time does not depend on how long
    the run's seed takes to draw its inputs (the one-block rule redraws)."""
    warmdir = os.path.join(workdir, "warmup")
    os.makedirs(warmdir, exist_ok=True)
    for _ in range(reps):
        t0 = perf()
        wl = import_skyhn().WORKLOADS[name]
        warm = Recorder()
        wl.run_pass(wl.prefix(wl.setup(WARMUP_SEED, warmdir), 1), warm)
        times.append(perf() - t0)
        speed.add(times[-1], force=True)
        warm.run_checks()
    return wl


def end_to_end(wl, items, speed):
    """One timed pass; its output checks run after the clock stops.
    Returns the raw times, to be scaled to the reference speed once the
    set-ups after the pass have been probed too."""
    rec = Recorder(speed=speed)
    cpu0 = time.process_time()
    wl.run_pass(items, rec)
    cpu = time.process_time() - cpu0
    speed.flush()
    rec.run_checks()
    wl.final_check(items, rec)
    tail_v, tail_p = tail(rec.latencies)
    metrics = {
        "wall_s": (math.fsum(rec.latencies), "s"),
        "op_ms_p50": (statistics.median(rec.latencies) * 1e3, "ms"),
        "op_ms_tail": (tail_v * 1e3, "ms"),
        "ok_ratio": (1 - rec.failed / rec.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = ["%d operations; op_ms_tail is p%.1f" % (rec.attempted, tail_p),
             "failed_ratio %.4f (%d of %d)" % (
                 rec.failed / rec.attempted, rec.failed, rec.attempted),
             "cpu_s %.3f" % cpu]
    return rec, metrics, notes


def traced(wl, make_items, name):
    """One untraced pass, then the same pass traced, each on inputs built
    afresh, so that the traced pass finds nothing that skyhn cached on an
    input object (hn_core keeps fiber classes on the presentation) during
    the untraced one.  Per-layer metrics come from the traced pass, trace
    overhead from the difference of the two passes' times, each scaled to
    the reference speed by its own probes."""
    import layertrace
    items = make_items()
    plain = Recorder(digest=True, speed=speed.Speed())
    cpu0 = time.process_time()
    wl.run_pass(items, plain)
    cpu = time.process_time() - cpu0
    plain.speed.flush()
    wall_plain = math.fsum(plain.latencies) * plain.speed.factor()
    plain.run_checks()
    items = make_items()
    tracer = layertrace.Tracer()
    rec = Recorder(tracer=tracer, digest=True, speed=speed.Speed())
    tracer.install()
    try:
        wl.run_pass(items, rec)
    finally:
        tracer.uninstall()
    rec.speed.flush()
    wall_traced = math.fsum(rec.latencies) * rec.speed.factor()
    rec.run_checks()
    wl.final_check(items, rec)
    rec.check(plain.hash.hexdigest() == rec.hash.hexdigest(),
              "traced outputs differ from untraced outputs", op=False)
    n_ops, bad = tracer.check_ops()
    rec.check(not bad, "%d operations whose self times exceed their wall"
              % len(bad), op=False)
    units = dict(layertrace.metric_names())
    metrics = {k: (v, units[k]) for k, v in tracer.metrics().items()}
    metrics["proc.cpu_s"] = (cpu, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    spans = os.path.join(OUT, "spans-%s.csv" % name)
    tracer.write_spans(spans)
    notes = ["untraced pass %.3f s, traced pass %.3f s (at the reference "
             "speed)" % (wall_plain, wall_traced),
             "%d operations, %d spans written to %s" % (
                 n_ops, len(tracer.spans), os.path.relpath(spans, ROOT))]
    return rec, metrics, notes


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit()}


def commit():
    """The checked-out commit, read from .git when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


TIMES = ("setup_s", "wall_s", "op_ms_p50", "op_ms_tail")


def run_one(name, seed, trace):
    """Half the set-ups run before the timed pass and half after it, so
    that their median spans the run and a burst of machine noise during
    the first set-ups alone does not move it.  End-to-end times are scaled
    to the reference speed by the probes of speed.py, taken between the
    operations of the pass and after every set-up."""
    workdir = tempfile.mkdtemp(prefix="work-%s-" % name, dir=OUT)
    try:
        times = []
        sp = speed.Speed()
        wl = set_ups(name, workdir, SETUP_REPS // 2, times, sp)
        if trace:
            rec, metrics, notes = traced(
                wl, lambda: wl.setup(seed, workdir), name)
        else:
            rec, metrics, notes = end_to_end(wl, wl.setup(seed, workdir), sp)
            set_ups(name, workdir, SETUP_REPS - len(times), times, sp)
            metrics = dict(setup_s=(statistics.median(times), "s"), **metrics)
            f = sp.factor()
            notes.append("set-up: median of %d" % len(times))
            notes.append("measured times, before scaling by the speed "
                         "factor %.4f (%d probes): %s" % (
                             f, len(sp.intervals) + 1, ", ".join(
                                 "%s %.6g" % (k, metrics[k][0])
                                 for k in TIMES)))
            metrics.update((k, (metrics[k][0] * f, metrics[k][1]))
                           for k in TIMES)
        return correct(wl, rec), rec, metrics, notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def correct(wl, rec):
    """No output check failed, and no operation failed unless the
    workload runs inputs that break the contract at this commit (cli)."""
    return rec.wrong == 0 and (wl.may_fail or rec.failed == 0)


def report(name, ok, rec, metrics, notes):
    print("== %s: correct=%s attempted=%d failed=%d" % (
        name, ok, rec.attempted, rec.failed), file=sys.stderr)
    for k, (v, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (k, v, unit), file=sys.stderr)
    for line in notes:
        print("  # " + line, file=sys.stderr)
    for msg, n in sorted(rec.messages.items()):
        print("  # FAILED %d x %s" % (n, msg), file=sys.stderr)


def result_json(ok, rec, metrics):
    return {"correct": ok, "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="lattice, thick, cheng, cli, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="accepted for the BENCHMARK.json interface; every "
                    "workload runs one pass of fixed inputs sized to about "
                    "%d s"
                    % RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    try:
        workloads = import_skyhn()
    except ImportError as exc:
        print("perfbench: cannot import skyhn from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error("unknown workload %r" % args.workload)
    print("# python %(python)s, nproc %(nproc)s, commit %(commit)s"
          % environment(), file=sys.stderr)
    results = {}
    for name in names:
        ok, rec, metrics, notes = run_one(name, args.seed, args.trace)
        report(name, ok, rec, metrics, notes)
        results[name] = result_json(ok, rec, metrics)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"environment": environment(), "seed": args.seed,
                          "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
