"""Line traffic of src/skyhn under the benchmark's workloads.

    python3 tests/traffic.py WORKLOAD[,WORKLOAD] SEED

Builds the inputs of each named workload of perfbench/workloads.py
(lattice, thick, cheng, cli) from SEED, runs one pass of it with
``sys.settrace`` limited to files under src/skyhn/, and prints, per function
of src/skyhn, the executable lines that ran 0 times.  Only the pass is
traced: not the import, the set-up or the output checks.  It reads the
workloads and nothing under perfbench/ is changed; standard library only,
and pytest does not collect it.
"""

import inspect
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "skyhn")
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import run          # noqa: E402  (perfbench/run.py, for its Recorder)
import workloads    # noqa: E402


def functions(path):
    """(qualified name, first line, executable lines) of every function
    compiled from the file, nested ones apart from their parents: a
    nested def line is the parent's line and the child's first line.
    Module and class bodies run at import, untraced, and are left out."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    out = []
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
        if code.co_flags & inspect.CO_OPTIMIZED:    # not a class body
            lines = {ln for _, _, ln in code.co_lines() if ln is not None}
            out.append((code.co_qualname, code.co_firstlineno, lines))
    return sorted(out, key=lambda f: f[1])


def traced_pass(wl, items):
    """Run one pass of the workload; returns the set of (file, function's
    qualified name and first line, line) of src/skyhn that ran, a called
    function's first line included."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran.add((code.co_filename, code.co_qualname,
                     code.co_firstlineno, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(SRC + os.sep):
            return None
        ran.add((code.co_filename, code.co_qualname, code.co_firstlineno,
                 code.co_firstlineno))
        return local

    sys.settrace(call)
    try:
        wl.run_pass(items, run.Recorder())
    finally:
        sys.settrace(None)
    return ran


def spans(lines):
    """'3, 5-7' for [3, 5, 6, 7]."""
    out, lines = [], sorted(lines)
    for ln in lines:
        if out and out[-1][1] == ln - 1:
            out[-1][1] = ln
        else:
            out.append([ln, ln])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1].strip())
    names, seed = argv[0].split(","), int(argv[1])
    ran = set()
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            wl = workloads.WORKLOADS[name]
            ran |= traced_pass(wl, wl.setup(seed, workdir))
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        for qualname, first, lines in functions(path):
            unrun = [ln for ln in sorted(lines)
                     if (path, qualname, first, ln) not in ran]
            print("%s %s: %d of %d lines ran 0 times%s" % (
                fname[:-3], qualname, len(unrun), len(lines),
                ": " + spans(unrun) if unrun else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
