"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each skyhn layer listed
in ``TARGETS`` in every namespace that binds them (``from``-imports copy a
name, so e.g. ``cheng`` binds its own ``kron``), and ``uninstall()`` puts
the originals back.  Nothing inside ``src/`` is changed.

Three kinds of target:

- ``span``: each call is kept in memory as a span ``(id, name, start, end,
  parent, op, leaf_s)``.  ``leaf_s`` is the self time of untraced-span
  ("hot") calls made directly under it.  Self times are computed from the
  spans when the run ends.
- ``hot``: calls too frequent for a span each; only the call count and the
  self time are summed.
- ``count``: calls are counted, not timed.

Every wrapped call, whatever its kind, reports its duration to the frame
that called it, so a span's self time excludes all traced work below it.
"""

import collections
import sys
import time

from skyhn import (cheng, cli, field, grmat, hn_core, invariants, pipeline,
                   subdivision)

perf = time.perf_counter

LAYERS = ("field", "grmat", "hn_core", "subdivision", "cheng", "invariants",
          "pipeline", "cli")

# (metric name, owner, attribute, kind)
TARGETS = [
    ("field.reduce", field, "reduce", "hot"),
    ("field.kron", field, "kron", "hot"),
    ("field.matmul", field.DenseMatrix, "matmul", "hot"),
    ("field.ext_field_build", field, "ext_field_build", "span"),
    ("grmat.kernel", grmat, "kernel", "span"),
    ("grmat.minimize", grmat, "minimize", "span"),
    ("grmat.submodule_presentation", grmat, "submodule_presentation", "span"),
    ("grmat.quotient_presentation", grmat, "quotient_presentation", "span"),
    ("grmat.pointwise_model", grmat, "pointwise_model", "span"),
    ("grmat.structure_map", grmat, "structure_map", "span"),
    ("hn_core.hn_filtration_at", hn_core, "hn_filtration_at", "span"),
    ("hn_core.brute_force_max_slope", hn_core, "brute_force_max_slope",
     "span"),
    ("hn_core.fiber_classes", hn_core, "fiber_classes", "span"),
    ("hn_core.subspaces_of_dim", hn_core, "subspaces_of_dim", "generator"),
    ("subdivision.exact_hnf_cell", subdivision, "exact_hnf_cell", "span"),
    ("subdivision.clip", subdivision.ConvexRegion, "clip", "hot"),
    ("subdivision.tree_reads", subdivision.SubdivTree, "factors_at", "hot"),
    ("cheng.hn_cheng", cheng, "hn_cheng", "span"),
    ("cheng.build_A_alpha", cheng, "build_A_alpha", "span"),
    ("cheng.shrunk_subspace_random", cheng, "shrunk_subspace_random", "span"),
    ("cheng.wong", cheng.WongState, "advance", "span"),
    ("invariants.erosion_distance", invariants, "erosion_distance", "span"),
    ("invariants.skyscraper_query", invariants, "skyscraper_query", "hot"),
    ("invariants.locate", invariants.SkyscraperStore, "locate", "count"),
    ("invariants.merge_factors", invariants, "merge_factors", "span"),
    ("invariants.staircases_from_dims", invariants, "staircases_from_dims",
     "span"),
    ("pipeline.approx_skyscraper", pipeline, "approx_skyscraper", "span"),
    ("pipeline.parallel_grid_scan", pipeline, "parallel_grid_scan", "span"),
    ("pipeline.exact_skyscraper", pipeline, "exact_skyscraper", "span"),
    ("pipeline.hn_at", pipeline, "hn_at", "span"),
    ("pipeline.snapshot", pipeline.ExactStore, "snapshot", "span"),
    ("pipeline.exact_query", pipeline.ExactStore, "query", "span"),
    ("pipeline.filtered_landscape", pipeline, "filtered_landscape", "span"),
    ("cli.main", cli, "main", "span"),
    ("cli.parse_presentation", cli, "parse_presentation", "span"),
    ("cli.emit_store", cli, "emit_store", "span"),
    ("cli.parse_store", cli, "parse_store", "span"),
]

# counters derived at the call boundaries, reported as counts
COUNTS = ["hn_core.subspaces.enumerated", "hn_core.strata.scanned",
          "hn_core.strata.skipped", "subdivision.faces", "cheng.draws",
          "cheng.draws_failed", "cheng.wong_steps", "cheng.ext_degree_max",
          "pipeline.approx.engine_runs", "pipeline.scan.tree_builds",
          "cli.exit.0", "cli.exit.2", "cli.exit.3", "cli.exit.4",
          "cli.exit.other"]

RATIOS = ["cheng.draw_ok_ratio", "pipeline.scan.reuse_ratio"]

# counts that a given seed must reproduce exactly (selftest.py)
DETERMINISTIC = ["hn_core.subspaces.enumerated", "subdivision.clip.calls",
                 "subdivision.faces", "cheng.draws", "cheng.draws_failed",
                 "cheng.wong_steps", "pipeline.scan.tree_builds",
                 "cli.exit.0", "cli.exit.2", "cli.exit.3", "cli.exit.4",
                 "cli.exit.other"]


def metric_names():
    """Every per-layer metric name with its unit, in report order (the
    run-level proc.cpu_s and trace.overhead_s are added by run.py)."""
    out = []
    for name, _, _, kind in TARGETS:
        if kind == "generator":
            continue
        out.append((name + ".calls", "count"))
        if kind != "count":
            out.append((name + ".self_s", "s"))
    out += [(layer + ".self_s", "s") for layer in LAYERS]
    out += [(name, "count") for name in COUNTS]
    out += [(name, "ratio") for name in RATIOS]
    return out


def exit_key(code):
    return "cli.exit.%d" % code if code in (0, 2, 3, 4) else "cli.exit.other"


def _tree_faces(tree):
    n, todo = 0, list(tree.root.children)
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(node.children)
    return n


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent, op, leaf_s)
        self.hot = collections.defaultdict(lambda: [0, 0.0])  # calls, self
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.ext_degree_max = 0
        self.op_id = None
        self._stack = []       # frames: [child_s, leaf_s, span id or None, name]
        self._span_frames = []
        self._patches = []

    # -- frames --------------------------------------------------------

    def _enter(self, name, span):
        frame = [0.0, 0.0, len(self.spans) if span else None, name]
        if span:
            self.spans.append(None)   # reserve the id
            self._span_frames.append(frame)
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        if frame[2] is None:
            own = dur - frame[0]
            agg = self.hot[name]
            agg[0] += 1
            agg[1] += own
            if self._span_frames:
                self._span_frames[-1][1] += own
        else:
            self._span_frames.pop()
            parent = self._span_frames[-1][2] if self._span_frames else -1
            self.spans[frame[2]] = (frame[2], name, t0, t1, parent,
                                    self.op_id, frame[1])

    def op(self, op_id, fn, *args):
        """Run one benchmark operation as the root span "op"."""
        self.op_id = op_id
        frame = self._enter("op", True)
        t0 = perf()
        try:
            return fn(*args)
        finally:
            self._exit("op", frame, t0, perf())
            self.op_id = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, kind):
        tracer = self
        # a method _post_<name, dots as underscores> sees every call's
        # arguments and outcome after the call's clock has stopped
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        if kind == "count":
            def wrapper(*a, **k):
                tracer.calls[name] += 1
                return fn(*a, **k)
        elif kind == "generator":
            def wrapper(*a, **k):
                tracer._on_subspaces(*a, **k)
                return tracer._count_items(fn(*a, **k))
        else:
            span = kind == "span"

            def wrapper(*a, **k):
                token = tracer._pre(name, a, k)
                frame = tracer._enter(name, span)
                t0 = perf()
                result = exc = None
                try:
                    result = fn(*a, **k)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    tracer._exit(name, frame, t0, perf())
                    if post is not None:
                        post(token, a, k, result, exc)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "skyhn" or n.startswith("skyhn."))]
        for name, owner, attr, kind in TARGETS:
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, kind)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- counters at the boundaries --------------------------------------

    def _count_items(self, gen):
        for item in gen:
            self.counts["hn_core.subspaces.enumerated"] += 1
            yield item

    def _on_subspaces(self, field_, t, k):
        # a dimension-k stratum scanned by the brute-force search (the
        # line filter decides per stratum; lines are always scanned)
        if (k >= 2 and self._stack
                and self._stack[-1][3] == "hn_core.brute_force_max_slope"):
            self.counts["hn_core.strata.scanned"] += 1

    def _pre(self, name, a, k):
        if name == "hn_core.brute_force_max_slope":
            return self.counts["hn_core.strata.scanned"]
        if name == "field.ext_field_build":
            self.ext_degree_max = max(self.ext_degree_max, a[1])
        return None

    def _post_hn_core_brute_force_max_slope(self, before, a, k, result, exc):
        if result is not None:
            scanned = self.counts["hn_core.strata.scanned"] - before
            self.counts["hn_core.strata.skipped"] += a[0].nrows - 1 - scanned

    def _post_subdivision_exact_hnf_cell(self, _, a, k, result, exc):
        if result is not None:
            self.counts["subdivision.faces"] += _tree_faces(result)

    def _post_cheng_shrunk_subspace_random(self, _, a, k, result, exc):
        if exc is None:
            self.counts["cheng.draws"] += 1
            if result is None:
                self.counts["cheng.draws_failed"] += 1

    def _post_cheng_wong(self, _, a, k, result, exc):
        self.counts["cheng.wong_steps"] += 1

    def _post_pipeline_approx_skyscraper(self, _, a, k, result, exc):
        if result is not None:
            self.counts["pipeline.approx.engine_runs"] += sum(result.work)

    def _post_pipeline_parallel_grid_scan(self, _, a, k, result, exc):
        if result is not None:
            self.counts["pipeline.scan.tree_builds"] += sum(result.work)

    def _post_cli_main(self, _, a, k, result, exc):
        if exc is None:
            code = result
        elif isinstance(exc, SystemExit):
            code = exc.code
        else:
            code = 1
        self.counts[exit_key(code)] += 1

    # -- results --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus traced children (spans below
        it and the self time of hot calls directly under it)."""
        child = collections.defaultdict(float)
        for _, _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(sid, name, (t1 - t0) - child[sid] - leaf, op)
                for sid, name, t0, t1, parent, op, leaf in self.spans]

    def check_ops(self, tol=1e-9):
        """For each operation: (op id, sum of self times, traced wall).
        The self times of the spans of one operation and the hot calls
        inside them add up to the wall time of its root span."""
        wall = {}
        total = collections.defaultdict(float)
        selfs = self.self_times()
        for (sid, name, own, op), span in zip(selfs, self.spans):
            if op is None:
                continue
            total[op] += own + span[6]
            if name == "op":
                wall[op] = span[3] - span[2]
        bad = [(op, total[op], wall[op]) for op in wall
               if total[op] > wall[op] + tol
               or any(s < -tol for _, n, s, o in selfs if o == op)]
        return len(wall), bad

    def metrics(self):
        per_fn = collections.defaultdict(lambda: [0, 0.0])
        for _, name, own, _ in self.self_times():
            per_fn[name][0] += 1
            per_fn[name][1] += own
        for name, (calls, own) in self.hot.items():
            per_fn[name][0] += calls
            per_fn[name][1] += own
        out = {}
        layer_s = collections.defaultdict(float)
        for name, _, _, kind in TARGETS:
            if kind == "generator":
                continue
            if kind == "count":
                out[name + ".calls"] = self.calls[name]
                continue
            calls, own = per_fn[name]
            out[name + ".calls"] = calls
            out[name + ".self_s"] = own
            layer_s[name.split(".")[0]] += own
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_s[layer]
        for name in COUNTS:
            out[name] = self.counts[name]
        draws = self.counts["cheng.draws"]
        out["cheng.ext_degree_max"] = (self.ext_degree_max or 1) if draws else 0
        out["cheng.draw_ok_ratio"] = (
            (draws - self.counts["cheng.draws_failed"]) / draws if draws else 0.0)
        runs = self.counts["pipeline.approx.engine_runs"]
        out["pipeline.scan.reuse_ratio"] = (
            1 - self.counts["pipeline.scan.tree_builds"] / runs if runs else 0.0)
        return out

    def write_spans(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op,self_s\n")
            for (sid, name, t0, t1, parent, op, _), (_, _, own, _) in zip(
                    self.spans, selfs):
                fh.write("%d,%s,%.9f,%.9f,%d,%s,%.9f\n" % (
                    sid, name, t0, t1, parent, "" if op is None else op, own))

