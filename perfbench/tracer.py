"""Span tracer for the traced runs of the hooklab benchmark.

Runs as a child process with src/ on the import path:

    python tracer.py trace <launch> <dump> <hooklab cli args...>
    python tracer.py replay <calls>

`trace` imports hooklab.cli, wraps the entry points listed in
ENTRY_POINTS, runs the CLI once and pickles the spans and counters to
<dump> when the CLI returns.  <launch> is the parent's time.monotonic()
just before it started this process, so the import time counts as the
`setup` layer.  `replay` re-runs, at one worker and without tracing, the
calls that launched a process pool in a traced run, and prints their
summed wall time.

The wrappers sit outside hooklab: no code under src/ changes.  A target
that no longer exists is reported as untraced rather than failing the
run, so the traced run keeps working after refactors that delete or
merge modules.  Work inside pool workers is not traced: forked workers
switch the tracer off.

summarize() runs in the parent and turns the dumps into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import array
import functools
import os
import pickle
import sys
import time
from collections import Counter
from math import factorial

# (layer, "module:attribute", kind, tag)
#   kind: call      plain call, one span
#         iter      returns an iterator; the call and every next() are spans
#         pool      call that may launch a process pool; replayed at 1 worker
#         executor  ProcessPoolExecutor class; a span from start to shutdown
#   tag:  groups spans for the metrics and selects a counting probe
ENTRY_POINTS = (
    ("cli", "hooklab.cli:main", "call", ""),
    # tree enumeration
    ("trees", "hooklab.trees:enumerate_increasing", "iter", "items"),
    ("trees", "hooklab.trees:enumerate_cayley", "iter", "items"),
    ("trees", "hooklab.trees:enumerate_binary", "iter", "items"),
    ("trees", "hooklab.trees:increasing_tree_at", "call", ""),
    ("trees", "hooklab.trees:cayley_tree_at", "call", ""),
    ("trees", "hooklab.trees:prufer_decode", "call", ""),
    ("trees", "hooklab.trees:increasing_from_cayley", "call", ""),
    ("trees", "hooklab.trees:subtree_sizes", "call", ""),
    ("trees", "hooklab.trees:hooks", "call", ""),
    ("trees", "hooklab.trees:split_at_second_min", "call", ""),
    # term-map kernel; callers look these up on _backend at call time
    ("kernel", "hooklab._backend:mul_terms", "call", "mul"),
    ("kernel", "hooklab._backend:iadd_terms", "call", "fold"),
    ("kernel", "hooklab._backend:scale_terms", "call", ""),
    ("kernel", "hooklab._backend:mul_monomial", "call", ""),
    ("kernel", "hooklab._kernel_py:mul_terms", "call", "mul"),
    ("kernel", "hooklab._kernel_py:iadd_terms", "call", "fold"),
    ("kernel", "hooklab._kernel_py:scale_terms", "call", ""),
    ("kernel", "hooklab._kernel_py:mul_monomial", "call", ""),
    # polynomial layer
    ("multipoly", "hooklab.multipoly:MultiPoly.__init__", "call", "ctor"),
    ("multipoly", "hooklab.multipoly:MultiPoly.__add__", "call", "op"),
    ("multipoly", "hooklab.multipoly:MultiPoly.__sub__", "call", "op"),
    ("multipoly", "hooklab.multipoly:MultiPoly.__rsub__", "call", "op"),
    ("multipoly", "hooklab.multipoly:MultiPoly.__neg__", "call", "op"),
    ("multipoly", "hooklab.multipoly:MultiPoly.__mul__", "call", "op"),
    ("multipoly", "hooklab.multipoly:MultiPoly.__pow__", "call", "op"),
    ("multipoly", "hooklab.multipoly:MultiPoly.sum", "call", "op"),
    ("multipoly", "hooklab.multipoly:MultiPoly.substitute", "call", "op"),
    ("multipoly", "hooklab.multipoly:falling_factorial", "call", "op"),
    ("multipoly", "hooklab.multipoly:specialize", "call", "op"),
    ("multipoly", "hooklab.multipoly:top_homogeneous", "call", "op"),
    # canonical render and hash
    ("reports", "hooklab.multipoly:MultiPoly.to_text", "call", "render"),
    ("reports", "hooklab.multipoly:MultiPoly.canonical_hash", "call", "hash"),
    ("reports", "hooklab.reports:compare_sides", "call", "compare"),
    ("reports", "hooklab.reports:side_summary", "call", ""),
    ("reports", "hooklab.reports:VerdictReport.to_json_dict", "call", ""),
    ("reports", "hooklab.reports:VerdictReport.format_line", "call", "render"),
    # weight expansion
    ("hookformula", "hooklab.hookformula:tree_weight", "call", ""),
    ("hookformula", "hooklab.hookformula:top_weight", "call", ""),
    ("hookformula", "hooklab.hookformula:tree_weight_sum", "call", ""),
    ("hookformula", "hooklab.hookformula:hook_weight_sum", "pool", ""),
    ("hookformula", "hooklab.hookformula:hook_weight_closed_form", "call", ""),
    ("hookformula", "hooklab.hookformula:increasing_hook_sum", "call", ""),
    ("hookformula", "hooklab.hookformula:uniform_chain_sides", "call", ""),
    ("hookformula", "hooklab.hookformula:binary_hook_sum", "call", ""),
    ("hookformula", "hooklab.hookformula:binary_reciprocal_hook_sum", "call", ""),
    ("hookformula", "hooklab.hookformula:linear_extension_check", "call", "lext"),
    ("hookformula", "hooklab.hookformula:cayley_fiber_sums", "call", ""),
    ("hookformula", "hooklab.hookformula:fiber_sum", "call", ""),
    ("hookformula", "hooklab.hookformula:cayley_degree_identity", "pool", ""),
    ("hookformula", "hooklab.hookformula:top_weight_sum", "call", ""),
    # inductive derivations
    ("recurrences", "hooklab.recurrences:split_summands", "iter", "summands"),
    ("recurrences", "hooklab.recurrences:grafting_split_summands", "iter", "summands"),
    ("recurrences", "hooklab.recurrences:root_degree_summands", "iter", "summands"),
    ("recurrences", "hooklab.recurrences:lagrange_summands", "iter", "summands"),
    ("recurrences", "hooklab.recurrences:set_partitions", "iter", ""),
    ("recurrences", "hooklab.recurrences:split_polynomial", "call", ""),
    ("recurrences", "hooklab.recurrences:closed_polynomial", "call", ""),
    ("recurrences", "hooklab.recurrences:constant_term_sides", "call", ""),
    ("recurrences", "hooklab.recurrences:finite_difference_sides", "call", ""),
    ("recurrences", "hooklab.recurrences:grafting_law_sides", "call", ""),
    ("recurrences", "hooklab.recurrences:grafting_split_sides", "call", ""),
    ("recurrences", "hooklab.recurrences:subset_closed_form", "call", ""),
    ("recurrences", "hooklab.recurrences:root_degree_sides", "call", ""),
    ("recurrences", "hooklab.recurrences:lagrange_identity_sides", "call", ""),
    ("recurrences", "hooklab.recurrences:lagrange_series_oracle", "call", "oracle"),
    ("recurrences", "hooklab.recurrences:oracle_closed_form", "call", ""),
    # factorization counts
    ("kerov", "hooklab.kerov:partitions_of", "iter", ""),
    ("kerov", "hooklab.kerov:count_factorizations", "pool", "count"),
    ("kerov", "hooklab.kerov:bedard_goupil", "call", ""),
    ("kerov", "hooklab.kerov:signed_factorization_count", "call", ""),
    ("kerov", "hooklab.kerov:factorization_count_closed_form", "call", ""),
    ("kerov", "hooklab.kerov:binomial_simplification_check", "call", ""),
    ("kerov", "hooklab.kerov:closed_rhs_at", "call", ""),
    ("kerov", "hooklab.kerov:tree_sum_at", "call", ""),
    ("kerov", "hooklab.kerov:block_cycle_permutation", "call", ""),
    # the three hand-rolled process pools
    ("pool", "concurrent.futures.process:ProcessPoolExecutor", "executor", "pool"),
)

LAYERS = ("setup", "cli", "trees", "kernel", "multipoly", "hookformula",
          "recurrences", "kerov", "reports", "pool")


class Tracer:
    """Spans kept in flat arrays, written out once when the run ends."""

    def __init__(self):
        self.active = True
        self.names: list[str] = []
        self.tags: list[str] = []
        self.layers: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.summand_keys: set = set()
        self.pool_calls: list = []
        self.untraced: list[str] = []
        self.broken_probes: set = set()
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.active = False

    def register(self, target: str, layer: str, tag: str) -> int:
        self.names.append(target)
        self.layers.append(layer)
        self.tags.append(tag)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        if self.stack[-1] == i:
            self.stack.pop()
        else:
            self.stack.remove(i)

    def probe(self, tag: str, nid: int, args, result) -> None:
        """Count what one call (or one yielded item) did, by its tag."""
        fn = PROBES.get(tag)
        if fn is None or tag in self.broken_probes:
            return
        try:
            fn(self, nid, args, result)
        except Exception as exc:  # a refactor changed a signature: stop counting
            self.broken_probes.add(tag)
            self.untraced.append(f"probe {tag}: {type(exc).__name__}: {exc}")


def _probe_mul(tr, nid, args, result):
    tr.counters["kernel.term_products"] += len(args[0]) * len(args[1])
    tr.counters["kernel.mul_out_terms"] += len(result)


def _probe_fold(tr, nid, args, result):
    tr.counters["kernel.fold_terms"] += len(args[1])
    if len(result) > tr.counters["kernel.peak_acc_terms"]:
        tr.counters["kernel.peak_acc_terms"] = len(result)


def _probe_render(tr, nid, args, result):
    tr.counters["reports.render_bytes"] += len(result.encode("utf-8"))


def _probe_hash(tr, nid, args, result):
    tr.counters["reports.hashed_terms"] += len(args[0])


def _probe_count(tr, nid, args, result):
    tr.counters["kerov.long_cycles"] += factorial(args[0].size - 1)


def _probe_items(tr, nid, args, item):
    tr.counters["trees.items"] += 1


def _probe_summands(tr, nid, args, item):
    tr.counters["recurrences.summands"] += 1
    # a summand is named by its generator, the generator's arguments and
    # everything it yields except the polynomial itself
    tr.summand_keys.add((nid, args, item[:-1]))


PROBES = {
    "mul": _probe_mul,
    "fold": _probe_fold,
    "render": _probe_render,
    "hash": _probe_hash,
    "count": _probe_count,
    "items": _probe_items,
    "summands": _probe_summands,
}


def _wrap_call(tr: Tracer, fn, nid: int, tag: str):
    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if tag:
            tr.probe(tag, nid, args, result)
        return result

    return traced


def _wrap_iter(tr: Tracer, fn, nid: int, tag: str):
    def items(it, args):
        while True:
            i = tr.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.close(i)
            if tag:
                tr.probe(tag, nid, args, item)
            yield item

    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        i = tr.open(nid)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            tr.close(i)
        return items(it, args)

    return traced


def _wrap_pool_call(tr: Tracer, fn, nid: int, tag: str, module: str, attr: str):
    import inspect  # here, not at the top: imports before hooklab's count as setup

    signature = inspect.signature(fn)
    replayable = "threads" in signature.parameters
    if not replayable:
        tr.untraced.append(f"{module}:{attr} has no threads parameter; not replayed")

    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        launches = tr.counters["pool.launches"]
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if replayable and tr.counters["pool.launches"] > launches:
            bound = signature.bind(*args, **kwargs)
            bound.arguments["threads"] = 1
            # pickled here, so the parent can pass the call on without
            # importing hooklab to unpickle its arguments
            call = pickle.dumps((module, attr, bound.args, bound.kwargs))
            tr.pool_calls.append((i, call))
        if tag:
            tr.probe(tag, nid, args, result)
        return result

    return traced


def _wrap_executor(tr: Tracer, cls, nid: int):
    class TracedExecutor(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_span = None
            if tr.active:
                tr.counters["pool.launches"] += 1
                self._bench_span = tr.open(nid)

        def submit(self, *args, **kwargs):
            if tr.active:
                tr.counters["pool.chunks"] += 1
            return super().submit(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                span, self._bench_span = self._bench_span, None
                if span is not None:
                    tr.close(span)

    TracedExecutor.__name__ = cls.__name__
    TracedExecutor.__qualname__ = cls.__qualname__
    return TracedExecutor


def install(tr: Tracer) -> dict:
    """Wrap every entry point that exists; return {target: original}.

    A function is replaced wherever a hooklab module binds it, so
    `from x import f` copies are traced too; a method is replaced in its
    class, under every name that holds it (__mul__ and __rmul__).
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "hooklab" or n.startswith("hooklab."))]
    originals: dict = {}
    placed: set = set()
    for layer, target, kind, tag in ENTRY_POINTS:
        module_name, _, path = target.partition(":")
        holder = sys.modules.get(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            holder = getattr(holder, part, None)
        raw = vars(holder).get(attr) if holder is not None else None
        if raw is None:
            tr.untraced.append(target)
            continue
        if id(raw) in placed:  # an alias of a target already wrapped
            continue
        nid = tr.register(target, layer, tag)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if kind == "executor":
            new = _wrap_executor(tr, fn, nid)
        elif kind == "iter":
            new = _wrap_iter(tr, fn, nid, tag)
        elif kind == "pool":
            new = _wrap_pool_call(tr, fn, nid, tag, module_name, path)
        else:
            new = _wrap_call(tr, fn, nid, tag)
        if kind != "executor":
            functools.update_wrapper(new, fn)
            for extra in ("cache_info", "cache_clear"):
                if hasattr(fn, extra):
                    setattr(new, extra, getattr(fn, extra))
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(new)
        placed.add(id(new))
        originals[target] = fn
        replaced = 0
        if outer:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    setattr(holder, key, new)
                    replaced += 1
        else:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, new)
                        replaced += 1
        if not replaced:
            tr.untraced.append(f"{target} (not referenced by hooklab)")
    return originals


def run_traced(launch: float, dump_path: str, argv: list) -> int:
    import hooklab.cli

    ready = time.monotonic()
    tr = Tracer()
    originals = install(tr)
    code = hooklab.cli.main(argv)
    tr.active = False
    caches = {}
    for target, fn in originals.items():
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            caches[target] = (info.hits, info.misses)
    dump = {
        "setup_s": ready - launch,
        "names": tr.names,
        "layers": tr.layers,
        "tags": tr.tags,
        "name": tr.name,
        "parent": tr.parent,
        "start": tr.start,
        "end": tr.end,
        "counters": dict(tr.counters),
        "distinct_summands": len(tr.summand_keys),
        "pool_calls": tr.pool_calls,
        "caches": caches,
        "untraced": tr.untraced,
    }
    with open(dump_path, "wb") as fh:
        pickle.dump(dump, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return code


def run_replay(calls_path: str) -> int:
    import importlib

    with open(calls_path, "rb") as fh:
        calls = pickle.load(fh)
    total = 0.0
    for call in calls:
        module, attr, args, kwargs = pickle.loads(call)
        fn = getattr(importlib.import_module(module), attr)
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        total += time.perf_counter() - t0
    print(repr(total))
    return 0


def summarize(dumps: list, traced_wall: float) -> dict:
    """Per-layer metrics and the layer split from the dumps of one traced run.

    traced_wall is the summed launch-to-exit time of the traced
    processes.  A span's self time is its duration minus its children's.
    """
    self_by_layer: Counter = Counter()
    self_by_tag: Counter = Counter()
    calls_by_tag: Counter = Counter()
    counters: Counter = Counter()
    caches: dict = {}
    untraced: set = set()
    setup = pool_wall = parent_fold = 0.0
    spans = distinct = 0
    for d in dumps:
        setup += d["setup_s"]
        untraced.update(d["untraced"])
        for key, value in d["counters"].items():
            if key == "kernel.peak_acc_terms":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        distinct += d["distinct_summands"]
        for target, (hits, misses) in d["caches"].items():
            h, m = caches.get(target, (0, 0))
            caches[target] = (h + hits, m + misses)
        names, parent, start, end = d["name"], d["parent"], d["start"], d["end"]
        layers, tags = d["layers"], d["tags"]
        n = len(names)
        spans += n
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            nid = names[i]
            own = dur[i] - child[i]
            self_by_layer[layers[nid]] += own
            tag = tags[nid]
            self_by_tag[tag] += own
            calls_by_tag[tag] += 1
            p = parent[i]
            if tag == "fold" and p >= 0 and tags[names[p]] == "pool":
                parent_fold += dur[i]
        for i, _ in d["pool_calls"]:
            pool_wall += dur[i]
    self_by_layer["setup"] = setup
    covered = sum(self_by_layer.values())
    hits, misses = caches.get("hooklab.hookformula:tree_weight_sum", (0, 0))
    products = counters["kernel.term_products"]
    summands = counters["recurrences.summands"]
    metrics = {
        "trees.items": counters["trees.items"],
        "trees.busy_s": self_by_layer["trees"],
        "kernel.mul_calls": calls_by_tag["mul"],
        "kernel.term_products": products,
        "kernel.mul_busy_s": self_by_tag["mul"],
        "kernel.merge_ratio": counters["kernel.mul_out_terms"] / products if products else 0.0,
        "kernel.fold_calls": calls_by_tag["fold"],
        "kernel.fold_terms": counters["kernel.fold_terms"],
        "kernel.fold_busy_s": self_by_tag["fold"],
        "kernel.peak_acc_terms": counters["kernel.peak_acc_terms"],
        "multipoly.ops": calls_by_tag["op"],
        "multipoly.ctor_calls": calls_by_tag["ctor"],
        "multipoly.self_s": self_by_layer["multipoly"],
        "hookformula.self_s": self_by_layer["hookformula"] - self_by_tag["lext"],
        "hookformula.lext_s": self_by_tag["lext"],
        "hookformula.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "recurrences.summands": summands,
        "recurrences.summand_repeat_ratio": summands / distinct if distinct else 0.0,
        "recurrences.self_s": self_by_layer["recurrences"] - self_by_tag["oracle"],
        "recurrences.oracle_s": self_by_tag["oracle"],
        "kerov.long_cycles": counters["kerov.long_cycles"],
        "kerov.count_s": self_by_tag["count"],
        "kerov.other_s": self_by_layer["kerov"] - self_by_tag["count"],
        "reports.comparisons": calls_by_tag["compare"],
        "reports.hash_s": self_by_tag["hash"],
        "reports.render_s": self_by_tag["render"],
        "reports.render_bytes": counters["reports.render_bytes"],
        "reports.hashed_terms": counters["reports.hashed_terms"],
        "cli.self_s": self_by_layer["cli"],
        "pool.launches": counters["pool.launches"],
        "pool.chunks": counters["pool.chunks"],
        "pool.wall_s": pool_wall,
        "pool.parent_fold_s": parent_fold,
        "setup.self_s": setup,
        "trace.covered_ratio": covered / traced_wall,
        "trace.spans": spans,
    }
    split = {layer: self_by_layer[layer] / traced_wall for layer in LAYERS}
    return {"metrics": metrics, "split": split, "untraced": sorted(untraced)}


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "trace":
        return run_traced(float(argv[1]), argv[2], argv[3:])
    if mode == "replay":
        return run_replay(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
