"""Spans around every public `qbp` function, installed from outside the package.

`Tracer.install` replaces every module binding of every public function of
every `qbp` module (the package namespace included), so `product.mat_mul`
and `gf2.mat_mul` both record a span, and so do `harness.decode` and
`decoder.preprocess_candidates`.  A few public methods are wrapped as well
(`FiniteGroup.from_table`, `GroupAction.from_table`, `RowSpace.contains`).
Private helpers are not wrapped: their time is the self time of the public
function that calls them.  Generator functions are not wrapped either,
because their body runs in the consumer's frame.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "graphs", "product", "gf2", "css", "expansion", "decoder",
          "harness", "cli", "instances", "jsonio")
METHODS = (("groups", "FiniteGroup", "from_table"), ("groups", "GroupAction", "from_table"),
           ("gf2", "RowSpace", "contains"))


def quotient_cells(cpx):
    """Cells, edges and faces of a product complex."""
    return (cpx.v00_size + cpx.v10_size + cpx.v01_size + cpx.v11_size
            + len(cpx.edges_v00_v10) + len(cpx.edges_v01_v11)
            + len(cpx.edges_v00_v01) + len(cpx.edges_v10_v11) + len(cpx.faces))


def _decode_counts(result):
    return {"decoder.decodes": 1,
            "decoder.vertices_scanned": result.preprocess_vertices_scanned,
            "decoder.subsets_tested": result.preprocess_subsets_tested,
            "decoder.iterations": result.iterations,
            "decoder.stale_pops": result.stale_pops,
            "decoder.syndrome_bits": result.initial_syndrome_weight}


# Exact work counters, read off the return value of the traced call.
HOOKS = {
    "product.verify_chain_condition": lambda r: {"product.chain_checks": 1},
    "product.balanced_product": lambda r: {"product.quotient_cells": quotient_cells(r)},
    "gf2.mat_mul": lambda r: {"gf2.mat_mul_calls": 1},
    "expansion.certify_expansion": lambda r: {"expansion.subsets_checked": r.subsets_checked},
    "css.brute_distance": lambda r: {"css.vectors_enumerated": r.vectors_enumerated},
    # The locally minimal oracle walks the whole kernel of Hx.
    "css.locally_minimal_distance": lambda r: {"css.vectors_enumerated": 1 << r.kernel_dim},
    "decoder.decode": _decode_counts,
}


class Tracer:
    """In-memory span recorder; `op` is the id stamped on new spans."""

    def __init__(self):
        self.spans = []              # (name, start, end, parent index or -1, op)
        self.counts = defaultdict(Counter)   # op -> counter name -> value
        self.op = None
        self._stack = []
        self._patches = []

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qbp
        modules = [qbp] + [importlib.import_module(f"qbp.{name}") for name in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or inspect.isgeneratorfunction(fn)
                        or not fn.__module__.startswith("qbp.")):
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.split(".", 1)[1]
                    wrappers[fn] = self._wrap(f"{layer}.{fn.__qualname__}", fn)
                self._patch(module, attr, fn, wrappers[fn])
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"qbp.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            traced = self._wrap(f"{layer}.{fn.__qualname__}", fn)
            self._patch(cls, attr, raw, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.op)
            if hook is not None:
                self.counts[self.op].update(hook(result))
            return result

        return traced

    # -- analysis -----------------------------------------------------------------

    def self_times(self):
        """Per span: self seconds (duration minus the children's durations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "op": op}) + "\n")


# -- per-layer metrics ------------------------------------------------------------

# Self-time timers: metric -> the spans whose self time it sums.
TIMERS = {
    "groups.action_check_s": ("groups.GroupAction.from_table",),
    "groups.group_check_s": ("groups.FiniteGroup.from_table",),
    "groups.free_check_s": ("groups.verify_free_action",),
    "graphs.edge_invariance_s": ("graphs.verify_edge_invariance",),
    "product.construct_self_s": ("product.balanced_product", "product.hypergraph_product"),
    "product.chain_check_s": ("product.verify_chain_condition",),
    "product.json_load_s": ("product.complex_from_json",),
    "product.json_dump_s": ("product.complex_to_json",),
    "gf2.mat_mul_s": ("gf2.mat_mul",),
    "gf2.elim_s": ("gf2.rank", "gf2.row_space", "gf2.kernel_basis", "gf2.solve"),
    "gf2.mat_vec_s": ("gf2.mat_vec", "gf2.mat_vec_mask"),
    "gf2.rowspace_contains_s": ("gf2.RowSpace.contains",),
    "css.extract_s": ("css.extract_code",),
    "css.params_s": ("css.code_params",),
    "css.distance_s": ("css.brute_distance",),
    "css.lm_distance_s": ("css.locally_minimal_distance",),
    "expansion.certify_s": ("expansion.certify_expansion",),
    "expansion.tree_partition_s": ("expansion.tree_partition",),
    "expansion.max_flow_s": ("expansion.max_flow_integer",),
    "decoder.preprocess_s": ("decoder.preprocess_candidates",),
    "decoder.loop_s": ("decoder.decode",),
    "decoder.transpose_s": ("decoder.decode_x",),
    "decoder.diagnostics_s": ("decoder.region_diagnostics",),
}
# Timers also reported for one set-up, under "setup.<name>".
SETUP_TIMERS = ("groups.action_check_s", "groups.group_check_s", "groups.free_check_s",
                "graphs.edge_invariance_s", "graphs.build_s", "product.construct_self_s",
                "product.chain_check_s", "product.json_load_s", "product.json_dump_s",
                "gf2.mat_mul_s", "gf2.elim_s", "css.extract_s")
PER_OP_COUNTERS = ("product.chain_checks", "product.quotient_cells", "gf2.mat_mul_calls",
                   "css.vectors_enumerated", "expansion.subsets_checked")
PER_DECODE_COUNTERS = ("decoder.vertices_scanned", "decoder.subsets_tested",
                       "decoder.iterations", "decoder.stale_pops")


def _ratio(num, den):
    return num / den if den else 0.0


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer, op_walls, prefix_ops, op_scale):
    """Per-layer metrics of a traced run.

    op_walls maps each measured op id to its wall time; prefix_ops is the
    pool size, so the ops below it are the first round, over which the exact
    counters are taken; op_scale maps an op id to "small", "large"
    or None (build rungs at the two ends of the ladder).
    """
    selfs = tracer.self_times()
    n_ops = len(op_walls)
    by_name = {"ops": Counter(), "setup": Counter()}
    layer_ops = Counter()
    scale_layer = defaultdict(Counter)
    inclusive = defaultdict(float)
    sim_decode = 0.0
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if isinstance(op, int):
            by_name["ops"][name] += selfs[i]
            layer_ops[_layer(name)] += selfs[i]
            scale_layer[op_scale(op)][_layer(name)] += selfs[i]
        elif op == "setup":
            by_name["setup"][name] += selfs[i]
        inclusive[(op if not isinstance(op, int) else "ops", name)] += end - start
        if (name == "decoder.decode" and parent >= 0
                and tracer.spans[parent][0] == "harness.run_simulation"):
            sim_decode += end - start

    def timer(phase, metric):
        if metric == "graphs.build_s":
            total = sum(v for k, v in by_name[phase].items() if _layer(k) == "graphs")
            return total - by_name[phase]["graphs.verify_edge_invariance"]
        return sum(by_name[phase][span] for span in TIMERS[metric])

    out = {}
    for metric in list(TIMERS) + ["graphs.build_s"]:
        out[metric] = (_ratio(timer("ops", metric), n_ops), "s")
    for metric in SETUP_TIMERS:
        out[f"setup.{metric}"] = (timer("setup", metric), "s")
    out["cli.construct_s"] = (inclusive[("setup", "cli.cli_dispatch")], "s")

    wall = sum(op_walls.values())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (_ratio(layer_ops[layer], n_ops), "s")
    covered = sum(layer_ops.values())
    out["bench.self_s"] = (_ratio(wall - covered, n_ops), "s")
    out["trace.layer_coverage"] = (_ratio(covered, wall), "fraction")
    out["decoder.preprocess_frac"] = (_ratio(timer("ops", "decoder.preprocess_s"), wall), "fraction")
    out["decoder.loop_frac"] = (_ratio(timer("ops", "decoder.loop_s"), wall), "fraction")

    prefix = Counter()
    every = Counter()
    for op, counts in tracer.counts.items():
        if isinstance(op, int):
            every.update(counts)
            if op < prefix_ops:
                prefix.update(counts)
    for name in PER_OP_COUNTERS:
        out[name] = (_ratio(prefix[name], prefix_ops), "count")
    decodes = prefix["decoder.decodes"]
    for name in PER_DECODE_COUNTERS:
        out[name] = (_ratio(prefix[name], decodes), "count")
    out["decoder.scan_per_syndrome_bit"] = (
        _ratio(prefix["decoder.vertices_scanned"], prefix["decoder.syndrome_bits"]), "ratio")
    out["decoder.stale_ratio"] = (
        _ratio(prefix["decoder.stale_pops"],
               prefix["decoder.stale_pops"] + prefix["decoder.iterations"]), "ratio")

    construct = inclusive[("ops", "product.balanced_product")]
    out["product.cells_per_s"] = (_ratio(every["product.quotient_cells"], construct), "1/s")
    out["css.vectors_per_s"] = (_ratio(
        every["css.vectors_enumerated"],
        timer("ops", "css.distance_s") + timer("ops", "css.lm_distance_s")), "1/s")
    out["expansion.subsets_per_s"] = (_ratio(
        every["expansion.subsets_checked"], timer("ops", "expansion.certify_s")), "1/s")

    simulate = inclusive[("crosscheck", "harness.run_simulation")]
    out["harness.simulate_s"] = (simulate, "s")
    out["harness.overhead_frac"] = (_ratio(simulate - sim_decode, simulate), "fraction")

    for scale in ("large", "small"):
        layers = scale_layer[scale]
        scale_wall = sum(w for op, w in op_walls.items() if op_scale(op) == scale)
        out[f"build.{scale}.groups_product_frac"] = (
            _ratio(layers["groups"] + layers["product"], scale_wall), "fraction")
        out[f"build.{scale}.expansion_css_frac"] = (
            _ratio(layers["expansion"] + layers["css"], scale_wall), "fraction")
    return out
