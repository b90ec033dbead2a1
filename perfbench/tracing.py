"""Per-layer tracing of cstnet from outside the program.

`Tracer.install()` wraps the public functions of each layer for the length of
one round, and `Tracer.remove()` puts the originals back; the program's files
are not changed.  What is wrapped:

* every tensor op (`conv2d`, `matmul`, ...) in every cstnet module that
  imported it: forward time and calls per op category;
* `Cstnet.forward`: the child modules of each model it runs (stem, stages,
  csl*, sti*) are swapped for timing stand-ins, and the head is timed from the
  end of stage 5 to the end of the forward;
* `Tensor.backward`: before the engine runs, the graph is walked from the
  loss and every `OpRecord.backward_fn` is wrapped, so backward time splits by
  op category and by the module whose forward made the node (by node-id
  range).  Whatever the engine spends outside the backward rules is
  `bwd.engine_ms`;
* the sampler, loss, optimizer, checkpoint, dataset and ranking functions,
  each as one span.

Times accumulate in `Tracer.ms` (milliseconds per metric name); layer-level
calls are also kept as spans (name, start, end, parent span index).
"""

from __future__ import annotations

import bisect
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

OP_CATEGORIES = ("conv2d", "batch_norm", "matmul", "index_select", "concat", "standardize",
                 "softmax", "adaptive_avg_pool2d", "elementwise", "shape")

_ELEMENTWISE = ("add", "sub", "mul", "div", "neg", "scale", "relu", "sigmoid", "exp", "log",
                "sqrt", "reduce_max", "reduce_min")

# tensor-module function name -> category
OP_FUNCTIONS = {
    "conv2d": "conv2d", "batch_norm": "batch_norm", "matmul": "matmul",
    "index_select": "index_select", "concat": "concat", "standardize": "standardize",
    "softmax": "softmax", "log_softmax": "softmax",
    "adaptive_avg_pool2d": "adaptive_avg_pool2d",
    "reshape": "shape", "permute": "shape",
    "tsum": "elementwise", "tmean": "elementwise",
    **{name: "elementwise" for name in _ELEMENTWISE},
}

# OpRecord.op_kind -> category
OP_KINDS = {**{k: v for k, v in OP_FUNCTIONS.items() if k not in ("tsum", "tmean")},
            "sum": "elementwise", "mean": "elementwise"}

MODULES = ("stem", "stage2", "stage3", "stage4", "stage5",
           "csl2", "csl3", "csl4", "sti2", "sti3", "sti4", "head")
_CHILDREN = {"stage1": "stem", "stage2": "stage2", "stage3": "stage3", "stage4": "stage4",
             "stage5": "stage5", "csl2": "csl2", "csl3": "csl3", "csl4": "csl4",
             "sti2": "sti2", "sti3": "sti3", "sti4": "sti4"}

# (module, attribute, metric): one span per call
_LAYER_FUNCTIONS = (
    ("cstnet.train", "pk_sample", "sampler.pk_sample_ms"),
    ("cstnet.train", "augment_clips", "sampler.augment_ms"),
    ("cstnet.checkpoint", "load_model", "io.load_model_ms"),
    ("cstnet.data", "load_dataset", "io.load_dataset_ms"),
    ("cstnet.model", "pairwise_distances", "metrics.distances_ms"),
    ("cstnet.metrics", "ranking_metrics", "metrics.rank_ms"),
)
_LOSS_FUNCTIONS = ("batch_hard_triplet", "label_smooth_ce")     # as cstnet.train calls them

SETUP_METRICS = ("data.generate_ms", "model.build_ms", "io.save_dataset_ms", "io.save_model_ms")

# every metric a traced run reports, with its unit
PER_LAYER_METRICS = {
    "sampler.pk_sample_ms": "ms", "sampler.augment_ms": "ms",
    **{f"fwd.{m}_ms": "ms" for m in MODULES},
    **{f"bwd.{m}_ms": "ms" for m in MODULES + ("loss", "other", "engine")},
    **{f"fwd_op.{k}_ms": "ms" for k in OP_CATEGORIES},
    **{f"bwd_op.{k}_ms": "ms" for k in OP_CATEGORIES},
    **{f"op.{k}_calls": "count" for k in OP_CATEGORIES},
    "graph.nodes": "count", "graph.saved_mb": "MB", "engine.us_per_op": "us",
    "losses.ms": "ms", "engine.backward_ms": "ms", "optim.step_ms": "ms",
    **{metric: "ms" for _, _, metric in _LAYER_FUNCTIONS},
    "model.embed_ms": "ms",
    **{metric: "ms" for metric in SETUP_METRICS},
    "trace.overhead_pct": "%",
}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, self._MISSING)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _saved_arrays(values):
    for v in values:
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, (tuple, list)):
            yield from _saved_arrays(v)


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def backward_nodes(loss) -> list:
    """Every op node the engine's backward visits from ``loss``."""
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if node.op is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(p for p in node.op.inputs if p.requires_grad)
    return nodes


class _Scoped:
    """Stands in for one child module of a model while tracing."""

    def __init__(self, tracer, bucket, module):
        self._tracer = tracer
        self._bucket = bucket
        self._module = module

    def __call__(self, *args, **kwargs):
        return self._tracer.scoped(self._bucket, f"fwd.{self._bucket}_ms",
                                   self._module, args, kwargs)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.graph_nodes = 0
        self.saved_bytes = 0
        self.spans: list = []
        self._stack: list[int] = []
        self._ranges: list[tuple[int, int, str]] = []    # (first id, last id, bucket)
        self._stage5_exit = (0.0, 0)
        self._patches = Patches()
        self._node_ids = None

    # -- spans -------------------------------------------------------------
    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, end):
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1] if self._stack else None)
        self.ms[name] += (end - start) * 1e3

    def timed(self, metric, fn):
        def wrapper(*args, **kwargs):
            index = self._open()
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, metric, start, self.clock())
        return wrapper

    def scoped(self, bucket, metric, fn, args, kwargs):
        """Call ``fn`` as one span and give the graph nodes it creates to ``bucket``."""
        index = self._open()
        first = next(self._node_ids)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            last = next(self._node_ids)
            self._close(index, metric, start, end)
            self._ranges.append((first, last, bucket))
            if bucket == "stage5":
                self._stage5_exit = (end, last)

    def bucket_of(self, node_id: int) -> str:
        i = bisect.bisect_right(self._ranges, (node_id, float("inf"), "")) - 1
        if i >= 0 and node_id < self._ranges[i][1]:
            return self._ranges[i][2]
        return "other"

    # -- wrappers ----------------------------------------------------------
    def _op(self, fn, category):
        clock, ms, calls = self.clock, self.ms, self.calls
        key = f"fwd_op.{category}_ms"

        def op(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            ms[key] += (clock() - start) * 1e3
            calls[category] += 1
            return out
        return op

    def _backward_rule(self, fn, bucket, category):
        clock, ms = self.clock, self.ms
        by_module, by_op = f"bwd.{bucket}_ms", f"bwd_op.{category}_ms"

        def rule(grad, saved):
            start = clock()
            out = fn(grad, saved)
            elapsed = (clock() - start) * 1e3
            ms[by_module] += elapsed
            ms[by_op] += elapsed
            return out
        return rule

    def _forward(self, fn):
        def forward(model, clips):
            for child, bucket in _CHILDREN.items():
                module = vars(model).get(child)
                if module is not None and not isinstance(module, _Scoped):
                    self._patches.set(model, child, _Scoped(self, bucket, module))
            out = fn(model, clips)
            end = self.clock()
            last = next(self._node_ids)
            start, first = self._stage5_exit
            self.spans.append(("fwd.head_ms", start, end, self._stack[-1] if self._stack else None))
            self.ms["fwd.head_ms"] += (end - start) * 1e3
            self._ranges.append((first, last, "head"))
            return out
        return forward

    def _backward(self, fn):
        def backward(loss):
            nodes = backward_nodes(loss)
            roots = {}
            for node in nodes:
                record = node.op
                record.backward_fn = self._backward_rule(
                    record.backward_fn, self.bucket_of(node.node_id), OP_KINDS[record.op_kind])
                for arr in _saved_arrays(record.saved):
                    root = _root(arr)
                    roots[id(root)] = root.nbytes
            self.graph_nodes += len(nodes)
            self.saved_bytes += sum(roots.values())
            return self.timed("engine.backward_ms", fn)(loss)
        return backward

    def _loss(self, fn):
        def loss(*args, **kwargs):
            return self.scoped("loss", "losses.ms", fn, args, kwargs)
        return loss

    def report(self, ops: int) -> dict:
        """Per-operation means of what was traced over ``ops`` operations.

        Set-up metrics and the tracing overhead are measured by the runner.
        """
        out = {name: self.ms.get(name, 0.0) / ops for name, unit in PER_LAYER_METRICS.items()
               if unit == "ms" and name not in SETUP_METRICS}
        split = sum(out[f"bwd.{m}_ms"] for m in MODULES + ("loss", "other"))
        out["bwd.engine_ms"] = out["engine.backward_ms"] - split
        for category in OP_CATEGORIES:
            out[f"op.{category}_calls"] = self.calls[category] / ops
        calls = sum(self.calls.values())
        forward_ms = sum(self.ms.get(f"fwd_op.{k}_ms", 0.0) for k in OP_CATEGORIES)
        out["engine.us_per_op"] = 1e3 * forward_ms / calls if calls else 0.0
        out["graph.nodes"] = self.graph_nodes / ops
        out["graph.saved_mb"] = self.saved_bytes / ops / 2 ** 20
        return out

    # -- install / remove --------------------------------------------------
    def install(self):
        tensor, model, optim, train = (importlib.import_module(f"cstnet.{name}")
                                       for name in ("tensor", "model", "optim", "train"))
        self._node_ids = tensor._node_ids
        p = self._patches
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("cstnet") and m]
        for name, category in OP_FUNCTIONS.items():
            original = vars(tensor)[name]
            wrapped = self._op(original, category)
            for module in modules:
                if vars(module).get(name) is original:
                    p.set(module, name, wrapped)
        for name in ("forward", "__call__"):     # embed_clips calls forward directly
            p.set(model.Cstnet, name, self._forward(vars(model.Cstnet)[name]))
        p.set(model.Cstnet, "embed_clips",
              self.timed("model.embed_ms", vars(model.Cstnet)["embed_clips"]))
        p.set(tensor.Tensor, "backward", self._backward(vars(tensor.Tensor)["backward"]))
        p.set(optim.Adam, "step", self.timed("optim.step_ms", vars(optim.Adam)["step"]))
        for name in _LOSS_FUNCTIONS:
            p.set(train, name, self._loss(vars(train)[name]))
        for module_name, attr, metric in _LAYER_FUNCTIONS:
            module = sys.modules.get(module_name)
            if module is not None:          # a module not loaded has no callers
                p.set(module, attr, self.timed(metric, vars(module)[attr]))

    def remove(self):
        self._patches.restore()
        self._ranges.clear()
