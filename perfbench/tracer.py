"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped call records a span: name, start, end, parent span, and the
context it belongs to (set-up, a training step, or an eval record).  Spans
live in flat arrays while the run goes and are written out once at the end.

A function is wrapped wherever a caller looks it up: every module of the
package that binds the original function object gets the wrapper in its
place, so ``models.khop_neighbors`` and ``graph.khop_neighbors`` both record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "subgraph_infomax"
MODULES = ("data", "graph", "layers", "infomax", "models", "autodiff", "optim", "train")
# Public autodiff names left unwrapped: they build no tape node and run
# inside every op (``as_tensor``) or only in tests.  ``backward`` is wrapped
# but is not an op.
AUTODIFF_SKIP = {"Tensor", "as_tensor", "finite_diff_check"}

CTX_OTHER, CTX_TRAIN, CTX_EVAL = 0, 1, 2

# (module, attribute) pairs whose callers must reach a wrapper.
BINDINGS = (
    ("models", "khop_neighbors"), ("models", "encode"), ("models", "khop_forward"),
    ("models", "topk_softmax_pool"), ("models", "gd_loss"), ("models", "infonce_loss"),
    ("models", "augment"), ("models", "cross_subgraph_negatives"), ("models", "khop_loss"),
    ("train", "adam_step"), ("train", "sample_observed"),
    ("train", "induced_partial_subgraph"), ("train", "evaluate"),
    ("train", "train_single_seed"), ("data", "sample_observed"),
    ("layers", "ad"), ("models", "ad"), ("train", "ad"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.ctx_kind_col = array("b")
        self.ctx_id_col = array("i")
        self._stack: list[int] = []
        self.ctx_kind = CTX_OTHER
        self.step_id = 0
        self.eval_record_id = 0
        self.op_names: set[int] = set()
        self.counters: dict[str, float] = {
            "encode.rows": 0, "encode.edges": 0, "khop.neighbors": 0,
            "pool.selected": 0, "pool.in_subgraph": 0, "gather_rows.bwd_bytes": 0,
        }

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, before=None, after=None):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        cols = (self.name_col, self.start_col, self.end_col, self.parent_col,
                self.ctx_kind_col, self.ctx_id_col)
        name_col, start_col, end_col, parent_col, kind_col, id_col = cols

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1] if stack else -1)
            kind_col.append(self.ctx_kind)
            id_col.append(self.step_id if self.ctx_kind != CTX_EVAL else self.eval_record_id)
            end_col.append(0.0)
            stack.append(index)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules at every binding site."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        replacements: dict[int, object] = {}
        for short, mod in mods.items():
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if short == "autodiff" and attr in AUTODIFF_SKIP:
                    continue
                name = f"{short}.{attr}"
                before, after = self._hooks(name)
                replacements[id(fn)] = self._wrap(fn, name, before, after)
                if short == "autodiff" and attr != "backward":
                    self.op_names.add(self._name_id(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])

        graph, models = mods["graph"], mods["models"]
        gg = graph.GlobalGraph
        gg.__init__ = self._wrap(gg.__init__, "graph.GlobalGraph.init")
        gg.induced_edges = self._wrap(gg.induced_edges, "graph.induced_edges")
        models._ModelBase.prepare_batch = self._wrap(
            models._ModelBase.prepare_batch, "models.prepare_batch")
        for cls in (models.PsiModel, models.TwoStageModel):
            cls.step = self._wrap(cls.step, "models.step", before=self._on_model_step)
        self.check_bindings(mods)

    def check_bindings(self, mods) -> None:
        missing = []
        for mod_name, attr in BINDINGS:
            value = getattr(mods[mod_name], attr)
            if attr == "ad":
                unwrapped = [n for n in value.__all__ if n not in AUTODIFF_SKIP
                             and not hasattr(getattr(value, n), "__bench_wrapped__")]
                missing += [f"{mod_name}.ad.{n}" for n in unwrapped]
            elif not hasattr(value, "__bench_wrapped__"):
                missing.append(f"{mod_name}.{attr}")
        if missing:
            raise RuntimeError(f"tracer is not bound where callers look up: {missing}")

    # -- per-span counters and context ----------------------------------

    def _hooks(self, name):
        counters = self.counters

        if name == "layers.encode":
            def before(args, kwargs):
                counters["encode.rows"] += len(_arg(args, kwargs, 2, "node_ids"))
                counters["encode.edges"] += len(_arg(args, kwargs, 3, "edges"))
            return before, None
        if name == "graph.khop_neighbors":
            def after(args, kwargs, result):
                counters["khop.neighbors"] += len(result.neighbors)
            return None, after
        if name == "models.khop_forward":
            def after(args, kwargs, result):
                members = set(_arg(args, kwargs, 1, "record").node_ids)
                counters["pool.selected"] += len(result.selected_ids)
                counters["pool.in_subgraph"] += sum(1 for n in result.selected_ids if n in members)
            return None, after
        if name == "autodiff.gather_rows":
            def before(args, kwargs):
                source = _arg(args, kwargs, 0, "a")
                if self.ctx_kind == CTX_TRAIN and getattr(source, "requires_grad", False):
                    rows, cols = source.shape
                    counters["gather_rows.bwd_bytes"] += rows * cols * 8
            return before, None
        if name == "optim.adam_step":
            def after(args, kwargs, result):
                self.step_id += 1
            return None, after
        if name == "train.evaluate":
            saved = []

            def before(args, kwargs):
                saved.append(self.ctx_kind)
                self.ctx_kind = CTX_EVAL

            def after(args, kwargs, result):
                self.ctx_kind = saved.pop()
            return before, after
        if name == "train.train_single_seed":
            def before(args, kwargs):
                self.ctx_kind = CTX_TRAIN

            def after(args, kwargs, result):
                self.ctx_kind = CTX_OTHER
            return before, after
        return None, None

    def _on_model_step(self, args, kwargs):
        if self.ctx_kind == CTX_EVAL:
            self.eval_record_id += 1

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.name_col)
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32, count=n).copy(),
            "ctx_kind": np.frombuffer(self.ctx_kind_col, dtype=np.int8, count=n).copy(),
            "ctx_id": np.frombuffer(self.ctx_id_col, dtype=np.int32, count=n).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-name calls, total and self milliseconds, plus op counts by context."""
        cols = self.arrays()
        names, parent = cols["name"], cols["parent"]
        duration = cols["end"] - cols["start"]
        child_time = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total_ms = np.bincount(names, weights=duration, minlength=k) * 1e3
        self_ms = np.bincount(names, weights=self_time, minlength=k) * 1e3

        is_op = np.isin(names, sorted(self.op_names))
        parent_is_op = np.zeros_like(is_op)
        parent_is_op[has_parent] = is_op[parent[has_parent]]
        outer_op = is_op & ~parent_is_op
        return {
            "spans": {
                self.names[i]: {
                    "calls": int(calls[i]),
                    "total_ms": float(total_ms[i]),
                    "self_ms": float(self_ms[i]),
                }
                for i in range(k)
            },
            "ops_train": int(np.count_nonzero(outer_op & (cols["ctx_kind"] == CTX_TRAIN))),
            "ops_eval": int(np.count_nonzero(outer_op & (cols["ctx_kind"] == CTX_EVAL))),
            "steps": self.step_id,
            "eval_records": self.eval_record_id,
            "span_count": int(names.size),
            "counters": dict(self.counters),
        }
