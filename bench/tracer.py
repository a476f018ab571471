"""Spans around moectr's public calls, recorded from outside the package.

``Tracer.install`` replaces every public function of the moectr modules
(and the public methods listed in ``METHODS``) with a wrapper that records
a span: (name, start, end, parent, tag).  Functions imported by name into
another moectr module are replaced there too, so calls between modules are
seen.  Spans stay in memory until ``write`` and ``per_layer`` read them at
the end of the run; ``uninstall`` puts every original back.

A span's name is "<module>.<qualified name>", and the module is the layer
the span's self time is charged to.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("data", "models", "layers", "autodiff", "training", "metrics")
VIEWS = ("backbone", "expert", "mixture")
MIXTURE_OPS = ("matmul", "mul", "add", "const", "gather", "softmax")

# Public methods wrapped besides the modules' public functions.
METHODS = {
    "data": {"Dataset": ("batch",)},
    "models": {"CtrModel": ("tape", "bind_inputs", "predict")},
    "layers": {"MoELayer": ("emit", "emit_single_expert")},
    "autodiff": {"Tape": ("forward", "backward"), "ParamStore": ("group_checksum",)},
}

# Spans whose outermost occurrences inside a phase are validation work.
VALIDATION = ("metrics.evaluate", "models.CtrModel.predict", "metrics.auc")
BATCHING = ("data.batch_iter", "data.domain_batches", "data.Dataset.batch")


def _view_kind(view: str) -> str:
    return "expert" if view.startswith("expert:") else view


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: Counter = Counter()
        self.tape_nodes: dict[str, int] = {}
        self.mixture_ops: Counter = Counter()
        self._stack: list[int] = []
        self._views: dict[object, str] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._phase = 0

    # ---- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(idx, fn, args, kwargs)
            finally:
                self._close(idx)
        return wrapper

    # Hooks run the wrapped call themselves and note what the span did.

    def _on_models_CtrModel_tape(self, idx, fn, args, kwargs):
        out = fn(*args, **kwargs)
        tape = out[0]
        if tape not in self._views:
            view = args[1] if len(args) > 1 else kwargs["view"]
            kind = _view_kind(view)
            self._views[tape] = kind
            self.spans[idx][4] = "build"
            self.tape_nodes[kind] = max(self.tape_nodes.get(kind, 0), len(tape.nodes))
            if kind == "mixture":
                self.mixture_ops = Counter(node.op for node in tape.nodes)
        return out

    def _tape_call(self, idx, fn, args, kwargs):
        self.spans[idx][4] = self._views.get(args[0], "other")
        return fn(*args, **kwargs)

    _on_autodiff_Tape_forward = _tape_call
    _on_autodiff_Tape_backward = _tape_call

    def _emitted(self, counter, fn, args, kwargs):
        tape = args[1] if len(args) > 1 else kwargs["tape"]
        before = len(tape.nodes)
        out = fn(*args, **kwargs)
        self.counts[counter] += len(tape.nodes) - before
        return out

    def _on_layers_MoELayer_emit(self, idx, fn, args, kwargs):
        return self._emitted("layers.mixture_nodes", fn, args, kwargs)

    def _on_layers_MoELayer_emit_single_expert(self, idx, fn, args, kwargs):
        return self._emitted("layers.expert_nodes", fn, args, kwargs)

    def _on_models_CtrModel_bind_inputs(self, idx, fn, args, kwargs):
        y = args[3] if len(args) > 3 else kwargs.get("y")
        if y is not None:
            self.counts[f"training.rows.phase{self._phase}"] += len(args[1])
        return fn(*args, **kwargs)

    def _on_training_adam_step(self, idx, fn, args, kwargs):
        self.counts[f"training.steps.phase{self._phase}"] += 1
        return fn(*args, **kwargs)

    def _phase_call(self, n, fn, args, kwargs):
        self._phase = n
        try:
            report = fn(*args, **kwargs)
        finally:
            self._phase = 0
        epochs = report.epochs_run + sum(c.epochs_run for c in report.children)
        self.counts[f"training.epochs.phase{n}"] += epochs
        return report

    def _on_training_run_phase1(self, idx, fn, args, kwargs):
        return self._phase_call(1, fn, args, kwargs)

    def _on_training_run_phase2(self, idx, fn, args, kwargs):
        return self._phase_call(2, fn, args, kwargs)

    def _on_training_run_phase3(self, idx, fn, args, kwargs):
        return self._phase_call(3, fn, args, kwargs)

    # ---- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = {m: sys.modules[f"moectr.{m}"] for m in LAYERS}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    if getattr(other, attr, None) is fn:
                        self._restore.append((other, attr, fn))
                        setattr(other, attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    fn = cls.__dict__[attr]
                    self._restore.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # ---- reporting --------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")

    def _outermost(self, names) -> float:
        """Total time of spans in ``names`` with no ancestor in ``names``."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def _validation(self) -> float:
        """Validation time: outermost VALIDATION spans under a phase span."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in VALIDATION:
                continue
            in_phase = False
            while parent >= 0:
                pname = self.spans[parent][0]
                if pname in VALIDATION:
                    break
                in_phase = in_phase or pname.startswith("training.run_phase")
                parent = self.spans[parent][3]
            if parent < 0 and in_phase:
                total += end - start
        return total

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric of the benchmark, from the recorded spans."""
        dur: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, tag in self.spans:
            key = name if tag in (None, "build") else f"{name}@{tag}"
            dur[key] += end - start
            calls[key] += 1
            if tag == "build":
                dur["models.tape_build"] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name.split(".")[0]] += (end - start) - child[i]

        m: dict[str, float] = {
            "data.generate_s": dur["data.generate_synthetic"],
            "data.split_s": dur["data.split_dataset"],
            "data.batches": calls["data.Dataset.batch"],
            "data.batch_s": self._outermost(BATCHING),
            "models.build_s": dur["models.build_model"],
            "models.tape_build_s": dur["models.tape_build"],
        }
        for view in VIEWS:
            m[f"models.tape_nodes.{view}"] = self.tape_nodes.get(view, 0)
        m["models.bind_inputs_s"] = dur["models.CtrModel.bind_inputs"]
        m["models.predict_calls"] = calls["models.CtrModel.predict"]
        m["models.predict_s"] = dur["models.CtrModel.predict"]
        m["layers.mixture_nodes"] = self.counts["layers.mixture_nodes"]
        m["layers.expert_nodes"] = self.counts["layers.expert_nodes"]
        for view in VIEWS:
            for op in ("forward", "backward"):
                key = f"autodiff.Tape.{op}@{view}"
                m[f"autodiff.{op}_s.{view}"] = dur[key]
                m[f"autodiff.{op}_calls.{view}"] = calls[key]
        for op in MIXTURE_OPS:
            m[f"autodiff.ops.{op}.mixture"] = self.mixture_ops[op]
        m["autodiff.checksum_s"] = dur["autodiff.ParamStore.group_checksum"]
        for n in (1, 2, 3):
            m[f"training.phase{n}_s"] = dur[f"training.run_phase{n}"]
            for what in ("epochs", "steps", "rows"):
                m[f"training.{what}.phase{n}"] = self.counts[f"training.{what}.phase{n}"]
        m["training.adam_s"] = dur["training.adam_step"]
        m["training.validate_s"] = self._validation()
        m["training.checkpoint_s"] = dur["models.save_checkpoint"]
        m["metrics.evaluate_calls"] = calls["metrics.evaluate"]
        m["metrics.evaluate_s"] = dur["metrics.evaluate"]
        m["metrics.auc_s"] = dur["metrics.auc"]
        m["metrics.sparsity_s"] = dur["metrics.sparsity"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        return m
