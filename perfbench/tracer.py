"""Spans around the pipeline's module boundaries, recorded from outside.

The package is not edited. Instead, :class:`Tracer` replaces each public
function at the place where one module calls another, wraps it in a timer,
and puts the original back afterwards. ``evaluate`` binds its helpers with
``from .rfe import rfe_select`` and the like, so a name is patched in the
namespace of the module that calls it, not where it is defined. ``Adam.step``
and ``EarlyStopper.update`` are methods and are patched on their classes.

A span is ``(name, start, end, parent, run_id, ok)``; spans stay in memory
until :meth:`Tracer.write`. A layer's self time is the summed duration of
its spans minus the time their direct children cover. Layers are the
package's modules, named by the part of a span name before the first dot.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("dataset", "rfe", "forest", "augment", "nn", "optimize", "baselines", "evaluate")

clock = time.perf_counter


def _rows(value) -> int:
    data = getattr(value, "data", value)  # unwraps dataset.SequenceTensor
    return int(data.shape[0])


def _model_forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
    return "nn.forward_train" if mode == "train" else "nn.forward_infer"


def _fit_baseline_name(args, kwargs):
    spec = kwargs.get("spec", args[0] if args else None)
    return f"baselines.{spec.method}_fit"


def _count_epochs(tracer, args, kwargs, result):
    _, history = result
    best, epochs = _best_epoch(history.val_loss, _min_delta(args, kwargs))
    tracer.count("optimize.epochs_run", epochs)
    tracer.count("optimize.best_epochs", best)
    tracer.count("optimize.train_rows", _rows(kwargs.get("X_train", args[1])) * epochs)


def _min_delta(args, kwargs):
    settings = kwargs.get("settings", args[5] if len(args) > 5 else None)
    return settings.min_delta


def _best_epoch(val_loss, min_delta):
    """1-based epoch whose parameters early stopping keeps, and the epoch count.

    Mirrors ``EarlyStopper.update``: an epoch counts as the new best only
    when it beats the previous best by more than ``min_delta``.
    """
    best_loss, best = float("inf"), 0
    for epoch, loss in enumerate(val_loss, start=1):
        if best_loss - loss > min_delta:
            best_loss, best = loss, epoch
    return best, len(val_loss)


# (module, attribute, span name or namer(args, kwargs), counter(tracer, args, kwargs, result))
FUNCTION_TARGETS = (
    ("evaluate", "_run_fold", "evaluate.fold", None),
    ("evaluate", "load_csv", "dataset.load_csv",
     lambda t, a, k, r: t.count("dataset.rows_parsed", len(r))),
    ("evaluate", "build_design", "dataset.build_design", None),
    ("evaluate", "fit_standardizer", "dataset.standardize", None),
    ("evaluate", "apply_standardizer", "dataset.standardize", None),
    ("evaluate", "holdout_split", "dataset.split", None),
    ("evaluate", "kfold_split", "dataset.split", None),
    ("evaluate", "grouped_holdout_split", "dataset.split", None),
    ("evaluate", "grouped_kfold_split", "dataset.split", None),
    ("evaluate", "to_sequences", "dataset.to_sequences", None),
    ("evaluate", "augment_training_set", "augment.augment",
     lambda t, a, k, r: t.count("augment.rows_out", len(r[1]))),
    ("evaluate", "fit_baseline", _fit_baseline_name, None),
    ("evaluate", "predict_linear", "baselines.predict", None),
    ("evaluate", "rfe_select", "rfe.select",
     lambda t, a, k, r: t.count("rfe.rounds", len(r.rounds))),
    ("evaluate", "init_model_params", "nn.init", None),
    ("evaluate", "train_network", "optimize.train_network", _count_epochs),
    ("evaluate", "predict_network", "optimize.predict_network",
     lambda t, a, k, r: t.count("optimize.predict_rows", len(r))),
    ("rfe", "fit_forest", "forest.fit_forest", None),
    ("rfe", "feature_importance", "forest.importance", None),
    ("forest", "fit_tree", "forest.fit_tree",
     lambda t, a, k, r: t.count("forest.trees", 1)),
    ("optimize", "model_forward", _model_forward_name,
     lambda t, a, k, r: t.count("nn.forward_rows", _rows(k.get("x", a[0] if a else None)))),
    ("optimize", "model_backward", "nn.backward", None),
    ("optimize", "commit_batchnorm", "nn.commit_batchnorm", None),
    ("optimize", "predict_network", "optimize.predict_network",
     lambda t, a, k, r: t.count("optimize.predict_rows", len(r))),
)

# Methods patched on their class. ``Adam`` also drives the adam_linear
# baseline; only the network's steps, made inside ``train_network``, get
# spans, so the baseline's steps stay in the baseline's own time.
METHOD_TARGETS = (
    ("optimize", "Adam.step", "optimize.adam_step",
     lambda t, a, k, r: t.count("optimize.adam_steps", 1), "optimize.train_network"),
    ("optimize", "EarlyStopper.update", "optimize.early_stop_update", None, None),
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, only=None):
        """``only`` limits patching to the listed "module.attribute" targets."""
        self.only = None if only is None else set(only)
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.overhead_s = 0.0
        self.missing: list = []
        self.run_id = ""
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run_id, False])
        self._stack.append(idx)
        return idx

    def _leave(self, idx: int, start: float, end: float, ok: bool) -> None:
        self._stack.pop()
        self.spans[idx][1:3] = start, end
        self.spans[idx][5] = ok

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code that calls into the package."""
        idx = self._enter(name)
        ok = False
        start = clock()
        try:
            yield
            ok = True
        finally:
            self._leave(idx, start, clock(), ok)

    def _wrap(self, fn, namer, counter, only_under=None):
        tracer = self

        def traced(*args, **kwargs):
            entered = clock()
            if only_under is not None and not (
                    tracer._stack and tracer.spans[tracer._stack[-1]][0] == only_under):
                tracer.overhead_s += clock() - entered
                return fn(*args, **kwargs)
            idx = tracer._enter(namer(args, kwargs) if callable(namer) else namer)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                tracer._leave(idx, start, end, ok)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            tracer.overhead_s += (start - entered) + (clock() - end)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        targets = [(m, a, n, c, None) for m, a, n, c in FUNCTION_TARGETS]
        for module_name, path, name, counter, only_under in targets + list(METHOD_TARGETS):
            if self.only is not None and f"{module_name}.{path}" not in self.only:
                continue
            owner = importlib.import_module(f"updrspred.{module_name}")
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter, only_under))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_summary(self, run_id: str) -> dict:
        """Busy and self seconds per span name and per layer, plus failures,
        over the spans of one protocol run."""
        own = self.self_times()
        by_name = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0,
                                       "failed": 0, "durations": []})
        for (name, start, end, _, span_run, ok), self_s in zip(self.spans, own):
            if span_run != run_id:
                continue
            entry = by_name[name]
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            entry["calls"] += 1
            entry["failed"] += 0 if ok else 1
            entry["durations"].append(end - start)
        layers = {layer: {"self_s": 0.0, "failed": 0} for layer in LAYERS}
        for name, entry in by_name.items():
            layer = name.split(".", 1)[0]
            layers.setdefault(layer, {"self_s": 0.0, "failed": 0})
            layers[layer]["self_s"] += entry["self_s"]
            layers[layer]["failed"] += entry["failed"]
        return {"spans": dict(by_name), "layers": layers}

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(Path(path), "w") as fh:
            for idx, (name, start, end, parent, run_id, ok) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id, "ok": ok}) + "\n")
