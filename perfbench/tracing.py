"""Spans around the public functions of each ``onewaysim`` layer.

``Tracer.install`` replaces each function below with a wrapper wherever a
``onewaysim`` module holds it, including the names one module imports from
another; a class is traced through its ``__post_init__`` validation.  A name
that no longer exists is skipped and reads as zero.  Spans are kept in memory
while ``recording`` is set and written out by ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function or class, the span metrics reported for it)
LAYERS = (
    ("fidelity", "fidelity_adaptive", ("calls", "s", "self_s")),
    ("fidelity", "fidelity_nonadaptive", ("calls", "s", "self_s")),
    ("fidelity", "na_fidelity_for_outcomes", ("calls", "s")),
    ("pattern", "branch_answers", ("calls", "s")),
    ("graphstate", "resource_state", ("calls", "s")),
    ("channels", "NoiseChannel", ("calls", "s")),
    ("channels", "mixing_probabilities", ("calls", "s")),
    ("oracle", "simulate", ("calls", "s", "self_s")),
    ("linalg", "DensityMatrix", ("calls", "s")),
    ("correlations", "mep", ("calls", "s")),
    ("correlations", "discord", ("calls", "s")),
    ("correlations", "classical_correlation", ("calls", "s")),
    ("correlations", "concurrence", ("calls", "s")),
    ("correlations", "negativity", ("calls", "s")),
)
COUNTS = (
    "fidelity.shortcut_taken",
    "fidelity.records",
    "pattern.branches",
    "oracle.leaves",
    "oracle.pruned",
    "correlations.optimizer.starts",
    "correlations.optimizer.converged",
    "correlations.optimizer.nit",
    "correlations.optimizer.nfev",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric; all are per timed operation."""
    out = []
    for module, attr, kinds in LAYERS:
        for kind in kinds:
            out.append((f"{module}.{attr}.{kind}", "count/op" if kind == "calls" else "s/op"))
    return out + [(name, "count/op") for name in COUNTS]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []
        self._one_record: set[int] = set()  # nonadaptive spans that summed one record
        self._all_records: set[int] = set()  # ... and those that summed them all

    def _wrap(self, name, fn, after=None, span=True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = -1
            if span:
                idx = len(self.spans)
                record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
                self.spans.append(record)
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return wrapper

    # -- counts read at the layer boundaries ----------------------------------

    def _records(self, idx, args, kwargs, report):
        self.counts["fidelity.records"] += len(report.per_outcome)

    def _nonadaptive(self, idx, args, kwargs, report):
        self._records(idx, args, kwargs, report)
        if idx in self._one_record and idx not in self._all_records:
            self.counts["fidelity.shortcut_taken"] += 1

    def _na_outcomes(self, idx, args, kwargs, result):
        parent = self.spans[idx][3]
        outcomes = _arg(args, kwargs, 4, "outcomes")
        (self._one_record if outcomes is not None and len(outcomes) == 1 else self._all_records).add(parent)

    def _branches(self, idx, args, kwargs, answers):
        self.counts["pattern.branches"] += len(answers.probs)

    def _oracle(self, idx, args, kwargs, run):
        pat = _arg(args, kwargs, 1, "pat")
        self.counts["oracle.leaves"] += len(run.branches)
        self.counts["oracle.pruned"] += 2**pat.n_measured - len(run.branches)

    def _optimizer(self, idx, args, kwargs, res):
        self.counts["correlations.optimizer.starts"] += 1
        self.counts["correlations.optimizer.converged"] += int(bool(res.success))
        self.counts["correlations.optimizer.nit"] += int(res.nit)
        self.counts["correlations.optimizer.nfev"] += int(res.nfev)

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.startswith("onewaysim.")]
        after = {
            "fidelity.fidelity_adaptive": self._records,
            "fidelity.fidelity_nonadaptive": self._nonadaptive,
            "fidelity.na_fidelity_for_outcomes": self._na_outcomes,
            "pattern.branch_answers": self._branches,
            "oracle.simulate": self._oracle,
        }
        for module, attr, _ in LAYERS:
            name = f"{module}.{attr}"
            original = getattr(sys.modules.get(f"onewaysim.{module}"), attr, None)
            if isinstance(original, type):
                post_init = original.__dict__.get("__post_init__")
                if post_init is not None:
                    original.__post_init__ = self._wrap(name, post_init)
            elif original is not None:
                self._replace(modules, original, self._wrap(name, original, after.get(name)))
        # The optimizer results MEP receives, read from scipy.optimize.minimize.
        minimize = getattr(sys.modules.get("onewaysim.correlations"), "minimize", None)
        if minimize is not None:
            self._replace(modules, minimize, self._wrap("minimize", minimize, self._optimizer, span=False))
        return self

    @staticmethod
    def _replace(modules, original, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def metrics(self, ops: int) -> dict[str, float]:
        calls, total, self_time, child = Counter(), Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[idx]
        per_kind = {"calls": calls, "s": total, "self_s": self_time}
        out = {}
        for module, attr, kinds in LAYERS:
            for kind in kinds:
                out[f"{module}.{attr}.{kind}"] = per_kind[kind][f"{module}.{attr}"] / ops
        for name in COUNTS:
            out[name] = self.counts[name] / ops
        return out

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
