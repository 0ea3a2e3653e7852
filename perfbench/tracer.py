"""Per-layer spans recorded from outside caralab.

`Tracer.install` replaces every public function of the caralab modules
listed in LAYERS, the evaluation methods of GeneralizedRealization, the
CLI subcommands and the numpy.linalg entry points caralab calls with
wrappers that record one span each: name, start, end and the span that
was open when the call began.  Every module attribute bound to a wrapped
function is rebound, so calls through `from .x import f` imports are seen
too.  numpy.linalg calls count only inside a caralab span.  Spans live in
flat arrays until `spans_jsonl` writes them out; self time is a span's
duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

#: layer name -> caralab module; points and errors are plumbing, not layers
LAYERS = {
    "hermitian": "caralab.hermitian",
    "scalar_family": "caralab.scalar_family",
    "pencil": "caralab.pencil",
    "realization": "caralab.realization",
    "xprec": "caralab.xprec",
    "extrapolate": "caralab.extrapolate",
    "boundary": "caralab.boundary",
    "suite": "caralab.suite",
}

#: GeneralizedRealization methods traced; `_resolve` is the per-point solve
REALIZATION_METHODS = {
    "_resolve": "realization.resolve",
    "phi": "realization.phi",
    "model_vector": "realization.model_vector",
    "model_residual": "realization.model_residual",
    "ray_state": "realization.ray_state",
    "v_at_tau": "realization.v_at_tau",
    "phi_at_tau": "realization.phi_at_tau",
}

CLI_COMMANDS = {
    "main": "cli.main",
    "cmd_verify": "cli.verify",
    "cmd_classify": "cli.classify",
    "cmd_derivative": "cli.derivative",
}

LINALG = ("svd", "solve", "eigh", "norm", "qr")

ROOT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter[str] = Counter()
        self._stack = [ROOT]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, outer_only: bool = False):
        sid = self._sid(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        from caralab.errors import CaralabError

        def traced(*args, **kwargs):
            if outer_only and stack[-1] == ROOT:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except CaralabError as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    errors[name] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg

        modules = {layer: importlib.import_module(mod) for layer, mod in LAYERS.items()}
        cli = importlib.import_module("caralab.cli")
        realization = modules["realization"]
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                replace[id(fn)] = self.wrap(fn, f"{layer}.{attr}")
        for attr, name in CLI_COMMANDS.items():
            fn = getattr(cli, attr)
            replace[id(fn)] = self.wrap(fn, name)
        everywhere = [importlib.import_module("caralab"), cli, *modules.values()]
        for mod in everywhere:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._set(mod, attr, replace[id(value)])
        cls = realization.GeneralizedRealization
        for attr, name in REALIZATION_METHODS.items():
            self._set(cls, attr, self.wrap(vars(cls)[attr], name))
        for attr in LINALG:
            self._set(numpy.linalg, attr, self.wrap(getattr(numpy.linalg, attr), f"linalg.{attr}", outer_only=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return name_of, parent, dur

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, total_s (inclusive) and self_s per span name."""
        name_of, parent, dur = self.arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=self_time, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have an open `ancestor` span."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        sid, aid = self._ids[name], self._ids[ancestor]
        hits = 0
        for idx in np.flatnonzero(np.frombuffer(self.name_of, dtype=np.int32) == sid):
            p = self.parent[idx]
            while p != ROOT and self.name_of[p] != aid:
                p = self.parent[p]
            hits += p != ROOT
        return hits

    def count_direct(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose immediate parent is a `parent_name` span."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        name_of, parent, _ = self.arrays()
        mask = (name_of == self._ids[name]) & (parent >= 0)
        return int(np.count_nonzero(name_of[parent[mask]] == self._ids[parent_name]))

    def spans_jsonl(self, path) -> int:
        """Write one JSON object per span, gzip-compressed; returns the number written."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self.name_of)):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.name_of[i]],
                            "start": round(self.start[i] - t0, 9),
                            "end": round(self.end[i] - t0, 9),
                            "parent": self.parent[i],
                        }
                    )
                    + "\n"
                )
        return len(self.name_of)
