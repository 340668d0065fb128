"""Span tracer that wraps perdyn's public functions from outside the package.

Every wrapped call records a span: name, start, end, the id of the span that
was open when it began (its parent) and the id of the benchmark operation it
belongs to.  Spans stay in memory and are written out when the run ends.
Per-sample functions that run tens of thousands of times per operation (force
evaluation, mass solves) are counted instead of spanned; a count is charged
to the innermost open span so ratios can be taken where the work happens.

A function is patched in every perdyn namespace that holds it, because the
package imports helpers by name (``per`` and ``baselines`` both hold
``spd_solver``; ``per`` and ``analysis`` hold ``spectral_radius`` and
``neumann_sum``).  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

FORCE_EVAL = "model.force_at"
MASS_SOLVE = "linalg.solve"

#: Layer boundaries that get a span, by module.  ``Class.method`` patches the
#: class attribute, so every caller of the method is seen.
SPANNED = {
    "model": ("build_chain", "benchmark_chain", "build_beam", "benchmark_beam",
              "modal_analysis", "SystemModel.__post_init__"),
    "per": ("integrate", "build_scheme", "compute_a", "compute_b_factors",
            "assemble_series", "system_operators"),
    "linalg": ("spd_solver", "spectral_radius", "neumann_sum"),
    "analysis": ("dt_bound", "tau_limit"),
    "baselines": ("state_space", "mpim_operators", "mpim", "rk4", "newmark",
                  "wilson", "bathe"),
    "bench": ("reference_solution", "run_method", "global_error"),
    "cli": ("main", "load_config", "cmd_simulate", "cmd_compare",
            "RunConfig.build_model", "write_csv"),
}

#: The two spans an untraced run keeps: PER loop time is per.integrate minus
#: the per.build_scheme call inside it.
PHASES = {"per": ("integrate", "build_scheme")}


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "counts", "info")

    def __init__(self, span_id, parent, op, name):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = self.end = 0.0
        self.counts = Counter()
        self.info = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start": self.start, "end": self.end,
                "counts": dict(self.counts),
                "info": {k: v for k, v in self.info.items() if k != "inputs"}}


class Tracer:
    """Installs span and count wrappers; ``restore`` removes every one."""

    def __init__(self, layers=SPANNED):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.loose = Counter()  # counts made while no span was open
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        hooks = {"per.integrate": _record_steps, "baselines.rk4": _record_steps,
                 "per.build_scheme": _record_inputs,
                 "per.compute_b_factors": _record_rho,
                 "linalg.spd_solver": self._count_solves,
                 "cli.write_csv": _record_bytes}
        for layer, names in layers.items():
            module = sys.modules[f"perdyn.{layer}"]
            for name in names:
                full = f"{layer}.{name}"
                self._patch(module, name, lambda fn, full=full: self._span(
                    full, fn, hooks.get(full)))
        if "model" in layers:
            model = sys.modules["perdyn.model"]
            self._patch(model, "SystemModel.force_at",
                        lambda fn: self._count(FORCE_EVAL, fn))

    # -- patching ----------------------------------------------------------

    def _patch(self, module, dotted, make_wrapper):
        if "." in dotted:
            cls_name, attr = dotted.split(".")
            cls = getattr(module, cls_name)
            wrapper = make_wrapper(getattr(cls, attr))
            self._patches.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapper)
            return
        original = getattr(module, dotted)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "perdyn" or mod_name.startswith("perdyn.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, self.op, name)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            return hook(span, args, result) if hook else result

        return wrapper

    def _count(self, name, fn):
        stack, loose = self._stack, self.loose

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            (stack[-1].counts if stack else loose)[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_solves(self, span, args, solve):
        return self._count(MASS_SOLVE, solve)


def _record_steps(span, args, traj):
    span.info["steps"] = len(traj.times) - 1
    return traj


def _record_inputs(span, args, scheme):
    span.info["inputs"] = args[:2]
    return scheme


def _record_rho(span, args, factors):
    span.info["inputs"] = args[:2]
    span.info["rho_beta_b"] = factors.rho_beta_b
    return factors


def _record_bytes(span, args, result):
    span.info["bytes"] = os.path.getsize(args[0])
    return result


class OpView:
    """Inclusive times and counts over the spans of one operation."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        by_id = {s.id: s for s in spans}
        self.children = {s.id: [] for s in spans}
        self.incl = {s.id: Counter(s.counts) for s in spans}
        for s in spans:
            if s.parent in by_id:
                self.children[s.parent].append(s)
        for s in reversed(spans):  # children are recorded after their parent
            if s.parent in by_id:
                self.incl[s.parent].update(self.incl[s.id])
        self.by_id = by_id

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name) -> float:
        return sum(s.dur for s in self.named(name))

    def calls(self, name) -> int:
        return len(self.named(name))

    def count(self, event) -> int:
        return sum(s.counts[event] for s in self.spans)

    def count_in(self, name, event) -> int:
        return sum(self.incl[s.id][event] for s in self.named(name))

    def self_time(self, span) -> float:
        return span.dur - sum(c.dur for c in self.children[span.id])

    def layer_of(self, span) -> str:
        return span.name.split(".", 1)[0]

    def outermost_in_layer(self, layer) -> float:
        out = 0.0
        for s in self.spans:
            parent = self.by_id.get(s.parent)
            if self.layer_of(s) == layer and (parent is None or self.layer_of(parent) != layer):
                out += s.dur
        return out

    def per_loop(self) -> tuple[float, int, int, int]:
        """(loop seconds, steps, force evals, mass solves) of every
        per.integrate call, each net of its nested per.build_scheme."""
        loop = 0.0
        steps = forces = solves = 0
        for s in self.named("per.integrate"):
            nested = [c for c in self.children[s.id] if c.name == "per.build_scheme"]
            loop += s.dur - sum(c.dur for c in nested)
            steps += s.info.get("steps", 0)
            forces += self.incl[s.id][FORCE_EVAL] - sum(self.incl[c.id][FORCE_EVAL] for c in nested)
            solves += self.incl[s.id][MASS_SOLVE] - sum(self.incl[c.id][MASS_SOLVE] for c in nested)
        return loop, steps, forces, solves
