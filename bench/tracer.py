"""Per-layer spans recorded around the library's public functions.

``Tracer.installed()`` temporarily rebinds each traced function, wrapped, in
every ``superstring*`` module namespace that binds it, and restores the
originals on exit; no library file changes.  Rebinding cannot reach a
function captured as a default argument at import time (such as
``solve_s1(path_solver=exact_max_path)``), which is why the benchmark drives
the CLI, whose solver lookup happens at call time.

Spans are aggregated as they close rather than stored one by one: a read-like
``compare`` makes hundreds of thousands of ``overlap_len`` calls.  For each
(operation kind, layer) the tracer keeps the call count, the self time (span
duration minus the duration of its child spans) and the layer's counters.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("main", "read_instance_file"),
    "graph": ("normalize", "overlap_matrix", "min_cycle_cover", "max_cycle_cover"),
    "words": ("overlap_len", "longest_border", "prefix_part", "nice_rotation"),
    "pipeline": ("representatives", "representative", "_merge_texts",
                 "greedy_superstring", "exact_superstring"),
    "atsp": ("exact_max_path", "cycle_cover_path"),
    "bounds": ("pair_fuzz", "cycle_fuzz", "pipeline_cycle_fuzz", "tight_sweep",
               "greedy_chain_sweep", "check_pair_bounds", "check_cycle_bounds",
               "verify_rotation_positions"),
}

CAMPAIGNS = ("bounds.pair_fuzz", "bounds.cycle_fuzz", "bounds.pipeline_cycle_fuzz",
             "bounds.tight_sweep", "bounds.greedy_chain_sweep")


def _counters(layer: str, args, result) -> dict[str, int]:
    """Work counts a layer reports from its arguments and result."""
    if layer == "graph.normalize":
        return {"dropped": len(result[1])}
    if layer == "graph.overlap_matrix":
        return {"cells": result.n * result.n}
    if layer == "graph.min_cycle_cover":
        return {"cycles": len(result.cycles)}
    if layer == "pipeline.representative":
        return {"chars": len(result.text)}
    if layer == "atsp.exact_max_path":
        n = args[0].n
        return {"states": (1 << n) * n}
    if layer in CAMPAIGNS:
        return {"checks_run": result.checks_run}
    return {}


class Tracer:
    def __init__(self):
        self.kind = "other"  # operation kind the next root span belongs to
        self.calls = defaultdict(int)        # (kind, layer) -> count
        self.self_ns = defaultdict(int)      # (kind, layer) -> ns
        self.counts = defaultdict(int)       # (kind, layer, counter) -> total
        self._stack: list[list[int]] = []    # [start_ns, child_ns] per open span

    def _wrap(self, layer: str, fn, refusal):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except refusal:
                self.counts[self.kind, layer, "refused"] += 1
                raise
            else:
                for name, value in _counters(layer, args, result).items():
                    self.counts[self.kind, layer, name] += value
                return result
            finally:
                stack.pop()
                duration = clock() - frame[0]
                if stack:
                    stack[-1][1] += duration
                key = (self.kind, layer)
                self.calls[key] += 1
                self.self_ns[key] += duration - frame[1]
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every superstring namespace."""
        refusal = sys.modules["superstring.atsp"].SolverLimitError
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod, names in TRACED.items():
            module = sys.modules[f"superstring.{mod}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn, refusal))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "superstring" and not modname.startswith("superstring."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def total(self, layer: str, what: str = "calls", kind: str | None = None) -> float:
        """A layer's calls, self ms or counter, for one operation kind or all."""
        if what == "calls":
            table = self.calls
        elif what == "ms":
            table = {key: ns / 1e6 for key, ns in self.self_ns.items()}
        else:
            table = {(k, l): v for (k, l, c), v in self.counts.items() if c == what}
        return sum(v for (k, l), v in table.items()
                   if l == layer and kind in (None, k))
