"""Layer spans recorded from outside the simulator.

Each hook replaces a module attribute with a timing wrapper at the place its
caller looks the name up (the engine calls `step_mobility` through its own
namespace, everything else through the defining module). Spans stay in memory
with their parent span, so a layer's self time is its span minus its
children's. Hooks also read the counts the benchmark needs from the wrapped
calls' return values; the `engine.run_with_audit` hook keeps every run's
(records, AuditSummary) for the correctness checks.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (span name, module whose attribute the caller resolves, attribute)
HOOKS = (
    ("scenario.step_mobility", "engine", "step_mobility"),
    ("channel.link_table", "channel", "link_table"),
    ("ran.emit_indication", "ran", "emit_indication"),
    ("ran.apply_control", "ran", "apply_control"),
    ("ric.ingest", "ric", "ingest"),
    ("ric.build_graph", "ric", "build_graph"),
    ("ric.xapp_tick", "ric", "xapp_tick"),
    ("engine.run_with_audit", "engine", "run_with_audit"),
    ("cli.main", "cli", "main"),
)
RUN_HOOK = "engine.run_with_audit"  # the only hook of untraced runs


class Tracer:
    """Installs a subset of HOOKS on the `v2xric` package and restores them."""

    def __init__(self, names):
        self.names = tuple(names)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.runs: list = []  # return values of engine.run_with_audit
        self.warnings: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attr in HOOKS:
            if name not in self.names:
                continue
            module = importlib.import_module(f"v2xric.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.warnings.append(f"hook {name}: v2xric.{module_name}.{attr} not found, "
                                     "reporting calls = 0")
                continue
            setattr(module, attr, self._wrap(name, original))
            self._patched.append((module, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        restored = all(getattr(module, attr) is original
                       for module, attr, original in self._patched)
        self._patched.clear()
        return restored

    def _wrap(self, name, fn):
        spans, stack, clock, observe = self.spans, self._stack, time.perf_counter, self._observe

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, result) -> None:
        try:
            if name == "channel.link_table":
                self.counts["channel.link_table.pairs"] += len(result.i)
            elif name == "ric.xapp_tick":
                messages, diag = result
                self.counts["ric.graph_nodes"] += diag.graph_nodes
                self.counts["ric.graph_edges"] += diag.graph_edges
                self.counts["ric.pairs_total"] += diag.pairs_total
                self.counts["ric.pairs_feasible"] += diag.pairs_feasible
                self.counts["ric.messages"] += len(messages)
            elif name == RUN_HOOK:
                records, audit = result
                self.runs.append((records, audit))
        except (AttributeError, TypeError, ValueError) as exc:
            warning = f"hook {name}: cannot read its return value ({exc})"
            if warning not in self.warnings:
                self.warnings.append(warning)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds."""
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for k, (name, start, end, _parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[k]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k},{name},{start!r},{end!r},{parent}\n")
