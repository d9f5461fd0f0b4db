"""Per-layer spans and counts, recorded by wrapping the program's functions.

The wrappers are set on module and class attributes by name for one
traced round and removed afterwards, so no file of the program changes
and untraced operations run the original code.  Each call records a span
(layer, start, end, parent); a layer's self time is its spans' durations
minus the child spans they cover.  Hooks add exact counts at the same
boundaries.  A name the program no longer has leaves its layer absent.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from types import ModuleType
from typing import Any, Callable

Hook = Callable[[Counter, tuple, str], Callable[[Any], None] | None]


def _minimize(counts: Counter, args: tuple, parent: str) -> Callable[[Any], None]:
    rows = len(args[0])
    counts["solver.minimize_rows_in"] += rows
    if parent == "solver.defender":
        counts["solver.sup_rows"] += rows

    def after(result: Any) -> None:
        counts["solver.minimize_rows_out"] += len(result)

    return after


def _invert(counts: Counter, args: tuple, parent: str) -> None:
    counts["solver.invert_rows_in"] += len(args[1])


def _history(counts: Counter, args: tuple, parent: str) -> None:
    counts["solver.history_rows"] += len(args[0])


def _solve(counts: Counter, args: tuple, parent: str) -> Callable[[Any], None]:
    def after(result: Any) -> None:
        # the largest solve of a round is the workload's own game
        counts["solver.passes"] = max(counts["solver.passes"], result.iterations)
        counts["solver.max_front"] = max(counts["solver.max_front"], result.max_front_size)

    return after


def _render(counts: Counter, args: tuple, parent: str) -> Callable[[Any], None] | None:
    out = sys.stdout
    if not hasattr(out, "getvalue"):
        return None
    start = out.tell()

    def after(result: Any) -> None:
        counts["cli.render_lines"] += out.getvalue().count("\n", start)

    return after


def _arena_decide(counts: Counter, args: tuple, parent: str) -> Callable[[Any], None]:
    arena, position, energy = args
    counts["oracle.arena_decides"] += 1
    counts["oracle.arena_hit_count"] += (position, energy) in getattr(arena, "config_index", {})
    before = len(getattr(arena, "keys", ()))

    def after(result: Any) -> None:
        counts["oracle.configs"] += len(getattr(arena, "keys", ())) - before

    return after


# (module.attribute path, layer, metric counting its calls, hook)
SPANS: list[tuple[str, str, str | None, Hook | None]] = [
    ("solver.compute_winning_budgets", "solver.solve", None, _solve),
    ("solver._Engine.__init__", "solver.engine_init", None, None),
    ("solver._solve_jacobi", "solver.loop", None, None),
    ("solver._solve_worklist", "solver.loop", None, None),
    ("solver._Engine.attacker_rows", "solver.attacker", None, None),
    ("solver._Engine.defender_rows", "solver.defender", None, None),
    ("solver._invert_rows", "solver.invert", "solver.invert_calls", _invert),
    ("solver._minimize_rows", "solver.minimize", "solver.minimize_calls", _minimize),
    ("solver._minimize_by_sweep", "solver.minimize_sweep", "solver.minimize_sweep_calls", None),
    ("solver._Engine.to_fronts", "solver.history", None, None),
    ("solver._rows_to_front", "solver.history", None, _history),
    ("solver.known_initial_credit", "solver.membership", None, None),
    ("cli._print_fronts", "cli.render", None, _render),
    ("fileio.load_game", "fileio.load", None, None),
    ("fileio.load_multi_reachability", "fileio.load", None, None),
    ("fileio.save_game", "fileio.save", None, None),
    ("game.GameGraph.validate", "game.validate", None, None),
    ("instances.from_multi_reachability", "instances.transform", None, None),
    ("oracle.stable_decide", "oracle.decide", "oracle.queries", None),
    ("oracle.attractor_decide", "oracle.decide", "oracle.bounds_tried", None),
    ("oracle._Arena.decide", "oracle.decide", None, _arena_decide),
    ("oracle._Arena._explore", "oracle.explore", None, None),
    ("oracle._Arena._propagate", "oracle.propagate", None, None),
]

# (metric, unit, better, layer it is measured at); "<layer>_s" is the
# layer's self time summed over one round, the rest are exact counts.
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("solver.minimize_s", "s", "lower", "solver.minimize"),
    ("solver.minimize_calls", "count", "lower", "solver.minimize"),
    ("solver.minimize_rows_in", "count", "lower", "solver.minimize"),
    ("solver.minimize_rows_out", "count", "lower", "solver.minimize"),
    ("solver.minimize_keep", "ratio", "higher", "solver.minimize"),
    ("solver.minimize_sweep_s", "s", "lower", "solver.minimize_sweep"),
    ("solver.minimize_sweep_calls", "count", "lower", "solver.minimize_sweep"),
    ("solver.defender_s", "s", "lower", "solver.defender"),
    ("solver.sup_rows", "count", "lower", "solver.defender"),
    ("solver.invert_s", "s", "lower", "solver.invert"),
    ("solver.invert_calls", "count", "lower", "solver.invert"),
    ("solver.invert_rows_in", "count", "lower", "solver.invert"),
    ("solver.attacker_s", "s", "lower", "solver.attacker"),
    ("solver.engine_init_s", "s", "lower", "solver.engine_init"),
    ("solver.history_s", "s", "lower", "solver.history"),
    ("solver.history_rows", "count", "lower", "solver.history"),
    ("solver.loop_s", "s", "lower", "solver.loop"),
    ("solver.passes", "count", "lower", "solver.solve"),
    ("solver.max_front", "count", "lower", "solver.solve"),
    ("solver.membership_s", "s", "lower", "solver.membership"),
    ("cli.render_s", "s", "lower", "cli.render"),
    ("cli.render_lines", "count", "lower", "cli.render"),
    ("fileio.load_s", "s", "lower", "fileio.load"),
    ("game.validate_s", "s", "lower", "game.validate"),
    ("fileio.save_s", "s", "lower", "fileio.save"),
    ("instances.transform_s", "s", "lower", "instances.transform"),
    ("oracle.decide_s", "s", "lower", "oracle.decide"),
    ("oracle.queries", "count", "lower", "oracle.decide"),
    ("oracle.bounds_tried", "count", "lower", "oracle.decide"),
    ("oracle.explore_s", "s", "lower", "oracle.explore"),
    ("oracle.propagate_s", "s", "lower", "oracle.propagate"),
    ("oracle.configs", "count", "lower", "oracle.decide"),
    ("oracle.arena_hits", "ratio", "higher", "oracle.decide"),
]


class Tracer:
    """Spans and counts of the calls made while it is installed."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.absent = sorted(path for path, *_ in SPANS if self._resolve(path) is None)
        self.spans: list[list[Any]] = []  # [layer, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def _resolve(self, path: str) -> tuple[Any, str] | None:
        module, *owners, attr = path.split(".")
        owner: Any = self.modules.get(module)
        for name in owners:
            owner = getattr(owner, name, None)
        if owner is None:
            return None
        if isinstance(owner, type) and attr not in vars(owner):
            return None
        if not callable(getattr(owner, attr, None)):
            return None
        return owner, attr

    def absent_layers(self) -> set[str]:
        present = {layer for path, layer, *_ in SPANS if path not in self.absent}
        return {layer for _, layer, *_ in SPANS} - present

    def install(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for path, layer, calls, hook in SPANS:
            found = self._resolve(path)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, calls, hook))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, layer: str, calls: str | None, hook: Hook | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            after = hook(counts, args, spans[parent][0] if stack else "") if hook else None
            if calls:
                counts[calls] += 1
            span = [layer, time.perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                after(result)
            return result

        return traced

    def self_times(self) -> Counter:
        """Self time per layer: each span minus the child spans it covers."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out
