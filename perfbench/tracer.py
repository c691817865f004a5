"""Span tracing of covgame's public functions, patched from outside.

A :class:`Tracer` is a context manager. On entry it replaces each traced
function or method with a timing wrapper, in every ``covgame`` module
namespace that holds it (``from .game import global_value`` makes a second
name for the same function). On exit it puts every original back, so the
package is exactly as it was.

Each wrapper records one span per call. A span's self time is its duration
minus the durations of the spans it directly contains, so the self times of
all spans add up to the durations of the outermost spans: no time inside a
traced call is left unattributed.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, attribute path, span name). Every traced layer boundary of the
# benchmark is listed here and nowhere else.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("covgame.scenario", "load_scenario", "scenario.load"),
    ("covgame.scenario", "ScenarioConfig.build_game", "scenario.build_game"),
    ("covgame.orbit", "build_constellation_game", "orbit.graph"),
    ("covgame.orbit", "ConstellationCoverage.__init__", "orbit.precompute"),
    ("covgame.orbit", "ConstellationCoverage.__call__", "orbit.mask"),
    ("covgame.orbit", "ConstellationCoverage.masked_cell_counts", "orbit.scan"),
    ("covgame.measure", "union_many", "measure.union"),
    ("covgame.game", "GameInstance.coverage", "game.coverage"),
    ("covgame.game", "global_value", "game.global_value"),
    ("covgame.game", "best_response_objective", "game.best_response"),
    ("covgame.game", "certify_epsilon_equilibrium", "game.certify"),
    ("covgame.optimize", "maximize_scalar", "optimize.scalar"),
    ("covgame.optimize", "pattern_search", "optimize.pattern"),
    ("covgame.search", "run_round", "search.round"),
    ("covgame.search", "run_search", "search.run"),
    ("covgame.harness", "run_distributed", "harness.distributed"),
    ("covgame.harness", "run_centralized", "harness.centralized"),
    ("covgame.harness", "emit_results", "harness.emit"),
)


@dataclass
class SpanStats:
    """Totals for one span name: calls, self seconds, inclusive seconds."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)


def _union_rows(args: tuple, kwargs: dict) -> dict[str, int]:
    sets = args[0] if args else kwargs["sets"]
    return {"rows": len(sets)}


# Extra counts taken from a call's arguments, keyed by span name.
_COUNTERS: dict[str, Callable[[tuple, dict], dict[str, int]]] = {
    "measure.union": _union_rows,
}


class Tracer:
    """Patches the functions in :data:`SPANS` while the context is open."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {name: SpanStats() for _, _, name in SPANS}
        self._children: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        children = self._children
        counter = _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    stats.counters[key] = stats.counters.get(key, 0) + value
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = children.pop()
                stats.calls += 1
                stats.self_s += duration - inner
                stats.total_s += duration
                if children:
                    children[-1] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def attributed_s(self) -> float:
        """Sum of all self times, which equals the outermost spans' time."""
        return sum(s.self_s for s in self.stats.values())

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already active")
        try:
            for module_name, path, name in SPANS:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, method = path.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, method, self._wrap(name, vars(cls)[method]))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original)
                for other in _covgame_modules():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covgame_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "covgame" or name.startswith("covgame."))
    ]
