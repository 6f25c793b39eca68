"""Per-layer tracing of the solvers from outside the package.

The tracer wraps the names the solver looks up at call time (module
globals such as ``_dpcore.rep_partitions`` and methods of
``_dpcore.Engine``), records what happens, and puts the original objects
back when the ``installed()`` block ends.  Nothing under ``src/`` knows
about it.

Two kinds of record are kept, both in memory:

* spans: one per solve, one per engine build and one per nice-tree node.
  A node span runs from the start of its transition (leaf, introduce,
  forget or join) to the end of the ``reduce_table`` call that follows it,
  and carries the node's kind, bag size, states out and partitions before
  and after the reduction.
* accumulators: for hot inner calls (``canon``, ``uplus``,
  ``inc_is_forest``, ``one_coarsenings``, ``cut_row``, the GF(2) kernel and
  a few once-per-solve calls) only the summed total time, summed self time
  and call count are kept.

Spans and accumulators share one timing stack, so the self time of either
is its duration minus the time of everything timed inside it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from blockvd import _dpcore, dp_block, dp_component, repset
from blockvd.partitions import Partition

_perf = time.perf_counter

# name -> the (owner, attribute) places of every call timed as an accumulator
_TIMED_CALLS = {
    "decomposition.heuristic_td": [(dp_block, "heuristic_td"), (dp_component, "heuristic_td")],
    "decomposition.to_nice": [(dp_block, "to_nice"), (dp_component, "to_nice")],
    "families.enumerate": [
        (dp_block, "enumerate_ud"),
        (dp_component, "enumerate_component_patterns"),
    ],
    "oracle.verify": [(dp_block, "verify_solution"), (dp_component, "verify_solution")],
    "dpcore.canon": [(_dpcore.Engine, "canon")],
    "partitions.uplus": [(_dpcore, "uplus")],
    "partitions.inc_is_forest": [(_dpcore, "inc_is_forest")],
    "repset.rep_partitions": [(_dpcore, "rep_partitions")],
    "partitions.one_coarsenings": [(repset, "one_coarsenings")],
    "repset.cut_row": [(repset, "cut_row")],
    "gf2.independent_rows": [(repset, "gf2_independent_rows")],
}

_TRANSITIONS = {
    "_leaf_table": "leaf",
    "_introduce": "introduce",
    "_forget": "forget",
    "_join": "join",
}


class Tracer:
    """Spans, accumulators and counters of traced solves.

    ``acc[name]`` is ``[total_s, self_s, calls]``; ``counts[name]`` is a
    number; ``spans`` is a list of dicts with ``id``, ``parent``, ``name``,
    ``start``, ``end``, ``self_s`` and ``attrs``.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.acc: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        # time already taken by timed children, one slot per open span or
        # timed call; the bottom slot belongs to no span and is never popped
        self._child: list[float] = [0.0]
        self._open: list[tuple[dict[str, Any], int]] = []
        self._runs: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # recording primitives

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def open_span(self, name: str, **attrs: Any) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1][0]["id"] if self._open else None,
            "name": name,
            "start": _perf(),
            "end": None,
            "self_s": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._open.append((span, len(self._child)))
        self._child.append(0.0)
        return span

    def close_span(self) -> dict[str, Any]:
        span, slot = self._open.pop()
        span["end"] = _perf()
        # slots above ours belong to timed calls that raised before popping
        del self._child[slot + 1 :]
        dur = span["end"] - span["start"]
        span["self_s"] = dur - self._child.pop()
        self._child[-1] += dur
        return span

    def current_span(self) -> dict[str, Any] | None:
        return self._open[-1][0] if self._open else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        depth = len(self._open)
        span = self.open_span(name, **attrs)
        try:
            yield span
        finally:
            # close the spans a failed solve left open, then this one
            while len(self._open) > depth:
                self.close_span()

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        post: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap fn so its total and self time add up under name.

        ``post(args, result)`` runs after each call, outside its timing, to
        update counters.  Kept lean because it runs on every hot call: no
        try/finally, since a span closing over a raised call drops the
        call's stale slot.
        """
        acc = self.acc.setdefault(name, [0.0, 0.0, 0])
        child = self._child
        push = child.append
        pop = child.pop

        def wrapper(*args: Any) -> Any:
            push(0.0)
            t0 = _perf()
            out = fn(*args)
            dur = _perf() - t0
            inner = pop()
            child[-1] += dur
            acc[0] += dur
            acc[1] += dur - inner
            acc[2] += 1
            if post is not None:
                post(args, out)
            return out

        return wrapper

    # ------------------------------------------------------------------
    # wrappers with bookkeeping beyond timing

    def _wrap_build(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def build_engine(*args: Any, **kwargs: Any) -> Any:
            with self.span("build"):
                engine = fn(*args, **kwargs)
            ntd = engine.ntd
            self.peak("decomposition.width_max", ntd.width)
            self.count("decomposition.join_nodes", sum(1 for k in ntd.kinds if k == "join"))
            self.count("families.patterns", len(engine.patterns))
            return engine

        return build_engine

    def _wrap_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def run(engine: Any) -> Any:
            ntd = engine.ntd
            parent_of = {c: p for p, cs in enumerate(ntd.children) for c in cs}
            self._runs.append({"order": iter(ntd.postorder()), "parent_of": parent_of})
            canon_calls = self.acc["dpcore.canon"][2]
            try:
                return fn(engine)
            finally:
                self._runs.pop()
                # every canon call that missed the memo added one entry;
                # without canonization there is no memo and every call misses
                misses = (
                    len(engine._canon_memo)
                    if engine.canonize
                    else self.acc["dpcore.canon"][2] - canon_calls
                )
                self.count("dpcore.canon_misses", misses)

        return run

    def _wrap_transition(self, kind: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def transition(engine: Any, *args: Any) -> Any:
            run = self._runs[-1]
            node = next(run["order"])
            bag = engine.ntd.bags[node]
            # closed by the reduce_table wrapper that follows every transition
            self.open_span(
                "node",
                node=node,
                kind=kind,
                bag=len(bag),
                td_parent=run["parent_of"].get(node),
            )
            return fn(engine, *args)

        return transition

    def _wrap_reduce_table(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self.timed("dpcore.reduce_table", fn)

        def reduce_table(engine: Any, table: dict) -> None:
            before = sum(len(f) for f in table.values())
            timed(engine, table)
            after = sum(len(f) for f in table.values())
            self.count("dpcore.states", len(table))
            self.count("dpcore.retained", after)
            self.peak("dpcore.peak_table_states", len(table))
            node = self.current_span()
            if node is not None and node["name"] == "node":
                node["attrs"].update(states=len(table), parts_before=before, parts_after=after)
                self.close_span()

        return reduce_table

    def _post_inc_is_forest(self, args: tuple, out: bool) -> None:
        self.count("dpcore.join_pairs")
        if out:
            self.count("dpcore.join_pairs_forest")

    def _post_rep(self, args: tuple, out: list) -> None:
        self.count("repset.rows_in", len(args[1]))
        self.count("repset.rows_out", len(out))

    def _post_coarsenings(self, args: tuple, out: list) -> None:
        self.count("repset.coarsenings", len(out))

    def _post_gf2(self, args: tuple, out: list) -> None:
        self.count("gf2.rows", len(args[0]))
        self.count("gf2.bytes_computed", len(args[0]) * args[1] / 8)

    def _wrap_from_parts(self, method: classmethod) -> classmethod:
        fn = method.__func__
        counts = self.counts

        def from_parts(cls: type, m: int, parts: Any) -> Any:
            counts["partitions.from_parts_calls"] = counts.get("partitions.from_parts_calls", 0) + 1
            return fn(cls, m, parts)

        return classmethod(from_parts)

    # ------------------------------------------------------------------
    # installation

    def _patches(self) -> list[tuple[Any, str, Callable[[Any], Any]]]:
        """(owner, attribute, wrap) for every name the tracer replaces."""
        posts = {
            "partitions.inc_is_forest": self._post_inc_is_forest,
            "repset.rep_partitions": self._post_rep,
            "partitions.one_coarsenings": self._post_coarsenings,
            "gf2.independent_rows": self._post_gf2,
        }
        out: list[tuple[Any, str, Callable[[Any], Any]]] = []
        for name, places in _TIMED_CALLS.items():
            for owner, attr in places:
                wrap = lambda fn, n=name: self.timed(n, fn, posts.get(n))
                out.append((owner, attr, wrap))
        for owner in (dp_block, dp_component):
            out.append((owner, "build_engine", self._wrap_build))
        out.append((_dpcore.Engine, "run", self._wrap_run))
        out.append((_dpcore.Engine, "reduce_table", self._wrap_reduce_table))
        for attr, kind in _TRANSITIONS.items():
            out.append((_dpcore.Engine, attr, lambda fn, k=kind: self._wrap_transition(k, fn)))
        out.append((Partition, "from_parts", self._wrap_from_parts))
        return out

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced name; restore the original objects on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, wrap in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def wrapped_names() -> list[tuple[Any, str]]:
    """Every (owner, attribute) pair the tracer replaces while installed."""
    return [(owner, attr) for owner, attr, _ in Tracer()._patches()]
