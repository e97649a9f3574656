"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the package's modules
where their callers look them up (``avasskit.decide.compute_pre_star`` as well
as ``avasskit.prestar.compute_pre_star``), records a span for each call and
restores every original on :meth:`Tracer.uninstall`.  A span holds its name,
start, end, parent span and query id.  Spans stay in memory up to
``SPAN_CAP`` and are written out once the run ends; the aggregate figures
cover every call.  A layer's self time is its span minus the time its child
spans cover; calls are strictly nested, so that is the span minus the sum of
its children's spans.

A few names called in inner loops (``SemilinearSet.member``,
``omega.apply_abstract``) are only counted: a span there would cost more than
the call it measures.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import avasskit.cli
import avasskit.decide
import avasskit.frontend
import avasskit.generators
import avasskit.omega
import avasskit.presburger
import avasskit.prestar
import avasskit.simulator
from avasskit.semiset import SemilinearSet

SPAN_CAP = 100_000
PRESTAR_ENTRIES = ("compute_pre_star", "compute_pre_star_upward")
DECIDE_VERBS = ("reachable", "coverable", "coverable_via_reduction", "is_well_structured")
CYCLE_KINDS = ("finite", "translation", "growth", "constant")
SEMISET_OPS = ("union", "intersect", "equal", "normalized", "compact")


def cycle_kind(cycle) -> str:
    """The branch of ``pre_cycle_star`` a cycle takes, read off its meta and guard."""
    a = cycle.meta.a
    if cycle.guard.hi is not None or a < 0:
        return "finite"
    if a == 0:
        return "constant"
    return "translation" if a == 1 else "growth"


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name: str, start: float, span: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.formulas: set = set()
        self.spans: list[tuple] = []
        self.queries: list[dict] = []
        self._stack: list[_Frame] = []
        self._restore: list[tuple] = []
        self._qid: str | None = None
        self._sizes: dict | None = None

    # ---- spans ----

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1].span if self._stack else -1
        span = -1
        if len(self.spans) < SPAN_CAP:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._qid])
        frame = _Frame(name, perf_counter(), span)
        if span >= 0:
            self.spans[span][1] = frame.start
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self.calls[frame.name] += 1
        self.self_s[frame.name] += dur - frame.child
        self.total_s[frame.name] += dur
        if self._stack:
            self._stack[-1].child += dur
        if frame.span >= 0:
            self.spans[frame.span][2] = end

    def query(self, qid: str, run):
        """Run one query under a root span, collecting its size counters."""
        self._qid = qid
        self._sizes = defaultdict(int)
        frame = self._enter("query")
        try:
            return run()
        finally:
            self._exit(frame)
            self.queries.append({"qid": qid, "wall_s": perf_counter() - frame.start,
                                 **self._sizes})
            self._qid = self._sizes = None

    def in_span(self, prefix: str) -> bool:
        return any(f.name.startswith(prefix) for f in self._stack)

    def parent_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    # ---- wrapping ----

    def _wrap(self, fn, name, after=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_only(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owners, attr, wrapper) -> None:
        for owner in owners:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        prestar, decide, cli = avasskit.prestar, avasskit.decide, avasskit.cli
        presburger, simulator, omega = avasskit.presburger, avasskit.simulator, avasskit.omega

        for entry in PRESTAR_ENTRIES:
            w = self._wrap(getattr(prestar, entry), f"prestar.{entry}", after=self._after_prestar)
            self._patch((prestar, decide, cli), entry, w)
        self._patch((prestar,), "enumerate_simple_cycles",
                    self._wrap(prestar.enumerate_simple_cycles, "prestar.enumerate_simple_cycles",
                               after=self._after_cycles))
        self._patch((prestar,), "pre_transition",
                    self._wrap(prestar.pre_transition, "prestar.pre_transition"))
        self._patch((prestar,), "pre_cycle_star",
                    self._wrap(prestar.pre_cycle_star, None,
                               name_of=lambda a: f"prestar.pre_cycle_star.{cycle_kind(a[0])}"))

        for op in SEMISET_OPS:
            after = self._after_union if op == "union" else None
            after = self._after_equal if op == "equal" else after
            after = self._after_normalized if op == "normalized" else after
            self._patch((SemilinearSet,), op,
                        self._wrap(SemilinearSet.__dict__[op], f"semiset.{op}", after=after))
        self._patch((SemilinearSet,), "member",
                    self._count_only(SemilinearSet.member, "semiset.member.calls"))

        for verb in DECIDE_VERBS:
            self._patch((decide,), verb,
                        self._wrap(getattr(decide, verb), f"decide.{verb}",
                                   after=self._after_verdict))

        self._patch((presburger,), "exists_solution",
                    self._wrap(presburger.exists_solution, "presburger.exists_solution",
                               after=lambda a, r: self.formulas.add(a[0])))
        self._patch((presburger,), "dnf",
                    self._wrap(presburger.dnf, "presburger.dnf",
                               after=lambda a, r: self._add("presburger.dnf_clauses", len(r))))
        for fn in ("is_functional", "is_wqo"):
            self._patch((presburger,), fn, self._wrap(getattr(presburger, fn), f"presburger.{fn}"))
        self._patch((avasskit.generators,), "build_n1",
                    self._wrap(avasskit.generators.build_n1, "generators.build_n1"))

        self._patch((simulator,), "post_star",
                    self._wrap(simulator.post_star, "simulator.post_star", after=self._after_post))
        self._patch((simulator,), "find_path",
                    self._wrap(simulator.find_path, "simulator.find_path",
                               after=lambda a, r: self._add("simulator.truncated", int(r[1]))))
        self._patch((simulator,), "apply_payload",
                    self._wrap(simulator.apply_payload, "machine.apply_payload"))

        self._patch((omega,), "reachable_totally_positive",
                    self._wrap(omega.reachable_totally_positive,
                               "omega.reachable_totally_positive"))
        self._patch((omega,), "apply_abstract",
                    self._count_only(omega.apply_abstract, "omega.apply_abstract.calls"))

        w = self._wrap(avasskit.frontend.parse_machine, "frontend.parse_machine")
        self._patch((avasskit.frontend, cli), "parse_machine", w)
        self._patch((cli,), "main", self._wrap(cli.main, "cli.main"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---- counters read off arguments and results ----

    def _add(self, key: str, value: float) -> None:
        self.counts[key] += value
        if self._sizes is not None:
            self._sizes[key] += value

    def _max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)
        if self._sizes is not None:
            self._sizes[key] = max(self._sizes[key], value)

    def _after_prestar(self, args, result) -> None:
        self._add("prestar.sweeps", result.sweeps)
        if self.in_span("decide."):
            self._add("decide.prestar_calls", 1)
        sets = result.sets.values()
        self._max("prestar.result_clauses_max", sum(len(s.clauses) for s in sets))
        self._max("prestar.result_modulus_max", max((c.modulus for s in sets for c in s.clauses),
                                                default=1))

    def _after_cycles(self, args, cycles) -> None:
        self._add("prestar.cycle_entries", len(cycles))
        self._add("prestar.cycle_summaries", len({(c.root, c.meta, c.guard) for c in cycles}))

    def _after_union(self, args, result) -> None:
        self._max("semiset.max_clauses", len(result.clauses))

    def _after_equal(self, args, result) -> None:
        if self.parent_name() in (f"prestar.{e}" for e in PRESTAR_ENTRIES):
            self._add("prestar.updates_tried", 1)

    def _after_normalized(self, args, result) -> None:
        if self.parent_name() in (f"prestar.{e}" for e in PRESTAR_ENTRIES):
            self._add("prestar.updates_useful", 1)

    def _after_verdict(self, args, result) -> None:
        if self.parent_name() == "query":
            self._add("decide.verdicts", 1)

    def _after_post(self, args, result) -> None:
        self._add("simulator.configs_visited", len(result.configs))
        self._add("simulator.truncated", int(result.truncated))

    # ---- results ----

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures, per pass over the corpus."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out: dict[str, float] = {}

        def timed(name: str) -> None:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for name in ("prestar.enumerate_simple_cycles", "prestar.pre_transition",
                     *(f"prestar.{e}" for e in PRESTAR_ENTRIES),
                     *(f"prestar.pre_cycle_star.{k}" for k in CYCLE_KINDS),
                     *(f"semiset.{op}" for op in SEMISET_OPS),
                     *(f"decide.{v}" for v in DECIDE_VERBS),
                     "presburger.exists_solution", "presburger.is_functional",
                     "presburger.is_wqo", "generators.build_n1",
                     "simulator.post_star", "simulator.find_path", "machine.apply_payload",
                     "omega.reachable_totally_positive", "frontend.parse_machine", "cli.main"):
            timed(name)
        for key in ("prestar.cycle_entries", "prestar.cycle_summaries", "prestar.sweeps",
                    "semiset.member.calls", "presburger.dnf_clauses",
                    "simulator.configs_visited", "omega.apply_abstract.calls"):
            out[key] = counts[key] / passes
        out["prestar.useful_update_ratio"] = ratio(counts["prestar.updates_useful"],
                                                   counts["prestar.updates_tried"])
        for key in ("semiset.max_clauses", "prestar.result_clauses_max",
                    "prestar.result_modulus_max"):
            out[key] = counts[key]
        out["decide.prestar_per_verdict"] = ratio(counts["decide.prestar_calls"],
                                                  counts["decide.verdicts"])
        out["presburger.exists_solution.distinct_ratio"] = ratio(
            len(self.formulas), calls["presburger.exists_solution"])
        out["simulator.configs_per_s"] = ratio(counts["simulator.configs_visited"],
                                               self.total_s["simulator.post_star"])
        out["simulator.truncated_ratio"] = ratio(
            counts["simulator.truncated"],
            calls["simulator.post_star"] + calls["simulator.find_path"])
        return out

    def write(self, path: Path) -> None:
        """Spans and per-query size counters, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for q in self.queries:
                out.write(json.dumps({"query": q}) + "\n")
            for name, start, end, parent, qid in self.spans:
                out.write(json.dumps({"span": name, "start": start, "end": end,
                                      "parent": parent, "qid": qid}) + "\n")
