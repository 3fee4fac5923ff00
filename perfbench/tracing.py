"""Outside-in tracing: spans around the simulator's public functions.

The tracer wraps methods on the instances a run builds (the simulator,
its traffic generator, the shared routing object, every router, source
and sink, the validator and fault manager) and a few module functions
(``Simulator.__init__``, ``repro.router.router.allocate_vcs``).  Every
wrapped call records a span ``(name, start, end, parent, op)``; spans
stay in memory and are written out once, when the run ends.  A span's
self time is its duration minus the durations of its child spans, so
``router.route_and_allocate`` excludes the routing and allocator calls
it makes.

Wrappers only observe: they return what the wrapped call returned, and
the benchmark checks that traced results are signature-identical to
untraced ones.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def _add_len(key: str):
    def count(counts, out, args):
        counts[key] += len(out)

    return count


def _count_allocation(counts, out, args):
    counts["router.va_requesters"] += len(args[0])
    counts["router.va_grants"] += len(out)


def _count_cycles(counts, out, args):
    counts["sim.cycles_run"] += out.cycles_run


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stage_times: dict[str, float] = defaultdict(float)
        #: Engine each traced simulation actually ran, by op.
        self.engines: list[tuple[str, str, str | None, str | None]] = []
        self.op = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._vector_sims: list = []

    # ------------------------------------------------------------------
    def traced(self, name: str, inner, counter=None):
        """A span-recording pass-through around ``inner``."""
        spans = self.spans
        stack = self._stack
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                out = inner(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    stack[-1] if stack else -1,
                    tracer.op,
                )
            if counter is not None:
                counter(counts, out, args)
            return out

        return traced

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` with a span-recording pass-through."""
        setattr(owner, attr, self.traced(name, getattr(owner, attr), counter))

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        """:meth:`wrap` a module or class attribute, undone by
        :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        self.wrap(owner, attr, name, counter)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def trace_engine(self) -> None:
        """Instrument every ``Simulator`` built until :meth:`restore`."""
        import repro.router.router as router_module
        from repro.sim.engine import Simulator

        build = Simulator.__init__
        tracer = self

        def init(sim, *args, **kwargs):
            # Construction is one span; instrumenting the new instance
            # happens outside it, so ``sim.build_s`` is the program's.
            # Each simulation is one op; its spans share the op id.
            tracer.op = f"op{len(tracer.engines)}"
            tracer.traced("sim.build", build)(sim, *args, **kwargs)
            tracer.instrument(sim)

        self._patched.append((Simulator, "__init__", build))
        Simulator.__init__ = init
        self.patch(
            router_module,
            "allocate_vcs",
            "router.allocate_vcs",
            _count_allocation,
        )

    def instrument(self, sim) -> None:
        wrap = self.wrap
        self.engines.append(
            (
                self.op,
                sim.engine_mode,
                sim.auto_resolved,
                sim.vector_fallback,
            )
        )
        wrap(sim, "step", "sim.step")
        wrap(sim, "run", "sim.run", _count_cycles)
        wrap(sim.traffic, "generate", "traffic.generate",
             _add_len("traffic.packets"))
        wrap(sim.traffic, "next_event_cycle", "traffic.next_event")
        wrap(sim.routing, "select_output", "routing.select_output")
        wrap(sim.routing, "vc_requests_at", "routing.vc_requests",
             _add_len("routing.requests_built"))
        for router in sim.routers:
            wrap(router, "route_and_allocate", "router.route_and_allocate")
            wrap(router, "switch_traversal", "router.switch_traversal",
                 _add_len("router.switch_flits"))
            wrap(router, "link_traversal", "router.link_traversal")
        for source in sim.sources:
            wrap(source, "inject", "endpoints.inject")
        for sink in sim.sinks:
            wrap(sink, "drain", "endpoints.drain")
        if sim.validator is not None:
            wrap(sim.validator, "end_cycle", "validate.end_cycle")
            wrap(sim.validator, "on_skip", "validate.on_skip")
            wrap(sim.validator, "finish", "validate.finish")
        if sim.faults is not None:
            wrap(sim.faults, "advance_to", "faults.advance_to")
            wrap(sim.faults, "credit_blocked", "faults.credit_blocked")
        if sim.engine_mode == "vector":
            # The vector engine has no per-object hooks; its public
            # stage-time switch is the layer view it offers.
            sim.collect_stage_times = True
            self._vector_sims.append(sim)
            from repro.sim.vector.engine import VectorEngine

            if not any(owner is VectorEngine for owner, _, _ in self._patched):
                self.patch(VectorEngine, "step", "sim.step")

    def collect_stage_times(self) -> None:
        """Fold the stage times of finished vector runs into the totals."""
        for sim in self._vector_sims:
            for stage, seconds in (sim.stage_times or {}).items():
                self.stage_times[stage] += seconds
        self._vector_sims.clear()

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, list[float]]:
        """``{span name: [calls, total seconds, self seconds]}``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[index]
        return dict(table)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                out.write(
                    f"{op}\t{name}\t{start - origin:.9f}\t"
                    f"{end - origin:.9f}\t{parent}\n"
                )


def engine_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the engine, traffic, routing, router,
    endpoint, validate and fault layers from one traced pass."""
    table = tracer.aggregate()
    counts = tracer.counts

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return table.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return table.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    stepped = calls("sim.step")
    cycles_run = counts["sim.cycles_run"]
    step_s = total("sim.step")
    grants = counts["router.va_grants"]
    stages = tracer.stage_times
    return {
        "sim.build_s": total("sim.build"),
        "sim.cycles_stepped": stepped,
        "sim.cycles_skipped": cycles_run - stepped,
        "sim.skip_fraction": ratio(cycles_run - stepped, cycles_run),
        "sim.step_s": step_s,
        "sim.step_us_per_stepped_cycle": ratio(step_s * 1e6, stepped),
        "vector.arrivals_s": stages["arrivals"],
        "vector.sink_s": stages["sink"],
        "vector.link_s": stages["link"],
        "vector.route_alloc_s": stages["route_alloc"],
        "vector.switch_s": stages["switch"],
        "vector.traffic_s": stages["traffic"],
        "traffic.generate_calls": calls("traffic.generate"),
        "traffic.generate_s": own("traffic.generate"),
        "traffic.packets": counts["traffic.packets"],
        "traffic.next_event_calls": calls("traffic.next_event"),
        "traffic.next_event_s": own("traffic.next_event"),
        "routing.select_output_calls": calls("routing.select_output"),
        "routing.select_output_s": own("routing.select_output"),
        "routing.vc_requests_calls": calls("routing.vc_requests"),
        "routing.vc_requests_s": own("routing.vc_requests"),
        "routing.requests_built": counts["routing.requests_built"],
        "routing.rebuilds_per_grant": ratio(
            calls("routing.vc_requests"), grants
        ),
        "router.route_and_allocate_calls": calls("router.route_and_allocate"),
        "router.route_and_allocate_s": own("router.route_and_allocate"),
        "router.allocate_vcs_calls": calls("router.allocate_vcs"),
        "router.allocate_vcs_s": own("router.allocate_vcs"),
        "router.va_requesters": counts["router.va_requesters"],
        "router.va_grants": grants,
        "router.va_grant_ratio": ratio(grants, counts["router.va_requesters"]),
        "router.switch_traversal_s": own("router.switch_traversal"),
        "router.switch_flits": counts["router.switch_flits"],
        "router.link_traversal_s": own("router.link_traversal"),
        "endpoints.inject_calls": calls("endpoints.inject"),
        "endpoints.inject_s": own("endpoints.inject"),
        "endpoints.drain_s": own("endpoints.drain"),
        "validate.end_cycle_calls": calls("validate.end_cycle"),
        "validate.end_cycle_s": own("validate.end_cycle"),
        "validate.on_skip_s": own("validate.on_skip"),
        "validate.finish_s": own("validate.finish"),
        "faults.advance_to_calls": calls("faults.advance_to"),
        "faults.advance_to_s": own("faults.advance_to"),
        "faults.credit_blocked_calls": calls("faults.credit_blocked"),
    }
