"""One workload in a fresh interpreter; started by ``run.py``.

``bench_child.py setup WORKLOAD SEED`` imports the program and builds
the workload's configs and simulators (the ``sweep`` grid), prints the
host-speed factor sampled meanwhile and exits: ``run.py`` times it from
the outside as ``setup_s``.

``bench_child.py run WORKLOAD SEED SECONDS TRACE OUT TMP_DIR`` runs the
workload and writes a JSON report to ``OUT``.  With ``TRACE`` 0 it runs
passes in a closed loop until ``SECONDS`` have passed.  With ``TRACE`` 1
it runs a fixed set of passes instead: untraced, then traced (``sweep``
also runs a pooled pass with harness spans and serial passes, so the
engine wrappers see every simulation; ``checked`` also runs with the
checkers off), and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import sys
import time

import workloads
from hostspeed import HostSpeed, speed_factor
from tracing import Tracer, engine_layer_metrics


def setup(workload: str, seed: int) -> None:
    import repro.cli  # noqa: F401  (the program a user's command loads)

    configs = workloads.workload_configs(workload, seed)
    if workload == "sweep":
        from repro.harness.parallel import SimTask

        [SimTask(config) for config in configs]
        return
    from repro.sim.engine import Simulator, engine_mode_from_env
    from repro.validate.config import ValidationConfig

    validation = ValidationConfig() if workload == "checked" else None
    for config in configs:
        Simulator(
            config, engine_mode=engine_mode_from_env(), validation=validation
        )


# ----------------------------------------------------------------------
def pass_record(p: workloads.Pass) -> dict:
    ops = []
    for op in p.ops:
        ops.append(
            {
                "key": op.key,
                "error": op.error,
                "digest": op.digest,
                "node_cycles": op.node_cycles,
                "accepted_flits": op.accepted_flits,
                "avg_latency": op.avg_latency,
                "accepted_rate": op.accepted_rate,
            }
        )
    return {
        "wall_s": p.wall_s,
        "sim_s": p.sim_s,
        "warm_s": p.warm_s,
        "report_s": p.report_s,
        "cache_hits": p.cache_hits,
        "cache_misses": p.cache_misses,
        "speed": p.speed,
        "ops": ops,
    }


def mark_divergent(passes: list[workloads.Pass], reference=None) -> None:
    """Fail every op whose signature digest differs from the first
    occurrence of its key (or from ``reference``)."""
    first = dict(reference or {})
    for p in passes:
        for op in p.ops:
            if op.digest is None:
                continue
            seen = first.setdefault(op.key, op.digest)
            if seen != op.digest and op.error is None:
                op.error = f"signature digest {op.digest} != {seen}"


def digests(p: workloads.Pass) -> dict[str, str]:
    return {op.key: op.digest for op in p.ops if op.digest is not None}


def timed_loop(runner, seconds: float) -> list[workloads.Pass]:
    """Passes until ``seconds`` have passed, each with the host-speed
    factor of the slices sampled while it ran."""
    passes = []
    deadline = time.perf_counter() + seconds
    with HostSpeed() as speed:
        while True:
            first = len(speed.slices)
            p = runner.run_pass()
            p.speed = speed_factor(speed.slices[first:])
            for op in p.ops:
                # Keep the summary only, so memory does not grow with
                # the number of passes that fit in the run.
                op.result = None
            passes.append(p)
            # Free the pass's cyclic garbage outside the timed region, so
            # every pass starts from the heap a fresh process would have
            # and peak_rss_mb does not depend on when the collector ran.
            gc.collect()
            if time.perf_counter() >= deadline:
                return passes


def traced_pass(runner, tracer: Tracer, **kwargs) -> workloads.Pass:
    tracer.trace_engine()
    try:
        p = runner.run_pass(**kwargs)
    finally:
        tracer.restore()
    tracer.collect_stage_times()
    return p


def trace_sweep(runner, tracer: Tracer, jobs: int, seed: int) -> tuple[list, dict]:
    """Pooled pass with harness spans, then serial untraced and traced
    passes; returns the passes and the harness metrics."""
    import repro.harness.parallel as parallel
    from repro.harness.cost import estimate_task_cycles

    harness = Tracer()
    harness.op = "pooled"
    cache = runner.new_cache()
    harness.wrap(cache, "get", "harness.cache_get")
    harness.wrap(cache, "put", "harness.cache_put")
    harness.patch(parallel, "run_tasks", "harness.run_tasks")
    try:
        pooled = runner.run_pass(cache=cache)
    finally:
        harness.restore()
    cold_run_tasks = next(
        end - start
        for name, start, end, _, _ in harness.spans
        if name == "harness.run_tasks"
    )
    table = harness.aggregate()

    timer = Tracer()
    timer.op = "serial"
    timer.patch(parallel, "_run_task", "harness.task")
    try:
        serial = runner.run_pass(jobs=1)
    finally:
        timer.restore()
    # The first len(grid) task spans are the cold pass (the warm replay
    # simulates nothing).
    task_s = [
        end - start
        for name, start, end, _, _ in timer.spans
        if name == "harness.task"
    ][: len(serial.ops)]

    traced = traced_pass(runner, tracer, jobs=1)

    configs = workloads.sweep_configs(seed)
    tasks = [parallel.SimTask(config) for config in configs]
    batches = parallel.partition_tasks(
        [estimate_task_cycles(task) for task in tasks], jobs
    )
    makespan = max(sum(task_s[i] for i in batch) for batch in batches)
    ideal = sum(task_s) / jobs
    results = [op.result for op in serial.ops if op.result is not None]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    metrics = {
        "harness.run_tasks_s": cold_run_tasks,
        "harness.task_sim_s": mean(task_s),
        "harness.pool_imbalance": makespan / ideal if ideal else 0.0,
        "harness.pool_overhead_s": cold_run_tasks - makespan,
        "harness.task_pickle_bytes": mean(
            [len(pickle.dumps(task)) for task in tasks]
        ),
        "harness.result_pickle_bytes": mean(
            [len(pickle.dumps(result)) for result in results]
        ),
        "harness.cache_get_s": table.get("harness.cache_get", [0, 0.0])[1],
        "harness.cache_put_s": table.get("harness.cache_put", [0, 0.0])[1],
        "harness.cache_hits": pooled.cache_hits,
        "harness.cache_misses": pooled.cache_misses,
        "harness.warm_replay_s": pooled.warm_s,
        "harness.report_s": pooled.report_s,
    }
    extra = {
        "task_s": task_s,
        "batches": batches,
        "jobs": jobs,
    }
    return [pooled, serial, traced], {"metrics": metrics, "extra": extra}


def run(workload, seed, seconds, trace, out_path, tmp_dir) -> None:
    jobs = len(os.sched_getaffinity(0))
    runner = workloads.make_runner(workload, seed, tmp_dir, jobs)
    configs = workloads.workload_configs(workload, seed)
    report: dict = {"jobs": jobs}
    if workload == "checked":
        from repro.validate.config import ValidationConfig

        validation = ValidationConfig()
    else:
        validation = None
    report["provenance"] = [
        workloads.provenance(config, validation) for config in configs
    ]

    if not trace:
        passes = timed_loop(runner, seconds)
        mark_divergent(passes)
    else:
        tracer = Tracer()
        layer: dict[str, float] = {}
        extra: dict = {}
        if workload == "sweep":
            passes, harness = trace_sweep(runner, tracer, jobs, seed)
            layer.update(harness["metrics"])
            extra.update(harness["extra"])
            untraced, traced = passes[1], passes[2]
        else:
            untraced = runner.run_pass()
            traced = traced_pass(runner, tracer)
            passes = [untraced, traced]
            if workload == "checked":
                unchecked = runner.run_pass(validate=False)
                layer["validate.overhead_ratio"] = (
                    untraced.sim_s / unchecked.sim_s
                )
                # Checkers observe only: results equal the unchecked run.
                mark_divergent([unchecked], digests(untraced))
                passes.append(unchecked)
        # Tracing observes only: traced results equal untraced ones.
        mark_divergent(passes)
        layer.update(engine_layer_metrics(tracer))
        layer["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
        report["layer"] = layer
        report["extra"] = extra
        report["traced_engines"] = tracer.engines
        span_path = os.path.join(tmp_dir, "spans.tsv")
        tracer.write(span_path)
        report["spans"] = len(tracer.spans)
        report["span_file"] = span_path

    report["passes"] = [pass_record(p) for p in passes]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = (self_rss + child_rss) / 1024.0
    from repro.sim.engine import ENGINE_VERSION

    report["engine_version"] = ENGINE_VERSION
    try:
        import numpy

        report["numpy"] = numpy.__version__
    except ImportError:
        report["numpy"] = None
    with open(out_path, "w") as out:
        json.dump(report, out)


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        # A short interval: the whole set-up takes a few tenths of a
        # second.  ``run.py`` times this process from outside and scales
        # the time by the factor printed here.
        with HostSpeed(interval=0.02) as speed:
            setup(workload, seed)
        print(speed_factor(speed.slices))
        return 0
    seconds, trace, out_path, tmp_dir = argv[3:7]
    run(workload, seed, float(seconds), trace == "1", out_path, tmp_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
