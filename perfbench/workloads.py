"""The benchmark's workloads: inputs generated from a seed, and the ops
that push them through the simulator's public entry points.

Every workload is a closed loop in one process: a *pass* starts only
after the previous one returned.  One pass is

* ``hotspot`` / ``zero_load``: one simulation through ``repro run``
  (``repro.cli.main``);
* ``sweep``: ``fig9_hotspot`` cold through ``run_tasks`` with
  ``jobs = nproc`` and a fresh ``ResultCache``, then a warm replay of
  the same grid and ``report_fig9``.  This is the one workload with
  more than one process: the pool's workers;
* ``checked``: each generated config once, with every
  ``repro.validate`` checker on.

An *op* is one simulation; every op is checked (:func:`check_result`)
and a failed op carries its reason.  The engine is never named here: it
is whatever the program picks by default (``engine_mode_from_env`` under
a cleaned environment), exactly as ``repro run`` and ``run_tasks`` pick
it.

This module imports the program lazily so ``run.py`` (which never
imports it) can fail cleanly when the program is missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field

#: Fig. 9 scenario: Table 2 router on an 8x8 mesh, uniform background
#: at 0.3 plus the Table 3 hotspot flows at the top of the Fig. 9
#: ladder, past saturation, so congestion trees form inside a window
#: short enough for about ten passes per run and blocked heads retry
#: every cycle.
HOTSPOT_ARGS = dict(
    width=8,
    routing="footprint",
    traffic="hotspot",
    hotspot_rate=0.6,
    background_rate=0.3,
    warmup=150,
    measure=150,
    drain=0,
)

#: A near-idle network with a long measurement window: most cycles are
#: idle and skipped.
ZERO_LOAD_ARGS = dict(
    width=8,
    routing="footprint",
    traffic="uniform",
    injection_rate=1e-4,
    warmup=1000,
    measure=200000,
    drain=5000,
)

#: Fig. 9 experiment at reduced cycle counts (the BENCH hotspot ladder and
#: algorithms are kept, so task costs still differ several-fold).
SWEEP_CYCLES = dict(warmup=20, measure=80, drain=60)

#: ``checked`` configs: (topology, routing, traffic, injection rate,
#: link faults).  Cycle counts are shared and sized to drain.
CHECKED_SHAPES = (
    ("mesh", "footprint", "transpose", 0.3, 0),
    ("torus", "duato", "uniform", 0.3, 0),
    ("mesh", "dbar", "uniform", 0.2, 2),
)
CHECKED_CYCLES = dict(warmup_cycles=10, measure_cycles=30, drain_cycles=1000)
#: Seeded link faults fail at one fixed cycle and heal after a fixed
#: stretch, so the seed picks which links fail but not how long packets
#: wait for them: the work per pass stays about the same across seeds.
FAULT_CYCLE = 15
FAULT_DURATION = 25

#: Workloads whose every op must deliver every measured packet.
MUST_DRAIN = ("zero_load", "checked")


def workload_rng(workload: str, seed: int) -> random.Random:
    """The seeded stream all of a workload's inputs are drawn from."""
    # String seeds hash with SHA-512, so the stream is the same in every
    # process and on every Python build.
    return random.Random(f"perfbench/{workload}/{seed}")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _run_args(workload: str, seed: int) -> dict:
    args = dict(HOTSPOT_ARGS if workload == "hotspot" else ZERO_LOAD_ARGS)
    args["seed"] = workload_rng(workload, seed).randrange(1, 1 << 31)
    return args


def run_argv(workload: str, seed: int) -> list[str]:
    """``repro run`` arguments of the single-simulation workloads."""
    argv = ["run"]
    for key, value in _run_args(workload, seed).items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def run_config(workload: str, seed: int):
    """The ``SimulationConfig`` that ``repro run`` builds from
    :func:`run_argv` (used by the set-up probe and provenance)."""
    from repro.sim.config import SimulationConfig

    args = _run_args(workload, seed)
    for phase in ("warmup", "measure", "drain"):
        args[f"{phase}_cycles"] = args.pop(phase)
    return SimulationConfig(**args)


def sweep_scale():
    from repro.harness import experiments as exp

    return dataclasses.replace(exp.BENCH, name="perfbench", **SWEEP_CYCLES)


def sweep_seed(seed: int) -> int:
    return workload_rng("sweep", seed).randrange(1, 1 << 31)


def sweep_configs(seed: int) -> list:
    """The grid ``fig9_hotspot`` builds for :func:`sweep_scale`."""
    scale = sweep_scale()
    return [
        scale.config(
            routing=algorithm,
            traffic="hotspot",
            hotspot_rate=rate,
            background_rate=0.3,
            seed=sweep_seed(seed),
        )
        for algorithm in ("dbar", "footprint")
        for rate in scale.hotspot_rates
    ]


def checked_configs(seed: int) -> list:
    """The ``checked`` configs, drawn here rather than by the program's
    own random-config generator so a change to that cannot change the
    workload.  Link faults are transient, so every config drains."""
    from repro.faults.schedule import KIND_LINK, FaultEvent, FaultSchedule
    from repro.sim.config import SimulationConfig
    from repro.topology.base import create_topology

    rng = workload_rng("checked", seed)
    configs = []
    for topology, routing, traffic, rate, link_faults in CHECKED_SHAPES:
        faults = None
        if link_faults:
            channels = create_topology(topology, 8, None).channels()
            picks = sorted(rng.sample(range(len(channels)), link_faults))
            faults = FaultSchedule(
                tuple(
                    FaultEvent(
                        FAULT_CYCLE,
                        KIND_LINK,
                        channels[i][0],
                        channels[i][1],
                        FAULT_DURATION,
                    )
                    for i in picks
                )
            )
        configs.append(
            SimulationConfig(
                width=8,
                topology=topology,
                routing=routing,
                traffic=traffic,
                injection_rate=rate,
                seed=rng.randrange(1, 1 << 31),
                faults=faults,
                **CHECKED_CYCLES,
            )
        )
    return configs


def workload_configs(workload: str, seed: int) -> list:
    """Every config one pass of ``workload`` simulates, in op order."""
    if workload in ("hotspot", "zero_load"):
        return [run_config(workload, seed)]
    if workload == "sweep":
        return sweep_configs(seed)
    return checked_configs(seed)


def provenance(config, validation=None) -> dict:
    """Engine requested and resolved for ``config`` under the current
    environment, through the program's own resolution functions."""
    from repro.sim.engine import engine_mode_from_env, resolve_auto_mode

    requested = engine_mode_from_env()
    resolved = requested
    auto_resolved = None
    if requested == "auto":
        resolved = auto_resolved = resolve_auto_mode(config)
    fallback = None
    if resolved == "vector":
        from repro.sim.vector import vector_unsupported_reason

        fallback = vector_unsupported_reason(config, validation)
        if fallback is not None:
            resolved = "skip"
    return {
        "engine_requested": requested,
        "engine": resolved,
        "auto_resolved": auto_resolved,
        "vector_fallback": fallback,
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One simulation and its verdict."""

    key: str
    result: object = None
    error: str | None = None
    digest: str | None = None
    #: Summary of ``result``, kept after the result itself is dropped.
    node_cycles: int = 0
    accepted_flits: int = 0
    avg_latency: float | None = None
    accepted_rate: float | None = None


def signature_digest(result) -> str:
    from repro.validate.differential import result_signature

    return hashlib.sha256(
        repr(result_signature(result)).encode()
    ).hexdigest()[:16]


def check_result(op: Op, workload: str) -> None:
    """Fill ``op.error`` with the first output check ``op.result`` fails."""
    result = op.result
    if result is None:
        op.error = op.error or "no result"
        return
    op.digest = signature_digest(result)
    op.node_cycles = result.cycles_run * result.config.num_nodes
    op.accepted_flits = result.accepted_flits
    op.avg_latency = result.avg_latency
    op.accepted_rate = result.accepted_rate
    if result.measured_ejected > result.measured_created:
        op.error = (
            f"measured_ejected {result.measured_ejected} > "
            f"measured_created {result.measured_created}"
        )
    elif result.latency.count != result.measured_ejected:
        op.error = (
            f"latency samples {result.latency.count} != "
            f"measured_ejected {result.measured_ejected}"
        )
    elif workload in MUST_DRAIN and not result.drained:
        op.error = (
            f"did not drain: {result.measured_ejected}/"
            f"{result.measured_created} measured packets delivered"
        )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One pass of a workload: its ops and its timings."""

    ops: list[Op] = field(default_factory=list)
    #: From the first call into the program to the last checked result
    #: or report.
    wall_s: float = 0.0
    #: Host seconds spent simulating (for ``sweep`` the cold grid,
    #: pooled).
    sim_s: float = 0.0
    #: ``sweep`` only: warm replay plus report, and cache accounting.
    warm_s: float = 0.0
    report_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Host-speed factor of a timed pass (see ``hostspeed.py``).
    speed: float | None = None


def _fail_all(ops: list[Op], reason: str) -> None:
    for op in ops:
        if op.error is None:
            op.error = reason


class SingleRun:
    """``hotspot`` / ``zero_load``: one ``repro run`` per pass."""

    def __init__(self, workload: str, seed: int) -> None:
        import repro.cli

        self.workload = workload
        self.cli = repro.cli
        self.argv = run_argv(workload, seed)
        self._captured: list = []
        inner = repro.cli.run_simulation

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            self._captured.append(result)
            return result

        # Pass-through: hands ``repro run``'s result to the checks.
        repro.cli.run_simulation = capture

    def run_pass(self) -> Pass:
        self._captured.clear()
        op = Op(key=f"{self.workload}/0")
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(self.argv)
        except Exception as exc:  # every failure is an op failure
            code = None
            op.error = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if code not in (0, None):
            op.error = f"repro run exited {code}"
        if self._captured:
            op.result = self._captured[-1]
        check_result(op, self.workload)
        if op.error is None and "drained       :" not in out.getvalue():
            op.error = "repro run printed no report"
        return Pass(ops=[op], wall_s=t1 - t0, sim_s=t1 - t0)


class Sweep:
    """``sweep``: the ``repro experiment fig9`` path, cold then warm."""

    def __init__(self, seed: int, tmp_dir: str, jobs: int) -> None:
        from repro.harness import experiments as exp
        from repro.harness import reporting

        self.exp = exp
        self.reporting = reporting
        self.seed = sweep_seed(seed)
        self.scale = sweep_scale()
        self.tmp_dir = tmp_dir
        self.jobs = jobs
        self.passes = 0
        self._captured: list[list] = []
        inner = exp.run_configs

        def capture(*args, **kwargs):
            results = inner(*args, **kwargs)
            self._captured.append(list(results))
            return results

        # Pass-through: hands fig9_hotspot's per-task results to the
        # checks (fig9_hotspot itself returns only latency tuples).
        exp.run_configs = capture

    def new_cache(self):
        from repro.harness.cache import ResultCache

        self.passes += 1
        return ResultCache(os.path.join(self.tmp_dir, f"cache{self.passes}"))

    def run_pass(self, jobs: int | None = None, cache=None) -> Pass:
        jobs = jobs or self.jobs
        cache = cache if cache is not None else self.new_cache()
        self._captured.clear()
        n = len(self.scale.hotspot_rates) * 2
        ops = [Op(key=f"sweep/{i}") for i in range(n)]
        t0 = time.perf_counter()
        try:
            cold = self.exp.fig9_hotspot(
                self.scale, seed=self.seed, jobs=jobs, cache=cache
            )
            t1 = time.perf_counter()
            misses0 = cache.misses
            warm = self.exp.fig9_hotspot(
                self.scale, seed=self.seed, jobs=jobs, cache=cache
            )
            t2 = time.perf_counter()
            report = self.reporting.report_fig9(warm)
            t3 = time.perf_counter()
        except Exception as exc:  # every failure is an op failure
            t = time.perf_counter()
            _fail_all(ops, f"raised {type(exc).__name__}: {exc}")
            return Pass(ops=ops, wall_s=t - t0, sim_s=t - t0)
        cold_results, warm_results = self._captured
        for op, result in zip(ops, cold_results):
            op.result = result
            check_result(op, "sweep")
        from repro.validate.differential import result_signature

        if [result_signature(r) for r in warm_results] != [
            result_signature(r) for r in cold_results
        ] or warm != cold:
            _fail_all(ops, "warm replay differs from the cold pass")
        if cache.misses != misses0:
            _fail_all(ops, f"warm replay had {cache.misses - misses0} misses")
        if "Fig. 9" not in report:
            _fail_all(ops, "report_fig9 printed no table")
        return Pass(
            ops=ops,
            wall_s=t3 - t0,
            sim_s=t1 - t0,
            warm_s=t2 - t1,
            report_s=t3 - t2,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
        )


class Checked:
    """``checked``: each config once with every checker on."""

    def __init__(self, seed: int) -> None:
        from repro.sim.engine import Simulator, engine_mode_from_env
        from repro.validate.config import ValidationConfig

        self.Simulator = Simulator
        self.engine_mode_from_env = engine_mode_from_env
        self.validation = ValidationConfig()
        self.configs = checked_configs(seed)

    def run_pass(self, validate: bool = True) -> Pass:
        validation = self.validation if validate else None
        ops = []
        t0 = time.perf_counter()
        for i, config in enumerate(self.configs):
            op = Op(key=f"checked/{i}")
            try:
                # The same engine selection run_simulation makes.
                op.result = self.Simulator(
                    config,
                    engine_mode=self.engine_mode_from_env(),
                    validation=validation,
                ).run()
            except Exception as exc:  # every failure is an op failure
                op.error = f"raised {type(exc).__name__}: {exc}"
            check_result(op, "checked")
            ops.append(op)
        wall = time.perf_counter() - t0
        return Pass(ops=ops, wall_s=wall, sim_s=wall)


def make_runner(workload: str, seed: int, tmp_dir: str, jobs: int):
    if workload in ("hotspot", "zero_load"):
        return SingleRun(workload, seed)
    if workload == "sweep":
        return Sweep(seed, tmp_dir, jobs)
    return Checked(seed)
