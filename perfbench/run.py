"""End-to-end benchmark of the footprint-noc simulator.

Usage (from the root of a source checkout; no install, no build)::

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 20 --trace 0

Workloads, metrics, seeds and the layer each per-layer metric belongs
to are described in ``perfbench/spec.json``; ``BENCHMARK.json`` at the
root names the subset every run must print.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer
metrics under ``--trace 1``.  Lines before it give each metric with its
sample count, the run's provenance and the reason for every failed op.

The workload runs in a fresh interpreter (``bench_child.py``) under an
environment stripped of every ``REPRO_*`` override, with its own result
cache directory, so the program picks its default engine and nothing
from an earlier workload or the caller's shell leaks in.  ``setup_s`` is
the median wall time of several more fresh interpreters, each importing
the program and building the workload's configs and simulators.  Times
and rates are scaled to a reference host speed sampled while they ran
(``hostspeed.py``); the raw medians are printed beside them.

Everything the run writes stays under ``.perfbench/`` in the checkout:
temporary caches (removed at exit), the span file of the last traced run
per workload and seed, and the signature digests of earlier runs, which
fail an op whose digest differs from a run of the same seed and code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 11

#: Per-child wall limit, inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_spec() -> tuple[dict, dict]:
    """BENCHMARK.json and spec.json, checked to name the same metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    for key in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in bench[key]]
        if names != [m["name"] for m in spec[key]]:
            raise ValueError(f"BENCHMARK.json and spec.json differ in {key}")
    return bench, spec


def clean_env(tmp_dir: Path) -> dict[str, str]:
    """The caller's environment without any ``REPRO_*`` override."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp_dir)
    return env


def code_hash() -> str:
    """Content hash of the program and the benchmark."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
        HERE.glob("*.py")
    ):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_digests(report: dict, workload: str, seed: int, tree: str) -> None:
    """Fail ops whose signature digest differs from an earlier run of
    the same seed and code; record the digests of this run."""
    path = STATE / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    known = store.setdefault(tree, {})
    for p in report["passes"]:
        for op in p["ops"]:
            if op["digest"] is None:
                continue
            key = f"{workload}/{seed}/{op['key']}"
            seen = known.setdefault(key, op["digest"])
            if seen != op["digest"] and op["error"] is None:
                op["error"] = (
                    f"signature digest {op['digest']} != {seen} from an "
                    "earlier run of the same seed and code"
                )
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({tree: known}))
    os.replace(tmp, path)


def run_child(args: list[str], env: dict[str, str]) -> tuple[float, str]:
    """Run ``bench_child.py`` with ``args``; return its wall seconds and
    its standard output."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "bench_child.py"), *args],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    return time.perf_counter() - start, out.stdout


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def setup_probes(workload: str, seed: int, env: dict[str, str]) -> list:
    """``(seconds, host-speed factor)`` of each fresh-interpreter set-up."""
    probes = []
    for _ in range(SETUP_PROBES):
        seconds, out = run_child(["setup", workload, str(seed)], env)
        probes.append((seconds, float(out.split()[-1])))
    return probes


def end_to_end(report: dict, probes: list) -> dict:
    """``{metric: (value, how it was sampled)}`` for the untraced run.

    Times and rates are scaled to the reference host speed by the factor
    sampled while each pass or set-up ran (see ``hostspeed.py``); the raw
    median is printed beside each.
    """
    passes = report["passes"]
    speed = [p["speed"] for p in passes]
    series = {
        "setup_s": (
            [s for s, _ in probes],
            [f for _, f in probes],
            "fresh interpreters",
        ),
        "wall_s": ([p["wall_s"] for p in passes], speed, "passes"),
        "sim_node_cycles_per_s": (
            [sum(op["node_cycles"] for op in p["ops"]) / p["sim_s"]
             for p in passes],
            [1 / f for f in speed],
            "passes",
        ),
        "flits_per_s": (
            [sum(op["accepted_flits"] for op in p["ops"]) / p["sim_s"]
             for p in passes],
            [1 / f for f in speed],
            "passes",
        ),
    }
    out = {}
    for name, (raw, factors, what) in series.items():
        q1, med, q3 = quartiles([v * f for v, f in zip(raw, factors)])
        out[name] = (
            med,
            f"median of {len(raw)} {what} (q1 {q1:.6g}, q3 {q3:.6g}; "
            f"raw median {statistics.median(raw):.6g})",
        )
    out["peak_rss_mb"] = (report["peak_rss_mb"], "whole run")
    # The modelled answer comes from the first pass, so it depends only
    # on the seed, not on how many passes fit in the run.
    first = [op for op in passes[0]["ops"] if op["avg_latency"] is not None]
    what = f"mean of {len(first)} first-pass simulations"
    out["avg_latency_cycles"] = (mean([op["avg_latency"] for op in first]), what)
    out["accepted_rate"] = (mean([op["accepted_rate"] for op in first]), what)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program at {ROOT / 'src' / 'repro'}")
    try:
        bench, spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        return fail(f"bad benchmark description: {exc}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")

    tmp_dir = STATE / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = clean_env(tmp_dir)
    out_path = tmp_dir / "report.json"
    try:
        run_child(
            [
                "run",
                args.workload,
                str(args.seed),
                str(args.seconds),
                str(args.trace),
                str(out_path),
                str(tmp_dir),
            ],
            env,
        )
        report = json.loads(out_path.read_text())
        probes = (
            [] if args.trace else setup_probes(args.workload, args.seed, env)
        )
        if args.trace:
            trace_dir = STATE / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            span_file = trace_dir / f"{args.workload}-seed{args.seed}.tsv"
            shutil.move(report["span_file"], span_file)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        return fail(f"workload {args.workload} did not complete: {exc}")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    tree = code_hash()
    check_digests(report, args.workload, args.seed, tree)
    ops = [op for p in report["passes"] for op in p["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    engines = sorted({p["engine"] for p in report["provenance"]})
    if args.trace:
        traced = sorted({e[1] for e in report["traced_engines"]})
        if traced != engines:
            failed_reason = f"traced engines {traced} != resolved {engines}"
            for op in ops:
                op["error"] = op["error"] or failed_reason
            failed = ops

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"commit={git_commit()} tree={tree} "
        f"ENGINE_VERSION={report['engine_version']} nproc={report['jobs']} "
        f"python={platform.python_version()} numpy={report['numpy']}"
    )
    for config_index, prov in enumerate(report["provenance"]):
        print(
            f"  config {config_index}: engine={prov['engine']} "
            f"requested={prov['engine_requested']} "
            f"auto_resolved={prov['auto_resolved']} "
            f"vector_fallback={prov['vector_fallback']}"
        )
    print(
        f"  ops: {len(ops)} attempted, {len(failed)} failed, "
        f"error_rate {len(failed) / len(ops) if ops else 1.0}"
    )
    for op in failed:
        print(f"  FAILED {op['key']}: {op['error']}")

    if args.trace:
        layer = report["layer"]
        metrics = {}
        for meta in spec["per_layer"]:
            value = float(layer.get(meta["name"], 0.0))
            metrics[meta["name"]] = {"value": value, "unit": meta["unit"]}
            print(
                f"  {meta['name']:34s} {value:14.6f} {meta['unit']:6s} "
                f"moves {meta['moves']} (mostly on {meta['mostly_on']}, "
                f"barely on {meta['barely_on']})"
            )
        print(
            f"  spans: {report['spans']} written to "
            f".perfbench/trace/{args.workload}-seed{args.seed}.tsv"
        )
        for key, value in report.get("extra", {}).items():
            print(f"  {key}: {value}")
    else:
        measured = end_to_end(report, probes)
        metrics = {}
        for meta in spec["end_to_end"]:
            value, sampled = measured[meta["name"]]
            metrics[meta["name"]] = {"value": value, "unit": meta["unit"]}
            print(
                f"  {meta['name']:22s} {value:14.6f} {meta['unit']:16s} "
                f"{sampled}"
            )
        print(f"  model: {spec['model']}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
