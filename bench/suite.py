"""Runs one workload, checks its outputs and reports its metrics.

Every workload is served by one closed-loop client in one thread: the
client sends its next call only when the previous one has returned, as the
desk's synchronous, in-process API requires.

A run does a fixed amount of work, ``seconds`` times the workload's
nominal rate, so the same seed and seconds always give the same inputs,
the same chain and the same models, and so a faster program can neither
grow the audited chain nor the peak memory by doing more work. The
nominal rates make a run take about ``seconds`` on a 2-core x86 machine.

With ``trace`` off, the run first builds the workload's desk
``SETUP_REPEATS`` times (``setup_s`` is the median), then serves the
workload's own traffic, then a short fixed background of the desk's other
two kinds of traffic, because every run reports every end-to-end metric.
Metrics a workload owns come from its own traffic; the others come from
that background. With ``trace`` on, the run serves only the workload's own
traffic twice, untraced and traced, on two desks built from the same seed,
and reports per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import spec
from desk import ACCESS_GATEWAY, FLEET, FLOOD_GATEWAY
from pace import BURST, Pace, Samples
from tracing import Tracer
from traffic import DEEP, WIDE, AccessTraffic, FloodTraffic, Tally, TrainTraffic

SETUP_REPEATS = 5
# Units of work per second of run time: requests, ghosts or jobs.
WORK_PER_SECOND = {"access": 650, "flood": 20_000, "train-wide": 0.55, "train-deep": 0.7}
FLOOD_PROBE_EVERY = 50


def traffic_for(workload: str, seed: int, out_dir: Path):
    if workload == "access":
        return AccessTraffic(seed, out_dir)
    if workload == "flood":
        return FloodTraffic(seed, out_dir, probe_every=FLOOD_PROBE_EVERY)
    if workload == "train-wide":
        return TrainTraffic(seed, out_dir, WIDE)
    return TrainTraffic(seed, out_dir, DEEP)


# The metrics each kind of traffic owns, and the fixed background that
# reports them on workloads that do not own them. The background flood
# probes every 12th ghost so that a short run still has 1000 user-lookup
# probes.
GROUPS = {
    "access": ("access_p50_us", "access_per_s", "audit_s"),
    "flood": ("flood_per_s", "probe_p50_us"),
    "train": ("rounds_per_s", "job_s", "final_loss"),
}
OWNER = {"access": "access", "flood": "flood", "train-wide": "train", "train-deep": "train"}
BACKGROUND = {
    "access": (lambda seed, out: AccessTraffic(seed, out), 2000),
    "flood": (lambda seed, out: FloodTraffic(seed, out, probe_every=12), 24_000),
    "train": (lambda seed, out: TrainTraffic(seed, out, DEEP), 3),
}


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": metadata.version("cryptography"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def settings(workload: str, seconds: int) -> dict:
    return {
        "work": round(seconds * WORK_PER_SECOND[workload]),
        "work_per_second": WORK_PER_SECOND[workload],
        "setup_repeats": SETUP_REPEATS,
        "access_gateway": ACCESS_GATEWAY,
        "flood_gateway": FLOOD_GATEWAY,
        "flood_probe_every": FLOOD_PROBE_EVERY,
        "access_members": AccessTraffic.MEMBERS,
        "flood_members": FloodTraffic.MEMBERS,
        "fleet": FLEET,
        "train_wide": WIDE,
        "train_deep": DEEP,
        "background": {k: work for k, (_, work) in BACKGROUND.items()},
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_setup(workload: str, seed: int, out_dir: Path, pace: Pace):
    """Build the desk ``SETUP_REPEATS`` times; returns the last and each build's time."""
    builds = Samples()
    traffic = None
    for _ in range(SETUP_REPEATS):
        traffic = None
        gc.collect()
        fresh_dir(out_dir)
        pace.calibrate(BURST)
        start = perf_counter()
        traffic = traffic_for(workload, seed, out_dir)
        builds.add(start, perf_counter() - start)
        pace.calibrate(BURST)
    gc.collect()
    return traffic, builds


def run_untraced(workload: str, seed: int, seconds: int, out_dir: Path, root: Path) -> tuple[Tally, dict, dict]:
    tally, pace = Tally(), Pace()
    work = round(seconds * WORK_PER_SECOND[workload])
    traffic, builds = timed_setup(workload, seed, out_dir / workload, pace)
    phases = {OWNER[workload]: traffic.run(work, tally, pace)}
    for group, (make, background_work) in BACKGROUND.items():
        if group not in phases:
            background = make(seed, fresh_dir(out_dir / f"background-{group}"))
            phases[group] = background.run(background_work, tally, pace)
    metrics = {
        "setup_s": float(np.median(builds.paced(pace))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / max(tally.attempted, 1),
    }
    details = {
        "setup_s": f"median of {SETUP_REPEATS} desk builds; raw {np.median(builds.raw()):.6g}",
        "peak_rss_mb": "peak resident set of this process",
        "ok_ratio": f"{tally.attempted - tally.failed}/{tally.attempted} operations as expected",
    }
    for group, names in GROUPS.items():
        phase = phases[group]
        source = "own traffic" if group == OWNER[workload] else "background"
        for name in names:
            metrics[name] = float(phase.metrics[name])
            details[name] = f"{source}: {phase.details[name]}; raw {phase.raw[name]:.6g}"
    slowdown = np.asarray(pace.slowdowns)
    details["pace"] = (
        f"{len(slowdown)} kernel runs, slowdown p10 {np.percentile(slowdown, 10):.2f} "
        f"p50 {np.percentile(slowdown, 50):.2f} p90 {np.percentile(slowdown, 90):.2f}"
    )
    return tally, metrics, details


def run_traced(workload: str, seed: int, seconds: int, out_dir: Path, root: Path) -> tuple[Tally, dict, dict]:
    tally, pace = Tally(), Pace()
    work = round(seconds * WORK_PER_SECOND[workload])
    traffic = traffic_for(workload, seed, fresh_dir(out_dir / "untraced"))
    gc.collect()
    start = perf_counter()
    untraced = traffic.run(work, tally, pace)
    untraced_s = pace.paced_wall(start, perf_counter())
    del traffic

    traffic = traffic_for(workload, seed, fresh_dir(out_dir / "traced"))
    gc.collect()
    tracer = Tracer()
    # Kernel runs inside program calls become spans of their own, so that no
    # layer's self time includes them.
    pace.calibrate = tracer.wrap("bench.pace", pace.calibrate)
    with tracer:
        start = perf_counter()
        traced = traffic.run(work, tally, pace)
        traced_s = pace.paced_wall(start, perf_counter())
    tracer.write(out_dir / "spans.npz")

    tally.check(
        traced.digests == untraced.digests,
        "traced run left different artifacts than the untraced run",
    )
    layers = tracer.layers(pace)
    empty = {"calls": 0, "failed": 0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    for span in spec.SPANS:
        layer = layers.get(span, empty)
        metrics[f"{span}.calls"] = layer["calls"]
        metrics[f"{span}.self_s"] = layer["self_s"]
    for span in spec.EXERCISED[workload]:
        tally.check(metrics[f"{span}.calls"] > 0, f"span {span} recorded no calls on {workload}")
    decisions = traced.counts["decisions"]
    sig_ops = metrics["keys.sign.calls"] + metrics["keys.verify.calls"]
    inserts = metrics["access.pending.insert.calls"]
    metrics.update(
        {
            "keys.sig_ops_per_decision": sig_ops / decisions if decisions else 0.0,
            "identity.resolve.failed": layers.get("identity.resolve", empty)["failed"],
            "ledger.height": traced.counts["ledger.height"],
            "access.pending.admit_ratio": (
                tracer.counts["access.pending.admitted"] / inserts if inserts else 0.0
            ),
            "access.pending.peak": traced.counts["access.pending.peak"],
        }
    )
    for decision in spec.DECISIONS:
        metrics[f"access.decision.{decision}"] = tracer.counts[f"access.decision.{decision}"]
    metrics.update(
        {
            "trace.spans": len(tracer.start),
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        }
    )

    self_times = {span: metrics[f"{span}.self_s"] for span in spec.SPANS}
    chosen = spec.CHOSEN_FOR[workload]
    chosen_s = sum(self_times[s] for s in chosen)
    rival = max((s for s in spec.SPANS if s not in chosen), key=self_times.get)
    details = {
        "chosen_for": (
            f"{' + '.join(chosen)} self {chosen_s:.3f} s "
            f"({chosen_s / traced_s:.0%} of traced time); next largest {rival} "
            f"{self_times[rival]:.3f} s; {'largest' if chosen_s > self_times[rival] else 'NOT largest'}"
        ),
        "spans_file": str((out_dir / "spans.npz").relative_to(root)),
    }
    return tally, metrics, details


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    out_dir = fresh_dir(root / ".bench_run" / f"{workload}-seed{seed}-trace{int(trace)}")
    runner = run_traced if trace else run_untraced
    tally, metrics, details = runner(workload, seed, seconds, out_dir, root)

    catalogue = spec.PER_LAYER if trace else spec.END_TO_END
    units = {entry[0]: entry[1] for entry in catalogue}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with spec")

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "settings": settings(workload, seconds),
        "details": details,
        "problems": tally.problems,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(f"machine  {json.dumps(report['machine'])}")
    print(f"settings {json.dumps(report['settings'])}")
    for name, unit in units.items():
        note = details.get(name, "")
        print(f"{workload:<10} {name:<32} {metrics[name]:>14.6g} {unit:<12} {note}")
    for key in ("pace", "chosen_for", "spans_file"):
        if key in details:
            print(f"{workload:<10} {key}: {details[key]}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if tally.correct else 1
