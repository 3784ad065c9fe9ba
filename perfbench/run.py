"""Benchmark for wvgcontrol: four seeded workloads against the public API.

    python3 perfbench/run.py --workload search-exhaustive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own single-threaded worker process
(``worker.py``).  The work is a fixed number of rounds, sized from
``--seconds`` so that one run takes about that long at the seed commit;
the same seed and seconds always give the same inputs and the same ops.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: the timed phase per round, where a round is one
  ``solve_control`` call, to its verdict, on the search workloads and one
  batch on the others; answer checks are not timed;
* ``ops_per_s``: completed ops / timed phase;

  both at the reference host speed: the timed phase as measured, scaled
  by the host-speed probes taken while it ran (``hostspeed.py``), since
  the shared host's own drift is larger than the bounds;
* ``setup_s``: spawn of a worker process until its inputs and instances
  are built, median over seventeen processes, eight before the timing
  one and eight after it, as measured (process start does not follow
  the probe, so scaling it would add noise);
* ``peak_rss_mb``: maximum RSS of the timing worker.

It also prints the unscaled ``ops_per_s``, and ``op_p50_ms``/``op_p90_ms``
(as measured) with their sample count on the workloads where an op is
its own call, and ``fail_ratio`` (refused or
raising ops / attempted ops).

``--trace 1`` runs the same rounds, fewer of them, twice traced and once
untraced, checks that both traced runs give identical counts and that
each layer is called only where expected, and reports the per-layer
metrics and the tracing overhead.  Spans go to ``.bench_out/``.

Metric names and units, and the workload names, are read from
``BENCHMARK.json``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer exits nonzero without it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170

# metric names and units, and the workloads, are those of BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
SEARCH = ("search-exhaustive", "search-sampled")

# nominal busy seconds of one round at the seed commit; sizes a run
NOMINAL_ROUND_S = {
    "search-exhaustive": 6.0,
    "search-sampled": 20.0,
    "index-bare": 0.55,
    "compile-check": 1.5,
}
# set-up-only processes before and after the timing one, so that the
# median of set-up times spans the whole run
SETUP_SAMPLES = 8

# calls that must be zero: a change that moves work into another layer shows
NOT_CALLED = {
    "search-exhaustive": ("engines.enum_calls", "engines.mitm_calls", "engines.dp_calls"),
    "search-sampled": ("engines.enum_calls", "engines.mitm_calls", "engines.dp_calls"),
    "index-bare": (
        "control.solve_calls",
        "gadgets.delete_calls",
        "gadgets.build_calls",
        "bands.restrict_calls",
        "bands.layered_calls",
        "bands.light_count_calls",
    ),
    "compile-check": (
        "control.solve_calls",
        "engines.enum_calls",
        "engines.mitm_calls",
        "engines.dp_calls",
    ),
}


class Failure(Exception):
    """The run cannot report: a worker failed or a check did not hold."""


def _worker(workload: str, seed: int, rounds: int, mode: str, deadline: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--rounds", str(rounds),
        "--mode", mode,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        raise Failure(f"{workload} seed {seed}: {mode} worker passed the run's time limit")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise Failure(f"{workload} seed {seed}: {mode} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[str]]:
    rounds = _rounds(workload, seconds)
    setups = [_worker(workload, seed, rounds, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    run = _worker(workload, seed, rounds, "timed", deadline)
    setups.append(run["setup_s"])
    setups += [_worker(workload, seed, rounds, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    completed = run["attempted"] - run["failed"]
    measured = sum(run["busy"])
    speed = hostspeed.scale(run["probes"])
    timed = measured * speed
    metrics = {
        "ops_per_s": completed / timed,
        "wall_s": timed / len(run["busy"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [
        f"rounds {len(run['busy'])}; ops {completed} completed of {run['attempted']} "
        f"in a timed phase of {measured:.3f} s measured, {timed:.3f} s at the reference speed",
        f"host speed: median probe {1000 * statistics.median(run['probes']):.4f} ms "
        f"of {len(run['probes'])}, reference {1000 * hostspeed.NOMINAL_PROBE_S:.4f} ms; "
        f"unscaled ops_per_s {completed / measured:.6g}",
        f"fail_ratio {run['failed'] / run['attempted']:.4f} ({run['failed']} / {run['attempted']} attempted)",
        f"setup_s is the median of {len(setups)} process starts, before and after the timed one, "
        f"as measured: process start does not follow the probe",
    ]
    latencies = run["latencies"]
    if latencies:
        ms = [1000 * x for x in latencies]
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
        notes.append(f"op_p50_ms {statistics.median(ms):.3f} ms, op_p90_ms {p90:.3f} ms (n={len(ms)} ops)")
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: metrics[name] for name in END_TO_END},
    }, notes


def trace(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[str]]:
    # two traced runs and one untraced run of the same rounds fill --seconds
    rounds = max(1, round(seconds / 3 / NOMINAL_ROUND_S[workload]))
    runs = [_worker(workload, seed, rounds, "traced", deadline) for _ in range(2)]
    plain = _worker(workload, seed, rounds, "timed", deadline)
    if runs[0]["counts"] != runs[1]["counts"]:
        raise Failure(f"{workload} seed {seed}: two traced runs gave different counts")
    counts = dict(runs[0]["counts"])
    called = [name for name in NOT_CALLED[workload] if counts[name]]
    if called:
        raise Failure(f"{workload} seed {seed}: layers called where none should be: {called}")
    metrics = {name: statistics.median(r["times"][name] for r in runs) for name in runs[0]["times"]}
    candidates = runs[0]["attempted"] if workload in SEARCH else 0
    counts["control.candidates"] = candidates
    counts["control.repeat_share"] = (
        1 - counts["control.distinct_candidates"] / candidates if candidates else 0.0
    )
    metrics.update(counts)
    traced_s = statistics.median(sum(r["busy"]) for r in runs)
    plain_s = sum(plain["busy"])
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    notes = [
        f"{rounds} rounds traced twice and run once untraced: {traced_s:.3f} s traced, "
        f"{plain_s:.3f} s untraced",
        f"counts identical in both traced runs; no calls to {', '.join(NOT_CALLED[workload])}",
    ]
    if candidates:
        notes.append(
            f"control.repeat_share base: {candidates} candidates, "
            f"{counts['control.distinct_candidates']} distinct"
        )
    result = {
        "attempted": runs[0]["attempted"],
        "failed": runs[0]["failed"],
        "metrics": {name: metrics[name] for name in PER_LAYER},
    }
    return result, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wvgcontrol" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'wvgcontrol'}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    run = trace if args.trace else measure
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result, notes = run(workload, args.seed, args.seconds, deadline)
        except Failure as error:
            print(f"benchmark failed: {error}", file=sys.stderr)
            return 1
        results[workload] = result
        print(f"== {workload}  seed {args.seed}  trace {args.trace}")
        for name, value in result["metrics"].items():
            print(f"  {name:<30} {value:.6g} {units[name]}")
        for note in notes:
            print(f"  # {note}")

    prefix = len(results) > 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{workload}." if prefix else "") + name: {"value": value, "unit": units[name]}
            for workload, r in results.items()
            for name, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
