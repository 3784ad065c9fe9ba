"""Run the benchmark on many seeds and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json this makes ten untraced runs of
``run_seconds``, seeds 1..10, and one traced run on seed 1.  For each end-to-end metric it records the
median and quartiles of the runs and their spread (interquartile range /
median, from ``statistics.quantiles(values, n=4)``), which is what the
bounds in BENCHMARK.json are checked against.  It also records where the
numbers were taken and the map from each per-layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10  # untraced runs per workload, seeds 1..RUNS

# per-layer metric -> the end-to-end metric it should move, and where
LAYER_MAP = {
    "control.self_s": "ops_per_s on search-sampled (unranking, candidate generation, "
    "comparisons); nearly nothing on search-exhaustive",
    "control.candidates": "ops_per_s on search-sampled (memoisation); base of repeat_share",
    "control.distinct_candidates": "ops_per_s on search-sampled (memoisation)",
    "control.repeat_share": "ops_per_s on search-sampled; 0 on search-exhaustive by construction",
    "control.space_size": "none: the base for comparing seeds",
    "control.solve_calls": "none: layer-separation check (0 off the search workloads)",
    "gadgets.delete_s": "ops_per_s on both search workloads (self time of ControlInstance.delete)",
    "gadgets.delete_calls": "ops_per_s on both search workloads",
    "game.delete_players_s": "ops_per_s on both search workloads",
    "bands.restrict_s": "ops_per_s on both search workloads (BandSystem.restrict with re-validation)",
    "bands.restrict_calls": "ops_per_s on both search workloads",
    "bands.layered_s": "ops_per_s on both search workloads (delta evaluation); "
    "op_p50_ms/op_p90_ms on compile-check (cold path)",
    "bands.layered_calls": "ops_per_s on both search workloads",
    "bands.light_count_calls": "ops_per_s on both search workloads (delta evaluation)",
    "engines.enum_s": "ops_per_s and op_p90_ms on index-bare; zero calls elsewhere",
    "engines.enum_calls": "ops_per_s on index-bare; zero calls elsewhere",
    "engines.mitm_s": "ops_per_s and op_p90_ms on index-bare; zero calls elsewhere",
    "engines.mitm_calls": "ops_per_s on index-bare; zero calls elsewhere",
    "engines.dp_s": "ops_per_s and op_p90_ms on index-bare; zero calls elsewhere",
    "engines.dp_calls": "ops_per_s on index-bare; zero calls elsewhere",
    "engines.dp_cell_updates": "ops_per_s on index-bare (operation count of the weight table)",
    "engines.mitm_half_sums": "ops_per_s on index-bare (operation count of meet-in-the-middle)",
    "gadgets.build_s": "op_p50_ms on compile-check (builders plus exactify)",
    "gadgets.build_calls": "op_p50_ms on compile-check",
    "formulas.parse_s": "op_p50_ms on compile-check",
    "formulas.count_sat_s": "op_p50_ms on compile-check",
    "formulas.prefix_oracle_s": "op_p50_ms on compile-check",
    "formulas.subset_sum_s": "op_p50_ms on compile-check",
    "formulas.bitmap_bits": "op_p50_ms on compile-check (2^n x (clauses+1) per oracle call)",
    "serialize.dump_s": "op_p50_ms on compile-check",
    "serialize.load_s": "op_p50_ms on compile-check",
    "serialize.doc_bytes": "op_p50_ms on compile-check",
    "trace.overhead_s": "none: traced minus untraced time of the same rounds",
    "trace.overhead_share": "none: trace.overhead_s / untraced time",
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [line.strip() for line in lines[:-1]], time.monotonic() - start


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    sys.path[0:0] = [str(ROOT / "src")]
    import hostspeed
    import workloads

    seconds = SPEC["run_seconds"]
    baseline = {
        "provenance": {
            "python": platform.python_version(),
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "date": time.strftime("%Y-%m-%d"),
            "seconds": seconds,
            "seeds_untraced": list(range(1, RUNS + 1)),
            "seed_traced": 1,
            "runs_per_workload": RUNS,
            "sampled_trials_per_solve": workloads.SAMPLED_TRIALS,
            "search_recounts_per_solve": workloads.SEARCH_RECOUNTS,
            "index_bare_batch": list(workloads.BARE_BATCH),
            "index_bare_cross_check_every": workloads.CROSS_CHECK_EVERY,
            "compile_check_batch": workloads.COMPILE_BATCH,
            "host_probe_reference_s": hostspeed.NOMINAL_PROBE_S,
            "host_probe_every_s": hostspeed.PROBE_EVERY_S,
        },
        "why": {workload["name"]: workload["why"] for workload in SPEC["workloads"]},
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for workload in (workload["name"] for workload in SPEC["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        metrics = {
            name: _summary([result["metrics"][name]["value"] for result, _, _ in runs])
            for name in runs[0][0]["metrics"]
        }
        traced, traced_notes, _ = _run(workload, 1, seconds, 1)
        entry = {
            "end_to_end": metrics,
            "attempted": sum(result["attempted"] for result, _, _ in runs),
            "failed": sum(result["failed"] for result, _, _ in runs),
            "run_elapsed_s": [round(elapsed, 2) for _, _, elapsed in runs],
            "notes_seed_1": runs[0][1],
            "per_layer_seed_1": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_notes_seed_1": traced_notes,
        }
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
        baseline["workloads"][workload] = entry
        spreads = ", ".join(f"{name} {m['median']:.4g} (spread {m['spread']:.3f})" for name, m in metrics.items())
        print(f"{workload}: {spreads}; failed {entry['failed']}/{entry['attempted']}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
