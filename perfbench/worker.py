"""One workload in one process: set up, then run its rounds timed or traced.

Prints one JSON object as its last line.  ``run.py`` starts this file
and measures set-up from the moment it spawns the process to the
``ready`` time reported here, so interpreter start and imports count.
A timed run also reports the host-speed probes (``hostspeed.py``)
sampled while it runs, and its op times leave out the probing.  A wrong
answer exits with code 1 and names the workload, seed and op.  A traced
run writes its spans to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.

    python3 perfbench/worker.py --workload index-bare --seed 1 --rounds 2 --mode timed
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_library():
    sys.path.insert(0, str(SOURCE))
    import wvgcontrol

    if Path(wvgcontrol.__file__).resolve().parent != SOURCE / "wvgcontrol":
        raise SystemExit(f"imported wvgcontrol from {wvgcontrol.__file__}, not from {SOURCE}")
    # build_maintain notes its level-weight convention on every call
    warnings.simplefilter("ignore", wvgcontrol.gadgets.GadgetConstructionNote)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args()

    _import_library()
    import hostspeed
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.make_rounds(args.seed, args.rounds)
    result = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    sampler = contextlib.nullcontext()
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        sampler = hostspeed.Sampler()
        workloads.clock = sampler.busy_clock

    busy, latencies = [], []
    attempted = failed = 0
    with sampler:
        for number, item in enumerate(rounds):
            label = f"workload {args.workload} seed {args.seed} round {number}"
            try:
                outcome = workload.run_round(item, label, attempted)
            except workloads.WrongAnswer as error:
                print(f"wrong answer: {error}", file=sys.stderr)
                return 1
            if tracer is not None:
                tracer.end_round()
            attempted += outcome.attempted
            failed += outcome.failed
            busy.append(outcome.busy_s)
            latencies += outcome.latencies

    if tracer is None:
        result["probes"] = sampler.probes
    result.update(
        attempted=attempted,
        failed=failed,
        busy=busy,
        latencies=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        times, counts = tracer.layer_metrics()
        counts["control.space_size"] = sum(getattr(item, "space", 0) for item in rounds)
        result.update(times=times, counts=counts)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
