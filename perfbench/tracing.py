"""In-memory spans around the calls into each layer, and the per-layer metrics.

The tracer replaces public functions, in memory only, at the module that
calls them, so every call records a span: name, start, end, parent span
and op id.  Spans stay in a list until the run ends.  A layer's self time
is the duration of its spans minus the time their child spans cover.

``count_light_subsets`` runs about sixty times per search candidate, so
it gets a call counter instead of a span.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import wvgcontrol.bands
import wvgcontrol.control
import wvgcontrol.gadgets

import workloads


def _mitm_half_sums(args, result) -> int:
    others = args[0].num_players - 1
    return (1 << ((others + 1) // 2)) + (1 << (others // 2))


def _dp_cell_updates(args, result) -> int:
    return (args[0].num_players - 1) * (args[0].quota + 1)


def _bitmap_bits(args, result) -> int:
    formula = args[0]
    return (1 << formula.num_variables) * (formula.num_clauses + 1)


def _doc_bytes(args, result) -> int:
    return len(result.encode())


# (owner, attribute, span name[, (count metric, size of the call)]).
# control imports pivot_count_layered and the three engines by name,
# gadgets imports delete_players by name, and the benchmark's own calls go
# through the workloads module.  index.query and compile.op are the
# benchmark's op spans; a search candidate's op starts at its deletion.
SPANS = (
    (workloads, "solve_control", "control.solve"),
    (workloads, "compute_index", "index.query"),
    (workloads, "_compile_op", "compile.op"),
    (wvgcontrol.control, "pivot_count_layered", "bands.layered"),
    (workloads, "pivot_count_layered", "bands.layered"),
    (wvgcontrol.control, "pivot_count_enum", "engines.enum"),
    (wvgcontrol.control, "pivot_count_mitm", "engines.mitm", ("engines.mitm_half_sums", _mitm_half_sums)),
    (wvgcontrol.control, "pivot_count_weight_dp", "engines.dp", ("engines.dp_cell_updates", _dp_cell_updates)),
    (wvgcontrol.gadgets.ControlInstance, "delete", "gadgets.delete"),
    (wvgcontrol.gadgets, "delete_players", "game.delete_players"),
    (wvgcontrol.bands.BandSystem, "restrict", "bands.restrict"),
    (workloads, "build_decrease", "gadgets.build"),
    (workloads, "build_nonincrease", "gadgets.build"),
    (workloads, "build_maintain", "gadgets.build"),
    (workloads, "build_prereduction", "gadgets.build"),
    (workloads, "exactify", "gadgets.build"),
    (workloads, "parse_dimacs", "formulas.parse"),
    (workloads, "count_sat", "formulas.count_sat", ("formulas.bitmap_bits", _bitmap_bits)),
    (workloads, "e_minority_sat", "formulas.prefix_oracle", ("formulas.bitmap_bits", _bitmap_bits)),
    (workloads, "e_exact_sat", "formulas.prefix_oracle", ("formulas.bitmap_bits", _bitmap_bits)),
    (workloads, "count_subset_sum", "formulas.subset_sum"),
    (workloads, "dump_instance", "serialize.dump", ("serialize.doc_bytes", _doc_bytes)),
    (workloads, "load_instance", "serialize.load"),
)
COUNTERS = ((wvgcontrol.bands, "count_light_subsets", "bands.light_count_calls"),)
COUNT_METRICS = (
    "bands.light_count_calls",
    "engines.mitm_half_sums",
    "engines.dp_cell_updates",
    "formulas.bitmap_bits",
    "serialize.doc_bytes",
)

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "control.self_s": "control.solve",
    "gadgets.delete_s": "gadgets.delete",
    "game.delete_players_s": "game.delete_players",
    "bands.restrict_s": "bands.restrict",
    "bands.layered_s": "bands.layered",
    "engines.enum_s": "engines.enum",
    "engines.mitm_s": "engines.mitm",
    "engines.dp_s": "engines.dp",
    "gadgets.build_s": "gadgets.build",
    "formulas.parse_s": "formulas.parse",
    "formulas.count_sat_s": "formulas.count_sat",
    "formulas.prefix_oracle_s": "formulas.prefix_oracle",
    "formulas.subset_sum_s": "formulas.subset_sum",
    "serialize.dump_s": "serialize.dump",
    "serialize.load_s": "serialize.load",
}
CALLS = {
    "control.solve_calls": "control.solve",
    "gadgets.delete_calls": "gadgets.delete",
    "bands.restrict_calls": "bands.restrict",
    "bands.layered_calls": "bands.layered",
    "engines.enum_calls": "engines.enum",
    "engines.mitm_calls": "engines.mitm",
    "engines.dp_calls": "engines.dp",
    "gadgets.build_calls": "gadgets.build",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (id, name, start_ns, end_ns, parent, op)
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter[str] = Counter()
        self.candidates: set[frozenset[int]] = set()
        self.distinct = 0

    # -- recording
    def _span(self, name: str, fn, size=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            if name == "gadgets.delete" and parent >= 0 and self.spans[parent][1] == "control.solve":
                # a search candidate starts with its deletion
                self.op += 1
                self.candidates.add(frozenset(args[1]))
            elif parent < 0 and name != "control.solve":
                self.op += 1
            span_id = len(self.spans)
            self.spans.append((span_id, name, 0, 0, parent, self.op))
            self.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self.op)
            if size is not None:
                self.counts[size[0]] += size[1](args, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attribute, name, *size in SPANS:
            setattr(owner, attribute, self._span(name, getattr(owner, attribute), *size))
        for owner, attribute, name in COUNTERS:
            setattr(owner, attribute, self._counter(name, getattr(owner, attribute)))

    def end_round(self) -> None:
        """Distinct candidates are counted per solve."""
        self.distinct += len(self.candidates)
        self.candidates = set()

    def dump(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- metrics
    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self times per layer, in seconds, and the call counts."""
        child_ns: Counter[int] = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            self_ns[name] += end - start - child_ns[span_id]
            calls[name] += 1
        times = {metric: self_ns[span] / 1e9 for metric, span in SELF_TIMES.items()}
        counts = {metric: calls[span] for metric, span in CALLS.items()}
        for name in COUNT_METRICS:
            counts[name] = self.counts[name]
        counts["control.distinct_candidates"] = self.distinct
        return times, counts
