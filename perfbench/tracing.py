"""Traced runs: spans and counts around each layer's public functions.

Each function below is wrapped, from outside the program, in every module
that holds it by name (`exact_treewidth` in decomposition, pipeline,
folios and cli, and so on), so calls between modules and inside a module
are both seen. A span is (job execution, function, parent span, start,
duration); self time is a span's duration minus its child spans. Spans and
per-function counts are kept in memory and written out when the run ends.
The `graphs` mask helpers are not wrapped: they are called millions of
times, and their cost shows in the self time of the engines calling them.
"""

import json
import time

# module -> wrapped functions
TARGETS = {
    "decomposition": ("exact_treewidth",),
    "folios": ("folio_dp", "strongly_irrelevant", "folio_bruteforce"),
    "minors": ("find_minor", "find_rooted_minor", "canonical_form"),
    "linkages": ("disjoint_paths", "count_linkages"),
    "pipeline": ("reduce", "dense_clique_minor", "clique_irrelevant_vertex"),
    "constructions": ("verify_hk_deletion",),
    "plane": ("tighten",),
    "routing": ("route_disc", "route_cylinder"),
    "wells": ("drain", "dry"),
    "cli": ("main",),
}

# useful result of a call, for the functions that report a hit ratio
HITS = {
    "folios.strongly_irrelevant": lambda result: result is True,
    "minors.find_minor": lambda result: result is not None,
}

# the per-layer metrics the benchmark reports: (function, statistic)
METRICS = (
    ("decomposition.exact_treewidth", "calls"),
    ("decomposition.exact_treewidth", "ms"),
    ("folios.folio_dp", "calls"),
    ("folios.folio_dp", "ms"),
    ("folios.strongly_irrelevant", "calls"),
    ("folios.strongly_irrelevant", "ms"),
    ("folios.strongly_irrelevant", "hit_ratio"),
    ("folios.folio_bruteforce", "calls"),
    ("folios.folio_bruteforce", "ms"),
    ("minors.find_minor", "calls"),
    ("minors.find_minor", "ms"),
    ("minors.find_minor", "hit_ratio"),
    ("minors.find_rooted_minor", "calls"),
    ("minors.find_rooted_minor", "ms"),
    ("minors.canonical_form", "calls"),
    ("minors.canonical_form", "ms"),
    ("linkages.disjoint_paths", "calls"),
    ("linkages.disjoint_paths", "ms"),
    ("linkages.count_linkages", "calls"),
    ("linkages.count_linkages", "ms"),
    ("pipeline.reduce", "ms"),
    ("pipeline.dense_clique_minor", "calls"),
    ("pipeline.dense_clique_minor", "ms"),
    ("pipeline.clique_irrelevant_vertex", "calls"),
    ("pipeline.clique_irrelevant_vertex", "ms"),
    ("constructions.verify_hk_deletion", "ms"),
    ("plane.tighten", "calls"),
    ("plane.tighten", "ms"),
    ("routing.route_disc", "calls"),
    ("routing.route_disc", "ms"),
    ("routing.route_cylinder", "calls"),
    ("routing.route_cylinder", "ms"),
    ("wells.drain", "calls"),
    ("wells.drain", "ms"),
    ("wells.dry", "calls"),
    ("wells.dry", "ms"),
    ("cli.main", "ms"),
)

UNITS = {"calls": ("count", "lower"), "ms": ("ms", "lower"), "hit_ratio": ("ratio", "higher")}

# spans kept per run; counts and self times go on past the cap
SPAN_CAP = 200_000


class Tracer:
    """Wraps the TARGETS in a freshly imported program (a dict of modules)."""

    def __init__(self, modules):
        self.modules = modules
        self.job = -1
        self.spans = []
        self.dropped = 0
        self._stack = []  # per open span: [span index or -1, child seconds]
        self._delta = {}  # function -> [calls, self seconds, hits] since take()
        self._undo = []

    def install(self):
        for mod_name, names in TARGETS.items():
            for fname in names:
                original = getattr(self.modules[mod_name], fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for module in self.modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        hit = HITS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(self.spans) < SPAN_CAP:
                index = len(self.spans)
                self.spans.append(None)
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                agg = self._delta.get(name)
                if agg is None:
                    agg = self._delta[name] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += took - frame[1]
                if index >= 0:
                    self.spans[index] = (self.job, name, parent, start, took)
            if hit is not None and hit(result):
                agg[2] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_job(self, execution):
        self.job = execution

    def take(self):
        """Per-function [calls, self seconds, hits] since the last take."""
        out, self._delta = self._delta, {}
        return out

    def write(self, path, jobs):
        """One JSON object per line: a header, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"jobs": jobs, "spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                job, name, parent, start, took = span
                fh.write(json.dumps({"job": job, "fn": name, "parent": parent,
                                     "start": round(start, 7), "s": round(took, 7)}) + "\n")


def layer_metrics(per_job, rounds):
    """Per-layer metrics per pass over the job list.

    per_job: iterable of (reference factor, {function: [calls, self s, hits]}).
    """
    total = {}
    for factor, delta in per_job:
        for name, (calls, self_s, hits) in delta.items():
            agg = total.setdefault(name, [0, 0.0, 0])
            agg[0] += calls
            agg[1] += self_s * factor
            agg[2] += hits
    metrics = {}
    for name, stat in METRICS:
        calls, self_s, hits = total.get(name, (0, 0.0, 0))
        if stat == "calls":
            value = calls / rounds
        elif stat == "ms":
            value = self_s * 1000 / rounds
        else:
            value = hits / calls if calls else 0.0
        unit = UNITS[stat][0]
        metrics[f"{name}.{stat}"] = {"value": value, "unit": unit}
    return metrics
