"""Per-layer tracing of one benchmark pass.

The traced pass records spans (name, start, end, parent) from the
benchmark's own code: :func:`install` replaces the public entry point of
each layer at the module (or class) attribute its caller resolves with a
wrapper that opens a span around the call.  Nothing in the program
changes.  A layer's self time is the time of its spans minus the time of
the child spans they contain; the time of the job spans that no layer
span covers is reported as unattributed, so a layer missing from
:data:`WRAPS` shows up there instead of hiding.

Work counts come from the program's own ``repro.obs`` counters (the pass
runs under ``repro.obs.tracing``) and from the public counters on result
and state-space objects.
"""

import functools
import importlib
import time
from collections import defaultdict

#: The clock of every benchmark time: CPU seconds of the pass process.  On
#: a shared host a descheduled pass loses wall-clock time that its CPU
#: time does not count (see README.md, "CPU time, calibrated").
clock = time.process_time

# (module[:Class], attributes, span name).  A callable span name picks the
# name from the call's arguments.
WRAPS = (
    ("repro.stg", ("parse_g",), "stg.parse"),
    ("repro.synthesis", ("synthesize",), "synthesis.synthesize"),
    ("repro.sim", ("simulate_implementation",), "sim.conformance"),
    ("repro.encoding", ("resolve_csc",), "encoding.resolve"),
    # boolean: espresso, at every module that calls it.
    ("repro.synthesis.sg_synthesis", ("espresso",), "boolean.espresso"),
    ("repro.synthesis.unfolding_approx", ("espresso",), "boolean.espresso"),
    ("repro.synthesis.unfolding_exact", ("espresso",), "boolean.espresso"),
    ("repro.encoding.insertion", ("espresso",), "boolean.espresso"),
    # synthesis: cover construction of the unfolding methods.
    ("repro.synthesis.unfolding_approx", ("approximate_signal_covers",), "synthesis.approx_cover"),
    ("repro.synthesis.unfolding_approx", ("refine_signal_covers",), "synthesis.refine"),
    ("repro.synthesis.unfolding_exact", ("exact_signal_covers",), "synthesis.exact_cover"),
    # unfolding
    ("repro.synthesis.unfolding_approx", ("unfold",), "unfolding.unfold"),
    ("repro.synthesis.unfolding_exact", ("unfold",), "unfolding.unfold"),
    ("repro.synthesis.unfolding_exact", ("reachable_packed_states",), "unfolding.recover"),
    # spaces (with the stategraph, kernel and bdd code under them)
    (
        "repro.synthesis.sg_synthesis",
        ("build_state_space",),
        lambda args, kwargs: "spaces.build.%s" % kwargs.get("engine", "explicit"),
    ),
    ("repro.spaces.base:StateSpace", ("conflicting_signals",), "spaces.csc_check"),
    (
        "repro.spaces.explicit:ExplicitStateSpace",
        ("on_cover", "off_cover", "set_cover", "reset_cover", "quiescent_cover", "dc_cover"),
        "spaces.cover_extract",
    ),
    (
        "repro.spaces.symbolic:SymbolicStateSpace",
        ("on_cover", "off_cover", "set_cover", "reset_cover", "quiescent_cover", "dc_cover"),
        "spaces.cover_extract",
    ),
    # encoding: the resolve_csc loop
    ("repro.encoding.resolve", ("conflict_cores",), "encoding.cores"),
    ("repro.encoding.resolve", ("candidate_regions",), "encoding.regions"),
    ("repro.encoding.resolve", ("choose_insertion",), "encoding.ranking"),
    ("repro.encoding.insertion", ("estimate_cost",), "encoding.estimate_cost"),
    ("repro.encoding.resolve", ("extend_state_graph", "build_state_graph"), "encoding.maintenance"),
    ("repro.encoding.resolve", ("projection_conforms",), "encoding.projection"),
)

#: Root span of every job; its self time is the unattributed time.
JOB_SPAN = "job"

# (metric, unit, better, span that must have run for the metric to occur).
# The ``flow.*`` metrics and ``obs.trace_overhead_frac`` come from the
# untraced passes of a traced run; the runner fills them in.
PER_LAYER = (
    ("boolean.espresso_s", "s", "lower", "boolean.espresso"),
    ("boolean.espresso_calls", "count", "lower", "boolean.espresso"),
    ("boolean.espresso_in_cubes", "count", "lower", "boolean.espresso"),
    ("boolean.espresso_out_cubes", "count", "lower", "boolean.espresso"),
    ("boolean.in_cubes_per_s", "1/s", "higher", "boolean.espresso"),
    ("synthesis.approx_cover_s", "s", "lower", "synthesis.approx_cover"),
    ("synthesis.refine_s", "s", "lower", "synthesis.refine"),
    ("synthesis.exact_cover_s", "s", "lower", "synthesis.exact_cover"),
    ("synthesis.parts_refined", "count", "lower", "synthesis.refine"),
    ("synthesis.refinement_rounds", "count", "lower", "synthesis.refine"),
    ("synthesis.self_s", "s", "lower", "synthesis.synthesize"),
    ("spaces.build_s.explicit", "s", "lower", "spaces.build.explicit"),
    ("spaces.build_s.bdd", "s", "lower", "spaces.build.bdd"),
    ("spaces.states", "count", "lower", "spaces.csc_check"),
    ("spaces.csc_check_s", "s", "lower", "spaces.csc_check"),
    ("spaces.cover_extract_s", "s", "lower", "spaces.cover_extract"),
    ("bdd.peak_nodes", "count", "lower", "spaces.build.bdd"),
    ("bdd.gc_runs", "count", "lower", "spaces.build.bdd"),
    ("bdd.fixpoint_passes", "count", "lower", "spaces.build.bdd"),
    ("unfolding.unfold_s", "s", "lower", "unfolding.unfold"),
    ("unfolding.events", "count", "lower", "unfolding.unfold"),
    ("unfolding.recover_s", "s", "lower", "unfolding.recover"),
    ("unfolding.recovered_states", "count", "lower", "unfolding.recover"),
    ("encoding.cores_s", "s", "lower", "encoding.resolve"),
    ("encoding.regions_s", "s", "lower", "encoding.resolve"),
    ("encoding.ranking_s", "s", "lower", "encoding.resolve"),
    ("encoding.maintenance_s", "s", "lower", "encoding.resolve"),
    ("encoding.projection_s", "s", "lower", "encoding.resolve"),
    ("encoding.self_s", "s", "lower", "encoding.resolve"),
    ("encoding.candidates_validated", "count", "lower", "encoding.resolve"),
    ("encoding.accept_ratio", "ratio", "higher", "encoding.resolve"),
    ("encoding.ranking_cache_hit_ratio", "ratio", "higher", "encoding.resolve"),
    ("stg.parse_s", "s", "lower", "stg.parse"),
    ("sim.conformance_s", "s", "lower", "sim.conformance"),
    ("sim.states", "count", "lower", "sim.conformance"),
    ("flow.synth_s.sg-explicit", "s", "lower", None),
    ("flow.synth_s.unfolding-exact", "s", "lower", None),
    ("flow.resolve_s", "s", "lower", None),
    ("flow.csc_signals", "count", "lower", None),
    ("obs.traced_pass_s", "s", "lower", JOB_SPAN),
    ("obs.unattributed_s", "s", "lower", JOB_SPAN),
    ("obs.trace_overhead_frac", "ratio", "lower", None),
)

# Self-time metrics: metric -> span names summed into it.
_SELF_TIME = {
    "boolean.espresso_s": ("boolean.espresso",),
    "synthesis.approx_cover_s": ("synthesis.approx_cover",),
    "synthesis.refine_s": ("synthesis.refine",),
    "synthesis.exact_cover_s": ("synthesis.exact_cover",),
    "synthesis.self_s": ("synthesis.synthesize",),
    "spaces.build_s.explicit": ("spaces.build.explicit",),
    "spaces.build_s.bdd": ("spaces.build.bdd",),
    "spaces.csc_check_s": ("spaces.csc_check",),
    "spaces.cover_extract_s": ("spaces.cover_extract",),
    "unfolding.unfold_s": ("unfolding.unfold",),
    "unfolding.recover_s": ("unfolding.recover",),
    "encoding.cores_s": ("encoding.cores",),
    "encoding.regions_s": ("encoding.regions",),
    "encoding.ranking_s": ("encoding.ranking", "encoding.estimate_cost"),
    "encoding.maintenance_s": ("encoding.maintenance",),
    "encoding.projection_s": ("encoding.projection",),
    "encoding.self_s": ("encoding.resolve",),
    "stg.parse_s": ("stg.parse",),
    "sim.conformance_s": ("sim.conformance",),
}


class SpanRecorder:
    """Spans of one pass, kept in memory as ``[name, start, end, parent]``."""

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.calls[name] += 1
        self.spans.append([name, clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = clock()

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        Calls made outside a job span (the benchmark's own correctness
        checks) are passed through unrecorded.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder._stack:
                return original(*args, **kwargs)
            recorder.open(name(args, kwargs) if callable(name) else name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close()

        setattr(owner, attr, traced)

    def self_times(self):
        """Self time per span name: span time minus its children's time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals


def install(recorder):
    """Wrap every entry point in :data:`WRAPS`; returns the recorder."""
    for target, attrs, name in WRAPS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        for attr in attrs:
            recorder.wrap(owner, attr, name)
    return recorder


def layer_metrics(recorder, obs_counters, facts, pass_s):
    """Per-layer metrics of a traced pass.

    ``obs_counters`` are the program's ``repro.obs`` counters summed over
    the pass; ``facts`` the counts the pass read off result and space
    objects.  Returns ``(metrics, absent)``: every :data:`PER_LAYER` metric
    but the ``flow.*`` and ``obs.trace_overhead_frac`` ones, which need the
    untraced pass, and the names of the metrics that cannot occur in this
    workload (reported as 0).
    """
    self_times = recorder.self_times()
    metrics = {}
    for metric, spans in _SELF_TIME.items():
        metrics[metric] = sum(self_times.get(span, 0.0) for span in spans)

    espresso_s = metrics["boolean.espresso_s"]
    in_cubes = obs_counters.get("espresso_input_cubes", 0)
    metrics["boolean.espresso_calls"] = obs_counters.get("espresso_calls", 0)
    metrics["boolean.espresso_in_cubes"] = in_cubes
    metrics["boolean.espresso_out_cubes"] = obs_counters.get("espresso_output_cubes", 0)
    metrics["boolean.in_cubes_per_s"] = in_cubes / espresso_s if espresso_s > 0 else 0.0

    for metric in (
        "synthesis.parts_refined",
        "synthesis.refinement_rounds",
        "spaces.states",
        "bdd.peak_nodes",
        "bdd.gc_runs",
        "bdd.fixpoint_passes",
        "unfolding.events",
        "unfolding.recovered_states",
        "sim.states",
    ):
        metrics[metric] = facts.get(metric, 0)

    validated = obs_counters.get("candidates_validated", 0)
    # estimate_cost looks up the ranking cache twice, once per phase.
    lookups = 2 * recorder.calls.get("encoding.estimate_cost", 0)
    metrics["encoding.candidates_validated"] = validated
    metrics["encoding.accept_ratio"] = (
        facts.get("flow.csc_signals", 0) / validated if validated else 0.0
    )
    metrics["encoding.ranking_cache_hit_ratio"] = (
        obs_counters.get("ranking_cache_hits", 0) / lookups if lookups else 0.0
    )

    attributed = sum(seconds for name, seconds in self_times.items() if name != JOB_SPAN)
    metrics["obs.traced_pass_s"] = pass_s
    metrics["obs.unattributed_s"] = pass_s - attributed

    absent = [
        metric
        for metric, _unit, _better, requires in PER_LAYER
        if requires is not None and not recorder.calls.get(requires)
    ]
    return metrics, absent

