"""One pass over a workload's jobs, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload table1 --seed 0 [--trace] [--setup-only]

Every time is CPU time of this process (:data:`layers.clock`).  Set-up
(interpreter start, imports with the numpy kernel probe, spec generation
and ``.g`` serialisation, and a warm-up: every method, the conformance
simulator and ``resolve_csc`` once on a 3-signal spec, so that the
interpreter's first-use costs land in set-up instead of in whichever job a
seed puts first) ends with a ``{"ready": t, "probe_s": [...]}`` line, ``t``
being the CPU seconds the process has used so far, and the speed probes
(:mod:`probe`) taken right after.  Then each job prints one ``{"job": ...}``
line, with the probes on either side of each of its steps, and the pass
ends with one ``{"summary": ...}`` line.

A job parses its spec's ``.g`` text, runs ``resolve_csc`` when the job asks
for it, synthesises with each of its methods and conformance-simulates the
unfolding-approx circuit.  Only that is timed, step by step (see
:func:`run_job`), with the speed probes between the steps.  Between jobs a
garbage collection keeps one job's cyclic garbage out of the next one's
time and memory.  Peak memory is read when the last job ends.  The
correctness gate then runs on every job, untimed: a job fails when it
raised, overran
``JOB_BUDGET_S``, got a conformance verdict other than ``ok``, fails
``verify_implementation`` (when the explicit state graph fits
``VERIFY_MAX_STATES``), or gives a literal count other than the expected
file's.  A job that resolves CSC instead needs ``resolved=True`` and a
CSC-clean, verified circuit from every method.

With ``--trace`` the pass runs under ``repro.obs.tracing`` with the layer
wrappers of :mod:`layers` installed, and the summary carries the per-layer
metrics.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import repro.encoding  # noqa: E402
import repro.obs  # noqa: E402
import repro.sim  # noqa: E402
import repro.stg  # noqa: E402
import repro.synthesis  # noqa: E402
from repro.petrinet import StateSpaceLimitExceeded  # noqa: E402
from repro.stategraph import build_state_graph  # noqa: E402

import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from layers import clock  # noqa: E402
from workloads import APPROX, BDD, EXACT, EXPLICIT  # noqa: E402

#: Step name of ``resolve_csc``; the other steps are named by their method.
RESOLVE = "resolve"

FACTS = (
    "literals",
    "spaces.states",
    "bdd.peak_nodes",
    "bdd.gc_runs",
    "bdd.fixpoint_passes",
    "unfolding.events",
    "unfolding.recovered_states",
    "synthesis.parts_refined",
    "synthesis.refinement_rounds",
    "sim.states",
    "flow.csc_signals",
)


class JobTimeout(BaseException):
    """Raised by the SIGALRM handler when a job overruns its budget.

    A ``BaseException`` so that no ``except Exception`` in the program can
    swallow it.
    """


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


class Outcome:
    """What the correctness gate needs of a finished job."""

    def __init__(self):
        self.stg = None
        self.encoding = None
        self.circuits = {}  # method -> (implementation, literals, csc_resolved, states)
        self.verdict = None


def run_step(name, outcome, results, facts, step):
    """Run one step of a job on ``outcome.stg``: ``resolve_csc`` or one
    method's synthesis.  The unfolding-approx step also
    conformance-simulates its circuit.
    """
    if name == RESOLVE:
        t0 = clock()
        outcome.encoding = repro.encoding.resolve_csc(
            outcome.stg, seed=workloads.RESOLVE_SEED, max_signals=workloads.MAX_CSC_SIGNALS
        )
        step["resolve_s"] = clock() - t0
        outcome.stg = outcome.encoding.stg
        return
    t0 = clock()
    results[name] = repro.synthesis.synthesize(outcome.stg, method=name)
    step["synth_s"][name] = clock() - t0
    if name == APPROX:
        exploration = repro.sim.simulate_implementation(
            outcome.stg, results[name].implementation
        )
        outcome.verdict = exploration.verdict()
        facts["sim.states"] += exploration.num_states


def run_job(job, text, recorder, facts, before):
    """Run one job and add its work counts to ``facts``.

    The job runs as steps (:func:`run_step`), each timed on its own, with
    speed probes between them; ``before`` are the probes taken before the
    first step, which also parses the spec.  Returns ``(record, outcome, after)``, ``after`` being the
    probes taken after the last step.  The synthesis results themselves are
    dropped here, so that what the gate keeps stays small.
    """
    record = {"job": job.label, "steps": [], "failure": None}
    outcome = Outcome()
    results = {}
    names = ([RESOLVE] if job.resolve else []) + list(job.methods)
    signal.setitimer(signal.ITIMER_REAL, workloads.JOB_BUDGET_S)
    try:
        for index, name in enumerate(names):
            step = {"step": name, "synth_s": {}, "resolve_s": 0.0, "probe_s": before}
            record["steps"].append(step)
            start = clock()
            if recorder is not None:
                recorder.open(layers.JOB_SPAN)
            try:
                if index == 0:
                    outcome.stg = repro.stg.parse_g(text, name=job.spec)
                run_step(name, outcome, results, facts, step)
            finally:
                if recorder is not None:
                    recorder.close()
                step["elapsed_s"] = clock() - start
            before = probe.probes_after(step["elapsed_s"])
            step["probe_s"] = step["probe_s"] + before
    except JobTimeout:
        record["failure"] = "timeout after %gs" % workloads.JOB_BUDGET_S
    except Exception as exc:  # a failed job is counted, the pass goes on
        record["failure"] = "%s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["elapsed_s"] = sum(step["elapsed_s"] for step in record["steps"])
    for method, result in results.items():
        outcome.circuits[method] = (
            result.implementation,
            result.literal_count,
            result.csc_resolved,
            result.num_states,
        )
        _add_facts(facts, method, result)
    if outcome.encoding is not None:
        facts["flow.csc_signals"] += outcome.encoding.num_inserted
    return record, outcome, before


def _add_facts(facts, method, result):
    """Work counts read off a synthesis result and its state space."""
    facts["literals"] += result.literal_count
    if method in (EXPLICIT, BDD):
        facts["spaces.states"] += result.num_states
    if method == BDD:
        space = result.details.space
        facts["bdd.peak_nodes"] = max(facts["bdd.peak_nodes"], space.peak_bdd_nodes)
        facts["bdd.gc_runs"] += space.gc_runs
        facts["bdd.fixpoint_passes"] += space.iterations
    if method in (APPROX, EXACT):
        facts["unfolding.events"] += result.details.segment.num_events
    if method == EXACT:
        facts["unfolding.recovered_states"] += result.num_states
    if method == APPROX:
        facts["synthesis.parts_refined"] += result.details.total_parts_refined
        facts["synthesis.refinement_rounds"] += result.details.total_refinement_rounds


def check_job(job, outcome, expected, graph):
    """The correctness gate: ``None`` when the job's outputs are right.

    ``graph`` is the explicit state graph of a CSC-clean spec, or ``None``
    when it does not fit the verification budget.
    """
    if outcome.verdict is not None and outcome.verdict != "ok":
        return "conformance verdict %s" % outcome.verdict
    if job.resolve:
        if not outcome.encoding.resolved:
            return "resolve_csc left the spec unresolved"
        for method, (_impl, _literals, clean, _states) in outcome.circuits.items():
            if not clean:
                return "%s circuit keeps CSC conflicts" % method
        graph = outcome.encoding.graph
    else:
        want = expected.get(job.spec)
        for method, (_impl, literals, _clean, _states) in outcome.circuits.items():
            if literals != want:
                return "%s gives %d literals, expected %s" % (method, literals, want)
    if graph is not None:
        for method, (implementation, _literals, _clean, _states) in outcome.circuits.items():
            verdict = repro.synthesis.verify_implementation(
                outcome.stg, implementation, state_graph=graph
            )
            if not verdict.ok:
                return "%s fails verify_implementation: %s" % (method, verdict.errors[0])
    return None


def verification_graph(outcomes):
    """Explicit state graph of a CSC-clean spec, or ``None`` past the budget."""
    sizes = [
        states
        for outcome in outcomes
        for method, (_impl, _literals, _clean, states) in outcome.circuits.items()
        if method in (EXPLICIT, BDD)
    ]
    if sizes and max(sizes) > workloads.VERIFY_MAX_STATES:
        return None
    try:
        return build_state_graph(outcomes[0].stg, max_states=workloads.VERIFY_MAX_STATES)
    except StateSpaceLimitExceeded:
        return None


def check_jobs(workload, jobs, records, outcomes):
    """Run the correctness gate on every job that finished, spec by spec."""
    expected = workloads.expected_literals()
    for spec in workloads.spec_names(workload):
        finished = [
            i for i, job in enumerate(jobs) if job.spec == spec and records[i]["failure"] is None
        ]
        graph = None
        if finished and not jobs[finished[0]].resolve:
            graph = verification_graph([outcomes[i] for i in finished])
        for i in finished:
            records[i]["failure"] = check_job(jobs[i], outcomes[i], expected, graph)


def warm_up():
    """Run every method, the simulator and ``resolve_csc`` on tiny specs."""
    stg = repro.stg.parse_g(repro.stg.write_g(repro.stg.paper_example()), name="warm-up")
    for method in workloads.METHODS:
        result = repro.synthesis.synthesize(stg, method=method)
    repro.sim.simulate_implementation(stg, result.implementation)
    repro.encoding.resolve_csc(repro.stg.csc_conflict_example())


def run_jobs(jobs, texts, recorder, before):
    """Run the jobs back to back; returns ``(records, outcomes, facts)``.

    ``before`` are the probe times taken before the first job.
    """
    facts = dict.fromkeys(FACTS, 0)
    records, outcomes = [], []
    for job in jobs:
        record, outcome, before = run_job(job, texts[job.spec], recorder, facts, before)
        records.append(record)
        outcomes.append(outcome)
        gc.collect()
    return records, outcomes, facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    texts = {}
    for name in workloads.spec_names(args.workload):
        texts[name] = repro.stg.write_g(repro.stg.benchmark_by_name(name).build())
    warm_up()
    gc.collect()
    ready = clock()
    before = probe.probes(probe.MIN_PROBES)
    emit({"ready": ready, "probe_s": before})
    if args.setup_only:
        return 0

    jobs = workloads.jobs_for(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    recorder = layers.install(layers.SpanRecorder()) if args.trace else None
    tracer = repro.obs.tracing("perfbench") if args.trace else contextlib.nullcontext()
    with tracer as obs_tracer:
        records, outcomes, facts = run_jobs(jobs, texts, recorder, before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_jobs(args.workload, jobs, records, outcomes)
    for record in records:
        emit(record)

    pass_s = sum(record["elapsed_s"] for record in records)
    failures = [
        "%s: %s" % (record["job"], record["failure"])
        for record in records
        if record["failure"] is not None
    ]
    summary = {
        "pass_s": pass_s,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "facts": facts,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        counters = repro.obs.span_summary(obs_tracer.root)["counters"]
        summary["layers"], summary["absent"] = layers.layer_metrics(
            recorder, counters, facts, pass_s
        )
        summary["span_calls"] = dict(recorder.calls)
    emit({"summary": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main())
