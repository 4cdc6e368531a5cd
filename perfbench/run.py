"""Synthesis benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 15 --trace 0

Run from the root of a checkout of the repository.  Every pass over the
workload's jobs starts in a fresh interpreter (``one_pass.py``), so the
program's module-level memo caches start cold, as they do for a command
line user, and are shared by the jobs of the pass, as in a batch run.

``--trace 0`` runs untraced passes back to back until ``--seconds`` have
gone by, and at least ``MIN_PASSES``, and reports the end-to-end metrics as
medians over the passes; ``setup_s`` is the median over every pass's
set-up plus ``SETUP_ONLY_STARTS`` set-up-only starts.  ``--trace 1`` runs
pairs of an untraced and a traced pass until ``--seconds`` have gone by,
at least one pair, and reports the per-layer metrics of the fastest traced
pass, with ``obs.trace_overhead_frac`` comparing the two kinds.  Every
time is CPU time of the pass process (see ``layers.clock``), calibrated to
a reference machine speed by the probes around it (see ``probe.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a report for people.  The exit code is 0 when the run completed, even
with failed jobs (``correct`` is then false), and 2 when the program's
sources are missing or the arguments are wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics: (name, unit).  Every one is lower-is-better.
END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("literals", "count"),
    ("synth_s.unfolding-approx", "s"),
    ("synth_s.sg-bdd", "s"),
)
#: Fewest passes per run.
MIN_PASSES = 2
#: Set-up-only interpreter starts per run, on top of each pass's own.
SETUP_ONLY_STARTS = 3
#: Wall-clock budget of a whole run; a pass still going then is killed.
RUN_BUDGET_S = 170.0
#: The passes run one thread each, numpy's BLAS included.
PASS_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


class Pass:
    """Outcome of one ``one_pass.py`` process."""

    def __init__(self, setup_s, jobs, summary, error):
        self.setup_s = setup_s
        self.jobs = jobs
        self.summary = summary
        self.error = error


def run_pass(workload, seed, traced=False, setup_only=False, timeout=None):
    """Start ``one_pass.py`` in a fresh interpreter and collect its lines."""
    command = [
        sys.executable,
        os.path.join(HERE, "one_pass.py"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(
        command, cwd=ROOT, env=PASS_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    error = None
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
        error = "pass killed after %.0fs" % timeout
    setup_s = None
    jobs = []
    summary = None
    for line in out.splitlines():
        record = json.loads(line)
        if "ready" in record:
            setup_s = record["ready"] * probe.factor(record["probe_s"])
        elif "job" in record:
            jobs.append(record)
        elif "summary" in record:
            summary = record["summary"]
    if error is None and process.returncode != 0:
        error = "pass exited with %d: %s" % (process.returncode, err.strip()[-2000:])
    if error is None and summary is None and not setup_only:
        error = "pass printed no summary"
    return Pass(setup_s, jobs, summary, error)


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def pass_times(done):
    """Calibrated times of one pass: ``(pass_s, synth_s, resolve_s)``, the
    job time, the synthesis time per method and the resolve time.  Each
    step's times are brought to the reference speed by the probes around it."""
    total, synth, resolve = 0.0, {}, 0.0
    for job in done.jobs:
        for step in job["steps"]:
            factor = probe.factor(step["probe_s"])
            total += factor * step["elapsed_s"]
            resolve += factor * step["resolve_s"]
            for method, seconds in step["synth_s"].items():
                synth[method] = synth.get(method, 0.0) + factor * seconds
    return total, synth, resolve


def median_times(passes):
    """Medians over ``passes`` of :func:`pass_times`."""
    totals_s, resolves, synth = [], [], {}
    for done in passes:
        total, totals, resolve = pass_times(done)
        totals_s.append(total)
        resolves.append(resolve)
        for method, seconds in totals.items():
            synth.setdefault(method, []).append(seconds)
    return (
        _median(totals_s),
        {method: _median(times) for method, times in synth.items()},
        _median(resolves),
    )


class Run:
    """Accumulates the passes of one run and the failures they report."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.passes = []
        self.setups = []
        self.attempted = 0
        self.failures = []
        self.job_count = len(workloads.jobs_for(workload, seed))

    def elapsed(self):
        return time.monotonic() - self.started

    def remaining(self):
        return RUN_BUDGET_S - self.elapsed()

    def one(self, traced=False):
        """Run a pass and count it: its jobs are attempted, unfinished ones failed."""
        done = run_pass(
            self.workload, self.seed, traced=traced, timeout=max(self.remaining(), 1.0)
        )
        if done.setup_s is not None:
            self.setups.append(done.setup_s)
        self.attempted += self.job_count
        if done.summary is not None:
            self.failures.extend(done.summary["failures"])
            self.passes.append(done)
        else:
            self.failures.extend(
                ["unfinished job: %s" % done.error] * self.job_count
            )
        return done

    def setup_only(self):
        done = run_pass(self.workload, self.seed, setup_only=True, timeout=60)
        if done.setup_s is not None:
            self.setups.append(done.setup_s)

    @property
    def failed(self):
        return len(self.failures)

    def deterministic(self):
        """Every finished pass produced the same literal total."""
        totals = {p.summary["facts"]["literals"] for p in self.passes}
        return len(totals) <= 1


def end_to_end(run):
    """End-to-end metrics of a run: medians over its passes."""
    pass_s, synth, _resolve = median_times(run.passes)
    values = {
        "pass_s": pass_s,
        "setup_s": _median(run.setups),
        "peak_rss_mb": _median([p.summary["peak_rss_mb"] for p in run.passes]),
        "literals": _median([p.summary["facts"]["literals"] for p in run.passes]),
        "synth_s.unfolding-approx": synth.get(workloads.APPROX, 0.0),
        "synth_s.sg-bdd": synth.get(workloads.BDD, 0.0),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(plain, traced):
    """Per-layer metrics of a traced run; also the names that are absent.

    The layer figures come from the faster traced pass; the ``flow.*``
    times, and the untraced side of ``obs.trace_overhead_frac``, are
    medians over the untraced passes.
    """
    plain = [p for p in plain if p.summary is not None]
    traced = [p for p in traced if p.summary is not None]
    if not plain or not traced:
        return {name: _metric(0.0, unit) for name, unit, _b, _r in layers.PER_LAYER}, []
    best = min(traced, key=lambda p: pass_times(p)[0])
    # Calibrate seconds, and rates per second, like the job times.
    scale = pass_times(best)[0] / best.summary["pass_s"]
    powers = {"s": 1, "1/s": -1}
    found = {}
    for name, unit, _better, _requires in layers.PER_LAYER:
        if name in best.summary["layers"]:
            found[name] = best.summary["layers"][name] * scale ** powers.get(unit, 0)
    absent = list(best.summary["absent"])
    plain_s, synth, resolve = median_times(plain)
    traced_s, _synth, _resolve = median_times(traced)
    found["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0
    found["flow.synth_s.sg-explicit"] = synth.get(workloads.EXPLICIT, 0.0)
    found["flow.synth_s.unfolding-exact"] = synth.get(workloads.EXACT, 0.0)
    found["flow.resolve_s"] = resolve
    found["flow.csc_signals"] = best.summary["facts"]["flow.csc_signals"]
    if workloads.EXPLICIT not in synth:
        absent.append("flow.synth_s.sg-explicit")
    if workloads.EXACT not in synth:
        absent.append("flow.synth_s.unfolding-exact")
    if not best.summary["span_calls"].get("encoding.resolve"):
        absent.extend(["flow.resolve_s", "flow.csc_signals"])
    metrics = {name: _metric(found[name], unit) for name, unit, _b, _r in layers.PER_LAYER}
    return metrics, absent


def report(run, metrics, absent, traced):
    """Human-readable lines printed before the JSON result."""
    lines = [
        "perfbench workload=%s seed=%d trace=%d passes=%d setup_samples=%d "
        "(CPU seconds at the probe's reference speed)"
        % (run.workload, run.seed, int(traced), len(run.passes), len(run.setups))
    ]
    traced_s = metrics.get("obs.traced_pass_s", {}).get("value")
    for name, metric in metrics.items():
        if name in absent:
            lines.append("  %-34s n/a (this workload does not exercise it)" % name)
            continue
        line = "  %-34s %14.6f %s" % (name, metric["value"], metric["unit"])
        if traced_s and metric["unit"] == "s" and name.split(".")[0] not in ("flow", "obs"):
            line += "  (%.1f%% of traced pass_s)" % (100.0 * metric["value"] / traced_s)
        lines.append(line)
    if not traced and run.passes:
        _pass_s, synth, resolve = median_times(run.passes)
        lines.append("  synthesis and resolve time, median over passes:")
        for method in workloads.METHODS:
            if method in synth:
                lines.append("    synth_s.%-25s %14.6f s" % (method, synth[method]))
        if resolve:
            lines.append("    %-34s %14.6f s" % ("resolve_s", resolve))
            lines.append(
                "    %-34s %14d count"
                % ("csc_signals", run.passes[0].summary["facts"]["flow.csc_signals"])
            )
    frac = run.failed / run.attempted if run.attempted else 1.0
    lines.append(
        "  %-34s %14.6f (%d of %d jobs)" % ("failed_frac", frac, run.failed, run.attempted)
    )
    for failure in run.failures[:20]:
        lines.append("  FAILED %s" % failure)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one synthesis benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program sources at %s/src/repro" % ROOT, file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    absent = []
    last = 0.0
    if args.trace:
        plain, traced = [], []
        while not traced or run.elapsed() < args.seconds:
            if traced and run.remaining() < 2 * last + 20:
                break
            started = time.monotonic()
            plain.append(run.one())
            traced.append(run.one(traced=True))
            last = time.monotonic() - started
        metrics, absent = per_layer(plain, traced)
    else:
        while len(run.passes) < MIN_PASSES or run.elapsed() < args.seconds:
            if run.passes and run.remaining() < 2 * last + 20:
                break
            started = time.monotonic()
            done = run.one()
            last = time.monotonic() - started
            if done.summary is None:
                break
        for _ in range(SETUP_ONLY_STARTS):
            run.setup_only()
        metrics = end_to_end(run)
    correct = run.failed == 0 and bool(run.passes) and run.deterministic()
    for line in report(run, metrics, absent, bool(args.trace)):
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
