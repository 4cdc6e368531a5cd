"""Workload definitions of the synthesis benchmark.

A workload is a fixed list of jobs run back to back by one process and one
thread (a closed loop).  A job is one STG, named as
:func:`repro.stg.benchmark_by_name` knows it, plus the methods that
synthesise it:

* ``table1``: the 21 Table 1 stand-ins.  unfolding-approx and sg-bdd run on
  all of them; unfolding-exact and sg-explicit on the 17 with at most 14
  signals.  One job per (spec, method).
* ``muller``: Muller pipelines.  ``muller_pipeline(8)`` (1,024 states)
  with all four methods, sg-bdd on ``muller_pipeline(10)`` (4,096 states)
  and unfolding-approx on ``muller_pipeline(11)`` (8,192 states).
* ``csc``: four CSC-conflicting specs.  One job per spec: ``resolve_csc``,
  then unfolding-approx, sg-explicit and sg-bdd on the resolved spec.

The approx circuit of every job is conformance-simulated.  This module is
plain data: it imports nothing from the program, so the runner can count a
workload's jobs without starting the program.
"""

import json
import os
import random

APPROX = "unfolding-approx"
EXACT = "unfolding-exact"
EXPLICIT = "sg-explicit"
BDD = "sg-bdd"
METHODS = (APPROX, EXACT, EXPLICIT, BDD)

#: Largest spec (in signals) the exact minterm methods run on in ``table1``.
EXACT_SIGNAL_LIMIT = 14
#: Insertion budget of ``resolve_csc``; ``csc_arbiter(10)`` needs 9 signals.
MAX_CSC_SIGNALS = 12
#: Tie-breaking seed of ``resolve_csc``.  It is fixed rather than taken from
#: the workload seed: the seed changes which signals are inserted and so
#: the work, by up to half of ``csc``'s resolve time at one machine speed,
#: which spread ``csc``'s times across seeds by up to a third.
RESOLVE_SEED = 0
#: Largest explicit state graph ``verify_implementation`` is run against
#: (the Table 1 harness's default state budget).
VERIFY_MAX_STATES = 200000
#: Per-job wall-clock budget: a job past it counts as failed, so a scaling
#: blow-up fails the run instead of hanging it.
JOB_BUDGET_S = 60.0

# (name, signals) of the Table 1 stand-ins, in suite order.
TABLE1_SPECS = (
    ("imec-master-read.csc", 18),
    ("nowick.asn", 7),
    ("nowick", 6),
    ("par_4.csc", 14),
    ("sis-master-read.csc", 14),
    ("tsbmSIBRK", 25),
    ("pn_stg_example", 6),
    ("forever_ordered", 8),
    ("alloc-outbound", 9),
    ("mp-forward-pkt", 20),
    ("nak-pa", 10),
    ("pe-send-ifc", 17),
    ("ram-read-sbuf", 11),
    ("rcv-setup", 5),
    ("sbuf-ram-write", 12),
    ("sbuf-read-ctl.old", 8),
    ("sbuf-read-ctl", 8),
    ("sbuf-send-ctl", 8),
    ("sbuf-send-pkt2", 9),
    ("sbuf-send-pkt2.yun", 9),
    ("sendr-done", 4),
)

CSC_SPECS = ("vme_read", "csc_arbiter_6", "csc_arbiter_8", "csc_arbiter_10")

WORKLOADS = ("table1", "muller", "csc")

EXPECTED_LITERALS_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected_literals.json"
)


class Job:
    """One STG and the methods that synthesise it.

    ``resolve`` runs ``resolve_csc`` first and synthesises the resolved
    spec; the approx circuit is conformance-simulated.
    """

    __slots__ = ("spec", "methods", "resolve")

    def __init__(self, spec, methods, resolve=False):
        self.spec = spec
        self.methods = tuple(methods)
        self.resolve = resolve

    @property
    def label(self):
        return "%s/%s" % (self.spec, "+".join(self.methods))

    def __repr__(self):
        return "Job(%s)" % self.label


def _base_jobs(workload):
    if workload == "table1":
        jobs = []
        for spec, signals in TABLE1_SPECS:
            jobs.append(Job(spec, [APPROX]))
            jobs.append(Job(spec, [BDD]))
            if signals <= EXACT_SIGNAL_LIMIT:
                jobs.append(Job(spec, [EXACT]))
                jobs.append(Job(spec, [EXPLICIT]))
        return jobs
    if workload == "muller":
        return [Job("muller_pipeline_8", [method]) for method in METHODS] + [
            Job("muller_pipeline_10", [BDD]),
            Job("muller_pipeline_11", [APPROX]),
        ]
    if workload == "csc":
        return [Job(spec, [APPROX, EXPLICIT, BDD], resolve=True) for spec in CSC_SPECS]
    raise KeyError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))


def jobs_for(workload, seed):
    """The workload's jobs in the order ``seed`` permutes them into.

    The seed changes only the order; every other input is fixed."""
    jobs = _base_jobs(workload)
    random.Random(seed).shuffle(jobs)
    return jobs


def spec_names(workload):
    """Distinct spec names of a workload, in first-use order of the suite."""
    names = []
    for job in _base_jobs(workload):
        if job.spec not in names:
            names.append(job.spec)
    return names


def expected_literals():
    """Expected literal count per CSC-clean spec (see the file's ``about``)."""
    with open(EXPECTED_LITERALS_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)["literals"]
