"""Tests of the synthesis benchmark itself.

    python3 -m pytest perfbench -q

The determinism test runs two traced passes of every workload (one to two
minutes in all).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Counts that depend only on the code and the seed, never on the machine.
DETERMINISTIC_LAYER_COUNTS = (
    "spaces.states",
    "unfolding.events",
    "boolean.espresso_calls",
    "boolean.espresso_in_cubes",
    "boolean.espresso_out_cubes",
    "bdd.peak_nodes",
    "synthesis.parts_refined",
    "encoding.candidates_validated",
)
DETERMINISTIC_FACTS = ("literals", "flow.csc_signals")


def traced_pass(workload, seed):
    done = run.run_pass(workload, seed, traced=True, timeout=170)
    assert done.error is None, done.error
    return done.summary


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first = traced_pass(workload, 3)
    second = traced_pass(workload, 3)
    assert first["failures"] == [] and second["failures"] == []
    for name in DETERMINISTIC_LAYER_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    for name in DETERMINISTIC_FACTS:
        assert first["facts"][name] == second["facts"][name], name
    # Every espresso call the program counts went through a wrapped entry
    # point, so the wrap list misses no caller.
    assert first["span_calls"].get("boolean.espresso", 0) == first["layers"][
        "boolean.espresso_calls"
    ]
    assert first["layers"]["obs.unattributed_s"] < 0.05 * first["pass_s"]


def test_seed_permutes_jobs():
    zero = workloads.jobs_for("table1", 0)
    again = workloads.jobs_for("table1", 0)
    other = workloads.jobs_for("table1", 1)
    assert [j.label for j in zero] == [j.label for j in again]
    assert [j.label for j in zero] != [j.label for j in other]
    assert sorted(j.label for j in zero) == sorted(j.label for j in other)
    assert len(zero) == 76


def test_expected_literals_cover_csc_clean_jobs():
    expected = workloads.expected_literals()
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload, 0):
            if not job.resolve:
                assert job.spec in expected, job.spec
    for spec, literals in expected.items():
        if spec.startswith("muller_pipeline_"):
            assert literals == 6 * int(spec.rsplit("_", 1)[1])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in layers.PER_LAYER
    ]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
