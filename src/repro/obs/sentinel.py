"""Perf-regression sentinel over the BENCH history.

:func:`evaluate` compares the newest ``BENCH_table1.json`` history entry
against a **median-of-last-K** baseline built from the entries before it
(median, not mean: one slow CI machine must not move the bar) and flags
any tracked metric that regressed beyond its per-metric threshold.
Comparisons are direction-aware -- ``states_per_sec`` regresses *down*,
``seconds`` and node counts regress *up*.

The thresholds are deliberately asymmetric: wall-clock and throughput
metrics carry wide margins (the recorded history already spans a 4x
spread on ``symbolic_reachability`` across machines), while the
deterministic BDD peak-node count is pinned tightly -- it cannot move
without a code change.

Wired up as ``repro-synth dashboard --check [--threshold PCT]`` (exit 1
on regression) and run warn-only in CI.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "TrackedMetric",
    "TRACKED_METRICS",
    "MetricCheck",
    "evaluate",
    "format_report",
]


class TrackedMetric:
    """One metric path inside a BENCH history entry.

    ``direction`` is ``"higher"`` (rates: a drop is a regression) or
    ``"lower"`` (seconds / node counts: a rise is a regression);
    ``threshold`` is the tolerated relative change (0.4 == 40%).
    """

    __slots__ = ("key", "path", "direction", "threshold")

    def __init__(self, key: str, path: Tuple[str, ...], direction: str,
                 threshold: float) -> None:
        self.key = key
        self.path = path
        self.direction = direction
        self.threshold = threshold


#: The metrics ``dashboard --check`` guards, with per-metric noise
#: tolerances.  Wall-clock/throughput metrics get 40-50% (the history is
#: shared across heterogeneous machines); the BDD peak-node count is
#: deterministic, so 10% already means a real engine change.  The BENCH
#: section keys ``symbolic_saturation_muller24`` and ``bdd_reorder_muller16``
#: predate the single chaining fixed point; they keep their names so the
#: stamped history stays one series.
TRACKED_METRICS: List[TrackedMetric] = [
    TrackedMetric(
        "muller8_explicit_seconds",
        ("muller8_sg_explicit", "packed_engine", "seconds"),
        "lower", 0.40),
    TrackedMetric(
        "unfold_recovery_states_per_sec",
        ("muller12_unfolding_state_recovery", "packed_state_dedup",
         "states_per_sec"),
        "higher", 0.40),
    TrackedMetric(
        "csc_check_states_per_sec",
        ("csc_check_states_per_sec", "states_per_sec"),
        "higher", 0.40),
    TrackedMetric(
        "csc_resolution_seconds",
        ("csc_resolution_largest", "seconds"),
        "lower", 0.40),
    TrackedMetric(
        "espresso_cubes_per_sec",
        ("espresso_cubes_per_sec", "cubes_per_sec"),
        "higher", 0.40),
    TrackedMetric(
        "csc_ranking_seconds",
        ("csc_ranking_seconds", "seconds"),
        "lower", 0.40),
    TrackedMetric(
        "symbolic_reach_states_per_sec",
        ("symbolic_reachability_states_per_sec", "states_per_sec"),
        "higher", 0.50),
    TrackedMetric(
        "symbolic_saturation_seconds",
        ("symbolic_saturation_muller24", "seconds"),
        "lower", 0.40),
    TrackedMetric(
        "explicit_kernel_numpy_states_per_sec",
        ("explicit_kernel_states_per_sec", "numpy", "states_per_sec"),
        "higher", 0.40),
    TrackedMetric(
        "bdd_peak_nodes",
        ("bdd_reorder_muller16", "peak_nodes_chaining"),
        "lower", 0.10),
]


class MetricCheck:
    """Outcome of one tracked metric: baseline, latest, verdict."""

    __slots__ = ("metric", "baseline", "latest", "change", "regressed",
                 "skipped", "reason", "limit")

    def __init__(self, metric: TrackedMetric, baseline: Optional[float],
                 latest: Optional[float], change: Optional[float],
                 regressed: bool, skipped: bool = False,
                 reason: str = "", limit: Optional[float] = None) -> None:
        self.metric = metric
        self.baseline = baseline
        self.latest = latest
        self.change = change
        self.regressed = regressed
        self.skipped = skipped
        self.reason = reason
        self.limit = metric.threshold if limit is None else limit


def _get(entry: Dict[str, object], path: Tuple[str, ...]) -> Optional[float]:
    node: object = entry
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def evaluate(history: List[Dict[str, object]], last_k: int = 3,
             threshold: Optional[float] = None) -> List[MetricCheck]:
    """Check the newest history entry against the median of the prior K.

    ``threshold`` (a fraction, e.g. ``0.25``) overrides every per-metric
    threshold when given.  Metrics missing from the latest entry or from
    *every* baseline entry are reported as skipped, never as regressions
    -- a newly added benchmark must not fail the gate retroactively.
    """
    if not history:
        raise ValueError("empty history: nothing to check")
    latest_entry = history[-1]
    baseline_entries = history[-1 - last_k:-1] if len(history) > 1 else []

    checks: List[MetricCheck] = []
    for metric in TRACKED_METRICS:
        limit = metric.threshold if threshold is None else threshold
        latest = _get(latest_entry, metric.path)
        samples = [value for value in
                   (_get(entry, metric.path) for entry in baseline_entries)
                   if value is not None]
        if latest is None:
            checks.append(MetricCheck(metric, None, None, None, False,
                                      skipped=True,
                                      reason="missing from latest entry"))
            continue
        if not samples:
            checks.append(MetricCheck(metric, None, latest, None, False,
                                      skipped=True,
                                      reason="no baseline history"))
            continue
        baseline = _median(samples)
        if baseline == 0:
            checks.append(MetricCheck(metric, baseline, latest, None, False,
                                      skipped=True, reason="zero baseline"))
            continue
        change = (latest - baseline) / baseline
        if metric.direction == "higher":
            regressed = change < -limit
        else:
            regressed = change > limit
        checks.append(MetricCheck(metric, baseline, latest, change, regressed,
                                  limit=limit))
    return checks


def format_report(checks: List[MetricCheck]) -> str:
    """Human-readable sentinel verdict, one line per tracked metric."""
    lines: List[str] = []
    regressions = [check for check in checks if check.regressed]
    for check in checks:
        metric = check.metric
        if check.skipped:
            lines.append("  skip  %-38s %s" % (metric.key, check.reason))
            continue
        arrow = "worse" if check.regressed else "ok"
        lines.append(
            "  %-5s %-38s baseline=%.6g latest=%.6g change=%+.1f%% "
            "(limit %s%.0f%%)" % (
                arrow, metric.key, check.baseline, check.latest,
                100.0 * check.change,
                "-" if metric.direction == "higher" else "+",
                100.0 * check.limit,
            ))
    if regressions:
        header = "REGRESSION: %d tracked metric(s) beyond threshold" % (
            len(regressions))
    else:
        header = "ok: %d tracked metric(s) within thresholds" % (
            sum(1 for check in checks if not check.skipped))
    return "\n".join([header] + lines)
