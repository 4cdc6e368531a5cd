"""BENCH history: timestamp/git stamping and the markdown dashboard.

``benchmarks/bench_table1.py --json`` historically overwrote
``BENCH_table1.json`` with an unversioned snapshot.  This module turns
that file into a history:

* :func:`stamp_report` adds ``timestamp`` (ISO 8601, UTC) and ``git_rev``
  (``git rev-parse --short HEAD``, with ``-dirty`` appended when tracked
  files differ from HEAD) to a freshly collected report;
* :func:`merge_history` folds a stamped report into the existing file --
  the newest report's fields stay at the top level (so every consumer of
  the old flat format keeps working) and the full stamped reports
  accumulate under a ``"history"`` list, oldest first.  A pre-history
  flat file is adopted as the first entry.
* :func:`render_dashboard` renders the history into the timestamped
  per-method markdown results table behind ``repro-synth dashboard``.
"""

from __future__ import annotations

import datetime
import json
import subprocess
from typing import Dict, List, Optional

__all__ = [
    "git_short_rev",
    "stamp_report",
    "merge_history",
    "load_history",
    "render_dashboard",
]

#: Top-level report keys that are measurements (everything except the
#: bookkeeping fields and the history list itself).
_META_KEYS = ("timestamp", "git_rev", "generated_by")


def _git(args: List[str], cwd: Optional[str]) -> Optional[str]:
    """Stripped stdout of a git command, or None when it cannot run."""
    try:
        out = subprocess.run(
            ["git"] + args,
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.decode("ascii", "replace").strip()


def git_short_rev(cwd: Optional[str] = None) -> Optional[str]:
    """``git rev-parse --short HEAD``, or None outside a repository.

    A tree whose tracked files differ from HEAD gets ``-dirty`` appended:
    a measurement of an uncommitted change must not carry its parent's
    revision.  Untracked files do not count.
    """
    rev = _git(["rev-parse", "--short", "HEAD"], cwd)
    if not rev:
        return None
    if _git(["status", "--porcelain", "--untracked-files=no"], cwd):
        rev += "-dirty"
    return rev


def stamp_report(report: Dict[str, object], cwd: Optional[str] = None) -> Dict[str, object]:
    """Stamp a report with an ISO UTC timestamp and the current git rev."""
    stamped = dict(report)
    stamped["timestamp"] = (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
    )
    stamped["git_rev"] = git_short_rev(cwd)
    return stamped


def _as_entry(report: Dict[str, object]) -> Dict[str, object]:
    """One history entry: a report minus any nested history list."""
    return {key: value for key, value in report.items() if key != "history"}


def merge_history(
    report: Dict[str, object],
    existing: Optional[Dict[str, object]] = None,
    max_entries: int = 50,
) -> Dict[str, object]:
    """Fold a stamped ``report`` into the (possibly old-format) ``existing``
    document.  Returns the new document: latest report at the top level,
    ``history`` holding up to ``max_entries`` stamped entries, oldest first.
    """
    history: List[Dict[str, object]] = []
    if existing:
        prior = existing.get("history")
        if isinstance(prior, list):
            history.extend(entry for entry in prior if isinstance(entry, dict))
        else:
            # Pre-history flat snapshot: adopt it as the first entry.
            history.append(_as_entry(existing))
    history.append(_as_entry(report))
    if len(history) > max_entries:
        history = history[-max_entries:]

    merged = _as_entry(report)
    merged["history"] = history
    return merged


def load_history(path: str) -> List[Dict[str, object]]:
    """History entries (oldest first) from a BENCH file of either format."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("%s: expected a JSON object" % path)
    history = payload.get("history")
    if isinstance(history, list) and history:
        return [entry for entry in history if isinstance(entry, dict)]
    return [_as_entry(payload)]


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def _fmt(value: object, digits: int = 3) -> str:
    if value is None:
        return "--"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return ("%%.%df" % digits) % value
    return str(value)


def _get(entry: Dict[str, object], *path: str) -> object:
    node: object = entry
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def _fmt_delta(value: object, previous: object, digits: int = 3) -> str:
    """Format ``value`` with its relative change vs ``previous`` inline,
    e.g. ``0.480 (-3.9%)`` -- the Run history table uses this so a
    regression is visible without running the sentinel."""
    text = _fmt(value, digits)
    if (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and isinstance(previous, (int, float)) and not isinstance(previous, bool)
        and previous != 0
    ):
        change = 100.0 * (value - previous) / previous
        text += " (%+.1f%%)" % change
    return text


def _table(headers: List[str], rows: List[List[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _method_stats(entry: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Per-method aggregates over one entry's table1 rows.

    Returns ``{method: {"rows": n, "ok": n, "total_time": s, "literals": n}}``
    derived from the ``<method>_total`` / ``<method>_literals`` /
    ``<method>_outcome`` row keys.
    """
    stats: Dict[str, Dict[str, object]] = {}
    rows = entry.get("table1_rows")
    if not isinstance(rows, list):
        return stats
    for row in rows:
        if not isinstance(row, dict):
            continue
        for key in row:
            if not key.endswith("_outcome"):
                continue
            method = key[: -len("_outcome")]
            bucket = stats.setdefault(
                method, {"rows": 0, "ok": 0, "total_time": 0.0, "literals": 0}
            )
            bucket["rows"] += 1
            if row[key] == "ok":
                bucket["ok"] += 1
            total = row.get(method + "_total")
            if isinstance(total, (int, float)):
                bucket["total_time"] += total
            literals = row.get(method + "_literals")
            if isinstance(literals, int):
                bucket["literals"] += literals
    return stats


def render_dashboard(history: List[Dict[str, object]], max_entries: int = 20) -> str:
    """Render BENCH history into the per-method markdown dashboard."""
    if not history:
        return "# BENCH dashboard\n\n(no history)\n"
    shown = history[-max_entries:]
    latest = shown[-1]

    sections: List[str] = ["# BENCH dashboard", ""]
    sections.append(
        "%d run(s) on record; latest: %s @ %s"
        % (
            len(history),
            _fmt(latest.get("timestamp") or "unstamped"),
            _fmt(latest.get("git_rev") or "unknown rev"),
        )
    )
    sections.append("")

    # -- Run history: one line per stamped BENCH run ------------------- #
    sections.append("## Run history")
    sections.append("")
    headers = [
        "timestamp", "rev", "muller8 explicit (s)", "symbolic reach (st/s)",
        "BDD nodes", "unfold recovery (st/s)", "CSC check (st/s)",
        "CSC resolve (s)", "crossover (stages)",
    ]
    metric_paths = [
        ("muller8_sg_explicit", "packed_engine", "seconds"),
        ("symbolic_reachability_states_per_sec", "states_per_sec"),
        ("symbolic_reachability_states_per_sec", "bdd_nodes"),
        ("muller12_unfolding_state_recovery", "packed_state_dedup",
         "states_per_sec"),
        ("csc_check_states_per_sec", "states_per_sec"),
        ("csc_resolution_largest", "seconds"),
        ("explicit_vs_symbolic_crossover", "symbolic_wins_from_stages"),
    ]
    rows = []
    previous_entry: Optional[Dict[str, object]] = None
    for entry in shown:
        row = [
            _fmt(entry.get("timestamp") or "--"),
            _fmt(entry.get("git_rev") or "--"),
        ]
        for path in metric_paths:
            value = _get(entry, *path)
            previous = (
                _get(previous_entry, *path) if previous_entry is not None
                else None
            )
            row.append(_fmt_delta(value, previous))
        rows.append(row)
        previous_entry = entry
    sections.append(_table(headers, rows))
    sections.append("")

    # -- Per-method history: suite totals per run ---------------------- #
    methods: List[str] = []
    per_entry_stats = []
    for entry in shown:
        stats = _method_stats(entry)
        per_entry_stats.append(stats)
        for method in stats:
            if method not in methods:
                methods.append(method)
    methods.sort()

    if methods:
        sections.append("## Per-method suite totals (Table 1 rows)")
        sections.append("")
        headers = ["timestamp", "rev"]
        for method in methods:
            headers.append("%s (s)" % method)
            headers.append("%s ok" % method)
        rows = []
        for entry, stats in zip(shown, per_entry_stats):
            row = [
                _fmt(entry.get("timestamp") or "--"),
                _fmt(entry.get("git_rev") or "--"),
            ]
            for method in methods:
                bucket = stats.get(method)
                if bucket is None:
                    row.extend(["--", "--"])
                else:
                    row.append(_fmt(round(bucket["total_time"], 4)))
                    row.append("%d/%d" % (bucket["ok"], bucket["rows"]))
            rows.append(row)
        sections.append(_table(headers, rows))
        sections.append("")

    # -- Latest run, per-benchmark Table 1 ----------------------------- #
    latest_rows = latest.get("table1_rows")
    if isinstance(latest_rows, list) and latest_rows:
        latest_methods = sorted(_method_stats(latest).keys())
        sections.append("## Latest Table 1 (per benchmark)")
        sections.append("")
        headers = ["benchmark", "signals"]
        for method in latest_methods:
            headers.append("%s (s)" % method)
            headers.append("%s lits" % method)
        rows = []
        for row in latest_rows:
            if not isinstance(row, dict):
                continue
            line = [_fmt(row.get("benchmark")), _fmt(row.get("signals"))]
            for method in latest_methods:
                outcome = row.get(method + "_outcome")
                if outcome and outcome != "ok":
                    line.extend([str(outcome), "--"])
                else:
                    line.append(_fmt(row.get(method + "_total"), digits=4))
                    line.append(_fmt(row.get(method + "_literals")))
            rows.append(line)
        sections.append(_table(headers, rows))
        sections.append("")

    return "\n".join(sections)
