"""Digests and sanity checks of the files a fedcurr command writes."""

from __future__ import annotations

import csv
import hashlib
import math
import os

from workloads import VERIFY_GRID, Workload

OUTPUT_FILES = ("metrics.csv", "summary.csv", "report.csv")


def output_digests(out_dir: str) -> dict[str, str]:
    """sha256 of each output file present in ``out_dir``."""
    digests = {}
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_outputs(wl: Workload, out_dir: str) -> list[str]:
    """Problems with the outputs of one command; empty when they look right."""
    try:
        if wl.command == "verify":
            return _check_report(_rows(os.path.join(out_dir, "report.csv")))
        return _check_run(
            wl,
            _rows(os.path.join(out_dir, "metrics.csv")),
            _rows(os.path.join(out_dir, "summary.csv")),
        )
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_report(rows: list[dict[str, str]]) -> list[str]:
    problems = []
    if [r["case"] for r in rows] != list(VERIFY_GRID):
        problems.append(f"report.csv cases {[r['case'] for r in rows]}")
    for r in rows:
        if r["passed"] != "1":
            problems.append(f"verify case {r['case']} failed")
        if not 0 < float(r["empirical"]) < math.inf or not 0 < float(r["bound"]) < math.inf:
            problems.append(f"verify case {r['case']} has a non-finite value")
    return problems


def _check_run(wl: Workload, metrics, summary) -> list[str]:
    problems = []
    if len(metrics) != wl.rounds:
        problems.append(f"metrics.csv has {len(metrics)} rows, expected {wl.rounds}")
    for r in metrics:
        if not 0 <= float(r["test_acc"]) <= 1 or not math.isfinite(float(r["test_loss"])):
            problems.append(f"metrics.csv row {r} out of range")
            break
    if tuple(r["ordering"] for r in summary) != wl.arms:
        problems.append(f"summary.csv arms {[r['ordering'] for r in summary]}")
    for r in summary:
        # Training that learns nothing would still be deterministic.
        if not float(r["final_acc_mean"]) > 1.0 / wl.classes:
            problems.append(f"arm {r['ordering']} ends at chance accuracy")
    return problems
