"""Tiny-scale runs of every workload through the real command line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

RUN = Path(run.__file__)


def summary(workload, trace, seconds=3):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(doc, expected_units):
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int) and 0 <= doc["failed"] <= doc["attempted"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected_units
    for metric in doc["metrics"].values():
        assert isinstance(metric["value"], float)


def test_report_cold():
    doc = summary("report_cold", 0)
    check(doc, run.END_TO_END)
    assert doc["failed"] == 0
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_report_cold_traced():
    doc = summary("report_cold", 1)
    check(doc, run.PER_LAYER)
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    assert m["simulator.simulate_marketplace_s"] > 0
    assert m["dataset.release_dataset_s"] > 0
    assert m["enrichment.enrich_dataset_calls"] == 1
    # --no-cache and no ledger: neither layer is called.
    assert m["cache.store_response_s"] == 0 and m["ledger.fidelity_probes_s"] == 0


def test_service_feed_traced():
    doc = summary("service_feed", 1)
    check(doc, run.PER_LAYER)
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    # The untimed out-of-order probe's failures are the run's only ones.
    assert doc["failed"] == m["probe.failed"] > 0
    assert m["service.snapshot_builds"] >= m["service.snapshot_versions"] >= 1
    assert m["read_samples"] == m["loadgen.reads_done"] > 0
    assert m["cache.store_response_s"] > 0  # the response cache's disk tier
    assert m["dataset.release_dataset_s"] == 0
