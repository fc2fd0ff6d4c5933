"""Every checked-in BENCH_*.json result file parses and speaks BENCHMARK.json's terms.

A result file holds, per workload, the end-to-end metrics of both sides
of a change (``"end_to_end"``: metric -> {"parent": stats, "change":
stats}) and the traced per-layer split (``"per_layer"``: side -> metric
-> value).  Only workloads and metrics that BENCHMARK.json lists may
appear, so a renamed metric cannot slip into a comparison unnoticed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_only_declared_workloads_and_metrics(path):
    workloads, end_to_end, per_layer = _declared()
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["workloads"], path
    for name, result in doc["workloads"].items():
        assert name in workloads, name
        assert set(result) <= {"end_to_end", "per_layer", "note"}, (name, set(result))
        for metric, sides in result.get("end_to_end", {}).items():
            assert metric in end_to_end, (name, metric)
            for side in ("parent", "change"):
                stats = sides[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric, side)
        for side, metrics in result.get("per_layer", {}).items():
            assert side in ("parent", "change"), (name, side)
            assert set(metrics) <= per_layer, (name, set(metrics) - per_layer)
