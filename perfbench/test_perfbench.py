"""Tests of the benchmark itself: its gates, tail rule, metric names and
tracer. Run with ``PYTHONPATH=src python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import matchop  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from common import BENCHMARK_JSON, mapping_digest, tail  # noqa: E402
from match import gate  # noqa: E402
from repro.config import CupidConfig  # noqa: E402
from repro.datasets.generator import (  # noqa: E402
    PerturbationConfig,
    SchemaGenerator,
)
from repro.io.json_io import schema_to_json  # noqa: E402
from repro.pipeline import MatchPipeline  # noqa: E402
from spans import Recorder, install, self_times  # noqa: E402


def _pair(tmp_path):
    base = SchemaGenerator(5).generate(name="base", n_leaves=14)
    copy, _ = SchemaGenerator(6).perturb(
        base, PerturbationConfig(prefix_suffix=0.0, retype=0.0)
    )
    paths = {}
    for key, schema in (("source", base), ("target", copy)):
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as handle:
            handle.write(schema_to_json(schema))
    return paths


def _digest(result):
    return mapping_digest(result.leaf_mapping, result.nonleaf_mapping)


def test_tail_needs_ten_samples_beyond():
    assert tail(range(1, 41)) == (75.0, 30, 10)
    assert tail(range(1, 40))[0] == 50.0
    assert tail(range(1, 200))[0] == 75.0
    assert tail(range(1, 201)) == (95.0, 190, 10)
    assert tail(range(1, 1001))[:2] == (99.0, 990)
    pct, value, beyond = tail([5.0] * 9)
    assert (pct, beyond) == (50.0, 4)


def test_metric_names_have_units_in_benchmark_json():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    declared = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    emitted = dict(run.END_TO_END)
    emitted.update({name: layers.unit_of(name) for name in layers.MOVES})
    assert emitted == declared
    for name in declared:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_gate_rejects_a_tampered_mapping(tmp_path):
    pair = _pair(tmp_path)
    out = str(tmp_path / "mapping.json")
    result = matchop.one_op(pair, out)
    reference = MatchPipeline.default(
        config=CupidConfig(engine="reference")
    ).run(
        matchop._read_schema(pair["source"]),
        matchop._read_schema(pair["target"]),
    )
    digest = _digest(result)
    assert digest == _digest(reference)
    tampered = mapping_digest(
        list(result.leaf_mapping)[1:], result.nonleaf_mapping
    )
    ops = [{"pair": 0, "digest": digest}, {"pair": 0, "digest": tampered}]
    assert gate(ops, [digest]) == [1]


def test_gate_rejects_a_tampered_search_response():
    requests = [("/search", b"", "corpus00.json")] * 4
    requests.append(("/ingest", b"", None))
    good, wrong = (
        json.dumps({"matches": [{"schema_id": top}], "stats": {}}).encode()
        for top in ("c0", "c1")
    )
    records = [
        (0, "u000000", 0.0, 0.1, 200, good),
        (1, "u000001", 0.0, 0.1, 200, wrong),
        (2, "u000002", 0.0, 0.1, 500, good),
        (3, "u000003", 0.0, 0.1, 200, b"not json"),
        (4, "u000004", 0.0, 0.1, 200, b'{"ids": ["new-1"]}'),
    ]
    results, problems, acknowledged = serve.check(
        requests, records, {"corpus00.json": "c0"}
    )
    assert [r["ok"] for r in results] == [True, False, False, False, True]
    assert len(problems) == 3
    assert acknowledged == ["new-1"]


def test_traced_and_untraced_ops_give_identical_mappings(tmp_path):
    pair = _pair(tmp_path)
    out = str(tmp_path / "mapping.json")
    original = MatchPipeline.__dict__["default"]
    recorder = Recorder()
    uninstall = install(recorder)
    try:
        recorder.enabled = True
        traced = _digest(matchop.one_op(pair, out, recorder))
        recorder.enabled = False
    finally:
        uninstall()
    assert MatchPipeline.__dict__["default"] is original
    names = {span[0] for span in recorder.spans}
    assert {"op", "io.parse", "linguistic.lsim", "treematch.first_pass",
            "treematch.second_pass", "mapping.leaf"} <= names
    assert traced == _digest(matchop.one_op(pair, out))


def test_self_time_subtracts_children():
    spans = [
        ("op", 0, 100, 1, None, "r", 0),
        ("linguistic.lsim", 10, 40, 2, 1, "r", 0),
        ("runtime.gc", 20, 25, 3, 2, "r", 0),
    ]
    assert [s[2] for s in self_times(spans)] == [70, 25, 5]
