"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracing
import workloads


@pytest.mark.parametrize(
    "n, expected",
    [
        (1418, (99.0, 14)),  # a sweep pass
        (1000, (99.0, 10)),
        (999, (90.0, 99)),
        (10000, (99.9, 10)),
        (20, (50.0, 10)),
        (8, (None, 0)),  # a distance pass: no tail at all
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 99) == 99
    assert run.percentile(values, 50) == 50
    assert run.percentile([7.0], 99) == 7.0
    assert run.percentile([3, 1, 2], 99) == 3


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, "a"],
        ["gf.build_tower", 1.0, 4.0, 0, "a"],
        ["gf.make_field", 2.0, 3.0, 1, "a"],
        ["codes.min_distance", 3.0, 6.0, 0, "a"],  # overlaps its sibling
        ["op", 10.0, 12.0, -1, "b"],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 3.0, 2.0]
    assert tracing.inclusive_time(spans, {"op"}) == 12.0
    assert tracing.inclusive_time(spans, {"gf.build_tower", "gf.make_field"}) == 3.0
    assert [tracing.layer_of(s[0]) for s in spans[:2]] == ["harness", "gf"]


def test_nested_same_name_counts_once():
    spans = [
        ["duadic.verify_certificate", 0.0, 4.0, -1, "a"],
        ["duadic.verify_splitting", 1.0, 2.0, 0, "a"],
        ["duadic.verify_splitting", 5.0, 6.0, -1, "a"],
    ]
    names = {"duadic.verify_certificate", "duadic.verify_splitting"}
    assert tracing.inclusive_time(spans, names) == 5.0


def _record(text, rc=0):
    return {"id": "x", "rc": rc, "sha256": workloads.digest(text), "errors": []}


def test_one_byte_stdout_change_fails():
    text = json.dumps({"q": 13, "n": 14, "min_distance": 9}, indent=2) + "\n"
    golden = [0, workloads.digest(text)]
    assert run.op_errors(_record(text), golden) == []
    changed = text.replace("9", "8", 1)
    assert len(changed) == len(text) and changed != text
    assert run.op_errors(_record(changed), golden) == ["stdout differs from the golden output"]
    assert run.op_errors(_record(text, rc=1), golden) == ["exit code 1, golden 0"]

    passes = [{"ops": [_record(text)]}, {"ops": [_record(changed)]}]
    attempted, failed, notes = run.check_passes(passes, {"x": golden})
    assert (attempted, failed) == (2, 1)
    assert "stdout differs between passes" in notes[0]


def test_verify_transcript_must_extend_the_split_checks():
    split = json.dumps({"checks": [{"name": "t-unit", "pass": True}]})
    good = {"ok": True, "checks": [{"name": "t-unit", "pass": True},
                                   {"name": "r-matches", "pass": True}]}
    assert workloads.verify_errors(split, json.dumps(good)) == []
    bad = {"ok": True, "checks": [{"name": "r-matches", "pass": True}]}
    assert workloads.verify_errors(split, json.dumps(bad)) == [
        "verify transcript does not match the split's checks"
    ]


def test_seed_permutes_order_only():
    a = workloads.op_list("distance", 1)
    b = workloads.op_list("distance", 2)
    assert sorted(op["id"] for op in a) == sorted(op["id"] for op in b)
    assert [op["id"] for op in a] != [op["id"] for op in b]
    ops = workloads.op_list("large-n", 5)
    for i, op in enumerate(ops):  # each verify directly follows its split
        if "stdin_from" in op:
            assert ops[i - 1]["id"] == op["stdin_from"]


def test_smoke_mode_runs_one_op_per_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (5, 0)
