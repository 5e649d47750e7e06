"""The library API that perfbench/workloads.py reads while it builds ops.

The benchmark imports the library lazily, so a library change that breaks
its op lists would otherwise show only when the benchmark runs.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
        sys.modules.pop("workloads", None)


@pytest.mark.parametrize("workload", ["sweep", "distance", "big-field", "large-n"])
def test_groups_build(workloads, workload):
    ids = [op["id"] for group in workloads.groups_for(workload) for op in group]
    assert len(ids) == len(set(ids))
    assert workloads.SMOKE_GROUP[workload] in ids
