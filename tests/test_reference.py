"""The seed-0 operator-flows outputs against the benchmark's stored reference.

Runs every invocation of the operator-flows workload in perfbench/workloads.py
in-process at seed 0 and checks its outputs with the benchmark's own
check_outputs against perfbench/reference.json, so a change that moves an
output past the reference tolerance fails here too.  perfbench/ is only read.
"""

import importlib.util
import json
import os
import sys

from ncflow.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference(workload):
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        return json.load(fh)[workload]


def test_operator_flows_at_seed_0_pass_the_benchmark_reference(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    workload = workloads.WORKLOADS["operator-flows"](0)
    reference = _reference(workload.name)
    monkeypatch.delenv("NCFLOW_CACHE_DIR", raising=False)
    assert {inv.cache for inv in workload.invocations} == {"none"}
    failures = {}
    for inv in workload.invocations:
        config = tmp_path / f"{inv.name}.config.json"
        config.write_text(json.dumps(inv.config))
        out = tmp_path / inv.name
        argv = ["--config", str(config), "--out", str(out), "--workers", "1"]
        assert main(argv) == 0, inv.name
        csv_text = (out / f"{inv.name}.csv").read_text()
        sidecar = json.loads((out / f"{inv.name}.json").read_text())
        failures[inv.name] = workloads.check_outputs(
            inv.name, csv_text, sidecar, reference[inv.name]
        )
    assert failures == {inv.name: [] for inv in workload.invocations}
