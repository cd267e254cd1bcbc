"""The benchmark's result line keeps every metric that BENCHMARK.json declares.

Runs the benchmark command briefly on the `fast` workload, untraced and
traced, and on the `survey` workload traced, and reads its last two lines
of output.  A library change that removes or renames a function a
per-layer metric is computed from shows up here as a missing metric or a
nonempty `absent` list.  Brief `oracle`, `decompose` and `survey` runs at
the default seed check their verdicts, certificates, tables, witnesses and
survey CSVs against the output digests the benchmark records.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    """(info, result) lines of a 0.1 s benchmark run."""
    command = [sys.executable, *CONTRACT["command"][1:]]
    proc = subprocess.run([*command, "--workload", workload, "--seconds", "0.1",
                           "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line), json.loads(result_line)


def _assert_every_declared_metric(workload, trace, group):
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {metric["name"] for metric in CONTRACT[group]}
    assert declared <= set(result["metrics"])
    assert info["info"].get("absent", []) == []


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_fast_run_reports_every_declared_metric(trace, group):
    _assert_every_declared_metric("fast", trace, group)


def test_survey_traced_run_reports_every_declared_metric():
    _assert_every_declared_metric("survey", "1", "per_layer")


def test_oracle_run_keeps_the_recorded_digest():
    # the default seed's output digest covers every verdict and certificate
    info, result = _run("oracle", "0")
    assert result["correct"] is True and result["failed"] == 0
    assert info["info"]["seed"] == 0


def test_decompose_run_keeps_the_recorded_digest():
    # the default seed's output digest covers every table and witness
    info, result = _run("decompose", "0")
    assert result["correct"] is True and result["failed"] == 0
    assert info["info"]["seed"] == 0


def test_survey_run_keeps_the_recorded_digests():
    # the survey CSV digest and the --workers 1 vs 2 parity CSV digest
    info, result = _run("survey", "0")
    assert result["correct"] is True and result["failed"] == 0
