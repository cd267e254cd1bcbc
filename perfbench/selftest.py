"""Self-test of the benchmark: computed counts and digests must repeat.

Runs the traced benchmark of every workload twice with one seed and once
with another, each in a fresh process, and requires:

* identical per-layer counts (every metric whose unit is not seconds) and
  identical output digests for the two runs with the same seed;
* a different input digest for the other seed (the survey takes no seed
  and is skipped there).

Usage, from the root of a checkout (a few minutes; exit code 0 on success):

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("oracle", "fast", "decompose", "survey")
SEED = 1


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info_line, result_line = proc.stdout.splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)["metrics"]


def counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"
            and name != "trace.overhead_ratio"}


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        info1, metrics1 = traced(workload, SEED)
        info2, metrics2 = traced(workload, SEED)
        if counts(metrics1) != counts(metrics2):
            diff = {k: (v, counts(metrics2).get(k)) for k, v in counts(metrics1).items()
                    if counts(metrics2).get(k) != v}
            failures.append(f"{workload}: counts differ between equal seeds: {diff}")
        if info1["output_digest"] != info2["output_digest"]:
            failures.append(f"{workload}: output digests differ between equal seeds")
        if workload != "survey":
            other, _ = traced(workload, SEED + 1)
            if other["input_digest"] == info1["input_digest"]:
                failures.append(f"{workload}: seeds {SEED} and {SEED + 1} gave the same inputs")
        print(f"{workload}: {len(counts(metrics1))} counts checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
