"""basicsets benchmark: seeded CLI workloads driven in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

One closed-loop client in one process calls `basicsets.cli.main` with argv
lists, one operation after another, over the workload's whole input list
(a pass) until `--seconds` of passes have been measured.  Every output is
checked by `verify.py`, which shares no code with the library.

`--trace 0` prints the end-to-end metrics, with operation times in the
reference units of `speed.py`.  `--trace 1` runs untraced passes
for half the time and traced passes for the other half, and prints the
per-layer metrics of the traced passes, per pass, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is an
`info` object (interpreter, nproc, module line counts, pass and input
properties, `fail_ratio`).  The exit code is 0 only when every check passed.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs
import verify
from spans import Tracer, unit_of
from speed import NOMINAL_SECONDS, ReferenceClock

WORK = Path(__file__).resolve().parent / "_work"
SRC = Path(__file__).resolve().parent.parent / "src"

# setup_s is the median of SETUP_BATCH set-ups before each pass, SETUP_REPEATS at least.
SETUP_BATCH = 4
SETUP_REPEATS = 16
DEFAULT_SEED = 0

# sha256 of "<exit code>\n<stdout>" over one pass, recorded at the commit
# that introduced the benchmark.  They hold the README's promise that output
# is byte-identical from run to run and release to release.
DEFAULT_SEED_DIGESTS = {
    "oracle": "d20e8a64d2e19a674202933059c7a1f8e9fc84258ad879c1cafcc99933ea8945",
    "fast": "88c2c2c9efcc67ade231a8e0354f96696f1cf7ab9fe084527047de427a57848c",
    "decompose": "13fbd8b35d19b8808c581a751c68455cbfbb41513aa1dfa4085a19a810e4e984",
}
SURVEY_CSV_DIGEST = "5dd4acb98c6fbf376c704d1f19df4b85e4f3fdc5c80fdccb7abcdd86d8bbb232"
PARITY_CSV_DIGEST = "21c66ae88fe7b6a6739eb648529bb091c31ce16f4796dabc46c8f26cd73dde10"


def latency_figures(table, passes: range) -> tuple[float, float, float]:
    """(typical pass time, p50, p90) from `table`, one row of operation times
    per pass.  An operation's typical time is its median across `passes`,
    which keeps one slow pass from moving it; the figures are the sum and
    the deciles of those over the operations.  The survey is one operation
    per pass, too few for a tail, so there both deciles are its pass time."""
    typical = [statistics.median(table[p][i] for p in passes) for i in range(len(table[0]))]
    if len(typical) == 1:
        return typical[0], typical[0], typical[0]
    deciles = statistics.quantiles(typical, n=10, method="inclusive")
    return sum(typical), deciles[4], deciles[8]


def import_library():
    """(Re-)import basicsets from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "basicsets" or m.startswith("basicsets.")]:
        del sys.modules[name]
    cli = importlib.import_module("basicsets.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported basicsets from {cli.__file__}, outside {SRC}")
    return cli


def call(argv) -> tuple[int | None, str, float, float]:
    """Run one CLI operation; returns (exit code or None on a crash, stdout, start, end)."""
    cli = sys.modules["basicsets.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
        end = perf_counter()
    if code is None or err.getvalue():
        sys.stderr.write(f"{' '.join(argv[:2])}: {err.getvalue()}")
    return code, out.getvalue(), start, end


def set_up(workload: str, seed: int):
    """Import, input generation and warm-up: what a user pays before the first
    result.  Returns (seconds, reference units, inputs)."""
    with ReferenceClock() as clock:
        start = perf_counter()
        import_library()
        ops = inputs.build(workload, seed, WORK)
        for argv in inputs.warmup_ops(workload, ops):
            call(argv)
        end = perf_counter()
    return *clock.measure(start, end), ops


class Passes:
    """Timed passes over one input list; outputs of the first pass are kept."""

    def __init__(self, ops, reference: bool):
        self.ops = ops
        self.reference = reference  # time passes in reference units too
        self.first: list[tuple[int | None, str]] | None = None
        self.walls: list[float] = []
        self.latencies: list[list[float]] = []  # seconds, per pass, per operation
        self.units: list[list[float]] = []      # reference units, likewise
        self.reference_s: list[float] = []     # median reference time, per pass
        self.mismatches = 0

    def run(self, seconds: float, before_pass=None, after_pass=None) -> range:
        """Passes until `seconds` of pass time is spent; returns their indices."""
        begin = self.count
        while self.count == begin or sum(self.walls[begin:]) < seconds:
            if before_pass:
                before_pass(self.count)
            outputs, spans = [], []
            start = perf_counter()
            with ReferenceClock() if self.reference else contextlib.nullcontext() as clock:
                for op in self.ops:
                    code, out, op_start, op_end = call(op.argv)
                    outputs.append((code, out))
                    spans.append((op_start, op_end))
            self.walls.append(perf_counter() - start)
            if clock:
                measured = [clock.measure(*span) for span in spans]
                self.latencies.append([m[0] for m in measured])
                self.units.append([m[1] for m in measured])
                self.reference_s.append(clock.median_length())
            else:
                self.latencies.append([end - start for start, end in spans])
            if after_pass:
                after_pass()
            if self.first is None:
                self.first = outputs
            else:
                # Same input, so any difference breaks the determinism contract.
                self.mismatches += sum(a != b for a, b in zip(outputs, self.first))
        return range(begin, self.count)

    @property
    def count(self) -> int:
        return len(self.walls)

    @property
    def attempted(self) -> int:
        return self.count * len(self.ops)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for code, out in outputs:
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


def input_digest(ops) -> str:
    """Digest of the generated inputs, independent of where the checkout lives."""
    h = hashlib.sha256()
    for op in ops:
        paths = {path for path, _ in op.files}
        h.update(" ".join(a for a in op.argv if a not in paths).encode())
        for _, text in op.files:
            h.update(text.encode())
    return h.hexdigest()


def csv_rows(out: str) -> int:
    return max(0, len(out.splitlines()) - 1)


def check_outputs(workload: str, seed: int, passes: Passes) -> tuple[int, list[str], dict]:
    """Failures over every pass, messages, and properties of the inputs and outputs."""
    problems = []
    props: dict = {}
    if workload == "survey":
        code, out = passes.first[0]
        rows = csv_rows(out)
        props = {"rows": rows}
        if code != 0 or rows != inputs.SURVEY_ROWS:
            problems.append(f"survey: exit {code}, {rows} rows, expected {inputs.SURVEY_ROWS}")
        if hashlib.sha256(out.encode()).hexdigest() != SURVEY_CSV_DIGEST:
            problems.append("survey: CSV digest differs from the recorded one")
        failed = passes.count if problems else 0
    else:
        failing = 0
        kinds: dict = {}
        for op, (code, out) in zip(passes.ops, passes.first):
            try:
                if code is None:
                    problem = "operation raised"
                elif workload == "decompose":
                    problem = verify.decompose_problem(op.points, op.values, code, out)
                else:
                    problem = verify.check_problem(op.points, code, out)
            except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
                problem = f"malformed output: {exc!r}"
            if problem:
                failing += 1
                problems.append(f"{op.kind} {op.argv[1]}: {problem}")
                outcome = "failed"
            else:
                payload = json.loads(out)
                outcome = payload.get("verdict") or payload.get("status")
            kinds.setdefault(op.kind, {}).setdefault(outcome, 0)
            kinds[op.kind][outcome] += 1
        failed = failing * passes.count
        sizes = [len(op.points) for op in passes.ops]
        props = {"ops_per_pass": len(passes.ops), "points_min": min(sizes),
                 "points_max": max(sizes), "points_total": sum(sizes), "outcomes": kinds}
        if workload == "decompose":
            props["max_denominator"] = max(v.denominator for op in passes.ops
                                           for v in op.values.values())
        if seed == DEFAULT_SEED and digest(passes.first) != DEFAULT_SEED_DIGESTS[workload]:
            failed += 1
            problems.append(f"{workload}: output digest for seed {seed} differs "
                            "from the recorded one")
    failed += passes.mismatches
    if passes.mismatches:
        problems.append(f"{passes.mismatches} outputs differ between passes over the same input")
    return failed, problems, props


def parity_check() -> tuple[int, list[str]]:
    """Untimed: the survey CSV must not depend on the worker count."""
    one = call([*inputs.PARITY_ARGV, "--workers", "1"])
    two = call([*inputs.PARITY_ARGV, "--workers", "2"])
    problems = []
    if one[0] != 0 or two[0] != 0 or one[1] != two[1]:
        problems.append("parity: --workers 2 CSV differs from --workers 1")
    if csv_rows(one[1]) != inputs.PARITY_ROWS:
        problems.append(f"parity: {csv_rows(one[1])} rows, expected {inputs.PARITY_ROWS}")
    if hashlib.sha256(one[1].encode()).hexdigest() != PARITY_CSV_DIGEST:
        problems.append("parity: CSV digest differs from the recorded one")
    return (1 if problems else 0), problems


def traced_metrics(passes: Passes, seconds: float, rows: int):
    """Traced passes: their indices, the per-layer metrics, and absent metrics."""
    tracer = Tracer()
    per_pass = []
    tracer.install()
    try:
        traced = passes.run(
            seconds, before_pass=lambda done: tracer.reset(),
            after_pass=lambda: per_pass.append(tracer.pass_metrics(len(passes.ops), rows)))
    finally:
        tracer.uninstall()
    metrics, absent = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if values[0] is None:
            absent.append(name)
            continue
        unit = unit_of(name)
        # Times vary from pass to pass: take the median.  Counts repeat exactly
        # on the same input, so the first pass stands for all.
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    return traced, metrics, absent


# -- entry point ---------------------------------------------------------------

def module_lines() -> dict:
    return {path.stem: sum(1 for _ in path.open(encoding="utf-8"))
            for path in sorted((SRC / "basicsets").glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(inputs.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "basicsets" / "cli.py").is_file():
        print(f"error: no basicsets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        return run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def run(args) -> int:
    setups, setup_units = [], []

    def fresh_setups(count=SETUP_BATCH):
        # Set-ups are spread between passes so that their median is not
        # taken in one slow phase of the machine.
        for _ in range(count):
            seconds, units, ops = set_up(args.workload, args.seed)
            setups.append(seconds)
            setup_units.append(units)
        return ops

    # A traced run goes without the reference clock: its samples would land
    # in the self time of whatever span is open.
    passes = Passes(fresh_setups(), reference=not args.trace)
    metrics: dict = {}
    info: dict = {"workload": args.workload, "seed": args.seed,
                  "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "module_lines": module_lines()}
    if args.trace:
        untraced = passes.run(args.seconds / 2)
        rows = csv_rows(passes.first[0][1]) if args.workload == "survey" else 0
        traced, metrics, absent = traced_metrics(passes, args.seconds / 2, rows)
        metrics["trace.overhead_ratio"] = {
            "value": (latency_figures(passes.latencies, traced)[0]
                      / latency_figures(passes.latencies, untraced)[0]),
            "unit": "ratio"}
        info.update(untraced_passes=len(untraced), traced_passes=len(traced), absent=absent)
    else:
        measured = passes.run(args.seconds, before_pass=lambda done: done and fresh_setups())
        while len(setups) < SETUP_REPEATS:
            fresh_setups(1)
        wall, p50, p90 = latency_figures(passes.units, measured)
        metrics = {
            "wall_ref": {"value": wall, "unit": "ref"},
            "op_p50_ref": {"value": p50, "unit": "ref"},
            "op_p90_ref": {"value": p90, "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_units) * NOMINAL_SECONDS, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
        # The same figures in seconds, which drift with the machine's speed.
        wall_s, p50_s, p90_s = latency_figures(passes.latencies, measured)
        info.update(wall_s={"value": wall_s, "unit": "s"},
                    op_p50_ms={"value": p50_s * 1000, "unit": "ms"},
                    op_p90_ms={"value": p90_s * 1000, "unit": "ms"},
                    reference_ms={"value": statistics.median(passes.reference_s) * 1000,
                                  "unit": "ms"},
                    setups_s=setups, samples=len(measured) * len(passes.ops))
    info.update(pass_walls_s=passes.walls)

    failed, problems, props = check_outputs(args.workload, args.seed, passes)
    attempted = passes.attempted
    if args.workload == "survey":
        parity_failed, parity_problems = parity_check()
        failed += parity_failed
        attempted += 1
        problems += parity_problems
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    info.update(passes=passes.count, inputs=props, input_digest=input_digest(passes.ops),
                output_digest=digest(passes.first),
                fail_ratio={"value": failed / attempted, "unit": "ratio"})
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
