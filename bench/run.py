#!/usr/bin/env python3
"""Benchmark of the maclane library and CLI.

    python3 bench/run.py --workload enum-qp --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Runs one workload (or all four, each in its own process) from the root of a
checkout, against the sources in src/.  Every operation's output is checked
against a reference built independently of maclane (bench/inputs.py,
bench/cli_table.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `failed` counts the failures
other than the enumerator's known defect (bench/checks.py); every wrong
answer, the known defect included, lowers the metric pass_ratio.

--trace 0 measures the end-to-end metrics: a closed loop with one client
runs operations for --seconds seconds and at least MIN_OPS operations.
--trace 1 runs a fixed number of operations twice, untraced in a forked child
and then with every layer wrapped (bench/tracing.py), prints the per-layer metrics and
writes the spans to bench/out/.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import cli_table
import inputs
from speed import REFERENCE_KERNEL_S, HostSpeed
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("enum-qp", "enum-fpt", "as-classify", "cli-calls")
MIN_OPS = 100
WARMUP_OPS = {"enum-qp": 12, "enum-fpt": 12, "as-classify": 12, "cli-calls": 2}
TRACE_OPS = {"enum-qp": 60, "enum-fpt": 24, "as-classify": 120, "cli-calls": 2 * len(cli_table.TABLE)}
SETUP_REPEATS = 9
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 60
MAX_ATTEMPTS = 1000

maclane = None      # imported by main() from src/, once it is known to exist

END_TO_END = (
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("pass_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("poly.q_expansion_calls", "count"), ("poly.q_expansion_distinct", "count"),
    ("poly.q_expansion_useful_ratio", "ratio"), ("poly.divmod_calls", "count"),
    ("poly.self_s", "s"),
    ("chains.valuate_calls", "count"), ("chains.truncate_calls", "count"),
    ("chains.reduce_calls", "count"), ("chains.lift_calls", "count"),
    ("chains.augment_calls", "count"), ("chains.key_tests", "count"), ("chains.self_s", "s"),
    ("newton.polygon_calls", "count"), ("newton.self_s", "s"),
    ("approach.nodes", "count"), ("approach.factorization_calls", "count"),
    ("approach.self_s", "s"),
    ("base.elem_ops", "count"), ("base.field_eq_calls", "count"), ("base.self_s", "s"),
    ("fppoly.calls", "count"), ("fppoly.gcd_calls", "count"), ("fppoly.self_s", "s"),
    ("ffield.calls", "count"), ("ffield.factor_calls", "count"),
    ("ffield.irreducible_tests", "count"), ("ffield.self_s", "s"),
    ("artin_schreier.improvements", "count"), ("artin_schreier.self_s", "s"),
    ("cli.interp_s", "s"), ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS = dict(END_TO_END + PER_LAYER)

# Code a fresh interpreter runs to get the first operation ready.
SETUP_PROBES = {
    "enum-qp": "import maclane; maclane.parse_polynomial(maclane.BaseField.rationals(5), 'x^2+1')",
    "enum-fpt": "import maclane; maclane.parse_polynomial(maclane.BaseField.rational_functions(2), 'x^2+x+t')",
    "as-classify": "import maclane; maclane.parse_element(maclane.BaseField.rational_functions(2), '1/t^2')",
    "cli-calls": "import maclane.cli; maclane.cli.build_parser()",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Appended to every probe: print when the probe is ready, then the time of
# the speed kernel in the same process, for the correction.  The kernel runs
# once untimed, so that its timed run is as warm as the samples it joins.
PROBE_TAIL = (
    "\nimport sys, time\nprint(time.perf_counter())\n"
    f"sys.path.insert(0, {str(BENCH)!r})\nimport speed\n"
    "speed.time_kernel()\nprint(speed.time_kernel()[1])\n"
)


def time_probe(code, repeats, speed):
    """Median time from starting a fresh interpreter until it has run code:
    (corrected for the host's speed (bench/speed.py), uncorrected).  The
    local kernel time is the median of the probe's own kernel and the
    samples around it."""
    timings = []
    for _ in range(repeats):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code + PROBE_TAIL], env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT_S)
        ready, kernel_s = map(float, proc.stdout.split()[-2:])
        timings.append((start, ready - start, kernel_s))
    speed.sample()
    corrected = statistics.median(
        seconds * REFERENCE_KERNEL_S / statistics.median([kernel_s, speed.local(start)])
        for start, seconds, kernel_s in timings)
    return corrected, statistics.median(seconds for _, seconds, _ in timings)


# -- workloads -----------------------------------------------------------------------


def fresh_cases(make, key, seen):
    """make(index, attempt) for index = 0, 1, ...; an input whose key was
    seen before is drawn again with the next attempt."""
    for index in itertools.count():
        for attempt in range(MAX_ATTEMPTS):
            case = make(index, attempt)
            if key(case) not in seen:
                seen.add(key(case))
                yield case
                break
        else:
            raise RuntimeError(f"no fresh input for operation {index} in {MAX_ATTEMPTS} draws")


def enum_key(case):
    return case[1], case[4]         # p, canonical text


class EnumWorkload:
    """enumerate_extensions over generated squarefree products (bench/inputs.py)."""

    def __init__(self, name):
        self.name = name
        self.params = inputs.ENUM_PARAMS[name]
        self.fixed = inputs.enum_fixed(name)

    def stream(self, seed):
        """Warm-up inputs, then the fixed cases, then fresh generated inputs."""
        seen = {enum_key(case) for case in self.fixed}
        gen = fresh_cases(lambda i, a: inputs.enum_case(self.name, seed, i, a), enum_key, seen)
        yield from itertools.islice(gen, WARMUP_OPS[self.name])
        yield from self.fixed
        yield from gen

    @staticmethod
    def label(case):
        return f"{case[0]} p={case[1]} {case[2]}"

    @staticmethod
    def op(case):
        kind, p, text = case[:3]
        base = maclane.BaseField.rationals(p) if kind == "Q" else maclane.BaseField.rational_functions(p)
        return maclane.enumerate_extensions(base, maclane.parse_polynomial(base, text))

    judge = staticmethod(checks.judge_enum)


class ASWorkload:
    """classify over F_p(t) for a = (c^p - c) + r (bench/inputs.py)."""

    name = "as-classify"
    params = inputs.AS_PARAMS

    @staticmethod
    def stream(seed):
        return fresh_cases(lambda i, a: inputs.as_case(seed, i, a), lambda c: c[:2], set())

    @staticmethod
    def label(case):
        return f"p={case[0]} a={case[1]}"

    @staticmethod
    def op(case):
        base = maclane.BaseField.rational_functions(case[0])
        return maclane.classify(base, maclane.parse_element(base, case[1]))

    judge = staticmethod(checks.judge_as)


class CliWorkload:
    """One `python -m maclane.cli` child per operation, cycling cli_table.TABLE
    from a seeded permutation."""

    name = "cli-calls"

    def __init__(self):
        self.params = {"rows": len(cli_table.TABLE), "order": "seeded permutation, then cycled"}
        self.judge_row = checks.CliJudge(ROOT / "schemas")
        self.in_process = False

    @staticmethod
    def stream(seed):
        order = list(cli_table.TABLE)
        random.Random(f"cli-calls/{seed}").shuffle(order)
        return itertools.cycle(order)

    @staticmethod
    def label(case):
        return " ".join(case[0])

    def op(self, case):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = maclane.cli.main(list(case[0]))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "maclane.cli", *case[0]], env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def judge(self, case, outcome):
        if isinstance(outcome, BaseException):
            return f"exception-{type(outcome).__name__}"
        return self.judge_row(case, *outcome)


def make_workload(name):
    if name.startswith("enum-"):
        return EnumWorkload(name)
    if name == "as-classify":
        return ASWorkload()
    return CliWorkload()


# -- measurement ---------------------------------------------------------------------


class Tally:
    """Outcomes and per-operation wall times of one pass."""

    def __init__(self):
        self.starts = []
        self.times = []
        self.kinds = {}
        self.examples = {}
        self.digest = hashlib.sha256()

    def record(self, workload, case, outcome, start, seconds):
        self.starts.append(start)
        self.times.append(seconds)
        if len(self.times) <= MIN_OPS:
            self.digest.update(workload.label(case).encode() + b"\n")
        kind = workload.judge(case, outcome)
        if kind:
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            self.examples.setdefault(kind, workload.label(case))

    @property
    def wrong(self):
        """Operations whose output failed its check, the known defect included."""
        return sum(self.kinds.values())

    @property
    def failed(self):
        """Failures other than the known defect (checks.KNOWN_KINDS)."""
        return sum(n for kind, n in self.kinds.items() if kind not in checks.KNOWN_KINDS)

    @property
    def correct(self):
        return self.failed == 0


def run_one(workload, case):
    start = time.perf_counter()
    try:
        outcome = workload.op(case)
    except Exception as exc:            # judged as a failure of the operation
        outcome = exc
    return outcome, start, time.perf_counter() - start


def run_pass(workload, cases, tracer=None):
    tally = Tally()
    for op_id, case in enumerate(cases):
        if tracer is not None:
            tracer.begin_op(op_id)
        tally.record(workload, case, *run_one(workload, case))
    if tracer is not None:
        tracer.finish()
    return tally


def warm_up(workload, stream):
    for case in itertools.islice(stream, WARMUP_OPS[workload.name]):
        run_one(workload, case)


def measure(workload, seed, seconds):
    """Closed loop: --seconds of wall time and at least MIN_OPS operations."""
    stream = iter(workload.stream(seed))
    warm_up(workload, stream)
    tally = Tally()
    speed = HostSpeed()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(tally.times) < MIN_OPS:
        speed.tick()
        case = next(stream)
        tally.record(workload, case, *run_one(workload, case))
    speed.sample()
    usage = resource.RUSAGE_CHILDREN if isinstance(workload, CliWorkload) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    passed = len(tally.times) - tally.wrong
    setup_s, raw_setup_s = time_probe(SETUP_PROBES[workload.name], SETUP_REPEATS, speed)
    metrics = {
        **latency_metrics(speed.correct(zip(tally.starts, tally.times)), passed),
        "pass_ratio": passed / len(tally.times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"uncorrected": {**latency_metrics(tally.times, passed), "setup_s": raw_setup_s},
             "host_slowdown": speed.slowdown()}
    return tally, metrics, extra


def latency_metrics(times, passed):
    return {
        "ops_per_s": passed / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def untraced_seconds(workload, cases):
    """Summed operation time of an untraced pass over cases.  It runs in a
    forked child, so this process has not seen the cases when it traces
    them, and both passes start from the same state."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.write(write_fd, repr(sum(run_pass(workload, cases).times)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"untraced pass ended with status {status}")
    return float(text)


def measure_traced(workload, seed):
    """A fixed list of fresh operations, untraced in a child and traced
    here, for exact counts."""
    if isinstance(workload, CliWorkload):
        workload.in_process = True
    stream = iter(workload.stream(seed))
    warm_up(workload, stream)
    cases = list(itertools.islice(stream, TRACE_OPS[workload.name]))
    untraced_s = untraced_seconds(workload, cases)
    tracer = Tracer()
    tracer.install()
    tally = run_pass(workload, cases, tracer)
    layer = tracer.metrics()
    speed = HostSpeed()
    interp_s, _ = time_probe("pass", PROBE_REPEATS, speed)
    import_s, _ = time_probe("import maclane", PROBE_REPEATS, speed)
    metrics = {name: layer.get(name, 0) for name, _ in PER_LAYER}
    metrics["cli.interp_s"] = interp_s
    metrics["cli.import_s"] = import_s - interp_s
    metrics["trace.overhead_ratio"] = sum(tally.times) / untraced_s
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    spans = tracer.write_spans(span_path)
    return tally, metrics, {"spans": spans, "span_file": str(span_path.relative_to(ROOT))}


# -- reporting -------------------------------------------------------------------------


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(workload, args, tally, metrics, extra):
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "params": workload.params, "ops": len(tally.times),
        "min_ops": MIN_OPS, "inputs_sha256": tally.digest.hexdigest()[:16],
        "failures": tally.kinds, "failure_examples": tally.examples,
        "fail_ratio": tally.wrong / len(tally.times), "known_defect": tally.wrong - tally.failed,
        **extra,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload.name:<12} {name:<32} {value:>16.6f} {UNITS[name]}")
    result = {
        "correct": tally.correct, "attempted": len(tally.times), "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maclane" / "__init__.py").is_file():
        print(f"maclane sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    global maclane
    import maclane
    import maclane.cli

    workload = make_workload(args.workload)
    if not Path(maclane.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported maclane from {maclane.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics, extra = measure_traced(workload, args.seed)
    else:
        tally, metrics, extra = measure(workload, args.seed, args.seconds)
    report(workload, args, tally, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
