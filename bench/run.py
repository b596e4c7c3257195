"""Benchmark of braidrep: one command, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports braidrep from ``src/``. Each
workload is a closed loop with one client: one process runs a seeded list
of ops one after another, in whole rounds (see workloads.py), until the
time spent in ops reaches ``--seconds`` and at least MIN_OPS ops ran. Every
op checks its output.

Times are scaled to a reference host speed. The host this runs on is shared,
and its speed drifts by tens of percent within seconds. So the run times a
fixed pure-Python calibration loop between ops, and multiplies each op's time
by REFERENCE_CALIBRATION_US / (mean of the calibration times just before and
just after it). Throughput and percentiles are taken over the scaled times;
the raw values and the median calibration time are printed too, on the
``raw`` line.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs a fixed number of rounds twice over the same inputs, once traced and
once not, alternating which goes first, and reports the per-layer metrics
of the traced pass and the cost of tracing. The spans are written to
``.bench_out/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print every metric with its unit, the failed ratio, the raw values, the
count of each output check and the context (Python version, CPU count,
commit, src/ line count).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("algebra-symbolic", "algebra-evaluated", "geometry")
MIN_OPS = 100
SETUP_PROBES = 5
# Scaled times are the times on a host whose calibration loop takes this
# long. The figure is about the fastest the loop ran on the host of the
# recorded baseline (312 us at the least, over 300 calls in a row), so scaled
# times read as that host's times when unloaded. Its median there was higher,
# because the host is shared: see host.calibration_us and the raw values in
# baseline/. Changing the figure rescales every time metric.
REFERENCE_CALIBRATION_US = 300.0
# Rounds per second of --seconds in a traced run, so that the traced and the
# untraced pass together take about --seconds on the host of the baseline.
TRACE_ROUNDS_PER_S = {"algebra-symbolic": 0.45, "algebra-evaluated": 6.0,
                      "geometry": 0.25}

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("laurent", "braidword", "rep", "homs", "relcheck", "geom", "cli",
          "bench")
TIMED_SPANS = (
    "laurent.mat_mul", "laurent.matrix_eq", "laurent.mat_eval",
    "rep.word_image_symbolic", "rep.word_image_evaluated",
    "homs.p_k", "homs.f_d", "homs.pipeline_matrix",
    "braidword.parse_word",
    "relcheck.verify_relations", "relcheck.verify_pk_cocycle",
    "geom.psi_d_events", "geom.psi_events", "geom.q_kl",
    "geom.artin_dynamics", "geom.transform", "geom.power_map_extract",
    "geom.realize_flat_virtual", "geom.cylinder_events",
    "cli.main",
)
COUNTS = ("laurent.terms_out", "laurent.terms_max", "rep.letters_folded",
          "homs.letters_out", "braidword.letters_parsed", "relcheck.checked",
          "geom.events", "geom.cylinder_events", "geom.breakpoints")
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNTS},
    "geom.nongeneric_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
    "trace.spans": "count",
    "host.calibration_us": "us",
}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def add(self, other):
        return _Pair(self.a + other.a, self.b * other.b)


def calibration_us() -> float:
    """Microseconds for a fixed loop of the kinds of work braidrep does:
    dict and tuple updates, complex floats, Fractions and small objects.
    The collector is off, so the program's heap does not change the figure."""
    gc.disable()
    start = time.perf_counter()
    terms: dict = {}
    for a in range(-10, 10):
        for b in range(-10, 10):
            key = (a + b, a - b, a * b % 5)
            terms[key] = terms.get(key, 0) + a * b + 1
    z = complex(0.3, 0.1)
    for i in range(300):
        z = z * complex(0.99, 0.01) + 0.001 * i
    q = Fraction(1)
    for i in range(1, 10):
        q = q * Fraction(i + 1, i + 2) + Fraction(1, i)
    p = _Pair(1, 1)
    for i in range(200):
        p = p.add(_Pair(i, 1))
    elapsed = time.perf_counter() - start
    gc.enable()
    return 1e6 * elapsed


def load_program():
    """Import the benchmark's modules and braidrep from this checkout."""
    if not (SRC / "braidrep" / "__init__.py").is_file():
        raise SystemExit(f"bench/run.py: no braidrep sources under {SRC}; "
                         "run it from the root of a braidrep checkout")
    sys.path.insert(0, str(SRC))
    import braidrep
    import workloads
    if Path(braidrep.__file__).resolve().parent != SRC / "braidrep":
        raise SystemExit(f"bench/run.py: imported braidrep from "
                         f"{braidrep.__file__}, not from {SRC}")
    return workloads


class Session:
    """Ops of one workload, with their failures, checks and calibration."""

    def __init__(self, wl, workload):
        self.wl = wl
        self.workload = workload
        self.expected = wl.load_expected()
        self.checks: dict[str, int] = {}
        self.failures: list[str] = []
        self.calibration: list[float] = []

    def run(self, ops, tr) -> list[tuple[float, float, bool]]:
        """Run ops in order. Returns per op its seconds, the factor that
        scales them to the reference speed, from the calibration times just
        before and just after the op, and whether it failed."""
        out = []
        before = calibration_us()
        for op_id, (kind, pin, params) in ops:
            tr.op_id = op_id
            start = time.perf_counter()
            failed = False
            try:
                tr.call(f"bench.{kind}", self.wl.run_op, tr, self.checks,
                        self.expected, kind, pin, params)
            except Exception as exc:  # a failed op is counted, the run goes on
                failed = True
                self.failures.append(
                    f"op {op_id} {kind}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            after = calibration_us()
            self.calibration.append(after)
            scale = 2.0 * REFERENCE_CALIBRATION_US / (before + after)
            if tr.enabled:
                tr.op_scale[op_id] = scale
            out.append((elapsed, scale, failed))
            before = after
        return out

    def warm_up(self) -> None:
        """One op of each kind: the set-up that setup_s times."""
        from tracing import NullTracer
        self.run(enumerate(self.wl.warm_up_ops(self.workload)), NullTracer())

    def rounds(self, seed):
        """Whole rounds of (op id, op) from the seeded stream."""
        stream = self.wl.op_stream(self.workload, seed)
        size = self.wl.round_length(self.workload)
        start = 0
        while True:
            yield [(start + i, next(stream)) for i in range(size)]
            start += size


def setup_probe(workload) -> None:
    """Print the seconds to import braidrep and warm up, and the factor that
    scales them to the reference speed."""
    calibration = [calibration_us() for _ in range(5)]
    start = time.perf_counter()
    session = Session(load_program(), workload)
    session.warm_up()
    elapsed = time.perf_counter() - start
    calibration += [calibration_us() for _ in range(5)]
    print(repr(elapsed),
          repr(REFERENCE_CALIBRATION_US / statistics.median(calibration)))


def measure_setup(workload) -> tuple[float, float]:
    """Median over fresh processes of importing braidrep plus warm-up:
    scaled, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit("set-up probe failed:\n" + done.stderr)
        elapsed, factor = map(float, done.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * factor)
    return statistics.median(scaled), statistics.median(raw)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def latency_metrics(ops, scaled: bool) -> dict:
    """Completed ops per busy second, and latency percentiles in which a
    failed op counts as slower than any other."""
    seconds = [s * f if scaled else s for s, f, _ in ops]
    latencies = [math.inf if failed else s
                 for s, (_, _, failed) in zip(seconds, ops)]
    completed = sum(not failed for _, _, failed in ops)
    return {"throughput_ops_s": completed / sum(seconds),
            "op_ms_p50": 1000.0 * statistics.median(latencies),
            "op_ms_p90": 1000.0 * percentile(latencies, 0.9)}


def measure(session, seed, seconds):
    """Closed loop, one client, whole rounds until the busy time reaches
    seconds and at least MIN_OPS ops ran. Returns the scaled metrics, the
    raw ones, the op count and the raw busy time."""
    from tracing import NullTracer
    tr = NullTracer()
    ops: list[tuple[float, float, bool]] = []
    busy = 0.0
    for batch in session.rounds(seed):
        got = session.run(batch, tr)
        ops.extend(got)
        busy += sum(s for s, _, _ in got)
        if busy >= seconds and len(ops) >= MIN_OPS:
            break
    return (latency_metrics(ops, scaled=True),
            latency_metrics(ops, scaled=False), len(ops), busy)


def traced(session, seed, seconds):
    """Same rounds traced and untraced; per-layer metrics of the traced pass,
    its spans scaled like the op that holds them."""
    from tracing import NullTracer, Tracer
    tracer, null = Tracer(), NullTracer()
    count = max(1, round(seconds * TRACE_ROUNDS_PER_S[session.workload]))
    spent = {True: 0.0, False: 0.0}
    busy = 0.0
    attempted = 0
    for r, batch in zip(range(count), session.rounds(seed)):
        for tr in ((null, tracer) if r % 2 == 0 else (tracer, null)):
            got = session.run(batch, tr)
            spent[tr.enabled] += sum(s * f for s, f, _ in got)
            busy += sum(s for s, _, _ in got)
            attempted += len(got)
    self_times = tracer.self_times()
    metrics = {f"{name}_s": self_times.get(name, 0.0) for name in TIMED_SPANS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v for k, v in self_times.items() if k.split(".")[0] == layer)
    for name in COUNTS:
        metrics[name] = tracer.peaks[name] if name == "laurent.terms_max" \
            else tracer.counts[name]
    readings = tracer.counts["geom.readings"]
    metrics["geom.nongeneric_ratio"] = \
        tracer.counts["geom.nongeneric"] / readings if readings else 0.0
    metrics["trace.overhead_ratio"] = spent[True] / spent[False] - 1.0
    metrics["trace.ops"] = attempted // 2
    metrics["trace.spans"] = len(tracer.spans)
    metrics["host.calibration_us"] = statistics.median(session.calibration)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{session.workload}-seed{seed}.json")
    return metrics, attempted, busy


def context() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(), "src_lines": src_lines}


def _commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    session = Session(load_program(), args.workload)
    if not args.trace:
        setup_s, setup_raw = measure_setup(args.workload)
    session.warm_up()
    warm_failures = list(session.failures)
    session.failures.clear()
    session.calibration.clear()
    if args.trace:
        metrics, attempted, busy = traced(session, args.seed, args.seconds)
        units = PER_LAYER
        raw = {}
    else:
        metrics, raw, attempted, busy = measure(session, args.seed,
                                                args.seconds)
        metrics["setup_s"] = setup_s
        raw["setup_s"] = setup_raw
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END

    failures = session.failures
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {busy:.3f} s of op time, closed loop, 1 client")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"failed_ratio {len(failures) / attempted!r} ratio "
          f"({len(failures)} of {attempted})")
    raw["calibration_us"] = statistics.median(session.calibration)
    raw["reference_calibration_us"] = REFERENCE_CALIBRATION_US
    print("raw " + json.dumps(raw, sort_keys=True))
    print("checks " + " ".join(f"{k}={v}"
                               for k, v in sorted(session.checks.items())))
    print("context " + json.dumps(context(), sort_keys=True))
    for line in (warm_failures + failures)[:10]:
        print("failure: " + line, file=sys.stderr)
    result = {
        "correct": not failures and not warm_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
