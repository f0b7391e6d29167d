"""lmss benchmark: one closed-loop client per workload, every answer checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tree_sweep --seed 1 --seconds 20 --trace 0

--trace 0 runs enough whole rounds of the workload to fill --seconds on the
baseline machine and prints the end-to-end metrics of BENCHMARK.json.
--trace 1 runs half as many rounds, each item untraced and then traced,
prints the per-layer metrics and writes the spans to
.bench_out/trace-<workload>.bin. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0 only
when every answer was right.
"""

from __future__ import annotations

import time

SETUP_START = time.process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT_DIR = os.path.join(os.getcwd(), ".bench_out")
SETUP_SAMPLES = 5
WALL_LIMIT_S = 150.0  # stop early rather than overrun the 180 s budget per run
CALIBRATION_ITERATIONS = 40_000
CALIBRATION_NOMINAL_S = 0.0047  # its CPU time on an idle core of the baseline machine
CALIBRATION_EVERY_S = 0.1  # of item time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def import_workloads():
    """Import lmss from ./src of the checkout, and from nowhere else."""
    sys.path[:0] = [SRC, HERE]
    try:
        import lmss
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lmss from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(lmss.__file__))) != SRC:
        sys.exit(f"perfbench: lmss came from {lmss.__file__}, not from {SRC}")
    import tracing
    import workloads
    return workloads, tracing


# -- clocks --------------------------------------------------------------------
#
# End-to-end times are CPU seconds rescaled to a nominal machine speed. On a
# shared machine the wall time of one fixed item swings by 15% with
# descheduling, and its CPU time still drifts by up to half within seconds
# as other tenants load the core. lmss is single-threaded and never waits, so
# CPU time loses nothing, and a calibration loop run between items measures
# the drift. Spans and the trace.* metrics stay on the wall clock.


def cpu_with_children() -> float:
    """CPU seconds of this process plus its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def calibration_loop() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's current speed."""
    t0 = time.process_time()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.process_time() - t0


def tail(latencies: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 items beyond it,
    that percentile, and the number of items beyond it."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def record_line(record) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class Pass:
    """Items run back to back; per-item latency, answers checked after each."""

    def __init__(self, wl, api, tally, tracer=None, calibrate=False):
        self.wl, self.api, self.tally, self.tracer = wl, api, tally, tracer
        self.latencies: list[float] = []
        self.wall = 0.0
        self.records: list[bytes] = []
        self.keep_records = True
        self.calibrate = calibrate
        self.calibrations: list[tuple[int, float]] = []  # (items before it, seconds)
        self._uncalibrated = CALIBRATION_EVERY_S

    def item(self, inp) -> None:
        if self.calibrate and self._uncalibrated >= CALIBRATION_EVERY_S:
            self.calibrations.append((len(self.latencies), calibration_loop()))
            self._uncalibrated = 0.0
        tracer = self.tracer
        span = tracer.open_item() if tracer else -1
        w0 = time.perf_counter()
        t0 = cpu_with_children()
        try:
            res = self.wl.run(self.api, inp)
        except Exception as exc:  # a raising item is a failed answer, not a crash
            res = exc
        t1 = cpu_with_children()
        self.wall += time.perf_counter() - w0
        if tracer:
            tracer.close(span)
        self.latencies.append(t1 - t0)
        self._uncalibrated += t1 - t0
        if not isinstance(res, Exception):
            try:
                record = self.wl.check(inp, res, self.tally)
            except Exception as exc:  # an answer too malformed to check
                res = exc
        if isinstance(res, Exception):
            self.tally.attempted += 1
            self.tally.expect(False, f"raised {type(res).__name__}: {res}")
            record = {"raised": type(res).__name__}
        if self.keep_records:
            self.records.append(record_line(record))

    def normalized(self) -> list[float]:
        """Item times rescaled to the nominal machine speed, each by the mean
        of the calibration loops just before and just after it. The speed
        changes within a second, so wider windows track it worse."""
        cal = [c for _, c in self.calibrations] + [calibration_loop()]
        starts = [i for i, _ in self.calibrations]
        out = []
        j = 0
        for i, t in enumerate(self.latencies):
            while j + 1 < len(starts) and starts[j + 1] <= i:
                j += 1
            out.append(t * 2 * CALIBRATION_NOMINAL_S / (cal[j] + cal[j + 1]))
        return out


def setup_probes(args) -> list[float]:
    """Set-up time of SETUP_SAMPLES - 1 fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, tracing = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    # one CPU for this process, its children and the calibration loop, so
    # that the loop measures the speed the items get
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = tracing.Tracer() if args.trace else None
    plain = workloads.Api()
    api = workloads.Api(tracer) if tracer else plain
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        state = wl.setup(args.seed, api, workdir)
        first = wl.make_round(state, args.seed, 0, api)
        setup_s = ((time.process_time() - SETUP_START) * CALIBRATION_NOMINAL_S
                   / statistics.median(calibration_loop() for _ in range(3)))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = workloads.Tally()
        rounds = max(1, round(args.seconds / wl.round_seconds))
        if args.trace:
            metrics, digest = traced_run(args, wl, state, first, (rounds + 1) // 2,
                                         plain, api, tracer, tally, tracing)
        else:
            metrics, digest = timed_run(args, wl, state, first, rounds, plain, tally)
            samples = [setup_s] + setup_probes(args)
            metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"outputs sha256 = {digest}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(fail_ratio {tally.failed / max(tally.attempted, 1):.6g}), "
          f"{tally.expected} expected negative outcomes")
    for msg in tally.messages:
        print(f"FAILED: {msg}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def timed_run(args, wl, state, first, rounds, api, tally):
    """``rounds`` whole rounds: the same number on every commit, so the
    order statistics cover the same inputs."""
    run = Pass(wl, api, tally, calibrate=True)
    start = time.perf_counter()
    digest = None
    for r in range(rounds):
        for inp in first if r == 0 else wl.make_round(state, args.seed, r, api):
            run.item(inp)
        if r == 0:
            digest = hashlib.sha256(b"".join(run.records)).hexdigest()
            run.keep_records = False
        if time.perf_counter() - start > WALL_LIMIT_S:
            print(f"stopped after {r + 1} of {rounds} rounds at the wall-time limit")
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = run.normalized()
    tail_s, pct, beyond = tail(lat)
    print(f"{len(lat)} items in {r + 1} rounds; item_tail_ms is p{pct:.2f} "
          f"({beyond} items beyond it)")
    print(f"unscaled: {len(lat) / sum(run.latencies):.6g} items per CPU second, "
          f"{len(lat) / run.wall:.6g} per wall second; calibration median "
          f"{statistics.median(c for _, c in run.calibrations) * 1e3:.4g} ms "
          f"(nominal {CALIBRATION_NOMINAL_S * 1e3:.4g} ms)")
    metrics = {
        "items_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "item_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "item_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return metrics, digest


def traced_run(args, wl, state, first, rounds, plain, api, tracer, tally, tracing):
    """``rounds`` rounds, each item run untraced and then traced; the traced
    outputs must equal the untraced ones."""
    inputs = list(first)
    for r in range(1, rounds):
        inputs += wl.make_round(state, args.seed, r, api)
    untraced = Pass(wl, plain, tally)
    traced = Pass(wl, api, tally, tracer)
    for inp in inputs:  # interleaved, so both passes see the same machine
        untraced.item(inp)
        traced.item(inp)
    tally.expect(traced.records == untraced.records, "traced outputs differ from untraced")
    metrics = tracing.layer_metrics(tracer, traced.wall, untraced.wall)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{wl.name}.bin"),
                {"workload": wl.name, "seed": args.seed, "items": len(inputs)})
    return metrics, hashlib.sha256(b"".join(untraced.records[:len(first)])).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
