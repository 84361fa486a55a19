"""Run one polydil benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 36 --trace 0

One process, one client, closed loop: each step starts when the previous
one has been checked.  A run sets the workload up at least three times and
for at least a second (the median is ``setup_s``), then repeats rounds of
steps until the round boundary nearest to ``--seconds``.  With ``--trace 1``
the first half of that time runs untraced and the second half runs a fresh
set-up and rounds with every public function of the six polydil layers
wrapped by the span recorder; the run then reports the per-layer metrics
instead of the end-to-end ones.  End-to-end times are rescaled to a
reference host speed measured beside them (``HostGauge``).

Standard output holds a readable report; its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, whose
names and units come from BENCHMARK.json.  The full result, with the run
environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# The host-speed loop's median time on the host the benchmark was written
# on: the speed that the reported seconds are expressed at.
REFERENCE_S = 2.7e-3
SAMPLE_PERIOD_S = 0.2
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description="polydil benchmark")
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=90210)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_revision() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(np_version: str) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "platform": platform.platform(),
    }


class HostGauge:
    """Measures the host's speed beside the timed operations, and rescales
    their times to the speed at which a fixed loop of interpreter and
    small-matrix work takes ``REFERENCE_S``.

    The hosts this benchmark runs on share their processors, and their speed
    changes by tens of percent from one second to the next, process CPU time
    included.  The loop runs after every operation, and, while the gauge is
    entered as a context, every ``SAMPLE_PERIOD_S`` from a timer signal, so
    that a long operation is rescaled by the speed the host had while it
    ran.  ``clock`` leaves out the time the timer's loops take.
    """

    def __init__(self, numpy) -> None:
        self._np = numpy
        self.samples: list[float] = []
        self._pending: list[float] = []
        self._stolen = 0.0
        self._busy = False
        self._previous_handler = None
        self._last = self._loop()

    def _loop(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i
        a = 0.5 * np.eye(6)
        step = 0.1 * np.eye(6)
        for _ in range(200):
            a = a @ a + step
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self._pending.append(self._loop())
        finally:
            self._stolen += time.perf_counter() - start
            self._busy = False

    def __enter__(self) -> "HostGauge":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @contextlib.contextmanager
    def paused(self):
        """No timer loops inside: for a step whose work runs in another
        process, which a loop here would run beside, not interrupt."""
        busy, self._busy = self._busy, True
        try:
            yield
        finally:
            self._busy = busy

    def clock(self) -> float:
        """``time.perf_counter()`` without the timer's loops."""
        return time.perf_counter() - self._stolen

    def adjust(self, seconds: float) -> float:
        """``seconds``, just measured, at reference speed.  The loop run here
        also serves as the one before the next operation."""
        self._busy = True
        try:
            after = self._loop()
        finally:
            self._busy = False
        loops = [self._last, *self._pending, after]
        self._last, self._pending = after, []
        return stats.at_reference(seconds, loops, REFERENCE_S)


@dataclass
class Round:
    raw_s: float  # summed step time, as measured
    wall_s: float  # summed step time at reference speed
    requests: list[tuple[str, float]]  # (input, latency at reference speed)


def run_round(workload, tally, gauge) -> Round:
    """One pass over the workload's steps."""
    raw = 0.0
    total = 0.0
    main = []
    for step in workload.steps:
        gc.collect()
        start = gauge.clock()
        try:
            if step.subprocess:
                with gauge.paused():
                    result = step.call()
            else:
                result = step.call()
        except Exception:  # a crashing step is recorded and the loop goes on
            seconds = gauge.clock() - start
            passed, sound, digest = False, False, None
            tally.note(f"{step.key}: raised\n{traceback.format_exc(limit=4)}")
        else:
            seconds = gauge.clock() - start
            passed, sound, digest = step.judge(result)
        adjusted = gauge.adjust(seconds)
        tally.record(step.key, step.kind, adjusted, passed, sound, digest)
        raw += seconds
        total += adjusted
        if step.main:
            main.append((step.doc, adjusted))
    if workload.request == "round":
        main = [("round", sum(x for _, x in main))]
    return Round(raw, total, main)


def warm_up(workload) -> None:
    """One untimed, unchecked pass over the probe steps, so that the first
    timed round does not pay for a cold processor and first-call costs."""
    for step in workload.steps:
        if not step.main:
            step.judge(step.call())


def run_rounds(workload, tally, gauge, seconds: float) -> list[Round]:
    """Rounds until the round boundary nearest to ``seconds``, predicting
    the next round to take as long as the last; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(run_round(workload, tally, gauge))
        now = time.perf_counter()
        if now - start + (now - began) / 2 > seconds:
            return rounds


def timed_setup(set_up, name, seed, workdir, gauge):
    """One set-up; returns the workload and its time as measured and at
    reference speed."""
    gc.collect()
    start = gauge.clock()
    workload = set_up(name, seed, workdir)
    seconds = gauge.clock() - start
    return workload, seconds, gauge.adjust(seconds)


def set_up_repeatedly(set_up, name, seed, workdir, gauge):
    """At least ``SETUP_MIN_REPEATS`` set-ups and ``SETUP_MIN_SECONDS`` of
    set-up time; returns the last workload and every set-up's duration, as
    measured and at reference speed."""
    raw, adjusted = [], []
    while len(raw) < SETUP_MIN_REPEATS or sum(raw) < SETUP_MIN_SECONDS:
        workload, seconds, at_reference = timed_setup(set_up, name, seed, workdir, gauge)
        raw.append(seconds)
        adjusted.append(at_reference)
    return workload, raw, adjusted


def end_to_end(import_s, setup_raw, setup_times, rounds, tally, gauge) -> tuple[dict, dict]:
    """End-to-end values, and the per-kind medians and tail for the report."""
    walls = [r.wall_s for r in rounds]
    requests = [x for r in rounds for _, x in r.requests]
    per_input = defaultdict(list)
    for r in rounds:
        for doc, x in r.requests:
            per_input[doc].append(x)
    tail = stats.tail(requests)
    values = {
        "setup_s": statistics.median(setup_times),
        "import_s": import_s,
        "wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(setup_raw),
        "raw_wall_s": statistics.median(r.raw_s for r in rounds),
        "reference_loop_s": statistics.median(gauge.samples),
        "ops_per_s": tally.passed / sum(walls),
        "pass_frac": tally.passed / tally.attempted,
        "fail_frac": tally.fail_frac,
        "op_p50_s": stats.mean_of_medians(per_input),
        "op_tail_s": tail.value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for kind in sorted(tally.samples):
        values[f"{kind}_s"] = tally.kind_seconds(kind)
    extra = {
        "setup_samples_s": setup_times,
        "raw_setup_samples_s": setup_raw,
        "rounds": len(rounds),
        "round_walls_s": walls,
        "raw_round_walls_s": [r.raw_s for r in rounds],
        "reference_loop_quartiles_s": statistics.quantiles(gauge.samples, n=4),
        "requests": len(requests),
        "op_tail": tail.describe(),
        "latencies_s": {kind: dict(keys) for kind, keys in sorted(tally.samples.items())},
        "failed_per_kind": dict(sorted(tally.failed_by_kind.items())),
    }
    return values, extra


def traced_phase(set_up, tally, gauge, name, seed, workdir, seconds):
    """A fresh set-up and rounds with the wrappers installed."""
    tracer = spans.Tracer()
    patched = tracer.install()
    try:
        setup_rec = tracer.recorder
        workload, setup_raw, setup_s = timed_setup(set_up, name, seed, workdir, gauge)
        tracer.recorder = rounds_rec = spans.Recorder()
        rounds = run_rounds(workload, tally, gauge, seconds)
    finally:
        tracer.uninstall()
    return setup_rec, rounds_rec, setup_raw, setup_s, rounds, patched


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (SRC / "polydil" / "__init__.py").is_file():
        print(f"error: polydil sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one BLAS thread: the benchmark's own process, one cold-start
    # subprocess at a time, and BLAS workers would otherwise outnumber the
    # two processors it is meant for; an explicit setting is kept
    for name in BLAS_VARS:
        os.environ.setdefault(name, "1")
    start = time.perf_counter()
    import numpy
    import polydil

    import_s = time.perf_counter() - start
    if Path(polydil.__file__).resolve().parent != SRC / "polydil":
        print(f"error: imported polydil from {polydil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = stats.Tally()
    gauge = HostGauge(numpy)
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        with gauge:
            workload, setup_raw, setup_times = set_up_repeatedly(
                workloads.set_up, args.workload, args.seed, workdir, gauge
            )
            warm_up(workload)
            rounds = run_rounds(workload, tally, gauge, budget)
        values, extra = end_to_end(import_s, setup_raw, setup_times, rounds, tally, gauge)
        layer = None
        if args.trace:
            setup_rec, rounds_rec, traced_raw, traced_setup_s, traced_rounds, patched = (
                traced_phase(
                    workloads.set_up, tally, gauge, args.workload, args.seed, workdir,
                    args.seconds - budget,
                )
            )
            layer = spans.layer_metrics(setup_rec, rounds_rec, len(traced_rounds))
            # spans are raw times, so the wall they split is too; the
            # overhead compares both sides at reference speed
            traced_wall = traced_raw + statistics.fmean(r.raw_s for r in traced_rounds)
            layer["trace.wall_s"] = traced_wall
            layer["trace.unspanned_s"] = traced_wall - sum(
                layer[f"{name}.self_s"] for name in spans.LAYERS
            )
            traced = traced_setup_s + statistics.fmean(r.wall_s for r in traced_rounds)
            plain = statistics.median(setup_times) + statistics.fmean(r.wall_s for r in rounds)
            layer["trace.overhead_frac"] = traced / plain - 1.0
            extra["traced_rounds"] = len(traced_rounds)
            extra["patched_attributes"] = patched
            extra["slowest_self"] = spans.slowest((setup_rec, rounds_rec), "self_time")
            extra["slowest_inclusive"] = spans.slowest((setup_rec, rounds_rec), "total")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    section = "per_layer" if args.trace else "end_to_end"
    source = layer if args.trace else values
    metrics = {
        m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in spec[section]
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(numpy.__version__),
        "sizes": workload.sizes,
        "end_to_end": values,
        "details": extra,
        "per_layer": layer,
        "notes": tally.notes,
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        spans_doc = {
            "columns": ["id", "parent", "name", "start", "end", "attrs"],
            "setup": setup_rec.spans,
            "rounds": rounds_rec.spans,
        }
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans_doc, default=str) + "\n")

    units = {m["name"]: m["unit"] for part in ("end_to_end", "per_layer") for m in spec[part]}
    print_report(record, units)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def print_report(record: dict, units: dict) -> None:
    def unit(name):
        return units.get(name, "ratio" if name.endswith("_frac") else "s")

    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(
        f"environment: git {env['git_revision']}  python {env['python']}  numpy {env['numpy']}"
        f"  nproc {env['nproc']}  blas {env['blas_threads']}"
    )
    details = record["details"]
    print(
        f"rounds {details['rounds']}  requests {details['requests']}"
        f"  attempted {record['attempted']}  failed {record['failed']}"
        f"  correct {record['correct']}"
    )
    for name, value in record["end_to_end"].items():
        note = f"  ({details['op_tail']})" if name == "op_tail_s" else ""
        print(f"  {name:28s} {value:14.6g} {unit(name)}{note}")
    if record["per_layer"]:
        print(f"traced rounds {details['traced_rounds']}")
        for name, value in record["per_layer"].items():
            print(f"  {name:36s} {value:14.6g} {unit(name)}")
        top = details["slowest_self"][0]
        print(f"slowest function by self time: {top[0]} ({top[1]:.3f} s)")
        for name, value in details["slowest_inclusive"]:
            print(f"  inclusive {name:44s} {value:10.3f} s")
    for note in record["notes"]:
        print(f"note: {note.splitlines()[0]}")


if __name__ == "__main__":
    sys.exit(main())
