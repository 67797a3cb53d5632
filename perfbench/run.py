"""The wsh benchmark: generated workloads fed to wsh.cli.main, one call at a time.

    python3 perfbench/run.py --workload torus-q --seed 1 --seconds 24 --trace 0

The benchmark generates the workload's input files from --seed, then calls
the real entry point, wsh.cli.main(argv), in this process as a closed loop
with one client: the next invocation starts when the previous one returns.
A pass runs every invocation of the workload once; passes repeat until
--seconds have gone by (at least MIN_PASSES of them), and every output is
checked after its pass.

--trace 0 reports the end-to-end metrics. Their times are scaled to a
nominal host speed with a reference loop timed next to them (see
REFERENCE_NOMINAL_S); the line before the result gives them as measured
too, with the host speed. Each invocation's time is its median over the
passes; wall_s is their sum (one typical pass), run_p50_s their median,
and run_tail_s the highest percentile of them with at least ten
invocations beyond it. Below forty invocations no percentile qualifies and
run_tail_s falls back to the median, so it is only informative on
random-check; the line before the result names the percentile used.
setup_s is the median time for a fresh interpreter to import wsh.cli, and
peak_rss_mb the peak resident memory of this process, which is fresh and
runs its passes one after another. ok_ratio is the share of attempted
invocations whose output passed every check, one minus the failed ratio;
it is reported this way round because the metric must not read zero.

--trace 1 makes one counting pass for the exact work counts, then
alternates untraced and traced passes for the per-layer self times and the
tracing overhead until --seconds have gone by. --workload all runs every
workload in a fresh process and merges their end-to-end metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it describes the run: the
machine, the input size, the number of samples, and which percentile
run_tail_s is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_REPEATS = 15
# Host speed on a shared machine drifts by a quarter within seconds and by as
# much between minutes; plain timings of the same code spread by up to 0.3
# across runs. So every end-to-end time is scaled by REFERENCE_NOMINAL_S over
# the time a fixed reference loop takes at that moment (a few samples every
# REFERENCE_EVERY_S, outside the timed calls). REFERENCE_NOMINAL_S is the
# loop's typical time on the 2-core Xeon VM the benchmark was defined on,
# so there the scaled figures read as seconds.
REFERENCE_NOMINAL_S = 0.008
REFERENCE_EVERY_S = 0.5
REFERENCE_REPEATS = 3
# tail percentiles tried from the highest down; one qualifies when at least
# ten samples lie beyond it, and the median stands in when none does
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}
PER_LAYER = (
    {name: "s" for name in tracing.LAYERS}
    | {"cli.main_s": "s", "trace.overhead_s": "s"}
    | {name: "bytes" if name.startswith("fileio.bytes") else "count" for name in tracing.COUNTS}
    | {"homology.field_ops": "count", "oracle.field_ops": "count"}
    | {f"fields.ops.{op}": "count" for op in tracing.FIELD_OPS}
)


def _machine() -> dict:
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def _reference_work() -> None:
    """Fixed pure-Python work that never touches wsh: exact elimination of a
    14 x 14 rational matrix, then some dict and list churn."""
    n = 14
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    d = {}
    for i in range(3000):
        d[i, str(i)] = [i] * 3


def _reference_seconds() -> list:
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return times


def _setup_seconds() -> tuple:
    """(scaled, measured) median time from spawning an interpreter until
    `import wsh.cli` returns.

    The child prints perf_counter() right after the import; the monotonic
    clock is shared between processes, so the difference with the parent's
    reading before the spawn is the start-up cost. The child then times the
    reference loop, which scales its own start-up time. The first spawn also
    writes the bytecode cache and is not counted.
    """
    child = (
        "import wsh.cli, time; t = time.perf_counter(); import run, statistics;"
        " print(t, statistics.median(run._reference_seconds()))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(Path(__file__).parent))))
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=True)
        imported, reference = map(float, done.stdout.split())
        measured.append(imported - start)
        scaled.append(measured[-1] * REFERENCE_NOMINAL_S / reference)
    return statistics.median(scaled[1:]), statistics.median(measured[1:])


def _tail_percentile(samples: int) -> float:
    for q in TAIL_LADDER:
        if samples * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def _percentile(values, q: float) -> float:
    """q-th percentile, interpolated as statistics.median does at q = 50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


class Runner:
    """Writes a workload's inputs and runs passes over them through wsh.cli.main."""

    def __init__(self, workload: str, seed: int, digests: dict | None):
        import wsh.cli

        self.cli = wsh.cli
        self.invocations = workloads.build(workload, seed)
        if digests is not None and sorted(digests) != sorted(i.name for i in self.invocations):
            raise SystemExit(f"digests.json does not list the reports of {workload}")
        self.digests = [digests and digests[inv.name] for inv in self.invocations]
        self.dir = WORK / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for inv in self.invocations:
            path = self.dir / inv.name
            path.write_text(inv.text, encoding="utf-8")
            out = ["--json", str(path.with_suffix(".json"))] if inv.json else []
            self.argvs.append([*inv.flags, *out, str(path)])
        self.attempted = 0
        self.failures = Counter()

    def call(self, i: int, main) -> tuple:
        """(seconds, exit code, report) for invocation i.

        An exception escaping main counts as exit code -1 with its traceback
        as the report, so that it is checked and counted like any failure.
        """
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(self.argvs[i])
            except Exception:
                code = -1
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        report = stdout.getvalue()
        if self.invocations[i].json and code == 0:
            report = Path(self.argvs[i][-2]).read_text(encoding="utf-8")
        return elapsed, code, report or stderr.getvalue()

    def check(self, i: int, code: int, report: str) -> None:
        why = checks.problem(self.invocations[i], code, report, self.digests[i])
        if why is not None:
            self.failures[f"{self.invocations[i].name}: {why}"] += 1

    def run_pass(self, main=None, reference: list | None = None) -> tuple:
        """(pass seconds, per-invocation seconds); outputs checked afterwards.

        With a reference list, the reference loop is timed into it before the
        first call and before any call that starts REFERENCE_EVERY_S after
        the last sample.
        """
        main = main or self.cli.main
        gc.collect()
        results = []
        sampled = -REFERENCE_EVERY_S
        start = time.perf_counter()
        for i in range(len(self.invocations)):
            if reference is not None and time.perf_counter() - sampled >= REFERENCE_EVERY_S:
                reference.extend(_reference_seconds())
                sampled = time.perf_counter()
            results.append(self.call(i, main))
        wall = time.perf_counter() - start
        for i, (_t, code, report) in enumerate(results):
            self.check(i, code, report)
        self.attempted += len(results)
        return wall, [t for t, _c, _r in results]

    def warm_up(self) -> None:
        """One untimed, unchecked call so that lazy set-up is not timed."""
        self.call(0, self.cli.main)

    def passes(self, seconds: float, one_pass, min_passes: int) -> None:
        """Call one_pass() until seconds have passed, at least min_passes times.

        A pass starts only when the median pass so far still fits in the time
        left, so a run ends near --seconds rather than one pass beyond it.
        """
        start = time.perf_counter()
        lengths = []
        while len(lengths) < min_passes or (
            time.perf_counter() - start + statistics.median(lengths) <= seconds
        ):
            t = time.perf_counter()
            one_pass()
            lengths.append(time.perf_counter() - t)


def _recorded_digests(workload: str, seed: int) -> dict | None:
    return checks.load_digests(workload) if seed == DEFAULT_SEED else None


def _timing_metrics(per_pass) -> tuple:
    """wall_s, run_p50_s, run_tail_s and the tail percentile.

    An invocation's time is its median over the passes, so that a burst of
    host noise during one pass moves none of the statistics.
    """
    typical = [statistics.median(times) for times in zip(*per_pass)]
    q = _tail_percentile(len(typical))
    return sum(typical), statistics.median(typical), _percentile(typical, q), q


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    setup, setup_measured = _setup_seconds()
    runner = Runner(workload, seed, _recorded_digests(workload, seed))
    runner.warm_up()
    measured, scaled, speeds = [], [], []

    def one_pass():
        reference = []
        times = runner.run_pass(reference=reference)[1]
        speed = REFERENCE_NOMINAL_S / statistics.median(reference)
        measured.append(times)
        scaled.append([t * speed for t in times])
        speeds.append(speed)

    runner.passes(seconds, one_pass, MIN_PASSES)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mb = rss / 2**20 if sys.platform == "darwin" else rss / 2**10
    wall, p50, tail, tail_q = _timing_metrics(scaled)
    failed = sum(runner.failures.values())
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "run_p50_s": p50,
        "run_tail_s": tail,
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1.0 - failed / runner.attempted,
    }
    measured_wall, measured_p50, measured_tail, _q = _timing_metrics(measured)
    info = {
        "passes": len(scaled),
        "invocations_per_pass": len(runner.invocations),
        "simplices_per_pass": sum(inv.simplices for inv in runner.invocations),
        "run_tail": f"p{tail_q:g} of {len(runner.invocations)} invocations, each the median"
        f" of {len(scaled)} passes",
        "failed_ratio": failed / runner.attempted,
        "host_speed": statistics.median(speeds),
        "measured": {"setup_s": setup_measured, "wall_s": measured_wall,
                     "run_p50_s": measured_p50, "run_tail_s": measured_tail},
    }
    return runner, metrics, END_TO_END, info


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    runner = Runner(workload, seed, _recorded_digests(workload, seed))
    runner.warm_up()
    tracer = tracing.Tracer()

    # the counting pass is not timed: its spans read arguments and results,
    # and every field operation goes through a counting subclass. It runs
    # first so that the timed pairs fill what is left of --seconds.
    start = time.perf_counter()
    tracer.install(counting=True)
    try:
        runner.run_pass(tracer.span(tracing.ROOT_SPAN, runner.cli.main))
    finally:
        tracer.uninstall()
    counts, ops = tracer.counts, tracer.ops
    untraced, traced, layer_sums = [], [], []

    def pair():
        untraced.append(runner.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer.span(tracing.ROOT_SPAN, runner.cli.main))[0])
        finally:
            tracer.uninstall()
        layers, roots = tracing.self_times(tracer.spans)
        total = Counter()
        for per in layers.values():
            total.update(per)
        total["cli.main_s"] = sum(roots.values())
        layer_sums.append(total)

    runner.passes(seconds - (time.perf_counter() - start), pair, 1)
    spans = tracer.spans

    metrics = {
        name: statistics.median(s[name] for s in layer_sums)
        for name in (*tracing.LAYERS, "cli.main_s")
    }
    # each traced pass against the untraced pass just before it, so that
    # host speed drifting between pairs cancels out
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))
    metrics |= {name: counts[name] for name in tracing.COUNTS}
    for scope in tracing.OP_SCOPES:
        metrics[f"{scope}.field_ops"] = sum(n for (s, _op), n in ops.items() if s == scope)
    for op in tracing.FIELD_OPS:
        metrics[f"fields.ops.{op}"] = sum(n for (_s, o), n in ops.items() if o == op)

    trace_file = runner.dir / "trace.jsonl"
    with trace_file.open("w", encoding="utf-8") as fh:
        for inv, sid, parent, name, start, end in spans:
            fh.write(json.dumps({"call": inv, "id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")
    info = {
        "traced_passes": len(traced),
        "untraced_pass_s": statistics.median(untraced),
        "traced_pass_s": statistics.median(traced),
        "spans": str(trace_file.relative_to(ROOT)),
    }
    return runner, metrics, PER_LAYER, info


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in a fresh process, merged under '<workload>.<metric>'."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        print(name, lines[-2] if len(lines) > 1 else "", flush=True)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wsh" / "cli.py").is_file():
        print(f"perfbench: no wsh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0

    measure = per_layer if args.trace else end_to_end
    runner, metrics, units, info = measure(args.workload, args.seed, args.seconds)
    failed = sum(runner.failures.values())
    for why, n in sorted(runner.failures.items()):
        print(f"perfbench: FAIL x{n}: {why}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info,
                      "machine": _machine()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
