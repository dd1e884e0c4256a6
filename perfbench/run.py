"""End-to-end benchmark of the povdyn pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline_ref --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each timed run is a fresh child process that imports ``povdyn.cli`` from
``src/`` and calls ``povdyn.cli.main(argv)`` on inputs generated from the
seed (see ``workloads.py``). Runs are a closed loop, one child at a time,
for about ``--seconds`` seconds; every run's outputs are checked, and a
run that exits non-zero, misses an output or fails a check counts as
failed.

``--trace 0`` reports the end-to-end metrics (medians over the runs):
``run_s`` (wall time of ``main``), ``setup_s`` (import time of
``povdyn.cli`` in a fresh child), ``cpu_s`` (user+sys CPU of the child)
and ``peak_rss_mb`` (peak RSS of the child, from ``os.wait4``).
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``spans.py``; traced runs must write the same bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a table of every metric with its unit and sample count, plus the
error rate. Generated inputs and outputs live under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

IMPORT_SAMPLES = 3      # import-only children per run, besides the timed ones
RUN_LIMIT_S = 170.0     # one workload, set-up included, ends within this


class SetupError(Exception):
    """The benchmark could not prepare or measure a workload at all."""


@dataclass
class Child:
    ok: bool
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    backend: str = ""
    error: str = ""


def run_child(src: Path, cwd: Path, mode: str, argv: list[str],
              work: Path, deadline: float) -> Child:
    """Run child.py to completion and collect its own resource usage."""
    result_path = work / "child_result.json"
    spans_path = work / "spans.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(src), mode, str(result_path),
           str(spans_path), "--", *argv]
    timeout = max(deadline - time.monotonic(), 1.0)
    with open(work / "child.log", "wb") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
            # a running maximum over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        return Child(ok=False, error=f"{mode} child exited "
                     f"{proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return Child(ok=True, setup_s=result["setup_s"],
                 run_s=result.get("run_s", 0.0),
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, backend=result["backend"])


@dataclass
class Measurement:
    """Everything one workload run collected."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    backend: str = ""

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def measure(workload, src: Path, root: Path, seed: int, seconds: float,
            trace: bool) -> Measurement:
    import checks
    import spans

    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = work / "inputs"
    inputs_dir.mkdir(parents=True)
    out_dir = inputs_dir / "out"
    m = Measurement()

    def prepare_cli(argv):
        child = run_child(src, inputs_dir, "run", argv, work, deadline)
        if not child.ok:
            raise SetupError(f"preparing {workload.name} failed: "
                             f"{child.error}")

    workload.prepare(inputs_dir, seed, prepare_cli)
    for _ in range(IMPORT_SAMPLES):
        child = run_child(src, inputs_dir, "import", [], work, deadline)
        if not child.ok:
            raise SetupError(child.error)
        m.add("setup_s", child.setup_s)
        m.backend = child.backend

    reference: dict[str, str] | None = None

    def timed(mode: str, threads: int | None = None) -> Child:
        nonlocal reference
        shutil.rmtree(out_dir, ignore_errors=True)
        m.attempted += 1
        child = run_child(src, inputs_dir, mode, workload.argv(threads),
                          work, deadline)
        problems = [child.error] if not child.ok else []
        if child.ok:
            digests = checks.output_digests(out_dir)
            problems += workload.problems(out_dir, inputs_dir, seed, digests)
            if reference is None:
                reference = digests
            elif digests != reference:
                problems.append(f"{mode} run (threads={threads or 'config'})"
                                " wrote other bytes than the first run")
        if problems:
            # a run whose outputs fail a check keeps its timings but
            # counts as failed
            m.failed += 1
            m.problems += problems
        return child

    def traced(threads: int | None = None) -> dict[str, float] | None:
        child = timed("trace", threads)
        if not child.ok:
            return None
        data = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        m.absent = data["absent"]
        layer = spans.layer_metrics([tuple(s) for s in data["spans"]])
        layer["run_s"] = child.run_s
        return layer

    loop_end = time.monotonic() + seconds
    rounds: list[float] = []
    while True:
        start = time.monotonic()
        child = timed("run")
        if child.ok:
            for name in ("run_s", "setup_s", "cpu_s", "rss_mb"):
                m.add(name, getattr(child, name))
        if trace:
            layer = traced()
            extras = [(t, traced(t)) for t in workload.extra_trace_threads]
            if layer is not None and all(e is not None for _, e in extras):
                for threads, extra in extras:
                    layer[f"step_s_{threads}t"] = extra["rgbm.step_s"]
                m.layers.append(layer)
        rounds.append(time.monotonic() - start)
        now = time.monotonic()
        if (now + statistics.median(rounds) > loop_end
                or now + 2 * max(rounds) > deadline or m.failed):
            break
    return m


def end_to_end(m: Measurement) -> dict[str, tuple[float, str, int]]:
    return {name: (statistics.median(m.samples[key]), unit,
                   len(m.samples[key]))
            for name, key, unit in (("run_s", "run_s", "s"),
                                    ("setup_s", "setup_s", "s"),
                                    ("cpu_s", "cpu_s", "s"),
                                    ("peak_rss_mb", "rss_mb", "MiB"))}


def per_layer(m: Measurement, extra_threads) -> dict[str, tuple]:
    import spans

    out = {}
    n = len(m.layers)
    for name, unit in spans.PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(l["run_s"] for l in m.layers)
                     - statistics.median(m.samples["run_s"]))
        elif name == "rgbm.step_speedup_2t":
            # step self time on 1 thread over that on 2 (0: not measured)
            value = (statistics.median(l["step_s_1t"] for l in m.layers)
                     / statistics.median(l["rgbm.step_s"] for l in m.layers)
                     if 1 in extra_threads else 0.0)
        elif name in spans.COUNTS:
            values = {l[name] for l in m.layers}
            if len(values) > 1:
                m.problems.append(f"{name} differs between traced runs: "
                                  f"{sorted(values)}")
            value = m.layers[0][name]
        else:
            value = statistics.median(l[name] for l in m.layers)
        out[name] = (value, unit, n)
    return out


def report(name: str, m: Measurement, metrics: dict[str, tuple]) -> None:
    print(f"workload {name} (backend {m.backend}):")
    for metric, (value, unit, n) in metrics.items():
        print(f"  {metric:26s} {value:14.6g} {unit:6s} n={n}")
    rate = m.failed / m.attempted if m.attempted else 1.0
    print(f"  {'error_rate':26s} {rate:14.6g} {'1':6s} n={m.attempted}")
    if m.absent:
        print(f"  absent from the traced program: {', '.join(m.absent)}")
    for problem in m.problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "povdyn" / "cli.py").is_file():
        print(f"no povdyn sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = workloads.WORKLOADS[name]
        try:
            m = measure(workload, src, root, args.seed, args.seconds,
                        bool(args.trace))
        except SetupError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if not m.samples.get("run_s") or (args.trace and not m.layers):
            report(name, m, {})
            print(f"{name}: no successful run", file=sys.stderr)
            return 1
        metrics = (per_layer(m, workload.extra_trace_threads) if args.trace
                   else end_to_end(m))
        report(name, m, metrics)
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update(
            {prefix + k: {"value": v, "unit": u}
             for k, (v, u, _) in metrics.items()})
        result["attempted"] += m.attempted
        result["failed"] += m.failed
        result["correct"] = result["correct"] and not m.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
