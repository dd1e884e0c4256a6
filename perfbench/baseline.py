"""Record the benchmark baseline of the current checkout.

Run from the root of a source checkout:

    python3 perfbench/baseline.py [--out FILE]

It makes two sets of runs, one after the other. Each set runs
``run.py --trace 0`` once per seed in ``SEEDS`` on every workload, seed by
seed, so that each workload's runs spread over the whole set. Per set and end-to-end metric it records the median over
seeds and the spread (distance between the first and third quartile, as a
share of the median); per metric it records how far the median moved from
the first set to the second, as a share of the first. A workload is
``within_bounds`` when every spread but that of ``setup_s`` and every move
stays within the metric's bound in BENCHMARK.json. One traced run at the
default seed then gives the per-layer table, and the machine facts are
added. The result goes to ``perfbench/BASELINE.json`` unless ``--out``
says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py invocation: its JSON result plus its wall time."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); import numpy, scipy, povdyn;"
         "print(numpy.__version__, scipy.__version__, povdyn.backend_name())"],
        capture_output=True, text=True, check=True)
    numpy_v, scipy_v, backend = probe.stdout.split()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_v,
            "scipy": scipy_v, "backend": backend}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"machine": machine(), "run_seconds": seconds,
              "seeds": list(SEEDS), "sets": SETS, "workloads": {}}
    names = list(workloads.WORKLOADS)
    runs = {name: [[] for _ in range(SETS)] for name in names}
    for k in range(SETS):
        for seed in SEEDS:
            for name in names:
                runs[name][k].append(bench(name, seed, seconds, 0))
    for name in names:
        e2e = {}
        for metric, bound in bounds.items():
            sets = [spread([r["metrics"][metric]["value"] for r in rs])
                    for rs in runs[name]]
            move = (sets[-1]["median"] - sets[0]["median"]) / sets[0]["median"]
            e2e[metric] = {"bound": bound, "sets": sets, "move": move}
            print(f"{name:15s} {metric:12s} medians "
                  + " ".join(f"{s['median']:9.4f}" for s in sets)
                  + "  spreads " + " ".join(f"{s['spread']:.4f}" for s in sets)
                  + f"  move {move:+.4f}  (bound {bound})", flush=True)
        within = all(
            abs(e["move"]) <= e["bound"]
            and (metric == "setup_s"
                 or all(s["spread"] <= e["bound"] for s in e["sets"]))
            for metric, e in e2e.items())
        every = [r for rs in runs[name] for r in rs]
        traced = bench(name, inputs.DEFAULT_SEED, seconds, 1)
        result["workloads"][name] = {
            "within_bounds": within,
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "correct": all(r["correct"] for r in every + [traced]),
            "wall_s": [r["wall_s"] for r in every + [traced]],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
