"""leobeams benchmark: end-to-end and per-layer numbers for two CLI workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cdf-fine --seed 1 --seconds 56 --trace 0

Workloads (job lists in workloads.py, generated from --seed):
  cdf-fine  `cdf --modes hex,dft --grid-step 500 --iter k`
  mobility  codebook --phases --channel-check, 8 terminals x 3 timeseries
            modes, handover dynamic and dft at a 2 km grid

The workload runs in one fresh child process (worker.py) with BLAS and
OpenMP limited to one thread. A first warm-up pass is checked but not timed.
With --trace 0 the run reports the end-to-end metrics; set-up time comes from
fresh interpreters (setup_probe.py) that the child starts between passes.
With --trace 1 the child alternates untraced and traced passes and the run
reports the per-layer metrics. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds the
details (seed, job list, pass times and quartiles, environment, failures).
The exit status is nonzero, with no result line, if a child fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
TIME_LIMIT_S = 170.0   # the whole run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return its stdout."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise ChildFailed(f"{argv[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    deadline = time.monotonic() + TIME_LIMIT_S
    out = os.path.join(OUT, args.workload)

    try:
        raw = run_child([os.path.join(HERE, "worker.py"),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--out", out], deadline)
        res = json.loads(raw.strip().splitlines()[-1])
    except (ChildFailed, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "wall_s": res["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(res["setup_s_samples"]),
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**res, "metrics": metrics}, fh, indent=1)
    print(json.dumps(res))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
