"""Run one workload's passes in this (fresh) process and check every output.

Started by run.py with BLAS/OpenMP limited to one thread. Every invocation
goes through `leobeams.cli.main(argv)` in-process, one client, closed loop.
A pass is the workload's job list run once; its time is the sum of the
`main` calls alone, so output checks and clean-up between calls are not
timed. A first warm-up pass runs and is checked like the others, but its time
is not kept. Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload mobility --seed 1 --seconds 10 \
        --trace 0 --out .perfbench_out/mobility
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MIB = tracing.MIB
MIN_PASSES = 3          # untraced passes; a median needs at least three
MIN_TRACED_PASSES = 2   # traced passes in a --trace 1 run
MIN_SETUP_PROBES = 7
WARMUP_PASS = -1        # pass index of the untimed warm-up in failure records
WARNING_PREFIX = "warning:"


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def manifest_outputs(out_dir: str) -> dict[str, str]:
    """Outputs listed in manifest.txt with their recorded sha256."""
    listed = {}
    with open(os.path.join(out_dir, "manifest.txt")) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 4 and parts[:2] == ["#", "output"] \
                    and parts[3].startswith("sha256="):
                listed[parts[2]] = parts[3][len("sha256="):]
    return listed


def csv_is_finite(path: str) -> bool:
    """True when every field after the header parses as a finite number."""
    with open(path) as fh:
        next(fh, None)
        for line in fh:
            for tok in line.strip().split(","):
                try:
                    if not math.isfinite(float(tok)):
                        return False
                except ValueError:
                    return False
    return True


class Checker:
    """Decides whether one invocation failed; see check()."""

    def __init__(self, references: dict[str, dict[str, str]]):
        self.references = references
        # (job index, output name) -> (first pass digest, all values finite)
        self.first_seen: dict[tuple[int, str], tuple[str, bool]] = {}

    def check(self, index: int, job: workloads.Job, out_dir: str,
              rc) -> tuple[list[str], int]:
        """Problems found (empty when the invocation succeeded) and bytes hashed.

        An invocation fails if it exits nonzero, if a file its manifest lists
        does not hash to the listed digest, if a seed-independent output
        differs from its reference, or if a seed-dependent output differs
        from the first pass or holds a NaN/inf.
        """
        if rc != 0:
            return [f"exit status {rc}"], 0
        try:
            listed = manifest_outputs(out_dir)
        except OSError as exc:
            return [f"manifest unreadable: {exc}"], 0
        problems, hashed = [], 0
        refs = self.references.get(job.tag, {})
        for name in sorted(set(refs) | set(job.seeded)):
            if name not in listed:
                problems.append(f"{name}: expected output not in manifest")
        for name, digest in listed.items():
            path = os.path.join(out_dir, name)
            try:
                actual = sha256_file(path)
                hashed += os.path.getsize(path)
            except OSError as exc:
                problems.append(f"{name}: {exc}")
                continue
            if actual != digest:
                problems.append(f"{name}: sha256 does not match the manifest")
            if name in refs and actual != refs[name]:
                problems.append(f"{name}: differs from the reference output")
            if name in job.seeded:
                key = (index, name)
                if key not in self.first_seen:
                    self.first_seen[key] = (actual, csv_is_finite(path))
                first, finite = self.first_seen[key]
                if first != actual:
                    problems.append(f"{name}: bytes differ from the first pass")
                elif not finite:
                    problems.append(f"{name}: holds a NaN or inf value")
        return problems, hashed


def invoke(main, argv: list[str]) -> tuple[object, float, str]:
    """Call leobeams.cli.main(argv); exit status, seconds, captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code
        except Exception:  # a traceback is a failed invocation, not a crash
            rc = "exception"
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
    return rc, seconds, err.getvalue()


def environment() -> dict:
    import numpy
    import leobeams
    import leobeams.kernels

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    using_numba = getattr(leobeams.kernels, "USING_NUMBA", False)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "leobeams": getattr(leobeams, "__version__", ""),
        "kernel_backend": "numba" if using_numba else "numpy",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                        "NUMBA_NUM_THREADS")},
    }


def setup_probe(workload: str) -> float:
    """Seconds from a fresh interpreter to a built scene (setup_probe.py)."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    for pair in workloads.setup_overrides(workload):
        argv += ["--set", pair]
    out = subprocess.run(argv, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return float(out.strip().splitlines()[-1])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    dominance_warnings: int = 0
    failures: list = field(default_factory=list)

    def record(self, index: int, argv: list[str], problems: list[str],
               stderr: str) -> None:
        lines = stderr.splitlines()
        other = [ln for ln in lines if not ln.startswith(WARNING_PREFIX)]
        self.attempted += 1
        self.failed += bool(problems)
        self.dominance_warnings += len(lines) - len(other)
        if (problems or other) and len(self.failures) < 20:
            self.failures.append({"pass": index, "argv": argv,
                                  "problems": problems, "stderr": other})


def run_pass(main, jobs, out_root: str, index: int, checker: Checker,
             tally: Tally, tracer: tracing.Tracer | None) -> dict:
    """Run the job list once; time only the main() calls."""
    seconds = hashed = 0.0
    with tracer.installed(index) if tracer else contextlib.nullcontext():
        for i, job in enumerate(jobs):
            out_dir = os.path.join(out_root, f"job{i:02d}")
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = list(job.argv) + ["--out", out_dir]
            with tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext():
                rc, dt, err = invoke(main, argv)
            seconds += dt
            problems, n_bytes = checker.check(i, job, out_dir, rc)
            hashed += n_bytes
            tally.record(index, argv, problems, err)
    return {"traced": tracer is not None, "seconds": seconds,
            "hashed_mb": hashed / MIB}


def trace_summary(tracer: tracing.Tracer, passes: list[dict],
                  wall_s: float) -> dict:
    """Per-layer medians over the traced passes, with the top-level split."""
    per_pass, tops, accounted, traced_s = [], [], [], []
    for i, p in enumerate(passes):
        if not p["traced"]:
            continue
        layers, top = tracer.pass_layers(i)
        layers["cli.hashed_mb"] = p["hashed_mb"]
        per_pass.append(layers)
        tops.append(top)
        accounted.append(sum(top.values()) + layers["cli.self_s"])
        traced_s.append(p["seconds"])
    layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    layers["trace_overhead_s"] = statistics.median(traced_s) - wall_s
    names = sorted({n for t in tops for n in t})
    return {
        "layers": layers,
        "traced_pass_seconds": traced_s,
        "top_level_plus_cli_self_s": accounted,
        "top_level_s": {n: statistics.median(t.get(n, 0.0) for t in tops)
                        for n in names},
        "missing_wrap_points": tracer.missing,
    }


def run(args) -> dict:
    import leobeams
    from leobeams.cli import main

    src = os.path.join(os.path.dirname(HERE), "src", "")
    if not os.path.abspath(leobeams.__file__).startswith(src):
        raise SystemExit(f"leobeams imported from {leobeams.__file__}, not {src}")

    jobs = workloads.jobs(args.workload, args.seed)
    with open(os.path.join(HERE, "references.json")) as fh:
        checker = Checker(json.load(fh))
    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    passes, setup = [], []
    min_plain = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    min_traced = MIN_TRACED_PASSES if args.trace else 0
    start = time.perf_counter()
    # warm-up: first-call costs (imports, caches, page faults) stay out of wall_s
    run_pass(main, jobs, args.out, WARMUP_PASS, checker, tally, None)
    while True:
        n_traced = sum(p["traced"] for p in passes)
        if len(passes) - n_traced >= min_plain and n_traced >= min_traced:
            typical = statistics.median(p["elapsed"] for p in passes)
            if time.perf_counter() - start + 0.5 * typical >= args.seconds:
                break
        t_pass = time.perf_counter()
        # a --trace 1 run alternates untraced and traced passes
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(main, jobs, args.out, len(passes), checker, tally,
                     tracer if traced else None)
        # set-up is probed between passes, so its samples span the whole run
        if not args.trace:
            setup.append(setup_probe(args.workload))
        p["elapsed"] = time.perf_counter() - t_pass
        passes.append(p)
    while not args.trace and len(setup) < MIN_SETUP_PROBES:
        setup.append(setup_probe(args.workload))

    plain = [p["seconds"] for p in passes if not p["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": [list(j.argv) for j in jobs],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "dominance_warnings": tally.dominance_warnings,
        "passes": len(plain),
        "pass_seconds": plain,
        "wall_s": statistics.median(plain),
        "wall_quartiles_s": statistics.quantiles(plain, n=4),
        "setup_s_samples": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if tracer is not None:
        result.update(trace_summary(tracer, passes, result["wall_s"]))
        result["spans_file"] = os.path.join(args.out, "spans.jsonl")
        tracer.write(result["spans_file"])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
