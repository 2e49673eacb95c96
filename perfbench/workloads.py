"""Seeded job lists for the benchmark workloads.

A job is one `leobeams` command line. A workload seed fixes the job list of a
run; every pass of the run repeats that list. Only the generated argv reaches
the program.

Each job carries a reference tag. `references.json` maps a tag to the sha256 of
every seed-independent output of that job, recorded at the commit that added
the benchmark. Outputs that depend on the seed are named in `seeded`; they
have no reference and are checked for repeatability and finite values instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("cdf-fine", "mobility")

FINE_STEP = "500"       # the 500 m grid ROADMAP calls fine (~1.14M in-ROI points)
HANDOVER_STEP = "2000"  # handover grid where the handover sweeps dominate set-up
N_TERMINALS = 8         # 8 terminals x 3 modes + codebook + 2 handovers = 27 jobs
# Hex iterations the fine workload draws from. With the default config,
# iteration 0 has 13 beams and iterations 1-3 have 10 each; drawing only
# among equal-sized iterations keeps the work per pass independent of the seed.
FINE_ITERATIONS = (1, 2, 3)
EDGE_MARGIN = 0.95      # terminals stay strictly inside the ROI at t_start = 0


@dataclass(frozen=True)
class Job:
    tag: str
    argv: tuple[str, ...]
    seeded: tuple[str, ...] = ()


def cdf_job(k: int) -> Job:
    return Job(f"cdf-iter{k}", ("cdf", "--modes", "hex,dft",
                                "--grid-step", FINE_STEP, "--iter", str(k)))


def codebook_job(seed: int) -> Job:
    return Job("codebook", ("codebook", "--phases", "--channel-check",
                            "--seed", str(seed)), seeded=("channel_check.csv",))


def handover_job(mode: str) -> Job:
    return Job(f"handover-{mode}", ("handover", "--mode", mode,
                                    "--grid-step", HANDOVER_STEP))


def timeseries_job(x: float, y: float, mode: str) -> Job:
    return Job("timeseries", ("timeseries", "--x", f"{x:.0f}", "--y", f"{y:.0f}",
                              "--mode", mode), seeded=(f"timeseries_{mode}.csv",))


def reference_jobs() -> list[Job]:
    """One job per reference tag; the codebook seed does not touch its tagged outputs."""
    return ([cdf_job(k) for k in FINE_ITERATIONS]
            + [codebook_job(0), handover_job("dynamic"), handover_job("dft")])


def terminals(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """Ground points inside the default ROI: |y| < semi_y, |x| < x_extent(y)."""
    # imported here: run.py imports this module without src/ on its path
    from leobeams import Roi, SceneConfig

    cfg = SceneConfig()
    roi = Roi(cfg.roi_semi_x_m, cfg.roi_semi_y_m)
    points = []
    for _ in range(n):
        y = rng.uniform(-EDGE_MARGIN, EDGE_MARGIN) * roi.semi_y
        x = rng.uniform(-EDGE_MARGIN, EDGE_MARGIN) * float(roi.x_extent(y))
        points.append((x, y))
    return points


def jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one run; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cdf-fine":
        return [cdf_job(rng.choice(FINE_ITERATIONS))]
    if workload == "mobility":
        out = [codebook_job(rng.randrange(2**31))]
        for x, y in terminals(rng, N_TERMINALS):
            out += [timeseries_job(x, y, m) for m in ("static", "dynamic", "dft")]
        return out + [handover_job("dynamic"), handover_job("dft")]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def setup_overrides(workload: str) -> list[str]:
    """`--set` pairs of the workload's resolved config, for the set-up probe."""
    if workload == "mobility":
        return [f"handover_grid_step_m={HANDOVER_STEP}"]
    return [f"grid_step_m={FINE_STEP}"]
