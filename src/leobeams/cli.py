"""Command-line front end.

Every run resolves its configuration (file, then --set overrides, then
dedicated flags), builds the scene, writes the requested outputs, and ends
with manifest.txt: the resolved configuration echoed as key = value lines
plus a sha256 digest comment per output file. The manifest is itself a valid
config file, so re-feeding it reproduces the run byte for byte.

Exit code 0 on success; nonzero with a single-line `error: ...` on stderr,
argv that argparse refuses included; --help and --version return 0.

`main` fixes the C heap's mmap and trim thresholds once per process (see
`_fix_heap_thresholds`), so the evaluator's per-call temporaries reuse heap
pages instead of being mapped, faulted in and unmapped on every call. It
is done here, not on import, so library users keep their allocator as it is.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import os
import sys
from itertools import chain

import numpy as np

from . import __version__
from .codebook import phase_table
from .config import (SceneConfig, apply_overrides, build_scene, format_config,
                     load_config)
from .fields import column_blocks, write_cdf_set, write_csv
from .link import rician_sample
from .simulate import (MAP_MODES, METRICS, PASS_MODES, codebook_for,
                       coverage_map, dominance_violations, handover_map,
                       pass_timeseries, sinr_cdf)

HASH_BLOCK = 2**20  # bytes read per sha256 update
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
MMAP_THRESHOLD = 2**25  # bytes: smaller blocks are carved from the heap
TRIM_THRESHOLD = 2**28  # bytes of free heap top kept before returning it


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the stochastic channel draw")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise ValueError, which `main`
    reports as its one `error:` line, instead of printing the usage block
    and exiting; subparsers are made of this class too."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse copies a list
    default before appending to it, so calls never share their --set lists."""
    parser = _Parser(
        prog="leobeams",
        description="Moving-satellite beam codebook simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="write the beam cycle tables")
    _common(p)
    p.add_argument("--phases", action="store_true",
                   help="also write per-element precoder phases")
    p.add_argument("--channel-check", action="store_true",
                   help="also draw one seeded channel sample and record norms")

    p = sub.add_parser("map", help="write a coverage map (CSV + PPM)")
    _common(p)
    p.add_argument("--metric", choices=METRICS, default="sinr")
    p.add_argument("--mode", choices=MAP_MODES, default="hex")
    p.add_argument("--iter", dest="iteration", type=int, default=0)
    p.add_argument("--grid-step", type=float, default=None,
                   metavar="M", help="override grid_step_m")

    p = sub.add_parser("cdf", help="write coverage CDF curves")
    _common(p)
    p.add_argument("--modes", default="hex,dft",
                   help="comma-separated codebook modes (hex, dft)")
    p.add_argument("--iter", dest="iteration", type=int, default=0)
    p.add_argument("--grid-step", type=float, default=None,
                   metavar="M", help="override grid_step_m")

    p = sub.add_parser("timeseries", help="write one ground point's pass series")
    _common(p)
    p.add_argument("--x", type=float, required=True, help="ground x [m]")
    p.add_argument("--y", type=float, required=True, help="ground y [m]")
    p.add_argument("--mode", choices=PASS_MODES, default="dynamic")
    p.add_argument("--duration", type=float, default=None, help="seconds")
    p.add_argument("--t-start", type=float, default=0.0, help="seconds")
    p.add_argument("--dt", type=float, default=None,
                   metavar="S", help="override dt_s")

    p = sub.add_parser("handover", help="write a handover-count map")
    _common(p)
    p.add_argument("--mode", choices=PASS_MODES, default="dynamic")
    p.add_argument("--grid-step", type=float, default=None,
                   metavar="M", help="override handover_grid_step_m")
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number joined onto the option before it, as
    --option=value. argparse reads only -1 and -1.5 shaped tokens as values
    and takes -1e4 or -inf for an unknown option; the CLI has no
    positionals, so a token float() reads after a bare --option is that
    option's value, and the value checks see it."""
    joined = []
    for arg in argv:
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and arg.startswith("-") and _is_float(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _resolve_config(args) -> SceneConfig:
    cfg = load_config(args.config) if args.config else SceneConfig()
    cfg = apply_overrides(cfg, args.overrides)
    # dedicated flags win over --set and the file; fold them into the config
    # so the manifest records the effective values
    flags = []
    if args.seed is not None:
        flags.append(f"seed={args.seed}")
    if getattr(args, "grid_step", None) is not None:
        key = ("handover_grid_step_m" if args.command == "handover"
               else "grid_step_m")
        flags.append(f"{key}={args.grid_step}")
    if getattr(args, "dt", None) is not None:
        flags.append(f"dt_s={args.dt}")
    return apply_overrides(cfg, flags)


class _Emitter:
    """Writes and records outputs and finishes with the manifest."""

    def __init__(self, out_dir: str, cfg: SceneConfig):
        self.out_dir = out_dir
        self.cfg = cfg
        self.records: list[tuple[str, str]] = []
        os.makedirs(out_dir, exist_ok=True)

    def write(self, name: str, writer, *args) -> None:
        """Write output `name` by writer(path, *args), then record the sha256
        of the bytes on disk, read back HASH_BLOCK at a time."""
        path = os.path.join(self.out_dir, name)
        writer(path, *args)
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(HASH_BLOCK), b""):
                digest.update(block)
        self.records.append((name, digest.hexdigest()))

    def field_map(self, stem: str, fmap) -> None:
        """Write a map as <stem>.csv and <stem>.ppm and record both."""
        self.write(stem + ".csv", fmap.to_csv)
        self.write(stem + ".ppm", fmap.to_ppm)

    def write_manifest(self) -> None:
        with open(os.path.join(self.out_dir, "manifest.txt"), "w") as fh:
            fh.write(f"# leobeams {__version__} resolved configuration\n")
            fh.write(format_config(self.cfg))
            for name, digest in self.records:
                fh.write(f"# output {name} sha256={digest}\n")


def _run_codebook(args, cfg, scene, emit: _Emitter) -> None:
    # (iteration, beam_id, rf_chain, target_x_m, target_y_m) columns of every
    # beam of one cycle, in iteration then ascending-ID order
    cycle, dft = ((np.repeat(np.arange(b.cycle_len), [i.size for i in b.ids]),
                   np.concatenate(b.ids), np.concatenate(b.rf),
                   *np.concatenate(b.targets).T) for b in (scene.hex, scene.dft))
    emit.write("cycle.csv", write_csv,
               "iteration,beam_id,rf_chain,target_x_m,target_y_m",
               column_blocks("%d,%d,%d,%.3f,%.3f\n", *cycle))
    emit.write("dft_grid.csv", write_csv, "beam_id,rf_chain,target_x_m,target_y_m",
               column_blocks("%d,%d,%.3f,%.3f\n", *dft[1:]))
    if args.phases:
        # one block per beam: the (element_index, phase) rows of its chain,
        # with the beam's iteration and ID baked into the row format
        tables = ((k, b, phase_table([x, y], scene.geometry, c, scene.h_sat))
                  for k, b, c, x, y in zip(*(a.tolist() for a in cycle)))
        emit.write("phases.csv", write_csv,
                   "iteration,beam_id,element_index,phase_radians",
                   ((("%d,%d," % (k, b) + "%d,%.9f\n") * len(t)
                     % tuple(chain.from_iterable(t))).encode("ascii")
                    for k, b, t in tables))
    if args.channel_check:
        rng = np.random.default_rng(cfg.seed)
        sample = rician_sample((0.0, 0.0), scene.geometry, scene.h_sat,
                               scene.link, rng)
        emit.write("channel_check.csv", write_csv,
                   "seed,matrix_fro,los_fro,scatter_fro",
                   [("%d,%.9e,%.9e,%.9e\n"
                     % (cfg.seed, *sample.fro_norms())).encode("ascii")])


def _run_map(args, cfg, scene, emit: _Emitter) -> None:
    fmap = coverage_map(scene, metric=args.metric, mode=args.mode,
                        iteration=args.iteration, step=cfg.grid_step_m)
    emit.field_map(f"map_{args.mode}_{args.metric}", fmap)


def _run_cdf(args, cfg, scene, emit: _Emitter) -> None:
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for i, m in enumerate(modes):  # reject every bad mode before any map
        codebook_for(scene, m)
        if m in modes[:i]:
            raise ValueError(f"--modes repeats {m!r}")
    if not modes:
        raise ValueError("--modes needs at least one of hex, dft")
    curves = sinr_cdf(scene, modes=modes, iteration=args.iteration,
                      step=cfg.grid_step_m)
    emit.write("cdf.csv", write_cdf_set, curves)


def _run_timeseries(args, cfg, scene, emit: _Emitter) -> None:
    series = pass_timeseries(scene, (args.x, args.y), mode=args.mode,
                             duration=args.duration, t_start=args.t_start)
    emit.write(f"timeseries_{args.mode}.csv", series.to_csv)


def _run_handover(args, cfg, scene, emit: _Emitter) -> None:
    step = cfg.handover_grid_step_m
    hmap = handover_map(scene, mode=args.mode, step=step)
    emit.field_map(f"handover_{args.mode}", hmap)
    if args.mode == "dynamic":
        smap = handover_map(scene, mode="static", step=step)
        emit.field_map("handover_static", smap)
        bad = dominance_violations(hmap, smap)
        # %d truncates the float counts as int() does
        emit.write("dominance_violations.csv", write_csv,
                   "x_m,y_m,dynamic,static",
                   column_blocks("%.3f,%.3f,%d,%d\n", *bad.T))
        if len(bad):
            print(f"warning: {len(bad)} grid cells hand over more often "
                  f"dynamically than statically (see dominance_violations.csv)",
                  file=sys.stderr)


_RUNNERS = {
    "codebook": _run_codebook,
    "map": _run_map,
    "cdf": _run_cdf,
    "timeseries": _run_timeseries,
    "handover": _run_handover,
}


@functools.cache
def _fix_heap_thresholds() -> bool:
    """Fix the C heap's mmap and trim thresholds, once per process; False
    where the C library has no mallopt.

    glibc serves a block over its mmap threshold by mmap and returns it to
    the kernel when freed, and trims the free top of the heap; both
    thresholds start low and rise only after a large block is freed. A run
    that frees no large array, as a streamed CDF does not, so maps and
    unmaps the evaluator's kernel temporaries on every `_serve` call and
    faults their pages back in each time. Fixed thresholds keep those
    blocks in the heap and reuse their pages.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)])


def main(argv=None) -> int:
    _fix_heap_thresholds()
    try:
        args = _build_parser().parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
        # a float that still leaves its range raises, as numpy's
        # FloatingPointError or Python's ArithmeticError, instead of
        # printing a warning and writing inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = _resolve_config(args)
            scene = build_scene(cfg)
            emit = _Emitter(args.out, cfg)
            _RUNNERS[args.command](args, cfg, scene, emit)
            emit.write_manifest()
    except SystemExit:  # argparse exits only once --help or --version printed
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: a value left float range ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
