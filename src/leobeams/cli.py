"""Command-line front end.

Every run resolves its configuration (file, then --set overrides, then
dedicated flags), builds the scene, writes the requested outputs, and ends
with manifest.txt: the resolved configuration echoed as key = value lines
plus a sha256 digest comment per output file. The manifest is itself a valid
config file, so re-feeding it reproduces the run byte for byte.

Exit code 0 on success; nonzero with a single-line `error: ...` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .codebook import phase_table
from .config import (SceneConfig, apply_overrides, build_scene, format_config,
                     load_config, resolve_dt)
from .fields import write_cdf_set, write_csv
from .link import rician_sample
from .simulate import (codebook_for, coverage_map, dominance_violations,
                       handover_map, pass_timeseries, sinr_cdf)

HASH_BLOCK = 2**20  # bytes read per sha256 update


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the stochastic channel draw")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse copies a list
    default before appending to it, so calls never share their --set lists."""
    parser = argparse.ArgumentParser(
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
    p.add_argument("--metric", choices=("snr", "sinr", "cell"), default="sinr")
    p.add_argument("--mode", choices=("hex", "dft"), default="hex")
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
    p.add_argument("--mode", choices=("static", "dynamic", "dft"),
                   default="dynamic")
    p.add_argument("--duration", type=float, default=None, help="seconds")
    p.add_argument("--t-start", type=float, default=0.0, help="seconds")
    p.add_argument("--dt", type=float, default=None,
                   metavar="S", help="override dt_s")

    p = sub.add_parser("handover", help="write a handover-count map")
    _common(p)
    p.add_argument("--mode", choices=("static", "dynamic", "dft"),
                   default="dynamic")
    p.add_argument("--grid-step", type=float, default=None,
                   metavar="M", help="override handover_grid_step_m")
    return parser


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
    """Tracks written outputs and finishes with the manifest."""

    def __init__(self, out_dir: str, cfg: SceneConfig):
        self.out_dir = out_dir
        self.cfg = cfg
        self.records: list[tuple[str, str]] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def done(self, name: str) -> None:
        digest = hashlib.sha256()
        with open(self.path(name), "rb") as fh:
            for block in iter(lambda: fh.read(HASH_BLOCK), b""):
                digest.update(block)
        self.records.append((name, digest.hexdigest()))

    def field_map(self, stem: str, fmap) -> None:
        """Write a map as <stem>.csv and <stem>.ppm and record both."""
        fmap.to_csv(self.path(stem + ".csv"))
        self.done(stem + ".csv")
        fmap.to_ppm(self.path(stem + ".ppm"))
        self.done(stem + ".ppm")

    def write_manifest(self) -> None:
        with open(self.path("manifest.txt"), "w") as fh:
            fh.write(f"# leobeams {__version__} resolved configuration\n")
            fh.write(format_config(self.cfg))
            for name, digest in self.records:
                fh.write(f"# output {name} sha256={digest}\n")


def _beams(book):
    """(iteration, beam_id, rf_chain, (x, y)) of every beam of one cycle, in
    iteration then ascending-ID order, as Python numbers."""
    for k, (ts, ids, rf) in enumerate(zip(book.targets, book.ids, book.rf)):
        yield from ((k, b, c, t) for b, c, t in
                    zip(ids.tolist(), rf.tolist(), ts.tolist()))


def _run_codebook(args, cfg, scene, emit: _Emitter) -> None:
    write_csv(emit.path("cycle.csv"),
              "iteration,beam_id,rf_chain,target_x_m,target_y_m",
              (f"{k},{b},{c},{x:.3f},{y:.3f}\n"
               for k, b, c, (x, y) in _beams(scene.hex)))
    emit.done("cycle.csv")
    write_csv(emit.path("dft_grid.csv"),
              "beam_id,rf_chain,target_x_m,target_y_m",
              (f"{b},{c},{x:.3f},{y:.3f}\n"
               for _, b, c, (x, y) in _beams(scene.dft)))
    emit.done("dft_grid.csv")
    if args.phases:
        write_csv(emit.path("phases.csv"),
                  "iteration,beam_id,element_index,phase_radians",
                  (f"{k},{b},{idx},{phase:.9f}\n"
                   for k, b, c, t in _beams(scene.hex)
                   for idx, phase in phase_table(t, scene.geometry, c,
                                                 scene.h_sat)))
        emit.done("phases.csv")
    if args.channel_check:
        rng = np.random.default_rng(cfg.seed)
        sample = rician_sample((0.0, 0.0), scene.geometry, scene.h_sat,
                               scene.link, rng)
        matrix, los, scatter = sample.fro_norms()
        write_csv(emit.path("channel_check.csv"),
                  "seed,matrix_fro,los_fro,scatter_fro",
                  [f"{cfg.seed},{matrix:.9e},{los:.9e},{scatter:.9e}\n"])
        emit.done("channel_check.csv")


def _run_map(args, cfg, scene, emit: _Emitter) -> None:
    fmap = coverage_map(scene, metric=args.metric, mode=args.mode,
                        iteration=args.iteration, step=cfg.grid_step_m)
    emit.field_map(f"map_{args.mode}_{args.metric}", fmap)


def _run_cdf(args, cfg, scene, emit: _Emitter) -> None:
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for m in modes:  # reject every bad mode before any map is computed
        codebook_for(scene, m)
    if not modes:
        raise ValueError("--modes needs at least one of hex, dft")
    curves = sinr_cdf(scene, modes=modes, iteration=args.iteration,
                      step=cfg.grid_step_m)
    write_cdf_set(emit.path("cdf.csv"), curves)
    emit.done("cdf.csv")


def _run_timeseries(args, cfg, scene, emit: _Emitter) -> None:
    series = pass_timeseries(scene, (args.x, args.y), mode=args.mode,
                             duration=args.duration, dt=resolve_dt(cfg, scene),
                             t_start=args.t_start)
    name = f"timeseries_{args.mode}.csv"
    series.to_csv(emit.path(name))
    emit.done(name)


def _run_handover(args, cfg, scene, emit: _Emitter) -> None:
    step = cfg.handover_grid_step_m
    dt = resolve_dt(cfg, scene)
    hmap = handover_map(scene, mode=args.mode, step=step, dt=dt)
    emit.field_map(f"handover_{args.mode}", hmap)
    if args.mode == "dynamic":
        smap = handover_map(scene, mode="static", step=step, dt=dt)
        emit.field_map("handover_static", smap)
        bad = dominance_violations(hmap, smap)
        write_csv(emit.path("dominance_violations.csv"),
                  "x_m,y_m,dynamic,static",
                  (f"{x:.3f},{y:.3f},{int(d)},{int(s)}\n"
                   for x, y, d, s in bad.tolist()))
        emit.done("dominance_violations.csv")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a float that still leaves its range raises, as numpy's
        # FloatingPointError or Python's ArithmeticError, instead of
        # printing a warning and writing inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = _resolve_config(args)
            scene = build_scene(cfg)
            emit = _Emitter(args.out, cfg)
            _RUNNERS[args.command](args, cfg, scene, emit)
            emit.write_manifest()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: a value left float range ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
