"""Time one set-up from a fresh interpreter: import leobeams, build the scene.

Prints the seconds from the start of this script to a built scene of the
workload's resolved config. run.py starts it several times per run.

    python3 perfbench/setup_probe.py --set grid_step_m=500
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402

import leobeams  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="overrides", action="append", default=[])
    args = parser.parse_args()
    if not os.path.abspath(leobeams.__file__).startswith(SRC):
        raise SystemExit(f"leobeams imported from {leobeams.__file__}, not {SRC}")
    cfg = leobeams.apply_overrides(leobeams.SceneConfig(), args.overrides)
    leobeams.build_scene(cfg)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
