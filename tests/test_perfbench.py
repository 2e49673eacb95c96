import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_wrap_points_resolve():
    # a rename in src must fail here, not only as missing_wrap_points in a
    # traced benchmark run
    tracing = _load_tracing()
    missing = [f"{spec}.{attr}" for spec, attr, *_ in tracing.WRAP_POINTS
               if not hasattr(tracing._owner(spec), attr)]
    assert missing == []
