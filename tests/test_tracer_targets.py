"""Every function and method the per-layer tracer wraps must exist.

``perfbench/tracer.py`` names its targets as strings and imports only the
standard library, so it is loaded here by path; a renamed or moved target
would otherwise only show up when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("module_name,attr,key", TARGETS, ids=[key for _, _, key in TARGETS])
def test_tracer_target_resolves(module_name, attr, key):
    module = importlib.import_module(f"fraisse.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[meth])
    else:
        assert callable(getattr(module, attr))
