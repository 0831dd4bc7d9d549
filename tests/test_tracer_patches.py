"""The benchmark tracer's patch list still names functions the package has.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its ``PATCHES``
in a timing span and skips, as ``unpatched``, any name it cannot find. A
rename in the package would then silently drop a per-layer metric; this test
makes it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


PATCHES = _load_tracer().PATCHES


@pytest.mark.parametrize(
    "module_name, attr", [patch[:2] for patch in PATCHES], ids=[f"{m}.{a}" for m, a, *_ in PATCHES]
)
def test_every_traced_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
