"""Every function the traced benchmark run wraps must exist in the package.

The traced run (`perfbench/run.py --trace 1`) wraps the (module, attribute)
pairs listed in `TARGETS` of `perfbench/tracing.py`; the file is parsed, not
imported, so nothing under `perfbench/` runs or is written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS list")


# install() also wraps counting.half_points_up_to to count enumerated points.
NAMES = [t[:2] for t in _targets()] + [("counting", "half_points_up_to")]


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_exists(module, attr):
    obj = importlib.import_module(f"ternaryforms.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
