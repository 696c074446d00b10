"""Subprocesses started by the tests import the package from this checkout,
as the tests themselves do through pytest's `pythonpath` setting."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
