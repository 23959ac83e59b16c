"""Every package function the benchmark's traced run spans still exists.

``perfbench/run.py`` names its spans as strings; a span whose function is
renamed or removed reads as absent in a traced run instead of failing.
This test reads the names from the harness itself and looks each one up.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _harness():
    """perfbench/run.py, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location("coulombium_perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling modules by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


TARGETS = _harness().trace_targets()


def test_the_harness_names_spans():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("name,module,attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_every_spanned_name_is_a_package_function(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), name
