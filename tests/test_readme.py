"""The README's library example runs as written, and its export list is whole."""

import inspect
import re
from pathlib import Path

import coulombium as cb

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
    # the example's last line prints the state's residual check
    assert capsys.readouterr().out.rstrip().endswith("True")


def test_readme_lists_every_export():
    # the paragraph names each function and class it lists, and the errors
    # and the subcritical scan's record (a dataclass) as two groups
    (listed,) = re.findall(r"The package exports (.*?) and the errors\.", README.read_text(), re.S)
    names = set(re.findall(r"`(\w+)`", listed))
    assert [n for n in sorted(names) if not hasattr(cb, n)] == []
    grouped = {"coulombium.errors", "coulombium.diagnostics"}
    exported = {n for n, obj in vars(cb).items() if not n.startswith("_") and (
        inspect.isfunction(obj) or (inspect.isclass(obj) and obj.__module__ not in grouped))}
    assert sorted(exported - names) == []
