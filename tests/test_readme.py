"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
    # the example's last line prints the state's residual check
    assert capsys.readouterr().out.rstrip().endswith("True")
