"""The README's Python examples run as written, under the suite's warnings-as-errors setting."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_each_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
