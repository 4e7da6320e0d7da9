"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)
    assert block, "README.md has no python block"
    exec(compile(block[1], str(README), "exec"), {})
