"""The README's Library example runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", library, flags=re.DOTALL)
    assert blocks, "README Library section has no python block"
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["spot"].total_revenue > 0.0
    assert namespace["dur"].total_revenue > 0.0
    assert namespace["slices"].energy.size and namespace["bands"].energy.size
