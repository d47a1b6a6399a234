"""The README's `## Library use` block runs as written, on the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["checks"] and all(ok for _, ok, _ in names["checks"])
    assert names["curves"]
    assert all(len(p) == 3 and abs(p[1]) < 1e-6 for chain in names["curves"] for p in chain)
