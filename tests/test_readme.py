"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_examples_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(README.parent)  # the examples name files relative to the repository root
    for i, source in enumerate(blocks, start=1):
        exec(compile(source, f"{README.name}, python block {i}", "exec"), {"__name__": f"readme_block_{i}"})
