"""README's examples run as written, so a renamed or moved public name
fails here instead of leaving the docs stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    tour = README.read_text().split("## Quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block, "README.md has no python block under Quick tour"
    exec(compile(block.group(1), "README.md (Quick tour)", "exec"), {})
