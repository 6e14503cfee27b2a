"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

from cosmos.optimizer import SearchCounters

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under 'Library use'"
    return match.group(1)


def test_readme_library_example_prints_its_commented_values():
    block = _library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    assert "17.3086" in printed[0]
    assert "22.8506" in printed[2]
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", block, re.M)
    assert len(expected) == 4
    assert printed[: len(expected)] == expected


def test_readme_names_each_optimize_counter():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"The manifest of `optimize` has `counters` of its search:(.*?)Neither manifest", text, re.S)
    assert match, "README has no optimize manifest paragraph"
    assert re.findall(r"`(\w+)`", match.group(1)) == list(SearchCounters._fields)
