"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import cosmos
import cosmos.errors
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


def test_readme_names_only_live_classes():
    # Every backticked CamelCase name is a class or function the package
    # exports, so that the README cannot keep naming a deleted one.
    names = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`", README.read_text(encoding="utf-8")))
    assert "PlacementModel" in names
    dead = sorted(n for n in names - {"Decimal"} if not hasattr(cosmos, n) and not hasattr(cosmos.errors, n))
    assert dead == []
