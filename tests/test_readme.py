"""The README's library example, run line by line: every ``expr  # value``
line must evaluate to the value its comment shows."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a trailing note in parentheses after the value, e.g. "2  (exact, ...)"
NOTE = re.compile(r"\s+\([^()]*\)$")


def library_example() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library example") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)].splitlines()


def test_readme_library_example_values():
    namespace: dict = {}
    checked = 0
    for line in library_example():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        shown = NOTE.sub("", comment.strip())
        value = eval(code, namespace)
        if isinstance(value, float):
            decimals = len(shown.partition(".")[2])
            assert f"{value:.{decimals}f}" == shown, line
        else:
            assert repr(value) == shown, line
        checked += 1
    assert checked, "no expr  # value line in the example"
