"""What the README and the project files promise about each other: the
README's library example runs as written, and CI tests every interpreter
that ``pyproject.toml`` allows."""

import contextlib
import io
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def section_code(markdown: str, heading: str) -> str:
    """The first ```` ```python ```` block under ``heading``."""
    section = markdown.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    code = section_code((ROOT / "README.md").read_text(), "## Library")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    # one task completed, no conflicts
    assert out.getvalue() == "1 0\n"


def matrix_problems(requires_python: str, workflow: str) -> list[str]:
    """What keeps the CI matrix in ``workflow`` from being exactly the
    consecutive CPython 3 minor releases from the ``>=3.N`` floor on."""
    floor = re.fullmatch(r">=\s*3\.(\d+)", requires_python.strip())
    if floor is None:
        return [f"requires-python {requires_python!r} is not a >=3.N floor"]
    line = re.search(r"python-version:\s*\[(.*?)\]", workflow)
    if line is None:
        return ["no python-version matrix"]
    listed = re.findall(r'"([^"]*)"', line.group(1))
    first = int(floor.group(1))
    expected = [f"3.{minor}" for minor in range(first, first + len(listed))]
    return [] if listed == expected else [f"matrix {listed}, expected {expected}"]


def test_matrix_problems_flags_a_stale_matrix():
    workflow = 'python-version: ["3.10", "3.11", "3.12", "3.13"]'
    assert matrix_problems(">=3.11", workflow)
    assert matrix_problems(">=3.11", 'python-version: ["3.11", "3.13"]')
    assert matrix_problems(">=3.11", "runs-on: ubuntu-latest")
    assert matrix_problems(">=3.11,<4", workflow)
    assert matrix_problems(">=3.10", workflow) == []


def test_ci_matrix_is_every_allowed_interpreter():
    with open(ROOT / "pyproject.toml", "rb") as f:
        requires = tomllib.load(f)["project"]["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert matrix_problems(requires, workflow) == []
