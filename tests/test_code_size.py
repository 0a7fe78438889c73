"""The size of src/stepsqp in code lines, held under a ceiling.

A code line is a line of a module that is not blank, not a comment line
(first non-space character '#') and not part of a module, class or
function docstring. ROADMAP.md tracks this count as the measure of its
aim of the same behaviour from the least code. A change that adds code
raises CODE_LINE_CEILING and says why in CHANGES.md; one that removes
code lowers it, so the next addition has to argue from the new count.

    python3 -m pytest tests/test_code_size.py -s    # prints the per-module table
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stepsqp"

CODE_LINE_CEILING = 1287


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstring_lines
    )


def test_code_lines_stay_under_the_ceiling():
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    for name, count in counts.items():
        print(f"{name:<14}{count:>6}")
    print(f"{'total':<14}{total:>6}  (ceiling {CODE_LINE_CEILING})")
    assert total <= CODE_LINE_CEILING, (
        f"src/stepsqp has {total} code lines, above the ceiling of {CODE_LINE_CEILING}")


def test_docstrings_and_comments_are_not_code():
    source = '"""Module.\n\nMore."""\n\n# note\nclass A:\n    """A."""\n\n    def f(self):\n' \
             '        """F.\n        """\n        return 1  # inline\n'
    assert code_lines(source) == 3
