"""The README's library example runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def _expression_values(source: str) -> list:
    """Run the block statement by statement; collect each bare expression's value."""
    namespace: dict = {}
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), README.name, "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
    return values


def test_library_example_matches_its_comments():
    digits, (verdict, ranks), (k, d_k), b_10 = _expression_values(_library_block())
    assert digits == (1, 2)
    assert (verdict, ranks) == ("criterion_violated", [10, 100, 1000])
    assert k == 100 and str(d_k).startswith("0.99971")
    assert abs(b_10 - 7.6e-10) < 0.05e-10
