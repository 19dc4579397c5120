import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_comments():
    # each call with a `# value` comment must print that value (the text before a double space)
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert str(value) == comment.strip().split("  ")[0], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
    assert checked == 6
