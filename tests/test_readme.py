"""README's "Library surface" example runs as written."""

import ast
import shutil
from pathlib import Path

from galois_energy import fileio

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_example_runs_and_holds_its_claims(tmp_path, monkeypatch):
    """The example loads ``game.json`` from the working directory, here the
    bundled espresso game; every statement runs in order, and each line
    marked ``# True`` evaluates to ``True``."""
    section = README.read_text().split("## Library surface", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copy(fileio.bundled_game_path(), tmp_path / "game.json")
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    namespace: dict = {}
    claims = 0
    for node in ast.parse(block).body:
        if lines[node.end_lineno - 1].rstrip().endswith("# True"):
            assert isinstance(node, ast.Expr)
            assert eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace) is True
            claims += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert claims == 1
