"""The README quick start runs, and every name a demo imports from dgfm exists.

Both catch documentation left behind when the package drops or renames a
name.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_from_dgfm_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dgfm":
            module = importlib.import_module(node.module)
            missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
            assert not missing, f"{demo.name} imports missing names {missing} from {node.module}"
