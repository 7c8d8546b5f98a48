"""The README quick start runs, every name a demo imports from dgfm exists,
every backticked ``dgfm.<name>`` in the README resolves, and the README's CLI
paragraph names every flag the CLI's rule table rejects.

All four catch documentation left behind when the package drops, renames or
adds a name; each demo also runs to exit 0, which catches one that fails at
run time. The package's own single-backticked names must resolve too. Two
more check that the package's star imports export each module's
``__all__`` whole and unshadowed, and that no module of the package imports
another's private (``_``-prefixed) name.
"""

import ast
import functools
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dgfm
from dgfm import cli

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


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # in a scratch directory: a demo may write its output file there
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr}"


def resolve(dotted):
    """The object a dotted ``dgfm.`` path names, as an attribute or a submodule."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        obj = (getattr(obj, part) if hasattr(obj, part)
               else importlib.import_module(".".join(parts[:depth])))
    return obj


def test_readme_dgfm_names_resolve():
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.DOTALL)
    names = {name for span in re.findall(r"`([^`]+)`", prose)
             for name in re.findall(r"\bdgfm(?:\.[A-Za-z_]\w*)+", span)}
    assert names, "README names no dgfm.<name>"
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except ImportError:
            missing.append(name)
    assert not missing, f"README names {missing}, which dgfm does not have"


def has_path(obj, dotted):
    """Whether ``obj`` has the attribute path ``dotted``."""
    try:
        functools.reduce(getattr, dotted.split("."), obj)
    except AttributeError:
        return False
    return True


def test_source_backticked_names_resolve():
    # a single-backticked name, bare or called, resolves in its module, in
    # dgfm, in dgfm.errors or on a class of its module; a `dgfm.` path in
    # dgfm. Other spans are prose.
    paths = sorted((ROOT / "src" / "dgfm").glob("*.py"))
    modules = [importlib.import_module(f"dgfm.{path.stem}") for path in paths]
    missing = []
    for path, module in zip(paths, modules):
        classes = [obj for obj in vars(module).values() if isinstance(obj, type)]
        for span in re.findall(r"(?<!`)`([^`\n]+)`(?!`)", path.read_text()):
            name = re.fullmatch(r"([A-Za-z_][\w.]*)(?:\(.*\))?", span)
            if name is None:
                continue
            name = name.group(1)
            scopes = ([dgfm] if name.startswith("dgfm.")
                      else [module, dgfm, dgfm.errors, *classes])
            if not any(has_path(scope, name.removeprefix("dgfm.")) for scope in scopes):
                missing.append(f"{path.name}: {span}")
    assert not missing, f"backticked names that resolve nowhere: {missing}"


def test_readme_cli_paragraph_names_every_ruled_flag():
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.DOTALL)
    flags = {flag for _, _, flags in cli.FLAG_RULES for flag in flags}
    missing = sorted(flag for flag in flags if f"`--{flag}`" not in prose)
    assert not missing, f"README's CLI paragraph does not name {missing}"


def test_every_listed_name_is_exported_once():
    # dgfm star-imports each module's __all__, so a name that two modules list
    # would silently take the later module's object
    modules = [importlib.import_module(f"dgfm.{info.name}")
               for info in pkgutil.iter_modules(dgfm.__path__)]
    listed = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    names = [name for _, name in listed]
    assert len(names) == len(set(names)), \
        f"listed by two modules: {sorted({name for name in names if names.count(name) > 1})}"
    wrong = [f"{module.__name__}.{name}" for module, name in listed
             if getattr(dgfm, name, None) is not getattr(module, name)]
    assert not wrong, f"dgfm does not export {wrong}"


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is that module's public API, not a `_` helper
    found = []
    for path in sorted((ROOT / "src" / "dgfm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "dgfm"):
                source = "." * node.level + (node.module or "")
                found += [f"{path.name}: from {source} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"
