"""Every function, class and module-level name of the package is named somewhere besides its definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench", "tools")


def _defined_names(tree: ast.Module):
    """The names of every function and class of ``tree`` and of every name a
    module-level assignment binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name):
                        yield name.id


def _definitions() -> dict[str, int]:
    """Name -> number of definitions, over every non-dunder name ``_defined_names`` finds in ``src/drivlab``."""
    counts: dict[str, int] = {}
    for path in sorted((ROOT / "src" / "drivlab").rglob("*.py")):
        for name in _defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            if not (name.startswith("__") and name.endswith("__")):
                counts[name] = counts.get(name, 0) + 1
    return counts


def test_every_definition_is_named_elsewhere():
    texts = [path.read_text(encoding="utf-8") for top in SEARCHED for path in sorted((ROOT / top).rglob("*"))
             if path.suffix == ".py"]
    texts.append((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    words: dict[str, int] = {}
    for text in texts:
        for word in re.findall(r"\w+", text):
            words[word] = words.get(word, 0) + 1
    # a def or class statement names its own word once
    unused = sorted(name for name, defined in _definitions().items() if words.get(name, 0) <= defined)
    assert not unused, f"defined but never named elsewhere: {', '.join(unused)}"
