"""Every function, class and method in ``src/arithdyn`` is reached.

A definition counts as reached when its name appears, as an ``ast.Name`` or
an ``ast.Attribute``, in some module other than a package ``__init__``,
outside the definition itself.  A name used only by the tests, or only in
its own body, is library surface no verb can reach.  Dunders, the
``_run_*`` handlers that ``cli._verb`` registers, and the ball containment
contract the tests assert with (``contains``, ``contains_ball``,
``overlaps``) are exempt.

A name shared between classes can hide an unreached method: the check reads
names, not types, so ``TruncSeries.order`` counted as reached while only
``BoettcherSeries.order`` was ever read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arithdyn"
_EXEMPT = {"contains", "contains_ball", "overlaps"}


def _exempt(name: str) -> bool:
    return (name in _EXEMPT or name.startswith("_run_")
            or name.startswith("__") and name.endswith("__"))


def _uses(tree: ast.AST) -> list[tuple[str, tuple[ast.AST, ...]]]:
    """Each name or attribute name in tree, with the definitions around it."""
    out, stack = [], [(tree, ())]
    while stack:
        node, around = stack.pop()
        if isinstance(node, ast.Name):
            out.append((node.id, around))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, around))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around = around + (node,)
        stack.extend((child, around) for child in ast.iter_child_nodes(node))
    return out


def unreached() -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    uses: dict[str, list[tuple[ast.AST, ...]]] = {}
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for name, around in _uses(tree):
                uses.setdefault(name, []).append(around)
    out = []
    for path, tree in trees.items():
        for d in ast.walk(tree):
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _exempt(d.name)
                    and all(d in around for around in uses.get(d.name, []))):
                out.append(f"{path.relative_to(SRC)}:{d.lineno} {d.name}")
    return out


def test_every_definition_is_reached():
    missing = unreached()
    assert not missing, "defined but named nowhere else in src:\n" + "\n".join(missing)
