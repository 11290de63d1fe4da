#!/usr/bin/env python3
"""Fail when a definition under ``src/repro`` has no caller outside ``tests/``,
or a module there imports a name it never uses.

Product code lives in ``src/``; a function, class, method or property
that nothing in ``src/``, ``examples/``, ``scripts/`` or ``benchmarks/``
uses is either a test oracle (it belongs in a ``tests/`` module) or dead
code.  The scan is by name, and a name counts only where it is used:

* a bare name counts where it is read, not where it is bound (a local
  variable named ``timings`` calls no ``timings`` method);
* an attribute counts wherever it is accessed (``obj.step``);
* a string literal counts only when it is exactly the identifier
  (``getattr(owner, "step")`` and the stack benchmark's entry-point
  tuples name methods that way); a word inside a longer string does not.

A method or property (a definition inside a class) counts only through
an attribute or such a string; a module-level function or class also
through a bare read.  Nothing counts at its own ``def``, in an
``__all__`` list, in an import line, in a docstring or in the literal
part of an f-string.  Dunders are exempt.  A name shared by two
definitions hides both, so the scan misses some dead code.

:data:`ALLOWED` lists the definitions kept without a caller, each with its
reason — an allow-list that only shrinks: an entry that gains a caller or
no longer exists fails, so it must be removed.

A module under ``src/repro`` other than a package's ``__init__`` fails
when it imports a name that its code never reads and its ``__all__`` does
not list (an ``__init__`` imports to re-export).  Names inside a string
annotation count as read.

An attribute that ``src/repro`` assigns or augments (``self.hits = 0``,
``self.hits += 1``) fails when no tree reads it, ``tests/`` included: state
only ever written is waste, while a counter a test asserts on is pinned
behaviour.  A read is the attribute in a load (``obj.hits``) or the
identifier string (``getattr(obj, "hits")``), matched by name like the
rules above, so a read of a same-named attribute elsewhere hides a
finding.

    python scripts/check_unreferenced.py   # exit 1 on any finding
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Trees whose code counts as a caller.
REFERENCE_TREES = ("src", "examples", "scripts", "benchmarks")

#: Trees whose code counts as a reader of an attribute.
READER_TREES = REFERENCE_TREES + ("tests",)

#: qualified name -> why it stays without a caller.
ALLOWED: Dict[str, str] = {
    "repro.core.engine.decompress_bytes": (
        "the inverse of the public compress_bytes; the one-call form of "
        "registry.get('gd').decompress_stream"
    ),
    "repro.tofino.constraints.containers_for_field": (
        "PHV container packing of one header field; ROADMAP item 4(c)'s "
        "resource rows are its caller"
    ),
}

def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(root: Path, path: Path) -> str:
    parts = list(path.relative_to(root / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(
    body: List[ast.stmt], prefix: str, member: bool = False
) -> Iterator[Tuple[str, str, int, bool]]:
    """``(qualified name, name, line, is a class member)`` of every function,
    class and method."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{node.name}"
            if not _is_dunder(node.name):
                yield qualified, node.name, node.lineno, member
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, qualified, member=True)


def definitions(root: Path) -> List[Tuple[str, str, str, bool]]:
    """``(qualified name, name, "path:line", is a class member)`` for every
    definition in ``src/repro``."""
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = _module_name(root, path)
        location = path.relative_to(root).as_posix()
        found.extend(
            (qualified, name, f"{location}:{line}", member)
            for qualified, name, line, member in _definitions(tree.body, module)
        )
    return found


def _docstrings(tree: ast.AST) -> Set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def _skipped(tree: ast.AST) -> Set[int]:
    """Nodes that name a definition without using it: docstrings,
    ``__all__`` lists, a property's own ``@name.setter`` decorator and the
    literal parts of an f-string (``f"{prefix}.raw_payload_bytes"`` builds
    a counter name; it calls nothing)."""
    ids = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            ids.update(
                id(part) for part in node.values if isinstance(part, ast.Constant)
            )
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(child) for child in ast.walk(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Attribute)
                    and isinstance(decorator.value, ast.Name)
                    and decorator.value.id == node.name
                ):
                    ids.add(id(decorator.value))
    return ids


def _scanned(root: Path, trees: Tuple[str, ...]) -> Iterator[ast.AST]:
    """Every node of the code under ``trees`` that :func:`_skipped` keeps
    (this script's own allow-list excluded)."""
    own = Path(__file__).name
    for tree_name in trees:
        for path in sorted((root / tree_name).rglob("*.py")):
            if tree_name == "scripts" and path.name == own:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            skipped = _skipped(tree)
            yield from (node for node in ast.walk(tree) if id(node) not in skipped)


def _identifier_string(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    )


def referenced_names(root: Path) -> Tuple[Set[str], Set[str]]:
    """``(bare reads, attributes and identifier strings)`` of the code under
    :data:`REFERENCE_TREES`."""
    reads: Set[str] = set()
    members: Set[str] = set()
    for node in _scanned(root, REFERENCE_TREES):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif _identifier_string(node):
            members.add(node.value)
    return reads, members


def attribute_reads(root: Path) -> Set[str]:
    """Attributes read under :data:`READER_TREES`: loaded, or named by an
    identifier string."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in _scanned(root, READER_TREES)
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        or _identifier_string(node)
    }


def assigned_attributes(root: Path) -> List[Tuple[str, str, str]]:
    """``(qualified name, attribute, "path:line")`` of every attribute store
    under ``src/repro``, qualified by the class (else module) it sits in."""
    found = []

    def visit(node: ast.AST, owner: str, location: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{owner}.{child.name}", location)
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Store)
                and not _is_dunder(child.attr)
            ):
                found.append(
                    (f"{owner}.{child.attr}", child.attr, f"{location}:{child.lineno}")
                )
            visit(child, owner, location)

    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, _module_name(root, path), path.relative_to(root).as_posix())
    return found


def write_only_attributes(root: Path) -> List[str]:
    """``path:line: owner.attribute is assigned but never read`` per finding."""
    read = attribute_reads(root)
    problems = []
    seen = set()
    for qualified, name, location in assigned_attributes(root):
        if name not in read and qualified not in seen:
            seen.add(qualified)
            problems.append(
                f"{location}: {qualified} is assigned but never read, tests "
                "included — delete it or read it"
            )
    return problems


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names read by the strings of an annotation (``Optional["Lookahead"]``)."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                tree = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for child in ast.walk(tree):
                if isinstance(child, ast.Name):
                    yield child.id


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> Set[str]:
    """The names a module's top-level ``__all__`` lists."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                child.value
                for child in ast.walk(node.value)
                if isinstance(child, ast.Constant) and isinstance(child.value, str)
            )
    return names


def unused_imports(root: Path) -> List[str]:
    """``path:line: module imports NAME but never uses it`` per finding."""
    problems = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for annotation in _annotations(tree):
            read.update(_annotation_names(annotation))
        read |= _exported(tree)
        location = path.relative_to(root).as_posix()
        module = _module_name(root, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in read:
                    problems.append(
                        f"{location}:{node.lineno}: {module} imports {bound} "
                        "but never uses it"
                    )
    return problems


def violations(root: Path) -> List[str]:
    reads, members = referenced_names(root)
    problems: List[str] = []
    seen = set()
    for qualified, name, location, member in definitions(root):
        seen.add(qualified)
        if name in members or (not member and name in reads):
            if qualified in ALLOWED:
                problems.append(
                    f"{qualified}: allow-listed but now has a caller — "
                    "remove it from ALLOWED"
                )
        elif qualified not in ALLOWED:
            problems.append(
                f"{location}: {qualified} has no caller outside tests/ — "
                "delete it, give it a caller, or move it to a tests/ oracle"
            )
    problems.extend(
        f"{qualified}: allow-listed but does not exist"
        for qualified in ALLOWED
        if qualified not in seen
    )
    problems.extend(unused_imports(root))
    problems.extend(write_only_attributes(root))
    return problems


def main() -> int:
    problems = violations(REPO_ROOT)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"every definition under src/repro has a caller outside tests/ "
        f"({len(ALLOWED)} allow-listed), every import there is used and "
        f"every attribute it assigns is read"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
