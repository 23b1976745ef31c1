"""No caller, no name: every name defined in ``src/repro`` has a caller.

The rule (ROADMAP, "Delete what the system does not need"): a
module-level function, class or constant, or a method, whose name nothing
in ``src/``, ``bench/``, ``tools/`` or ``examples/`` references goes,
unless a test uses it as the only way to observe or drive a modelled
mechanism, or a documented snippet calls it.  Those exceptions are
:data:`ALLOWED`, each with its reason.

A reference is a loaded name (``foo``) or a loaded attribute (``x.foo``)
in the parsed code, so a name that only appears in a docstring, a comment
or an ``__init__.py`` re-export does not count.  Matching is by bare name:
a method counts as called when its name is loaded anywhere, which covers
overrides reached through their base class (and lets a same-named local
hide a definition, so the test errs towards keeping a name).  Dunder
methods run implicitly, and a ``@register_experiment`` cell is called by
the experiment registry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
CALLER_ROOTS = ("src", "bench", "tools", "examples")

#: name -> why it stays without a caller.
ALLOWED: Dict[str, str] = {
    "as_pairs": "documented snippet (TimeSeries.as_pairs, README.md)",
    "breakdown_nj": "documented snippet (EnergyModel.breakdown_nj, README.md, "
                    "docs/power.md)",
    "sliding": "documented snippet (TelemetryStream.sliding, docs/alerting.md)",
    "begin": "the LIFO span API whose Tracer.end bench/layers.py wraps",
    "open_depth": "the LIFO span API whose Tracer.end bench/layers.py wraps",
    "hop_count": "the routing contract: each link (a, b) of a route has "
                 "hop_count(a, b) == 1",
    "state_of": "tests observe a line's modelled coherence state",
    "pending_events": "tests observe the kernel's modelled event queue",
    "set_fault_handler": "tests drive the TLB's page-fault path",
    "identity_map": "tests drive the TLB with identity translations",
    "wait_cpu_read": "tests drive the Sec. II-F register barrier",
    "residents": "tests observe the region allocator's residents",
}


def _python_files(root: Path) -> Iterator[Path]:
    yield from sorted(root.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(REPO / "src").with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_registered_cell(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "register_experiment":
            return True
    return False


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(qualname, name)`` for each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_registered_cell(node):
                yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__")
                                 and member.name.endswith("__"))):
                    yield f"{node.name}.{member.name}", member.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id


def _references() -> Set[str]:
    """Names loaded as a plain name or an attribute across the caller roots."""
    loaded: Set[str] = set()
    for root in CALLER_ROOTS:
        for path in _python_files(REPO / root):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    loaded.add(node.attr)
    return loaded


@pytest.fixture(scope="module")
def uncalled() -> Dict[str, List[str]]:
    """Each unreferenced name -> the ``module:qualname`` places defining it."""
    loaded = _references()
    found: Dict[str, List[str]] = {}
    for path in _python_files(PACKAGE):
        module = _module_name(path)
        for qualname, name in _definitions(ast.parse(path.read_text())):
            if name not in loaded:
                found.setdefault(name, []).append(f"{module}:{qualname}")
    return found


def test_every_name_in_src_has_a_caller(uncalled):
    unexplained = {name: places for name, places in sorted(uncalled.items())
                   if name not in ALLOWED}
    assert not unexplained, (
        "no caller in src/, bench/, tools/ or examples/ references these; "
        f"delete them or add a reasoned ALLOWED entry: {unexplained}")


def test_every_allowed_name_still_exists_without_a_caller(uncalled):
    stale = sorted(set(ALLOWED) - set(uncalled))
    assert not stale, (
        f"these ALLOWED names are gone or gained a caller; drop them: {stale}")
