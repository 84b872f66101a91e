"""Static guard: no function in src/boolrel reaches itself through calls.

Each module is parsed with `ast`.  The call graph has one node per module
function, method and nested function.  Its edges are the calls that can be
resolved by name: a bare name resolves to a nested function of an enclosing
scope, then to a function or class of the module, then to a name imported
from a sibling module; `self.<name>` resolves to a method of the enclosing
class; calling a class reaches its `__init__` and `__post_init__`.  Other
attribute calls (`super().__init__`, `RuntimeError.__init__(self, ...)`,
methods of other objects) are not followed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import boolrel

PACKAGE = Path(boolrel.__file__).parent


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Edges "module.qualname" -> callees, for modules given as source text."""
    defined: dict[str, ast.AST] = {}  # qualified name -> def or class node
    imports: dict[str, dict[str, str]] = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        imports[module] = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        stack = [(module, stmt) for stmt in tree.body]
        while stack:
            prefix, node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{node.name}"
                defined[name] = node
                stack += [(name, stmt) for stmt in node.body]

    def own_calls(fn: ast.AST):
        """Calls in `fn`'s body, nested defs and classes left out."""
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                yield node.func
            stack += ast.iter_child_nodes(node)

    def resolve(scope: str, name: str) -> list[str]:
        parts = scope.split(".")
        for depth in range(len(parts), 0, -1):
            target = ".".join(parts[:depth] + [name])
            if target in defined and not (
                depth > 1 and isinstance(defined[".".join(parts[:depth])], ast.ClassDef)
            ):
                break
        else:
            target = imports[parts[0]].get(name)
            if target not in defined:
                return []
        if isinstance(defined[target], ast.ClassDef):
            return [f"{target}.{m}" for m in ("__init__", "__post_init__")
                    if f"{target}.{m}" in defined]
        return [target]

    graph: dict[str, set[str]] = {}
    for name, node in defined.items():
        if isinstance(node, ast.ClassDef):
            continue
        # `self` is the instance of the nearest enclosing class.
        parts = name.split(".")
        owner = next(
            (".".join(parts[:i]) for i in range(len(parts) - 1, 0, -1)
             if isinstance(defined.get(".".join(parts[:i])), ast.ClassDef)),
            None,
        )
        edges = graph.setdefault(name, set())
        for func in own_calls(node):
            if isinstance(func, ast.Name):
                edges.update(resolve(name, func.id))
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and f"{owner}.{func.attr}" in defined
            ):
                edges.add(f"{owner}.{func.attr}")
    return graph


def cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """One shortest cycle through each function that reaches itself, as a
    path that starts and ends at the same function; each cycle once."""
    found: dict[frozenset, list[str]] = {}
    for start in sorted(graph):
        parent: dict[str, str] = {}
        frontier = [start]
        while frontier and start not in parent:
            nxt = []
            for node in frontier:
                for callee in sorted(graph.get(node, ())):
                    if callee not in parent:
                        parent[callee] = node
                        nxt.append(callee)
            frontier = nxt
        if start in parent:
            path = [start]
            while len(path) == 1 or path[-1] != start:
                path.append(parent[path[-1]])
            path.reverse()
            found.setdefault(frozenset(path), path)
    return sorted(found.values())


def package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


SAMPLE = {
    "a": '''
from .b import helper


class Error(RuntimeError):
    def __init__(self, message):
        super().__init__(message)
        RuntimeError.__init__(self, message)


class Walker:
    def __init__(self):
        self.done = helper(self)

    def go(self, n):
        def later():
            return self.step(n)

        return later()

    def step(self, n):
        return self.go(n - 1) if n else Error("stop")


def search(items):
    def dfs(i):
        return dfs(i + 1) if i < len(items) else None

    return dfs(0)
''',
    "b": '''
def helper(walker):
    return sorted([walker])
''',
}


def test_detector_finds_planted_cycles():
    # Mutual method recursion (once through a closure) and a self-calling
    # nested function are found;
    # super().__init__ and RuntimeError.__init__(self, ...) are not calls of
    # Error.__init__ itself.
    graph = call_graph(SAMPLE)
    assert graph["a.Walker.__init__"] == {"b.helper"}
    assert graph["a.Walker.step"] == {"a.Walker.go", "a.Error.__init__"}
    assert graph["a.Error.__init__"] == set()
    assert cycles(graph) == [
        ["a.Walker.go", "a.Walker.go.later", "a.Walker.step", "a.Walker.go"],
        ["a.search.dfs", "a.search.dfs"],
    ]


def test_no_function_reaches_itself():
    graph = call_graph(package_sources())
    # Calls across modules and into nested functions were resolved.
    assert "formula.evaluate_lanes" in graph["counting.ConditionalEvaluator._prob"]
    assert "counting._component_groups.find" in graph
    found = cycles(graph)
    assert found == [], "\n".join(" -> ".join(path) for path in found)
