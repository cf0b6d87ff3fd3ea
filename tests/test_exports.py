"""The package exports only what its own code uses.

Every name that ``fedcurr/__init__.py`` imports must be referenced somewhere
else in the package, outside its own definition, or be on ``ALLOWED`` with
the reason it stays. References are resolved through the module a name
comes from: ``theory``'s ``prob.grad(...)`` is a method call, not a use of
``models.grad``. A reference made inside an allowed definition does not
count, so a name that only an allowed export uses is allowed too.
"""

import ast
import os
from collections import defaultdict

import pytest

import fedcurr

PACKAGE = os.path.dirname(os.path.abspath(fedcurr.__file__))

_BENCHMARK = "wrapped by perfbench/traced.py:LAYERS; deleted with the next benchmark change"
_CRITERION_12 = "used by acceptance criterion 12"
ALLOWED = {
    ("clients", "client_loss"): _BENCHMARK,
    ("models", "sgd_step"): _BENCHMARK,
    ("models", "grad"): _BENCHMARK,
    ("models", "predict"): _BENCHMARK,
    ("theory", "biased_grad"): _BENCHMARK,
    ("models", "hessian_decomposition"): _CRITERION_12,
    ("models", "HessianDecomposition"): _CRITERION_12,
}


def _parse(name: str) -> ast.Module:
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _exports() -> list[tuple[str, str]]:
    """(home module, name) of every name ``fedcurr/__init__.py`` imports."""
    return [
        (node.module, alias.name)
        for node in _parse("__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


def _local_names(fn: ast.FunctionDef) -> set[str]:
    """Names that ``fn`` binds itself, which hide module-level names in it."""
    a = fn.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {arg.arg for arg in (a.vararg, a.kwarg) if arg is not None}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not fn:
            names.add(node.name)
    return names


class _References(ast.NodeVisitor):
    """The package names one module refers to, each with the top-level
    definitions of the module that refer to it (None: module level)."""

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        self.names: dict[str, tuple[str, str]] = {}  # local name -> (home, name)
        self.modules: dict[str, str] = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        self.names[local] = (node.module, alias.name)
                    else:
                        self.modules[local] = alias.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.names[node.name] = (module, node.name)
        self.found: dict[tuple[str, str], set[str | None]] = defaultdict(set)
        self.top: str | None = None
        self.scopes: list[set[str]] = []
        self.visit(tree)

    def _hidden(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _definition(self, node, scope: set[str] | None) -> None:
        outer = self.top
        if self.top is None and not self.scopes:
            self.top = node.name
        if scope is not None:
            self.scopes.append(scope)
        self.generic_visit(node)
        if scope is not None:
            self.scopes.pop()
        self.top = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._definition(node, _local_names(node))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._definition(node, None)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.names and not self._hidden(node.id):
            self.found[self.names[node.id]].add(self.top)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name) and value.id in self.modules and not self._hidden(value.id):
            self.found[(self.modules[value.id], node.attr)].add(self.top)
        self.generic_visit(node)


def _used(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The (home, name) pairs ``module`` uses outside their own definition
    and outside every allowed definition."""
    refs = _References(module, tree)
    return {
        key
        for key, tops in refs.found.items()
        for top in tops
        if (module, top) != key and (module, top) not in ALLOWED
    }


def _package_uses() -> set[tuple[str, str]]:
    used = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            used |= _used(name[:-3], _parse(name))
    return used


def test_every_export_is_used_by_the_package_or_allowed():
    used = _package_uses()
    unused = [f"{m}.{n}" for m, n in _exports() if (m, n) not in used | set(ALLOWED)]
    assert not unused, f"exported but used only outside the package: {unused}"


def test_every_allowed_export_is_exported_and_unused():
    exports, used = set(_exports()), _package_uses()
    stale = [f"{m}.{n}" for m, n in ALLOWED if (m, n) not in exports or (m, n) in used]
    assert not stale, f"allowed names that are no longer exported or are now used: {stale}"


@pytest.mark.parametrize(
    "source,used",
    [
        ("from .models import grad\ndef f(prob):\n    return prob.grad(1)\n", False),
        ("from .models import grad\ndef f(x):\n    return grad(x)\n", True),
        ("from . import models\ndef f(x):\n    return models.grad(x)\n", True),
        ("from .models import grad\ndef f(grad):\n    return grad(1)\n", False),
        ("def grad(x):\n    return grad(x)\n", False),
        ("def grad(x):\n    return x\ndef f(x):\n    return grad(x)\n", True),
        ("def sgd_step(x):\n    return grad(x)\nfrom .models import grad\n", False),
    ],
    ids=["method", "imported", "module_attribute", "shadowed", "own_definition", "same_module",
         "inside_allowed"],
)
def test_references_resolve_by_module(source, used):
    assert (("models", "grad") in _used("models", ast.parse(source))) is used
