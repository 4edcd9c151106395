"""Every public name of the package is used by the package itself.

A public module-level function or class, or a public method, that nothing
in src/smlpde references outside its own definition is reached only by
tests, and is deleted rather than kept.  ALLOWED names the exceptions, each
with the reason it stays.  A reference is any name or attribute with the
same identifier.  __init__.py re-exports nothing, so it holds no reference
and binds no name but __version__.

Matching bare identifiers cannot tell two methods of one name apart, nor a
method from the numpy array method it shares a name with: an unused
Vars.copy looked reached through every array's .copy().  So the public
methods whose identifier is defined more than once in the package, or is
an np.ndarray attribute, are listed in SHARED, each with a function of the
package that calls it; a new such method fails the test until it is listed
with its caller.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np

import smlpde

SRC = Path(smlpde.__file__).parent

ALLOWED = {
    # hypotheses of the convergence theorem, to be written per scale by the
    # study (ROADMAP.md, direction 4)
    "measurement.operator_gap": "gap of K_m to the identity",
    "mlp.lipschitz_bound": "network Lipschitz bound against the box",
    "mlp.Activation.lipschitz_on": "activation constant for lipschitz_bound",
    "physics.affine_check": "affine dependence of the physics on phi",
    # the reduced limit problem that the study converges to (ROADMAP.md,
    # direction 3)
    "ground_truth.limit_oracle": "reference solution of the limit problem",
    # counted by the study benchmark's span recorder (studybench/spans.py)
    "mlp.Activation.deriv": "benchmark counter mlp.deriv_calls",
    "mlp.Activation.deriv2": "benchmark counter mlp.deriv_calls",
}


SHARED = {
    "harness.ScaleRow.cells": "harness.run_convergence_study",
    "objective.ObjectiveBreakdown.cells": "harness.ScaleRow.cells",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _definitions(module, tree):
    """(qualified name, identifier, first line, last line) of every public
    top-level function or class and every public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def unreferenced_names():
    trees = _trees()
    refs = {}   # identifier -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            else:
                continue
            refs.setdefault(ident, []).append((module, node.lineno))
    unused = set()
    for module, tree in trees.items():
        for qualname, ident, first, last in _definitions(module, tree):
            if not any(m != module or not first <= line <= last
                       for m, line in refs.get(ident, ())):
                unused.add(qualname)
    return unused


def test_every_public_name_is_reached_or_allowed():
    assert unreferenced_names() == set(ALLOWED)


def test_package_binds_only_its_version():
    # every caller imports a module (from smlpde import harness); a
    # re-export would be a second name for a definition that nothing reads
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert [target.id for target in body[1].targets] == ["__version__"]


def shared_methods(trees):
    """Public methods whose identifier is defined more than once in the
    package (nested functions included) or is an np.ndarray attribute."""
    defined = Counter(node.name for tree in trees.values()
                      for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return {qualname
            for module, tree in trees.items()
            for qualname, ident, _, _ in _definitions(module, tree)
            if qualname.count(".") == 2
            and (defined[ident] > 1 or hasattr(np.ndarray, ident))}


def _function_node(trees, qualname):
    """The def of module.function or module.Class.method, private ones too."""
    module, *path = qualname.split(".")
    body = trees[module].body
    for name in path:
        node = next(n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == name)
        body = node.body
    return node


def test_shared_method_names_are_listed_with_a_caller():
    trees = _trees()
    assert shared_methods(trees) == set(SHARED)
    for method, caller in SHARED.items():
        ident = method.rsplit(".", 1)[1]
        calls = [node for node in ast.walk(_function_node(trees, caller))
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == ident]
        assert calls, f"{caller} does not call .{ident}()"


def numpy_random_uses(trees):
    """(module, line) of every `np.random` or `numpy.random` attribute and
    every import of numpy.random in the package."""
    uses = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "random" and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy")
            elif isinstance(node, ast.Import):
                hit = any(a.name.split(".")[:2] == ["numpy", "random"]
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                hit = parts[:2] == ["numpy", "random"] or parts == ["numpy"] \
                    and any(a.name == "random" for a in node.names)
            else:
                continue
            if hit:
                uses.append((module, node.lineno))
    return uses


def test_no_module_names_numpy_random():
    # seeded draws come from Python's random.Random: numpy.random would load
    # eleven modules, secrets and OpenSSL's _hashlib into every process.
    # test_objective's fresh-interpreter test sees the commands; this sees
    # the code they do not run, such as the limit oracle
    assert numpy_random_uses(_trees()) == []
    probe = ast.parse("import numpy.random\nfrom numpy import random\n"
                      "x = np.random.default_rng(0)\n")
    assert numpy_random_uses({"probe": probe}) == [("probe", 1), ("probe", 2),
                                                   ("probe", 3)]
