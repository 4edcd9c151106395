"""Every public name of the package is used by the package itself.

A public module-level function or class, or a public method, that nothing
in src/smlpde references outside its own definition is reached only by
tests, and is deleted rather than kept.  ALLOWED names the exceptions, each
with the reason it stays.  A reference is any name or attribute with the
same identifier; the re-exports in __init__.py do not count.
"""

import ast
from pathlib import Path

import smlpde

SRC = Path(smlpde.__file__).parent

ALLOWED = {
    # hypotheses of the convergence theorem, to be written per scale by the
    # study (ROADMAP.md, direction 3)
    "measurement.operator_gap": "gap of K_m to the identity",
    "mlp.lipschitz_bound": "network Lipschitz bound against the box",
    "mlp.Activation.lipschitz_on": "activation constant for lipschitz_bound",
    "physics.affine_check": "affine dependence of the physics on phi",
    # the reduced limit problem that the study converges to (ROADMAP.md,
    # direction 2)
    "ground_truth.limit_oracle": "reference solution of the limit problem",
    # counted by the study benchmark's span recorder (studybench/spans.py)
    "mlp.Activation.deriv": "benchmark counter mlp.deriv_calls",
    "mlp.Activation.deriv2": "benchmark counter mlp.deriv_calls",
}


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
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
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
