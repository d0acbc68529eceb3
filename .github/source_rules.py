"""Source rules for src/geoctrl, checked in CI.

    python .github/source_rules.py

Prints one line per finding and exits 1 if there is any.  The rules:

- no line under src/ longer than 105 characters (the longest has 105; keeping
  it so means a line count cannot drop by joining lines);
- no unused import outside __init__.py (whose imports are the re-exports);
- the Cholesky routines are imported only by geometry.py: M(q) is factored
  and solved only in the point kernel, geometry.PointData;
- every module-level private name (def, class or assignment) is read somewhere
  else under src/: otherwise it is dead code, or a helper only tests use;
- the model callables are read through MechanicalSystem's readers in
  geometry.py (models.py builds them); elsewhere only a None test of one may
  appear;
- every public name in geoctrl.__all__ is read by a module under src/ (outside
  its own definition), documented in README.md or used by an acceptance
  criterion: otherwise only tests reach it, a second way to a result the
  library already gives.
"""

import ast
import glob
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 105
LAPACK = {"dpotrf", "dpotrs", "dpocon"}
MODEL = {"inertia", "dinertia", "input_covectors", "dinput_covectors", "potential", "dpotential",
         "damping"}


def parse(name):
    return ast.parse((ROOT / name).read_text(encoding="utf-8"))


def modules():
    """(relative path, syntax tree) of every module of the package, by name."""
    return [(name, parse(name))
            for name in sorted(str(Path(p).relative_to(ROOT))
                               for p in glob.glob(str(ROOT / "src/geoctrl/*.py")))]


def defines(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return [n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def uses(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]


def long_lines():
    files = subprocess.run(["git", "ls-files", "src"], cwd=ROOT, capture_output=True, text=True,
                           check=True)
    return [f"{name}:{i}: {len(line)} characters"
            for name in files.stdout.split()
            for i, line in enumerate((ROOT / name).read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]


def unused_imports(trees):
    found = []
    for name, tree in trees:
        if name.endswith("__init__.py"):
            continue
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{name}:{line}: '{n}' imported but unused"
                  for n, line in imported.items() if n not in used]
    return found


def cholesky_outside_geometry(trees):
    return [f"{name}:{node.lineno}: imports {alias.name}"
            for name, tree in trees if not name.endswith("geometry.py")
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.name.split(".")[-1] in LAPACK]


def unused_private_names(trees):
    statements = [node for _, tree in trees for node in tree.body]
    return [f"{name}:{node.lineno}: '{private}' is used only where it is defined"
            for name, tree in trees
            for node in tree.body
            for private in defines(node)
            if private.startswith("_") and not private.endswith("__")
            and not any(private in uses(other) for other in statements if other is not node)]


def model_callables_read(trees):
    found = []
    for name, tree in trees:
        if name.endswith(("/geometry.py", "/models.py")):
            continue
        tested = {id(node.left) for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and len(node.ops) == 1
                  and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                  and isinstance(node.comparators[0], ast.Constant)
                  and node.comparators[0].value is None}
        found += sorted((name, node.lineno, node.attr) for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and node.attr in MODEL and id(node) not in tested)
    return [f"{name}:{line}: reads the model callable '{attr}'" for name, line, attr in found]


def unread_public_names(trees):
    (public,) = [ast.literal_eval(node.value) for node in parse("src/geoctrl/__init__.py").body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    statements = [node for name, tree in trees if not name.endswith("__init__.py")
                  for node in tree.body]
    read = {name for node in statements for name in uses(node) if name not in defines(node)}
    text = "".join((ROOT / name).read_text(encoding="utf-8")
                   for name in ("README.md", "tests/test_acceptance.py"))
    return [f"'{name}' is read by no module under src/, README.md or tests/test_acceptance.py"
            for name in public if name not in read and not re.search(rf"\b{name}\b", text)]


def main():
    trees = modules()
    findings = long_lines()
    for rule in (unused_imports, cholesky_outside_geometry, unused_private_names,
                 model_callables_read, unread_public_names):
        findings += rule(trees)
    print("\n".join(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
