"""Source rules for src/geoctrl, checked in CI.

    python .github/source_rules.py

Prints one line per finding and exits 1 if there is any.  The rules:

- no line under src/ longer than 105 characters (the longest has 105; keeping
  it so means a line count cannot drop by joining lines);
- no unused import outside __init__.py (whose imports are the re-exports);
- every import statement sits outside any function, so a module's cost is paid
  when it is imported and a test of sys.modules sees it;
- scipy is imported only as `import scipy`, and only by geometry.py, which
  loads scipy's compiled LAPACK module (scipy/linalg/_flapack) from it: no
  module imports scipy.linalg, whose package init costs more than the rest of
  the start-up, nor any scipy solver package (integrate, optimize, interpolate);
- the Cholesky routines are imported or read (as an attribute of the loaded
  module too) only in geometry.py: M(q) is factored and solved only in the
  point kernel, geometry.PointData;
- dpotrf, dpocon and dpotrs are each called at exactly one site in
  geometry.py, and read nowhere else in it but at their module-level binding:
  dpotrf and dpocon in the one factor helper that a point, a stack's member and
  a constant M go through, dpotrs in PointData.solve, so a stacked solve cannot
  grow a second path beside it;
- every module-level name (def, class or assignment) outside geoctrl.__all__,
  private or not, is read somewhere else under src/: otherwise it is dead code,
  or a helper only tests use (a public-looking helper whose last caller went
  stays caught; the names in __all__ answer to the next rules instead);
- the model callables are read only by MechanicalSystem's methods in
  geometry.py, its readers (models.py builds them); anywhere else, PointData
  and geometry.py's module functions included, only a None test of one may
  appear;
- every public name in geoctrl.__all__ is read by a module under src/ (outside
  its own definition), documented in README.md or used by an acceptance
  criterion: otherwise only tests reach it, a second way to a result the
  library already gives;
- the same for the members of those names' classes: every public method,
  property and dataclass field is read as an attribute by a module under src/
  (outside its own definition) or appears as `.name` in README.md or
  tests/test_acceptance.py.  A read of a dataclass field inside its own class's
  __post_init__ does not count: a field only its own validation reads is an
  input the library never uses.  Attributes are matched by name, not by class.
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
SCIPY_LOADER = "src/geoctrl/geometry.py"  # the one module that imports scipy
ONE_SITE = ("dpotrf", "dpocon", "dpotrs")
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


def misplaced_imports(trees):
    found = []
    for name, tree in trees:
        local = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) in local:
                found.append(f"{name}:{node.lineno}: import inside a function")
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif node.module == "scipy":
                named = [f"scipy.{alias.name}" for alias in node.names]
            else:
                named = [node.module or ""]
            found += [f"{name}:{node.lineno}: imports {module}; scipy only as `import scipy`"
                      f" in {SCIPY_LOADER}, which loads its LAPACK module"
                      for module in named if module.split(".")[0] == "scipy"
                      and (module != "scipy" or name != SCIPY_LOADER)]
    return found


def read_name(node):
    """The name a load reads: x for the Name x and for the Attribute m.x, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def cholesky_outside_geometry(trees):
    return [f"{name}:{node.lineno}: {'imports' if isinstance(node, ast.alias) else 'reads'} {used}"
            for name, tree in trees if name != SCIPY_LOADER
            for node in ast.walk(tree)
            for used in [node.name if isinstance(node, ast.alias) else read_name(node)]
            if used and used.split(".")[-1] in LAPACK]


def lapack_call_sites(trees):
    (tree,) = [tree for name, tree in trees if name == SCIPY_LOADER]
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bindings = {id(node) for statement in tree.body
                if not isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                for node in ast.walk(statement)}
    sites, found = {fn: [] for fn in ONE_SITE}, []
    for node in ast.walk(tree):
        fn = read_name(node)
        if fn not in sites or (id(node) in bindings and id(node) not in called):
            continue
        if id(node) in called:
            sites[fn].append(node.lineno)
        else:
            found.append(f"{SCIPY_LOADER}:{node.lineno}: reads {fn} other than to call it")
    found += [f"{SCIPY_LOADER}:{line}: calls {fn} at a second site (first: line {min(lines)})"
              for fn, lines in sites.items() for line in sorted(lines)[1:]]
    return found + [f"{SCIPY_LOADER}: no call of {fn}" for fn, lines in sites.items() if not lines]


def unread_module_names(trees):
    public = set(public_names())
    statements = [node for _, tree in trees for node in tree.body]
    return [f"{name}:{node.lineno}: '{internal}' is used only where it is defined"
            for name, tree in trees
            for node in tree.body
            for internal in defines(node)
            if internal not in public and not internal.endswith("__")
            and not any(internal in uses(other) for other in statements if other is not node)]


def model_callables_read(trees):
    found = []
    for name, tree in trees:
        if name.endswith("/models.py"):
            continue
        readers = {id(node) for cls in tree.body
                   if name.endswith("/geometry.py") and isinstance(cls, ast.ClassDef)
                   and cls.name == "MechanicalSystem"
                   for node in ast.walk(cls)}
        tested = {id(node.left) for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and len(node.ops) == 1
                  and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                  and isinstance(node.comparators[0], ast.Constant)
                  and node.comparators[0].value is None}
        found += sorted((name, node.lineno, node.attr) for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and node.attr in MODEL and id(node) not in tested | readers)
    return [f"{name}:{line}: reads the model callable '{attr}'" for name, line, attr in found]


def public_names():
    (public,) = [ast.literal_eval(node.value) for node in parse("src/geoctrl/__init__.py").body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    return public


def documented_text():
    return "".join((ROOT / name).read_text(encoding="utf-8")
                   for name in ("README.md", "tests/test_acceptance.py"))


def unread_public_names(trees):
    statements = [node for name, tree in trees if not name.endswith("__init__.py")
                  for node in tree.body]
    read = {name for node in statements for name in uses(node) if name not in defines(node)}
    text = documented_text()
    return [f"'{name}' is read by no module under src/, README.md or tests/test_acceptance.py"
            for name in public_names() if name not in read and not re.search(rf"\b{name}\b", text)]


def unread_members(trees):
    public, text = public_names(), documented_text()
    loads = [(id(node), node.attr) for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    found = []
    for name, tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in public):
                continue
            post_init = {id(node) for fn in cls.body
                         if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                         for node in ast.walk(fn)}
            for member in cls.body:  # methods, properties and dataclass fields
                if isinstance(member, ast.FunctionDef):
                    attr = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    attr = member.target.id
                else:
                    continue
                own = {id(node) for node in ast.walk(member)}
                if isinstance(member, ast.AnnAssign):  # its own __post_init__ is no reader
                    own |= post_init
                if attr.startswith("_") or re.search(rf"\.{attr}\b", text) or any(
                        a == attr and i not in own for i, a in loads):
                    continue
                found.append(f"{name}:{member.lineno}: '{cls.name}.{attr}' is read by no module"
                             f" under src/ and is no '.{attr}' in README.md or"
                             " tests/test_acceptance.py")
    return found


def main():
    trees = modules()
    findings = long_lines()
    for rule in (unused_imports, misplaced_imports, cholesky_outside_geometry,
                 lapack_call_sites, unread_module_names, model_callables_read,
                 unread_public_names, unread_members):
        findings += rule(trees)
    print("\n".join(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
