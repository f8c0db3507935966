"""Names that outside code looks up on the package must keep resolving."""

import ast
import importlib
import importlib.util
from pathlib import Path

import landau_spectral

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"
PACKAGE = Path(landau_spectral.__file__).resolve().parent


def _launch_module():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_probe_targets_exist():
    # the benchmark's launcher wraps these where their callers look them up;
    # a rename would break its --trace 1 runs (and cli.run its march timer)
    launch = _launch_module()
    targets = [(m, a) for m, a, _ in launch.TRACED] + [("cli", "run"), ("cli", "main")]
    missing = [f"{m}.{a}" for m, a in targets
               if not hasattr(importlib.import_module(f"landau_spectral.{m}"), a)]
    assert not missing


def test_public_names_resolve():
    missing = [name for name in landau_spectral.__all__ if not hasattr(landau_spectral, name)]
    assert not missing


def test_modules_import_only_names_they_use():
    # a name a module imports but never uses is dead weight, unless the
    # benchmark's launcher wraps it on that module (launch.TRACED)
    wrapped = {(m, a) for m, a, _ in _launch_module().TRACED}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in names
                       if name not in used and (path.stem, name) not in wrapped]
    assert not unused


def test_module_level_names_are_public_or_used():
    # a module-level function, class or assigned name that is neither
    # exported nor read anywhere in the package is dead code
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{stem}.{name}" for name in names
                     if not (name.startswith("__") and name.endswith("__"))
                     and name not in landau_spectral.__all__ and name not in read]
    assert not dead
