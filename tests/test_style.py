"""Source layout rules that keep line counts honest."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ccmix"
MAX_COLUMNS = 88


def test_source_lines_fit_88_columns():
    """Every line of src/ccmix/*.py fits in 88 columns, so a shorter file
    is less code, not the same code packed into longer lines."""
    long = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long, "\n".join(long)


def test_all_names_exist():
    """Every name in each ccmix module's ``__all__`` is defined there, once,
    so ``from ccmix.<module> import *`` never meets a deleted name."""
    import importlib

    problems = []
    for path in sorted(SRC.glob("*.py")):
        name = "ccmix" if path.stem == "__init__" else f"ccmix.{path.stem}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        problems += [f"{name}.{n} is missing" for n in exported if not hasattr(module, n)]
        problems += [f"{name}.{n} repeats" for n in set(exported) if exported.count(n) > 1]
    assert not problems, "\n".join(problems)


PROTOCOL = {"_block", "_call", "_check_finite", "_density_row", "_shape"}


def test_only_the_callback_protocol_leaves_model():
    """``ccmix.model`` holds the model and the callback protocol it shares
    with the samplers and the oracle; the index and MH arithmetic lives
    in ``ccmix.samplers``, so no other module imports another private name
    of ``model``."""
    found = [
        f"{path.name} imports model.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "model"
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("model", 1), ("ccmix.model", 0))
        for alias in node.names
        if alias.name.startswith("_") and alias.name not in PROTOCOL
    ]
    assert not found, "\n".join(found)


def _private_top_level_names(tree):
    """The names of the private functions, classes and assignments at the
    top level of a module, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def test_every_private_name_is_used():
    """Every private top-level name defined in src/ccmix is loaded somewhere
    in src/ccmix, as a name, an attribute or an imported name, so a
    refactor leaves no dead helper behind for the tests alone."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        defined += [(path.name, n) for n in _private_top_level_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{file}: {name}" for file, name in defined if name not in used]
    assert not unused, "\n".join(unused)
