"""AST checks over `src/capmapf`: it needs nothing beyond the standard
library, and it imports no name and takes no parameter that it leaves unread."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "capmapf"


def test_src_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"capmapf"}
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_src_modules_use_every_name_they_import():
    """Every name a module imports is read somewhere in it; `__init__.py`
    imports to re-export."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                 and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_src_functions_read_every_parameter():
    """Every parameter of every function and lambda (`self` excepted) is
    read in its body, so no argument a caller passes is silently ignored."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for part in body for name in ast.walk(part)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}: {param}"
                       for param in params if param != "self" and param not in read]
    assert unread == []
