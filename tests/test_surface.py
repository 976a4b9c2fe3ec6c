"""The package's settable surface, counted so that it cannot grow unnoticed."""

import ast
import pathlib

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "entrobound"


def _is_dataclass(node):
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
               for d in node.decorator_list)


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_stay_at_32():
    """Parameters with defaults plus dataclass fields with defaults.

    Every such default is a value a caller may set, so the count moves
    only together with a CHANGES.md entry that names the values added or
    removed and why.
    """
    total = sum(_settable_values(ast.parse(path.read_text()))
                for path in sorted(_PACKAGE.glob("*.py")))
    assert total == 32
