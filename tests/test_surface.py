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


def test_settable_values_stay_at_29():
    """Parameters with defaults plus dataclass fields with defaults.

    Every such default is a value a caller may set, so the count moves
    only together with a CHANGES.md entry that names the values added or
    removed and why.
    """
    total = sum(_settable_values(ast.parse(path.read_text()))
                for path in sorted(_PACKAGE.glob("*.py")))
    assert total == 29


def _predicate_callers(tree, module):
    """(module, qualified function, predicate) for each _is_int or _is_real use."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
            else:
                if isinstance(child, ast.Name) and child.id in ("_is_int", "_is_real"):
                    found.add((module, ".".join(scope), child.id))
                visit(child, scope)

    visit(tree, ())
    return found


def test_hand_written_input_checks_are_listed():
    """Every use of the integer and real predicates outside ``spaces``.

    The input rules live in ``spaces``; any other module that tests a
    value with ``_is_int`` or ``_is_real`` writes a check of its own.  A
    new one shows up here, and belongs in a rule there unless it is not
    a range check.
    """
    callers = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.stem != "spaces":
            callers |= _predicate_callers(ast.parse(path.read_text()), path.stem)
    assert sorted(callers) == [
        # a certificate's radius or separation may be inf or NaN until verified
        ("entropy", "CoverCertificate.__post_init__", "_is_real"),
        ("entropy", "PackingCertificate.__post_init__", "_is_real"),
        # a level list left unset is derived from n only when n is an integer
        ("harness", "ExperimentConfig.resolved", "_is_int"),
        ("harness", "_field_problem", "_is_int"),
    ]
