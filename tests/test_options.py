"""Every defaulted parameter of the library is set by some call.

A default that no call in the library, the tests or the benchmark overrides
is a constant in disguise: one more configuration that nothing runs.  A
call sets a parameter when it passes it by keyword, or by position, to a
callee of the same name (a plain name, an attribute, or the class of a
constructor).  A call that unpacks ``*args`` or ``**kwargs`` counts as
setting every parameter it can reach.  An argument computed from an unset
parameter of the calling function only forwards that default, so it sets
nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "driftband"
CALLERS = ("src", "tests", "perfbench")


class _Scan(ast.NodeVisitor):
    """Defaulted parameters of one file's functions, and its calls with the
    functions that enclose them."""

    def __init__(self, path):
        self.path = path
        self.stack = []          # (function key, parameter names)
        self.defaults = []       # (function key, parameter, index or None)
        self.calls = []          # (callee name, call, enclosing functions)

    def visit_ClassDef(self, node):
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                item.owner = node.name
                item.bound = not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in item.decorator_list)
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        owner = getattr(node, "owner", None)
        name = owner if node.name == "__init__" and owner else node.name
        key = (self.path, name)
        args = node.args
        positional = args.posonlyargs + args.args
        names = [a.arg for a in positional[int(getattr(node, "bound",
                                                       False)):]]
        for a in positional[len(positional) - len(args.defaults):]:
            self.defaults.append((key, a.arg, names.index(a.arg)))
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                self.defaults.append((key, a.arg, None))
        params = {a.arg for a in positional + args.kwonlyargs}
        self.stack.append((key, params))
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        self.calls.append((name, node, list(self.stack)))
        self.generic_visit(node)


def _scan(path):
    scan = _Scan(path)
    scan.visit(ast.parse(path.read_text()))
    return scan


def _argument(call, param, index):
    """The expression a call passes for a parameter, or None."""
    for k in call.keywords:
        if k.arg in (param, None):
            return k.value
    if index is None:
        return None
    for a in call.args[:index + 1]:
        if isinstance(a, ast.Starred):
            return a
    return call.args[index] if index < len(call.args) else None


def _forwards(expr, stack, unset):
    """True when expr reads an unset parameter of an enclosing function."""
    used = {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return any((key, p) in unset for key, params in stack
               for p in used & params)


def unset_parameters():
    """'module.function(parameter)' of each defaulted library parameter that
    no call sets."""
    defaults = [d for path in sorted(LIBRARY.glob("*.py"))
                for d in _scan(path).defaults]
    calls = {}
    for sub in CALLERS:
        for path in sorted((ROOT / sub).rglob("*.py")):
            for name, call, stack in _scan(path).calls:
                calls.setdefault(name, []).append((call, stack))
    unset = set()
    while True:  # each pass may find defaults that only forward the last's
        found = {(key, param) for key, param, index in defaults
                 if not any(
                     (arg := _argument(call, param, index)) is not None
                     and not _forwards(arg, stack, unset)
                     for call, stack in calls.get(key[1], ()))}
        if found == unset:
            break
        unset = found
    return sorted(f"{key[0].stem}.{key[1]}({param})" for key, param in unset)


def test_every_default_has_a_caller_that_sets_it():
    unset = unset_parameters()
    assert unset == [], (
        f"{len(unset)} defaulted parameters that no call sets; make each a "
        f"constant: {', '.join(unset)}")
