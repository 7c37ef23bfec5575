"""Every parameter of a function or lambda in src/chordhom is read by its
body: a value a caller must pass and nothing reads is dead weight.  The
receiver of a method (self, cls) is exempt, and so are the parameters
listed in ALLOWED."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chordhom"

# (module, function, parameter): homology.rank keeps its matrix shape
# because perfbench/tracing.py unpacks it to count the cells of a rank call
ALLOWED = {
    ("homology.py", "rank", "nrows"),
    ("homology.py", "rank", "ncols"),
}


def _receivers(tree: ast.Module) -> set[ast.arg]:
    """The first positional parameter of every method that is not a
    staticmethod."""
    out = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            )
            params = [*fn.args.posonlyargs, *fn.args.args]
            if params and not static:
                out.add(params[0])
    return out


def unread_parameters() -> set[tuple[str, str, str]]:
    """(module, function, parameter) for every parameter its body never
    reads; a lambda is named "lambda@<line>"."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        receivers = _receivers(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
            params += [p for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(fn, "name", f"lambda@{fn.lineno}")
            found |= {
                (path.name, name, p.arg)
                for p in params
                if p not in receivers and p.arg not in read
            }
    return found


def test_every_parameter_is_read():
    assert unread_parameters() - ALLOWED == set()


def test_every_allowed_parameter_is_still_unread():
    assert ALLOWED <= unread_parameters()
