"""The error types of `yrelay.errors`: the package raises each of them."""

import ast
import inspect
import pathlib

import yrelay.errors
from yrelay.errors import YRelayError

SRC = pathlib.Path(yrelay.errors.__file__).parent


def raised_names():
    """Names of the classes that `raise X(...)` statements in the package's
    modules construct (`X` a name or an attribute)."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def test_every_error_type_is_raised():
    # an error type that no `raise` constructs is dead code, and fails here
    defined = {name for name, cls in inspect.getmembers(yrelay.errors, inspect.isclass)
               if issubclass(cls, YRelayError) and cls is not YRelayError}
    assert {"DimensionError", "RankDeficient", "WitnessInvalid"} <= defined
    assert sorted(defined - raised_names()) == []
