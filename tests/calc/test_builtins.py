"""The builtin table says of itself which functions return arrays."""

import numpy as np
import pytest

from repro.calc.builtins import BUILTINS
from repro.errors import CalcError

MATRIX = np.array([[1.0, 0.5], [0.25, 2.0]])
VECTOR = np.array([0.5, 2.0])


def sample_result(builtin):
    """The builtin called at its smallest arity on the most array-like
    arguments it accepts: matrices, else a matrix and a vector, else vectors,
    else scalars."""
    n = builtin.min_args
    for args in ([MATRIX] * n, [MATRIX, VECTOR], [VECTOR] * n, [0.5] * n):
        if len(args) != n:
            continue
        try:
            return builtin.fn(*args)
        except CalcError:
            continue
    raise AssertionError(f"{builtin.name}() accepts no sample")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_returns_array_is_what_the_function_does(name):
    """``calc.analyze`` (PITS016 evidence) and ``analysis.absint`` (result
    kinds) read this field; each used to keep its own list of names."""
    builtin = BUILTINS[name]
    assert isinstance(sample_result(builtin), np.ndarray) == builtin.returns_array


def test_the_array_builtins_by_name():
    assert {b.name for b in BUILTINS.values() if b.returns_array} == {
        "abs", "copy", "eye", "matmul", "matvec", "ones", "transpose", "zeros",
    }
