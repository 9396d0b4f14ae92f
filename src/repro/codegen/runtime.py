"""Runtime support for generated Python programs.

Generated code references this module as ``_rt`` so that its numeric
semantics are *identical* to the PITS interpreter's (1-based subscripts,
value-semantics assignment, the same builtin implementations and domain
errors).  Keeping one implementation here is what lets the test suite assert
bit-for-bit equality between interpreted and generated runs.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.calc.builtins import BUILTINS, CONSTANTS
from repro.errors import CalcRuntimeError, CalcTypeError

__all__ = ["call", "get", "set_", "assign", "div", "mod", "power", "display_line",
           "CONSTANTS", "for_range"]


def call(name: str, *args: Any) -> Any:
    """Invoke a PITS builtin by name (arity already checked at generation)."""
    return BUILTINS[name].fn(*args)


def _index(sub: float, extent: int, base: str) -> int:
    raw = float(sub)
    if not math.isfinite(raw) or abs(raw - round(raw)) > 1e-9:
        raise CalcTypeError(f"subscript {sub} is not an integer")
    k = round(raw)
    if not 1 <= k <= extent:
        raise CalcRuntimeError(f"subscript {k} out of range 1..{extent} for {base!r}")
    return k - 1


def get(arr: Any, base: str, *subs: float) -> float:
    """1-based read ``arr[subs...]`` with the interpreter's checks."""
    if not isinstance(arr, np.ndarray):
        raise CalcTypeError(f"{base!r} is not an array")
    if arr.ndim != len(subs):
        raise CalcTypeError(f"{base!r} has rank {arr.ndim}, {len(subs)} subscript(s) given")
    idx = tuple(_index(s, extent, base) for s, extent in zip(subs, arr.shape))
    return float(arr[idx])


def set_(arr: Any, base: str, value: float, *subs: float) -> None:
    """1-based write ``arr[subs...] := value``."""
    if not isinstance(arr, np.ndarray):
        raise CalcTypeError(f"{base!r} is not an array (create it with zeros(...) first)")
    if arr.ndim != len(subs):
        raise CalcTypeError(f"{base!r} has rank {arr.ndim}, {len(subs)} subscript(s) given")
    idx = tuple(_index(s, extent, base) for s, extent in zip(subs, arr.shape))
    arr[idx] = float(value)


def assign(value: Any) -> Any:
    """Value semantics: whole-array assignment copies."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


def div(l: Any, r: Any) -> Any:
    if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
        with np.errstate(divide="raise", invalid="raise"):
            try:
                return l / r
            except FloatingPointError:
                raise CalcRuntimeError("array division by zero") from None
    if r == 0:
        raise CalcRuntimeError("division by zero")
    return l / r


def mod(l: float, r: float) -> float:
    if r == 0:
        raise CalcRuntimeError("modulo by zero")
    return l % r


def power(l: float, r: float) -> float:
    try:
        result = l**r
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise CalcRuntimeError(f"{l} ^ {r}: {exc}") from None
    if isinstance(result, complex):
        raise CalcRuntimeError(f"{l} ^ {r} is not a real number")
    return float(result)


def for_range(start: float, stop: float, step: float):
    """Inclusive float loop matching the interpreter's ``for`` semantics."""
    if step == 0:
        raise CalcRuntimeError("for step must not be 0")
    i = float(start)
    stop = float(stop)
    step = float(step)
    while (step > 0 and i <= stop + 1e-12) or (step < 0 and i >= stop - 1e-12):
        yield i
        i += step


def display_line(*parts: Any) -> str:
    """Render a ``display(...)`` call the way the interpreter does."""
    rendered = []
    for v in parts:
        if isinstance(v, str):
            rendered.append(v)
        elif isinstance(v, bool):
            rendered.append("true" if v else "false")
        elif isinstance(v, float):
            rendered.append(f"{v:g}")
        elif isinstance(v, np.ndarray):
            rendered.append(np.array2string(v, precision=6, suppress_small=True))
        else:
            rendered.append(str(v))
    return " ".join(rendered)
