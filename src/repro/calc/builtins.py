"""Scientific function buttons of the calculator, and their cost model.

Each builtin carries an operation-count estimate so the interpreter can
meter how much "work" a PITS routine does — that figure becomes the task's
weight in the scheduling layer (closing the loop between PITS and PITL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import CalcRuntimeError, CalcTypeError

Value = Any  # float | bool | str | np.ndarray


def _scalar(x: Value, fn: str) -> float:
    if isinstance(x, bool):
        raise CalcTypeError(f"{fn}() expects a number, got a boolean")
    if isinstance(x, (int, float)):
        return float(x)
    raise CalcTypeError(f"{fn}() expects a number, got {type(x).__name__}")


def _array(x: Value, fn: str) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x
    raise CalcTypeError(f"{fn}() expects a vector or matrix, got {type(x).__name__}")


def _size_cost(x: Value) -> float:
    return float(x.size) if isinstance(x, np.ndarray) else 1.0


@dataclass(frozen=True)
class Builtin:
    """One function button: implementation, arity range, and op-count."""

    name: str
    fn: Callable[..., Value]
    min_args: int
    max_args: int
    cost: Callable[..., float]
    doc: str = ""
    #: The result is an array (for ``abs`` and ``copy``: when the argument is).
    returns_array: bool = False

    def check_arity(self, n: int) -> bool:
        return self.min_args <= n <= self.max_args


def _guard_domain(fn: Callable[..., float], name: str) -> Callable[..., float]:
    def wrapped(*args: float) -> float:
        try:
            return fn(*args)
        except (ValueError, OverflowError) as exc:
            raise CalcRuntimeError(f"{name}({', '.join(map(str, args))}): {exc}") from None

    return wrapped


def _make_zeros(n: Value, m: Value | None = None) -> np.ndarray:
    rows = int(_scalar(n, "zeros"))
    if rows < 0:
        raise CalcRuntimeError(f"zeros(): negative size {rows}")
    if m is None:
        return np.zeros(rows)
    cols = int(_scalar(m, "zeros"))
    if cols < 0:
        raise CalcRuntimeError(f"zeros(): negative size {cols}")
    return np.zeros((rows, cols))


def _make_ones(n: Value, m: Value | None = None) -> np.ndarray:
    z = _make_zeros(n, m)
    z += 1.0
    return z


def _dot(u: Value, v: Value) -> float:
    a, b = _array(u, "dot"), _array(v, "dot")
    if a.ndim != 1 or b.ndim != 1:
        raise CalcTypeError("dot() expects two vectors")
    if a.shape != b.shape:
        raise CalcRuntimeError(f"dot(): length mismatch {a.shape[0]} vs {b.shape[0]}")
    return float(a @ b)


def _matvec(A: Value, x: Value) -> np.ndarray:
    a, v = _array(A, "matvec"), _array(x, "matvec")
    if a.ndim != 2 or v.ndim != 1:
        raise CalcTypeError("matvec() expects a matrix and a vector")
    if a.shape[1] != v.shape[0]:
        raise CalcRuntimeError(f"matvec(): shape mismatch {a.shape} x {v.shape}")
    return a @ v


def _matmul(A: Value, B: Value) -> np.ndarray:
    a, b = _array(A, "matmul"), _array(B, "matmul")
    if a.ndim != 2 or b.ndim != 2:
        raise CalcTypeError("matmul() expects two matrices")
    if a.shape[1] != b.shape[0]:
        raise CalcRuntimeError(f"matmul(): shape mismatch {a.shape} x {b.shape}")
    return a @ b


def _len(x: Value) -> float:
    a = _array(x, "len")
    return float(a.shape[0])


def _rows(x: Value) -> float:
    a = _array(x, "rows")
    return float(a.shape[0])


def _cols(x: Value) -> float:
    a = _array(x, "cols")
    if a.ndim == 1:
        return 1.0
    return float(a.shape[1])


def _mean(x: Value) -> float:
    a = _array(x, "mean")
    if a.size == 0:
        raise CalcRuntimeError("mean() of an empty array")
    return float(np.mean(a))


def _minmax(fn: Callable, name: str) -> Callable[..., float]:
    def wrapped(*args: Value) -> float:
        if len(args) == 1 and isinstance(args[0], np.ndarray):
            if args[0].size == 0:
                raise CalcRuntimeError(f"{name}() of an empty array")
            return float(fn(args[0].ravel()))
        return float(fn(_scalar(a, name) for a in args))

    return wrapped


_B: list[Builtin] = []


def _register(
    name: str,
    fn: Callable[..., Value],
    min_args: int,
    max_args: int | None = None,
    cost: Callable[..., float] | None = None,
    doc: str = "",
    returns_array: bool = False,
) -> None:
    _B.append(
        Builtin(
            name=name,
            fn=fn,
            min_args=min_args,
            max_args=max_args if max_args is not None else min_args,
            cost=cost or (lambda *a: 1.0),
            doc=doc,
            returns_array=returns_array,
        )
    )


_TRANSCENDENTAL_COST = lambda *a: 4.0

_register("abs", lambda x: abs(_scalar(x, "abs")) if not isinstance(x, np.ndarray) else np.abs(x),
          1, cost=_size_cost, doc="absolute value (elementwise on arrays)", returns_array=True)
_register("sqrt", _guard_domain(lambda x: math.sqrt(_scalar(x, "sqrt")), "sqrt"), 1,
          cost=lambda x: 2.0, doc="square root")
_register("sin", lambda x: math.sin(_scalar(x, "sin")), 1, cost=_TRANSCENDENTAL_COST, doc="sine (radians)")
_register("cos", lambda x: math.cos(_scalar(x, "cos")), 1, cost=_TRANSCENDENTAL_COST, doc="cosine (radians)")
_register("tan", lambda x: math.tan(_scalar(x, "tan")), 1, cost=_TRANSCENDENTAL_COST, doc="tangent (radians)")
_register("asin", _guard_domain(lambda x: math.asin(_scalar(x, "asin")), "asin"), 1, cost=_TRANSCENDENTAL_COST)
_register("acos", _guard_domain(lambda x: math.acos(_scalar(x, "acos")), "acos"), 1, cost=_TRANSCENDENTAL_COST)
_register("atan", lambda x: math.atan(_scalar(x, "atan")), 1, cost=_TRANSCENDENTAL_COST)
_register("atan2", lambda y, x: math.atan2(_scalar(y, "atan2"), _scalar(x, "atan2")), 2, cost=_TRANSCENDENTAL_COST)
_register("exp", _guard_domain(lambda x: math.exp(_scalar(x, "exp")), "exp"), 1, cost=_TRANSCENDENTAL_COST)
_register("ln", _guard_domain(lambda x: math.log(_scalar(x, "ln")), "ln"), 1, cost=_TRANSCENDENTAL_COST)
_register("log10", _guard_domain(lambda x: math.log10(_scalar(x, "log10")), "log10"), 1, cost=_TRANSCENDENTAL_COST)
_register("pow", _guard_domain(lambda x, y: math.pow(_scalar(x, "pow"), _scalar(y, "pow")), "pow"), 2,
          cost=_TRANSCENDENTAL_COST)
_register("sinh", _guard_domain(lambda x: math.sinh(_scalar(x, "sinh")), "sinh"), 1, cost=_TRANSCENDENTAL_COST)
_register("cosh", _guard_domain(lambda x: math.cosh(_scalar(x, "cosh")), "cosh"), 1, cost=_TRANSCENDENTAL_COST)
_register("tanh", lambda x: math.tanh(_scalar(x, "tanh")), 1, cost=_TRANSCENDENTAL_COST)
_register("hypot", lambda x, y: math.hypot(_scalar(x, "hypot"), _scalar(y, "hypot")), 2,
          cost=_TRANSCENDENTAL_COST, doc="sqrt(x^2 + y^2) without overflow")
_register("deg", lambda x: math.degrees(_scalar(x, "deg")), 1, doc="radians to degrees")
_register("rad", lambda x: math.radians(_scalar(x, "rad")), 1, doc="degrees to radians")
_register("clamp", lambda x, lo, hi: float(min(max(_scalar(x, "clamp"), _scalar(lo, "clamp")),
                                               _scalar(hi, "clamp"))), 3,
          doc="x limited to [lo, hi]")
_register("floor", lambda x: float(math.floor(_scalar(x, "floor"))), 1)
_register("ceil", lambda x: float(math.ceil(_scalar(x, "ceil"))), 1)
_register("round", lambda x: float(round(_scalar(x, "round"))), 1)
_register("sign", lambda x: float(np.sign(_scalar(x, "sign"))), 1)
_register("min", _minmax(min, "min"), 1, 8, cost=lambda *a: sum(map(_size_cost, a)),
          doc="minimum of scalars or of one array")
_register("max", _minmax(max, "max"), 1, 8, cost=lambda *a: sum(map(_size_cost, a)),
          doc="maximum of scalars or of one array")
_register("len", _len, 1, doc="first dimension of an array")
_register("rows", _rows, 1, doc="row count of an array")
_register("cols", _cols, 1, doc="column count of a matrix (1 for vectors)")
_register("zeros", _make_zeros, 1, 2, cost=lambda *a: 1.0, doc="zero vector or matrix", returns_array=True)
_register("ones", _make_ones, 1, 2, cost=lambda *a: 1.0, doc="all-ones vector or matrix", returns_array=True)
_register("eye", lambda n: np.eye(int(_scalar(n, "eye"))), 1, doc="identity matrix", returns_array=True)
_register("dot", _dot, 2, cost=lambda u, v: 2.0 * _size_cost(u), doc="vector dot product")
_register("matvec", _matvec, 2, cost=lambda A, x: 2.0 * _size_cost(A), doc="matrix-vector product",
          returns_array=True)
_register("matmul", _matmul, 2,
          cost=lambda A, B: 2.0 * _size_cost(A) * (B.shape[1] if isinstance(B, np.ndarray) and B.ndim == 2 else 1),
          doc="matrix-matrix product", returns_array=True)
_register("transpose", lambda A: _array(A, "transpose").T.copy(), 1, cost=_size_cost, returns_array=True)
_register("sum", lambda x: float(np.sum(_array(x, "sum"))), 1, cost=_size_cost)
_register("mean", _mean, 1, cost=_size_cost)
_register("norm", lambda x: float(np.linalg.norm(_array(x, "norm"))), 1, cost=lambda x: 2.0 * _size_cost(x))
_register("copy", lambda x: x.copy() if isinstance(x, np.ndarray) else x, 1, cost=_size_cost,
          doc="defensive copy of an array", returns_array=True)

#: name -> Builtin
BUILTINS: dict[str, Builtin] = {b.name: b for b in _B}

#: Constant buttons of the panel.
CONSTANTS: dict[str, float] = {
    "PI": math.pi,
    "E": math.e,
    "TAU": math.tau,
    "EPS": 2.220446049250313e-16,
}


def lookup(name: str) -> Builtin | None:
    return BUILTINS.get(name.lower())
