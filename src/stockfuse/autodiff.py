"""Reverse-mode automatic differentiation over dense 2-D arrays.

Every value in the model is a `Tensor` wrapping a 2-D numpy array. Ops build
a tape (parents + backward closure); `Tensor.backward()` walks it in reverse
topological order and accumulates gradients. The op set is the small fixed
vocabulary the model needs: matmul, affine (x @ w + b as one node),
broadcast add, elementwise product, row concat, relu, row log-softmax, sum
reduction, scalar scale, transpose, and row gather/slice for assembling
windows from calendar-indexed features. Fused ops elsewhere in the package
build their own nodes with `node` and `add_grad`, and so do the reference
path's extra ops in `tests/reference.py`. `sigmoid` serves that reference
too: the model's gates apply `sigmoid_values` inside their stage node.
Every op calls `node` through the module global, so one wrapper of
`autodiff.node` sees every forward value (the tests' finite check does so).

A backward that computes a fresh gradient array hands it to `add_grad`,
which assigns it on the first write; one that passes on the upstream
gradient or a view of it adds into a zero-filled buffer instead.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

_grad_enabled = True


def grad_enabled() -> bool:
    """Whether ops record the tape (False inside `no_grad`)."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference / FD probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense 2-D array node in the computation graph."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor must be 2-D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.values = arr
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def _ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        return self.grad

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into the graph."""
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._ensure_grad()
        self.grad += 1.0
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def node(values: np.ndarray, parents, backward) -> Tensor:
    """Create a tape node. `backward(g)` must accumulate into parent grads.

    This is the extension point used by the fused batched ops elsewhere in
    the package; it applies the same grad-mode rule as the built-in ops.
    """
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def add_grad(t: Tensor, grad: np.ndarray) -> None:
    """Accumulate `grad`, a fresh array no one else holds, into t.grad.

    The first write assigns it, which saves a zero fill and an add. Pass
    neither the upstream gradient itself nor a view of it: the two
    gradients would then share one array.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = grad
    else:
        t.grad += grad


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    out_vals = a.values @ b.values

    def backward(g):
        if a.requires_grad:
            add_grad(a, g @ b.values.T)
        if b.requires_grad:
            add_grad(b, a.values.T @ g)

    return node(out_vals, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, with b a 1 x k row added to every row."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.cols != w.rows:
        raise ShapeError(f"affine: inner dims disagree, {x.shape} x {w.shape}")
    if b.shape != (1, w.cols):
        raise ShapeError(f"affine: bias {b.shape} is not a 1 x {w.cols} row")
    out_vals = x.values @ w.values
    out_vals += b.values

    def backward(g):
        if x.requires_grad:
            add_grad(x, g @ w.values.T)
        if w.requires_grad:
            add_grad(w, x.values.T @ g)
        add_grad(b, g.sum(axis=0, keepdims=True))

    return node(out_vals, (x, w, b), backward)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` down to `shape` (which broadcast up to g.shape)."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> None:
    for ax in (0, 1):
        na, nb = a.shape[ax], b.shape[ax]
        if na != nb and na != 1 and nb != 1:
            raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; rows or columns of size 1 broadcast (bias add)."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")
    out_vals = a.values + b.values

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            a.grad += _unbroadcast(g, a.shape)
        if b.requires_grad:
            b._ensure_grad()
            b.grad += _unbroadcast(g, b.shape)

    return node(out_vals, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product with the same broadcast rules as add."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    out_vals = a.values * b.values

    def backward(g):
        if a.requires_grad:
            add_grad(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            add_grad(b, _unbroadcast(g * a.values, b.shape))

    return node(out_vals, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out_vals = a.values * c

    def backward(g):
        add_grad(a, g * c)

    return node(out_vals, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            a.grad += g.T

    return node(a.values.T.copy(), (a,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    ncols = {p.cols for p in parts}
    if len(ncols) != 1:
        raise ShapeError(f"concat_rows: column counts differ: {sorted(ncols)}")
    out_vals = np.concatenate([p.values for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.rows for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._ensure_grad()
                p.grad += g[lo:hi]

    return node(out_vals, tuple(parts), backward)


def slice_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    a = _as_tensor(a)
    if not (0 <= lo <= hi <= a.rows):
        raise ShapeError(f"slice_rows[{lo}:{hi}] out of range for {a.shape}")

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            a.grad[lo:hi] += g

    return node(a.values[lo:hi].copy(), (a,), backward)


def distinct_columns(idx: np.ndarray) -> bool:
    """Whether each column of a 2-D B x t window index holds distinct rows.

    True when every row is column 0 shifted by the same offsets and column 0
    is distinct: the layout of windows over a date-major calendar.
    """
    return (
        idx.ndim == 2
        and idx.size > 0
        and np.array_equal(idx - idx[:, :1], np.broadcast_to(idx[:1] - idx[0, 0], idx.shape))
        and np.unique(idx[:, 0]).size == idx.shape[0]
    )


def scatter_add_windows(target: np.ndarray, idx: np.ndarray, g: np.ndarray, by_column: bool):
    """target[idx.flat] += g; one column of window rows at a time when `by_column`.

    `by_column` must hold only if `distinct_columns(idx)`; otherwise
    `np.add.at` sums the repeated rows.
    """
    if by_column:
        g3 = g.reshape(idx.shape[0], idx.shape[1], -1)
        for j in range(idx.shape[1]):
            target[idx[:, j]] += g3[:, j]
    else:
        np.add.at(target, idx.reshape(-1), g)


def gather_rows(a: Tensor, idx) -> Tensor:
    """out[i] = a[idx.flat[i]]; repeated indices allowed (backward scatter-adds).

    `idx` is 1-D, or 2-D B x t for windows of t rows each, gathered in row
    order. When each column holds distinct rows (`distinct_columns`), the
    backward adds one column of gradient rows at a time, without the
    unbuffered `np.add.at` that repeated indices need.
    """
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim not in (1, 2):
        raise ShapeError(f"gather_rows index must be 1-D or 2-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeError(f"gather_rows index out of range for {a.shape}")
    by_column = _grad_enabled and a.requires_grad and distinct_columns(idx)

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            scatter_add_windows(a.grad, idx, g, by_column)

    return node(a.values[idx.reshape(-1)], (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: e = exp(-|x|), then num / (1 + e).

    The numerator max(e, x >= 0) is 1 for x >= 0 and e below, so this is
    bit-identical to 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below,
    reaches exactly 0 where exp(x) underflows and propagates NaN, without
    a mask or a select over the two branches. The result goes to `out` when
    given (and is returned); `out` may be `x` itself, computed in place,
    but must not overlap `x` otherwise.
    """
    pos = x >= 0  # read before `out` may overwrite x
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    np.maximum(e, pos, out=e)
    e /= denom
    return e


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_vals = sigmoid_values(a.values)

    def backward(g):
        add_grad(a, g * out_vals * (1.0 - out_vals))

    return node(out_vals, (a,), backward)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_vals = np.maximum(a.values, 0.0)

    def backward(g):
        add_grad(a, g * (a.values > 0))

    return node(out_vals, (a,), backward)


# ---------------------------------------------------------------------------
# row log-softmax and reduction


def log_softmax_rows(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_vals = shifted - lse
    soft = np.exp(out_vals)

    def backward(g):
        add_grad(a, g - soft * g.sum(axis=1, keepdims=True))

    return node(out_vals, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_vals = np.array([[a.values.sum()]], dtype=a.values.dtype)

    def backward(g):
        add_grad(a, np.full_like(a.values, g[0, 0]))

    return node(out_vals, (a,), backward)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class Parameter:
    """Named learnable weight with Adam state attached."""

    name: str
    tensor: Tensor
    adam_m: np.ndarray = field(default=None, repr=False)
    adam_v: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.tensor.requires_grad = True
        if self.adam_m is None:
            self.adam_m = np.zeros_like(self.tensor.values)
        if self.adam_v is None:
            self.adam_v = np.zeros_like(self.tensor.values)

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values

    def zero_grad(self) -> None:
        self.tensor.grad = None

