"""Reverse-mode automatic differentiation over dense 2-D arrays.

Every value in the model is a `Tensor` wrapping a 2-D numpy array. Ops build
a tape (parents + backward closure); `Tensor.backward()` walks it in reverse
topological order and accumulates gradients. The op set is the small fixed
vocabulary the model needs: matmul, affine (x @ w + b as one node),
broadcast add, elementwise product, concat along either axis, relu, row
log-softmax, sum reduction, scalar scale, transpose and per-block
transpose, and row gather/slice for assembling windows from
calendar-indexed features. Fused ops elsewhere in the package build their
own nodes with `node` and `add_grad`, and so do the reference path's extra
ops in `tests/reference.py`. `sigmoid` serves that reference too: the
model's gates apply `sigmoid_values` inside their stage node.

A backward that computes a fresh gradient array hands it to `add_grad`,
which assigns it on the first write; one that passes on the upstream
gradient or a view of it adds into a zero-filled buffer instead.

Gradient checking is done against central finite differences; run it in
64-bit mode (the default dtype) so the comparison is meaningful.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

_grad_enabled = True
_debug_checks = False


def set_debug_checks(on: bool) -> None:
    """Enable NaN/Inf checks after every forward op (slow, for tests)."""
    global _debug_checks
    _debug_checks = bool(on)


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

    def backward(self, seed=None) -> None:
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
        if seed is None:
            seed = np.ones_like(self.values)
        self._ensure_grad()
        self.grad += seed
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def node(values: np.ndarray, parents, backward) -> Tensor:
    """Create a tape node. `backward(g)` must accumulate into parent grads.

    This is the extension point used by the fused batched ops elsewhere in
    the package; it applies the same grad-mode and debug-check rules as the
    built-in ops.
    """
    out = Tensor(values)
    if _debug_checks and not np.all(np.isfinite(values)):
        raise NumericError("non-finite values produced by a forward op")
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


def block_transpose(a: Tensor, block: int) -> Tensor:
    """Transpose each block of `block` rows: (n*block) x c -> (n*c) x block."""
    a = _as_tensor(a)
    if block < 1 or a.rows % block:
        raise ShapeError(f"{a.rows} rows not divisible into blocks of {block}")
    n, c = a.rows // block, a.cols
    out_vals = a.values.reshape(n, block, c).transpose(0, 2, 1).reshape(n * c, block)

    def backward(g):
        add_grad(a, g.reshape(n, c, block).transpose(0, 2, 1).reshape(n * block, c))

    return node(out_vals, (a,), backward)


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


def concat_cols(parts: list[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    nrows = {p.rows for p in parts}
    if len(nrows) != 1:
        raise ShapeError(f"concat_cols: row counts differ: {sorted(nrows)}")
    out_vals = np.concatenate([p.values for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.cols for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._ensure_grad()
                p.grad += g[:, lo:hi]

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


def scatter_add_rows(target: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """target[idx] += g with repeated indices, via sort + reduceat.

    Much faster than np.add.at for the window-gather workloads here.
    """
    order = np.argsort(idx, kind="stable")
    sidx = idx[order]
    sg = g[order]
    boundaries = np.flatnonzero(np.concatenate(([True], sidx[1:] != sidx[:-1])))
    sums = np.add.reduceat(sg, boundaries, axis=0)
    target[sidx[boundaries]] += sums


def gather_rows(a: Tensor, idx) -> Tensor:
    """out[i] = a[idx.flat[i]]; repeated indices allowed (backward scatter-adds).

    `idx` is 1-D, or 2-D B x t for windows of t rows each, gathered in row
    order. A 2-D index whose rows are all column 0 shifted by the same
    offsets, with distinct rows in column 0, has distinct rows in every
    column; that is the layout of windows over a date-major calendar. Its
    backward then adds one column of gradient rows at a time, without the
    sort that repeated indices need.
    """
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim not in (1, 2):
        raise ShapeError(f"gather_rows index must be 1-D or 2-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeError(f"gather_rows index out of range for {a.shape}")
    flat = idx.reshape(-1)
    by_column = (
        _grad_enabled
        and a.requires_grad
        and idx.ndim == 2
        and idx.size > 0
        and np.array_equal(idx - idx[:, :1], np.broadcast_to(idx[:1] - idx[0, 0], idx.shape))
        and np.unique(idx[:, 0]).size == idx.shape[0]
    )

    def backward(g):
        if a.requires_grad:
            a._ensure_grad()
            if by_column:
                g3 = g.reshape(idx.shape[0], idx.shape[1], -1)
                for j in range(idx.shape[1]):
                    a.grad[idx[:, j]] += g3[:, j]
            else:
                scatter_add_rows(a.grad, flat, g)

    return node(a.values[flat], (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: e = exp(-|x|), then num / (1 + e).

    The numerator max(e, x >= 0) is 1 for x >= 0 and e below, so this is
    bit-identical to 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below,
    reaches exactly 0 where exp(x) underflows and propagates NaN, without
    a mask or a select over the two branches.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    np.maximum(e, x >= 0, out=e)
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
# parameters and gradient checking


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


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f` is a no-argument callable returning a scalar Tensor; it must read the
    parameter values afresh on every call. `params` is any iterable of
    Parameter. Relative error per entry is |analytic - fd| / max(1, |analytic|).
    """
    params = list(params)
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-4]")
    for p in params:
        p.zero_grad()
    out = f()
    if out.values.size != 1:
        raise ShapeError("grad_check target must be scalar")
    out.backward()
    analytic = [
        p.tensor.grad.copy() if p.tensor.grad is not None else np.zeros_like(p.values)
        for p in params
    ]

    def probe() -> float:
        with no_grad():
            val = f().item()
        return val

    max_rel = 0.0
    for p, an in zip(params, analytic):
        vals = p.tensor.values
        for i in range(vals.shape[0]):
            for j in range(vals.shape[1]):
                orig = vals[i, j]
                vals[i, j] = orig + eps
                f_plus = probe()
                vals[i, j] = orig - eps
                f_minus = probe()
                vals[i, j] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NumericError(
                        f"non-finite objective while perturbing {p.name}[{i},{j}]"
                    )
                fd = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(an[i, j] - fd) / max(1.0, abs(an[i, j]))
                if rel > max_rel:
                    max_rel = rel
    return max_rel
