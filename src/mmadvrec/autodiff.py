"""Reverse-mode automatic differentiation on dense float64 tensors.

Every operation evaluates eagerly with numpy and records its inputs plus a
vector-Jacobian closure. Because the closures are written in terms of the same
traced operations, a backward pass run with ``create_graph=True`` produces
gradients that are themselves differentiable, which is what the coordinated
max phase needs (it differentiates a function of first-order gradients).

Shapes are restricted to scalars (0-d), vectors and matrices. Ops take
tensors only, and the two operands of an elementwise op have equal shapes;
there is no broadcasting. A vjp receives the cotangent and its node, so a
derivative written in terms of the output (tanh' = 1 - tanh^2) reads it from
there, and no node refers to itself.

Transposes: a constant holds a private copy of its data that nothing
changes, so its transpose is computed once, kept on the node and returned
by every later ``transpose`` of it, including the one in each backward
through ``matmul``; the kept transpose is such a constant too. A frozen
``Forward`` holds its projection and propagation weights as such
constants, so every encode and backward through it shares one transpose of
each. Only a tensor that wraps an array it does not own is transposed
afresh each time: a trainable ``Forward``'s leaves, which the optimiser
updates in place, or a ``Tensor`` over a caller's array. Every transpose is
C-contiguous, so products with it round alike.
"""

from __future__ import annotations

import contextlib
import itertools
import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input lies outside the documented domain of the operation."""


class GraphError(RuntimeError):
    """The computation graph does not support the requested gradient."""


NORM_TOLERANCE = 1e-12

_state = threading.local()
_ids = itertools.count()


def _grad_enabled():
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that suppresses graph recording."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """Immutable float64 array plus the bookkeeping needed for backprop.

    ``_links`` holds (parent, vjp) pairs for parents that require grad; the
    vjp maps the cotangent of this node and the node itself to the cotangent
    contribution of that parent, expressed in traced ops so it stays
    differentiable. A node requires grad if it has links or is a leaf.
    ``_owns_data`` marks a constant whose data is its own copy, and
    ``_transposed`` keeps that constant's transpose once it is asked for.

    Ops build their outputs through ``_node``: while recording, an output
    with an operand that requires grad is linked; any other is a bare node,
    its value and id with no closures or links. ``_derivative`` keeps a tanh
    or sigmoid node's derivative, 1 - y y or y (1 - y) of its output y, made
    with the traced form's float ops by its first backward that does not
    record and reused by later ones; a ``create_graph`` backward builds the
    traced form, whose own derivative it needs.
    """

    __slots__ = ("data", "requires_grad", "_links", "_id", "_owns_data", "_transposed",
                 "_derivative", "__weakref__")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"only scalars, vectors and matrices supported, got shape {arr.shape}")
        self._set(arr, False)

    def _set(self, arr, requires_grad):
        if not arr.flags.c_contiguous:  # a transpose, a column slice: products round alike
            arr = np.copy(arr, order="C")
        self.data = arr
        self.requires_grad = requires_grad
        self._links = ()
        self._id = next(_ids)
        self._owns_data = False
        self._transposed = self._derivative = None
        return self

    def _link(self, *links):
        """Record the (parent, vjp) pairs of the parents that require grad."""
        self._links = tuple(link for link in links if link[0].requires_grad)
        return self

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self):
        return self.data

    def __repr__(self):
        grad_tag = ", grad" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_tag})"


def constant(data):
    """Wrap external data in a tensor; the data is copied, so later caller
    mutation cannot corrupt a recorded graph."""
    out = Tensor(np.array(data, dtype=np.float64))
    out._owns_data = True
    return out


def leaf(data):
    """A differentiable input node. An array of float64 in C order is viewed,
    not copied, so the caller must not change it while the graph is in use."""
    out = Tensor(data)
    out.requires_grad = True
    return out


def _node(data, *parents):
    """An op's output over ``data``, its float64 result (a numpy scalar from a
    reduction). It requires grad, and the op then links it, only while
    recording and if some parent requires grad."""
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    recording = any([p.requires_grad for p in parents]) and _grad_enabled()
    return Tensor.__new__(Tensor)._set(data, recording)


def _check_pair(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape} (no broadcasting)")


# ---------------------------------------------------------------------------
# primitives

def fill(s, shape):
    """Broadcast a scalar to the given shape: the adjoint of ``sum_all``."""
    if shape == ():
        return s
    out = _node(np.full(shape, s.data), s)
    return out._link((s, lambda g, _: sum_all(g))) if out.requires_grad else out


def add(a, b):
    _check_pair(a, b)
    out = _node(a.data + b.data, a, b)
    return out._link((a, lambda g, _: g), (b, lambda g, _: g)) if out.requires_grad else out


def sub(a, b):
    _check_pair(a, b)
    out = _node(a.data - b.data, a, b)
    return out._link((a, lambda g, _: g), (b, lambda g, _: neg(g))) if out.requires_grad else out


def mul(a, b):
    _check_pair(a, b)
    out = _node(a.data * b.data, a, b)
    return (out._link((a, lambda g, _: mul(g, b)), (b, lambda g, _: mul(g, a)))
            if out.requires_grad else out)


def div(a, b):
    _check_pair(a, b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    out = _node(a.data / b.data, a, b)
    return (out._link((a, lambda g, _: div(g, b)),
                      (b, lambda g, _: neg(div(mul(g, a), mul(b, b)))))
            if out.requires_grad else out)


def neg(a):
    out = _node(-a.data, a)
    return out._link((a, lambda g, _: neg(g))) if out.requires_grad else out


def sqrt(a):
    if np.any(a.data < 0.0):
        raise DomainError("sqrt of negative input")
    out = _node(np.sqrt(a.data), a)
    return (out._link((a, lambda g, y: div(g, mul(Tensor(np.full(y.shape, 2.0)), y))))
            if out.requires_grad else out)


def sigmoid(a):
    x = a.data
    e = np.exp(-np.abs(x))
    out = _node(np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), a)
    return out._link((a, _sigmoid_vjp)) if out.requires_grad else out


def _sigmoid_vjp(g, out):
    if _grad_enabled():
        return mul(g, mul(out, sub(Tensor(np.ones(out.shape)), out)))
    if out._derivative is None:
        out._derivative = _node(out.data * (1.0 - out.data))
    return mul(g, out._derivative)


def tanh(a):
    out = _node(np.tanh(a.data), a)
    return out._link((a, _tanh_vjp)) if out.requires_grad else out


def _tanh_vjp(g, out):
    if _grad_enabled():
        return mul(g, sub(Tensor(np.ones(out.shape)), mul(out, out)))
    if out._derivative is None:
        out._derivative = _node(1.0 - out.data * out.data)
    return mul(g, out._derivative)


def softplus(a):
    """ln(1 + e^x), evaluated stably; its derivative is sigmoid(x)."""
    x = a.data
    out = _node(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), a)
    return out._link((a, lambda g, _: mul(g, sigmoid(a)))) if out.requires_grad else out


def sum_all(a):
    out = _node(np.sum(a.data), a)
    return out._link((a, lambda g, _: fill(g, a.shape))) if out.requires_grad else out


def sum_squares(a):
    """sum(a * a) as one node, with the bits of ``sum_all(mul(a, a))``. Its
    vjp (2g) a is bitwise the g a + g a that the composite accumulates, since
    doubling is exact, except where g a is subnormal or 2g overflows."""
    out = _node(np.sum(a.data * a.data), a)
    return (out._link((a, lambda g, _: mul(fill(add(g, g), a.shape), a)))
            if out.requires_grad else out)


def sum_rows(a):
    """Row sums of a matrix: (n, d) -> (n,)."""
    if a.ndim != 2:
        raise ShapeError(f"sum_rows expects a matrix, got shape {a.shape}")
    out = _node(np.sum(a.data, axis=1), a)
    return out._link((a, lambda g, _: broadcast_col(g, a.shape[1]))) if out.requires_grad else out


def sum_cols(a):
    """Column sums of a matrix: (n, d) -> (d,)."""
    if a.ndim != 2:
        raise ShapeError(f"sum_cols expects a matrix, got shape {a.shape}")
    out = _node(np.sum(a.data, axis=0), a)
    return out._link((a, lambda g, _: broadcast_row(g, a.shape[0]))) if out.requires_grad else out


def broadcast_col(v, d):
    """Tile a vector (n,) as d identical columns: -> (n, d)."""
    if v.ndim != 1:
        raise ShapeError(f"broadcast_col expects a vector, got shape {v.shape}")
    out = _node(np.repeat(v.data[:, None], d, axis=1), v)
    return out._link((v, lambda g, _: sum_rows(g))) if out.requires_grad else out


def broadcast_row(v, n):
    """Tile a vector (d,) as n identical rows: -> (n, d)."""
    if v.ndim != 1:
        raise ShapeError(f"broadcast_row expects a vector, got shape {v.shape}")
    out = _node(np.repeat(v.data[None, :], n, axis=0), v)
    return out._link((v, lambda g, _: sum_cols(g))) if out.requires_grad else out


def transpose(a):
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    if a._owns_data and not a.requires_grad:
        if a._transposed is None:
            a._transposed = _node(a.data.T)
            a._transposed._owns_data = True
        return a._transposed
    out = _node(a.data.T, a)
    return out._link((a, lambda g, _: transpose(g))) if out.requires_grad else out


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    out = _node(a.data @ b.data, a, b)
    return (out._link((a, lambda g, _: matmul(g, transpose(b))),
                      (b, lambda g, _: matmul(transpose(a), g)))
            if out.requires_grad else out)


def take_rows(m, idx):
    """Gather rows of a matrix by an integer index array."""
    if m.ndim != 2:
        raise ShapeError(f"take_rows expects a matrix, got shape {m.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take_rows index must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= m.shape[0]):
        raise ShapeError("take_rows index out of range")
    out = _node(m.data[idx], m)
    return (out._link((m, lambda g, _: scatter_rows(g, idx, m.shape[0])))
            if out.requires_grad else out)


def bincount_rows(index, rows, n):
    """(n, d) numpy sums: row k adds up every ``rows[j]`` with ``index[j] == k``.
    One ``bincount`` over flat (row, column) bins adds in index order, bitwise
    as ``np.add.at``."""
    d = rows.shape[1]
    bins = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def scatter_rows(g, idx, num_rows):
    """Adjoint of take_rows: scatter-add rows into a zero matrix."""
    idx = np.asarray(idx, dtype=np.int64)
    if g.ndim != 2 or g.shape[0] != idx.shape[0]:
        raise ShapeError(f"scatter_rows shape mismatch {g.shape} vs {idx.shape}")
    out = _node(bincount_rows(idx, g.data, num_rows), g)
    return out._link((g, lambda gg, _: take_rows(gg, idx))) if out.requires_grad else out


def hstack(parts):
    """Concatenate matrices with equal row counts along columns."""
    rows = {p.shape[0] for p in parts}
    if any(p.ndim != 2 for p in parts) or len(rows) != 1:
        raise ShapeError("hstack expects matrices with equal row counts")
    out = _node(np.concatenate([p.data for p in parts], axis=1), *parts)
    if not out.requires_grad:
        return out
    offsets = np.cumsum([0] + [p.shape[1] for p in parts]).tolist()
    return out._link(*((p, lambda g, _, lo=lo, hi=hi: slice_cols(g, lo, hi))
                       for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])))


def slice_cols(m, lo, hi):
    if m.ndim != 2 or not (0 <= lo <= hi <= m.shape[1]):
        raise ShapeError(f"bad column slice [{lo}:{hi}] of shape {m.shape}")
    out = _node(m.data[:, lo:hi], m)
    return out._link((m, lambda g, _: pad_cols(g, lo, m.shape[1]))) if out.requires_grad else out


def pad_cols(m, lo, total):
    data = np.zeros((m.shape[0], total))
    data[:, lo:lo + m.shape[1]] = m.data
    out = _node(data, m)
    return (out._link((m, lambda g, _: slice_cols(g, lo, lo + m.shape[1])))
            if out.requires_grad else out)


# ---------------------------------------------------------------------------
# composites

def dot(a, b):
    return sum_all(mul(a, b))


def norm2(a):
    return sqrt(sum_all(mul(a, a)))


def cosine(a, b):
    """Cosine similarity of two equal-shape vectors or matrices (taken as
    flat vectors, e.g. (1, d) rows), differentiable.

    If either input has 2-norm below NORM_TOLERANCE the result is a constant
    zero, so its gradient contribution is zero.
    """
    if a.shape != b.shape or a.ndim == 0:
        raise ShapeError(f"cosine expects equal-shape vectors or matrices, "
                         f"got {a.shape}, {b.shape}")
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na < NORM_TOLERANCE or nb < NORM_TOLERANCE:
        return constant(0.0)
    return div(dot(a, b), mul(norm2(a), norm2(b)))


# ---------------------------------------------------------------------------
# backward

def grad(loss, wrt, create_graph=False):
    """Reverse-mode gradients of a scalar node w.r.t. the given leaves.

    Disconnected leaves yield zero tensors. With ``create_graph=True`` the
    returned gradients are themselves graph nodes and can be differentiated
    again.
    """
    if not isinstance(loss, Tensor) or loss.ndim != 0:
        raise GraphError("grad requires a scalar loss node")
    wrt = list(wrt)
    for w in wrt:
        if not isinstance(w, Tensor):
            raise GraphError("wrt entries must be tensors")
        if not w.requires_grad:
            raise GraphError("wrt tensor does not require grad (constant input)")

    # ancestors of loss that can reach a differentiable leaf
    nodes = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in nodes:
            continue
        nodes[node._id] = node
        for parent, _ in node._links:
            if parent._id not in nodes:
                stack.append(parent)

    wanted = {w._id for w in wrt}
    grads = {loss._id: constant(1.0)}
    with no_grad() if not create_graph else contextlib.nullcontext():
        for key in sorted(nodes, reverse=True):  # ids are unique: latest node first
            g = grads.pop(key, None)
            if g is None:
                continue
            node = nodes[key]
            if key in wanted:
                grads[key] = g  # keep for result extraction
            for parent, vjp in node._links:
                contrib = vjp(g, node)
                prev = grads.get(parent._id)
                grads[parent._id] = contrib if prev is None else add(prev, contrib)
    out = []
    for w in wrt:
        g = grads.get(w._id)
        out.append(g if g is not None else Tensor(np.zeros(w.shape)))
    return out

