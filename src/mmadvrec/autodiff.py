"""Reverse-mode automatic differentiation on dense float64 tensors.

Every operation evaluates eagerly with numpy and records its inputs plus a
vector-Jacobian closure. Because the closures are written in terms of the same
traced operations, a backward pass run with ``create_graph=True`` produces
gradients that are themselves differentiable, which is what the coordinated
max phase needs (it differentiates a function of first-order gradients).

Shapes are restricted to scalars (0-d), vectors and matrices; broadcasting is
exact-shape or scalar-only.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import weakref

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
    vjp closure maps the cotangent of this node to the cotangent contribution
    of that parent, expressed in traced ops so it stays differentiable.
    """

    def __init__(self, data, requires_grad=False, _links=()):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"only scalars, vectors and matrices supported, got shape {arr.shape}")
        if not arr.flags.c_contiguous:
            arr = np.copy(arr, order="C")
        self.data = arr
        self._links = tuple(_links)
        self.requires_grad = bool(requires_grad) or bool(self._links)
        self._id = next(_ids)

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


def tensor(data, requires_grad=False):
    """Wrap external data in a tensor; the data is copied, so later caller
    mutation cannot corrupt a recorded graph."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=requires_grad)


def leaf(data):
    """A differentiable input node (copies the data)."""
    return tensor(data, requires_grad=True)


def constant(data):
    return tensor(data)


def zeros(shape):
    return Tensor(np.zeros(shape))


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data, links):
    if not _grad_enabled():
        return Tensor(data)
    return Tensor(data, _links=[(p, fn) for p, fn in links if p.requires_grad])


def _align_pair(a, b):
    """Resolve exact-shape or scalar broadcast; returns operands as tensors."""
    a, b = _wrap(a), _wrap(b)
    if a.shape == b.shape:
        return a, b
    if a.ndim == 0:
        return fill(a, b.shape), b
    if b.ndim == 0:
        return a, fill(b, a.shape)
    raise ShapeError(f"shape mismatch {a.shape} vs {b.shape} (only scalar broadcast supported)")


# ---------------------------------------------------------------------------
# primitives

def fill(s, shape):
    """Broadcast a scalar to the given shape."""
    s = _wrap(s)
    if s.ndim != 0:
        raise ShapeError(f"fill expects a scalar, got shape {s.shape}")
    shape = tuple(shape)
    if shape == ():
        return s
    data = np.full(shape, s.data)
    return _node(data, [(s, lambda g: sum_all(g))])


def add(a, b):
    a, b = _align_pair(a, b)
    return _node(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def sub(a, b):
    a, b = _align_pair(a, b)
    return _node(a.data - b.data, [(a, lambda g: g), (b, lambda g: neg(g))])


def mul(a, b):
    a, b = _align_pair(a, b)
    return _node(a.data * b.data, [(a, lambda g: mul(g, b)), (b, lambda g: mul(g, a))])


def div(a, b):
    a, b = _align_pair(a, b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    out = _node(a.data / b.data, [(a, lambda g: div(g, b)),
                                  (b, lambda g: neg(div(mul(g, a), mul(b, b))))])
    return out


def neg(a):
    a = _wrap(a)
    return _node(-a.data, [(a, lambda g: neg(g))])


def _self_linked(data, parent, vjp_of_out):
    """Build a node whose vjp references the node itself (e.g. tanh' = 1 - tanh^2).

    The vjp holds the node weakly: a strong reference would make a cycle, and
    every graph through the node would stay in memory until the cyclic
    garbage collector ran. ``grad`` holds each node it calls a vjp of."""
    out = Tensor(data)
    if _grad_enabled() and parent.requires_grad:
        ref = weakref.ref(out)
        out._links = ((parent, lambda g: vjp_of_out(g, ref())),)
        out.requires_grad = True
    return out


def sqrt(a):
    a = _wrap(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt of negative input")
    return _self_linked(np.sqrt(a.data), a,
                        lambda g, out: div(g, mul(constant(2.0), out)))


def sigmoid(a):
    a = _wrap(a)
    x = a.data
    val = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _self_linked(val, a,
                        lambda g, out: mul(g, mul(out, sub(constant(1.0), out))))


def tanh(a):
    a = _wrap(a)
    return _self_linked(np.tanh(a.data), a,
                        lambda g, out: mul(g, sub(constant(1.0), mul(out, out))))


def softplus(a):
    """ln(1 + e^x), evaluated stably; its derivative is sigmoid(x)."""
    a = _wrap(a)
    x = a.data
    val = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _node(val, [(a, lambda g: mul(g, sigmoid(a)))])


def sum_all(a):
    a = _wrap(a)
    shape = a.shape
    return _node(np.sum(a.data), [(a, lambda g: fill(g, shape))])


def sum_rows(a):
    """Row sums of a matrix: (n, d) -> (n,)."""
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"sum_rows expects a matrix, got shape {a.shape}")
    d = a.shape[1]
    return _node(np.sum(a.data, axis=1), [(a, lambda g: broadcast_col(g, d))])


def sum_cols(a):
    """Column sums of a matrix: (n, d) -> (d,)."""
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"sum_cols expects a matrix, got shape {a.shape}")
    n = a.shape[0]
    return _node(np.sum(a.data, axis=0), [(a, lambda g: broadcast_row(g, n))])


def broadcast_col(v, d):
    """Tile a vector (n,) as d identical columns: -> (n, d)."""
    v = _wrap(v)
    if v.ndim != 1:
        raise ShapeError(f"broadcast_col expects a vector, got shape {v.shape}")
    data = np.repeat(v.data[:, None], d, axis=1)
    return _node(data, [(v, lambda g: sum_rows(g))])


def broadcast_row(v, n):
    """Tile a vector (d,) as n identical rows: -> (n, d)."""
    v = _wrap(v)
    if v.ndim != 1:
        raise ShapeError(f"broadcast_row expects a vector, got shape {v.shape}")
    data = np.repeat(v.data[None, :], n, axis=0)
    return _node(data, [(v, lambda g: sum_cols(g))])


def transpose(a):
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _node(a.data.T, [(a, lambda g: transpose(g))])


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return _node(a.data @ b.data, [(a, lambda g: matmul(g, transpose(b))),
                                   (b, lambda g: matmul(transpose(a), g))])


def take_rows(m, idx):
    """Gather rows of a matrix by an integer index array."""
    m = _wrap(m)
    if m.ndim != 2:
        raise ShapeError(f"take_rows expects a matrix, got shape {m.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take_rows index must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= m.shape[0]):
        raise ShapeError("take_rows index out of range")
    n = m.shape[0]
    return _node(m.data[idx], [(m, lambda g: scatter_rows(g, idx, n))])


def scatter_rows(g, idx, num_rows):
    """Adjoint of take_rows: scatter-add rows into a zero matrix. One ``bincount``
    over flat (row, column) bins adds in index order, bitwise as ``np.add.at``."""
    g = _wrap(g)
    idx = np.asarray(idx, dtype=np.int64)
    if g.ndim != 2 or g.shape[0] != idx.shape[0]:
        raise ShapeError(f"scatter_rows shape mismatch {g.shape} vs {idx.shape}")
    d = g.shape[1]
    bins = (idx[:, None] * d + np.arange(d)).ravel()
    data = np.bincount(bins, weights=g.data.ravel(), minlength=num_rows * d).reshape(num_rows, d)
    return _node(data, [(g, lambda gg: take_rows(gg, idx))])


def hstack(parts):
    """Concatenate matrices with equal row counts along columns."""
    parts = [_wrap(p) for p in parts]
    rows = {p.shape[0] for p in parts}
    if any(p.ndim != 2 for p in parts) or len(rows) != 1:
        raise ShapeError("hstack expects matrices with equal row counts")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    links = []
    for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        links.append((p, lambda g, lo=int(lo), hi=int(hi): slice_cols(g, lo, hi)))
    return _node(np.concatenate([p.data for p in parts], axis=1), links)


def slice_cols(m, lo, hi):
    m = _wrap(m)
    if m.ndim != 2 or not (0 <= lo <= hi <= m.shape[1]):
        raise ShapeError(f"bad column slice [{lo}:{hi}] of shape {m.shape}")
    d = m.shape[1]
    return _node(m.data[:, lo:hi], [(m, lambda g: pad_cols(g, lo, d))])


def pad_cols(m, lo, total):
    m = _wrap(m)
    data = np.zeros((m.shape[0], total))
    data[:, lo:lo + m.shape[1]] = m.data
    hi = lo + m.shape[1]
    return _node(data, [(m, lambda g: slice_cols(g, lo, hi))])


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
    a, b = _wrap(a), _wrap(b)
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
        for node in sorted(nodes.values(), key=lambda n: -n._id):
            g = grads.pop(node._id, None)
            if g is None:
                continue
            if node._id in wanted:
                grads[node._id] = g  # keep for result extraction
            for parent, vjp in node._links:
                contrib = vjp(g)
                prev = grads.get(parent._id)
                grads[parent._id] = contrib if prev is None else add(prev, contrib)
    out = []
    for w in wrt:
        g = grads.get(w._id)
        out.append(g if g is not None else zeros(w.shape))
    return out


# ---------------------------------------------------------------------------
# finite differences (independent oracle and cross-validation route)

def fd_gradient(f, xs, step=1e-5):
    """Central finite differences of a scalar function of numpy arrays.

    f takes a list of arrays and returns a float; returns one array of
    partials per input.
    """
    xs = [np.array(x, dtype=np.float64) for x in xs]
    grads = []
    for k, x in enumerate(xs):
        g = np.zeros_like(x)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            fp = f([np.array(v) for v in xs])
            flat[j] = orig - step
            fm = f([np.array(v) for v in xs])
            flat[j] = orig
            gflat[j] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads
