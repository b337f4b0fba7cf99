import contextlib
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmadvrec import autodiff as ad
from mmadvrec import models

from oracles import rel_err
from reference import fd_gradient


def test_sigmoid_values():
    assert ad.sigmoid(ad.constant(0.0)).item() == 0.5
    # scalar reference evaluation of 1/(1+e^-4)
    assert ad.sigmoid(ad.constant(4.0)).item() == pytest.approx(0.9820137900379085, abs=1e-12)


def test_bpr_loss_at_tied_scores():
    # -ln sigmoid(0) = ln 2
    x = ad.constant(0.0)
    assert -math.log(ad.sigmoid(x).item()) == pytest.approx(math.log(2.0), abs=1e-12)
    # softplus(-x) is the stable form of the same expression
    assert ad.softplus(ad.neg(x)).item() == pytest.approx(math.log(2.0), abs=1e-15)


def test_elementwise_dispatch_and_errors():
    a = ad.constant([1.0, 2.0])
    assert np.allclose(ad.add(a, a).numpy(), [2.0, 4.0])
    with pytest.raises(ad.ShapeError):
        ad.add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))
    with pytest.raises(ad.DomainError):
        ad.sqrt(ad.constant([-1.0]))
    with pytest.raises(ad.DomainError):
        ad.div(a, ad.constant([1.0, 0.0]))


def test_scalar_broadcast_only():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ad.ShapeError):
        ad.mul(a, ad.constant(2.0))  # operands have equal shapes, a scalar too
    with pytest.raises(ad.ShapeError):
        ad.mul(a, ad.constant([1.0, 2.0]))  # vector-matrix broadcast unsupported


def test_transpose_is_kept_only_for_a_constant_that_owns_its_data():
    c = ad.constant(np.arange(6.0).reshape(2, 3))
    t = ad.transpose(c)
    assert ad.transpose(c) is t and t.data.flags.c_contiguous
    assert np.array_equal(t.numpy(), c.numpy().T)
    # every backward through the constant reads the one kept transpose
    x = ad.leaf(np.ones((3, 1)))
    for _ in range(2):
        (g,) = ad.grad(ad.sum_all(ad.matmul(c, x)), [x])
        assert np.array_equal(g.numpy(), [[3.0], [5.0], [7.0]])
    assert ad.transpose(c) is t
    # a tensor over a caller's array sees that array change in place
    arr = np.arange(6.0).reshape(2, 3)
    view = ad.Tensor(arr)
    first = ad.transpose(view)
    arr += 1.0
    assert ad.transpose(view) is not first
    assert np.array_equal(ad.transpose(view).numpy(), arr.T)
    leaf = ad.leaf(arr)
    assert ad.transpose(leaf).requires_grad and ad.transpose(leaf) is not ad.transpose(leaf)


def test_matvec():
    """matmul on a one-column right operand."""
    eye = ad.constant(np.eye(3))
    x = ad.constant([[1.0], [2.0], [3.0]])
    assert np.allclose(ad.matmul(eye, x).numpy(), [[1], [2], [3]])
    zeros = ad.constant(np.zeros((2, 3)))
    assert np.allclose(ad.matmul(zeros, x).numpy(), [[0], [0]])
    w = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ad.matmul(w, ad.constant([[1.0], [1.0]])).numpy(), [[3], [7]])
    with pytest.raises(ad.ShapeError):
        ad.matmul(w, x)
    with pytest.raises(ad.ShapeError):
        ad.matmul(w, ad.constant([1.0, 1.0]))


def test_cosine_values_and_degenerate():
    assert ad.cosine(ad.constant([1.0, 0.0]), ad.constant([0.0, 1.0])).item() == 0.0
    assert ad.cosine(ad.constant([1.0, 1.0]),
                     ad.constant([1.0, 0.0])).item() == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=5)
        c = ad.cosine(ad.constant(x), ad.constant(x))
        assert c.item() == pytest.approx(1.0, abs=1e-12)
        y = rng.normal(size=5)
        cxy = ad.cosine(ad.constant(x), ad.constant(y)).item()
        assert -1.0 - 1e-12 <= cxy <= 1.0 + 1e-12
    zero, other = ad.leaf(np.zeros(3)), ad.leaf([1.0, 0.0, 0.0])
    tiny = ad.cosine(zero, other)
    assert tiny.item() == 0.0
    for g in ad.grad(tiny, [zero, other]):  # a degenerate input passes no gradient
        assert np.array_equal(g.numpy(), np.zeros(3))


def test_grad_logsigmoid_at_zero():
    x = ad.leaf(0.0)
    loss = ad.softplus(ad.neg(x))  # -ln sigmoid(x)
    (g,) = ad.grad(loss, [x])
    assert g.item() == pytest.approx(-0.5, abs=1e-12)


def test_grad_cosine_analytic():
    a = ad.leaf([1.0, 0.0])
    b = ad.constant([0.0, 1.0])
    (g,) = ad.grad(ad.cosine(a, b), [a])
    # b/(|a||b|) - cos * a/|a|^2 with cos = 0
    assert np.allclose(g.numpy(), [0.0, 1.0], atol=1e-12)


def test_grad_matvec_chain_vs_fd():
    rng = np.random.default_rng(7)
    w0 = rng.uniform(-2, 2, size=(5, 4))
    x0 = rng.uniform(-2, 2, size=(4, 1))
    w, x = ad.leaf(w0), ad.leaf(x0)
    loss = ad.sum_all(ad.sigmoid(ad.matmul(w, ad.tanh(x))))
    gw, gx = ad.grad(loss, [w, x])

    def f(vs):
        return float(np.sum(1 / (1 + np.exp(-(vs[0] @ np.tanh(vs[1]))))))

    fgw, fgx = fd_gradient(f, [w0, x0], step=1e-5)
    assert rel_err(gw.numpy(), fgw) < 1e-6
    assert rel_err(gx.numpy(), fgx) < 1e-6


def test_grad_disconnected_and_contract_errors():
    x = ad.leaf([1.0, 2.0])
    unused = ad.leaf([3.0])
    loss = ad.sum_all(ad.mul(x, x))
    gx, gu = ad.grad(loss, [x, unused])
    assert np.allclose(gx.numpy(), [2.0, 4.0])
    assert np.allclose(gu.numpy(), [0.0])
    with pytest.raises(ad.GraphError):
        ad.grad(ad.mul(x, x), [x])  # non-scalar loss
    with pytest.raises(ad.GraphError):
        ad.grad(loss, [ad.constant([1.0, 2.0])])  # constant wrt


def test_grad_linearity():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-2, 2, size=6)
    a, b = 1.7, -0.4

    def parts(xv):
        x = ad.leaf(xv)
        f = ad.sum_all(ad.sigmoid(x))
        g = ad.sum_all(ad.mul(x, ad.tanh(x)))
        return x, f, g

    x, f, g = parts(x0)
    (grad_combo,) = ad.grad(ad.add(ad.mul(ad.constant(a), f), ad.mul(ad.constant(b), g)), [x])
    x1, f1, _ = parts(x0)
    (gf,) = ad.grad(f1, [x1])
    x2, _, g2 = parts(x0)
    (gg,) = ad.grad(g2, [x2])
    combo = a * gf.numpy() + b * gg.numpy()
    assert rel_err(grad_combo.numpy(), combo) < 1e-12


def test_grad_determinism_bitwise():
    def run():
        rng = np.random.default_rng(11)
        w = ad.leaf(rng.normal(size=(6, 6)))
        x = ad.leaf(rng.normal(size=(6, 1)))
        h = ad.tanh(ad.matmul(w, x))
        loss = ad.sum_all(ad.sigmoid(ad.matmul(w, h)))
        return [g.numpy().tobytes() for g in ad.grad(loss, [w, x])]

    assert run() == run()


def test_second_order_cubic():
    x = ad.leaf(2.0)
    f = ad.mul(ad.mul(x, x), x)
    (g1,) = ad.grad(f, [x], create_graph=True)
    (g2,) = ad.grad(g1, [x])
    assert g2.item() == pytest.approx(12.0, abs=1e-9)


def test_second_order_grad_norm_quadratic():
    # f(x) = 0.5 x^T A x with symmetric A: grad ||grad f||^2 = 2 A^T A x
    rng = np.random.default_rng(5)
    a0 = rng.normal(size=(3, 3))
    a0 = (a0 + a0.T) / 2
    x0 = rng.normal(size=(3, 1))
    x = ad.leaf(x0)
    f = ad.mul(ad.constant(0.5), ad.dot(x, ad.matmul(ad.constant(a0), x)))
    (gx,) = ad.grad(f, [x], create_graph=True)
    (g2,) = ad.grad(ad.sum_all(ad.mul(gx, gx)), [x])
    assert rel_err(g2.numpy(), 2 * a0.T @ a0 @ x0) < 1e-10


def test_grad_of_grad_contract():
    """Only a create_graph gradient is itself differentiable."""
    x = ad.leaf(1.0)
    (g,) = ad.grad(ad.mul(x, x), [x], create_graph=False)
    assert not g.requires_grad and not g._links
    (g,) = ad.grad(ad.mul(ad.mul(x, x), x), [x], create_graph=True)
    (h,) = ad.grad(g, [x])
    assert h.item() == pytest.approx(6.0, abs=1e-9)


def test_second_order_vs_fd_of_first_order():
    rng = np.random.default_rng(9)
    for trial in range(5):
        w0 = rng.uniform(-1, 1, size=(4, 3))
        x0 = rng.uniform(-1, 1, size=(3, 1))
        v = rng.normal(size=(3, 1))

        def first_order(xv):
            w, x = ad.leaf(w0), ad.leaf(xv)
            y = ad.sum_all(ad.sigmoid(ad.matmul(w, ad.tanh(x))))
            (g,) = ad.grad(y, [x])
            return g.numpy()

        x = ad.leaf(x0)
        w = ad.leaf(w0)
        y = ad.sum_all(ad.sigmoid(ad.matmul(w, ad.tanh(x))))
        (g,) = ad.grad(y, [x], create_graph=True)
        (hvp,) = ad.grad(ad.dot(g, ad.constant(v)), [x])
        (fd,) = fd_gradient(lambda vs: float(np.sum(first_order(vs[0]) * v)), [x0],
                            step=1e-5)
        assert rel_err(hvp.numpy(), fd) < 1e-4


def test_sum_axis_ops_and_adjoints():
    rng = np.random.default_rng(2)
    m0 = rng.normal(size=(3, 4))
    m = ad.leaf(m0)
    loss = ad.sum_all(ad.sigmoid(ad.sum_rows(m)))
    (g,) = ad.grad(loss, [m])
    (fd,) = fd_gradient(lambda vs: float(np.sum(1 / (1 + np.exp(-vs[0].sum(axis=1))))),
                        [m0])
    assert rel_err(g.numpy(), fd) < 1e-6
    m = ad.leaf(m0)
    loss = ad.sum_all(ad.tanh(ad.sum_cols(m)))
    (g,) = ad.grad(loss, [m])
    (fd,) = fd_gradient(lambda vs: float(np.sum(np.tanh(vs[0].sum(axis=0)))), [m0])
    assert rel_err(g.numpy(), fd) < 1e-6


def test_gather_scatter_concat_adjoints():
    rng = np.random.default_rng(4)
    m0 = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    m = ad.leaf(m0)
    loss = ad.sum_all(ad.mul(ad.take_rows(m, idx), ad.take_rows(m, idx)))
    (g,) = ad.grad(loss, [m])
    (fd,) = fd_gradient(lambda vs: float(np.sum(vs[0][idx] ** 2)), [m0])
    assert rel_err(g.numpy(), fd) < 1e-6

    a0, b0 = rng.normal(size=(1, 3)), rng.normal(size=(1, 2))
    a, b = ad.leaf(a0), ad.leaf(b0)
    loss = ad.sum_all(ad.sigmoid(ad.hstack([a, b])))
    ga, gb = ad.grad(loss, [a, b])
    fda, fdb = fd_gradient(
        lambda vs: float(np.sum(1 / (1 + np.exp(-np.hstack(vs))))), [a0, b0])
    assert rel_err(ga.numpy(), fda) < 1e-6
    assert rel_err(gb.numpy(), fdb) < 1e-6


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.lists(st.integers(0, 4), max_size=12),
       st.integers(0, 2 ** 16))
def test_scatter_rows_equals_add_at_bitwise(num_rows, d, idx, seed):
    # magnitudes 1e-3..1e16 make the sum of a repeated row depend on its order
    idx = np.array([i % num_rows for i in idx], dtype=np.int64)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(idx.size, d)) * 10.0 ** rng.integers(-3, 17, size=(idx.size, d))
    want = np.zeros((num_rows, d))
    np.add.at(want, idx, g)
    got = ad.scatter_rows(ad.constant(g), idx, num_rows).numpy()
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(), (5,), (4, 3)])
@pytest.mark.parametrize("create_graph", [False, True])
def test_sum_squares_equals_the_composite_bitwise(shape, create_graph):
    """One node with the value and the gradient bits of sum_all(mul(a, a)),
    under a cotangent other than 1 and magnitudes from 1e-3 to 1e16."""
    rng = np.random.default_rng(len(shape))
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 17, size=shape)
    outs = []
    for head in (ad.sum_squares, lambda a: ad.sum_all(ad.mul(a, a))):
        a = ad.leaf(arr)
        loss = ad.mul(ad.constant(0.37), head(a))
        (g,) = ad.grad(loss, [a], create_graph=create_graph)
        assert g.requires_grad == create_graph
        outs.append((loss.numpy().tobytes(), g.numpy().tobytes()))
    assert outs[0] == outs[1]


def test_no_grad_suppresses_recording():
    x = ad.leaf([1.0, 2.0])
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    z = ad.sum_all(ad.mul(x, x))
    assert z.requires_grad


def test_tensor_invariants():
    t = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert np.prod(t.shape) == t.data.size
    with pytest.raises(ad.ShapeError):
        ad.Tensor(np.zeros((2, 2, 2)))


def test_graph_through_self_linked_ops_is_freed_without_the_cycle_collector():
    x = ad.leaf([0.5, 1.5])
    gc.disable()
    try:
        inner = ad.tanh(ad.sigmoid(ad.sqrt(x)))
        probe = weakref.ref(inner)
        (g,) = ad.grad(ad.sum_all(inner), [x], create_graph=True)
        (h,) = ad.grad(ad.sum_all(g), [x])
        del inner, g
        assert probe() is None
    finally:
        gc.enable()
    assert np.all(np.isfinite(h.numpy()))


# op -> (call on tensors, operand shapes); operands are positive, inside
# sqrt's domain and away from div's pole
_OPS = {
    "fill": (lambda s: ad.fill(s, (2, 3)), [()]),
    "add": (ad.add, [(2, 3), (2, 3)]),
    "sub": (ad.sub, [(2, 3), (2, 3)]),
    "mul": (ad.mul, [(2, 3), (2, 3)]),
    "div": (ad.div, [(2, 3), (2, 3)]),
    "neg": (ad.neg, [(2, 3)]),
    "sqrt": (ad.sqrt, [(2, 3)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "tanh": (ad.tanh, [(2, 3)]),
    "softplus": (ad.softplus, [(2, 3)]),
    "sum_all": (ad.sum_all, [(2, 3)]),
    "sum_squares": (ad.sum_squares, [(2, 3)]),
    "sum_rows": (ad.sum_rows, [(2, 3)]),
    "sum_cols": (ad.sum_cols, [(2, 3)]),
    "broadcast_col": (lambda v: ad.broadcast_col(v, 3), [(2,)]),
    "broadcast_row": (lambda v: ad.broadcast_row(v, 3), [(2,)]),
    "transpose": (ad.transpose, [(2, 3)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "take_rows": (lambda m: ad.take_rows(m, [2, 0, 2]), [(3, 2)]),
    "scatter_rows": (lambda g: ad.scatter_rows(g, [2, 0, 2], 4), [(3, 2)]),
    "hstack": (lambda a, b: ad.hstack([a, b]), [(2, 3), (2, 1)]),
    "slice_cols": (lambda m: ad.slice_cols(m, 1, 3), [(2, 4)]),
    "pad_cols": (lambda m: ad.pad_cols(m, 1, 4), [(2, 2)]),
}


@pytest.mark.parametrize("name", sorted(_OPS))
def test_every_op_gives_the_same_bits_recording_or_not(name):
    """Leaves while recording get a linked node; leaves under no_grad and
    constants get a bare one. All three hold the same bits in C order."""
    op, shapes = _OPS[name]
    rng = np.random.default_rng(len(name))
    arrays = [0.5 + np.abs(rng.normal(size=shape)) for shape in shapes]
    outs = []
    for wrap, recording in ((ad.leaf, True), (ad.leaf, False), (ad.constant, True)):
        with contextlib.nullcontext() if recording else ad.no_grad():
            out = op(*(wrap(a) for a in arrays))
        linked = recording and wrap is ad.leaf
        assert out.requires_grad == linked and bool(out._links) == linked
        assert out.data.flags.c_contiguous
        outs.append((out.shape, out.data.strides, out.data.tobytes()))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid], ids=["tanh", "sigmoid"])
def test_kept_derivative_leaves_first_and_second_order_gradients_bitwise(op):
    """A first-order backward keeps the node's derivative and reuses it; a
    create_graph backward through the same node then gives the first- and
    second-order gradients of a fresh graph, bit for bit, and the latter
    agree with finite differences of the first-order gradient."""
    rng = np.random.default_rng(13)
    x0, w0 = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))

    def build():
        x = ad.leaf(x0)
        y = op(x)
        return x, y, ad.sum_all(ad.mul(y, ad.constant(w0)))

    x, y, loss = build()
    (g1,) = ad.grad(loss, [x])
    kept = y._derivative
    assert kept is not None
    (again,) = ad.grad(loss, [x])
    assert y._derivative is kept and again.numpy().tobytes() == g1.numpy().tobytes()
    (g,) = ad.grad(loss, [x], create_graph=True)
    (h,) = ad.grad(ad.sum_squares(g), [x])
    fx, _, fresh_loss = build()
    (fg,) = ad.grad(fresh_loss, [fx], create_graph=True)
    (fh,) = ad.grad(ad.sum_squares(fg), [fx])
    assert g1.numpy().tobytes() == g.numpy().tobytes() == fg.numpy().tobytes()
    assert h.numpy().tobytes() == fh.numpy().tobytes()

    def grad_sum_squares(vs):
        x = ad.leaf(vs[0])
        (gx,) = ad.grad(ad.sum_all(ad.mul(op(x), ad.constant(w0))), [x])
        return float(np.sum(gx.numpy() ** 2))

    (fd,) = fd_gradient(grad_sum_squares, [x0], step=1e-5)
    assert rel_err(h.numpy(), fd) < 1e-6


def test_frozen_forward_copies_each_weight_transpose_once(trained_graph, monkeypatch):
    """Across two encodes, each with a backward, every transpose of a frozen
    forward's weight, and of that kept transpose in the backward, returns
    one kept copy; the encodes keep the bits of a trainable forward, which
    transposes its leaves afresh."""
    params, enc = trained_graph
    fw = models.Forward(params, enc)
    weights = [fw.nodes[name] for name in ("proj_v", "proj_t", "prop_v", "prop_t")]
    for name, node in zip(("proj_v", "proj_t", "prop_v", "prop_t"), weights):
        assert not np.shares_memory(node.numpy(), params.arrays()[name])
    assert np.shares_memory(fw.nodes["item_embeds"].numpy(), params.item_embeds)
    calls = []
    transpose = ad.transpose

    def spy(a):
        calls.append((a, transpose(a)))
        return calls[-1][1]

    monkeypatch.setattr(ad, "transpose", spy)
    rows = []
    for items in ([0, 1, 2], [4]):
        dv, dt = (ad.leaf(np.zeros((len(items), raw.shape[1]))) for raw in (enc.raw_v, enc.raw_t))
        rows.append(fw.item_embedding_batch(items, dv, dt))
        ad.grad(ad.sum_all(rows[-1]), [dv, dt])
    for w in weights:
        assert sum(a is w for a, _ in calls) == 2
    for a, out in calls:
        assert all(o is out for b, o in calls if b is a)
    trainable = models.Forward(params, enc, trainable=True)
    for items, row in zip(([0, 1, 2], [4]), rows):
        assert row.numpy().tobytes() == trainable.item_embedding_batch(items).numpy().tobytes()
