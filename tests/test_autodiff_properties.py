"""Property tests of the traced autodiff ops against central finite
differences: random small compositions of the ops the forward, the losses and
the alignment terms use, checked at first order and, through create-graph
gradients, at second order against Richardson-extrapolated differences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmadvrec import autodiff as ad

from oracles import rel_err

# each step maps the running (n, m) matrix h to a new (n, m) matrix
STEPS = ("add", "sub", "mul", "matmul", "transpose", "take_rows", "hstack",
         "sum_rows", "sum_cols", "tanh", "sigmoid", "softplus")
# how the running matrix becomes the scalar loss
HEADS = ("weighted_sum", "cosine_rows", "cosine_cols")


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    steps = draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=5))
    head = draw(st.sampled_from(HEADS))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(-1, 1, size=(n, m)), rng.uniform(-1, 1, size=(n, m)),
              rng.uniform(-1, 1, size=(m, m))]
    consts = {"idx": rng.integers(0, n, size=n), "proj": rng.uniform(-1, 1, size=(2 * m, m)),
              "weights": rng.uniform(-1, 1, size=(n, m)), "probe": rng.uniform(-1, 1, size=(n, m))}
    return steps, head, inputs, consts


def evaluate(program, tensors):
    """The program's scalar loss over input nodes (a, b, w)."""
    steps, head, _, consts = program
    a, b, w = tensors
    n, m = a.shape
    h = a
    for step in steps:
        if step == "add":
            h = ad.add(h, b)
        elif step == "sub":
            h = ad.sub(b, h)
        elif step == "mul":
            h = ad.mul(h, b)
        elif step == "matmul":
            h = ad.matmul(h, w)
        elif step == "transpose":
            h = ad.transpose(ad.matmul(w, ad.transpose(h)))
        elif step == "take_rows":
            h = ad.take_rows(h, consts["idx"])
        elif step == "hstack":
            h = ad.matmul(ad.hstack([h, b]), ad.constant(consts["proj"]))
        elif step == "sum_rows":
            h = ad.mul(ad.broadcast_col(ad.sum_rows(h), m), b)
        elif step == "sum_cols":
            h = ad.mul(ad.broadcast_row(ad.sum_cols(h), n), b)
        else:
            h = getattr(ad, step)(h)
    if head == "weighted_sum":
        return ad.sum_all(ad.mul(h, ad.constant(consts["weights"])))
    if head == "cosine_rows":
        # (1, d) rows: the shape the 1-row attack's gradients have
        return ad.cosine(ad.take_rows(h, [0]), ad.take_rows(ad.add(b, h), [n - 1]))
    return ad.cosine(ad.sum_cols(h), ad.sum_cols(ad.mul(b, b)))


def value(program, arrays):
    return evaluate(program, [ad.constant(x) for x in arrays]).item()


def first_order(program, arrays, create_graph=False):
    leaves = [ad.leaf(x) for x in arrays]
    loss = evaluate(program, leaves)
    return leaves, ad.grad(loss, leaves, create_graph=create_graph)


def close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-3)
    return float(np.max(np.abs(got - want))) <= 1e-5 * scale


def richardson_gradient(f, xs, step=1e-4):
    """Central differences extrapolated towards step 0,
    (4 D(step/2) - D(step)) / 3, which cancels their step^2 error term:
    plain central differences of a gradient are too coarse for a 1e-5
    tolerance where a cosine head nears 1."""
    coarse = ad.fd_gradient(f, xs, step=step)
    fine = ad.fd_gradient(f, xs, step=step / 2)
    return [(4.0 * a - b) / 3.0 for a, b in zip(fine, coarse)]


@settings(max_examples=60, deadline=None)
@given(programs())
def test_first_order_matches_finite_differences(program):
    inputs = program[2]
    _, grads = first_order(program, inputs)
    fds = ad.fd_gradient(lambda xs: value(program, xs), inputs)
    for g, fd in zip(grads, fds):
        assert g.shape == fd.shape
        assert close(g.numpy(), fd), rel_err(g.numpy(), fd)


@settings(max_examples=40, deadline=None)
@given(programs())
def test_second_order_matches_finite_differences_of_the_tape_gradient(program):
    inputs, probe = program[2], program[3]["probe"]

    def contracted(xs):
        _, grads = first_order(program, xs)
        return float(np.sum(grads[0].numpy() * probe))

    leaves, grads = first_order(program, inputs, create_graph=True)
    outer = ad.sum_all(ad.mul(grads[0], ad.constant(probe)))
    hvps = ad.grad(outer, leaves)
    fds = richardson_gradient(contracted, inputs)
    for g, fd in zip(hvps, fds):
        assert close(g.numpy(), fd), rel_err(g.numpy(), fd)
