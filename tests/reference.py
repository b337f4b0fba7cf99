"""Exact references the tests compare the program against: finite-difference
gradients and a brute-force ranking. Like ``perfbench/oracles.py`` (the
benchmark's tolerance-bound oracles, which the tests import too), nothing
here imports the package, so a fault in the program cannot reach the
reference it is checked by."""

import numpy as np


def fd_gradient(f, xs, step=1e-5):
    """Central finite differences of a scalar function of numpy arrays.

    f takes a list of arrays and returns a float; returns one array of
    partials per input.
    """
    xs = [np.array(x, dtype=np.float64) for x in xs]
    grads = []
    for x in xs:
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


def richardson_gradient(f, xs, step=1e-4):
    """Central differences extrapolated towards step 0,
    (4 D(step/2) - D(step)) / 3, which cancels their step^2 error term:
    plain central differences of a gradient are too coarse for a 1e-5
    tolerance where a cosine head nears 1."""
    coarse = fd_gradient(f, xs, step=step)
    fine = fd_gradient(f, xs, step=step / 2)
    return [(4.0 * a - b) / 3.0 for a, b in zip(fine, coarse)]


def rank_and_kth(masked, targets, k):
    """Sort each row u of ``masked`` (a user's scores, -inf at their training
    items) by (score desc, item id asc). Return, per row, the zero-based
    position of item ``targets[u]`` (a scalar is every row's target), +inf
    when that item is -inf so it is never a hit; and the k-th best score of
    the row with the target left out, -inf past the row's end."""
    masked = np.asarray(masked, dtype=np.float64)
    targets = np.broadcast_to(targets, masked.shape[:1])
    ids = np.arange(masked.shape[1])
    rank = np.full(masked.shape[0], np.inf)
    kth = np.full(masked.shape[0], -np.inf)
    for u, (row, i) in enumerate(zip(masked, targets)):
        order = np.lexsort((ids, -row))
        if np.isfinite(row[i]):
            rank[u] = np.flatnonzero(order == i)[0]
        rest = order[order != i]
        if k <= rest.size:
            kth[u] = row[rest[k - 1]]
    return rank, kth
