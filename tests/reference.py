"""Exact references the tests compare the program against: finite-difference
gradients, a brute-force ranking, the mismatch survey as a per-user loop and
a training step whose tape holds the whole embedding tables. Like
``perfbench/oracles.py`` (the benchmark's tolerance-bound oracles, which the
tests import too), nothing here imports the package, so a fault in the
program cannot reach the reference it is checked by. The survey loop and
the training step alone run on the autodiff and model code they are
handed, which the finite differences here check: they pin the program's
array algebra and summation order bit for bit, not its calculus."""

import math

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


def per_user_survey(ad, objective, dv, dt, users, k_users):
    """One target's survey as a loop over its audience ``users``: per user, a
    sigmoid(score - threshold) head, one backward to the (1, d) delta leaves
    ``dv`` and ``dt``, then a norm, a cosine against the aggregate and a
    sort key. ``ad`` is the program's autodiff and ``objective`` its
    Promotion of the target, both passed in so that nothing here imports
    the package. Returns (g_v, g_t, c_v, c_t, users_v, users_t, jaccard),
    gradients as (U, d) arrays and contributions as (U,) arrays."""
    h_i = objective.forward.item_embedding_batch([objective.item], dv, dt)
    grads = []
    for row, thr in zip(objective.rows.numpy(), objective.thresholds.numpy()[:, 0]):
        score = ad.dot(ad.Tensor(row[None, :]), h_i)
        g_v, g_t = ad.grad(ad.sigmoid(ad.sub(score, ad.Tensor(thr))), [dv, dt])
        grads.append((g_v.numpy()[0], g_t.numpy()[0]))

    def cosine(a, b):
        na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))
        if na < ad.NORM_TOLERANCE or nb < ad.NORM_TOLERANCE:
            return 0.0
        return float(a.dot(b) / (na * nb))

    out = []
    for m in (0, 1):
        g = [pair[m] for pair in grads]
        agg = np.sum(g, axis=0)
        norm_sum = float(sum(np.linalg.norm(x) for x in g))
        out.append((np.array(g), np.array([cosine(x, agg) * math.sqrt(x.dot(x)) / norm_sum
                                           for x in g])))
    tops = []
    for _, c in out:
        ranked = sorted(zip(users.tolist(), c.tolist()), key=lambda uc: (-uc[1], uc[0]))
        tops.append(np.array(sorted(u for u, _ in ranked[:k_users]), dtype=np.int64))
    sv, st = set(tops[0].tolist()), set(tops[1].tolist())
    return (out[0][0], out[1][0], out[0][1], out[1][1], tops[0], tops[1],
            len(sv & st) / len(sv | st))


def table_leaf_forward(ad, forward, params, enc):
    """A trainable forward whose embedding tables are tape leaves: the
    program's ``forward`` class and ``ad`` are passed in, and each gather is
    a ``take_rows`` from the whole table's leaf, which views its array."""

    class TableLeaves(forward):
        def _gather(self, name, ids):
            return ad.take_rows(self.nodes[name], ids)

    fw = TableLeaves(params, enc, trainable=True)
    fw.nodes.update((name, ad.leaf(getattr(params, name))) for name in forward.TABLES)
    return fw


def full_table_min_phase(ad, forward, bpr_loss, params, enc, triples, delta_batch, config,
                         optimizer):
    """One min-phase step on the tape of ``table_leaf_forward``: clean +
    lambda * perturbed loss + beta * a ``sum_squares`` node per parameter,
    added in name order, and one backward to every parameter leaf, whose
    dense gradients ``optimizer`` takes. The program's ``bpr_loss`` and
    optimiser are passed in. Returns (clean loss value, perturbed loss
    value)."""
    fw = table_leaf_forward(ad, forward, params, enc)
    clean = bpr_loss(params, enc, triples, forward=fw, reduction=config.reduction)
    loss, adv_value = clean, 0.0
    if config.lambda_ > 0:
        deltas = {k: ad.constant(v) for k, v in vars(delta_batch).items()}
        adv = bpr_loss(params, enc, triples, forward=fw, reduction=config.reduction,
                       deltas=deltas)
        loss = ad.add(loss, ad.mul(ad.constant(config.lambda_), adv))
        adv_value = adv.item()
    names = sorted(fw.nodes)
    if config.beta > 0:
        total = None
        for name in names:
            term = ad.sum_squares(fw.nodes[name])
            total = term if total is None else ad.add(total, term)
        loss = ad.add(loss, ad.mul(ad.constant(config.beta), total))
    grads = ad.grad(loss, [fw.nodes[n] for n in names])
    optimizer.step(params, {n: g.numpy() for n, g in zip(names, grads)})
    return clean.item(), adv_value
