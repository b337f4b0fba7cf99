"""Evasion-style promotion attacks on a frozen model.

The attacker perturbs one item's modality features inside L2 budgets that are
a fraction of the item's feature norm, maximising the mean sigmoid margin of
the target score over each user's top-K threshold. Thresholds come from the
clean model once per attack and stay fixed: only the target's embedding moves,
and keeping the threshold from chasing the target makes the objective stable.
One projected ascent serves both attacks: each step moves the deltas along
their normalised gradients and projects them back onto the budget balls.
PGD takes several short steps; FGSM is its one-step case, a single step of
the whole budget.

The ascent's objective is built once, in ``ascent_gradients``: a loss plus a
weighted cross-modal gradient-alignment term, the cosine between the loss's
visual and textual delta gradients, which requires differentiating through
those first-order gradients. The coordinated attack (``with_align``) uses it
on the attacked item's one (visual, textual) delta pair, and the UAT-MC
max phase in ``training`` uses it on a batch's positive and negative items,
with ``budget_rows`` and ``to_sphere`` for its budgets and its step. The
alignment needs equal visual and textual dimensions; with a positive weight
on other data it is a data error, and the plain attack's trace then records
its gradient cosine as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import DataError
from .metrics import RankCache, hit_count
from .models import Forward

BUDGET_SLACK = 1e-9


@dataclass
class Perturbation:
    """Paired modality deltas for one item, with their L2 budgets."""

    delta_v: np.ndarray
    delta_t: np.ndarray
    eps_v: float
    eps_t: float

    def __post_init__(self):
        self.delta_v = np.asarray(self.delta_v, dtype=np.float64)
        self.delta_t = np.asarray(self.delta_t, dtype=np.float64)
        if np.linalg.norm(self.delta_v) > self.eps_v + BUDGET_SLACK:
            raise ValueError("visual delta exceeds its budget")
        if np.linalg.norm(self.delta_t) > self.eps_t + BUDGET_SLACK:
            raise ValueError("textual delta exceeds its budget")


@dataclass
class AttackConfig:
    variant: str = "pgd"  # fgsm | pgd
    eps_pct: float = 0.10  # fraction of the item's feature 2-norm
    pgd_steps: int = 10
    with_align: bool = False
    align_weight: float = 1.0
    k: int = 50

    def __post_init__(self):
        if self.variant not in ("fgsm", "pgd"):
            raise DataError(f"unknown attack variant {self.variant!r}")
        if not 0.0 < self.eps_pct <= 1.0:
            raise DataError("eps_pct must lie in (0, 1]")
        if self.pgd_steps < 1:
            raise DataError("pgd_steps must be >= 1")
        if self.align_weight < 0:
            raise DataError("align_weight must be non-negative")


def promoted_user_set(table, i):
    """Default target audience: every user with no training interaction
    with the item (promotion to existing consumers is pointless)."""
    keep = np.ones(table.num_users, dtype=bool)
    keep[table.users[table.items == i]] = False
    return np.nonzero(keep)[0].astype(np.int64)


class Promotion:
    """The promotion objective of one target item: the mean over its
    audience of sigmoid(target score - top-K threshold), differentiable in
    the (1, d) perturbation rows. The audience's clean user rows and
    thresholds are gathered here once per target, so each evaluation only
    encodes the moved item."""

    def __init__(self, forward, i, users, rows, thresholds):
        if len(users) == 0:
            raise DataError("promotion loss needs a nonempty user set")
        self.forward = forward
        self.item = i
        self.rows = ad.constant(rows)  # its own copy, so its transpose is built once
        self.thresholds = ad.constant(np.reshape(thresholds, (-1, 1)))
        self._mean = ad.constant(1.0 / len(users))

    def loss(self, dv, dt):
        h_i = self.forward.item_embedding_batch([self.item], dv, dt)
        margins = ad.sub(ad.matmul(self.rows, ad.transpose(h_i)), self.thresholds)
        return ad.mul(self._mean, ad.sum_all(ad.sigmoid(margins)))


def promotion(cache, i, users, k):
    """Item i's Promotion to ``users`` on the cache's clean model, at each
    user's top-k threshold with the target removed from the pool."""
    users = np.asarray(users, dtype=np.int64)
    return Promotion(Forward(cache.params, cache.enc), i, users,
                     cache.scorer.user_matrix[users],
                     cache.thresholds_excluding(i, k, users))


def budget_rows(features, items, eps_pct):
    """Absolute L2 budget per item: eps_pct times the 2-norm of its feature."""
    return eps_pct * np.linalg.norm(features.values[items], axis=1)


def to_sphere(g, radius):
    """Each row of g moved to its radius along itself; a zero row stays zero."""
    norms = np.sqrt((g * g).sum(axis=1))
    scale = np.divide(radius, norms, out=np.zeros_like(norms), where=norms > 0)
    return g * scale[:, None]


def ascent_gradients(loss, pairs, weight):
    """Gradients of the coordinated objective
        loss + weight * sum over pairs of cos(sum_cols dloss/d delta_v,
                                              sum_cols dloss/d delta_t)
    w.r.t. the (delta_v, delta_t) leaf pairs, flattened in pair order. Returns
    (objective gradients, loss gradients, alignment node or None).

    The loss gradients are taken in create-graph mode so that the alignment
    stays differentiable in the deltas; at weight 0 one plain backward gives
    both. When the loss has one term, as a max phase on one triple does, and
    the nonlinearity is the identity, both gradients are fixed vectors times
    that term's one derivative, so the alignment is invariant in the deltas
    and its gradients vanish (the linear-fusion degeneracy)."""
    leaves = [d for pair in pairs for d in pair]
    if weight == 0:
        grads = ad.grad(loss, leaves)
        return grads, grads, None
    if any(dv.shape[1] != dt.shape[1] for dv, dt in pairs):
        raise DataError("gradient alignment requires equal modality dims")
    first = ad.grad(loss, leaves, create_graph=True)
    align = None
    for gv, gt in zip(first[::2], first[1::2]):
        term = ad.cosine(ad.sum_cols(gv), ad.sum_cols(gt))
        align = term if align is None else ad.add(align, term)
    objective = ad.add(loss, ad.mul(ad.constant(weight), align))
    return ad.grad(objective, leaves), first, align


def np_cosine(a, b):
    """Cosine of two numpy vectors: 0 when either norm is below
    ad.NORM_TOLERANCE, NaN when their shapes differ."""
    if a.shape != b.shape:
        return float("nan")
    na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))
    if na < ad.NORM_TOLERANCE or nb < ad.NORM_TOLERANCE:
        return 0.0
    return float(a.dot(b) / (na * nb))


def _project(delta, eps):
    norm = float(np.linalg.norm(delta))
    if norm > eps:
        return delta * (eps / norm) if eps > 0 else np.zeros_like(delta)
    return delta


def run_attack(params, enc, feats_v, feats_t, i, config, cache=None):
    """Projected gradient ascent on the promotion objective, plus the
    alignment term when ``with_align``; returns (Perturbation, trace). The
    trace holds one (iteration, promotion_loss, n_rec, grad_cosine) tuple
    per step: the loss the step reached, the hit count after it and the
    cosine of the step's visual and textual loss gradients. PGD takes
    ``pgd_steps`` steps of 1.25 * eps / steps and FGSM one step of the whole
    budget, each along the normalised gradient and projected back onto the
    budget ball. A step's traced forward also gives the loss that the
    previous step reached, so only the last step's loss takes a forward of
    its own."""
    cache = cache if cache is not None else RankCache(params, enc)
    users = promoted_user_set(enc.table, i)
    eps_v = float(budget_rows(feats_v, [i], config.eps_pct)[0])
    eps_t = float(budget_rows(feats_t, [i], config.eps_pct)[0])
    objective = promotion(cache, i, users, config.k)
    weight = config.align_weight if config.with_align else 0.0
    scale, steps = (1.0, 1) if config.variant == "fgsm" else (1.25, config.pgd_steps)
    step_v = scale * eps_v / steps
    step_t = scale * eps_t / steps
    delta_v = np.zeros(feats_v.dim)
    delta_t = np.zeros(feats_t.dim)
    trace = []
    last = None  # (n_rec, cosine) of the previous step, whose loss this step's forward gives
    for it in range(1, steps + 1):
        dv, dt = ad.leaf(delta_v[None, :]), ad.leaf(delta_t[None, :])
        loss = objective.loss(dv, dt)
        if last is not None:
            trace.append((it - 1, loss.item(), *last))
        (gv, gt), (gv_p, gt_p), _ = ascent_gradients(loss, [(dv, dt)], weight)
        delta_v = _project(delta_v + to_sphere(gv.numpy(), step_v)[0], eps_v)
        delta_t = _project(delta_t + to_sphere(gt.numpy(), step_t)[0], eps_t)
        last = (hit_count(params, enc, i, config.k, delta=(delta_v, delta_t), cache=cache),
                np_cosine(gv_p.numpy()[0], gt_p.numpy()[0]))
    with ad.no_grad():
        loss = objective.loss(ad.constant(delta_v[None, :]), ad.constant(delta_t[None, :]))
    trace.append((steps, loss.item(), *last))
    return Perturbation(delta_v, delta_t, eps_v, eps_t), trace
