"""Evasion-style promotion attacks on a frozen model.

The attacker perturbs one item's modality features inside L2 budgets that are
a fraction of the item's feature norm, maximising the mean sigmoid margin of
the target score over each user's top-K threshold. Thresholds come from the
clean model once per attack and stay fixed: only the target's embedding moves,
and keeping the threshold from chasing the target makes the objective stable.
One projected ascent serves both attacks: each step moves the deltas along
their normalised gradients and projects them back onto the budget balls.
PGD takes several short steps; FGSM is its one-step case, a single step of
the whole budget. Either can add a cross-modal gradient-alignment term to
the objective, which requires differentiating through the first-order
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import DataError
from .metrics import RankCache, hit_count
from .models import Forward

BUDGET_SLACK = 1e-9


@dataclass
class Perturbation:
    """Paired modality deltas for one item, with their L2 budgets."""

    item: int
    delta_v: np.ndarray
    delta_t: np.ndarray
    eps_v: float
    eps_t: float
    flags: tuple = ()

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


@dataclass
class TraceRecord:
    iteration: int
    promotion_loss: float
    n_rec: int
    grad_cosine: float


@dataclass
class AttackTrace:
    records: list = field(default_factory=list)

    def add(self, iteration, loss, n_rec, cosine):
        self.records.append(TraceRecord(iteration, float(loss), int(n_rec), float(cosine)))


def resolve_budget(features, i, eps_pct):
    """Absolute L2 budget: eps_pct times the 2-norm of the item's feature."""
    norm = float(np.linalg.norm(features.row(i)))
    return eps_pct * norm


def promoted_user_set(table, i):
    """Default target audience: every user with no training interaction
    with the item (promotion to existing consumers is pointless)."""
    keep = np.ones(table.num_users, dtype=bool)
    keep[table.users[table.items == i]] = False
    return np.nonzero(keep)[0].astype(np.int64)


def promotion_loss(params, enc, i, users, deltas, k=50, cache=None, forward=None,
                   thresholds=None):
    """Mean sigmoid(target score - top-K threshold) over the user set,
    differentiable in the (1, d) perturbation rows deltas=(delta_v, delta_t)."""
    users = np.asarray(users, dtype=np.int64)
    if users.size == 0:
        raise DataError("promotion loss needs a nonempty user set")
    cache = cache if cache is not None else RankCache(params, enc)
    fw = forward if forward is not None else Forward(params, enc)
    if thresholds is None:
        thresholds = cache.thresholds_excluding(i, k, users=users)
    dv, dt = deltas
    h_i = fw.item_embedding_batch([i], dv, dt)
    scores = ad.matmul(ad.constant(cache.scorer.user_matrix[users]), ad.transpose(h_i))
    margins = ad.sub(scores, ad.constant(thresholds[:, None]))
    return ad.mul(ad.constant(1.0 / users.size), ad.sum_all(ad.sigmoid(margins)))


def align_loss_for_attack(params, enc, i, users, deltas, k=50, cache=None,
                          forward=None, thresholds=None):
    """The promotion loss, its create-graph gradients (gv, gt) and their
    cosine, the alignment term, which stays differentiable in the deltas."""
    dv, dt = deltas
    if not (dv.requires_grad and dt.requires_grad):
        raise ad.GraphError("alignment needs perturbation tensors recorded on the graph")
    loss = promotion_loss(params, enc, i, users, deltas, k=k, cache=cache,
                          forward=forward, thresholds=thresholds)
    gv, gt = ad.grad(loss, [dv, dt], create_graph=True)
    return loss, (gv, gt), ad.cosine(gv, gt)


def scaled_unit(g, eps):
    """eps * g / ||g||, or zeros when the gradient vanishes."""
    g = np.asarray(g, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    if norm == 0.0 or eps == 0.0:
        return np.zeros_like(g), True
    return eps * g / norm, False


def _project(delta, eps):
    norm = float(np.linalg.norm(delta))
    if norm > eps:
        return delta * (eps / norm) if eps > 0 else np.zeros_like(delta)
    return delta


def run_attack(params, enc, feats_v, feats_t, i, config, cache=None):
    """Projected gradient ascent on the promotion objective; returns
    (Perturbation, AttackTrace). PGD takes ``pgd_steps`` steps of
    1.25 * eps / steps and FGSM one step of the whole budget, each along the
    normalised gradient and projected back onto the budget ball."""
    cache = cache if cache is not None else RankCache(params, enc)
    users = promoted_user_set(enc.table, i)
    eps_v = resolve_budget(feats_v, i, config.eps_pct)
    eps_t = resolve_budget(feats_t, i, config.eps_pct)
    thresholds = cache.thresholds_excluding(i, config.k, users=users)
    fw = Forward(params, enc)

    def promotion(dv, dt):
        return promotion_loss(params, enc, i, users, (dv, dt), k=config.k, cache=cache,
                              forward=fw, thresholds=thresholds)

    scale, steps = (1.0, 1) if config.variant == "fgsm" else (1.25, config.pgd_steps)
    step_v = scale * eps_v / steps
    step_t = scale * eps_t / steps
    delta_v = np.zeros(feats_v.dim)
    delta_t = np.zeros(feats_t.dim)
    trace = AttackTrace()
    saw_zero_v = saw_zero_t = False
    for it in range(1, steps + 1):
        dv, dt = ad.leaf(delta_v[None, :]), ad.leaf(delta_t[None, :])
        if config.with_align:
            promo, (gv_p, gt_p), align = align_loss_for_attack(
                params, enc, i, users, (dv, dt), k=config.k, cache=cache, forward=fw,
                thresholds=thresholds)
            objective = ad.add(promo, ad.mul(ad.constant(config.align_weight), align))
            gv, gt = ad.grad(objective, [dv, dt])
        else:
            gv_p, gt_p = gv, gt = ad.grad(promotion(dv, dt), [dv, dt])
        move_v, zero_v = scaled_unit(gv.numpy()[0], step_v)
        move_t, zero_t = scaled_unit(gt.numpy()[0], step_t)
        saw_zero_v |= zero_v
        saw_zero_t |= zero_t
        delta_v = _project(delta_v + move_v, eps_v)
        delta_t = _project(delta_t + move_t, eps_t)
        with ad.no_grad():
            loss = promotion(ad.constant(delta_v[None, :]), ad.constant(delta_t[None, :]))
        n_rec = hit_count(params, enc, i, config.k, delta=(delta_v, delta_t), cache=cache)
        trace.add(it, loss.item(), n_rec, _np_cosine(gv_p.numpy()[0], gt_p.numpy()[0]))
    flags = [name for name, on in (
        ("zero_budget_v", eps_v == 0.0), ("zero_budget_t", eps_t == 0.0),
        ("zero_grad_v", saw_zero_v and eps_v != 0.0),
        ("zero_grad_t", saw_zero_t and eps_t != 0.0)) if on]
    return Perturbation(i, delta_v, delta_t, eps_v, eps_t, tuple(flags)), trace


def _np_cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < ad.NORM_TOLERANCE or nb < ad.NORM_TOLERANCE:
        return 0.0
    return float(a @ b / (na * nb))
