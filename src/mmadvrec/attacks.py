"""Evasion-style promotion attacks on a frozen model.

The attacker perturbs one item's modality features inside L2 budgets that are
a fraction of the item's feature norm, maximising the mean sigmoid margin of
the target score over each user's top-K threshold. Thresholds come from the
clean model once per attack and stay fixed: only the target's embedding moves,
and keeping the threshold from chasing the target makes the objective stable.
Single-step (normalised gradient at the budget) and iterative projected
ascent optimisers are provided; both can add a cross-modal gradient-alignment
term to the objective, which requires differentiating through the first-order
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
    target_users: np.ndarray | None = None  # None = all

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
    rows, cols = table.pairs()
    keep = np.ones(table.num_users, dtype=bool)
    keep[rows[cols == i]] = False
    return np.nonzero(keep)[0].astype(np.int64)


def promotion_loss(params, enc, i, users, deltas, k=50, cache=None,
                   include_target=False, forward=None, thresholds=None):
    """Mean sigmoid(target score - top-K threshold) over the user set,
    differentiable in the (1, d) perturbation rows deltas=(delta_v, delta_t)."""
    users = np.asarray(users, dtype=np.int64)
    if users.size == 0:
        raise DataError("promotion loss needs a nonempty user set")
    cache = cache if cache is not None else RankCache(params, enc)
    fw = forward if forward is not None else Forward(params, enc)
    if thresholds is None:
        thresholds = cache.thresholds_excluding(i, k, users=users,
                                                include_target=include_target)
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
    """Dispatch on the configured variant; returns (Perturbation, AttackTrace)."""
    if config.variant == "fgsm":
        return fgsm_promote(params, enc, feats_v, feats_t, i, config, cache=cache)
    return pgd_promote(params, enc, feats_v, feats_t, i, config, cache=cache)


def _attack_setup(params, enc, feats_v, feats_t, i, config, cache):
    cache = cache if cache is not None else RankCache(params, enc)
    users = config.target_users
    users = promoted_user_set(enc.table, i) if users is None else np.asarray(users)
    eps_v = resolve_budget(feats_v, i, config.eps_pct)
    eps_t = resolve_budget(feats_t, i, config.eps_pct)
    flags = []
    if eps_v == 0.0:
        flags.append("zero_budget_v")
    if eps_t == 0.0:
        flags.append("zero_budget_t")
    thresholds = cache.thresholds_excluding(i, config.k, users=users)
    fw = Forward(params, enc)
    return cache, users, eps_v, eps_t, flags, thresholds, fw


def _objective_grads(params, enc, i, users, delta_v, delta_t, config, cache, fw,
                     thresholds):
    """Gradients of the attack objective at (delta_v, delta_t); also returns
    the promotion-gradient cosine recorded in traces."""
    dv, dt = ad.leaf(delta_v[None, :]), ad.leaf(delta_t[None, :])
    if config.with_align:
        promo, (gv_p, gt_p), align = align_loss_for_attack(
            params, enc, i, users, (dv, dt), k=config.k, cache=cache, forward=fw,
            thresholds=thresholds)
        objective = ad.add(promo, ad.mul(ad.constant(config.align_weight), align))
        gv, gt = ad.grad(objective, [dv, dt])
    else:
        promo = promotion_loss(params, enc, i, users, (dv, dt), k=config.k,
                               cache=cache, forward=fw, thresholds=thresholds)
        gv_p, gt_p = gv, gt = ad.grad(promo, [dv, dt])
    return gv.numpy()[0], gt.numpy()[0], _np_cosine(gv_p.numpy()[0], gt_p.numpy()[0])


def _np_cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < ad.NORM_TOLERANCE or nb < ad.NORM_TOLERANCE:
        return 0.0
    return float(a @ b / (na * nb))


def _loss_value(params, enc, i, users, dv_val, dt_val, config, cache, fw, thresholds):
    with ad.no_grad():
        loss = promotion_loss(params, enc, i, users,
                              (ad.constant(dv_val[None, :]), ad.constant(dt_val[None, :])),
                              k=config.k, cache=cache, forward=fw, thresholds=thresholds)
    return loss.item()


def fgsm_promote(params, enc, feats_v, feats_t, i, config, cache=None):
    """Single step to the budget sphere along the normalised gradient."""
    cache, users, eps_v, eps_t, flags, thr, fw = _attack_setup(
        params, enc, feats_v, feats_t, i, config, cache)
    gv, gt, grad_cos = _objective_grads(params, enc, i, users, np.zeros(feats_v.dim),
                                        np.zeros(feats_t.dim), config, cache, fw, thr)
    delta_v, zero_v = scaled_unit(gv, eps_v)
    delta_t, zero_t = scaled_unit(gt, eps_t)
    if zero_v and "zero_budget_v" not in flags:
        flags.append("zero_grad_v")
    if zero_t and "zero_budget_t" not in flags:
        flags.append("zero_grad_t")
    pert = Perturbation(i, delta_v, delta_t, eps_v, eps_t, tuple(flags))
    trace = AttackTrace()
    loss = _loss_value(params, enc, i, users, delta_v, delta_t, config, cache, fw, thr)
    n_rec = hit_count(params, enc, i, config.k, delta=(delta_v, delta_t), cache=cache)
    trace.add(1, loss, n_rec, grad_cos)
    return pert, trace


def pgd_promote(params, enc, feats_v, feats_t, i, config, cache=None):
    """Projected gradient ascent: step 1.25*eps/steps along the normalised
    gradient, projected back onto the budget ball after every step."""
    cache, users, eps_v, eps_t, flags, thr, fw = _attack_setup(
        params, enc, feats_v, feats_t, i, config, cache)
    step_v = 1.25 * eps_v / config.pgd_steps
    step_t = 1.25 * eps_t / config.pgd_steps
    delta_v = np.zeros(feats_v.dim)
    delta_t = np.zeros(feats_t.dim)
    trace = AttackTrace()
    saw_zero_v = saw_zero_t = False
    for it in range(1, config.pgd_steps + 1):
        gv, gt, grad_cos = _objective_grads(params, enc, i, users, delta_v, delta_t,
                                            config, cache, fw, thr)
        move_v, zero_v = scaled_unit(gv, step_v)
        move_t, zero_t = scaled_unit(gt, step_t)
        saw_zero_v |= zero_v
        saw_zero_t |= zero_t
        delta_v = _project(delta_v + move_v, eps_v)
        delta_t = _project(delta_t + move_t, eps_t)
        loss = _loss_value(params, enc, i, users, delta_v, delta_t, config, cache, fw, thr)
        n_rec = hit_count(params, enc, i, config.k, delta=(delta_v, delta_t), cache=cache)
        trace.add(it, loss, n_rec, grad_cos)
    if saw_zero_v and "zero_budget_v" not in flags:
        flags.append("zero_grad_v")
    if saw_zero_t and "zero_budget_t" not in flags:
        flags.append("zero_grad_t")
    pert = Perturbation(i, delta_v, delta_t, eps_v, eps_t, tuple(flags))
    return pert, trace
