"""Training procedures: BPR pretraining, untargeted adversarial training, and
its coordinated variant that aligns cross-modal perturbation gradients.

Each adversarial step runs two phases over one sampled batch. The max phase
is an attack on the batch: with the parameters frozen it takes the
coordinated ascent of ``attacks`` (``ascent_gradients``) on the perturbed
ranking loss, with the batch's positive and negative items as its two
(visual, textual) delta pairs and alpha as the alignment weight, and moves
each delta to its budget sphere along the resulting gradient. The min
phase treats the deltas as constants and takes one optimiser step on
clean loss + lambda * perturbed loss + beta * squared parameter norm.
With alpha = 0 the max phase skips the alignment term entirely, so the
coordinated variant degenerates to plain untargeted adversarial training
batch for batch; with lambda = 0 the min phase reduces to the pretraining
step the same way. A positive alpha needs equal visual and textual
dimensions, as the coordinated attack does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .attacks import ascent_gradients, budget_rows, to_sphere
from .data import DataError, TripleSampler
from .metrics import recall_ndcg
from .models import Forward


class NumericalError(RuntimeError):
    """Training aborted on a non-finite loss or gradient."""


@dataclass
class DefenseConfig:
    mode: str = "uat_mc"  # uat | uat_mc (alpha forced to 0 under uat)
    lambda_: float = 1.0
    alpha: float = 1.0
    beta: float = 1e-4
    eta: float = 0.05
    eps_d_pct: float = 0.10
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 5
    eval_every: int = 1
    eval_k: int = 10
    optimizer: str = "sgd"  # sgd | adam
    reduction: str = "sum"  # sum | mean
    seed: int = 0
    wall_clock: bool = False  # record real seconds in the log

    def __post_init__(self):
        if self.mode not in ("uat", "uat_mc"):
            raise DataError(f"unknown defense mode {self.mode!r}")
        if self.lambda_ < 0 or self.alpha < 0 or self.beta < 0:
            raise DataError("lambda, alpha and beta must be non-negative")
        if self.eta <= 0:
            raise DataError("learning rate must be positive")
        if not 0.0 < self.eps_d_pct <= 1.0:
            raise DataError("eps_d_pct must lie in (0, 1]")
        if self.optimizer not in ("sgd", "adam"):
            raise DataError(f"unknown optimizer {self.optimizer!r}")
        if self.reduction not in ("sum", "mean"):
            raise DataError(f"unknown reduction {self.reduction!r}")

    @property
    def effective_alpha(self):
        return 0.0 if self.mode == "uat" else self.alpha


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    def add(self, epoch, clean_loss, adv_loss, align_mean, val_recall, seconds):
        self.rows.append({"epoch": epoch, "clean_loss": clean_loss,
                          "adv_loss": adv_loss, "align_mean": align_mean,
                          "val_recall10": val_recall, "seconds": seconds})

    @property
    def epochs(self):
        return len(self.rows)


@dataclass
class DeltaBatch:
    """Per-triple feature perturbations for the positive and negative items."""
    dv_pos: np.ndarray
    dt_pos: np.ndarray
    dv_neg: np.ndarray
    dt_neg: np.ndarray


# ---------------------------------------------------------------------------
# losses

def bpr_loss(params, enc, triples, forward=None, reduction="sum", deltas=None):
    """Pairwise ranking loss sum(-ln sigmoid(pos - neg)) over the batch.

    ``deltas`` maps dv_pos, dt_pos, dv_neg and dt_neg to perturbation nodes
    that move the positive and negative items' features; without it the
    loss is clean.
    """
    users, pos, neg = triples
    fw = forward if forward is not None else Forward(params, enc)
    d = deltas or {}
    h_u = fw.user_embedding_batch(users)
    h_p = fw.item_embedding_batch(pos, d.get("dv_pos"), d.get("dt_pos"))
    h_n = fw.item_embedding_batch(neg, d.get("dv_neg"), d.get("dt_neg"))
    margins = ad.sub(ad.sum_rows(ad.mul(h_u, h_p)), ad.sum_rows(ad.mul(h_u, h_n)))
    loss = ad.sum_all(ad.softplus(ad.neg(margins)))
    if reduction == "mean":
        loss = ad.mul(ad.constant(1.0 / len(users)), loss)
    return loss


def _reg_loss(fw):
    total = None
    for name in fw.param_names():
        p = fw.nodes[name]
        term = ad.sum_all(ad.mul(p, p))
        total = term if total is None else ad.add(total, term)
    return total


# ---------------------------------------------------------------------------
# phases

_DELTA_KEYS = ("dv_pos", "dt_pos", "dv_neg", "dt_neg")


def max_phase(params, enc, triples, config, feats_v, feats_t):
    """Generate budget-sphere perturbations for the batch; returns
    (DeltaBatch, alignment value). Parameters stay frozen."""
    _, pos, neg = triples
    blocks = list(zip(_DELTA_KEYS, (feats_v, feats_t) * 2, (pos, pos, neg, neg)))
    nodes = {key: ad.leaf(np.zeros((len(items), feats.dim)))
             for key, feats, items in blocks}
    adv = bpr_loss(params, enc, triples, reduction=config.reduction, deltas=nodes)
    leaves = list(nodes.values())
    grads, _, align = ascent_gradients(adv, [leaves[:2], leaves[2:]],
                                       config.effective_alpha)
    out = {key: to_sphere(g.numpy(), budget_rows(feats, items, config.eps_d_pct))
           for (key, feats, items), g in zip(blocks, grads)}
    return DeltaBatch(**out), 0.0 if align is None else align.item()


def min_phase(params, enc, triples, delta_batch, config, optimizer):
    """One parameter step on clean + lambda*perturbed + beta*||theta||^2.

    Returns (clean loss value, perturbed loss value); the perturbations are
    treated as constants and never mutated.
    """
    fw = Forward(params, enc, trainable=True)
    clean = bpr_loss(params, enc, triples, forward=fw, reduction=config.reduction)
    loss = clean
    adv_value = 0.0
    if config.lambda_ > 0:
        if delta_batch is None:
            raise DataError("lambda > 0 requires perturbations from the max phase")
        deltas = {k: ad.constant(v) for k, v in vars(delta_batch).items()}
        adv = bpr_loss(params, enc, triples, forward=fw, reduction=config.reduction,
                       deltas=deltas)
        loss = ad.add(loss, ad.mul(ad.constant(config.lambda_), adv))
        adv_value = adv.item()
    if config.beta > 0:
        loss = ad.add(loss, ad.mul(ad.constant(config.beta), _reg_loss(fw)))
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalError(f"training loss is {value}")
    grads = ad.grad(loss, fw.param_leaves())
    optimizer.step(params, dict(zip(fw.param_names(), (g.numpy() for g in grads))))
    return clean.item(), adv_value


# ---------------------------------------------------------------------------
# optimisers

def _check_finite(name, g, arr):
    # a step by a non-finite gradient leaves a non-finite parameter under
    # either optimiser, so a finite parameter clears the gradient too
    if np.isfinite(arr).all():
        return
    if not np.isfinite(g).all():
        raise NumericalError(f"non-finite gradient for {name}")
    raise NumericalError(f"parameter {name} diverged")


class SGD:
    def __init__(self, eta):
        self.eta = eta

    def step(self, params, grads):
        arrays = params.arrays()
        for name, g in grads.items():
            arrays[name] -= self.eta * g
            _check_finite(name, g, arrays[name])


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, eta):
        self.eta = eta
        self.state = {}  # name -> (m, v, and two scratch arrays)
        self.t = 0

    def step(self, params, grads):
        """One step in place, with the float operations of the textbook form
        in the same order, so the result is bitwise that form's."""
        self.t += 1
        arrays = params.arrays()
        for name, g in grads.items():
            if name not in self.state:
                self.state[name] = tuple(np.zeros_like(g) for _ in range(4))
            m, v, num, den = self.state[name]
            m *= self.BETA1
            m += np.multiply(g, 1 - self.BETA1, out=num)
            v *= self.BETA2
            v += np.multiply(np.multiply(g, 1 - self.BETA2, out=den), g, out=den)
            np.multiply(np.divide(m, 1 - self.BETA1 ** self.t, out=num), self.eta, out=num)
            np.sqrt(np.divide(v, 1 - self.BETA2 ** self.t, out=den), out=den)
            den += self.EPS
            arrays[name] -= np.divide(num, den, out=num)
            _check_finite(name, g, arrays[name])


def make_optimizer(config):
    return Adam(config.eta) if config.optimizer == "adam" else SGD(config.eta)


# ---------------------------------------------------------------------------
# training loops

def pretrain(params, enc, feats_v, feats_t, config, start_epoch=1):
    """Standard BPR training with weight decay and early stopping on
    validation Recall@k; returns (best checkpoint, log)."""
    return _train(params, enc, feats_v, feats_t, config, adversarial=False,
                  start_epoch=start_epoch)


def uat_mc_train(params, enc, feats_v, feats_t, config, start_epoch=1):
    """Alternating max/min adversarial training from a pretrained model;
    config.mode == 'uat' (or alpha == 0) drops the coordination term."""
    return _train(params, enc, feats_v, feats_t, config, adversarial=True,
                  start_epoch=start_epoch)


def _train(params, enc, feats_v, feats_t, config, adversarial, start_epoch=1):
    params = params.clone()
    if not adversarial:
        config = replace(config, lambda_=0.0, alpha=0.0)
    sampler = TripleSampler(enc.table, seed=config.seed)
    optimizer = make_optimizer(config)
    n_batches = max(1, enc.table.num_interactions // config.batch_size)
    log = TrainLog()
    best = params.clone()
    best_recall = -np.inf
    evals_since_best = 0
    for epoch in range(start_epoch, start_epoch + config.max_epochs):
        t0 = time.perf_counter()
        clean_sum = adv_sum = align_sum = 0.0
        for _ in range(n_batches):
            triples = sampler.sample(config.batch_size)
            delta_batch = None
            align_value = 0.0
            if adversarial:
                delta_batch, align_value = max_phase(params, enc, triples, config,
                                                     feats_v, feats_t)
            clean_value, adv_value = min_phase(params, enc, triples, delta_batch,
                                               config, optimizer)
            clean_sum += clean_value
            adv_sum += adv_value
            align_sum += align_value
        recall = np.nan
        if (epoch - start_epoch) % config.eval_every == 0:
            recall, _ = recall_ndcg(params, enc, k=config.eval_k)
            if recall > best_recall:
                best_recall = recall
                best = params.clone()
                evals_since_best = 0
            else:
                evals_since_best += 1
        seconds = time.perf_counter() - t0 if config.wall_clock else 0.0
        log.add(epoch, clean_sum / n_batches, adv_sum / n_batches,
                align_sum / n_batches, recall, seconds)
        if evals_since_best > config.patience:
            break
    if best_recall == -np.inf:
        best = params.clone()
    return best, log
