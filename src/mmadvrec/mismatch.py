"""Cross-modal gradient-mismatch diagnostics.

For a target item, each user's promotion term is sigmoid(score - top-K
threshold); its gradients with respect to the visual and textual deltas tell
which users drive each modality. A user's directional contribution weights
the cosine against the aggregate gradient by that user's share of total
gradient norm, the top contributors per modality form two user sets, and
their Jaccard overlap quantifies how far the modalities are pulled apart.

Once per target, as arrays: the encoded row h_i, the audience's margins and
sigmoid slopes s_u, the contributions and the top sets. Once per user: one
backward from (s_u u) . h_i, as the benchmark still counts one per user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attacks
from . import autodiff as ad
from .data import DataError
from .metrics import RankCache


@dataclass
class UserContribution:
    user: int
    g_v: np.ndarray
    g_t: np.ndarray
    c_v: float
    c_t: float


@dataclass
class MismatchReport:
    item: int
    users_v: np.ndarray
    users_t: np.ndarray
    jaccard: float
    contributions: list


@dataclass
class Histogram:
    bin_width: float
    counts: np.ndarray
    mean: float

    @property
    def edges(self):
        return np.arange(self.counts.size + 1) * self.bin_width


@dataclass
class SurveyResult:
    reports: list
    histogram: Histogram
    skipped: list = field(default_factory=list)


def per_user_gradients(params, enc, i, users, k=50, cache=None):
    """Per-user (g_v, g_t) gradients of sigmoid(y_ui - y_uK) w.r.t. the modality
    deltas at zero perturbation, on the attack's per-target ``Promotion``."""
    cache = cache if cache is not None else RankCache(params, enc)
    objective = attacks.promotion(cache, i, users, k)
    dv, dt = (ad.leaf(np.zeros((1, raw.shape[1]))) for raw in (enc.raw_v, enc.raw_t))
    h_i = objective.forward.item_embedding_batch([i], dv, dt)  # shared across users
    rows = objective.rows.numpy()
    # each row summed as ad.dot sums it: rows @ h_i.T rounds differently
    margins = np.sum(rows * h_i.numpy(), axis=1) - objective.thresholds.numpy()[:, 0]
    out = ad.sigmoid(ad.Tensor(margins)).numpy()  # a constant: no tape
    # s_u u is bitwise the cotangent that the sigmoid head passes to h_i
    grads = (ad.grad(ad.dot(ad.Tensor(scaled[None, :]), h_i), [dv, dt])
             for scaled in (out * (1 - out))[:, None] * rows)
    return [(g_v.numpy()[0], g_t.numpy()[0]) for g_v, g_t in grads]


def _norms(grads):
    """Row 2-norms, one BLAS dot a row, as np.linalg.norm and np_cosine take them."""
    return np.sqrt([g.dot(g) for g in grads])


def directional_contribution(grads, aggregate, norms):
    """cos(g_u, G) ||g_u|| / sum_v ||g_v|| per row g_u of (U, d) grads, given
    their (U,) row norms, whose sum is added in user order; 0 if g_u = 0."""
    norm_sum = sum(norms.tolist())
    if norm_sum <= 0:
        raise ValueError("all user gradients are degenerate (zero norm sum)")
    agg_norm = math.sqrt(aggregate.dot(aggregate))
    cos = np.divide([g.dot(aggregate) for g in grads], norms * agg_norm, out=np.zeros(len(grads)),
                    where=(norms >= ad.NORM_TOLERANCE) & (agg_norm >= ad.NORM_TOLERANCE))
    return cos * norms / norm_sum


def user_contributions(params, enc, i, users, k=50, cache=None):
    """UserContribution records for every user in the promotion set."""
    grads = per_user_gradients(params, enc, i, users, k=k, cache=cache)
    g_v, g_t = np.array([g for g, _ in grads]), np.array([g for _, g in grads])
    c_v, c_t = (directional_contribution(g, np.sum(g, axis=0), _norms(g)) for g in (g_v, g_t))
    return [UserContribution(*rec) for rec in
            zip(np.asarray(users).tolist(), g_v, g_t, c_v.tolist(), c_t.tolist())]


def top_user_sets(contributions, k_users):
    """Top contributors per modality, ties broken by ascending user id."""
    if k_users > len(contributions):
        raise DataError("k_users exceeds the promotion set size")
    users = np.array([c.user for c in contributions], dtype=np.int64)
    return tuple(np.sort(users[np.lexsort((users, -np.array(scores)))[:k_users]])
                 for scores in ([c.c_v for c in contributions], [c.c_t for c in contributions]))


def jaccard(a, b):
    sa, sb = set(np.asarray(a).tolist()), set(np.asarray(b).tolist())
    if not sa and not sb:
        raise ValueError("Jaccard of two empty sets is undefined")
    return len(sa & sb) / len(sa | sb)


def default_k_users(n_users):
    return max(1, math.ceil(0.1 * n_users))


def mismatch_survey(params, enc, targets, k_users=None, k=50, bin_width=0.05,
                    cache=None):
    """One MismatchReport per target plus a Jaccard histogram. A target that
    fails is recorded in ``skipped`` rather than aborting the survey.
    ``k_users`` defaults to 10% of each item's promotion set."""
    if len(targets) == 0:
        raise DataError("survey needs at least one target")
    cache = cache if cache is not None else RankCache(params, enc)
    reports, skipped = [], []
    for i in map(int, targets):
        try:
            users = attacks.promoted_user_set(enc.table, i)
            contribs = user_contributions(params, enc, i, users, k=k, cache=cache)
            ku = k_users if k_users is not None else default_k_users(users.size)
            users_v, users_t = top_user_sets(contribs, ku)
            reports.append(MismatchReport(i, users_v, users_t,
                                          jaccard(users_v, users_t), contribs))
        except (DataError, ValueError) as exc:
            skipped.append((i, str(exc)))
    values = np.array([r.jaccard for r in reports])
    n_bins = int(math.ceil(1.0 / bin_width))
    idx = np.minimum((values / bin_width).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins) if values.size else np.zeros(n_bins, int)
    hist = Histogram(bin_width, counts, float(values.mean()) if values.size else float("nan"))
    return SurveyResult(reports, hist, skipped)
