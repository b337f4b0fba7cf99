"""Cross-modal gradient-mismatch diagnostics.

For a target item, each user's promotion term is sigmoid(score - top-K
threshold); its gradients with respect to the visual and textual deltas tell
which users drive each modality. A user's directional contribution weights
the cosine against the aggregate gradient by that user's share of total
gradient norm, the top contributors per modality form two user sets, and
their Jaccard overlap quantifies how far the modalities are pulled apart.
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
        n = self.counts.size
        return np.arange(n + 1) * self.bin_width


@dataclass
class SurveyResult:
    reports: list
    histogram: Histogram
    skipped: list = field(default_factory=list)


def per_user_gradients(params, enc, i, users, k=50, cache=None):
    """Per-user gradients of sigmoid(y_ui - y_uK) w.r.t. the two modality
    deltas at zero perturbation. The users' rows and thresholds are the
    attack's per-target ones, each user reading a view of its row."""
    cache = cache if cache is not None else RankCache(params, enc)
    objective = attacks.promotion(cache, i, users, k)
    dv = ad.leaf(np.zeros((1, enc.raw_v.shape[1])))
    dt = ad.leaf(np.zeros((1, enc.raw_t.shape[1])))
    h_i = objective.forward.item_embedding_batch([i], dv, dt)  # shared across users
    out = []
    for row, thr in zip(objective.rows.numpy(), objective.thresholds.numpy()[:, 0]):
        score = ad.dot(ad.Tensor(row[None, :]), h_i)
        g_v, g_t = ad.grad(ad.sigmoid(ad.sub(score, ad.Tensor(thr))), [dv, dt])
        out.append((g_v.numpy()[0], g_t.numpy()[0]))
    return out


def directional_contribution(g_u, aggregate, norm_sum):
    """cos(g_u, G) * ||g_u|| / norm_sum; zero gradient contributes zero."""
    if norm_sum <= 0:
        raise ValueError("all user gradients are degenerate (zero norm sum)")
    return attacks.np_cosine(g_u, aggregate) * math.sqrt(g_u.dot(g_u)) / norm_sum


def user_contributions(params, enc, i, users, k=50, cache=None):
    """UserContribution records for every user in the promotion set."""
    grads = per_user_gradients(params, enc, i, users, k=k, cache=cache)
    agg_v = np.sum([g for g, _ in grads], axis=0)
    agg_t = np.sum([g for _, g in grads], axis=0)
    norm_sum_v = float(sum(np.linalg.norm(g) for g, _ in grads))
    norm_sum_t = float(sum(np.linalg.norm(g) for _, g in grads))
    out = []
    for u, (g_v, g_t) in zip(users, grads):
        out.append(UserContribution(
            int(u), g_v, g_t,
            directional_contribution(g_v, agg_v, norm_sum_v),
            directional_contribution(g_t, agg_t, norm_sum_t)))
    return out


def top_user_sets(contributions, k_users):
    """Top contributors per modality, ties broken by ascending user id."""
    if k_users > len(contributions):
        raise DataError("k_users exceeds the promotion set size")
    by_v = sorted(contributions, key=lambda c: (-c.c_v, c.user))
    by_t = sorted(contributions, key=lambda c: (-c.c_t, c.user))
    users_v = np.array(sorted(c.user for c in by_v[:k_users]), dtype=np.int64)
    users_t = np.array(sorted(c.user for c in by_t[:k_users]), dtype=np.int64)
    return users_v, users_t


def jaccard(a, b):
    sa, sb = set(np.asarray(a).tolist()), set(np.asarray(b).tolist())
    if not sa and not sb:
        raise ValueError("Jaccard of two empty sets is undefined")
    return len(sa & sb) / len(sa | sb)


def default_k_users(n_users):
    return max(1, math.ceil(0.1 * n_users))


def mismatch_survey(params, enc, targets, k_users=None, k=50, bin_width=0.05,
                    cache=None):
    """One MismatchReport per target plus a Jaccard histogram.

    Per-item failures are recorded and skipped rather than aborting the
    survey. ``k_users`` defaults to 10% of each item's promotion set.
    """
    if len(targets) == 0:
        raise DataError("survey needs at least one target")
    cache = cache if cache is not None else RankCache(params, enc)
    reports, skipped = [], []
    for i in targets:
        i = int(i)
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
