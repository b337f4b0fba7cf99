"""Evaluation metrics under leave-one-out: Hit@K, Gain, Recall@K, NDCG@K,
plus unpopular-target selection.

Ranking convention everywhere: higher score wins, exact ties broken by
ascending item id, and a user's training items are excluded from their
candidate pool, matching how recommendation lists are produced.

Top-K thresholds and hit tests read a per-``k`` table that ``RankCache``
builds on the first query for that ``k``: each user's k+1 best masked clean
scores in descending order. A threshold is then one lookup per user, and a
hit test after a perturbation counts only the moved columns; a user's whole
row is scanned only for exact ties and for ranks deeper than the table.
"""

from __future__ import annotations

import numpy as np

from .data import DataError
from .models import Scorer

UNDEFINED_GAIN = float("nan")
TOP_BLOCK_ROWS = 256  # partitioned per block, so no U x I copy is made


class RankCache:
    """Clean score matrix with seen items masked, shared across attack and
    metric calls on one checkpoint.

    ``masked`` is built at construction. Each user's k+1 best masked scores
    are built on the first threshold or hit query for that ``k`` and kept,
    so ``masked`` must not be mutated after the first such query.
    """

    def __init__(self, params, enc):
        self.params = params
        self.enc = enc
        self.scorer = Scorer(params, enc)
        self.masked = self.scorer.user_matrix @ self.scorer.item_matrix.T
        self.masked[enc.table.users, enc.table.items] = -np.inf
        self._tops = {}

    def _top(self, k):
        """Per user, the k+1 best masked scores in descending order."""
        top = self._tops.get(k)
        if top is None:
            n = self.masked.shape[1]
            top = np.empty((self.masked.shape[0], k + 1))
            for start in range(0, top.shape[0], TOP_BLOCK_ROWS):
                block = self.masked[start:start + TOP_BLOCK_ROWS]
                best = np.partition(block, n - k - 1, axis=1)[:, n - k - 1:]
                top[start:start + TOP_BLOCK_ROWS] = np.sort(best, axis=1)[:, ::-1]
            self._tops[k] = top
        return top

    def _kth_without_own(self, top, rows, r, i):
        """Per row, the r-th best (0-based) clean score once one copy of the
        item's own clean score is removed; needs r + 1 < top.shape[1]."""
        at = top[rows, r]
        return np.where(self.masked[rows, i] < at, at, top[rows, r + 1])

    def thresholds_excluding(self, i, k, users=None):
        """Per-user score of the k-th ranked candidate, with the target item
        removed from the pool."""
        if self.masked.shape[1] <= k:
            raise DataError(f"k={k} must be smaller than the item catalog")
        if k < 1:
            raise DataError(f"k={k} must be >= 1")
        top = self._top(k)
        rows = np.arange(top.shape[0]) if users is None else np.asarray(users)
        return self._kth_without_own(top, rows, k - 1, i)

    def hit_mask(self, i, k, moved=None, moved_scores=None):
        """Boolean per user: does item i rank within the top k candidates?

        ``moved`` lists the item ids whose score columns a perturbation
        changed and ``moved_scores`` holds their new columns (U x len(moved));
        the target's column is among them when its own score moved.
        """
        sc = self.masked
        moved = np.asarray([] if moved is None else moved, dtype=np.int64)
        old = sc[:, moved]
        new = np.empty_like(old) if moved_scores is None else moved_scores
        new = np.where(np.isinf(old), -np.inf, new)
        own = moved == i
        target = new[:, own][:, 0] if own.any() else sc[:, i]
        lower = moved[~own] < i
        # the target is a hit iff at most r clean columns j != i beat it
        r = (k - 1 + _beaters(old[:, ~own], target, lower)
             - _beaters(new[:, ~own], target, lower))
        hit = np.zeros(sc.shape[0], dtype=bool)
        live = np.isfinite(target) & (r >= 0)
        if 1 <= k < sc.shape[1]:
            rows = np.nonzero(live)[0]
            # within the table, compare with the r-th best other clean score;
            # a row deeper than the table is a hit if it already passes at k-1
            depth = np.minimum(r[rows], k - 1)
            bound = self._kth_without_own(self._top(k), rows, depth, i)
            t = target[rows]
            hit[rows] = t > bound
            unsure = (t == bound) | ((t < bound) & (depth < r[rows]))
            scan = rows[unsure]
        else:
            scan = np.nonzero(live)[0]
        if scan.size:
            hit[scan] = self._clean_beaters(scan, i, target[scan]) <= r[scan]
        return hit

    def _clean_beaters(self, rows, i, target):
        """Per row, how many clean columns j != i beat the target score."""
        sub = self.masked[rows]
        lower = np.arange(sub.shape[1]) < i
        return _beaters(sub, target, lower) - (sub[:, i] > target)


def _beaters(cols, target, lower):
    """Per row, how many columns outrank the row's target score: a higher
    score, or an equal one on an item id below the target's, which
    ``lower`` marks per column (or per row and column)."""
    t = target[:, None]
    return (cols > t).sum(axis=1) + ((cols == t) & lower).sum(axis=1)


def hit_count(params, enc, i, k, delta=None, cache=None):
    """Number of users whose top-k list contains item i (perturbed when
    delta=(delta_v, delta_t) is given)."""
    cache = cache if cache is not None else RankCache(params, enc)
    moved, moved_scores = _moved_columns(cache, i, delta)
    return int(cache.hit_mask(i, k, moved, moved_scores).sum())


def hit_at_k(params, enc, i, k, delta=None, cache=None):
    """Hit rate as a percentage of all users."""
    cache = cache if cache is not None else RankCache(params, enc)
    n = hit_count(params, enc, i, k, delta=delta, cache=cache)
    return 100.0 * n / enc.table.num_users


def _moved_columns(cache, i, delta):
    """(item ids, new score columns) that perturbing item i moves."""
    if delta is None:
        return None, None
    dv, dt = (np.asarray(d, dtype=np.float64) for d in delta)
    rows, repl = cache.scorer.perturbed_rows(i, dv, dt)
    return rows, cache.scorer.user_matrix @ repl.T


def gain_hit(hit_before, hit_after):
    """Relative hit-rate improvement in percent; undefined (NaN) when the
    baseline is zero, so such items drop out of averages."""
    if hit_before == 0:
        return UNDEFINED_GAIN
    return (hit_after - hit_before) / hit_before * 100.0


def recall_ndcg(params, enc, k=10, cache=None):
    """Mean Recall@k and NDCG@k over users with a held-out item.

    The held-out item is ranked among all non-training items; a hit inside
    the top k contributes 1 to recall and 1/log2(rank+1) to NDCG.
    """
    cache = cache if cache is not None else RankCache(params, enc)
    table = enc.table
    eligible = np.nonzero(table.holdout >= 0)[0]
    if eligible.size == 0:
        raise DataError("no user has a held-out item; run the split first")
    sc = cache.masked[eligible]
    hold = table.holdout[eligible]
    target = sc[np.arange(eligible.size), hold]
    lower = np.arange(table.num_items)[None, :] < hold[:, None]
    rank = _beaters(sc, target, lower)  # zero-based count of better items
    inside = rank <= k - 1
    recall = inside.mean()
    ndcg = np.where(inside, 1.0 / np.log2(rank + 2.0), 0.0).mean()
    return float(recall), float(ndcg)


def select_targets(table, count, n_unpop=5, mode="exact", seed=0):
    """Sample target items among the unpopular ones.

    mode "exact" picks items whose interaction count equals n_unpop;
    "at_most" admits any count in [1, n_unpop]. If fewer items qualify than
    requested, all of them are returned.
    """
    if mode not in ("exact", "at_most"):
        raise DataError(f"unknown popularity threshold mode {mode!r}")
    counts = table.item_counts()
    if mode == "exact":
        qualifying = np.nonzero(counts == n_unpop)[0]
    else:
        qualifying = np.nonzero((counts >= 1) & (counts <= n_unpop))[0]
    if qualifying.size == 0:
        raise DataError("no unpopular items qualify")
    rng = np.random.default_rng(seed)
    if qualifying.size <= count:
        return qualifying.copy()
    return np.sort(rng.choice(qualifying, size=count, replace=False))
