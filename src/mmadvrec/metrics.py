"""Evaluation metrics under leave-one-out: Hit@K, Gain, Recall@K, NDCG@K,
plus unpopular-target selection.

Ranking convention everywhere: higher score wins, exact ties broken by
ascending item id, and a user's training items are excluded from their
candidate pool, matching how recommendation lists are produced.

Top-K thresholds and hit tests read a per-``k`` table that ``RankCache``
builds on the first query for that ``k``: each user's min(2k+1, I) best
masked clean scores in descending order, with their item ids. A threshold
is one lookup per user. A hit test after a perturbation takes the moved
items as embedding rows and scores the target's row for every user. It
bounds, per user, the k-th best clean score outside the target and the
moved items (the threshold algorithm of Fagin, Lotem and Naor, PODS 2001);
only users whose target score reaches that bound are ranked, and only they
score the other moved rows and read their table entries.
"""

from __future__ import annotations

import numpy as np

from .data import DataError
from .models import Scorer

UNDEFINED_GAIN = float("nan")
TOP_BLOCK_ROWS = 256  # row blocks for the tables and the evaluation, so no U x I copy is made


class RankCache:
    """Clean score matrix with seen items masked, shared across attack and
    metric calls on one checkpoint.

    ``masked`` is built at construction. The per-``k`` tables are built on
    the first threshold or hit query for that ``k`` and kept, and a hit
    test keeps the bound of its last (target, k, moved ids), so ``masked``
    must never be mutated once built.

    The bound: a user's table has depth D = min(2k+1, I). Let c of its
    entries be excluded items (the target or a moved item). Then the
    first k+c entries hold at least k items that keep their clean score,
    each scoring at least the entry at position k-1+c. A target scoring
    below that bound is beaten by all k of them, so only users at or above
    it can be hits; when k-1+c >= D the bound is -inf, so the depth leaves
    room for k+1 excluded entries per user. Moved items arrive as embedding
    rows: the target's row is scored for every user, to find the
    candidates, and the other moved rows for the candidates only. A
    candidate's beaters are counted exactly from its table entries and
    those moved scores when its target beats the last entry (no item
    outside the table can then beat it) or when the table holds the whole
    row; otherwise its full row is scanned.
    """

    def __init__(self, params, enc):
        self.params = params
        self.enc = enc
        self.scorer = Scorer(params, enc)
        self.masked = self.scorer.user_matrix @ self.scorer.item_matrix.T
        self.masked[enc.table.users, enc.table.items] = -np.inf
        self._tops = {}
        self._bound = None

    def _top(self, k):
        """Per user, the min(2k+1, I) best masked scores in descending order
        and their item ids."""
        if k < 1:
            raise DataError(f"k={k} must be >= 1")
        top = self._tops.get(k)
        if top is None:
            num_users, n = self.masked.shape
            depth = min(2 * k + 1, n)
            scores = np.empty((num_users, depth))
            ids = np.empty((num_users, depth), dtype=np.int64)
            for start in range(0, num_users, TOP_BLOCK_ROWS):
                block = self.masked[start:start + TOP_BLOCK_ROWS]
                best = np.argpartition(block, n - depth, axis=1)[:, n - depth:]
                vals = np.take_along_axis(block, best, axis=1)
                order = np.argsort(vals, axis=1)[:, ::-1]
                scores[start:start + TOP_BLOCK_ROWS] = np.take_along_axis(vals, order, axis=1)
                ids[start:start + TOP_BLOCK_ROWS] = np.take_along_axis(best, order, axis=1)
            top = self._tops[k] = scores, ids
        return top

    def thresholds_excluding(self, i, k, users):
        """Score of the k-th ranked candidate of each of ``users``, with the
        target item removed from the pool."""
        if self.masked.shape[1] <= k:
            raise DataError(f"k={k} must be smaller than the item catalog")
        scores, _ = self._top(k)
        users = np.asarray(users)
        at = scores[users, k - 1]
        return np.where(self.masked[users, i] < at, at, scores[users, k])

    def hit_mask(self, i, k, moved=None):
        """Boolean per user: does item i rank within the top k candidates?

        ``moved`` is None or the pair (item ids, replacement embedding rows,
        len(ids) x d) of the items a perturbation changed, as
        ``Scorer.perturbed_rows`` returns it; the target is among them when
        its own row moved. The target's row is scored for every user, the
        other moved rows for candidate users only.
        """
        sc, users = self.masked, self.scorer.user_matrix
        ids, repl = moved if moved is not None else ((), np.empty((0, users.shape[1])))
        ids = np.asarray(ids, dtype=np.int64)
        if np.shape(repl) != (ids.size, users.shape[1]):
            raise ValueError("moved needs one replacement embedding row per moved item id")
        scores, tids = self._top(k)
        excluded, bound, own = self._bound_for(i, k, ids)
        target = sc[:, i]
        if own is not None:
            target = np.where(np.isinf(target), -np.inf, (users @ repl[own:own + 1].T)[:, 0])
        hit = np.zeros(sc.shape[0], dtype=bool)
        rows = np.nonzero(np.isfinite(target) & (target >= bound))[0]
        if rows.size == 0:
            return hit
        t = target[rows, None]
        others = ids != i  # the target is left out, so it never beats itself
        beaters = 0
        if others.any():
            moved_cols = users[rows] @ repl[others].T
            moved_cols[np.isinf(sc[rows[:, None], ids[others]])] = -np.inf
            beaters = _beats(moved_cols, t, ids[others], i).sum(axis=1)
        row_ids = tids[rows]
        clean = (_beats(scores[rows], t, row_ids, i) & ~excluded[row_ids]).sum(axis=1)
        if scores.shape[1] < sc.shape[1]:
            deep = t[:, 0] <= scores[rows, -1]
            if deep.any():
                every = np.arange(sc.shape[1])
                clean[deep] = (_beats(sc[rows[deep]], t[deep], every, i)
                               & ~excluded).sum(axis=1)
        hit[rows] = beaters + clean <= k - 1
        return hit

    def _bound_for(self, i, k, ids):
        """(excluded items, per-user bound, column of the target among the
        moved ones or None), kept for the last (i, k, ids) asked."""
        key = (i, k, ids.tobytes())
        if self._bound is None or self._bound[0] != key:
            scores, tids = self._top(k)
            excluded = np.zeros(self.masked.shape[1], dtype=bool)
            excluded[ids] = True
            excluded[i] = True
            at = k - 1 + excluded[tids].sum(axis=1)
            depth = scores.shape[1]
            bound = np.where(at < depth, scores[np.arange(at.size), np.minimum(at, depth - 1)],
                             -np.inf)
            own = np.flatnonzero(ids == i)
            self._bound = key, (excluded, bound, int(own[0]) if own.size else None)
        return self._bound[1]


def _beats(score, target, ids, i):
    """Which entries outrank a target score of item i: a higher score, or an
    equal one on a lower item id (arrays broadcast row against column)."""
    return (score > target) | ((score == target) & (ids < i))


def hit_count(params, enc, i, k, delta=None, cache=None):
    """Number of users whose top-k list contains item i (perturbed when
    delta=(delta_v, delta_t) is given, which moves the embedding rows
    ``Scorer.perturbed_rows`` returns; no user x item block is scored)."""
    cache = cache if cache is not None else RankCache(params, enc)
    moved = None
    if delta is not None:
        dv, dt = (np.asarray(d, dtype=np.float64) for d in delta)
        moved = cache.scorer.perturbed_rows(i, dv, dt)
    return int(cache.hit_mask(i, k, moved).sum())


def hit_at_k(params, enc, i, k, delta=None, cache=None):
    """Hit rate as a percentage of all users."""
    cache = cache if cache is not None else RankCache(params, enc)
    n = hit_count(params, enc, i, k, delta=delta, cache=cache)
    return 100.0 * n / enc.table.num_users


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
    hold = table.holdout[eligible]
    every = np.arange(table.num_items)
    rank = np.empty(eligible.size, dtype=np.int64)  # zero-based count of better items
    for start in range(0, eligible.size, TOP_BLOCK_ROWS):
        part = slice(start, start + TOP_BLOCK_ROWS)
        sc = cache.masked[eligible[part]]
        held = hold[part, None]
        target = np.take_along_axis(sc, held, axis=1)
        rank[part] = _beats(sc, target, every, held).sum(axis=1)
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
