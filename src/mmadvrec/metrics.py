"""Evaluation metrics under leave-one-out: Hit@K, Gain, Recall@K, NDCG@K,
plus unpopular-target selection.

Ranking convention everywhere: higher score wins, exact ties broken by
ascending item id, and a user's training items are excluded from their
candidate pool, matching how recommendation lists are produced.

No user x item array is ever held. Every clean score comes from the
scorer's embedding matrices: the per-``k`` tables and ``recall_ndcg`` (256
users at a time) and the hit test's full-row fallback score blocks of users
as ``user_matrix[block] @ item_matrix.T`` and set each user's training items
to -inf from the table's CSR rows, and a hit test without a moved target row
scores the target's clean column as a two-column product. A product of one
row or one column takes BLAS's matrix-vector path, whose rounding differs
from the full product's, so no clean score comes from one: a lone row is
stacked twice before its product, and every clean score has the bits of
the full U x I product.

Top-K thresholds and hit tests read a per-``k`` table that ``RankCache``
builds on the first query for that ``k``: each user's min(2k+1, I) best
masked clean scores in descending order, with their item ids. A threshold
is one lookup per user. A hit test after a perturbation takes the moved
items as embedding rows and scores the target's row for every user. It
bounds, per user, the k-th best clean score outside the target and the
moved items (the threshold algorithm of Fagin, Lotem and Naor, PODS 2001);
only users whose target score reaches that bound are ranked, and only they
score the other moved rows and read their table entries. Which users have
seen the target or a moved item is read from the interaction table.
"""

from __future__ import annotations

import numpy as np

from .data import DataError, segment_positions
from .models import Scorer

UNDEFINED_GAIN = float("nan")
TOP_BLOCK_ROWS = 256  # users scored at once, so no U x I array is made


class RankCache:
    """Clean ranking of one checkpoint, shared across attack and metric
    calls: the scorer's user and item matrices and, per ``k``, each user's
    top table. Its memory grows as O(U (2k+1) + interactions), not O(U I).

    The per-``k`` tables are built on the first threshold or hit query for
    that ``k`` and kept, with an index of where each item sits in them: a
    threshold finds the users whose top k holds the target, and a bound
    counts each user's excluded entries, without scanning the tables. A
    hit test keeps the bound of its last (k, excluded
    set), the excluded set being the target and the moved ids, and the
    seen users of its last (target, moved ids); so the parameters must never
    change once the cache is built.

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
    row; otherwise its full clean row is scored.
    """

    def __init__(self, params, enc):
        self.params = params
        self.enc = enc
        self.scorer = Scorer(params, enc)
        self._tops = {}
        self._bound = None
        self._moved = None

    def masked_rows(self, users):
        """Clean scores of ``users`` (an id array or a slice) for every item,
        with each user's training items at -inf; the same bits as the rows
        of the full U x I product."""
        t = self.enc.table
        block = self.scorer.user_matrix[users]
        n = block.shape[0]
        if n == 1:  # a one-row product would take the matrix-vector path
            block = np.concatenate((block, block))
        sc = (block @ self.scorer.item_matrix.T)[:n]
        users = np.arange(t.num_users)[users] if isinstance(users, slice) else users
        starts = t.indptr[users]
        lens = t.indptr[users + 1] - starts
        sc[np.repeat(np.arange(n), lens), t.items[segment_positions(starts, lens)]] = -np.inf
        return sc

    def _top(self, k):
        """Per user, the min(2k+1, I) best masked scores in descending order
        and their item ids; and the tables' flat positions item by item:
        item j sits at ``where[ptr[j]:ptr[j + 1]]`` of ``ids.ravel()``."""
        if k < 1:
            raise DataError(f"k={k} must be >= 1")
        top = self._tops.get(k)
        if top is None:
            num_users, n = self.enc.table.num_users, self.enc.table.num_items
            depth = min(2 * k + 1, n)
            scores = np.empty((num_users, depth))
            ids = np.empty((num_users, depth), dtype=np.int64)
            for start in range(0, num_users, TOP_BLOCK_ROWS):
                block = self.masked_rows(slice(start, start + TOP_BLOCK_ROWS))
                best = np.argpartition(block, n - depth, axis=1)[:, n - depth:]
                vals = np.take_along_axis(block, best, axis=1)
                order = np.argsort(vals, axis=1)[:, ::-1]
                scores[start:start + TOP_BLOCK_ROWS] = np.take_along_axis(vals, order, axis=1)
                ids[start:start + TOP_BLOCK_ROWS] = np.take_along_axis(best, order, axis=1)
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(ids.ravel(), minlength=n), out=ptr[1:])
            top = self._tops[k] = scores, ids, ptr, np.argsort(ids.ravel())
        return top

    def thresholds_excluding(self, i, k, users):
        """Score of the k-th ranked candidate of each of ``users``, with the
        target item removed from the pool. Whether the target sits in a
        user's top k is read from the table's ids, not from its score."""
        if self.enc.table.num_items <= k:
            raise DataError(f"k={k} must be smaller than the item catalog")
        scores, _, ptr, where = self._top(k)
        at = where[ptr[i]:ptr[i + 1]]
        inside = np.zeros(scores.shape[0], dtype=bool)
        inside[at[at % scores.shape[1] < k] // scores.shape[1]] = True
        users = np.asarray(users)
        return np.where(inside[users], scores[users, k], scores[users, k - 1])

    def hit_mask(self, i, k, moved=None):
        """Boolean per user: does item i rank within the top k candidates?

        ``moved`` is None or the pair (item ids, replacement embedding rows,
        len(ids) x d) of the items a perturbation changed, as
        ``Scorer.perturbed_rows`` returns it; the target is among them when
        its own row moved. The target's row is scored for every user, the
        other moved rows for candidate users only.
        """
        users = self.scorer.user_matrix
        ids, repl = moved if moved is not None else ((), np.empty((0, users.shape[1])))
        ids = np.asarray(ids, dtype=np.int64)
        if np.shape(repl) != (ids.size, users.shape[1]):
            raise ValueError("moved needs one replacement embedding row per moved item id")
        scores, tids, _, _ = self._top(k)
        own, consumers, seen, excluded_ids = self._moved_for(i, ids)
        excluded, bound = self._bound_for(k, excluded_ids)
        if own is None:  # the clean column, from a two-column product
            target = (users @ self.scorer.item_matrix[[i, i]].T)[:, 0]
        else:
            target = (users @ repl[own:own + 1].T)[:, 0]
        target[consumers] = -np.inf
        hit = np.zeros(users.shape[0], dtype=bool)
        rows = np.nonzero(np.isfinite(target) & (target >= bound))[0]
        if rows.size == 0:
            return hit
        t = target[rows, None]
        others = ids != i  # the target is left out, so it never beats itself
        beaters = 0
        if others.any():
            moved_cols = users[rows] @ repl[others].T
            moved_cols[seen[rows]] = -np.inf
            beaters = _beats(moved_cols, t, ids[others], i).sum(axis=1)
        row_ids = tids[rows]
        clean = (_beats(scores[rows], t, row_ids, i) & ~excluded[row_ids]).sum(axis=1)
        num_items = excluded.size
        if scores.shape[1] < num_items:
            deep = t[:, 0] <= scores[rows, -1]
            if deep.any():
                every = np.arange(num_items)
                clean[deep] = (_beats(self.masked_rows(rows[deep]), t[deep], every, i)
                               & ~excluded).sum(axis=1)
        hit[rows] = beaters + clean <= k - 1
        return hit

    def _bound_for(self, k, excluded_ids):
        """(excluded items as a mask, per-user bound), kept for the last
        (k, excluded set) asked: a clean test and a test that moves only the
        target share one."""
        key = (k, excluded_ids.tobytes())
        if self._bound is None or self._bound[0] != key:
            scores, _, ptr, where = self._top(k)
            excluded = np.zeros(self.enc.table.num_items, dtype=bool)
            excluded[excluded_ids] = True
            starts = ptr[excluded_ids]
            depth = scores.shape[1]
            held = where[segment_positions(starts, ptr[excluded_ids + 1] - starts)] // depth
            at = k - 1 + np.bincount(held, minlength=scores.shape[0])
            bound = np.where(at < depth, scores[np.arange(at.size), np.minimum(at, depth - 1)],
                             -np.inf)
            self._bound = key, (excluded, bound)
        return self._bound[1]

    def _moved_for(self, i, ids):
        """(column of the target among the moved ids or None, the target's
        consumers, U x m mask of which users hold each other moved item, the
        sorted excluded ids), kept for the last (i, ids) asked. Who holds an
        item is read from the table's item-major order."""
        key = (i, ids.tobytes())
        if self._moved is None or self._moved[0] != key:
            t = self.enc.table
            ptr, order = t.item_major()
            consumers = t.users[order[ptr[i]:ptr[i + 1]]]
            others = ids[ids != i]
            starts = ptr[others]
            lens = ptr[others + 1] - starts
            seen = np.zeros((t.num_users, others.size), dtype=bool)
            seen[t.users[order[segment_positions(starts, lens)]],
                 np.repeat(np.arange(others.size), lens)] = True
            own = np.flatnonzero(ids == i)
            self._moved = key, (int(own[0]) if own.size else None, consumers, seen,
                                np.union1d(ids, [i]))
        return self._moved[1]


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
        sc = cache.masked_rows(eligible[part])
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
