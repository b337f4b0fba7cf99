"""Evaluation metrics under leave-one-out: Hit@K, Gain, Recall@K, NDCG@K,
plus unpopular-target selection.

Ranking convention everywhere: higher score wins, exact ties broken by
ascending item id, and a user's training items are excluded from their
candidate pool, matching how recommendation lists are produced.

No user x item array is ever held. The per-``k`` tables, ``recall_ndcg`` and
the hit test's full-row fallback score blocks of users (``masked_rows``), and
a hit test without a moved target row scores the target's clean column as a
two-column product. A product of one row or one column takes BLAS's
matrix-vector path, whose rounding differs from the full product's, so no
clean score comes from one: every clean score has the bits of the full
U x I product.

Top-K thresholds and hit tests read per-``k`` tables of each user's
min(2k+1, I) best masked clean scores (``RankCache``). A hit test reads its
target's record (``Target``), which bounds per user the k-th best clean
score outside the target and the moved items (the threshold algorithm of
Fagin, Lotem and Naor, PODS 2001): only users whose target score reaches
that bound are ranked, and only they score the other moved rows. An attack
step that moves the target's row alone counts its hits from its promotion
margins instead (``attacks``), unless a margin may tie.
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
    counts each user's excluded entries, without scanning the tables.
    ``target`` keeps the last hit-test record it built for each ``k``. The
    tables and records hold clean scores, and the scorer's forward views the
    embedding tables, so the parameters must never change once the cache is
    built.

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
        self._targets = {}

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
        rows, lens = segment_positions(t.indptr, users)
        sc[np.repeat(np.arange(n), lens), t.items[rows]] = -np.inf
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

    def target(self, i, k):
        """The hit-test record of item i at ``k``, built from one delta
        column; the cache keeps the last one asked for each k."""
        last = self._targets.get(k)
        if last is None or last.item != i:
            last = self._targets[k] = Target(self, i, k, self.enc.delta_column(i))
        return last

    def hit_mask(self, target, rows=None):
        """Boolean per user: does the record's item rank within its top k?
        ``rows`` is None for the clean test, or one replacement embedding
        row per support id, as ``Scorer.perturbed_rows`` returns them."""
        users = self.scorer.user_matrix
        i, k = target.item, target.k
        if rows is None:
            own, (excluded, bound) = None, target.clean
        elif np.shape(rows) != (target.support.size, users.shape[1]):
            raise ValueError("rows needs one replacement embedding row per support id")
        else:
            own, (excluded, bound) = target.own, target.moved
        scores, tids, _, _ = self._top(k)
        head = self.scorer.item_matrix[[i, i]] if own is None else rows[own:own + 1]
        col = (users @ head.T)[:, 0]  # a clean column comes from a two-column product
        col[target.consumers] = -np.inf
        hit = np.zeros(users.shape[0], dtype=bool)
        cands = np.nonzero(np.isfinite(col) & (col >= bound))[0]
        if cands.size == 0:
            return hit
        t = col[cands, None]
        beaters = 0
        if rows is not None and target.seen.shape[1]:
            others = target.support != i  # the target never beats itself
            moved_cols = users[cands] @ rows[others].T
            moved_cols[target.seen[cands]] = -np.inf
            beaters = _beats(moved_cols, t, target.support[others], i).sum(axis=1)
        row_ids = tids[cands]
        clean = (_beats(scores[cands], t, row_ids, i) & ~excluded[row_ids]).sum(axis=1)
        num_items = excluded.size
        if scores.shape[1] < num_items:
            deep = t[:, 0] <= scores[cands, -1]
            if deep.any():
                every = np.arange(num_items)
                clean[deep] = (_beats(self.masked_rows(cands[deep]), t[deep], every, i)
                               & ~excluded).sum(axis=1)
        hit[cands] = beaters + clean <= k - 1
        return hit


class Target:
    """Everything a hit test of item i at ``k`` reads, built from i's delta
    column, whose nonzero entries (``support``, with their ``weights``) are
    the items a perturbation of i moves: ``alone`` (only i's row moves, by
    its self coefficient), ``own`` (i's index in the support, or None), i's
    ``consumers``, the U x m mask ``seen`` of who holds each other support
    item, and the (excluded items as a mask, per-user bound) pairs of the
    clean test (``clean``, i excluded) and the moved one (``moved``, the
    support and i). A graph target's build costs about ten hit tests."""

    def __init__(self, cache, i, k, column):
        scores, _, ptr, where = cache._top(k)
        t = cache.enc.table
        self.item, self.k = i, k
        self.support = np.nonzero(column)[0]
        self.weights = column[self.support]
        self.own = int(np.searchsorted(self.support, i)) if i in self.support else None
        self.alone = bool(self.support.size == 1 and column[i] == cache.enc.self_coef[i])
        self.consumers = t.users[t.item_positions([i])[0]]
        others = self.support[self.support != i]
        positions, lens = t.item_positions(others)
        self.seen = np.zeros((t.num_users, others.size), dtype=bool)
        self.seen[t.users[positions], np.repeat(np.arange(others.size), lens)] = True

        def bound(excluded_ids):
            excluded = np.zeros(t.num_items, dtype=bool)
            excluded[excluded_ids] = True
            depth = scores.shape[1]
            held = where[segment_positions(ptr, excluded_ids)[0]] // depth
            at = k - 1 + np.bincount(held, minlength=scores.shape[0])
            kth = scores[np.arange(at.size), np.minimum(at, depth - 1)]
            return excluded, np.where(at < depth, kth, -np.inf)

        self.clean = bound(np.array([i]))
        self.moved = self.clean if others.size == 0 else bound(np.union1d(self.support, [i]))


def _beats(score, target, ids, i):
    """Which entries outrank a target score of item i: a higher score, or an
    equal one on a lower item id (arrays broadcast row against column)."""
    return (score > target) | ((score == target) & (ids < i))


def hit_count(params, enc, i, k, delta=None, cache=None):
    """Number of users whose top-k list contains item i (perturbed when
    delta=(delta_v, delta_t) is given, which moves the rows ``perturbed_rows``
    returns; no user x item block is scored). It reads the cache's record of
    (i, k), so the hit tests of one target build it once."""
    cache = cache if cache is not None else RankCache(params, enc)
    target = cache.target(i, k)
    rows = None
    if delta is not None:
        dv, dt = (np.asarray(d, dtype=np.float64) for d in delta)
        rows = cache.scorer.perturbed_rows(target, dv, dt)[1]
    return int(cache.hit_mask(target, rows).sum())


def hit_at_k(params, enc, i, k, delta=None, cache=None):
    """Hit rate as a percentage of all users."""
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
