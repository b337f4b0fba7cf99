"""Property tests of the cached ranking in ``metrics.RankCache`` against
brute-force recounts under the tie rule: higher score wins, equal scores go
to the lower item id, and a -inf (seen) target is never a hit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmadvrec import attacks, data, models
from mmadvrec.data import DataError, InteractionTable
from mmadvrec.metrics import RankCache
from mmadvrec.models import DatasetEncoding

# a small pool of scores forces exact ties; free floats cover the rest
SCORES = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                   st.floats(-3.0, 3.0, allow_nan=False))


def cache_with(masked):
    """A RankCache whose masked matrix is replaced before any query."""
    num_users, num_items = masked.shape
    table = InteractionTable(num_users, num_items, [[0]] * num_users)
    fv = data.FeatureMatrix("v", np.zeros((num_items, 1)))
    ft = data.FeatureMatrix("t", np.zeros((num_items, 1)))
    enc = DatasetEncoding(table, fv, ft, "concat")
    params = models.init_params(num_users, num_items, 1, 1, kind="concat",
                                id_dim=1, fuse_dim=1, seed=0)
    cache = RankCache(params, enc)
    cache.masked = masked
    return cache


@st.composite
def masked_matrices(draw):
    num_users = draw(st.integers(1, 5))
    num_items = draw(st.integers(2, 9))
    cells = num_users * num_items
    values = np.array(draw(st.lists(SCORES, min_size=cells, max_size=cells)))
    seen = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    values[seen & (np.arange(cells) % 3 == 0)] = -np.inf
    return values.reshape(num_users, num_items)


@st.composite
def hit_cases(draw):
    masked = draw(masked_matrices())
    num_users, num_items = masked.shape
    i = draw(st.integers(0, num_items - 1))
    shape = draw(st.sampled_from(["empty", "target", "many"]))
    if shape == "empty":
        moved = []
    elif shape == "target":
        moved = [i]
    else:
        moved = sorted(draw(st.sets(st.integers(0, num_items - 1), min_size=1)))
    cells = num_users * len(moved)
    new = np.array(draw(st.lists(SCORES, min_size=cells, max_size=cells)))
    k = draw(st.integers(1, num_items + 1))
    return masked, i, k, np.array(moved, dtype=np.int64), \
        new.reshape(len(moved), num_users).T


def brute_hits(masked, i, k, moved, new):
    """Apply the moved columns, sort each row by (score desc, id asc) and
    read off the target's position."""
    sc = masked.copy()
    for c, j in enumerate(moved):
        sc[:, j] = np.where(np.isinf(masked[:, j]), -np.inf, new[:, c])
    ids = np.arange(sc.shape[1])
    out = []
    for row in sc:
        order = np.lexsort((ids, -row))
        position = int(np.nonzero(order == i)[0][0])
        out.append(bool(np.isfinite(row[i]) and position <= k - 1))
    return np.array(out)


def seed_thresholds(masked, i, k, users):
    """The np.delete + partition formula the cache replaced."""
    sc = masked if users is None else masked[users]
    drop = np.delete(sc, i, axis=1)
    return np.partition(drop, drop.shape[1] - k, axis=1)[:, drop.shape[1] - k]


@settings(max_examples=200, deadline=None)
@given(hit_cases())
def test_hit_mask_matches_brute_force_sort(case):
    masked, i, k, moved, new = case
    cache = cache_with(masked)
    got = cache.hit_mask(i, k, moved, new)
    assert np.array_equal(got, brute_hits(masked, i, k, moved, new))


@settings(max_examples=50, deadline=None)
@given(hit_cases(), st.integers(1, 10))
def test_hit_mask_reuses_tables_across_k(case, k2):
    masked, i, k, moved, new = case
    cache = cache_with(masked)
    for kk in (k, k2, k):
        assert np.array_equal(cache.hit_mask(i, kk, moved, new),
                              brute_hits(masked, i, kk, moved, new))


@settings(max_examples=100, deadline=None)
@given(masked_matrices(), st.data())
def test_thresholds_match_seed_formula(masked, draw):
    num_users, num_items = masked.shape
    cache = cache_with(masked)
    i = draw.draw(st.integers(0, num_items - 1))
    ks = draw.draw(st.lists(st.integers(1, num_items - 1), min_size=2, max_size=2))
    subset = draw.draw(st.one_of(st.none(), st.lists(st.integers(0, num_users - 1),
                                                     max_size=num_users, unique=True)))
    users = None if subset is None else np.array(subset, dtype=np.int64)
    for k in ks + ks[:1]:
        got = cache.thresholds_excluding(i, k, users=users)
        assert np.array_equal(got, seed_thresholds(masked, i, k, users))


def test_thresholds_reject_k_outside_catalog():
    cache = cache_with(np.zeros((2, 4)))
    for k in (0, 4, 5):
        with pytest.raises(DataError):
            cache.thresholds_excluding(1, k)


def test_masked_matches_per_user_mask(trained_graph):
    params, enc = trained_graph
    cache = RankCache(params, enc)
    want = models.Scorer(params, enc).scores().copy()
    for u in range(enc.table.num_users):
        want[u, enc.table.user_items[u]] = -np.inf
    assert np.array_equal(cache.masked, want)
    assert cache.scorer._scores is None


def test_promoted_user_set_matches_membership(tiny_dataset):
    split = tiny_dataset["split"]
    for i in range(split.num_items):
        want = np.array([u for u in range(split.num_users) if not split.has(u, i)],
                        dtype=np.int64)
        got = attacks.promoted_user_set(split, i)
        assert got.dtype == np.int64 and np.array_equal(got, want)
