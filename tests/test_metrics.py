import math

import numpy as np
import pytest

from mmadvrec import data, metrics, models
from mmadvrec.data import DataError
from mmadvrec.metrics import RankCache, gain_hit, hit_at_k, recall_ndcg, select_targets
from mmadvrec.models import DatasetEncoding

from conftest import table_from_lists
from reference import rank_and_kth


def masked_scores(params, enc):
    """The full clean score matrix, each user's training items at -inf."""
    masked = models.Scorer(params, enc).scores()
    for u, items in enumerate(enc.table.user_items):
        masked[u, items] = -np.inf
    return masked


def small_instance(num_users, num_items, seed):
    cfg = data.SynthConfig(num_users=num_users, num_items=num_items,
                           interactions_per_user=3, unpopular_count=0,
                           feat_dim_v=4, feat_dim_t=4, latent_dim=3)
    table, fv, ft = data.synth_generate(cfg, seed=seed)
    split = data.split_leave_one_out(table, seed=seed + 1)
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(num_users, num_items, 4, 4, kind="concat", phi="identity",
                                id_dim=4, fuse_dim=3, seed=seed + 2)
    # id embeddings on a small integer grid and no content term: every score
    # is an exact integer, so equal scores are frequent and the id tie rule
    # decides ranks
    rng = np.random.default_rng(seed + 3)
    params.user_embeds[:] = rng.integers(-2, 3, size=params.user_embeds.shape)
    params.item_embeds[:] = rng.integers(-2, 3, size=params.item_embeds.shape)
    params.proj_v[:] = 0.0
    params.proj_t[:] = 0.0
    return params, enc


# ---------------------------------------------------------------------------

def test_hit_trivials():
    # engineered scores: item 2 is every user's top-1, nobody has seen it
    table = table_from_lists(6, [[0]] * 4)
    fv = data.FeatureMatrix("v", np.zeros((6, 2)))
    ft = data.FeatureMatrix("t", np.zeros((6, 2)))
    enc = DatasetEncoding(table, fv, ft, "concat")
    params = models.init_params(4, 6, 2, 2, kind="concat", phi="identity",
                                id_dim=2, fuse_dim=2, seed=0)
    for arr in params.arrays().values():
        arr[:] = 0.0
    params.user_embeds[:, 0] = 1.0
    params.item_embeds[2, 0] = 100.0
    params.item_embeds[3, 0] = 1.0
    cache = RankCache(params, enc)
    assert hit_at_k(params, enc, 2, 1, cache=cache) == 100.0
    # item ranked last for all users never hits below k = num_items - 1
    params.item_embeds[2, 0] = -100.0
    cache = RankCache(params, enc)
    assert hit_at_k(params, enc, 2, 4, cache=cache) == 0.0


def test_hit_fraction():
    # 10 users, engineered so exactly 3 rank the target inside top-k
    table = table_from_lists(5, [[0]] * 10)
    fv = data.FeatureMatrix("v", np.zeros((5, 2)))
    ft = data.FeatureMatrix("t", np.zeros((5, 2)))
    split = data.split_leave_one_out(table, seed=0)
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(10, 5, 2, 2, kind="concat", phi="identity",
                                id_dim=2, fuse_dim=2, seed=0)
    params.user_embeds[:] = 0.0
    params.item_embeds[:] = 0.0
    params.proj_v[:] = 0.0
    params.proj_t[:] = 0.0
    params.user_embeds[:3, 0] = 1.0  # three users prefer item 3
    params.item_embeds[3, 0] = 1.0
    params.item_embeds[4, 1] = 1.0
    cache = RankCache(params, enc)
    assert hit_at_k(params, enc, 3, 1, cache=cache) == pytest.approx(30.0)


def test_hit_matches_oracle_exhaustive():
    for seed in range(6):
        params, enc = small_instance(8, 12, seed=10 + seed)
        cache = RankCache(params, enc)
        masked = masked_scores(params, enc)
        for i in range(enc.table.num_items):
            for k in (1, 3, 5):
                rank, _ = rank_and_kth(masked, i, k)
                assert hit_at_k(params, enc, i, k, cache=cache) == pytest.approx(
                    100.0 * np.count_nonzero(rank <= k - 1) / enc.table.num_users, abs=0)


def test_hit_monotone_in_k():
    params, enc = small_instance(8, 12, seed=30)
    cache = RankCache(params, enc)
    for i in range(12):
        hits = [hit_at_k(params, enc, i, k, cache=cache) for k in (1, 3, 5, 8, 11)]
        assert all(a <= b for a, b in zip(hits, hits[1:]))


def test_gain_formula_paper_numbers():
    # published Baby row: 0.667% -> 3.865% reported as 479.38% on unrounded hits
    assert gain_hit(0.667, 3.865) == pytest.approx(479.38, abs=0.1)
    assert gain_hit(5.0, 5.0) == 0.0
    # Sports row formula on the rounded inputs themselves
    assert gain_hit(0.025, 6.547) == pytest.approx((6.547 - 0.025) / 0.025 * 100, abs=1e-9)


def test_gain_sentinel_and_roundtrip():
    assert math.isnan(gain_hit(0.0, 3.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = rng.uniform(0.01, 50)
        g = rng.uniform(-90, 500)
        assert gain_hit(h, h * (1 + g / 100)) == pytest.approx(g, abs=1e-9)


def test_recall_ndcg_trivial_ranks():
    params, enc = small_instance(6, 8, seed=40)
    cache = RankCache(params, enc)
    # force every holdout to rank first: with the identity as user matrix,
    # user u's clean scores are column u of the item matrix
    items = np.full((8, 6), -1.0)
    for u in range(6):
        h = int(enc.table.holdout[u])
        if h >= 0:
            items[h, u] = 1.0
    cache.scorer.user_matrix = np.eye(6)
    cache.scorer.item_matrix = items
    r, n = recall_ndcg(params, enc, k=3, cache=cache)
    assert r == 1.0 and n == 1.0


def test_recall_ndcg_rank_two():
    table = table_from_lists(4, [[0, 1]])
    split = data.split_leave_one_out(table, seed=0)
    fv = data.FeatureMatrix("v", np.zeros((4, 2)))
    ft = data.FeatureMatrix("t", np.zeros((4, 2)))
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(1, 4, 2, 2, kind="concat", phi="identity",
                                id_dim=2, fuse_dim=2, seed=0)
    h = int(split.holdout[0])
    other = [j for j in range(4) if j != h and j not in enc.table.user_set(0)][0]
    params.user_embeds[:] = 0.0
    params.item_embeds[:] = 0.0
    params.proj_v[:] = 0.0
    params.proj_t[:] = 0.0
    params.user_embeds[0, 0] = 1.0
    params.item_embeds[h, 0] = 1.0
    params.item_embeds[other, 0] = 2.0  # beats the holdout -> rank 2
    r, n = recall_ndcg(params, enc, k=10)
    assert r == 1.0
    assert n == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)


def test_recall_ndcg_matches_oracle_exhaustive():
    for seed in range(6):
        params, enc = small_instance(8, 12, seed=50 + seed)
        users = np.nonzero(enc.table.holdout >= 0)[0]
        masked = masked_scores(params, enc)[users]
        for k in (1, 3, 10):
            rank, _ = rank_and_kth(masked, enc.table.holdout[users], k)
            inside = rank <= k - 1
            got = recall_ndcg(params, enc, k=k)
            assert got[0] == pytest.approx(inside.mean(), abs=0)
            assert got[1] == pytest.approx(np.where(inside, 1.0 / np.log2(rank + 2.0), 0.0).mean(),
                                           abs=1e-12)


def test_recall_requires_split():
    table = table_from_lists(4, [[0], [1]])  # nobody eligible
    fv = data.FeatureMatrix("v", np.zeros((4, 2)))
    ft = data.FeatureMatrix("t", np.zeros((4, 2)))
    enc = DatasetEncoding(table, fv, ft, "concat")
    params = models.init_params(2, 4, 2, 2, kind="concat", id_dim=2, fuse_dim=2, seed=0)
    with pytest.raises(DataError):
        recall_ndcg(params, enc)


def test_select_targets(tiny_dataset):
    split = tiny_dataset["split"]
    counts = split.item_counts()
    # the generator engineered items at count 4; the split moves holdouts out,
    # so count from the raw table instead
    raw = tiny_dataset["raw"]
    counts = raw.item_counts()
    qualifying = np.nonzero(counts == 4)[0]
    got = select_targets(raw, len(qualifying), n_unpop=4, mode="exact", seed=3)
    assert np.array_equal(np.sort(got), qualifying)
    sampled = select_targets(raw, 3, n_unpop=4, mode="exact", seed=3)
    assert np.array_equal(sampled, select_targets(raw, 3, n_unpop=4, mode="exact", seed=3))
    assert all(counts[i] == 4 for i in sampled)
    over = select_targets(raw, 10_000, n_unpop=4, mode="exact", seed=3)
    assert np.array_equal(over, qualifying)  # fewer qualifying than requested
    relaxed = select_targets(raw, 10_000, n_unpop=4, mode="at_most", seed=3)
    assert all(1 <= counts[i] <= 4 for i in relaxed)
