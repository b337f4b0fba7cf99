"""Property tests of the cached ranking in ``metrics.RankCache`` against
brute-force recounts under the tie rule: higher score wins, equal scores go
to the lower item id, and a -inf (seen) target is never a hit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmadvrec import attacks, autodiff as ad, data, metrics, models
from mmadvrec.data import DataError
from mmadvrec.metrics import RankCache
from mmadvrec.models import DatasetEncoding

from reference import rank_and_kth

# a small pool of scores forces exact ties; free floats cover the rest
TIES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
SCORES = st.one_of(TIES, st.floats(-3.0, 3.0, allow_nan=False))


def cache_with(masked, users=None, items=None, holdout=None):
    """A RankCache over the clean scores ``masked``, whose -inf cells are the
    users' training items: they become the cache's interaction table, with
    ``holdout`` as its held-out items. Its user and item matrices are
    replaced before any query, by default with the U x U identity and
    ``masked.T`` (0 at the seen cells), so a moved item's replacement row is
    its score column itself: the product is exact, and every drawn score and
    tie reaches the hit test bit for bit. ``users`` and ``items`` replace
    them when ``masked`` is their product."""
    num_users, num_items = masked.shape
    table = data.InteractionTable(num_users, num_items, *np.nonzero(np.isinf(masked)),
                                  holdout=holdout)
    fv = data.FeatureMatrix("v", np.zeros((num_items, 1)))
    ft = data.FeatureMatrix("t", np.zeros((num_items, 1)))
    enc = DatasetEncoding(table, fv, ft, "concat")
    params = models.init_params(num_users, num_items, 1, 1, kind="concat",
                                id_dim=1, fuse_dim=1, seed=0)
    cache = RankCache(params, enc)
    if users is None:
        users, items = np.eye(num_users), np.where(np.isinf(masked), 0.0, masked).T
    cache.scorer.user_matrix, cache.scorer.item_matrix = users, items
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
    return masked, i, k, np.array(moved, dtype=np.int64), new.reshape(len(moved), num_users)


@st.composite
def deep_hit_cases(draw):
    """Catalogs of 10-40 items with k = 1-4, so each table (depth 2k+1) is
    truncated, plus k >= I. Scores come from the tie pool, so a table's last
    entry often ties the target; the moved set may cover most of one row's
    table, which drives that row's bound to -inf and its full-row scan."""
    num_users = draw(st.integers(1, 6))
    num_items = draw(st.integers(10, 40))
    cells = num_users * num_items
    values = np.array(draw(st.lists(TIES, min_size=cells, max_size=cells)))
    seen = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    values[seen & (np.arange(cells) % 4 == 0)] = -np.inf
    masked = values.reshape(num_users, num_items)
    k = draw(st.one_of(st.integers(1, 4), st.integers(num_items, num_items + 2)))
    i = draw(st.integers(0, num_items - 1))
    row = masked[draw(st.integers(0, num_users - 1))]
    ranked = np.lexsort((np.arange(num_items), -row))
    fill = draw(st.integers(0, min(2 * k + 1, num_items)))
    moved = set(ranked[:fill].tolist()) | draw(st.sets(st.integers(0, num_items - 1),
                                                       max_size=4))
    if draw(st.booleans()):
        moved.add(i)
    moved = np.array(sorted(moved), dtype=np.int64)
    cells = num_users * moved.size
    new = np.array(draw(st.lists(TIES, min_size=cells, max_size=cells)))
    return masked, i, k, moved, new.reshape(moved.size, num_users)


def target_over(cache, i, k, moved):
    """Item i's hit-test record at ``k`` over a delta column whose nonzero
    entries are the ``moved`` ids (sorted), with or without i itself."""
    column = np.zeros(cache.enc.table.num_items)
    column[moved] = 1.0
    return metrics.Target(cache, i, k, column)


def reference_hits(masked, i, k, moved, new):
    """Hits of item i by ``reference.rank_and_kth`` after the moved score
    columns replace theirs (``new[c]`` is item ``moved[c]``'s; a seen cell
    stays -inf)."""
    sc = masked.copy()
    sc[:, moved] = np.where(np.isinf(masked[:, moved]), -np.inf, new.T)
    return rank_and_kth(sc, i, k)[0] <= k - 1


@settings(max_examples=200, deadline=None)
@given(hit_cases())
def test_hit_mask_matches_brute_force_sort(case):
    masked, i, k, moved, new = case
    cache = cache_with(masked)
    got = cache.hit_mask(target_over(cache, i, k, moved), new)
    assert np.array_equal(got, reference_hits(masked, i, k, moved, new))


@settings(max_examples=300, deadline=None)
@given(deep_hit_cases())
def test_hit_mask_matches_brute_force_on_truncated_tables(case):
    masked, i, k, moved, new = case
    cache = cache_with(masked)
    got = cache.hit_mask(target_over(cache, i, k, moved), new)
    assert np.array_equal(got, reference_hits(masked, i, k, moved, new))


@settings(max_examples=50, deadline=None)
@given(hit_cases(), st.integers(1, 10))
def test_hit_mask_reuses_tables_across_k(case, k2):
    masked, i, k, moved, new = case
    cache = cache_with(masked)
    for kk in (k, k2, k):
        assert np.array_equal(cache.hit_mask(target_over(cache, i, kk, moved), new),
                              reference_hits(masked, i, kk, moved, new))


@settings(max_examples=100, deadline=None)
@given(deep_hit_cases(), st.data())
def test_hit_mask_bound_follows_target_and_moved_set(case, draw):
    """``RankCache.target`` keeps its last record, keyed by (target, k):
    alternating (i, k), (j, k) and (i, k + 1) on one cache must give each
    call its own record, whose clean test, test of the target's own row and
    bounds match the reference; a record built over another moved set
    leaves the kept one as it is, and the clean test shares its bound with
    a test that moves only the target."""
    masked, i, k, moved, new = case
    j = draw.draw(st.integers(0, masked.shape[1] - 1))
    own = np.array([[0.5] * masked.shape[0]])
    calls = [(i, k), (j, k), (i, k + 1)]
    cache = cache_with(masked)
    for target, kk in calls + calls[::-1]:
        record = cache.target(target, kk)
        assert (record.item, record.k) == (target, kk)
        assert record.moved is record.clean
        assert np.array_equal(cache.hit_mask(record),
                              reference_hits(masked, target, kk, moved[:0], new[:0]))
        assert np.array_equal(cache.hit_mask(record, own),
                              reference_hits(masked, target, kk, np.array([target]), own))
        assert np.array_equal(cache.hit_mask(target_over(cache, target, kk, moved), new),
                              reference_hits(masked, target, kk, moved, new))
        assert cache.target(target, kk) is record


def test_hit_mask_takes_moved_ids_with_their_scores():
    masked = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 1.0]])
    cache = cache_with(masked)
    moved, new = np.array([1]), np.array([[3.0, -1.0]])
    target = target_over(cache, 0, 1, moved)
    assert np.array_equal(cache.hit_mask(target, new),
                          reference_hits(masked, 0, 1, moved, new))
    # no rows is the clean test
    assert np.array_equal(cache.hit_mask(target),
                          reference_hits(masked, 0, 1, moved[:0], new[:0]))
    # ids for rows, no row per id, and the U x m score columns the rows
    # replaced: each is a rows block of the wrong shape
    for bad in (moved, new[:0], new.T):
        with pytest.raises(ValueError):
            cache.hit_mask(target, bad)


def test_hit_mask_allocates_less_than_one_moved_block():
    """A hit test scores the moved rows other than the target's for its
    candidate users only (those whose target reaches their bound, here
    about a tenth), so it makes no U x m temporary."""
    num_users, num_items, m, i, d = 2000, 3000, 200, 17, 64
    rng = np.random.default_rng(5)
    users = rng.normal(size=(num_users, d))
    items = rng.normal(size=(num_items, d)) / np.sqrt(d)
    masked = users @ items.T
    masked[rng.random(masked.shape) < 0.01] = -np.inf
    cache = cache_with(masked, users, items)
    others = rng.choice(np.delete(np.arange(num_items), i), size=m - 1, replace=False)
    moved = np.sort(np.append(others, i))
    rows = items[moved] + 0.5 * rng.normal(size=(m, d)) / np.sqrt(d)
    own = rows[moved == i]
    rows[moved == i] = 1.6 * own / np.linalg.norm(own)
    target = target_over(cache, i, 50, moved)
    first = cache.hit_mask(target, rows)
    tracemalloc.start()
    try:
        again = cache.hit_mask(target, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.any() and np.array_equal(first, again)
    assert peak < num_users * m * 8


@st.composite
def embedded_hit_cases(draw):
    """Small-integer user and item embeddings, so every float64 product is
    exact and equal scores are frequent. Like a graph perturbation, the moved
    set is the target with some other items, or other items alone."""
    num_users = draw(st.integers(1, 6))
    num_items = draw(st.integers(3, 30))
    d = draw(st.integers(1, 3))
    small = st.integers(-2, 2)

    def block(n):
        return np.array(draw(st.lists(small, min_size=n * d, max_size=n * d)),
                        dtype=np.float64).reshape(n, d)

    users, items = block(num_users), block(num_items)
    masked = users @ items.T
    cells = num_users * num_items
    masked[np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
           .reshape(masked.shape)] = -np.inf
    i = draw(st.integers(0, num_items - 1))
    moved = draw(st.sets(st.integers(0, num_items - 1), max_size=num_items)) - {i}
    if draw(st.booleans()):
        moved.add(i)
    moved = np.array(sorted(moved), dtype=np.int64)
    k = draw(st.one_of(st.integers(1, 4), st.integers(1, num_items + 1)))
    return users, items, masked, i, k, moved, block(moved.size)


@settings(max_examples=300, deadline=None)
@given(embedded_hit_cases())
def test_hit_mask_matches_brute_force_on_exact_embeddings(case):
    users, items, masked, i, k, moved, rows = case
    cache = cache_with(masked, users, items)
    got = cache.hit_mask(target_over(cache, i, k, moved), rows)
    assert np.array_equal(got, reference_hits(masked, i, k, moved, rows @ users.T))


def promotion_scene(seed, exact):
    """A concat model on ``test_metrics.small_instance``'s synthetic data,
    with one (delta_v, delta_t) pair. With ``exact`` its id rows,
    projections, features and deltas sit on small integer grids, with the
    identity and id-only users, so every score is an exact integer and
    margins of exactly 0 (ties with the threshold, settled by the id rule)
    are frequent; otherwise tanh and Gaussian draws give real-valued
    scores."""
    cfg = data.SynthConfig(num_users=8, num_items=12, interactions_per_user=3,
                           unpopular_count=0, feat_dim_v=4, feat_dim_t=4, latent_dim=3)
    table, fv, ft = data.synth_generate(cfg, seed=seed)
    split = data.split_leave_one_out(table, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)

    def draw(shape):
        return rng.integers(-2, 3, size=shape).astype(float) if exact else rng.normal(size=shape)

    if exact:
        fv, ft = data.FeatureMatrix("v", draw((12, 4))), data.FeatureMatrix("t", draw((12, 4)))
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(8, 12, 4, 4, kind="concat", phi="identity" if exact else "tanh",
                                user_content="id_only" if exact else "shared",
                                id_dim=4, fuse_dim=3, seed=seed + 3)
    for arr in params.arrays().values():
        arr[:] = draw(arr.shape)
    return params, enc, (draw(4), draw(4))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.integers(0, 2**16), st.integers(0, 11), st.integers(1, 11))
def test_promotion_margins_count_the_hits_of_a_moved_target_row(exact, seed, i, k):
    """On the concat model a perturbation moves the target's row alone, so
    the promotion forward's margins count its hits: the users with a
    positive margin, or ``hit_count`` when a margin is within rounding of 0.
    The count equals ``RankCache.hit_mask`` after ``perturbed_rows`` and
    the sorted reference."""
    params, enc, delta = promotion_scene(seed, exact)
    users = attacks.promoted_user_set(enc.table, i)
    assume(users.size > 0)
    cache = RankCache(params, enc)
    objective = attacks.promotion(cache, i, users, k)
    with ad.no_grad():
        objective.loss(*(ad.constant(d[None, :]) for d in delta))
    hits = objective.hits()
    if hits is None:
        hits = metrics.hit_count(params, enc, i, k, delta=delta, cache=cache)
    target = cache.target(i, k)
    moved = cache.scorer.perturbed_rows(target, *delta)
    masked = models.Scorer(params, enc).scores()
    for u, items in enumerate(enc.table.user_items):
        masked[u, items] = -np.inf
    want = reference_hits(masked, i, k, moved[0], (cache.scorer.user_matrix @ moved[1].T).T)
    assert hits == cache.hit_mask(target, moved[1]).sum() == want.sum()


def test_graph_hit_count_allocates_less_than_one_moved_block():
    """On the graph model a perturbation moves every item its target's
    consumers hold; ``hit_count`` scores those rows for candidate users
    only, so it never builds the U x m block of their scores."""
    cfg = data.SynthConfig(num_users=1000, num_items=400, latent_dim=6, feat_dim_v=8,
                           feat_dim_t=8, interactions_per_user=60, unpopular_count=10,
                           n_unpop=5)
    table, fv, ft = data.synth_generate(cfg, seed=3)
    enc = DatasetEncoding(table, fv, ft, "graph")
    params = models.init_params(table.num_users, table.num_items, fv.dim, ft.dim,
                                kind="graph", id_dim=16, fuse_dim=8, seed=4)
    cache = RankCache(params, enc)
    i = int(np.argmax(table.item_counts() == cfg.n_unpop))
    m = np.count_nonzero(enc.delta_column(i))
    assert m >= 100
    rng = np.random.default_rng(5)
    delta = rng.normal(size=fv.dim), rng.normal(size=ft.dim)
    first = metrics.hit_count(params, enc, i, 20, delta=delta, cache=cache)
    tracemalloc.start()
    try:
        again = metrics.hit_count(params, enc, i, 20, delta=delta, cache=cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == again and first > 0  # so some candidate scores the moved rows
    assert peak < table.num_users * m * 8


@settings(max_examples=100, deadline=None)
@given(masked_matrices(), st.data())
def test_thresholds_match_seed_formula(masked, draw):
    """Each user's k-th best score with the target left out, as the sorted
    reference reads it."""
    num_users, num_items = masked.shape
    cache = cache_with(masked)
    i = draw.draw(st.integers(0, num_items - 1))
    ks = draw.draw(st.lists(st.integers(1, num_items - 1), min_size=2, max_size=2))
    subset = draw.draw(st.one_of(st.none(), st.lists(st.integers(0, num_users - 1),
                                                     max_size=num_users, unique=True)))
    # no subset drawn: every user, in order
    users = np.arange(num_users) if subset is None else np.array(subset, dtype=np.int64)
    for k in ks + ks[:1]:
        got = cache.thresholds_excluding(i, k, users)
        assert np.array_equal(got, rank_and_kth(masked[users], i, k)[1])


@settings(max_examples=100, deadline=None)
@given(masked_matrices(), st.data())
def test_recall_ndcg_match_the_reference_under_ties(masked, draw):
    """Recall@K exactly and NDCG@K within 1e-12 of the sorted reference, on
    drawn scores whose exact ties the id rule decides. Every row holds a
    finite cell; user 0 always has a held-out item, the others may not."""
    holdout = np.array([draw.draw(st.sampled_from(np.flatnonzero(np.isfinite(row)).tolist()))
                        if u == 0 or draw.draw(st.booleans()) else -1
                        for u, row in enumerate(masked)])
    k = draw.draw(st.integers(1, masked.shape[1]))
    cache = cache_with(masked, holdout=holdout)
    users = np.flatnonzero(holdout >= 0)
    rank, _ = rank_and_kth(masked[users], holdout[users], k)
    inside = rank <= k - 1
    recall, ndcg = metrics.recall_ndcg(cache.params, cache.enc, k=k, cache=cache)
    assert recall == inside.mean()
    assert ndcg == pytest.approx(np.where(inside, 1.0 / np.log2(rank + 2.0), 0.0).mean(),
                                 abs=1e-12)


def test_thresholds_reject_k_outside_catalog():
    cache = cache_with(np.zeros((2, 4)))
    for k in (0, 4, 5):
        with pytest.raises(DataError):
            cache.thresholds_excluding(1, k, [0, 1])


def test_masked_matches_per_user_mask(trained_graph):
    """``masked_rows`` gives the rows of the full U x I product bit for bit,
    each user's items at -inf, for a block, a gather and a lone row (whose
    one-row product would take the matrix-vector path)."""
    params, enc = trained_graph
    cache = RankCache(params, enc)
    want = models.Scorer(params, enc).scores().copy()
    for u in range(enc.table.num_users):
        want[u, enc.table.user_items[u]] = -np.inf
    num_users = want.shape[0]
    assert cache.masked_rows(slice(0, num_users)).tobytes() == want.tobytes()
    gather = np.arange(num_users)[::-3]
    assert cache.masked_rows(gather).tobytes() == want[gather].tobytes()
    for u in range(num_users):
        assert cache.masked_rows(np.array([u])).tobytes() == want[u].tobytes()


def test_promoted_user_set_matches_membership(tiny_dataset):
    split = tiny_dataset["split"]
    for i in range(split.num_items):
        want = np.array([u for u in range(split.num_users) if not split.has(u, i)],
                        dtype=np.int64)
        got = attacks.promoted_user_set(split, i)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_rank_cache_never_allocates_a_user_by_item_array():
    """Building a cache, Recall@K, thresholds and hit tests (clean, and
    after a graph perturbation that moves many rows) score blocks of users,
    so none of them allocates the U x I float64 array of every score."""
    cfg = data.SynthConfig(num_users=4000, num_items=300, latent_dim=6, feat_dim_v=8,
                           feat_dim_t=8, interactions_per_user=30, unpopular_count=10,
                           n_unpop=5)
    table, fv, ft = data.synth_generate(cfg, seed=3)
    split = data.split_leave_one_out(table, seed=4)
    enc = DatasetEncoding(split, fv, ft, "graph")
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind="graph", id_dim=8, fuse_dim=4, seed=5)
    i = int(np.argmax(split.item_counts() == cfg.n_unpop))
    rng = np.random.default_rng(6)  # a large move, so most users are candidates
    delta = 100 * rng.normal(size=fv.dim), 100 * rng.normal(size=ft.dim)
    tracemalloc.start()
    try:
        cache = RankCache(params, enc)
        metrics.recall_ndcg(params, enc, k=10, cache=cache)
        cache.thresholds_excluding(i, 10, np.arange(split.num_users))
        before = metrics.hit_count(params, enc, i, 10, cache=cache)
        after = metrics.hit_count(params, enc, i, 10, delta=delta, cache=cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert before >= 0 and after > 0
    assert np.count_nonzero(enc.delta_column(i)) > 50
    assert peak < split.num_users * split.num_items * 8
