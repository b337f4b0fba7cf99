import numpy as np
import pytest

from mmadvrec import attacks, autodiff as ad, metrics, mismatch, models
from mmadvrec.data import DataError
from mmadvrec.metrics import RankCache
from mmadvrec.mismatch import (UserContribution, default_k_users, directional_contribution,
                               jaccard, mismatch_survey, per_user_gradients, top_user_sets,
                               user_contributions)

import oracles
import reference
from oracles import rel_err
from reference import fd_gradient


@pytest.fixture(scope="module")
def scene(trained_concat, tiny_dataset):
    params, enc = trained_concat
    cache = RankCache(params, enc)
    i = int(metrics.select_targets(tiny_dataset["raw"], 1, n_unpop=4, seed=4)[0])
    users = attacks.promoted_user_set(enc.table, i)
    return params, enc, cache, i, users


def test_sum_of_per_user_grads_matches_aggregate(scene):
    params, enc, cache, i, users = scene
    grads = per_user_gradients(params, enc, i, users, k=10, cache=cache)
    agg_v = np.sum([g for g, _ in grads], axis=0)
    agg_t = np.sum([g for _, g in grads], axis=0)
    dv = ad.leaf(np.zeros((1, enc.raw_v.shape[1])))
    dt = ad.leaf(np.zeros((1, enc.raw_t.shape[1])))
    loss = attacks.promotion(cache, i, users, 10).loss(dv, dt)
    gv, gt = ad.grad(loss, [dv, dt])
    # promotion loss is the mean, the aggregate is the sum
    assert rel_err(gv.numpy()[0] * users.size, agg_v) < 1e-10
    assert rel_err(gt.numpy()[0] * users.size, agg_t) < 1e-10


def test_single_user_gradient_is_aggregate(scene):
    params, enc, cache, i, users = scene
    one = users[:1]
    grads = per_user_gradients(params, enc, i, one, k=10, cache=cache)
    dv = ad.leaf(np.zeros((1, enc.raw_v.shape[1])))
    dt = ad.leaf(np.zeros((1, enc.raw_t.shape[1])))
    loss = attacks.promotion(cache, i, one, 10).loss(dv, dt)
    gv, gt = ad.grad(loss, [dv, dt])
    assert rel_err(grads[0][0], gv.numpy()[0]) < 1e-12
    assert rel_err(grads[0][1], gt.numpy()[0]) < 1e-12
    with pytest.raises(DataError):
        per_user_gradients(params, enc, i, users[:0], k=10, cache=cache)


def test_per_user_gradient_fd_two_user_toy(scene):
    params, enc, cache, i, users = scene
    pair = users[:2]
    thr = cache.thresholds_excluding(i, 10, users=pair)
    grads = per_user_gradients(params, enc, i, pair, k=10, cache=cache)
    for idx, u in enumerate(pair):
        def f(vs, u=u, t=thr[idx]):
            fw = models.Forward(params, enc)
            h = fw.item_embedding_batch([i], ad.constant(vs[0][None, :]),
                                        ad.constant(vs[1][None, :]))
            margin = float(cache.scorer.user_matrix[u] @ h.numpy()[0] - t)
            return float(1.0 / (1.0 + np.exp(-margin)))

        fgv, fgt = fd_gradient(f, [np.zeros(enc.raw_v.shape[1]),
                                   np.zeros(enc.raw_t.shape[1])], step=1e-5)
        assert rel_err(grads[idx][0], fgv) < 1e-6
        assert rel_err(grads[idx][1], fgt) < 1e-6


def test_directional_contribution_trivials():
    g = np.array([1.0, 2.0, -1.0])
    n = 5
    c = directional_contribution(np.tile(g, (n, 1)), n * g, np.full(n, np.linalg.norm(g)))
    assert c.shape == (n,) and c == pytest.approx(np.full(n, 1.0 / n), abs=1e-12)
    c = directional_contribution(np.array([-g, g]), g, np.full(2, np.linalg.norm(g)))
    assert c == pytest.approx([-0.5, 0.5], abs=1e-12)
    c = directional_contribution(np.array([np.zeros(3), g]), g, np.array([0.0, 1.0]))
    assert c[0] == 0.0 and c[1] != 0.0
    assert directional_contribution(np.array([g]), np.zeros(3), np.ones(1))[0] == 0.0
    with pytest.raises(ValueError, match="zero norm sum"):
        directional_contribution(np.zeros((2, 3)), np.zeros(3), np.zeros(2))


def test_directional_contribution_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        grads = rng.normal(size=(5, 4))
        agg = grads.sum(axis=0)
        got = directional_contribution(grads, agg, np.linalg.norm(grads, axis=1))
        assert np.max(np.abs(got - oracles.contributions(grads))) < 1e-12


def test_contribution_sum_bound_and_collinear_equality():
    # positively collinear gradients: sum of contributions is exactly 1
    base = np.array([2.0, 1.0])
    contribs = np.array([base * s for s in (0.5, 1.0, 2.0)])
    agg = np.sum(contribs, axis=0)
    total = directional_contribution(contribs, agg, np.linalg.norm(contribs, axis=1)).sum()
    assert total == pytest.approx(1.0, abs=1e-12)
    # non-collinear: strictly below 1
    rng = np.random.default_rng(8)
    for _ in range(20):
        grads = rng.normal(size=(4, 3))
        agg = grads.sum(axis=0)
        total = directional_contribution(grads, agg, np.linalg.norm(grads, axis=1)).sum()
        assert total <= 1.0 + 1e-12


def test_top_user_sets_tie_break_and_bounds():
    contribs = [UserContribution(7, None, None, 0.5, 0.1),
                UserContribution(3, None, None, 0.5, 0.3),
                UserContribution(5, None, None, 0.2, 0.3)]
    users_v, users_t = top_user_sets(contribs, 2)
    assert np.array_equal(users_v, [3, 7])  # tie on 0.5 -> lower id first
    assert np.array_equal(users_t, [3, 5])
    with pytest.raises(Exception):
        top_user_sets(contribs, 4)


def test_top_user_sets_permutation_invariant():
    rng = np.random.default_rng(5)
    contribs = [UserContribution(u, None, None, float(rng.normal()),
                                 float(rng.normal())) for u in range(10)]
    a = top_user_sets(contribs, 4)
    shuffled = list(contribs)
    rng.shuffle(shuffled)
    b = top_user_sets(shuffled, 4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_full_overlap_when_k_equals_pool(scene):
    params, enc, cache, i, users = scene
    sub = users[:12]
    contribs = user_contributions(params, enc, i, sub, k=10, cache=cache)
    users_v, users_t = top_user_sets(contribs, len(sub))
    assert jaccard(users_v, users_t) == 1.0


def test_jaccard_values_and_errors():
    assert jaccard([1, 2, 3], [1, 2, 3]) == 1.0
    assert jaccard([1, 2], [3, 4]) == 0.0
    assert jaccard([1, 2, 3], [2, 3, 4]) == 0.5
    assert jaccard([1, 2, 3], [2, 3, 4]) == jaccard([2, 3, 4], [1, 2, 3])
    with pytest.raises(ValueError):
        jaccard([], [])


def test_interleaved_contributions_disjoint_sets():
    contribs = []
    for u in range(8):
        # even users dominate modality v, odd users modality t
        c_v = 1.0 - u if u % 2 == 0 else -10.0
        c_t = 1.0 - u if u % 2 == 1 else -10.0
        contribs.append(UserContribution(u, None, None, float(c_v), float(c_t)))
    users_v, users_t = top_user_sets(contribs, 4)
    assert jaccard(users_v, users_t) == 0.0


def test_survey_single_user_promotion_set(trained_concat):
    params, enc = trained_concat
    item = 0
    users = attacks.promoted_user_set(enc.table, item)[:1]
    contribs = user_contributions(params, enc, item, users, k=10)
    users_v, users_t = top_user_sets(contribs, 1)
    assert jaccard(users_v, users_t) == 1.0


def test_survey_histogram_sums(scene, tiny_dataset):
    params, enc, cache, _, _ = scene
    targets = metrics.select_targets(tiny_dataset["raw"], 6, n_unpop=4, seed=5)
    result = mismatch_survey(params, enc, targets, k=10, cache=cache)
    assert result.histogram.counts.sum() == len(result.reports)
    assert len(result.reports) + len(result.skipped) == len(targets)
    assert 0.0 <= result.histogram.mean <= 1.0
    edges = result.histogram.edges
    assert edges[0] == 0.0 and edges[-1] >= 1.0 - 1e-12


def test_survey_deterministic(scene, tiny_dataset):
    params, enc, cache, _, _ = scene
    targets = metrics.select_targets(tiny_dataset["raw"], 4, n_unpop=4, seed=5)
    a = mismatch_survey(params, enc, targets, k=10, cache=cache)
    b = mismatch_survey(params, enc, targets, k=10, cache=cache)
    assert [r.jaccard for r in a.reports] == [r.jaccard for r in b.reports]


def test_survey_skips_a_target_with_zero_user_gradients(trained_concat, tiny_dataset):
    """A target that beats every user's threshold by far more than 37 has
    sigmoid(margin) == 1.0 exactly, so every per-user gradient is zero and
    its contributions are undefined: the survey lists it as skipped, with
    the error's message, and leaves it out of the histogram."""
    params, enc = trained_concat
    params = params.clone()
    good, saturated = (int(i) for i in
                       metrics.select_targets(tiny_dataset["raw"], 2, n_unpop=4, seed=5))
    params.user_embeds[:, 0] = 1.0
    params.item_embeds[saturated, 0] = 1e3
    result = mismatch_survey(params, enc, [good, saturated], k=10)
    assert [r.item for r in result.reports] == [good]
    assert result.skipped == [(saturated, "all user gradients are degenerate (zero norm sum)")]
    assert result.histogram.counts.sum() == 1
    assert result.histogram.mean == result.reports[0].jaccard
    with pytest.raises(DataError, match="at least one target"):
        mismatch_survey(params, enc, [], k=10)


def _survey_bits(report):
    cs = report.contributions
    got = (np.array([c.g_v for c in cs]), np.array([c.g_t for c in cs]),
           np.array([c.c_v for c in cs]), np.array([c.c_t for c in cs]),
           report.users_v, report.users_t, report.jaccard)
    return [np.asarray(x).tobytes() for x in got]


def _oracle_bits(cache, enc, i, users, k, k_users):
    dv = ad.leaf(np.zeros((1, enc.raw_v.shape[1])))
    dt = ad.leaf(np.zeros((1, enc.raw_t.shape[1])))
    want = reference.per_user_survey(ad, attacks.promotion(cache, i, users, k), dv, dt,
                                     users, k_users)
    return [np.asarray(x).tobytes() for x in want]


@pytest.mark.parametrize("kind", ["concat", "graph"])
def test_survey_is_bitwise_the_per_user_loop(kind, request, tiny_dataset):
    """Gradients, contributions, top sets and Jaccard of the array survey
    equal, bit for bit, those of a sigmoid head, a norm and a cosine per user."""
    params, enc = request.getfixturevalue(f"trained_{kind}")
    cache = RankCache(params, enc)
    targets = metrics.select_targets(tiny_dataset["raw"], 4, n_unpop=4, seed=5)
    result = mismatch_survey(params, enc, targets, k=10, cache=cache)
    assert [r.item for r in result.reports] == [int(i) for i in targets]
    for report in result.reports:
        users = attacks.promoted_user_set(enc.table, report.item)
        assert [c.user for c in report.contributions] == users.tolist()
        k_users = default_k_users(users.size)
        assert (_survey_bits(report)
                == _oracle_bits(cache, enc, report.item, users, 10, k_users))


def test_survey_with_some_users_saturated_is_bitwise_the_per_user_loop(
        trained_concat, tiny_dataset):
    """Every fourth user of the audience beats their threshold by about 1000,
    so their sigmoid slope is exactly 0: a zero gradient row and a
    contribution of exactly 0, and the top sets take those ties by user id."""
    params, enc = trained_concat
    params = params.clone()
    i = int(metrics.select_targets(tiny_dataset["raw"], 1, n_unpop=4, seed=5)[0])
    users = attacks.promoted_user_set(enc.table, i)
    saturated = users[::4]
    params.user_embeds[:, 0] = 0.0
    params.user_embeds[saturated, 0] = 1.0
    params.item_embeds[i, 0] = 1e3
    cache = RankCache(params, enc)
    contribs = user_contributions(params, enc, i, users, k=10, cache=cache)
    zero = [c.user for c in contribs if not c.g_v.any() and not c.g_t.any()]
    assert zero == saturated.tolist()
    assert all(c.c_v == 0.0 and c.c_t == 0.0 for c in contribs if c.user in zero)
    # cut the visual top set two places into the zero ties
    k_users = sum(c.c_v > 0 for c in contribs) + 2
    result = mismatch_survey(params, enc, [i], k_users=k_users, k=10, cache=cache)
    report = result.reports[0]
    assert set(zero[:2]) <= set(report.users_v.tolist())
    assert not set(zero[2:]) & set(report.users_v.tolist())
    assert (_survey_bits(report)
            == _oracle_bits(cache, enc, i, users, 10, k_users))
