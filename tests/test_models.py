import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmadvrec import autodiff as ad, data, metrics, models
from mmadvrec.models import DatasetEncoding, Forward, Scorer

from conftest import (damaged_checkpoint, digest, param_bytes, pinned_synth,
                      table_from_lists)
from oracles import Reference, rel_err
from reference import fd_gradient, rank_and_kth


@pytest.fixture(params=["concat", "graph"])
def kind(request):
    return request.param


@pytest.fixture
def setup(tiny_dataset, kind):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, kind)
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind=kind, phi="tanh", id_dim=10, fuse_dim=6, seed=21)
    return params, enc


def score(fw, u, i, delta_v=None, delta_t=None):
    """Inner-product score of one (user, item) pair as two 1-row batches."""
    return ad.dot(fw.user_embedding_batch([u]), fw.item_embedding_batch([i], delta_v, delta_t))


def row(delta):
    return ad.constant(np.asarray(delta, dtype=float)[None, :])


def test_zero_delta_matches_clean(setup):
    params, enc = setup
    fw = Forward(params, enc)
    items = np.array([5, 9, 5])
    clean = fw.item_embedding_batch(items)
    zeros = [ad.leaf(np.zeros((3, enc.raw_v.shape[1]))),
             ad.leaf(np.zeros((3, enc.raw_t.shape[1])))]
    perturbed = fw.item_embedding_batch(items, *zeros)
    assert np.array_equal(clean.numpy(), perturbed.numpy())
    one = fw.item_embedding_batch([5], row(np.zeros(enc.raw_v.shape[1])),
                                  row(np.zeros(enc.raw_t.shape[1])))
    assert np.allclose(one.numpy()[0], clean.numpy()[0], rtol=0, atol=1e-15)


def test_zero_projections_reduce_to_id_embedding(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind="concat", phi="identity", id_dim=4, fuse_dim=3,
                                seed=2)
    params.proj_v[:] = 0.0
    params.proj_t[:] = 0.0
    h = Forward(params, enc).item_embedding_batch([3]).numpy()[0]
    assert np.array_equal(h[:4], params.item_embeds[3])
    assert np.all(h[4:] == 0.0)


@st.composite
def edge_case_tables(draw):
    """Small random tables plus every edge case of the smoothing: a user with
    no items, an isolated item, an item with one consumer (who lists it
    twice), and duplicate pairs among the random lists."""
    num_items = draw(st.integers(1, 8))
    lists = draw(st.lists(st.lists(st.integers(0, num_items - 1), max_size=9), max_size=7))
    lists = lists + [[], [num_items, num_items]]
    return table_from_lists(num_items + 2, lists)


def _check_against_loops(table, rng):
    """The concat encoding's user means bitwise, and the graph encoding's
    smoothing within 1e-12, of the dense per-user loops of
    ``oracles.Reference``, with the same delta-column support."""
    n = table.num_items
    raw_v, raw_t = (rng.normal(size=(n, 5)) * rng.lognormal(size=(n, 1)) for _ in range(2))
    feats = data.FeatureMatrix("v", raw_v), data.FeatureMatrix("t", raw_t)
    concat = DatasetEncoding(table, *feats, "concat")
    ref = Reference(table.user_items, n, raw_v, raw_t, "concat")
    assert np.array_equal(concat.user_mean_v, ref.user_mean_v)
    assert np.array_equal(concat.user_mean_t, ref.user_mean_t)
    enc = DatasetEncoding(table, *feats, "graph")
    ref = Reference(table.user_items, n, raw_v, raw_t, "graph")
    assert rel_err(enc.eff_v, ref.eff_v) <= 1e-12
    assert rel_err(enc.eff_t, ref.eff_t) <= 1e-12
    assert rel_err(enc.self_coef, ref.self_coef) <= 1e-12
    for i in range(n):
        col, want = enc.delta_column(i), ref.delta_column(i)
        assert rel_err(col, want) <= 1e-12
        # Scorer.perturbed_rows moves exactly the rows in this support
        assert np.array_equal(np.nonzero(col)[0], np.nonzero(want)[0])


def test_user_means_and_smoothing_match_per_user_loops_bitwise(tiny_dataset):
    rng = np.random.default_rng(5)
    wide = [rng.choice(200, size=rng.integers(0, 150), replace=False) for _ in range(40)]
    tables = [tiny_dataset["raw"], tiny_dataset["split"],
              table_from_lists(4, [[2, 0], [], [3, 1, 2]]),
              table_from_lists(200, wide)]
    for table in tables:
        _check_against_loops(table, rng)

    @settings(max_examples=60, deadline=None)
    @given(edge_case_tables())
    def drawn(table):
        _check_against_loops(table, np.random.default_rng(table.num_interactions))

    drawn()


@pytest.mark.parametrize("extra, kind, want", [
    ({}, "concat", "9055b193bcb290ae6cdbd9c9e5bc04ffac357f2c8f9312a179aae5124538dc06"),
    ({}, "graph", "a05a04c421b275f89ff2aa30b3872bfb9c705d72def569d44240b4704ff5b747"),
    ({"unpopular_count": 0, "interaction_noise": 0.0}, "concat",
     "86b9880dbe582eb687ffcf4a85ae593f30182707d642b89eb39e75df042af845"),
    ({"unpopular_count": 0, "interaction_noise": 0.0}, "graph",
     "8e0c9bf06794ee68cf59829ab61f94942bbb98256a6d4360988f89e19fe10905")],
    ids=["pool-concat", "pool-graph", "no_pool-concat", "no_pool-graph"])
def test_encoding_outputs_are_pinned(extra, kind, want):
    """sha256 of the encoding's arrays on the split of the pinned synthetic
    config; the digests were taken from the per-column bincount version."""
    _, fv, ft, split = pinned_synth(**extra)
    enc = DatasetEncoding(split, fv, ft, kind)
    arrays = [enc.eff_v, enc.eff_t, enc.self_coef, enc.user_mean_v, enc.user_mean_t]
    assert digest(*arrays, *([enc.weights] if kind == "graph" else [])) == want


def test_graph_encoding_memory_grows_with_interactions():
    """No U x I or I x I array: the encoding's peak allocation stays a tenth
    of one U x I float64 array (the I x I one here would be 275 MiB)."""
    num_users, num_items = 300, 6000
    rng = np.random.default_rng(8)
    table = table_from_lists(num_items, [rng.choice(num_items, size=10, replace=False)
                                         for _ in range(num_users)])
    fv = data.FeatureMatrix("v", rng.normal(size=(num_items, 4)))
    ft = data.FeatureMatrix("t", rng.normal(size=(num_items, 4)))
    tracemalloc.start()
    try:
        DatasetEncoding(table, fv, ft, "graph")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= num_users * num_items * 8 / 10


def test_recall_ndcg_evaluates_in_row_blocks():
    """Evaluation on a prebuilt cache copies no U x I block of scores: its
    peak allocation stays below half of one U x I float64 array."""
    num_users, num_items = 2000, 1000
    rng = np.random.default_rng(9)
    lists = [rng.choice(num_items, size=6, replace=False) for _ in range(num_users)]
    table = table_from_lists(num_items, [items[1:] for items in lists],
                             holdout=[items[0] for items in lists])
    fv = data.FeatureMatrix("v", rng.normal(size=(num_items, 2)))
    ft = data.FeatureMatrix("t", rng.normal(size=(num_items, 2)))
    enc = DatasetEncoding(table, fv, ft, "concat")
    params = models.init_params(num_users, num_items, 2, 2, kind="concat",
                                id_dim=4, fuse_dim=2, seed=3)
    cache = metrics.RankCache(params, enc)
    tracemalloc.start()
    try:
        metrics.recall_ndcg(params, enc, k=10, cache=cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < num_users * num_items * 8 / 2


def test_graph_isolated_item_keeps_feature():
    table = table_from_lists(3, [[0], [0]])  # items 1 and 2 isolated
    fv = data.FeatureMatrix("v", np.arange(9, dtype=float).reshape(3, 3))
    ft = data.FeatureMatrix("t", np.arange(9, dtype=float).reshape(3, 3) * 2)
    enc = DatasetEncoding(table, fv, ft, "graph")
    assert np.allclose(enc.eff_v[1], fv.values[1])
    assert np.allclose(enc.eff_t[2], ft.values[2])
    assert enc.self_coef[1] == 1.0
    col = enc.delta_column(1)
    assert col[1] == 1.0 and np.count_nonzero(col) == 1


def test_score_trivials():
    a = ad.constant([[1.0, 2.0]])
    assert ad.dot(a, ad.constant([[0.0, 0.0]])).item() == 0.0
    assert ad.dot(a, ad.constant([[3.0, 4.0]])).item() == 11.0
    b = ad.constant([[3.0, 4.0]])
    assert ad.dot(a, b).item() == ad.dot(b, a).item()
    with pytest.raises(ad.ShapeError):
        ad.dot(a, ad.constant([[1.0, 2.0, 3.0]]))


def test_rank_all_matches_score_calls(setup):
    """The ranking table is the traced forward under no_grad, pair by pair."""
    params, enc = setup
    fw = Forward(params, enc)
    table = Scorer(params, enc).scores()
    u = 3
    for i in range(enc.table.num_items):
        assert score(fw, u, i).item() == pytest.approx(table[u, i], abs=1e-12)


def test_scorer_tables_are_batched_forward(setup):
    params, enc = setup
    scorer = Scorer(params, enc)
    fw = Forward(params, enc)
    items = fw.item_embedding_batch(np.arange(enc.table.num_items)).numpy()
    users = fw.user_embedding_batch(np.arange(enc.table.num_users)).numpy()
    assert np.array_equal(scorer.item_matrix, items)
    assert np.array_equal(scorer.user_matrix, users)


def test_rank_all_exclude_seen(setup):
    params, enc = setup
    u = 1
    vec = metrics.RankCache(params, enc).masked_rows(np.array([u]))[0]
    seen = enc.table.user_items[u]
    assert np.all(np.isneginf(vec[seen]))
    unseen = np.setdiff1d(np.arange(enc.table.num_items), seen)
    assert np.all(np.isfinite(vec[unseen]))


def test_rank_matches_brute_force_pairwise():
    cfg = data.SynthConfig(num_users=6, num_items=10, interactions_per_user=3,
                           unpopular_count=0, feat_dim_v=4, feat_dim_t=4)
    table, fv, ft = data.synth_generate(cfg, seed=5)
    split = data.split_leave_one_out(table, seed=6)
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(6, 10, 4, 4, kind="concat", id_dim=4, fuse_dim=3, seed=7)
    cache = metrics.RankCache(params, enc)
    masked = cache.masked_rows(np.arange(6))
    for i in range(10):
        for k in (1, 2, 4, 9):
            rank, _ = rank_and_kth(masked, i, k)
            assert np.array_equal(cache.hit_mask(cache.target(i, k)), rank <= k - 1)


def test_rank_all_with_override(setup):
    """A perturbed row of the ranking table equals the traced 1-row score."""
    params, enc = setup
    rng = np.random.default_rng(1)
    i = 7
    dv = 0.3 * rng.normal(size=enc.raw_v.shape[1])
    dt = 0.3 * rng.normal(size=enc.raw_t.shape[1])
    cache = metrics.RankCache(params, enc)
    scorer = cache.scorer
    rows, repl = scorer.perturbed_rows(cache.target(i, 1), dv, dt)
    assert np.array_equal(rows, np.nonzero(enc.delta_column(i))[0])
    vec = repl @ scorer.user_matrix[2]
    traced = score(Forward(params, enc), 2, i, row(dv), row(dt)).item()
    assert traced == pytest.approx(vec[list(rows).index(i)], abs=1e-10)


def test_perturbed_rows_follow_delta_column(setup):
    """Every row a perturbation reaches moves by its delta-column weight."""
    params, enc = setup
    rng = np.random.default_rng(2)
    i = int(np.argmax(enc.table.item_counts()))
    dv = 0.3 * rng.normal(size=enc.raw_v.shape[1])
    dt = 0.3 * rng.normal(size=enc.raw_t.shape[1])
    col = enc.delta_column(i)
    cache = metrics.RankCache(params, enc)
    rows, repl = cache.scorer.perturbed_rows(cache.target(i, 1), dv, dt)
    fw = Forward(params, enc)
    for j, got in zip(rows, repl):
        own = fw.item_embedding_batch([j], row(col[j] * dv), row(col[j] * dt),
                                      weights=np.ones(1)).numpy()[0]
        assert np.allclose(got, own, rtol=0, atol=1e-12)
    if enc.kind == "graph":
        assert rows.size > 1


def test_score_affine_in_delta_identity_phi(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind="concat", phi="identity", id_dim=6, fuse_dim=4,
                                seed=9)
    rng = np.random.default_rng(10)
    d1 = rng.normal(size=fv.dim)
    d2 = rng.normal(size=fv.dim)
    zt = np.zeros(ft.dim)
    fw = Forward(params, enc)

    def sc(dv):
        return score(fw, 0, 4, row(dv), row(zt)).item()

    lhs = sc(d1 + d2) - sc(d2)
    rhs = sc(d1) - sc(np.zeros(fv.dim))
    assert abs(lhs - rhs) < 1e-9


def test_score_grad_wrt_delta_fd(setup):
    params, enc = setup
    rng = np.random.default_rng(12)
    dv0 = 0.1 * rng.normal(size=(1, enc.raw_v.shape[1]))
    dt0 = 0.1 * rng.normal(size=(1, enc.raw_t.shape[1]))
    dv, dt = ad.leaf(dv0), ad.leaf(dt0)
    fw = Forward(params, enc)
    gv, gt = ad.grad(score(fw, 1, 6, dv, dt), [dv, dt])

    def f(vs):
        return score(fw, 1, 6, ad.constant(vs[0]), ad.constant(vs[1])).item()

    fgv, fgt = fd_gradient(f, [dv0, dt0], step=1e-5)
    assert rel_err(gv.numpy(), fgv) < 1e-6
    assert rel_err(gt.numpy(), fgt) < 1e-6


def test_batched_forward_matches_vector_path(setup):
    """Each row of a batch equals the item or user encoded as a 1-row batch."""
    params, enc = setup
    fw = Forward(params, enc)
    users = np.array([0, 3, 5])
    items = np.array([2, 7, 7])
    hu = fw.user_embedding_batch(users).numpy()
    hi = fw.item_embedding_batch(items).numpy()
    for b, (u, i) in enumerate(zip(users, items)):
        assert np.allclose(hu[b], fw.user_embedding_batch([u]).numpy()[0], atol=1e-12)
        assert np.allclose(hi[b], fw.item_embedding_batch([i]).numpy()[0], atol=1e-12)


def test_id_only_user_embedding(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind="concat", user_content="id_only",
                                id_dim=4, fuse_dim=3, seed=13)
    assert params.user_embeds.shape[1] == 4 + 2 * 3  # id_dim + 2 * fuse_dim
    h_u = Forward(params, enc).user_embedding_batch([2]).numpy()[0]
    assert np.array_equal(h_u, params.user_embeds[2])


def test_checkpoint_roundtrip(setup, tmp_path):
    params, enc = setup
    path = tmp_path / "model.ckpt"
    models.save_checkpoint(params, path)
    loaded = models.load_checkpoint(path)
    assert param_bytes(loaded) == param_bytes(params)
    assert (loaded.kind, loaded.phi, loaded.user_content) == (
        params.kind, params.phi, params.user_content)
    assert path.read_bytes()[:4] == b"UATM"


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(data.DataError):
        models.load_checkpoint(path)


def test_checkpoint_every_truncation_is_data_error(setup, tmp_path):
    params, _ = setup
    path = tmp_path / "model.ckpt"
    models.save_checkpoint(params, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in list(range(200)) + list(range(200, len(raw), 97)):
        cut.write_bytes(raw[:n])
        with pytest.raises(data.DataError):
            models.load_checkpoint(cut)
    shape_at = raw.index(b"item_embeds") + len(b"item_embeds")
    cut.write_bytes(raw[:shape_at] + (1 << 50).to_bytes(8, "little") + raw[shape_at + 8:])
    with pytest.raises(data.DataError):
        models.load_checkpoint(cut)


def test_checkpoint_block_with_an_empty_shape_is_data_error(setup, tmp_path):
    params, _ = setup
    path = tmp_path / "model.ckpt"
    models.save_checkpoint(params, path)
    raw = path.read_bytes()
    at = raw.index(b"item_embeds") + len(b"item_embeds")
    path.write_bytes(raw[:at] + (2 ** 64 - 1).to_bytes(8, "little") + bytes(8) + raw[at + 16:])
    with pytest.raises(data.DataError):
        models.load_checkpoint(path)
    # the last block cut to zero rows, so the file still parses to its end
    at = raw.index(b"user_embeds") + len(b"user_embeds")
    path.write_bytes(raw[:at] + bytes(8) + raw[at + 8:at + 16])
    with pytest.raises(data.DataError):
        models.load_checkpoint(path)


@st.composite
def model_params(draw):
    """Parameters of either kind, nonlinearity and user-content mode, small
    shapes, with every value drawn from the finite floats."""
    users, items, dim_v, dim_t, id_dim, fuse_dim = [draw(st.integers(1, 3)) for _ in range(6)]
    params = models.init_params(users, items, dim_v, dim_t,
                                kind=draw(st.sampled_from(["concat", "graph"])),
                                phi=draw(st.sampled_from(["identity", "tanh"])),
                                user_content=draw(st.sampled_from(["shared", "id_only"])),
                                id_dim=id_dim, fuse_dim=fuse_dim)
    for a in params.arrays().values():
        a[...] = draw(hnp.arrays(np.float64, a.shape,
                                 elements=st.floats(allow_nan=False, allow_infinity=False)))
    return params


@settings(max_examples=15, deadline=None)
@given(model_params())
def test_checkpoint_roundtrips_and_every_truncation_is_data_error(tmp_path_factory, params):
    root = tmp_path_factory.mktemp("ckpt")
    path, cut = root / "model.ckpt", root / "cut.ckpt"
    models.save_checkpoint(params, path)
    loaded = models.load_checkpoint(path)
    assert (loaded.kind, loaded.phi, loaded.user_content) == (
        params.kind, params.phi, params.user_content)
    assert param_bytes(loaded) == param_bytes(params)
    raw = path.read_bytes()
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(data.DataError):
            models.load_checkpoint(cut)


# each edit of ``damaged_checkpoint`` and the error it must raise
CHECKPOINT_ERRORS = {
    "drop prop_t": "propagation weights", "drop prop_v": "propagation weights",
    "meta (1, 1)": "model.ckpt: malformed checkpoint",
    "meta nan": "model.ckpt: malformed checkpoint", "meta inf": "model.ckpt: malformed checkpoint",
    "version 2": "model.ckpt: unsupported checkpoint version 2",
    "rename user_embeds": "model.ckpt: malformed block name",
    "nan prop_v": "non-finite parameter value",
    "widen user_embeds": "user embedding width inconsistent"}


@pytest.mark.parametrize("edit", list(CHECKPOINT_ERRORS))
def test_malformed_checkpoint_blocks_are_data_errors(tmp_path, edit):
    params = models.init_params(3, 4, 2, 2, kind="graph", id_dim=2, fuse_dim=2, seed=5)
    path = tmp_path / "model.ckpt"
    models.save_checkpoint(params, path)
    path.write_bytes(damaged_checkpoint(path.read_bytes(), edit))
    with pytest.raises(data.DataError, match=CHECKPOINT_ERRORS[edit]):
        models.load_checkpoint(path)


def test_encode_rejects_bad_delta_shape(setup):
    params, enc = setup
    fw = Forward(params, enc)
    with pytest.raises(ad.ShapeError):
        fw.item_embedding_batch([1], row(np.zeros(3)), row(np.zeros(enc.raw_t.shape[1])))
    with pytest.raises(ad.ShapeError):  # two delta rows for three items
        fw.item_embedding_batch([1, 2, 3], ad.constant(np.zeros((2, enc.raw_v.shape[1]))),
                                row(np.zeros(enc.raw_t.shape[1])))


def test_encode_deterministic(setup):
    params, enc = setup
    a = Scorer(params, enc)
    b = Scorer(params, enc)
    assert a.user_matrix.tobytes() == b.user_matrix.tobytes()
    assert a.item_matrix.tobytes() == b.item_matrix.tobytes()


@pytest.mark.parametrize("block, change", [
    ("user_embeds", lambda p: p.user_embeds[:-1]),
    ("item_embeds", lambda p: np.vstack([p.item_embeds, p.item_embeds[:1]])),
    ("proj_v", lambda p: p.proj_v[:, :-1]),
    ("proj_t", lambda p: np.hstack([p.proj_t, p.proj_t[:, :1]])),
])
def test_forward_rejects_parameters_that_do_not_fit_the_dataset(setup, block, change):
    params, enc = setup
    bad = params.clone()
    setattr(bad, block, np.ascontiguousarray(change(bad)))
    with pytest.raises(data.DataError, match=block):
        Forward(bad, enc)
    with pytest.raises(data.DataError, match=block):
        Scorer(bad, enc)


def test_forward_rejects_a_checkpoint_of_the_other_model_kind(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    for params_kind, enc_kind in (("concat", "graph"), ("graph", "concat")):
        params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                    kind=params_kind, id_dim=4, fuse_dim=3, seed=0)
        enc = DatasetEncoding(split, fv, ft, enc_kind)
        with pytest.raises(data.DataError, match="model.kind"):
            Forward(params, enc)
        with pytest.raises(data.DataError, match="model.kind"):
            Scorer(params, enc)


def test_encoding_rejects_an_unknown_kind(tiny_dataset):
    with pytest.raises(data.DataError, match="xyz"):
        DatasetEncoding(tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"], "xyz")
