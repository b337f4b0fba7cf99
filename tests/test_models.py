import numpy as np
import pytest

from mmadvrec import autodiff as ad, data, models
from mmadvrec.models import DatasetEncoding, Forward, Scorer

from conftest import rel_err


def brute_force_rank(scores, i, pool):
    """1 + number of pool items beating i (ties to the lower id)."""
    higher = 0
    for j in pool:
        if j == i:
            continue
        if scores[j] > scores[i] or (scores[j] == scores[i] and j < i):
            higher += 1
    return higher + 1


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


def test_zero_delta_matches_clean(setup):
    params, enc = setup
    clean = models.encode(params, enc, 2, 5, 9)
    zeros = {5: (ad.leaf(np.zeros(enc.raw_v.shape[1])),
                 ad.leaf(np.zeros(enc.raw_t.shape[1])))}
    perturbed = models.encode(params, enc, 2, 5, 9, perturb=zeros)
    assert np.array_equal(clean.h_plus.numpy(), perturbed.h_plus.numpy())
    assert np.array_equal(clean.h_u.numpy(), perturbed.h_u.numpy())


def test_zero_projections_reduce_to_id_embedding(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind="concat", phi="identity", id_dim=4, fuse_dim=3,
                                seed=2)
    params.proj_v[:] = 0.0
    params.proj_t[:] = 0.0
    out = models.encode(params, enc, 0, 3, 4)
    h = out.h_plus.numpy()
    assert np.array_equal(h[:4], params.item_embeds[3])
    assert np.all(h[4:] == 0.0)


def test_graph_isolated_item_keeps_feature():
    table = data.InteractionTable(2, 3, [[0], [0]])  # items 1 and 2 isolated
    fv = data.FeatureMatrix("v", np.arange(9, dtype=float).reshape(3, 3))
    ft = data.FeatureMatrix("t", np.arange(9, dtype=float).reshape(3, 3) * 2)
    enc = DatasetEncoding(table, fv, ft, "graph")
    assert np.allclose(enc.eff_v[1], fv.values[1])
    assert np.allclose(enc.eff_t[2], ft.values[2])
    assert enc.self_coef[1] == 1.0
    col = enc.delta_column(1)
    assert col[1] == 1.0 and np.count_nonzero(col) == 1


def test_score_trivials():
    a = ad.constant([1.0, 2.0])
    assert models.score(a, ad.constant([0.0, 0.0])).item() == 0.0
    assert models.score(a, ad.constant([3.0, 4.0])).item() == 11.0
    b = ad.constant([3.0, 4.0])
    assert models.score(a, b).item() == models.score(b, a).item()
    with pytest.raises(ad.ShapeError):
        models.score(a, ad.constant([1.0, 2.0, 3.0]))


def test_rank_all_matches_score_calls(setup):
    params, enc = setup
    u = 3
    vec = models.rank_all(params, enc, u, exclude_seen=False)
    for i in range(enc.table.num_items):
        triple = models.encode(params, enc, u, i, 0)
        assert models.score(triple.h_u, triple.h_plus).item() == pytest.approx(
            vec[i], abs=1e-12)


def test_rank_all_exclude_seen(setup):
    params, enc = setup
    u = 1
    vec = models.rank_all(params, enc, u, exclude_seen=True)
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
    for u in range(6):
        vec = models.rank_all(params, enc, u, exclude_seen=True)
        pool = [i for i in range(10) if i not in enc.table.user_set(u)]
        for i in pool:
            rank = brute_force_rank(vec, i, pool)
            assert rank == 1 + int(np.sum(
                (vec[pool] > vec[i]) | ((vec[pool] == vec[i]) & (np.array(pool) < i))))


def test_rank_all_with_override(setup):
    params, enc = setup
    rng = np.random.default_rng(1)
    i = 7
    dv = 0.3 * rng.normal(size=enc.raw_v.shape[1])
    dt = 0.3 * rng.normal(size=enc.raw_t.shape[1])
    vec = models.rank_all(params, enc, 2, overrides={i: (dv, dt)}, exclude_seen=False)
    triple = models.encode(params, enc, 2, i, 0,
                           perturb={i: (ad.constant(dv), ad.constant(dt))})
    assert models.score(triple.h_u, triple.h_plus).item() == pytest.approx(vec[i], abs=1e-10)


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

    def sc(dv):
        t = models.encode(params, enc, 0, 4, 5,
                          perturb={4: (ad.constant(dv), ad.constant(zt))})
        return models.score(t.h_u, t.h_plus).item()

    lhs = sc(d1 + d2) - sc(d2)
    rhs = sc(d1) - sc(np.zeros(fv.dim))
    assert abs(lhs - rhs) < 1e-9


def test_score_grad_wrt_delta_fd(setup):
    params, enc = setup
    rng = np.random.default_rng(12)
    dv0 = 0.1 * rng.normal(size=enc.raw_v.shape[1])
    dt0 = 0.1 * rng.normal(size=enc.raw_t.shape[1])
    dv, dt = ad.leaf(dv0), ad.leaf(dt0)
    t = models.encode(params, enc, 1, 6, 2, perturb={6: (dv, dt)})
    s = models.score(t.h_u, t.h_plus)
    gv, gt = ad.grad(s, [dv, dt])

    def f(vs):
        t2 = models.encode(params, enc, 1, 6, 2,
                           perturb={6: (ad.constant(vs[0]), ad.constant(vs[1]))})
        return models.score(t2.h_u, t2.h_plus).item()

    fgv, fgt = ad.fd_gradient(f, [dv0, dt0], step=1e-5)
    assert rel_err(gv.numpy(), fgv) < 1e-6
    assert rel_err(gt.numpy(), fgt) < 1e-6


def test_batched_forward_matches_vector_path(setup):
    params, enc = setup
    fw = Forward(params, enc)
    users = np.array([0, 3, 5])
    items = np.array([2, 7, 7])
    hu = fw.user_embedding_batch(users).numpy()
    hi = fw.item_embedding_batch(items).numpy()
    for b, (u, i) in enumerate(zip(users, items)):
        assert np.allclose(hu[b], fw.user_embedding(int(u)).numpy(), atol=1e-12)
        assert np.allclose(hi[b], fw.item_embedding(int(i)).numpy(), atol=1e-12)


def test_id_only_user_embedding(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind="concat", user_content="id_only",
                                id_dim=4, fuse_dim=3, seed=13)
    assert params.user_embeds.shape[1] == params.embed_dim
    out = models.encode(params, enc, 2, 1, 0)
    assert np.array_equal(out.h_u.numpy(), params.user_embeds[2])


def test_checkpoint_roundtrip(setup, tmp_path):
    params, enc = setup
    path = tmp_path / "model.ckpt"
    models.save_checkpoint(params, path)
    loaded = models.load_checkpoint(path)
    assert loaded.checksum() == params.checksum()
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


def test_encode_rejects_bad_delta_shape(setup):
    params, enc = setup
    with pytest.raises(ad.ShapeError):
        models.encode(params, enc, 0, 1, 2,
                      perturb={1: (ad.constant(np.zeros(3)),
                                   ad.constant(np.zeros(enc.raw_t.shape[1])))})


def test_encode_deterministic(setup):
    params, enc = setup
    a = models.encode(params, enc, 4, 8, 1)
    b = models.encode(params, enc, 4, 8, 1)
    assert a.h_u.numpy().tobytes() == b.h_u.numpy().tobytes()
    assert a.h_plus.numpy().tobytes() == b.h_plus.numpy().tobytes()
