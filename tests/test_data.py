import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmadvrec import data
from mmadvrec.data import (DataError, DatasetStats, EmptyDatasetError, FeatureMatrix,
                           InteractionTable, ParseError, SynthConfig)


@st.composite
def per_user_lists(draw):
    """(num_items, per-user item lists): unsorted, with duplicates and with
    users who hold nothing."""
    num_items = draw(st.integers(1, 7))
    lists = draw(st.lists(st.lists(st.integers(0, num_items - 1), max_size=9), max_size=6))
    return num_items, lists


@settings(max_examples=150, deadline=None)
@given(per_user_lists())
def test_csr_layout_matches_per_user_unique(case):
    num_items, lists = case
    t = InteractionTable(len(lists), num_items, lists)
    want = [np.unique(np.asarray(a, dtype=np.int64)) for a in lists]
    sizes = [w.size for w in want]
    assert t.indptr.tolist() == [0] + np.cumsum(sizes, dtype=np.int64).tolist()
    assert t.items.tolist() == [i for w in want for i in w.tolist()]
    assert t.users.tolist() == [u for u, n in enumerate(sizes) for _ in range(n)]
    assert t.num_interactions == sum(sizes)
    assert t.item_counts().tolist() == [sum(i in set(a) for a in lists)
                                        for i in range(num_items)]
    assert len(t.user_items) == len(lists)
    for u, w in enumerate(want):
        row = t.user_items[u]
        assert row.dtype == np.int64 and np.array_equal(row, w)
        assert row.base is t.items and not row.flags.writeable
        assert t.user_set(u) == set(w.tolist())
        assert [t.has(u, i) for i in range(num_items)] == [i in w for i in range(num_items)]
    if lists:
        assert np.array_equal(t.user_items[-1], want[-1])
    for a in (t.indptr, t.items, t.users):
        assert not a.flags.writeable
    with pytest.raises(IndexError):
        t.user_items[len(lists)]


@settings(max_examples=60, deadline=None)
@given(per_user_lists(), st.data())
def test_out_of_range_item_id_is_a_data_error(case, picks):
    num_items, lists = case
    lists = lists or [[]]
    bad = picks.draw(st.integers(-2 ** 62, -1) | st.integers(num_items, 2 ** 62))
    lists[picks.draw(st.integers(0, len(lists) - 1))].append(bad)
    with pytest.raises(DataError):
        InteractionTable(len(lists), num_items, lists)


def test_duplicates_drop_without_overflow_at_large_ids():
    # user * num_items + item would overflow int64 here
    big = 2 ** 62
    t = InteractionTable(3, big, [[], [big - 1], [big - 1, 0, big - 1]])
    assert t.items.tolist() == [big - 1, 0, big - 1]
    assert t.users.tolist() == [1, 2, 2]
    assert t.indptr.tolist() == [0, 0, 1, 3]


def test_load_basic_and_dedup(tmp_path):
    p = tmp_path / "inter.tsv"
    p.write_text("# header\n0\t1\n0\t2\n1\t0\n", encoding="utf-8")
    t = data.load_interactions(p)
    assert (t.num_users, t.num_items, t.num_interactions) == (2, 3, 3)

    p.write_text("0\t1\n0\t1\n0\t2\n1\t0\n", encoding="utf-8")
    t = data.load_interactions(p)
    assert t.num_interactions == 3  # duplicate collapses


def test_load_takes_the_catalog_size_when_given(tmp_path):
    p = tmp_path / "inter.tsv"
    p.write_text("0\t1\n1\t0\n", encoding="utf-8")
    t = data.load_interactions(p, num_items=5)
    assert (t.num_items, t.item_counts().tolist()) == (5, [1, 1, 0, 0, 0])
    with pytest.raises(DataError):
        data.load_interactions(p, num_items=1)


def test_load_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("0\t1\nthis is broken\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        data.load_interactions(p)
    assert exc.value.line_no == 2
    p.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(EmptyDatasetError):
        data.load_interactions(p)


def test_string_ids_densified_with_sidecar(tmp_path):
    p = tmp_path / "amazon.tsv"
    p.write_text("alice\tB004203QQ4\nbob\tB000123\nalice\tB000123\n", encoding="utf-8")
    t = data.load_interactions(p)
    assert (t.num_users, t.num_items, t.num_interactions) == (2, 2, 3)
    users = dict(line.split("\t") for line in
                 (tmp_path / "amazon.tsv.users.idmap").read_text().splitlines())
    items = dict(line.split("\t") for line in
                 (tmp_path / "amazon.tsv.items.idmap").read_text().splitlines())
    assert users == {"alice": "0", "bob": "1"}
    assert items == {"B004203QQ4": "0", "B000123": "1"}


def test_table_sparsity_matches_published_counts():
    stats = DatasetStats.compute(19445, 7037, 160792)
    # exact formula; printed table value is 99.883
    recomputed = (1 - 160792 / (19445 * 7037)) * 100
    assert stats.sparsity_pct == pytest.approx(recomputed, abs=1e-9)
    assert abs(stats.sparsity_pct - 99.883) < 1e-3


def test_interaction_roundtrip(tmp_path):
    t = InteractionTable(3, 4, [[0, 2], [1], [3, 0]])
    path = tmp_path / "rt.tsv"
    data.save_interactions(t, path)
    t2 = data.load_interactions(path)
    assert t2.num_users == t.num_users and t2.num_items == t.num_items
    for u in range(3):
        assert np.array_equal(t.user_items[u], t2.user_items[u])


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    f = FeatureMatrix("v", rng.normal(size=(3, 2)))
    path = tmp_path / "f.mmfe"
    data.write_features(f, path)
    f2 = data.load_features(path, "v")
    assert f2.values.shape == (3, 2)
    assert f2.values.tobytes() == f.values.tobytes()  # bitwise

    with pytest.raises(DataError):
        data.load_features(path, "v", expected_items=4)

    bad = tmp_path / "bad.mmfe"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError):
        data.load_features(bad, "v")


def test_feature_header_shape(tmp_path):
    f = FeatureMatrix("t", np.arange(6, dtype=float).reshape(3, 2))
    path = tmp_path / "f.mmfe"
    data.write_features(f, path)
    raw = path.read_bytes()
    assert raw[:4] == b"MMFE"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 3
    assert int.from_bytes(raw[16:24], "little") == 2
    assert len(raw) == 24 + 6 * 8


def test_feature_file_every_truncation_is_data_error(tmp_path):
    f = FeatureMatrix("v", np.arange(6, dtype=float).reshape(3, 2))
    path = tmp_path / "f.mmfe"
    data.write_features(f, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.mmfe"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(DataError):
            data.load_features(cut, "v")
    # a shape claiming more rows than the file holds is refused before reading
    cut.write_bytes(raw[:8] + (1 << 50).to_bytes(8, "little") + raw[16:])
    with pytest.raises(DataError):
        data.load_features(cut, "v")


def test_synth_determinism():
    cfg = SynthConfig(num_users=60, num_items=40, unpopular_count=6, n_unpop=3,
                      interactions_per_user=6)
    a = data.synth_generate(cfg, seed=9)
    b = data.synth_generate(cfg, seed=9)
    for x, y in zip(a[0].user_items, b[0].user_items):
        assert np.array_equal(x, y)
    assert a[1].values.tobytes() == b[1].values.tobytes()
    assert a[2].values.tobytes() == b[2].values.tobytes()


def test_synth_unpopular_pool_exact():
    cfg = SynthConfig(num_users=400, num_items=300, unpopular_count=100, n_unpop=5,
                      interactions_per_user=12)
    table, _, _ = data.synth_generate(cfg, seed=4)
    counts = table.item_counts()
    assert int((counts == 5).sum()) == 100


def test_synth_degenerate_shared_factor():
    cfg = SynthConfig(num_users=50, num_items=30, latent_dim=1, mixing_overlap=1.0,
                      feature_noise=0.0, interaction_noise=0.0,
                      interactions_per_user=1, unpopular_count=0)
    table, _, _ = data.synth_generate(cfg, seed=3)
    tops = {int(table.user_items[u][0]) for u in range(cfg.num_users)}
    assert len(tops) == 1  # every user's top item identical


def test_synth_validation():
    with pytest.raises(DataError):
        data.synth_generate(SynthConfig(num_users=5, num_items=4,
                                        interactions_per_user=10,
                                        unpopular_count=0), seed=0)
    with pytest.raises(DataError):
        data.synth_generate(SynthConfig(mixing_overlap=1.5), seed=0)


def test_split_leave_one_out(tiny_dataset):
    raw, split = tiny_dataset["raw"], tiny_dataset["split"]
    for u in range(raw.num_users):
        orig = set(raw.user_items[u].tolist())
        train = set(split.user_items[u].tolist())
        h = int(split.holdout[u])
        if len(orig) >= 2:
            assert h in orig and h not in train
            assert train | {h} == orig
            assert len(train) >= 1
        else:
            assert h == -1 and train == orig


def test_split_excludes_singletons():
    t = InteractionTable(2, 5, [[1], [0, 2, 3]])
    s = data.split_leave_one_out(t, seed=0)
    assert s.holdout[0] == -1
    assert s.user_items[0].size == 1
    assert s.holdout[1] in (0, 2, 3)


def test_split_determinism(tiny_dataset):
    raw = tiny_dataset["raw"]
    s1 = data.split_leave_one_out(raw, seed=77)
    s2 = data.split_leave_one_out(raw, seed=77)
    assert np.array_equal(s1.holdout, s2.holdout)


def test_sample_triples_contract(tiny_dataset):
    split = tiny_dataset["split"]
    users, pos, neg = data.TripleSampler(split, seed=5).sample(10_000)
    for u, p, n in zip(users, pos, neg):
        assert split.has(int(u), int(p))
        assert not split.has(int(u), int(n))


def test_sample_triples_forced_negative():
    t = InteractionTable(1, 2, [[0]])
    _, _, neg = data.TripleSampler(t, seed=1).sample(50)
    assert set(neg.tolist()) == {1}


def test_sample_positive_uniformity():
    # chi-square over the positives of one user with 5 items
    from scipy import stats as sps
    t = InteractionTable(1, 400, [[0, 1, 2, 3, 4]])
    _, pos, _ = data.TripleSampler(t, seed=8).sample(100_000)
    observed = np.bincount(pos, minlength=5)[:5]
    _, p_value = sps.chisquare(observed)
    assert p_value > 0.01


def test_sample_negative_uniformity_over_unseen_items():
    from scipy import stats as sps
    seen = [0, 2, 5, 7, 11]
    t = InteractionTable(1, 12, [seen])
    _, _, neg = data.TripleSampler(t, seed=9).sample(60_000)
    observed = np.bincount(neg, minlength=12)
    assert observed[seen].sum() == 0
    _, p_value = sps.chisquare(np.delete(observed, seen))
    assert p_value > 0.01


def test_sample_user_uniformity_over_eligible_users():
    # user 1 holds every item and user 2 none: neither may be drawn
    from scipy import stats as sps
    t = InteractionTable(5, 4, [[0], [0, 1, 2, 3], [], [1, 2], [3]])
    users, _, _ = data.TripleSampler(t, seed=10).sample(60_000)
    observed = np.bincount(users, minlength=5)
    assert observed[1] == 0 and observed[2] == 0
    _, p_value = sps.chisquare(observed[[0, 3, 4]])
    assert p_value > 0.01


def test_sample_stream_follows_the_seed(tiny_dataset):
    split = tiny_dataset["split"]
    draw = lambda seed: np.stack(data.TripleSampler(split, seed=seed).sample(64))
    assert np.array_equal(draw(3), draw(3))
    assert not np.array_equal(draw(3), draw(4))


def test_sampler_rejects_tables_where_every_user_holds_every_item():
    t = InteractionTable(2, 2, [[0, 1], [0, 1]])
    with pytest.raises(EmptyDatasetError):
        data.TripleSampler(t, seed=0)


def test_sampler_rejects_catalogs_whose_keys_overflow():
    t = InteractionTable(3, 2 ** 62, [[], [2 ** 62 - 1], [0]])
    with pytest.raises(DataError):
        data.TripleSampler(t, seed=0)


def test_stats_invariant(tiny_dataset):
    split = tiny_dataset["split"]
    s = split.stats()
    expect = (1 - s.num_interactions / (s.num_users * s.num_items)) * 100
    assert abs(s.sparsity_pct - expect) < 1e-9
