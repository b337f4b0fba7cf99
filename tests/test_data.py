import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmadvrec import data
from mmadvrec.config import Config, ConfigError
from mmadvrec.data import DataError, DatasetStats, FeatureMatrix, InteractionTable, SynthConfig

from conftest import damaged_features, digest, pinned_synth, table_from_lists


@st.composite
def per_user_lists(draw):
    """(num_items, per-user item lists): unsorted, with duplicates and with
    users who hold nothing."""
    num_items = draw(st.integers(1, 7))
    lists = draw(st.lists(st.lists(st.integers(0, num_items - 1), max_size=9), max_size=6))
    return num_items, lists


@settings(max_examples=150, deadline=None)
@given(per_user_lists(), st.integers(0, 2 ** 32))
def test_csr_layout_matches_per_user_unique(case, seed):
    num_items, lists = case
    # the pairs in a random order: the constructor sorts them
    users = np.array([u for u, row in enumerate(lists) for _ in row], dtype=np.int64)
    items = np.array([i for row in lists for i in row], dtype=np.int64)
    perm = np.random.default_rng(seed).permutation(users.size)
    t = InteractionTable(len(lists), num_items, users[perm], items[perm])
    want = [np.unique(np.asarray(a, dtype=np.int64)) for a in lists]
    sizes = [w.size for w in want]
    assert t.indptr.tolist() == [0] + np.cumsum(sizes, dtype=np.int64).tolist()
    assert t.items.tolist() == [i for w in want for i in w.tolist()]
    assert t.users.tolist() == [u for u, n in enumerate(sizes) for _ in range(n)]
    assert t.num_interactions == sum(sizes)
    assert t.item_counts().tolist() == [sum(i in set(a) for a in lists)
                                        for i in range(num_items)]
    ids = np.r_[np.arange(num_items)[::-1], 0]  # every item, out of order, one twice
    positions, lens = t.item_positions(ids)
    assert lens.tolist() == t.item_counts()[ids].tolist()
    assert positions.tolist() == [k for i in ids for k in np.flatnonzero(t.items == i)]
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
        table_from_lists(num_items, lists)


@settings(max_examples=60, deadline=None)
@given(per_user_lists(), st.data())
def test_out_of_range_user_id_is_a_data_error(case, picks):
    num_items, lists = case
    users = [u for u, row in enumerate(lists) for _ in row] + [
        picks.draw(st.integers(-2 ** 62, -1) | st.integers(len(lists), 2 ** 62))]
    items = [i for row in lists for i in row] + [0]
    with pytest.raises(DataError):
        InteractionTable(len(lists), num_items, users, items)


def test_id_arrays_of_unequal_length_or_rank_are_a_data_error():
    with pytest.raises(DataError):
        InteractionTable(2, 3, [0, 1], [0])
    with pytest.raises(DataError):
        InteractionTable(2, 3, [[0, 1]], [[0, 2]])
    with pytest.raises(DataError):
        InteractionTable(2, 3, [0, 2 ** 70], [0, 1])


def test_duplicates_drop_without_overflow_at_large_ids():
    # user * num_items + item would overflow int64 here
    big = 2 ** 62
    t = table_from_lists(big, [[], [big - 1], [big - 1, 0, big - 1]])
    assert t.items.tolist() == [big - 1, 0, big - 1]
    assert t.users.tolist() == [1, 2, 2]
    assert t.indptr.tolist() == [0, 0, 1, 3]


def test_a_huge_user_id_is_refused_before_any_per_user_array(tmp_path):
    """Two interactions cannot span two million user ids: the loader
    refuses the file without allocating an array of that many entries."""
    p = tmp_path / "inter.tsv"
    p.write_text("2000000\t0\n0\t1\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="too many"):
            data.load_interactions(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    span = data.ID_SPAN_FLOOR
    assert data.InteractionTable(span, 2, [span - 1], [0]).num_users == span
    with pytest.raises(DataError, match="too many"):
        data.InteractionTable(span + 1, 2, [span], [0])
    ids = np.arange(2 * span // data.ID_SPAN_PER_INTERACTION)  # the bound grows past the floor
    assert data.InteractionTable(2 * span, 1, ids, ids * 0).num_users == 2 * span
    with pytest.raises(DataError, match="too many"):
        data.InteractionTable(2 * span + 1, 1, ids, ids * 0)


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
    with pytest.raises(DataError, match=r"bad\.tsv:2: expected 'user<TAB>item'"):
        data.load_interactions(p)
    p.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad.tsv: no interactions"):
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


def test_utf8_bom_is_skipped(tmp_path):
    # read as text, the BOM would stick to the first id and make every id
    # non-numeric, so all of them would be remapped
    p = tmp_path / "bom.tsv"
    p.write_text("\ufeff3\t1\n1\t0\n0\t2\n", encoding="utf-8")
    t = data.load_interactions(p)
    assert t.users.tolist() == [0, 1, 3] and t.items.tolist() == [2, 0, 1]
    assert not list(tmp_path.glob("*.idmap"))


def _assert_same_table(got, want):
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    for name in ("indptr", "items", "users"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


NAMES = st.text("abxyzé_-.", min_size=1, max_size=3)


@st.composite
def tsv_files(draw):
    """(file text, user labels, item labels) of a TSV with integer or string
    ids per column, repeated pairs, '#' and blank lines, and maybe a BOM."""
    columns = []
    for _ in range(2):
        pool = draw(st.lists(st.integers(0, 20).map(str) | NAMES, min_size=1, max_size=8)
                    if draw(st.booleans()) else
                    st.lists(st.integers(0, 20).map(str), min_size=1, max_size=8))
        columns.append(pool)
    n = draw(st.integers(1, 15))
    users = [draw(st.sampled_from(columns[0])) for _ in range(n)]
    items = [draw(st.sampled_from(columns[1])) for _ in range(n)]
    lines = [f"{u}\t{i}" for u, i in zip(users, items)]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "# user\titem", "#x"])))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(lines) + "\n", users, items


def _dense(labels):
    """(ids, first-appearance order) the TSV spec gives one column: its
    integers when every label is a non-negative integer, else each label's
    rank by first appearance."""
    if all(label.isdigit() for label in labels):
        return [int(label) for label in labels], None
    order = list(dict.fromkeys(labels))
    return [order.index(label) for label in labels], order


@settings(max_examples=150, deadline=None)
@given(tsv_files(), st.integers(0, 3))
def test_tsv_loads_to_its_pairs_and_roundtrips(tmp_path_factory, case, cold):
    text, raw_users, raw_items = case
    path = tmp_path_factory.mktemp("tsv") / "in.tsv"
    path.write_text(text, encoding="utf-8")
    (users, user_order), (items, item_order) = _dense(raw_users), _dense(raw_items)
    num_items = max(items) + 1 + cold
    t = data.load_interactions(path, num_items=num_items)
    assert (t.num_users, t.num_items) == (max(users) + 1, num_items)
    assert list(zip(t.users.tolist(), t.items.tolist())) == sorted(set(zip(users, items)))
    for suffix, order in (("users", user_order), ("items", item_order)):
        sidecar = path.parent / f"in.tsv.{suffix}.idmap"
        if order is None:
            assert not sidecar.exists()
        else:
            assert sidecar.read_text(encoding="utf-8").splitlines() == [
                f"{label}\t{k}" for k, label in enumerate(order)]
    again = path.parent / "again.tsv"
    data.save_interactions(t, again)
    _assert_same_table(data.load_interactions(again, num_items=num_items), t)


PLAIN_IDS = st.sampled_from([str(n) for n in range(31)] + ["00", "007", str(2 ** 63 - 1)])
ODD_IDS = st.sampled_from(["+3", "-3", "-0", " 4", "4 ", "\xa04", "4\u2003", "\u0663", "\uff13",
                           "1_0", str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64 + 5), "5#x",
                           "a", "\u00e9", ""])
PLAIN_EXTRA = [b"", b"# user\titem", b"#x\t\xc3\xa9"]
ODD_EXTRA = [b"   ", b"\t", b"  #c", b"\x0c", b"1\t2\t3", b"5", b"#\xff", b"\xff\t1"]


@st.composite
def numeric_or_not_tsv(draw):
    """The bytes of a plain TSV (ASCII digit pairs, blank and '#' lines, LF
    ends, maybe a BOM) with up to three of the cases that the numeric parse
    must leave to the line loop: an id with a sign, padding, non-ASCII digits
    or whitespace, past int64, or an inline '#'; an indented '#', a
    whitespace-only, short, long or non-UTF-8 line; a CR or CRLF end."""
    lines = [f"{draw(PLAIN_IDS)}\t{draw(PLAIN_IDS)}".encode()
             for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(PLAIN_EXTRA)))
    ends = [b"\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        odd = draw(st.sampled_from(["id", "line", "end"]))
        if odd == "end" and at < len(lines):
            ends[at] = draw(st.sampled_from([b"\r", b"\r\n"]))
            continue
        if odd == "id":
            pair = [draw(PLAIN_IDS), draw(ODD_IDS)]
            line = "\t".join(pair if draw(st.booleans()) else pair[::-1]).encode()
        else:
            line = draw(st.sampled_from(ODD_EXTRA))
        lines.insert(at, line)
        ends.insert(at, b"\n")
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    text = b"".join(line + end for line, end in zip(lines, ends))
    return bom + (text if draw(st.booleans()) else text.removesuffix(ends[-1] if ends else b""))


def _is_plain(raw):
    """The rule for the numeric parse: UTF-8 without CR, and at least one
    line, every line past the '#' ones blank or ASCII digits<TAB>digits
    within int64."""
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        return False
    pairs = [line for line in text.split("\n") if line and not line.startswith("#")]
    return "\r" not in text and bool(pairs) and all(
        re.fullmatch(r"[0-9]+\t[0-9]+", line)
        and max(int(x) for x in line.split("\t")) < 2 ** 63 for line in pairs)


@settings(max_examples=300, deadline=None)
@given(numeric_or_not_tsv(), st.sampled_from([None, 20]))
@example(b"#\xff\n1\t2\n", None)  # a comment line that is not UTF-8
@example(b"# c\r1\t2\n3\t4\n", None)  # a CR ends the comment for the loop
@example(b"5\n6\n", None)  # one column
@example(b"0\t5#x\n", None)  # an inline '#'
@example(b"-3\t1\n0\t2\n", None)  # a sign
@example(b"\xef\xbb\xbf# c\n\n", None)  # no pair
@example(b"0\t9223372036854775808\n", None)  # past int64
@example(b"\xef\xbb\xbf0\t9223372036854775807\n1\t0\n", 20)  # the int64 edge
def test_numeric_parse_matches_the_line_loop(tmp_path_factory, raw, num_items):
    """The numeric parse takes exactly the plain files, and the loader gives
    the same table, sidecars and DataError text with it as the line loop
    alone."""
    assert (data._numeric_pairs(raw) is not None) == _is_plain(raw)
    path = tmp_path_factory.mktemp("tsv") / "in.tsv"
    path.write_bytes(raw)

    def load():
        try:
            t = data.load_interactions(path, num_items=num_items)
            got = (t.num_users, t.num_items, t.indptr.tobytes(), t.users.tobytes(),
                   t.items.tobytes(), t.holdout.tobytes())
        except DataError as exc:
            got = str(exc)
        sidecars = {p.name: p.read_bytes() for p in path.parent.glob("*.idmap")}
        for p in path.parent.glob("*.idmap"):
            p.unlink()
        return got, sidecars

    fast = load()
    with mock.patch.object(data, "_numeric_pairs", lambda raw: None):
        assert load() == fast


def test_table_keeps_its_own_copies_of_sorted_input():
    users = np.array([0, 0, 1, 2], dtype=np.int64)
    items = np.array([1, 3, 0, 2], dtype=np.int64)
    holdout = np.array([-1, 2, -1], dtype=np.int64)
    t = InteractionTable(3, 4, users, items, holdout=holdout)
    assert t.users.tolist() == users.tolist() and t.items.tolist() == items.tolist()
    for mine, theirs in ((t.users, users), (t.items, items), (t.holdout, holdout)):
        assert not np.shares_memory(mine, theirs)
        assert not mine.flags.writeable and theirs.flags.writeable


def test_table_sparsity_matches_published_counts():
    stats = DatasetStats.compute(19445, 7037, 160792)
    # exact formula; printed table value is 99.883
    recomputed = (1 - 160792 / (19445 * 7037)) * 100
    assert stats.sparsity_pct == pytest.approx(recomputed, abs=1e-9)
    assert abs(stats.sparsity_pct - 99.883) < 1e-3


def test_interaction_roundtrip(tmp_path):
    t = table_from_lists(4, [[0, 2], [1], [3, 0]])
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
    for edit, message in (("version 2", "bad.mmfe: unsupported version 2"),
                          ("nan", "non-finite values")):
        bad.write_bytes(damaged_features(path.read_bytes(), edit))
        with pytest.raises(DataError, match=message):
            data.load_features(bad, "v")


@pytest.mark.parametrize("rows, cols", [(2 ** 64 - 1, 0), (2 ** 40, 0), (0, 3), (0, 0)])
def test_feature_file_with_an_empty_shape_is_data_error(tmp_path, rows, cols):
    path = tmp_path / "f.mmfe"
    path.write_bytes(b"MMFE" + struct.pack("<IQQ", 1, rows, cols))
    with pytest.raises(DataError):
        data.load_features(path, "v")


def test_feature_file_with_trailing_bytes_is_data_error(tmp_path):
    path = tmp_path / "f.mmfe"
    data.write_features(FeatureMatrix("v", np.ones((4, 3))), path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(DataError, match="f.mmfe: trailing bytes"):
        data.load_features(path, "v")


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                  elements=FINITE), st.sampled_from(["v", "t"]))
def test_feature_file_roundtrips_and_every_truncation_is_data_error(tmp_path_factory,
                                                                   values, modality):
    root = tmp_path_factory.mktemp("feat")
    path, cut = root / "f.mmfe", root / "cut.mmfe"
    data.write_features(FeatureMatrix(modality, values), path)
    loaded = data.load_features(path, modality, expected_items=values.shape[0])
    assert loaded.modality == modality and loaded.values.shape == values.shape
    assert loaded.values.tobytes() == values.tobytes()  # bitwise, -0.0 included
    raw = path.read_bytes()
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(DataError):
            data.load_features(cut, modality)


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
    assert Config({"synth.mixing_overlap": "1"})["synth.mixing_overlap"] == 1.0
    with pytest.raises(ConfigError, match="synth.mixing_overlap"):
        Config({"synth.mixing_overlap": "1.5"})


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


def _loop_split(table, seed):
    """The per-user split loop that the array draw replaced, as the oracle:
    one ``integers(degree)`` draw per user of degree >= 2, in user order."""
    rng = np.random.default_rng(seed)
    holdout = np.full(table.num_users, -1, dtype=np.int64)
    users, items = [], []
    for u in range(table.num_users):
        row = table.user_items[u]
        if row.size >= 2:
            holdout[u] = pick = row[rng.integers(row.size)]
            row = row[row != pick]
        users += [u] * row.size
        items += row.tolist()
    return np.array(users, dtype=np.int64), np.array(items, dtype=np.int64), holdout


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n), max_size=12))),
       st.integers(0, 2 ** 63 - 1))
def test_split_matches_the_per_user_loop_bitwise(case, seed):
    table = table_from_lists(*case)
    split = data.split_leave_one_out(table, seed)
    users, items, holdout = _loop_split(table, seed)
    assert split.users.tobytes() == users.tobytes()
    assert split.items.tobytes() == items.tobytes()
    assert split.holdout.tobytes() == holdout.tobytes()


@pytest.mark.parametrize("extra, synth_digest, split_digest", [
    ({}, "3df9cdc3dcb6ce2292cc0f5cf6192e3638c50d534d25acb53f99afe4945bb83b",
     "9297b785884229f492c017a7b4610e3c5f73c45859535fc35d5debf76409061f"),
    ({"unpopular_count": 0, "interaction_noise": 0.0},
     "f0502fca482d6262929c804beeaef5b9084829409122b31ce59eeb7388ae6665",
     "7a8565943c035bf21a4a5839941a7af5e0899adbf41e7e60d4e43f32060c299f")],
    ids=["pool", "no_pool"])
def test_synth_and_split_outputs_are_pinned(extra, synth_digest, split_digest):
    """sha256 of the generated table and features, and of the split, at a
    small fixed config; the digests were taken from the per-user set and
    per-user loop versions of both functions."""
    table, fv, ft, split = pinned_synth(**extra)
    assert digest(table.indptr, table.items, fv.values, ft.values) == synth_digest
    assert digest(split.indptr, split.items, split.holdout) == split_digest


def test_split_excludes_singletons():
    t = table_from_lists(5, [[1], [0, 2, 3]])
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
    t = table_from_lists(2, [[0]])
    _, _, neg = data.TripleSampler(t, seed=1).sample(50)
    assert set(neg.tolist()) == {1}


def test_sample_positive_uniformity():
    # chi-square over the positives of one user with 5 items
    from scipy import stats as sps
    t = table_from_lists(400, [[0, 1, 2, 3, 4]])
    _, pos, _ = data.TripleSampler(t, seed=8).sample(100_000)
    observed = np.bincount(pos, minlength=5)[:5]
    _, p_value = sps.chisquare(observed)
    assert p_value > 0.01


def test_sample_negative_uniformity_over_unseen_items():
    from scipy import stats as sps
    seen = [0, 2, 5, 7, 11]
    t = table_from_lists(12, [seen])
    _, _, neg = data.TripleSampler(t, seed=9).sample(60_000)
    observed = np.bincount(neg, minlength=12)
    assert observed[seen].sum() == 0
    _, p_value = sps.chisquare(np.delete(observed, seen))
    assert p_value > 0.01


def test_sample_user_uniformity_over_eligible_users():
    # user 1 holds every item and user 2 none: neither may be drawn
    from scipy import stats as sps
    t = table_from_lists(4, [[0], [0, 1, 2, 3], [], [1, 2], [3]])
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
    t = table_from_lists(2, [[0, 1], [0, 1]])
    with pytest.raises(DataError, match="no user has both"):
        data.TripleSampler(t, seed=0)


def test_sampler_rejects_catalogs_whose_keys_overflow():
    t = table_from_lists(2 ** 62, [[], [2 ** 62 - 1], [0]])
    with pytest.raises(DataError):
        data.TripleSampler(t, seed=0)


def test_stats_invariant(tiny_dataset):
    split = tiny_dataset["split"]
    s = split.stats()
    expect = (1 - s.num_interactions / (s.num_users * s.num_items)) * 100
    assert abs(s.sparsity_pct - expect) < 1e-9
