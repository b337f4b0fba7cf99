"""Interaction tables, per-item modality feature matrices, synthetic data.

An ``InteractionTable`` stores the user-item graph in one layout, compressed
sparse rows: ``indptr``, ``items`` (sorted within each user) and ``users``
(the user of each entry). Counts, degrees, masks and the graph model's
smoothing are whole-array reads of them, and so is the triple sampler, which
draws a whole batch with a handful of array calls. Every producer hands the
table two id arrays: the TSV loader, the synthetic generator (from a user x
item ``held`` mask) and the leave-one-out split (whose one array draw takes
the same RNG stream as a draw per eligible user in user order).

File formats:
  interactions  UTF-8 TSV (a leading BOM is skipped), one ``user<TAB>item``
                per line, '#' lines ignored
  features      binary little-endian: magic "MMFE", version u32=1,
                rows u64, cols u64, then rows*cols float64 row-major
  id sidecars   TSV ``raw_id<TAB>dense_id`` (written when ids are remapped)
"""

from __future__ import annotations

import codecs
import os
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

FEATURE_MAGIC = b"MMFE"
FEATURE_VERSION = 1
# the bound of ``InteractionTable`` on its number of users
ID_SPAN_FLOOR = 1 << 20
ID_SPAN_PER_INTERACTION = 64


class DataError(Exception):
    """Problem with input data files or dataset construction."""


@dataclass(frozen=True)
class DatasetStats:
    num_users: int
    num_items: int
    num_interactions: int
    sparsity_pct: float

    @staticmethod
    def compute(num_users, num_items, num_interactions):
        density = num_interactions / (num_users * num_items)
        return DatasetStats(num_users, num_items, num_interactions,
                            (1.0 - density) * 100.0)


class InteractionTable:
    """Sparse implicit-feedback matrix in compressed sparse row layout.

    ``items`` lists every interaction's item id, user-major and sorted within
    each user; user u's items are ``items[indptr[u]:indptr[u + 1]]``, which
    ``user_items[u]`` returns as a read-only view, and ``users`` holds the
    user of each entry. The three read-only int64 arrays are the only stored
    layout, so consumers read the whole graph as arrays: counts are a
    ``bincount``, degrees an ``np.diff(indptr)``, and membership a binary
    search of the sorted row.

    Built from the (users[k], items[k]) pairs of two id arrays, in any order
    and with repeats; pairs that already arrive strictly ascending, as a
    saved table's and a split's do, skip the sort. An id outside
    ``[0, num_users)`` or ``[0, num_items)`` is a DataError. Immutable after
    construction, and its arrays are its own copies; ``split_leave_one_out``
    returns a new table with one held-out item per eligible user recorded in
    ``holdout`` (-1 for users without one). ``item_positions`` adds the
    item-major (CSC) order on its first call.

    A table of n interactions may have at most max(ID_SPAN_FLOOR,
    ID_SPAN_PER_INTERACTION * n) users, so a huge user id is a DataError
    raised before any per-user array is allocated. The item catalog is not
    bounded here: the table allocates nothing per item.
    """

    def __init__(self, num_users, num_items, users, items, holdout=None):
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        try:  # copies, so that freezing them leaves the caller's arrays alone
            users = np.array(users, dtype=np.int64)
            items = np.array(items, dtype=np.int64)
        except OverflowError as exc:
            raise DataError(f"an id does not fit in int64 ({exc})") from exc
        if users.ndim != 1 or users.shape != items.shape:
            raise DataError("users and items must be 1-d arrays of one length")
        span = max(ID_SPAN_FLOOR, ID_SPAN_PER_INTERACTION * users.size)
        if self.num_users > span:
            raise DataError(f"{self.num_users} user ids are too many for {users.size} "
                            f"interactions (at most {span})")
        outside = (users < 0) | (users >= self.num_users)
        if outside.any():
            raise DataError(f"user id {users[np.argmax(outside)]} outside "
                            f"[0, {self.num_users})")
        outside = (items < 0) | (items >= self.num_items)
        if outside.any():
            raise DataError(f"user {users[np.argmax(outside)]} holds an item id "
                            f"outside [0, {self.num_items})")
        du, di = np.diff(users), np.diff(items)  # ids are in range, so no overflow
        if not ((du > 0) | ((du == 0) & (di > 0))).all():
            order = np.lexsort((items, users))  # not strictly ascending: sort, then dedupe
            users, items = users[order], items[order]
            first = np.ones(items.size, dtype=bool)
            first[1:] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
            users, items = users[first], items[first]
        self.users, self.items = users, items
        self.indptr = np.zeros(self.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.users, minlength=self.num_users), out=self.indptr[1:])
        if holdout is None:
            holdout = np.full(self.num_users, -1, dtype=np.int64)
        self.holdout = np.array(holdout, dtype=np.int64)
        for a in (self.users, self.items, self.indptr, self.holdout):
            a.flags.writeable = False
        self.user_items = _UserItems(self.indptr, self.items)
        self._item_major = None

    @property
    def num_interactions(self):
        return int(self.items.size)

    def user_set(self, u):
        return frozenset(self.user_items[u].tolist())

    def has(self, u, i):
        row = self.user_items[u]
        k = np.searchsorted(row, i)
        return bool(k < row.size and row[k] == i)

    def item_counts(self):
        return np.bincount(self.items, minlength=self.num_items)

    def item_positions(self, items):
        """(positions in ``users`` and ``items``, lengths) of the interactions
        of ``items``, each item's in user order, as ``segment_positions``
        gives them; the item-major (CSC) order is built on the first call."""
        if self._item_major is None:
            ptr = np.zeros(self.num_items + 1, dtype=np.int64)
            np.cumsum(self.item_counts(), out=ptr[1:])
            self._item_major = ptr, np.argsort(self.items, kind="stable")
        ptr, order = self._item_major
        rows, lens = segment_positions(ptr, np.asarray(items, dtype=np.int64))
        return order[rows], lens

    def stats(self):
        return DatasetStats.compute(self.num_users, self.num_items, self.num_interactions)


def segment_positions(ptr, ids):
    """(positions, lengths) of the CSR rows ``ids`` of pointer array ``ptr``:
    every entry of those rows, one row after another, and each row's
    length."""
    starts = ptr[ids]
    lens = ptr[ids + 1] - starts
    return np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens), lens


class _UserItems(Sequence):
    """``user_items[u]``: user u's sorted item ids, a read-only view of the
    table's ``items``."""

    def __init__(self, indptr, items):
        self._indptr = indptr
        self._items = items

    def __len__(self):
        return self._indptr.size - 1

    def __getitem__(self, u):
        u = range(len(self))[u]
        return self._items[self._indptr[u]:self._indptr[u + 1]]


@dataclass(frozen=True)
class FeatureMatrix:
    modality: str  # "v" or "t"
    values: np.ndarray  # items x dim, float64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DataError("feature matrix must be 2-d")
        if not np.all(np.isfinite(v)):
            raise DataError("feature matrix contains non-finite values")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def num_items(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# interaction TSV

def load_interactions(path, num_items=None):
    """Parse a user<TAB>item TSV into an InteractionTable.

    The catalog has ``num_items`` items when given (an id at or above it is
    a DataError), else as many as the largest item id read implies, which
    drops trailing items that no user touched.

    Duplicate pairs collapse to one interaction. Non-integer ids are densely
    remapped in first-appearance order and the mapping is persisted next to
    the input as ``<path>.users.idmap`` / ``<path>.items.idmap``.

    A file of plain ``digits<TAB>digits`` lines (plus blank and '#' lines)
    is read once and parsed by numpy's C reader; any other file goes through
    the line loop, which gives the same table for the files both accept.
    """
    with open(path, "rb") as fh:
        pairs = _numeric_pairs(fh.read())
    if pairs is None:
        users, items = _line_pairs(path)
        num_users, top_item = max(users) + 1, max(items) + 1
    else:
        users, items = pairs[:, 0], pairs[:, 1]
        num_users, top_item = int(users.max()) + 1, int(items.max()) + 1
    return InteractionTable(num_users, top_item if num_items is None else num_items,
                            users, items)


def _numeric_pairs(raw):
    """The (n, 2) int64 pairs of a UTF-8 TSV whose lines, past '#' lines,
    are only blank or ``digits<TAB>digits``; None for any other bytes: those
    with a CR, a sign, padding, a string or an id past int64, or no pair."""
    try:
        raw.decode("utf-8")  # a comment line that is not UTF-8 fails the loop
    except UnicodeDecodeError:
        return None
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8):]
    if b"\r" in raw:  # a line break to the text-mode loop, but not here
        return None
    # cut the '#' lines: every part after a "\n#" starts inside one
    parts = raw.split(b"\n#")
    body = b"\n".join(p.partition(b"\n")[2] if k or p.startswith(b"#") else p
                      for k, p in enumerate(parts))
    if body.translate(None, b"0123456789\t\n"):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns, not raises, on no data
        try:
            pairs = np.loadtxt(body.decode("ascii").split("\n"), dtype=np.int64,
                               delimiter="\t", ndmin=2)
        except (ValueError, UserWarning):  # an empty field, or past int64
            return None
    return pairs if pairs.shape[1] == 2 else None


def _line_pairs(path):
    """Every line's (user, item) ids as two lists, string ids remapped."""
    raw_users, raw_items = [], []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                cols = stripped.split("\t")
                if len(cols) != 2 or not cols[0] or not cols[1]:
                    raise DataError(f"{path}:{line_no}: expected 'user<TAB>item', "
                                    f"got {stripped!r}")
                raw_users.append(cols[0])
                raw_items.append(cols[1])
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not raw_users:
        raise DataError(f"{path}: no interactions")

    users, user_map = _densify(raw_users)
    items, item_map = _densify(raw_items)
    if user_map is not None:
        _write_idmap(str(path) + ".users.idmap", user_map)
    if item_map is not None:
        _write_idmap(str(path) + ".items.idmap", item_map)
    return users, items


def _densify(raw):
    """Return integer ids; remaps (with a mapping dict) unless all numeric."""
    try:
        ids = [int(r) for r in raw]
        if min(ids) < 0:
            raise ValueError
        return ids, None
    except ValueError:
        pass
    mapping = {}
    return [mapping.setdefault(r, len(mapping)) for r in raw], mapping


def _write_idmap(path, mapping):
    with open(path, "w", encoding="utf-8") as fh:
        for raw, dense in mapping.items():
            fh.write(f"{raw}\t{dense}\n")


def save_interactions(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# user\titem\n")
        fh.writelines(f"{u}\t{i}\n" for u, i in zip(table.users.tolist(), table.items.tolist()))


# ---------------------------------------------------------------------------
# feature files

def write_features(features, path):
    with open(path, "wb") as fh:
        rows, cols = features.values.shape
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", FEATURE_VERSION))
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(features.values.astype("<f8").tobytes(order="C"))


def read_struct(fh, fmt, path, what):
    """Unpack one little-endian header field; a short read is a DataError."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise DataError(f"{path}: truncated {what}")
    return struct.unpack(fmt, raw)


def read_matrix(fh, path, what):
    """Read a ``rows cols`` u64 shape and that many float64s, row-major; an
    empty shape, or one claiming more bytes than the file holds, is a
    DataError."""
    rows, cols = read_struct(fh, "<QQ", path, f"{what} shape")
    if rows == 0 or cols == 0:
        raise DataError(f"{path}: {what} has an empty shape ({rows}, {cols})")
    size = rows * cols * 8
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: truncated {what}")
    return np.frombuffer(fh.read(size), dtype="<f8").reshape(rows, cols)


def load_features(path, modality, expected_items=None):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
        (version,) = read_struct(fh, "<I", path, "version")
        if version != FEATURE_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        values = read_matrix(fh, path, "feature matrix")
        rows = values.shape[0]
    if expected_items is not None and rows != expected_items:
        raise DataError(f"{path}: {rows} feature rows but dataset has {expected_items} items")
    try:
        return FeatureMatrix(modality, values.copy())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# synthetic data

@dataclass
class SynthConfig:
    num_users: int = 2000
    num_items: int = 1000
    latent_dim: int = 8
    feat_dim_v: int = 16
    feat_dim_t: int = 16
    interactions_per_user: int = 20
    feature_noise: float = 0.1
    interaction_noise: float = 0.05
    mixing_overlap: float = 0.0  # 1.0 = both modalities view the same factors
    unpopular_count: int = 100
    n_unpop: int = 5

    def validate(self):
        if self.unpopular_count >= self.num_items:
            raise DataError("unpopular pool larger than the catalog")
        open_items = self.num_items - self.unpopular_count
        if self.interactions_per_user > open_items:
            raise DataError("requested interactions exceed available items per user")
        if self.unpopular_count and self.n_unpop > self.num_users:
            raise DataError("n_unpop exceeds the number of users")


def synth_generate(config, seed):
    """Generate (InteractionTable, FeatureMatrix v, FeatureMatrix t).

    Items carry latent factors viewed through per-modality mixing; users
    weight the two modality factor spaces individually, so with low
    ``mixing_overlap`` distinct user groups dominate each modality.
    A reserved pool of items receives exactly ``n_unpop`` interactions each;
    remaining items are topped up past ``n_unpop`` so the pool is exactly the
    set of items at that count.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    U, I, k = config.num_users, config.num_items, config.latent_dim

    shared = rng.normal(size=(I, k))
    spec_v = rng.normal(size=(I, k))
    spec_t = rng.normal(size=(I, k))
    rho = config.mixing_overlap
    factors_v = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * spec_v
    factors_t = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * spec_t

    taste_v = np.abs(rng.normal(size=(U, k)))
    taste_t = np.abs(rng.normal(size=(U, k)))
    weight_v = rng.uniform(size=U)  # per-user modality preference
    affinity = (weight_v[:, None] * (taste_v @ factors_v.T)
                + (1.0 - weight_v[:, None]) * (taste_t @ factors_t.T))

    mix_shared = rng.normal(size=(config.feat_dim_v, k)) / np.sqrt(k)
    mix_v = rng.normal(size=(config.feat_dim_v, k)) / np.sqrt(k)
    mix_t = rng.normal(size=(config.feat_dim_t, k)) / np.sqrt(k)
    if config.feat_dim_v == config.feat_dim_t:
        # overlap couples the mixing maps too, so at 1.0 the modalities become
        # identical views (up to noise) and the gradient spaces collapse
        mix_v = np.sqrt(rho) * mix_shared + np.sqrt(1.0 - rho) * mix_v
        mix_t = np.sqrt(rho) * mix_shared + np.sqrt(1.0 - rho) * mix_t
    feats_v = factors_v @ mix_v.T + config.feature_noise * rng.normal(size=(I, config.feat_dim_v))
    feats_t = factors_t @ mix_t.T + config.feature_noise * rng.normal(size=(I, config.feat_dim_t))

    pool = np.sort(rng.choice(I, size=config.unpopular_count, replace=False)) \
        if config.unpopular_count else np.empty(0, dtype=np.int64)
    open_items = np.setdiff1d(np.arange(I), pool)

    held = np.zeros((U, I), dtype=bool)  # held[u, i]: user u consumed item i
    order = np.argsort(-affinity[:, open_items], axis=1, kind="stable")
    n_per = config.interactions_per_user
    for u in range(U):
        chosen = open_items[order[u, :n_per]]
        if config.interaction_noise > 0.0:
            flip = rng.uniform(size=n_per) < config.interaction_noise
            for j in np.nonzero(flip)[0]:
                chosen[j] = open_items[rng.integers(open_items.size)]
        held[u, chosen] = True

    # pool items: exactly n_unpop interactions, drawn from the most receptive users
    for i in pool:
        cand = np.argsort(-affinity[:, i], kind="stable")[:config.n_unpop * 5]
        held[rng.choice(cand, size=config.n_unpop, replace=False), i] = True

    # keep the pool the unique set of items at count n_unpop: an open item
    # with 1..n_unpop consumers gains its most receptive non-consumers until
    # it has n_unpop + 1
    if config.unpopular_count:
        counts = held.sum(axis=0)
        rank_users = np.argsort(-affinity, axis=0, kind="stable")
        for i in open_items[(counts[open_items] >= 1) & (counts[open_items] <= config.n_unpop)]:
            ranked = rank_users[:, i]
            held[ranked[~held[ranked, i]][:config.n_unpop + 1 - counts[i]], i] = True

    table = InteractionTable(U, I, *np.nonzero(held))
    return (table,
            FeatureMatrix("v", feats_v),
            FeatureMatrix("t", feats_t))


# ---------------------------------------------------------------------------
# splitting and sampling

def split_leave_one_out(table, seed):
    """Hold out one uniformly chosen item per user with >= 2 interactions.

    One array draw picks every hold-out; it takes the generator's stream as
    one ``integers(degree)`` call per eligible user in user order would."""
    rng = np.random.default_rng(seed)
    degree = np.diff(table.indptr)
    eligible = np.nonzero(degree >= 2)[0]
    picks = table.indptr[eligible] + rng.integers(degree[eligible])
    holdout = np.full(table.num_users, -1, dtype=np.int64)
    holdout[eligible] = table.items[picks]
    keep = np.ones(table.num_interactions, dtype=bool)
    keep[picks] = False
    return InteractionTable(table.num_users, table.num_items, table.users[keep],
                            table.items[keep], holdout=holdout)


class TripleSampler:
    """Uniform BPR triple sampler over training interactions.

    Owns a private RNG; draws are deterministic for a given seed and call
    sequence. Users are uniform over those with 0 < degree < I, positives
    uniform over the user's items, and negatives uniform over the user's
    unseen items by array rejection. Whole batches are drawn as arrays.
    """

    def __init__(self, table, seed):
        self.table = table
        self.rng = np.random.default_rng(seed)
        degree = np.diff(table.indptr)
        self.eligible = np.nonzero((degree > 0) & (degree < table.num_items))[0]
        if self.eligible.size == 0:
            raise DataError("no user has both training interactions and unseen items")
        if table.num_users * table.num_items >= 2 ** 63:
            raise DataError("the sampler's user * num_items + item keys overflow int64")
        # sorted, since the rows are user-major and sorted within each user
        self._keys = table.users * table.num_items + table.items

    def sample(self, batch_size):
        if batch_size < 1:
            raise DataError("batch_size must be >= 1")
        t, rng, keys = self.table, self.rng, self._keys
        users = self.eligible[rng.integers(self.eligible.size, size=batch_size)]
        start = t.indptr[users]
        pos = t.items[start + rng.integers(t.indptr[users + 1] - start)]
        negs = rng.integers(t.num_items, size=batch_size)
        slots = np.arange(batch_size)
        while slots.size:  # redraw only the slots whose negative the user holds
            q = users[slots] * t.num_items + negs[slots]
            slots = slots[keys[np.searchsorted(keys, q).clip(max=keys.size - 1)] == q]
            negs[slots] = rng.integers(t.num_items, size=slots.size)
        return users, pos, negs
