"""Recommender scorers: inner-product decoding over fused embeddings.

Items and users share one fusion recipe
    item:  concat(id_embed, phi(proj_v @ z_v), phi(proj_t @ z_t))
    user:  concat(id_embed, phi(proj_v @ mean_v), phi(proj_t @ mean_t))
where z_m is the item's modality feature and mean_m averages the features of
the user's training items. The concat model feeds raw features; the graph
model first smooths features over the user-item bipartite graph (one
symmetric-normalised round, Âᵀ(Â z), computed from the interaction table's
CSR arrays) and applies a trainable linear map per modality. Perturbations
are added to an item's raw feature, so under the graph model they reach
co-consumed items with the weights of ``DatasetEncoding.delta_column``.
User embeddings are always built from clean features.

One batched, traced forward (``Forward``) computes every embedding: the
training batches, an attacked or surveyed item as a 1-row batch, and, under
``ad.no_grad()``, the ranking tables of ``Scorer`` and the rows a
perturbation moves. Its operations carry traced VJPs, so the attacks and the
coordinated defence can differentiate through its first-order gradients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import DataError, read_matrix, read_struct, segment_positions

CHECKPOINT_MAGIC = b"UATM"
CHECKPOINT_VERSION = 1
_KIND_CODES = {"concat": 1, "graph": 2}
_PHI_CODES = {"identity": 0, "tanh": 1}
_USER_CODES = {"shared": 0, "id_only": 1}


@dataclass
class ModelParams:
    """All trainable parameters plus the architecture tags that shape them."""

    kind: str  # concat | graph
    phi: str  # identity | tanh
    user_content: str  # shared | id_only
    user_embeds: np.ndarray
    item_embeds: np.ndarray
    proj_v: np.ndarray
    proj_t: np.ndarray
    prop_v: np.ndarray | None = None
    prop_t: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise DataError(f"unknown model kind {self.kind!r}")
        if self.phi not in _PHI_CODES:
            raise DataError(f"unknown nonlinearity {self.phi!r}")
        if self.user_content not in _USER_CODES:
            raise DataError(f"unknown user content mode {self.user_content!r}")
        if any((self.kind == "graph") != (p is not None) for p in (self.prop_v, self.prop_t)):
            raise DataError("propagation weights present iff kind == 'graph'")
        d_total = self.item_embeds.shape[1] + 2 * self.proj_v.shape[0]
        expect_user = d_total if self.user_content == "id_only" else self.item_embeds.shape[1]
        if self.user_embeds.shape[1] != expect_user:
            raise DataError("user embedding width inconsistent with fusion layout")
        for a in self.arrays().values():
            if not np.all(np.isfinite(a)):
                raise DataError("non-finite parameter value")

    def arrays(self):
        out = {"user_embeds": self.user_embeds, "item_embeds": self.item_embeds,
               "proj_v": self.proj_v, "proj_t": self.proj_t}
        if self.kind == "graph":
            out["prop_v"] = self.prop_v
            out["prop_t"] = self.prop_t
        return out

    def clone(self):
        return ModelParams(self.kind, self.phi, self.user_content,
                           self.user_embeds.copy(), self.item_embeds.copy(),
                           self.proj_v.copy(), self.proj_t.copy(),
                           None if self.prop_v is None else self.prop_v.copy(),
                           None if self.prop_t is None else self.prop_t.copy())


def init_params(num_users, num_items, dim_v, dim_t, *, kind="concat", phi="tanh",
                user_content="shared", id_dim=32, fuse_dim=16, seed=0):
    """Gaussian(0, 0.01) initialisation; graph propagation maps start near
    identity so the modality path is alive at step one."""
    rng = np.random.default_rng(seed)
    scale = 0.01
    d_total = id_dim + 2 * fuse_dim
    user_dim = d_total if user_content == "id_only" else id_dim
    prop_v = prop_t = None
    if kind == "graph":
        prop_v = np.eye(dim_v) + scale * rng.normal(size=(dim_v, dim_v))
        prop_t = np.eye(dim_t) + scale * rng.normal(size=(dim_t, dim_t))
    return ModelParams(
        kind, phi, user_content,
        user_embeds=scale * rng.normal(size=(num_users, user_dim)),
        item_embeds=scale * rng.normal(size=(num_items, id_dim)),
        proj_v=scale * rng.normal(size=(fuse_dim, dim_v)),
        proj_t=scale * rng.normal(size=(fuse_dim, dim_t)),
        prop_v=prop_v, prop_t=prop_t)


# ---------------------------------------------------------------------------
# dataset-side constants shared by every forward pass

class DatasetEncoding:
    """Feature constants derived from one (table, features) triple.

    For the graph model this holds the smoothed item features Âᵀ(Â z), where
    Â[u, i] = 1 / sqrt(deg(u) deg(i)) over every interaction (u, i), and each
    item's self coefficient (ÂᵀÂ)[i, i]; ``delta_column`` gives the column of
    ÂᵀÂ that propagates a perturbation. All three are computed from the
    table's CSR arrays: ``weights`` holds Â's entry of each interaction, and
    the table's ``item_positions`` lists each item's interactions, so the
    memory grows with the number of interactions, not with U·I or I².
    Isolated items keep their raw feature (self coefficient 1).
    """

    def __init__(self, table, feats_v, feats_t, kind):
        if kind not in _KIND_CODES:
            raise DataError(f"unknown model kind {kind!r}")
        if feats_v.num_items != table.num_items or feats_t.num_items != table.num_items:
            raise DataError("feature row count does not match the item catalog")
        self.table = table
        self.kind = kind
        self.raw_v = feats_v.values
        self.raw_t = feats_t.values
        if kind == "graph":
            deg_u = np.diff(table.indptr)
            deg_i = table.item_counts()
            self.weights = 1.0 / np.sqrt(deg_u[table.users] * deg_i[table.items])
            isolated = deg_i == 0
            self.eff_v = self._smooth(self.raw_v)
            self.eff_t = self._smooth(self.raw_t)
            self.eff_v[isolated] = self.raw_v[isolated]
            self.eff_t[isolated] = self.raw_t[isolated]
            self.self_coef = np.bincount(table.items, weights=self.weights * self.weights,
                                         minlength=table.num_items)
            self.self_coef[isolated] = 1.0
        else:
            self.eff_v = self.raw_v
            self.eff_t = self.raw_t
            self.self_coef = np.ones(table.num_items)
        self.user_mean_v = _user_means(table, self.eff_v)
        self.user_mean_t = _user_means(table, self.eff_t)

    def _smooth(self, feats):
        """Âᵀ(Â feats): scatter to the users, then back to the items."""
        t, w = self.table, self.weights[:, None]
        by_user = ad.bincount_rows(t.users, w * feats[t.items], t.num_users)
        return ad.bincount_rows(t.items, w * by_user[t.users], t.num_items)

    def delta_column(self, i):
        """Per-item weights of a unit perturbation on item i's raw feature:
        Âᵀ(Â[:, i]), summed over the CSR rows of i's consumers (a unit column
        under the concat model and for an isolated item)."""
        t = self.table
        own = t.item_positions([i])[0]  # i's interactions
        if self.kind == "graph" and own.size:
            rows, lens = segment_positions(t.indptr, t.users[own])  # every consumer's CSR row
            return np.bincount(t.items[rows], minlength=t.num_items,
                               weights=np.repeat(self.weights[own], lens) * self.weights[rows])
        col = np.zeros(t.num_items)
        col[i] = 1.0
        return col


def _user_means(table, feats):
    """Per user, the mean feature row of their items (zeros without any)."""
    sums = ad.bincount_rows(table.users, feats[table.items], table.num_users)
    return sums / np.maximum(np.diff(table.indptr), 1)[:, None]


# ---------------------------------------------------------------------------
# the forward: one batched, traced encoder

class Forward:
    """One forward context: parameter nodes plus dataset constants.

    Every encoding is a batch of rows. Training moves each row by its own
    (B, d) delta row; an attacked or surveyed item is a 1-row batch whose
    deltas are (1, d) leaves; ranking runs the same calls under
    ``ad.no_grad()``. With ``trainable=True`` every parameter is a graph leaf
    that views its array, and ``param_leaves()`` lists them for ``ad.grad``:
    the optimiser changes the arrays in place only after the gradients are
    taken, and each product with a weight transposes it afresh. A frozen
    forward views the embedding tables, so they must not change while it is
    in use, and holds the projection and propagation weights as constants of
    its own, whose transposes are copied once and kept for every later
    encode and backward.
    """

    def __init__(self, params, enc, trainable=False):
        _check_shapes(params, enc)
        self.params = params
        self.enc = enc
        self.nodes = {name: ad.leaf(arr) if trainable else
                      ad.Tensor(arr) if name.endswith("_embeds") else ad.constant(arr)
                      for name, arr in params.arrays().items()}

    def param_names(self):
        return sorted(self.nodes)

    def param_leaves(self):
        return [self.nodes[n] for n in self.param_names()]

    def _content(self, feats, delta, coefs, modality):
        """phi(proj (prop) z) per row, z moved by the weighted delta."""
        z = ad.constant(feats)
        if delta is not None:
            z = ad.add(z, _weighted(delta, coefs))
        if self.params.kind == "graph":
            z = ad.matmul(z, ad.transpose(self.nodes[f"prop_{modality}"]))
        z = ad.matmul(z, ad.transpose(self.nodes[f"proj_{modality}"]))
        return ad.tanh(z) if self.params.phi == "tanh" else z

    def item_embedding_batch(self, idx, delta_v=None, delta_t=None, weights=None):
        """Fused embeddings of items ``idx``. A delta holds one row per item,
        and each row's move is scaled by its weight, by default the item's
        self coefficient."""
        idx = np.asarray(idx, dtype=np.int64)
        coefs = self.enc.self_coef[idx] if weights is None else weights
        e = ad.take_rows(self.nodes["item_embeds"], idx)
        cv = self._content(self.enc.eff_v[idx], delta_v, coefs, "v")
        ct = self._content(self.enc.eff_t[idx], delta_t, coefs, "t")
        return ad.hstack([e, cv, ct])

    def user_embedding_batch(self, users):
        users = np.asarray(users, dtype=np.int64)
        e = ad.take_rows(self.nodes["user_embeds"], users)
        if self.params.user_content == "id_only":
            return e
        cv = self._content(self.enc.user_mean_v[users], None, None, "v")
        ct = self._content(self.enc.user_mean_t[users], None, None, "t")
        return ad.hstack([e, cv, ct])


def _weighted(delta, coefs):
    """Per-row feature moves: coefs[b] times delta row b. Unit weights leave
    the delta node as it is: the same values, and fewer nodes for every
    backward to walk."""
    if np.all(coefs == 1.0):
        return delta
    return ad.mul(delta, ad.constant(np.repeat(coefs[:, None], delta.shape[1], axis=1)))


def _check_shapes(params, enc):
    """Parameters must fit the dataset they meet: the model kind the
    encoding was built for, one embedding row per user and per item, and
    projections over the feature dimensions."""
    if params.kind != enc.kind:
        raise DataError(f"a {params.kind} checkpoint cannot score a dataset "
                        f"encoded for the {enc.kind} model (model.kind)")
    dv, dt = enc.raw_v.shape[1], enc.raw_t.shape[1]
    need = {"user_embeds": (enc.table.num_users, None),
            "item_embeds": (enc.table.num_items, None),
            "proj_v": (None, dv), "proj_t": (None, dt), "prop_v": (dv, dv), "prop_t": (dt, dt)}
    for name, arr in params.arrays().items():
        want = tuple(have if w is None else w for have, w in zip(arr.shape, need[name]))
        if arr.shape != want:
            raise DataError(f"parameter block {name!r} has shape {arr.shape}, "
                            f"but the dataset needs {want}")


class Scorer:
    """Clean embedding tables for ranking and metrics: the forward over every
    user and every item under ``no_grad``."""

    def __init__(self, params, enc):
        self.params = params
        self.enc = enc
        self._forward = fw = Forward(params, enc)  # it views the embedding tables
        with ad.no_grad():
            self.item_matrix = fw.item_embedding_batch(np.arange(enc.table.num_items)).numpy()
            self.user_matrix = fw.user_embedding_batch(np.arange(enc.table.num_users)).numpy()

    def scores(self):
        """The clean U x I score matrix, computed on each call; the program
        itself scores blocks of rows (``metrics.RankCache.masked_rows``)."""
        return self.user_matrix @ self.item_matrix.T

    def perturbed_rows(self, target, delta_v, delta_t):
        """(row indices, replacement embedding rows) after perturbing the item
        of a hit-test record (``metrics.Target``): every row of its support,
        moved by its weight as an outer product, which the forward adds as is."""
        dv, dt = (ad.constant(np.outer(target.weights, d)) for d in (delta_v, delta_t))
        with ad.no_grad():
            rows = self._forward.item_embedding_batch(target.support, dv, dt,
                                                      weights=np.ones(target.support.size))
        return target.support, rows.numpy()


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(params, path):
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<B", _KIND_CODES[params.kind]))
        meta = np.array([[_PHI_CODES[params.phi], _USER_CODES[params.user_content]]],
                        dtype=np.float64)
        blocks = {"meta": meta, **params.arrays()}
        for name in sorted(blocks):
            arr = np.ascontiguousarray(blocks[name], dtype=np.float64)
            encoded = name.encode()
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def load_checkpoint(path):
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        (version,) = read_struct(fh, "<I", path, "version")
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        (kind_code,) = read_struct(fh, "<B", path, "model kind")
        blocks = {}
        while fh.peek(1):
            (name_len,) = read_struct(fh, "<H", path, "block name length")
            (raw_name,) = read_struct(fh, f"<{name_len}s", path, "block name")
            try:
                name = raw_name.decode()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: malformed block name ({exc})") from exc
            blocks[name] = read_matrix(fh, path, f"block {name!r}").copy()
    kinds = {v: k for k, v in _KIND_CODES.items()}
    phis = {v: k for k, v in _PHI_CODES.items()}
    users = {v: k for k, v in _USER_CODES.items()}
    try:
        kind = kinds[kind_code]
        meta = blocks.pop("meta")
        return ModelParams(kind, phis[int(meta[0, 0])], users[int(meta[0, 1])],
                           blocks["user_embeds"], blocks["item_embeds"],
                           blocks["proj_v"], blocks["proj_t"],
                           blocks.get("prop_v"), blocks.get("prop_t"))
    except (KeyError, IndexError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc})") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
