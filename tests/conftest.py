import hashlib
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from mmadvrec import data, models, training

# the benchmark's independent oracles (perfbench/oracles.py) serve the tests too
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small synthetic dataset shared across test modules."""
    cfg = data.SynthConfig(num_users=80, num_items=50, latent_dim=6,
                           feat_dim_v=8, feat_dim_t=8, interactions_per_user=8,
                           unpopular_count=10, n_unpop=4)
    table, fv, ft = data.synth_generate(cfg, seed=101)
    split = data.split_leave_one_out(table, seed=102)
    return {"raw": table, "split": split, "fv": fv, "ft": ft, "synth": cfg}


def _trained(tiny_dataset, kind):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = models.DatasetEncoding(split, fv, ft, kind)
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind=kind, phi="tanh", id_dim=10, fuse_dim=6, seed=103)
    cfg = training.DefenseConfig(eta=0.01, beta=1e-5, batch_size=64, max_epochs=8,
                                 patience=8, seed=104, optimizer="adam")
    params, _ = training.pretrain(params, enc, fv, ft, cfg)
    return params, enc


@pytest.fixture(scope="session")
def trained_concat(tiny_dataset):
    return _trained(tiny_dataset, "concat")


@pytest.fixture(scope="session")
def trained_graph(tiny_dataset):
    return _trained(tiny_dataset, "graph")


def digest(*arrays):
    """sha256 of the arrays' values, floats as little-endian float64 and
    every other dtype as little-endian int64."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


def pinned_synth(**extra):
    """(table, fv, ft, split) of the small fixed synthetic config that the
    pinned-digest tests hash, with ``extra`` SynthConfig fields."""
    cfg = data.SynthConfig(**{**dict(num_users=60, num_items=40, latent_dim=4, feat_dim_v=5,
                                     feat_dim_t=5, interactions_per_user=6,
                                     interaction_noise=0.3, unpopular_count=8, n_unpop=3),
                              **extra})
    table, fv, ft = data.synth_generate(cfg, seed=11)
    return table, fv, ft, data.split_leave_one_out(table, seed=12)


def param_bytes(params):
    """Each parameter array's shape and bytes by name: equal exactly when
    two models' parameters are bitwise equal."""
    return {name: (a.shape, a.tobytes()) for name, a in params.arrays().items()}


def table_from_lists(num_items, lists, holdout=None):
    """An InteractionTable from per-user item lists (user u holds
    ``lists[u]``), flattened to the (users, items) arrays it is built from."""
    users = [u for u, row in enumerate(lists) for _ in row]
    items = [i for row in lists for i in row]
    return data.InteractionTable(len(lists), num_items, users, items, holdout=holdout)


def damaged_features(raw, edit):
    """A feature file's bytes after one edit: "nan" makes the first value
    NaN, "version N" writes format version N, "trailing" appends 8 bytes."""
    if edit == "trailing":
        return raw + bytes(8)
    if edit == "nan":
        return raw[:24] + struct.pack("<d", np.nan) + raw[32:]
    return raw[:4] + struct.pack("<I", int(edit.split()[1])) + raw[8:]


def _checkpoint_block(name, arr):
    arr = np.asarray(arr, dtype="<f8")
    return struct.pack("<H", len(name)) + name + struct.pack("<QQ", *arr.shape) + arr.tobytes()


def damaged_checkpoint(raw, edit):
    """A checkpoint file's bytes after one edit "<action> <target>":
    "version N" writes format version N; "drop", "rename" (to a name that is
    not UTF-8), "nan" (its first value) and "widen" (by one column) change
    the target block; "meta" replaces the meta block by the named values;
    "repeat" appends a second target block of other values, and "append" a
    1 x 1 block of the target name."""
    action, target = edit.split(" ", 1)
    if action == "version":
        return raw[:4] + struct.pack("<I", int(target)) + raw[8:]
    if action == "append":
        return raw + _checkpoint_block(target.encode(), [[0.0]])
    name = b"meta" if action == "meta" else target.encode()
    at = 9  # past the magic, the version and the kind code
    while True:
        (name_len,) = struct.unpack_from("<H", raw, at)
        rows, cols = struct.unpack_from("<QQ", raw, at + 2 + name_len)
        end = at + 2 + name_len + 16 + 8 * rows * cols
        if raw[at + 2:at + 2 + name_len] == name:
            break
        at = end
    values = np.frombuffer(raw[end - 8 * rows * cols:end], dtype="<f8").reshape(rows, cols)
    if action == "drop":
        block = b""
    elif action == "rename":
        block = _checkpoint_block(b"\xff" * len(name), values)
    elif action == "nan":
        values = values.copy()
        values.flat[0] = np.nan
        block = _checkpoint_block(name, values)
    elif action == "widen":
        block = _checkpoint_block(name, np.hstack([values, values[:, :1]]))
    elif action == "repeat":
        return raw + _checkpoint_block(name, values + 1.0)
    else:
        meta = {"(1, 1)": [[0.0]], "nan": [[np.nan, 0.0]], "inf": [[0.0, np.inf]]}[target]
        block = _checkpoint_block(name, meta)
    return raw[:at] + block + raw[end:]
