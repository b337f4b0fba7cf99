import numpy as np
import pytest

from mmadvrec import data, models, training


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


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(float(np.max(np.abs(exact))), 1e-10)
    return float(np.max(np.abs(approx - exact))) / scale


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
