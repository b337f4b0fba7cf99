"""Micro-benchmarks on the tiny dataset: the graph encoding every command
builds at set-up, and the tape's hot paths, one survey user's dot product
and backward, one plain PGD step and one aligned PGD step. The tier-1 run
calls each once, as a smoke test (``--benchmark-disable`` in pyproject.toml's
``addopts``); time them with

    PYTHONPATH=src python -m pytest tests/test_benchmarks.py --benchmark-enable
"""

import numpy as np
import pytest

from mmadvrec import attacks, metrics
from mmadvrec import autodiff as ad
from mmadvrec.models import DatasetEncoding

from oracles import Reference, rel_err


@pytest.fixture(scope="module")
def objective(trained_concat):
    """The Promotion of one tiny-dataset item to its audience at k = 5."""
    params, enc = trained_concat
    users = attacks.promoted_user_set(enc.table, 3)
    return attacks.promotion(metrics.RankCache(params, enc), 3, users, 5)


def test_graph_encoding_setup(benchmark, tiny_dataset):
    """The graph smoothing and user means, checked against the dense
    per-user loops of ``oracles.Reference``."""
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = benchmark(DatasetEncoding, split, fv, ft, "graph")
    ref = Reference(split.user_items, split.num_items, fv.values, ft.values, "graph")
    for got, want in [(enc.eff_v, ref.eff_v), (enc.eff_t, ref.eff_t),
                      (enc.self_coef, ref.self_coef), (enc.user_mean_v, ref.user_mean_v),
                      (enc.user_mean_t, ref.user_mean_t)]:
        assert rel_err(got, want) <= 1e-12


def _deltas(objective):
    enc = objective.forward.enc
    return tuple(ad.leaf(np.zeros((1, raw.shape[1]))) for raw in (enc.raw_v, enc.raw_t))


def test_survey_user_dot_and_backward(benchmark, objective):
    """As the survey runs it: one backward per user through the target's one
    encoded row, whose tanh derivatives the first backward keeps."""
    dv, dt = _deltas(objective)
    h_i = objective.forward.item_embedding_batch([objective.item], dv, dt)
    row = ad.Tensor(objective.rows.numpy()[:1])
    g_v, g_t = benchmark(lambda: ad.grad(ad.dot(row, h_i), [dv, dt]))
    fresh = _deltas(objective)
    want = ad.grad(ad.dot(row, objective.forward.item_embedding_batch([objective.item], *fresh)),
                   list(fresh))
    assert [g.numpy().tobytes() for g in (g_v, g_t)] == [g.numpy().tobytes() for g in want]


@pytest.mark.parametrize("weight", [0.0, 1.0], ids=["plain", "aligned"])
def test_pgd_step(benchmark, objective, weight):
    """One attack step's forward and gradients; the aligned step adds the
    create-graph backward and the cosine of the two modality gradients."""

    def step():
        dv, dt = _deltas(objective)
        return attacks.ascent_gradients(objective.loss(dv, dt), [(dv, dt)], weight)

    grads, first, align = benchmark(step)
    assert (align is None) == (weight == 0.0)
    assert all(np.all(np.isfinite(g.numpy())) for g in grads + first)
