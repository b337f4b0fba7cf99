"""Micro-benchmarks: on the tiny dataset, the graph encoding every command
builds at set-up and the tape's hot paths, one survey user's dot product and
backward, one plain PGD step and one aligned PGD step; on a graph model over
2000 users x 3000 items, one pretraining step. The tier-1 run calls each
once, as a smoke test (``--benchmark-disable`` in pyproject.toml's
``addopts``); time them with

    PYTHONPATH=src python -m pytest tests/test_benchmarks.py --benchmark-enable
"""

import numpy as np
import pytest

from mmadvrec import attacks, data, metrics, models
from mmadvrec import autodiff as ad
from mmadvrec.models import DatasetEncoding
from mmadvrec.training import Adam, DefenseConfig, bpr_loss, min_phase

from conftest import param_bytes
from oracles import Reference, rel_err
from reference import full_table_min_phase


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


def test_graph_pretraining_step(benchmark):
    """One ``min_phase`` with weight decay and Adam on a graph model over 2000
    users x 3000 items with 32-wide id embeddings, a 256-triple batch: tables
    large enough for any dense work besides Adam's to show. Each round takes
    its step from the same parameters, with an optimiser one step in; the
    last round's parameters must equal two reference steps' bitwise, on the
    tape whose leaves are the whole tables."""
    table, fv, ft = data.synth_generate(data.SynthConfig(num_users=2000, num_items=3000), seed=7)
    split = data.split_leave_one_out(table, seed=8)
    enc = DatasetEncoding(split, fv, ft, "graph")
    start = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim, kind="graph",
                               id_dim=32, fuse_dim=16, seed=9)
    triples = data.TripleSampler(split, seed=10).sample(256)
    cfg = DefenseConfig(lambda_=0.0, alpha=0.0, beta=1e-5, optimizer="adam")
    last = []

    def one_step_in():
        work, optimizer = start.clone(), Adam(cfg.eta)
        min_phase(work, enc, triples, None, cfg, optimizer)
        last[:] = [work]
        return (work, enc, triples, None, cfg, optimizer), {}

    benchmark.pedantic(min_phase, setup=one_step_in, rounds=50)
    want, optimizer = start.clone(), Adam(cfg.eta)
    for _ in range(2):
        full_table_min_phase(ad, models.Forward, bpr_loss, want, enc, triples, None, cfg,
                             optimizer)
    assert param_bytes(last[0]) == param_bytes(want)
