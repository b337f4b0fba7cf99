import math
from dataclasses import replace

import numpy as np
import pytest

from mmadvrec import autodiff as ad, data, metrics, models, training
from mmadvrec.attacks import ascent_gradients, budget_rows, to_sphere
from mmadvrec.data import DataError
from mmadvrec.models import DatasetEncoding
from mmadvrec.training import (Adam, DefenseConfig, DeltaBatch, SGD, bpr_loss, max_phase,
                               min_phase, pretrain, uat_mc_train)

from conftest import param_bytes, table_from_lists
from oracles import rel_err

KEYS = ("dv_pos", "dt_pos", "dv_neg", "dt_neg")


def max_ascent(params, enc, triples, fv, ft, alpha, at=None):
    """The max phase's coordinated ascent on the perturbed BPR loss, at zero
    or at the given deltas: (delta leaves by key, objective gradients, loss
    value, alignment node)."""
    n = len(triples[0])
    dims = (fv.dim, ft.dim, fv.dim, ft.dim)
    at = at or {k: np.zeros((n, d)) for k, d in zip(KEYS, dims)}
    nodes = {k: ad.leaf(at[k]) for k in KEYS}
    loss = bpr_loss(params, enc, triples, deltas=nodes)
    leaves = list(nodes.values())
    grads, _, align = ascent_gradients(loss, [leaves[:2], leaves[2:]], alpha)
    return nodes, grads, loss.item(), align


def alignment(params, enc, triples, fv, ft, at=None):
    """Value and delta-gradients of the max phase's alignment node."""
    nodes, _, _, align = max_ascent(params, enc, triples, fv, ft, 1.0, at=at)
    grads = ad.grad(align, list(nodes.values()))
    return {k: g.numpy() for k, g in zip(nodes, grads)}, align.item()


def constants(delta_batch):
    """A DeltaBatch as the constant perturbation nodes ``bpr_loss`` takes."""
    return {k: ad.constant(v) for k, v in vars(delta_batch).items()}


def zero_model(split, fv, ft, phi="identity"):
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind="concat", phi=phi, id_dim=6, fuse_dim=4, seed=0)
    for arr in params.arrays().values():
        arr[:] = 0.0
    return params, enc


@pytest.fixture(scope="module")
def scene(tiny_dataset, trained_concat):
    params, enc = trained_concat
    return params, enc, tiny_dataset["fv"], tiny_dataset["ft"], tiny_dataset["split"]


def test_bpr_loss_tied_scores(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    params, enc = zero_model(split, fv, ft)
    one = (np.array([0]), np.array([1]), np.array([2]))
    assert bpr_loss(params, enc, one).item() == pytest.approx(math.log(2), abs=1e-12)
    two = (np.array([0, 1]), np.array([1, 2]), np.array([2, 3]))
    assert bpr_loss(params, enc, two).item() == pytest.approx(2 * math.log(2), abs=1e-12)
    assert bpr_loss(params, enc, two, reduction="mean").item() == pytest.approx(
        math.log(2), abs=1e-12)


def test_bpr_loss_large_margin_vanishes(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    params, enc = zero_model(split, fv, ft)
    params.user_embeds[0, 0] = 10.0
    params.item_embeds[1, 0] = 10.0
    params.item_embeds[2, 0] = -10.0
    one = (np.array([0]), np.array([1]), np.array([2]))
    assert bpr_loss(params, enc, one).item() == pytest.approx(0.0, abs=1e-12)


def test_adversarial_loss_zero_delta_equals_clean(scene):
    params, enc, fv, ft, split = scene
    triples = data.TripleSampler(split, seed=3).sample(8)
    clean = bpr_loss(params, enc, triples).item()
    zeros = DeltaBatch(np.zeros((8, fv.dim)), np.zeros((8, ft.dim)),
                       np.zeros((8, fv.dim)), np.zeros((8, ft.dim)))
    adv = bpr_loss(params, enc, triples, deltas=constants(zeros)).item()
    assert adv == clean


def test_adversarial_loss_fd_wrt_delta(scene):
    params, enc, fv, ft, split = scene
    triples = data.TripleSampler(split, seed=4).sample(3)
    rng = np.random.default_rng(5)
    at = {k: 0.05 * rng.normal(size=(3, fv.dim))
          for k in ("dv_pos", "dt_pos", "dv_neg", "dt_neg")}
    nodes = {k: ad.leaf(v) for k, v in at.items()}
    loss = bpr_loss(params, enc, triples, deltas=nodes)
    grads = ad.grad(loss, list(nodes.values()))

    def f(vs):
        trial = dict(zip(nodes.keys(), (ad.constant(v) for v in vs)))
        return bpr_loss(params, enc, triples, deltas=trial).item()

    fd = ad.fd_gradient(f, [at[k] for k in nodes], step=1e-5)
    for g, fg in zip(grads, fd):
        assert rel_err(g.numpy(), fg) < 1e-6


def test_adversarial_loss_finite_at_budget_boundary(scene):
    params, enc, fv, ft, split = scene
    triples = data.TripleSampler(split, seed=6).sample(4)
    _, pos, neg = triples
    eps_vp = 0.10 * np.linalg.norm(fv.values[pos], axis=1, keepdims=True)
    delta = DeltaBatch(eps_vp * np.ones((4, fv.dim)) / math.sqrt(fv.dim),
                       np.zeros((4, ft.dim)),
                       np.zeros((4, fv.dim)), np.zeros((4, ft.dim)))
    assert np.isfinite(bpr_loss(params, enc, triples, deltas=constants(delta)).item())


def test_min_phase_eta_zero_keeps_params(scene):
    params, enc, fv, ft, split = scene
    work = params.clone()
    before = param_bytes(work)
    cfg = DefenseConfig(lambda_=0.0, beta=0.0, eta=1.0, seed=0)
    min_phase(work, enc, data.TripleSampler(split, seed=7).sample(4), None, cfg, SGD(0.0))
    assert param_bytes(work) == before


def test_min_phase_lambda_beta_zero_is_plain_bpr_step(scene):
    params, enc, fv, ft, split = scene
    triples = data.TripleSampler(split, seed=8).sample(8)
    cfg = DefenseConfig(lambda_=0.0, beta=0.0, eta=0.05, seed=0)
    a = params.clone()
    min_phase(a, enc, triples, None, cfg, SGD(0.05))
    # manual plain BPR step
    b = params.clone()
    fw = models.Forward(b, enc, trainable=True)
    loss = bpr_loss(b, enc, triples, forward=fw)
    grads = ad.grad(loss, fw.param_leaves())
    for name, g in zip(fw.param_names(), grads):
        b.arrays()[name] -= 0.05 * g.numpy()
    assert param_bytes(a) == param_bytes(b)


def test_min_phase_beta_only_shrinks_params(scene):
    params, enc, fv, ft, split = scene
    work = params.clone()
    # beta-only weight decay: freeze the ranking term by zeroing eta first?
    # instead take one step with beta >> 0 and lambda = 0 on a zero-gradient
    # batch: use a tied-score model where the bpr gradient is zero
    zero, enc0 = zero_model(split, fv, ft)
    zero.user_embeds[:] = 0.5
    zero.item_embeds[:] = 0.5
    norm_before = np.linalg.norm(zero.user_embeds)
    cfg = DefenseConfig(lambda_=0.0, beta=1.0, eta=0.1, seed=0)
    triples = (np.array([0]), np.array([1]), np.array([1]))  # pos == neg, zero grad
    min_phase(zero, enc0, triples, None, cfg, SGD(0.1))
    assert np.linalg.norm(zero.user_embeds) < norm_before


def test_min_phase_fd_on_parameter_coordinate(scene):
    params, enc, fv, ft, split = scene
    triples = data.TripleSampler(split, seed=9).sample(4)
    delta, _ = max_phase(params, enc, triples,
                         DefenseConfig(mode="uat", eps_d_pct=0.1, eta=0.1, seed=0),
                         fv, ft)
    cfg = DefenseConfig(lambda_=0.7, beta=0.01, eta=1.0, seed=0)
    fw = models.Forward(params, enc, trainable=True)
    loss = bpr_loss(params, enc, triples, forward=fw)
    adv = bpr_loss(params, enc, triples, forward=fw, deltas=constants(delta))
    reg = training._reg_loss(fw)
    total = ad.add(ad.add(loss, ad.mul(ad.constant(0.7), adv)),
                   ad.mul(ad.constant(0.01), reg))
    grads = dict(zip(fw.param_names(), ad.grad(total, fw.param_leaves())))

    def value_at(name, index, v):
        work = params.clone()
        work.arrays()[name].reshape(-1)[index] = v
        fw2 = models.Forward(work, enc, trainable=False)
        l2 = bpr_loss(work, enc, triples, forward=fw2)
        a2 = bpr_loss(work, enc, triples, forward=fw2, deltas=constants(delta))
        r2 = sum(float(np.sum(arr * arr)) for arr in work.arrays().values())
        return l2.item() + 0.7 * a2.item() + 0.01 * r2

    rng = np.random.default_rng(10)
    for name in ("proj_v", "item_embeds"):
        index = int(rng.integers(params.arrays()[name].size))
        x0 = params.arrays()[name].reshape(-1)[index]
        h = 1e-5
        fd = (value_at(name, index, x0 + h) - value_at(name, index, x0 - h)) / (2 * h)
        got = grads[name].numpy().reshape(-1)[index]
        assert abs(got - fd) / max(abs(fd), 1e-8) < 1e-5


def test_max_phase_alpha_zero_is_normalised_first_order(scene):
    params, enc, fv, ft, split = scene
    triples = data.TripleSampler(split, seed=11).sample(4)
    cfg = DefenseConfig(mode="uat", eps_d_pct=0.1, eta=0.1, seed=0)
    delta, align_value = max_phase(params, enc, triples, cfg, fv, ft)
    assert align_value == 0.0
    # at alpha = 0 the ascent is one plain backward of the perturbed loss
    nodes, grads, _, align = max_ascent(params, enc, triples, fv, ft, cfg.effective_alpha)
    assert align is None
    plain = ad.grad(bpr_loss(params, enc, triples, deltas=nodes), list(nodes.values()))
    for g, p in zip(grads, plain):
        assert np.array_equal(g.numpy(), p.numpy())
    _, pos, _ = triples
    eps = 0.1 * np.linalg.norm(fv.values[pos], axis=1)
    for b in range(4):
        g = grads[0].numpy()[b]
        if np.linalg.norm(g) > 0:
            expect = eps[b] * g / np.linalg.norm(g)
            assert np.allclose(delta.dv_pos[b], expect, atol=1e-12)
            assert abs(np.linalg.norm(delta.dv_pos[b]) - eps[b]) < 1e-9


def test_max_phase_never_mutates_params(scene):
    params, enc, fv, ft, split = scene
    before = param_bytes(params)
    triples = data.TripleSampler(split, seed=12).sample(4)
    max_phase(params, enc, triples,
              DefenseConfig(mode="uat_mc", alpha=1.0, eps_d_pct=0.1, eta=0.1, seed=0),
              fv, ft)
    assert param_bytes(params) == before


def test_max_phase_tape_matches_fd_route(scene):
    params, enc, fv, ft, split = scene
    triples = data.TripleSampler(split, seed=13).sample(2)
    cfg = DefenseConfig(mode="uat_mc", alpha=1.0, eps_d_pct=0.1, eta=0.1, seed=0)
    _, grads, _, _ = max_ascent(params, enc, triples, fv, ft, cfg.effective_alpha)
    g_tape = [g.numpy() for g in grads]

    def objective(arrays):
        _, _, loss, align = max_ascent(params, enc, triples, fv, ft, cfg.effective_alpha,
                                       at=dict(zip(KEYS, arrays)))
        return loss + cfg.effective_alpha * align.item()

    g_fd = ad.fd_gradient(objective, [np.zeros_like(g) for g in g_tape])
    for g, fd in zip(g_tape, g_fd):
        assert rel_err(g, fd) < 1e-4
    # the max phase moves each delta row to its budget sphere along them
    delta, _ = max_phase(params, enc, triples, cfg, fv, ft)
    _, pos, neg = triples
    for key, g, feats, items in zip(KEYS, g_tape, (fv, ft, fv, ft), (pos, pos, neg, neg)):
        expect = to_sphere(g, budget_rows(feats, items, cfg.eps_d_pct))
        assert np.array_equal(getattr(delta, key), expect)


def test_alignment_bounds(scene):
    params, enc, fv, ft, split = scene
    for seed in range(5):
        triples = data.TripleSampler(split, seed=20 + seed).sample(6)
        _, value = alignment(params, enc, triples, fv, ft)
        assert -2.0 - 1e-9 <= value <= 2.0 + 1e-9


def test_linear_fusion_alignment_degeneracy(scene, tiny_dataset):
    params, enc, fv, ft, split = scene
    # same trained magnitudes, identity nonlinearity
    ident = models.ModelParams("concat", "identity", "shared",
                               params.user_embeds.copy(), params.item_embeds.copy(),
                               params.proj_v.copy(), params.proj_t.copy())
    rng = np.random.default_rng(30)
    for seed in range(6):
        triples = data.TripleSampler(split, seed=40 + seed).sample(1)
        grads, _ = alignment(ident, enc, triples, fv, ft)
        assert max(np.linalg.norm(g) for g in grads.values()) < 1e-9
        # and the value itself is invariant to the evaluation point
        at = {k: 0.05 * rng.normal(size=(1, fv.dim))
              for k in ("dv_pos", "dt_pos", "dv_neg", "dt_neg")}
        _, v0 = alignment(ident, enc, triples, fv, ft)
        _, v1 = alignment(ident, enc, triples, fv, ft, at=at)
        assert abs(v0 - v1) < 1e-9
        # tanh fusion is generically non-degenerate
        grads_t, _ = alignment(params, enc, triples, fv, ft)
        assert max(np.linalg.norm(g) for g in grads_t.values()) > 1e-6


def test_pretrain_improves_over_random_init(scene, tiny_dataset):
    params, enc, fv, ft, split = scene
    fresh = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                               kind="concat", phi="tanh", id_dim=10, fuse_dim=6,
                               seed=103)
    r0, _ = metrics.recall_ndcg(fresh, enc, k=10)
    r1, _ = metrics.recall_ndcg(params, enc, k=10)
    assert r1 > r0


def test_pretrain_deterministic(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    fresh = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                               kind="concat", id_dim=8, fuse_dim=5, seed=50)
    cfg = DefenseConfig(eta=0.02, beta=1e-5, batch_size=32, max_epochs=3, seed=51)
    a, log_a = pretrain(fresh, enc, fv, ft, cfg)
    b, log_b = pretrain(fresh, enc, fv, ft, cfg)
    assert param_bytes(a) == param_bytes(b)
    assert log_a.rows == log_b.rows


def test_early_stopping_returns_the_best_epoch(tiny_dataset):
    """With patience 0, the first evaluation that does not beat the best
    stops the fit. A learning rate of 1e-12 leaves the recall of epoch 2 at
    epoch 1's, so the fit ends after 2 of 6 epochs with epoch 1's model."""
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    fresh = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                               kind="concat", id_dim=8, fuse_dim=5, seed=52)
    cfg = DefenseConfig(eta=1e-12, beta=1e-5, batch_size=32, max_epochs=6, patience=0,
                        seed=53, optimizer="adam")
    best, log = pretrain(fresh, enc, fv, ft, cfg)
    assert [r["epoch"] for r in log.rows] == [1, 2]
    assert log.rows[1]["val_recall10"] <= log.rows[0]["val_recall10"]
    epoch_1, _ = pretrain(fresh, enc, fv, ft, replace(cfg, max_epochs=1))
    assert param_bytes(best) == param_bytes(epoch_1)
    assert param_bytes(best) != param_bytes(fresh)


def test_degeneracy_chain_bitwise(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    base = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                              kind="concat", id_dim=8, fuse_dim=5, seed=60)
    # 5 seeded single-epoch runs (5 batches each)
    for seed in range(5):
        common = dict(beta=1e-4, eta=0.05, batch_size=32, max_epochs=1, seed=70 + seed)
        uat_mc_a0 = DefenseConfig(mode="uat_mc", alpha=0.0, lambda_=1.0, **common)
        uat_cfg = DefenseConfig(mode="uat", alpha=9.0, lambda_=1.0, **common)
        a, _ = uat_mc_train(base, enc, fv, ft, uat_mc_a0)
        b, _ = uat_mc_train(base, enc, fv, ft, uat_cfg)
        assert param_bytes(a) == param_bytes(b)

        lam0 = DefenseConfig(mode="uat", alpha=0.0, lambda_=0.0, **common)
        c, _ = uat_mc_train(base, enc, fv, ft, lam0)
        d_, _ = pretrain(base, enc, fv, ft, DefenseConfig(**common))
        assert param_bytes(c) == param_bytes(d_)


def test_uat_mc_logs_alignment(tiny_dataset, trained_concat):
    params, enc = trained_concat
    fv, ft = tiny_dataset["fv"], tiny_dataset["ft"]
    cfg = DefenseConfig(mode="uat_mc", alpha=1.0, lambda_=1.0, eta=0.01, beta=1e-5,
                        batch_size=32, max_epochs=2, seed=80, optimizer="adam")
    _, log = uat_mc_train(params, enc, fv, ft, cfg)
    assert any(r["align_mean"] != 0.0 for r in log.rows)
    cfg_uat = DefenseConfig(mode="uat", alpha=1.0, lambda_=1.0, eta=0.01, beta=1e-5,
                            batch_size=32, max_epochs=2, seed=80, optimizer="adam")
    _, log = uat_mc_train(params, enc, fv, ft, cfg_uat)
    assert all(r["align_mean"] == 0.0 for r in log.rows)


def test_defense_reduces_attack_gain_smoke(tiny_dataset, trained_concat):
    from mmadvrec import attacks
    params, enc = trained_concat
    fv, ft, raw = tiny_dataset["fv"], tiny_dataset["ft"], tiny_dataset["raw"]
    cfg = DefenseConfig(mode="uat_mc", alpha=1.0, lambda_=1.0, eta=0.01, beta=1e-5,
                        eps_d_pct=0.10, batch_size=64, max_epochs=6, seed=90,
                        optimizer="adam", patience=10)
    defended, _ = uat_mc_train(params, enc, fv, ft, cfg)
    targets = metrics.select_targets(raw, 6, n_unpop=4, seed=13)
    acfg = attacks.AttackConfig(variant="fgsm", eps_pct=0.10, k=10)

    def mean_gain(model):
        cache = metrics.RankCache(model, enc)
        before, after = [], []
        for i in targets:
            pert, _ = attacks.run_attack(model, enc, fv, ft, int(i), acfg, cache=cache)
            before.append(metrics.hit_at_k(model, enc, int(i), 10, cache=cache))
            after.append(metrics.hit_at_k(model, enc, int(i), 10,
                                          delta=(pert.delta_v, pert.delta_t),
                                          cache=cache))
        return metrics.gain_hit(float(np.mean(before)), float(np.mean(after)))

    g_plain = mean_gain(params)
    g_def = mean_gain(defended)
    assert g_def < g_plain


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts():
    split = table_from_lists(6, [[0, 1], [1, 2], [2, 3], [3, 4]])
    split = data.split_leave_one_out(split, seed=0)
    fv = data.FeatureMatrix("v", np.ones((6, 3)))
    ft = data.FeatureMatrix("t", np.ones((6, 3)))
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(4, 6, 3, 3, kind="concat", id_dim=4, fuse_dim=3, seed=1)
    cfg = DefenseConfig(eta=1e12, beta=1e12, batch_size=4, max_epochs=50,
                        patience=100, seed=2)
    with pytest.raises(training.NumericalError):
        pretrain(params, enc, fv, ft, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("make", [lambda: SGD(0.0), lambda: SGD(0.1), lambda: Adam(0.0),
                                  lambda: Adam(0.01)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_optimizer_names_a_non_finite_gradient(make, bad):
    params = models.init_params(4, 6, 3, 3, kind="concat", id_dim=4, fuse_dim=3, seed=1)
    grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    grads["proj_t"][1, 2] = bad
    with pytest.raises(training.NumericalError, match="non-finite gradient for proj_t"):
        make().step(params, grads)
    grads["proj_t"][1, 2] = 1e300
    with pytest.raises(training.NumericalError, match="parameter proj_t diverged"):
        SGD(1e300).step(params, grads)


def test_adam_deterministic_and_distinct_from_sgd(tiny_dataset):
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["ft"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    fresh = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                               kind="concat", id_dim=8, fuse_dim=5, seed=91)
    sgd_cfg = DefenseConfig(eta=0.02, batch_size=32, max_epochs=2, seed=92)
    adam_cfg = DefenseConfig(eta=0.02, batch_size=32, max_epochs=2, seed=92,
                             optimizer="adam")
    a, _ = pretrain(fresh, enc, fv, ft, adam_cfg)
    b, _ = pretrain(fresh, enc, fv, ft, adam_cfg)
    c, _ = pretrain(fresh, enc, fv, ft, sgd_cfg)
    assert param_bytes(a) == param_bytes(b)
    assert param_bytes(a) != param_bytes(c)


def test_adam_steps_equal_the_textbook_formula_bitwise():
    # the allocating form, kept as the oracle of the in-place step
    params = models.init_params(4, 6, 3, 3, kind="graph", id_dim=4, fuse_dim=3, seed=5)
    want = {k: a.copy() for k, a in params.arrays().items()}
    m = {k: np.zeros_like(a) for k, a in want.items()}
    v = {k: np.zeros_like(a) for k, a in want.items()}
    opt, rng = Adam(0.01), np.random.default_rng(6)
    for t in range(1, 6):
        grads = {k: rng.normal(size=a.shape) * 10.0 ** rng.integers(-4, 4, size=a.shape)
                 for k, a in want.items()}
        opt.step(params, grads)
        for k, g in grads.items():
            m[k] = m[k] * Adam.BETA1 + (1 - Adam.BETA1) * g
            v[k] = v[k] * Adam.BETA2 + (1 - Adam.BETA2) * g * g
            m_hat = m[k] / (1 - Adam.BETA1 ** t)
            v_hat = v[k] / (1 - Adam.BETA2 ** t)
            want[k] = want[k] - 0.01 * m_hat / (np.sqrt(v_hat) + Adam.EPS)
        for k, a in params.arrays().items():
            assert np.array_equal(a, want[k]), (t, k)
