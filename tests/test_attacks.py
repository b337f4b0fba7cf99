import hashlib

import numpy as np
import pytest

from mmadvrec import attacks, autodiff as ad, cli, data, metrics, models
from mmadvrec.attacks import (AttackConfig, Perturbation, Promotion, ascent_gradients,
                              budget_rows, promoted_user_set, promotion, run_attack,
                              to_sphere)
from mmadvrec.metrics import RankCache, hit_at_k
from mmadvrec.models import DatasetEncoding

from conftest import param_bytes, table_from_lists
from oracles import rel_err
from reference import fd_gradient


@pytest.fixture(scope="module")
def scene(trained_concat, tiny_dataset):
    params, enc = trained_concat
    cache = RankCache(params, enc)
    targets = metrics.select_targets(tiny_dataset["raw"], 8, n_unpop=4, seed=3)
    return params, enc, tiny_dataset["fv"], tiny_dataset["ft"], cache, targets


def test_perturbation_budget_invariant():
    Perturbation([0.6, 0.8], [0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        Perturbation([3.0, 4.0], [0.0, 0.0], 1.0, 1.0)


def test_resolve_budget():
    f = data.FeatureMatrix("v", np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 0.0]]))
    assert budget_rows(f, [0], 0.10)[0] == pytest.approx(0.5, abs=1e-12)
    assert budget_rows(f, [1], 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert budget_rows(f, [2], 0.10)[0] == 0.0
    assert np.allclose(budget_rows(f, [2, 0, 0, 1], 0.10), [0.0, 0.5, 0.5, 0.1], atol=1e-12)
    grid = [budget_rows(f, [0], pct)[0] for pct in (0.025, 0.05, 0.075, 0.10)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_promotion_loss_trivials(scene):
    params, enc, fv, ft, cache, targets = scene
    i = int(targets[0])
    users = promoted_user_set(enc.table, i)[:2]
    dv, dt = ad.leaf(np.zeros((1, fv.dim))), ad.leaf(np.zeros((1, ft.dim)))
    fw = models.Forward(params, enc)
    h_i = fw.item_embedding_batch([i]).numpy()[0]
    base = cache.scorer.user_matrix[users] @ h_i
    # margins engineered to (0, ln 3): sigma gives (0.5, 0.75)
    rows = cache.scorer.user_matrix[users]
    thr = np.array([base[0], base[1] - np.log(3.0)])
    loss = Promotion(fw, i, users, rows, thr).loss(dv, dt)
    assert loss.item() == pytest.approx(0.625, abs=1e-12)
    # saturation: margin -> +inf limit gives 1
    loss = Promotion(fw, i, users, rows, base - 50.0).loss(dv, dt)
    assert loss.item() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(data.DataError):
        promotion(cache, i, np.array([], dtype=np.int64), 5)


def test_scaled_unit_direction():
    g = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]])
    assert np.allclose(to_sphere(g, 1.0), [[0.6, 0.8], [0.0, 0.0], [0.0, -1.0]], atol=1e-12)
    # one radius per row; a zero row stays zero whatever its radius
    moved = to_sphere(g, np.array([2.0, 5.0, 0.5]))
    assert np.allclose(moved, [[1.2, 1.6], [0.0, 0.0], [0.0, -0.5]], atol=1e-12)
    assert np.all(moved[1] == 0.0)
    assert np.all(to_sphere(g, 0.0) == 0.0)


def assert_on_sphere(pert):
    """Each delta ends on its budget sphere (none of these targets has a zero
    budget or a zero gradient)."""
    for delta, eps in ((pert.delta_v, pert.eps_v), (pert.delta_t, pert.eps_t)):
        assert abs(np.linalg.norm(delta) - eps) < 1e-9


def test_fgsm_budget_exact(scene):
    params, enc, fv, ft, cache, targets = scene
    cfg = AttackConfig(variant="fgsm", eps_pct=0.10, k=10)
    for i in targets[:4]:
        pert, trace = run_attack(params, enc, fv, ft, int(i), cfg, cache=cache)
        assert_on_sphere(pert)
        assert len(trace) == 1


def test_fgsm_improves_hit_on_trained_model(scene):
    params, enc, fv, ft, cache, targets = scene
    cfg = AttackConfig(variant="fgsm", eps_pct=0.10, k=10)
    before_sum = after_sum = 0.0
    for i in targets:
        i = int(i)
        pert, _ = run_attack(params, enc, fv, ft, i, cfg, cache=cache)
        before_sum += hit_at_k(params, enc, i, 10, cache=cache)
        after_sum += hit_at_k(params, enc, i, 10,
                              delta=(pert.delta_v, pert.delta_t), cache=cache)
    assert after_sum >= before_sum
    assert after_sum > 0


def test_pgd_feasible_every_iterate(scene):
    params, enc, fv, ft, cache, targets = scene
    i = int(targets[1])
    eps_v = budget_rows(fv, [i], 0.10)[0]
    eps_t = budget_rows(ft, [i], 0.10)[0]

    # re-run the loop manually to check every iterate, not just the last
    cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=6, k=10)
    objective = promotion(cache, i, promoted_user_set(enc.table, i), cfg.k)
    delta_v = np.zeros(fv.dim)
    delta_t = np.zeros(ft.dim)
    for _ in range(cfg.pgd_steps):
        dv, dt = ad.leaf(delta_v[None, :]), ad.leaf(delta_t[None, :])
        gv, gt = ad.grad(objective.loss(dv, dt), [dv, dt])
        mv = to_sphere(gv.numpy(), 1.25 * eps_v / cfg.pgd_steps)[0]
        mt = to_sphere(gt.numpy(), 1.25 * eps_t / cfg.pgd_steps)[0]
        delta_v = attacks._project(delta_v + mv, eps_v)
        delta_t = attacks._project(delta_t + mt, eps_t)
        assert np.linalg.norm(delta_v) <= eps_v + 1e-9
        assert np.linalg.norm(delta_t) <= eps_t + 1e-9


def test_pgd_single_step_hits_sphere(scene):
    params, enc, fv, ft, cache, targets = scene
    i = int(targets[2])
    cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=1, k=10)
    pert, trace = run_attack(params, enc, fv, ft, i, cfg, cache=cache)
    # step size 1.25*eps exceeds the ball, so projection lands on the boundary
    assert_on_sphere(pert)
    assert len(trace) == 1


def test_pgd_trace_monotone_single_user_identity():
    # item 5 is new to user 5 alone, so the attack promotes it to one user;
    # with identity phi that user's score is linear in the deltas
    table = table_from_lists(8, [[0, 5], [1, 5], [2, 5], [3, 5], [4, 5], [6, 7]])
    rng = np.random.default_rng(31)
    fv = data.FeatureMatrix("v", rng.normal(size=(8, 4)))
    ft = data.FeatureMatrix("t", rng.normal(size=(8, 4)))
    enc = DatasetEncoding(table, fv, ft, "concat")
    params = models.init_params(6, 8, fv.dim, ft.dim, kind="concat", phi="identity",
                                id_dim=4, fuse_dim=3, seed=31)
    i = 5
    assert promoted_user_set(table, i).tolist() == [5]
    cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=8, k=2)
    pert, trace = run_attack(params, enc, fv, ft, i, cfg)
    losses = [loss for _, loss, _, _ in trace]
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] > losses[0]


def test_pgd_beats_fgsm_on_average(scene):
    params, enc, fv, ft, cache, targets = scene
    wins = []
    for i in targets:
        i = int(i)
        f_cfg = AttackConfig(variant="fgsm", eps_pct=0.10, k=10)
        p_cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=10, k=10)
        _, f_trace = run_attack(params, enc, fv, ft, i, f_cfg, cache=cache)
        _, p_trace = run_attack(params, enc, fv, ft, i, p_cfg, cache=cache)
        wins.append(p_trace[-1][1] - f_trace[-1][1])  # the last steps' promotion losses
    assert np.mean(wins) >= 0


def test_attack_never_mutates_params(scene):
    params, enc, fv, ft, cache, targets = scene
    before = param_bytes(params)
    cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=3, k=10, with_align=True)
    run_attack(params, enc, fv, ft, int(targets[0]), cfg, cache=cache)
    assert param_bytes(params) == before


def test_attack_deterministic(scene):
    params, enc, fv, ft, cache, targets = scene
    cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=4, k=10)
    a, _ = run_attack(params, enc, fv, ft, int(targets[3]), cfg, cache=cache)
    b, _ = run_attack(params, enc, fv, ft, int(targets[3]), cfg, cache=cache)
    assert a.delta_v.tobytes() == b.delta_v.tobytes()
    assert a.delta_t.tobytes() == b.delta_t.tobytes()


def align_ascent(objective, deltas, weight=1.0):
    """The attack's coordinated ascent on a Promotion's loss with its one
    (visual, textual) delta pair: (loss, objective gradients, loss
    gradients, alignment node)."""
    loss = objective.loss(*deltas)
    grads, loss_grads, align = ascent_gradients(loss, [deltas], weight)
    return loss, grads, loss_grads, align


def test_align_loss_bounds_and_symmetry(scene):
    params, enc, fv, ft, cache, targets = scene
    i = int(targets[0])
    objective = promotion(cache, i, promoted_user_set(enc.table, i), 10)
    dv, dt = ad.leaf(np.zeros((1, fv.dim))), ad.leaf(np.zeros((1, ft.dim)))
    loss, _, (gv, gt), val = align_ascent(objective, (dv, dt))
    assert -1.0 - 1e-9 <= val.item() <= 1.0 + 1e-9
    assert gv.shape == (1, fv.dim) and gt.shape == (1, ft.dim)
    assert loss.item() == objective.loss(dv, dt).item()
    # at weight 0 the objective and loss gradients are one plain backward
    _, grads, loss_grads, align = align_ascent(objective, (dv, dt), 0.0)
    assert align is None and grads is loss_grads
    assert np.array_equal(grads[0].numpy(), gv.numpy())
    with pytest.raises(ad.GraphError):
        align_ascent(objective, (ad.constant(np.zeros((1, fv.dim))),
                                 ad.constant(np.zeros((1, ft.dim)))))


def test_align_loss_symmetric_construction(tiny_dataset):
    # identical projections and identical modality features give cosine 1
    split, fv, ft = tiny_dataset["split"], tiny_dataset["fv"], tiny_dataset["fv"]
    enc = DatasetEncoding(split, fv, ft, "concat")
    params = models.init_params(split.num_users, split.num_items, fv.dim, fv.dim,
                                kind="concat", phi="tanh", id_dim=10, fuse_dim=6,
                                seed=33)
    params.proj_t[:] = params.proj_v
    i = 4
    objective = promotion(RankCache(params, enc), i, promoted_user_set(enc.table, i), 10)
    dv, dt = ad.leaf(np.zeros((1, fv.dim))), ad.leaf(np.zeros((1, fv.dim)))
    _, _, _, val = align_ascent(objective, (dv, dt))
    assert val.item() == pytest.approx(1.0, abs=1e-9)


def test_align_loss_gradient_fd(scene):
    params, enc, fv, ft, cache, targets = scene
    i = int(targets[4])
    objective = promotion(cache, i, promoted_user_set(enc.table, i)[:20], 10)
    rng = np.random.default_rng(7)
    dv0 = 0.05 * rng.normal(size=(1, fv.dim))
    dt0 = 0.05 * rng.normal(size=(1, ft.dim))
    dv, dt = ad.leaf(dv0), ad.leaf(dt0)
    _, (ov, ot), _, val = align_ascent(objective, (dv, dt), 2.5)
    gv, gt = ad.grad(val, [dv, dt])

    def f(vs):
        _, _, _, node = align_ascent(objective, (ad.leaf(vs[0]), ad.leaf(vs[1])))
        return node.item()

    fgv, fgt = fd_gradient(f, [dv0, dt0], step=1e-5)
    assert rel_err(gv.numpy(), fgv) < 1e-4
    assert rel_err(gt.numpy(), fgt) < 1e-4
    # the objective's gradients are the loss's plus weight times the alignment's
    lv, lt = ad.grad(objective.loss(dv, dt), [dv, dt])
    assert rel_err(ov.numpy(), lv.numpy() + 2.5 * gv.numpy()) < 1e-12
    assert rel_err(ot.numpy(), lt.numpy() + 2.5 * gt.numpy()) < 1e-12


def test_alignment_requires_equal_modality_dims():
    dv, dt = ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 4)))
    loss = ad.add(ad.sum_all(ad.mul(dv, dv)), ad.sum_all(dt))
    with pytest.raises(data.DataError, match="equal modality dims"):
        ascent_gradients(loss, [(dv, dt)], 1.0)
    gv, gt = ascent_gradients(loss, [(dv, dt)], 0.0)[0]
    assert np.array_equal(gv.numpy(), 2 * np.ones((2, 3)))
    assert np.array_equal(gt.numpy(), np.ones((2, 4)))
    assert np.isnan(attacks.np_cosine(np.ones(3), np.ones(4)))


def test_zero_budget_leaves_its_delta_zero():
    table = table_from_lists(4, [[0], [1], [2]])
    fv = data.FeatureMatrix("v", np.zeros((4, 3)))  # zero-norm rows
    ft = data.FeatureMatrix("t", np.ones((4, 3)))
    enc = DatasetEncoding(table, fv, ft, "concat")
    params = models.init_params(3, 4, 3, 3, kind="concat", id_dim=4, fuse_dim=3, seed=1)
    cfg = AttackConfig(variant="fgsm", eps_pct=0.10, k=2)
    pert, _ = run_attack(params, enc, fv, ft, 3, cfg)
    assert pert.eps_v == 0.0 and pert.eps_t > 0.0
    assert np.all(pert.delta_v == 0.0)
    assert np.linalg.norm(pert.delta_t) <= pert.eps_t + 1e-9


def test_graph_model_attack_end_to_end(trained_graph, tiny_dataset):
    params, enc = trained_graph
    fv, ft = tiny_dataset["fv"], tiny_dataset["ft"]
    cache = RankCache(params, enc)
    i = int(metrics.select_targets(tiny_dataset["raw"], 1, n_unpop=4, seed=9)[0])
    cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=4, k=10)
    pert, trace = run_attack(params, enc, fv, ft, i, cfg, cache=cache)
    assert np.linalg.norm(pert.delta_v) <= pert.eps_v + 1e-9
    assert len(trace) == 4


def _attack_digest(pert, trace):
    """sha256 of the deltas' bytes and of every step of the trace."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pert.delta_v, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(pert.delta_t, dtype="<f8").tobytes())
    for iteration, promotion_loss, n_rec, grad_cosine in trace:
        h.update(np.array([iteration, n_rec], dtype="<i8").tobytes())
        h.update(np.array([promotion_loss, grad_cosine], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, variant, with_align, digest", [
    ("concat", "pgd", False,
     "4978a82c17d7630f25169fa5e2457828e01aa6f234c90c56278ab38e72bc41da"),
    ("concat", "pgd", True,
     "8b1f7bd92622248d7a341478ddb57c40f37c1380779daaef15a079b381f4577f"),
    ("concat", "fgsm", False,
     "be16db26c432d7a63ef2698e440e4f20fe4bbabcb8cd1abc44a10a69390e8cb7"),
    ("concat", "fgsm", True,
     "5db1775ed5069bec1e4b8614a273106856120fb72a451c36101ff5d8e484a0d3"),
    ("graph", "pgd", False,
     "43d5081a410181fd2d4ab61e4aafd9f175a14388b04e3121ca6f644280d586bf"),
    ("graph", "pgd", True,
     "3d1396e8ccb4e434eff1ea2214d065a548f16c9c84a600ae1293af1f3fe38d16"),
    ("graph", "fgsm", False,
     "dae7b0e41c2f8bb6bd3add7d0976324b280b17d7bad32441b79b48415a441b6b"),
    ("graph", "fgsm", True,
     "b463c63630bf25fec88bec0872e4b28ac788255ce12b6b96f19cb6c1cce06960")])
def test_attack_outputs_are_pinned(request, tiny_dataset, kind, variant, with_align, digest):
    """sha256 of run_attack's deltas and trace at a small fixed config; the
    digests were taken from the version that ran a second, untraced forward
    per step to record the step's loss."""
    params, enc = request.getfixturevalue(f"trained_{kind}")
    i = int(metrics.select_targets(tiny_dataset["raw"], 1, n_unpop=4, seed=9)[0])
    cfg = AttackConfig(variant=variant, eps_pct=0.10, pgd_steps=4, k=10,
                       with_align=with_align, align_weight=0.5)
    pert, trace = run_attack(params, enc, tiny_dataset["fv"], tiny_dataset["ft"], i, cfg)
    assert _attack_digest(pert, trace) == digest


class _CountedRows(np.ndarray):
    """A user-row table that records each gather by an index array and
    hands out plain arrays, so nothing downstream sees the subclass."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            type(self).gathers += 1
        return np.asarray(super().__getitem__(key))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


@pytest.mark.parametrize("kind, variant, steps, with_align", [
    pytest.param(kind, *case, id="-".join(map(str, case)) + ("-graph" if kind == "graph" else ""))
    for kind in ("concat", "graph")
    for case in [("pgd", 1, False), ("pgd", 4, False), ("pgd", 3, True), ("fgsm", 1, False)]])
def test_attack_gathers_once_and_runs_one_forward_per_step(request, scene, monkeypatch, kind,
                                                           variant, steps, with_align):
    """One attack gathers its audience's user rows once and runs one
    promotion forward per step plus one for the last step's loss. On the
    concat model those forwards' margins give every step's hit count, so no
    perturbed row is encoded again; a graph target with co-consumers moves
    other rows too, and each step's hit test encodes them once."""
    params, enc = request.getfixturevalue(f"trained_{kind}")
    _, _, fv, ft, _, targets = scene
    i = int(targets[0])
    assert (np.count_nonzero(enc.delta_column(i)) > 1) == (kind == "graph")
    cache = RankCache(params, enc)
    cache.scorer.user_matrix = cache.scorer.user_matrix.view(_CountedRows)
    monkeypatch.setattr(_CountedRows, "gathers", 0)
    forwards, perturbed = [], []
    embed, perturb = models.Forward.item_embedding_batch, models.Scorer.perturbed_rows

    def counted(self, idx, delta_v=None, delta_t=None, weights=None):
        if weights is None:  # hit tests move rows by their weights; promotion does not
            forwards.append(list(idx))
        return embed(self, idx, delta_v, delta_t, weights)

    def counted_rows(self, *args):
        perturbed.append(args[0].item)
        return perturb(self, *args)

    monkeypatch.setattr(models.Forward, "item_embedding_batch", counted)
    monkeypatch.setattr(models.Scorer, "perturbed_rows", counted_rows)
    cfg = AttackConfig(variant=variant, eps_pct=0.10, pgd_steps=steps, k=10,
                       with_align=with_align)
    _, trace = run_attack(params, enc, fv, ft, i, cfg, cache=cache)
    assert len(trace) == steps
    if kind == "concat":
        assert _CountedRows.gathers == 1
    else:  # a graph step's hit test may gather its candidates' rows as well
        assert 1 <= _CountedRows.gathers <= 1 + steps
    assert forwards == [[i]] * (steps + 1)
    assert perturbed == ([i] * steps if kind == "graph" else [])


@pytest.mark.parametrize("variant, k_hit", [("pgd", 10), ("fgsm", 10), ("pgd", 7)])
def test_campaign_hit_after_is_the_hit_rate_of_the_final_deltas(scene, monkeypatch,
                                                                 variant, k_hit):
    """``hit_after`` is the hit rate of the returned deltas at ``k_hit``.
    When ``k_hit`` is the attack's own k, the trace's last hit count gives
    it. On the concat model each step's hit count comes from the promotion
    margins, so a target takes one hit test before the attack and, when
    ``k_hit`` differs, one after it."""
    params, enc, fv, ft, cache, targets = scene
    targets = [int(i) for i in targets[:3]]
    cfg = AttackConfig(variant=variant, eps_pct=0.10, pgd_steps=3, k=10)
    calls = []
    counted = metrics.hit_count

    def counting(params, enc, i, k, **kwargs):
        calls.append(k)
        return counted(params, enc, i, k, **kwargs)

    monkeypatch.setattr(metrics, "hit_count", counting)
    monkeypatch.setattr(attacks, "hit_count", counting)
    rows, _, _ = cli.run_campaign(params, enc, fv, ft, targets, cfg, k_hit, cache=cache)
    steps = 1 if variant == "fgsm" else cfg.pgd_steps
    per_target = [k_hit] + ([k_hit] if k_hit != cfg.k else [])
    assert calls == per_target * len(targets)
    monkeypatch.undo()
    for row, i in zip(rows, targets):
        pert, _ = run_attack(params, enc, fv, ft, i, cfg, cache=cache)
        assert row[5] == hit_at_k(params, enc, i, k_hit, delta=(pert.delta_v, pert.delta_t),
                                  cache=cache)


def test_graph_campaign_builds_each_target_record_once(scene, trained_graph, monkeypatch):
    """At ``attack.k == k_hit`` a graph target's clean test, its attack's
    ``alone`` test and every step's hit test read one record
    (``RankCache.target``), so each target's delta column is built once."""
    params, enc = trained_graph
    _, _, fv, ft, _, targets = scene
    targets = [int(i) for i in targets[:3]]
    calls = []
    column = models.DatasetEncoding.delta_column

    def counted(self, i):
        calls.append(i)
        return column(self, i)

    monkeypatch.setattr(models.DatasetEncoding, "delta_column", counted)
    cfg = AttackConfig(variant="pgd", eps_pct=0.10, pgd_steps=3, k=10)
    cli.run_campaign(params, enc, fv, ft, targets, cfg, cfg.k)
    assert calls == targets
