"""Fast checks of the benchmark's oracles and tracer on a tiny dataset.

Each oracle must agree with the program, and must reject a planted error:
a wrong tie rule, a budget off by 1%, a gradient missing a factor.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import tracing
from mmadvrec import attacks, data, metrics, mismatch, models, training
from mmadvrec import autodiff as ad

HERE = Path(__file__).resolve().parent


def _dataset():
    cfg = data.SynthConfig(num_users=80, num_items=50, latent_dim=6, feat_dim_v=8,
                           feat_dim_t=8, interactions_per_user=8, unpopular_count=10,
                           n_unpop=4)
    table, fv, ft = data.synth_generate(cfg, seed=201)
    return data.split_leave_one_out(table, seed=202), fv, ft


def _train(kind):
    split, fv, ft = _dataset()
    enc = models.DatasetEncoding(split, fv, ft, kind)
    params = models.init_params(split.num_users, split.num_items, fv.dim, ft.dim,
                                kind=kind, id_dim=10, fuse_dim=6, seed=203)
    cfg = training.DefenseConfig(eta=0.01, beta=1e-5, batch_size=64, max_epochs=6,
                                 seed=204, optimizer="adam")
    params, _ = training.pretrain(params, enc, fv, ft, cfg)
    ref = oracles.Reference(split.user_items, split.num_items, fv.values, ft.values, kind)
    model = oracles.Model(ref, params.arrays(), params.phi, params.user_content)
    return {"split": split, "fv": fv, "ft": ft, "enc": enc, "params": params,
            "ref": ref, "model": model, "kind": kind}


@pytest.fixture(scope="module")
def concat():
    return _train("concat")


@pytest.fixture(scope="module")
def graph():
    return _train("graph")


@pytest.fixture(params=["concat", "graph"])
def trained(request):
    return request.getfixturevalue(request.param)


def _target(t):
    counts = t["split"].item_counts()
    return int(np.nonzero(counts == counts[counts > 0].min())[0][0])


def test_smoothing_oracle(trained):
    ref, enc = trained["ref"], trained["enc"]
    assert oracles.check_encoding(ref, enc.eff_v, enc.eff_t, enc.self_coef,
                                  enc.user_mean_v, enc.user_mean_t) == []
    for i in range(0, trained["split"].num_items, 7):
        assert oracles.rel_err(enc.delta_column(i), ref.delta_column(i)) <= 1e-12
    if trained["kind"] == "graph":
        # planted: smoothing normalised by user degree only
        a = (ref.seen / ref.seen.sum(axis=1, keepdims=True))
        wrong = a.T @ (a @ ref.raw_v)
        wrong[ref.isolated] = ref.raw_v[ref.isolated]
        assert oracles.check_encoding(ref, wrong, enc.eff_t, enc.self_coef,
                                      enc.user_mean_v, enc.user_mean_t)


def test_forward_and_loss_oracle(trained):
    params, enc, model = trained["params"], trained["enc"], trained["model"]
    scorer = models.Scorer(params, enc)
    assert oracles.rel_err(scorer.scores(), model.scores) <= 1e-12
    rng = np.random.default_rng(5)
    users = rng.integers(0, 80, size=32)
    pos = np.array([rng.choice(trained["split"].user_items[u]) for u in users])
    neg = np.array([next(j for j in rng.permutation(50) if not trained["split"].has(u, j))
                    for u in users])
    loss = training.bpr_loss(params, enc, (users, pos, neg)).item()
    want = model.bpr_loss(users, pos, neg)
    assert oracles.check_loss(loss, want) == []
    assert oracles.check_loss(loss * (1 + 1e-8), want)


def _sorted_top_k(scores, seen, u, k, descending_ids=False):
    cand = [j for j in range(scores.shape[1]) if not seen[u, j]]
    sign = -1 if descending_ids else 1
    return set(sorted(cand, key=lambda j: (-scores[u, j], sign * j))[:k])


def test_ranking_oracle_tie_rule(concat):
    """Items a < b made identical tie exactly for every user; a ranks first."""
    split, fv, ft = concat["split"], concat["fv"], concat["ft"]
    a, b = 0, 1
    fv2 = data.FeatureMatrix("v", np.vstack([fv.values[:1], fv.values[:1], fv.values[2:]]))
    ft2 = data.FeatureMatrix("t", np.vstack([ft.values[:1], ft.values[:1], ft.values[2:]]))
    params = concat["params"].clone()
    params.item_embeds[b] = params.item_embeds[a]
    enc = models.DatasetEncoding(split, fv2, ft2, "concat")
    ref = oracles.Reference(split.user_items, split.num_items, fv2.values, ft2.values, "concat")
    model = oracles.Model(ref, params.arrays(), params.phi, params.user_content)
    both = np.nonzero(~ref.seen[:, a] & ~ref.seen[:, b])[0]
    assert np.array_equal(model.scores[both, a], model.scores[both, b])
    low, _ = oracles.rank_bounds(model.masked[both[:1]], np.array([a]))
    k = int(low[0]) + 1  # a takes user both[0]'s last slot, so b just misses
    for item in (a, b):
        lo, hi = oracles.hit_count_bounds(model.masked, item, k)
        brute = sum(item in _sorted_top_k(model.scores, ref.seen, u, k) for u in range(80))
        assert lo == hi == brute == metrics.hit_count(params, enc, item, k)
    planted = sum(b in _sorted_top_k(model.scores, ref.seen, u, k, descending_ids=True)
                  for u in range(80))
    assert planted != lo
    assert oracles.check_hits(b, 100.0 * lo / 80, model.masked, k, "hit") == []
    assert oracles.check_hits(b, 100.0 * planted / 80, model.masked, k, "hit")


def test_recall_recount(trained):
    params, enc, ref, model = trained["params"], trained["enc"], trained["ref"], trained["model"]
    holdout = trained["split"].holdout
    recall, _ = metrics.recall_ndcg(params, enc, k=10)
    assert oracles.check_recall(recall, model.masked, ref.seen, holdout, 10, 1.5) == []
    n = int((holdout >= 0).sum())
    assert oracles.check_recall(recall + 1.0 / n, model.masked, ref.seen, holdout, 10, 1.5)


def test_attack_budget_and_hits(trained):
    params, enc, fv, ft = trained["params"], trained["enc"], trained["fv"], trained["ft"]
    ref, model = trained["ref"], trained["model"]
    i = _target(trained)
    cfg = attacks.AttackConfig(variant="pgd", eps_pct=0.1, pgd_steps=5, k=5)
    pert, _ = attacks.run_attack(params, enc, fv, ft, i, cfg)
    eps_v = 0.1 * np.linalg.norm(fv.values[i])
    eps_t = 0.1 * np.linalg.norm(ft.values[i])
    assert oracles.check_budget(i, pert.delta_v, pert.delta_t, eps_v, eps_t) == []
    assert oracles.check_budget(i, 1.01 * pert.delta_v, pert.delta_t, eps_v, eps_t)
    after = metrics.hit_at_k(params, enc, i, 5, delta=(pert.delta_v, pert.delta_t))
    masked = model.perturbed_masked(i, pert.delta_v, pert.delta_t)
    assert oracles.check_hits(i, after, masked, 5, "hit_after") == []
    assert oracles.check_hits(i, after + 100.0 / 80, masked, 5, "hit_after")


def test_per_user_gradients_closed_form(trained):
    params, enc, ref, model = trained["params"], trained["enc"], trained["ref"], trained["model"]
    i = _target(trained)
    users = np.nonzero(~ref.seen[:, i])[0]
    got = mismatch.per_user_gradients(params, enc, i, users, k=5)
    got_v = np.array([g for g, _ in got])
    got_t = np.array([g for _, g in got])
    want_v, want_t = model.per_user_gradients(i, users, 5)
    assert oracles.check_gradients(i, got_v, got_t, want_v, want_t) == []
    assert oracles.check_gradients(i, 1.01 * got_v, got_t, want_v, want_t)
    if trained["kind"] == "graph":
        # planted: the self coefficient c_i left out
        c = ref.self_coef[i]
        assert c != 1.0
        assert oracles.check_gradients(i, got_v / c, got_t / c, want_v, want_t)


def test_top_sets_and_jaccard(trained):
    params, enc, ref, model = trained["params"], trained["enc"], trained["ref"], trained["model"]
    i = _target(trained)
    result = mismatch.mismatch_survey(params, enc, [i], k=5)
    (report,) = result.reports
    users = np.nonzero(~ref.seen[:, i])[0]
    want_v, want_t = model.per_user_gradients(i, users, 5)
    c_v, c_t = oracles.contributions(want_v), oracles.contributions(want_t)
    got_cv = np.array([c.c_v for c in report.contributions])
    got_ct = np.array([c.c_t for c in report.contributions])
    assert oracles.check_contributions(i, got_cv, got_ct, c_v, c_t) == []
    assert oracles.check_top_sets(i, users, c_v, c_t, report.users_v, report.users_t,
                                  report.jaccard) == []
    # planted: the weakest contributor swapped in for the strongest
    swapped = report.users_v.copy()
    swapped[swapped == users[np.argmax(c_v)]] = users[np.argmin(c_v)]
    assert oracles.check_top_sets(i, users, c_v, c_t, swapped, report.users_t,
                                  report.jaccard)
    assert oracles.check_top_sets(i, users, c_v, c_t, report.users_v, report.users_t,
                                  min(1.0, report.jaccard + 0.01))


def test_max_phase_sphere(trained):
    params, enc, fv, ft = trained["params"], trained["enc"], trained["fv"], trained["ft"]
    split = trained["split"]
    users = np.arange(16)
    pos = np.array([split.user_items[u][0] for u in users])
    neg = np.array([next(j for j in range(50) if not split.has(u, j)) for u in users])
    cfg = training.DefenseConfig(eps_d_pct=0.1)
    deltas, _ = training.max_phase(params, enc, (users, pos, neg), cfg, fv, ft)
    eps = 0.1 * np.linalg.norm(fv.values[pos], axis=1)
    assert oracles.check_sphere(deltas.dv_pos, eps) == []
    assert oracles.check_sphere(deltas.dv_pos * 1.01, eps)


def test_tracer_spans_nodes_and_restore(trained):
    mods = (ad, data, models, metrics, attacks, training, mismatch, training.Adam,
            training.SGD, models.Scorer, metrics.RankCache)
    before = [dict(vars(m)) for m in mods]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ad.grad is not before[0]["grad"]
        n0 = tracing.tape_nodes()
        assert tracing.tape_nodes() == n0
        with tracer.stage("diagnose"), tracer.span("mismatch.survey"):
            mismatch.mismatch_survey(trained["params"], trained["enc"], [_target(trained)], k=5)
        assert ad.constant(0.0)._id > n0
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in mods] == before
    survey = tracer.select("mismatch.survey", ("diagnose",))[0]
    children = [s for s in tracer.spans if s.parent is survey]
    assert survey.self_s >= 0 and children
    assert survey.child == pytest.approx(sum(c.self_s + c.child for c in children))
    n_users = int((~trained["ref"].seen[:, _target(trained)]).sum())
    assert tracer.count_within("autodiff.backward", "mismatch.survey", "diagnose") == n_users
    assert survey.nodes > n_users


def test_run_refuses_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "concat_pretrain", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
