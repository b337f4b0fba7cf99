"""One benchmark run: set-up, train, attack and diagnose on one workload.

Each stage calls the program's public entry points in process, in chunks (a
set-up, an epoch, a target) flanked by the drift meter's reference kernel.
Outputs are kept and checked against ``oracles`` after the timed stages and
after peak memory is read, so that the checks add nothing to either. Only
the max-phase sphere check runs inside the train stage, on every batch:
four row-norm computations per batch, since the deltas are not kept.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads
from drift import DriftMeter, ReferenceKernel
from mmadvrec import attacks, cli, data, metrics, mismatch, models, training
from mmadvrec.config import seed_for

HERE = Path(__file__).resolve().parent

# Share of --seconds given to each timed stage. The attack and diagnose
# stages stop at the first chunk boundary past their share, after at least
# MIN_CHUNKS chunks. The train stage runs a fixed number of epochs sized from
# its share and the workload's nominal epoch time instead: peak memory grows
# with the number of validation passes, so a count that followed the
# machine's speed would move peak_rss_mb from run to run.
STAGE_SHARES = {"train": 0.5, "attack": 0.25, "diagnose": 0.25}
MIN_CHUNKS = 3
SETUP_REPS = 5
PROBE_BATCH = 256
# Validation Recall@10 must beat a random ranking by this factor.
RECALL_FLOOR = 5.0
PREPARE_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "train_triples_per_s": "1/s",
             "attack_targets_per_s": "1/s", "diagnose_targets_per_s": "1/s"}


@dataclass
class Setup:
    split: object
    fv: object
    ft: object
    enc: object
    params: object
    cache: object


@dataclass
class Capture:
    """Thin wrappers kept in untraced runs too: they record each attack's
    perturbation and check each max-phase delta row against its sphere."""

    norms_v: np.ndarray = None
    norms_t: np.ndarray = None
    perturbations: list = field(default_factory=list)
    sphere_rows: int = 0
    sphere_problems: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def install(self):
        run_attack, max_phase = attacks.run_attack, training.max_phase

        def capture_attack(*args, **kwargs):
            pert, trace = run_attack(*args, **kwargs)
            self.perturbations.append(pert)
            return pert, trace

        def capture_max_phase(params, enc, triples, config, feats_v, feats_t, **kwargs):
            deltas, align = max_phase(params, enc, triples, config, feats_v, feats_t, **kwargs)
            _, pos, neg = triples
            for rows, norms, items in ((deltas.dv_pos, self.norms_v, pos),
                                       (deltas.dt_pos, self.norms_t, pos),
                                       (deltas.dv_neg, self.norms_v, neg),
                                       (deltas.dt_neg, self.norms_t, neg)):
                self.sphere_rows += rows.shape[0]
                self.sphere_problems += oracles.check_sphere(rows, config.eps_d_pct * norms[items])
            return deltas, align

        self._patches = [(attacks, "run_attack", run_attack),
                         (training, "max_phase", max_phase)]
        attacks.run_attack = capture_attack
        training.max_phase = capture_max_phase

    def uninstall(self):
        for owner, attr, orig in self._patches:
            setattr(owner, attr, orig)
        self._patches = []


def prepare_inputs(wl, seed, out):
    subprocess.run([sys.executable, str(HERE / "prepare.py"), "--workload", wl.name,
                    "--seed", str(seed), "--out", str(out)],
                   check=True, timeout=PREPARE_TIMEOUT_S)


def set_up(paths, wl, seed, tracer):
    """Files on disk -> ready encoding, checkpoint and RankCache, as every
    CLI command does before its work."""
    with tracer.span("data.load"):
        table = data.load_interactions(paths["interactions"])
        fv = data.load_features(paths["features_v"], "v", expected_items=table.num_items)
        ft = data.load_features(paths["features_t"], "t", expected_items=table.num_items)
    split = data.split_leave_one_out(table, seed_for(seed, "split"))
    enc = models.DatasetEncoding(split, fv, ft, wl.kind)
    params = models.load_checkpoint(paths["checkpoint"])
    cache = metrics.RankCache(params, enc)
    return Setup(split, fv, ft, enc, params, cache)


def _compact(report):
    """A survey report as arrays, so that the thousands of per-user records
    do not stay alive and count towards peak memory."""
    cs = report.contributions
    return {"item": report.item, "users": np.array([c.user for c in cs]),
            "g_v": np.array([c.g_v for c in cs]), "g_t": np.array([c.g_t for c in cs]),
            "c_v": np.array([c.c_v for c in cs]), "c_t": np.array([c.c_t for c in cs]),
            "users_v": report.users_v, "users_t": report.users_t, "jaccard": report.jaccard}


def _stage_open(chunks, t0, budget):
    return len(chunks) < MIN_CHUNKS or time.perf_counter() - t0 < budget


def probe_triples(split, seed):
    """A fixed batch drawn by the benchmark itself, for the loss and
    max-phase checks."""
    rng = np.random.default_rng(seed_for(seed, "perfbench-probe"))
    eligible = np.array([u for u in range(split.num_users) if split.user_items[u].size])
    users = rng.choice(eligible, size=PROBE_BATCH)
    pos = np.array([rng.choice(split.user_items[u]) for u in users])
    neg = np.empty_like(pos)
    for b, u in enumerate(users):
        while True:
            j = int(rng.integers(split.num_items))
            if j not in split.user_set(int(u)):
                neg[b] = j
                break
    return users.astype(np.int64), pos.astype(np.int64), neg


def measure(wl, seed, seconds, tracer, paths, log):
    kernel = ReferenceKernel()
    meter = DriftMeter(kernel)
    survey_meter = DriftMeter(kernel, survey=True)
    capture = Capture()
    tracer.install()
    capture.install()
    try:
        return _stages(wl, seed, seconds, tracer, paths, log, meter, survey_meter, capture)
    finally:
        capture.uninstall()
        tracer.uninstall()


def _stages(wl, seed, seconds, tracer, paths, log, meter, survey_meter, capture):
    defaults = workloads.DEFAULTS
    setups = []
    s = None
    with tracer.stage("setup"):
        for _ in range(SETUP_REPS):
            s = None  # drop the previous set-up first, as a fresh process would
            with meter.chunk() as c:
                s = set_up(paths, wl, seed, tracer)
            setups.append(c)
    enc_mib = tracing.encoding_mib(s.enc, (s.fv.values, s.ft.values))
    capture.norms_v = np.linalg.norm(s.fv.values, axis=1)
    capture.norms_t = np.linalg.norm(s.ft.values, axis=1)

    # train: one public call per epoch, seeded as `train/defend --resume` seeds it
    train_fn = training.uat_mc_train if wl.defend else training.pretrain
    batch = defaults["train.batch_size"]
    triples_per_epoch = max(1, s.split.num_interactions // batch) * batch
    params = s.params
    epochs = []
    n_epochs = max(MIN_CHUNKS, round(STAGE_SHARES["train"] * seconds / wl.epoch_seconds))
    with tracer.stage("train"):
        for e in range(1, n_epochs + 1):
            cfg = workloads.train_config(seed, defend=wl.defend, epoch=e)
            with meter.chunk() as c, tracer.span("training.epoch"):
                params, tlog = train_fn(params, s.enc, s.fv, s.ft, cfg, start_epoch=e)
            epochs.append((c, params, tlog.rows[0]))

    # attack: one campaign call per target on the trained checkpoint
    acfg = workloads.attack_config(wl)
    k_hit = defaults["eval.k_hit"]
    targets = workloads.targets(s.split, seed)
    with tracer.stage("attack"):
        cache = metrics.RankCache(params, s.enc)
        attacked = []
        t0 = time.perf_counter()
        for i in targets:
            if not _stage_open(attacked, t0, STAGE_SHARES["attack"] * seconds):
                break
            n_before = len(capture.perturbations)
            with meter.chunk() as c, tracer.span("cli.run_campaign"):
                rows, _, _ = cli.run_campaign(params, s.enc, s.fv, s.ft, [i], acfg, k_hit,
                                              cache=cache)
            if len(capture.perturbations) != n_before + 1:
                raise RuntimeError("run_campaign did not run exactly one attack")
            attacked.append((c, int(i), rows[0][4], rows[0][5], capture.perturbations[-1]))

    # diagnose: one survey call per target
    k_users = defaults["diagnose.k_users"] or None
    surveyed = []
    with tracer.stage("diagnose"):
        t0 = time.perf_counter()
        for i in targets:
            if not _stage_open(surveyed, t0, STAGE_SHARES["diagnose"] * seconds):
                break
            with survey_meter.chunk() as c, tracer.span("mismatch.survey"):
                result = mismatch.mismatch_survey(
                    params, s.enc, [i], k_users=k_users, k=k_hit,
                    bin_width=defaults["diagnose.bin_width"], cache=cache)
            surveyed.append((c, len(result.skipped), [_compact(r) for r in result.reports]))

    triples = probe_triples(s.split, seed)
    with tracer.stage("probe"):
        probe_loss = training.bpr_loss(params, s.enc, triples).item()
        # the default UAT-MC max phase, on every workload
        training.max_phase(params, s.enc, triples,
                           workloads.train_config(seed, defend=True, epoch=0), s.fv, s.ft)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_checks = time.perf_counter()
    counts = {"setup": (len(setups), 0), "train": (len(epochs), 0),
              "attack": (len(attacked), 0),
              "diagnose": (len(surveyed), sum(n for _, n, _ in surveyed))}
    walls = {"setup": sum(c.elapsed for c in setups),
             "train": sum(c.elapsed for c, *_ in epochs),
             "attack": sum(c.elapsed for c, *_ in attacked),
             "diagnose": sum(c.elapsed for c, *_ in surveyed)}
    problems = check_outputs(wl, seed, s, epochs, attacked, surveyed, acfg, k_hit,
                             k_users, triples, probe_loss, params, capture)
    log(f"checks: {time.perf_counter() - t_checks:.2f} s")

    scaled = {
        "setup_s": statistics.median(c.scaled_seconds() for c in setups),
        "peak_rss_mb": peak_mib,
        "train_triples_per_s": statistics.median(
            c.scaled_rate(triples_per_epoch) for c, _, _ in epochs),
        "attack_targets_per_s": statistics.median(c.scaled_rate(1) for c, *_ in attacked),
        "diagnose_targets_per_s": statistics.median(c.scaled_rate(1) for c, *_ in surveyed),
    }
    raw = {
        "setup_s": statistics.median(c.elapsed for c in setups),
        "peak_rss_mb": peak_mib,
        "train_triples_per_s": statistics.median(
            triples_per_epoch / c.elapsed for c, _, _ in epochs),
        "attack_targets_per_s": statistics.median(1 / c.elapsed for c, *_ in attacked),
        "diagnose_targets_per_s": statistics.median(1 / c.elapsed for c, *_ in surveyed),
    }
    ref_rates = [c.ref_rate for c in setups] + [c.ref_rate for c, *_ in epochs] \
        + [c.ref_rate for c, *_ in attacked]
    for stage, (n, failed) in counts.items():
        log(f"stage {stage}: attempted {n}, failed {failed}, {walls[stage]:.2f} s of chunks")
    log(f"reference kernel: median {statistics.median(ref_rates):.1f} it/s over "
        f"{len(ref_rates)} chunks, {meter.kernel_seconds:.2f} s in total")
    log(f"survey kernel: median "
        f"{statistics.median(c.ref_rate for c, *_ in surveyed):.1f} it/s over "
        f"{len(surveyed)} chunks, {survey_meter.kernel_seconds:.2f} s in total")
    for name, value in scaled.items():
        log(f"{name}: {value:.6g} {E2E_UNITS[name]} (raw {raw[name]:.6g})")
    log(f"sphere rows checked: {capture.sphere_rows}")
    for p in problems:
        log(f"CHECK FAILED: {p}")

    result = {"scaled": scaled, "raw": raw, "problems": problems,
              "attempted": sum(n for stage, (n, _) in counts.items() if stage != "setup"),
              "failed": counts["diagnose"][1]}
    if tracer.enabled:
        result["layers"] = tracing.layer_metrics(tracer, enc_mib)
    return result


def check_outputs(wl, seed, s, epochs, attacked, surveyed, acfg, k_hit, k_users,
                  triples, probe_loss, params, capture):
    """Every check the benchmark makes; returns the problems found."""
    problems = []
    split, enc = s.split, s.enc
    ref = oracles.Reference(split.user_items, split.num_items, s.fv.values, s.ft.values,
                            wl.kind)
    problems += oracles.check_encoding(ref, enc.eff_v, enc.eff_t, enc.self_coef,
                                       enc.user_mean_v, enc.user_mean_t)

    def model_of(p):
        return oracles.Model(ref, p.arrays(), p.phi, p.user_content)

    k_rank = workloads.DEFAULTS["eval.k_rank"]
    for _, p, row in epochs:
        problems += [f"epoch {row['epoch']}: {m}" for m in oracles.check_recall(
            row["val_recall10"], model_of(p).masked, ref.seen, split.holdout, k_rank,
            RECALL_FLOOR)]

    model = model_of(params)
    problems += oracles.check_loss(probe_loss, model.bpr_loss(*triples))
    problems += capture.sphere_problems[:5]
    if capture.sphere_rows == 0:
        problems.append("no max-phase rows were checked")

    for _, i, hit_before, hit_after, pert in attacked:
        eps_v = acfg.eps_pct * float(np.linalg.norm(s.fv.values[i]))
        eps_t = acfg.eps_pct * float(np.linalg.norm(s.ft.values[i]))
        problems += oracles.check_budget(i, pert.delta_v, pert.delta_t, eps_v, eps_t)
        problems += oracles.check_hits(i, hit_before, model.masked, k_hit, "hit_before")
        problems += oracles.check_hits(
            i, hit_after, model.perturbed_masked(i, pert.delta_v, pert.delta_t), k_hit,
            "hit_after")
    if wl.expect_gain:
        before = np.mean([a[2] for a in attacked])
        after = np.mean([a[3] for a in attacked])
        if not after > before:
            problems.append(f"mean hit did not rise: {before:.4f}% -> {after:.4f}%")

    for _, _, reports in surveyed:
        for r in reports:
            i, users = r["item"], np.nonzero(~ref.seen[:, r["item"]])[0]
            if not np.array_equal(r["users"], users):
                problems.append(f"target {i}: survey users differ from the promotion set")
                continue
            want_v, want_t = model.per_user_gradients(i, users, k_hit)
            problems += oracles.check_gradients(i, r["g_v"], r["g_t"], want_v, want_t)
            c_v, c_t = oracles.contributions(want_v), oracles.contributions(want_t)
            problems += oracles.check_contributions(i, r["c_v"], r["c_t"], c_v, c_t)
            problems += oracles.check_top_sets(i, users, c_v, c_t, r["users_v"], r["users_t"],
                                               r["jaccard"], k_users)
    return problems


def run(name, seed, seconds, trace, root, log):
    wl = workloads.WORKLOADS[name]
    base = root / ".bench_data"
    work = base / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    try:
        t0 = time.perf_counter()
        prepare_inputs(wl, seed, work)
        log(f"inputs prepared in {time.perf_counter() - t0:.2f} s")
        tracer = tracing.Tracer() if trace else tracing.NullTracer()
        return measure(wl, seed, seconds, tracer, workloads.input_paths(str(work)), log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
