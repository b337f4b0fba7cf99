"""Experiment pipeline: gen-data, train, defend, attack, diagnose, sweep,
report.

Every command is a pure function of (config, input files, seed): all
randomness flows from the root ``seed`` split per component, and outputs are
byte-stable across reruns. Every command but ``report`` runs one flow: it
reads its inputs, creates its ``RunManifest`` (their checksums as read)
before it writes anything, computes, writes its outputs and then
``manifest_<command>.json``, which lists them. A command that reads a
checkpoint reads ``--checkpoint``, else the one ``train`` writes. Exit codes:
0 ok, 2 config error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import attacks, data, metrics, mismatch, models, reports, training
from .config import ConfigError, RunManifest, load_config, seed_for
from .data import DataError
from .training import DefenseConfig, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# the checkpoint each fitting command writes; every other command reads
# --checkpoint, else train's
CHECKPOINTS = {"train": "pretrained.ckpt", "defend": "defended.ckpt"}


# ---------------------------------------------------------------------------
# shared plumbing

def _out_dir(cfg):
    path = cfg["data.out_dir"]
    os.makedirs(path, exist_ok=True)
    return path


def _workspace(cfg):
    """(out dir, input paths, split table, visual and textual features,
    encoding) for a command that reads the dataset. The feature files fix
    the catalog size, so an item no user touched still has its row."""
    out = _out_dir(cfg)
    base = cfg["data.path"]
    if not base:
        raise DataError("data.path is not set; run gen-data first or point at a dataset")
    inputs = [os.path.join(base, name)
              for name in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe")]
    fv = data.load_features(inputs[1], "v")
    table = data.load_interactions(inputs[0], num_items=fv.num_items)
    ft = data.load_features(inputs[2], "t", expected_items=table.num_items)
    split = data.split_leave_one_out(table, seed_for(cfg["seed"], "split"))
    enc = models.DatasetEncoding(split, fv, ft, cfg["model.kind"])
    return out, inputs, split, fv, ft, enc


def _init_params(cfg, table, fv, ft):
    return models.init_params(
        table.num_users, table.num_items, fv.dim, ft.dim,
        kind=cfg["model.kind"], phi=cfg["model.nonlinearity"],
        user_content=cfg["model.user_content"], id_dim=cfg["model.dim"],
        fuse_dim=cfg["model.fuse_dim"], seed=seed_for(cfg["seed"], "init"))


def _train_config(cfg, *, defend, seed_label):
    return DefenseConfig(
        mode=cfg["defense.mode"] if defend else "uat_mc",
        lambda_=cfg["defense.lambda"] if defend else 0.0,
        alpha=cfg["defense.alpha"] if defend else 0.0,
        beta=cfg["defense.beta"] if defend else cfg["train.beta"],
        eta=cfg["train.eta"],
        eps_d_pct=cfg["defense.eps_d_pct"],
        batch_size=cfg["train.batch_size"],
        max_epochs=cfg["defense.max_epochs"] if defend else cfg["train.max_epochs"],
        patience=cfg["train.patience"],
        eval_every=cfg["train.eval_every"],
        eval_k=cfg["eval.k_rank"],
        optimizer=cfg["train.optimizer"],
        reduction=cfg["train.reduction"],
        seed=seed_for(cfg["seed"], seed_label))


def _attack_config(cfg):
    return attacks.AttackConfig(
        variant=cfg["attack.variant"], eps_pct=cfg["attack.eps_a_pct"],
        pgd_steps=cfg["attack.pgd_steps"], with_align=cfg["attack.with_align"],
        align_weight=cfg["attack.align_weight"], k=cfg["attack.k"])


def _load_checkpoint(args, out, inputs, path=None):
    """Load ``path``, by default ``--checkpoint`` or else the checkpoint
    ``train`` writes, and list it among the run's inputs."""
    inputs.append(path or args.checkpoint or os.path.join(out, CHECKPOINTS["train"]))
    return models.load_checkpoint(inputs[-1])


def _read_last_epoch(log_path):
    """(last epoch, rows) of an intact log this version wrote; a log with
    other columns, or one cut or edited since, cannot be extended row for
    row."""
    header, rows, _ = reports.read_csv(log_path)
    columns = list(training.TrainLog.COLUMNS)
    if header != columns:
        raise DataError(f"{log_path}: cannot resume a log with columns {header}, "
                        f"expected {columns}")
    if not reports.verify_csv(log_path):
        raise DataError(f"{log_path}: cannot resume a log that fails its sha256 line")
    if not rows:
        return 0, []
    return int(rows[-1][0]), rows


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(cfg, args):
    out = _out_dir(cfg)
    man = RunManifest.create(args.command, cfg, [])
    synth_cfg = data.SynthConfig(
        num_users=cfg["synth.users"], num_items=cfg["synth.items"],
        latent_dim=cfg["synth.latent_dim"], feat_dim_v=cfg["synth.feat_dim_v"],
        feat_dim_t=cfg["synth.feat_dim_t"],
        interactions_per_user=cfg["synth.interactions_per_user"],
        feature_noise=cfg["synth.feature_noise"],
        interaction_noise=cfg["synth.interaction_noise"],
        mixing_overlap=cfg["synth.mixing_overlap"],
        unpopular_count=cfg["synth.unpopular_count"], n_unpop=cfg["synth.n_unpop"])
    table, fv, ft = data.synth_generate(synth_cfg, seed_for(cfg["seed"], "synth"))
    inter = os.path.join(out, "interactions.tsv")
    fvp = os.path.join(out, "features_v.mmfe")
    ftp = os.path.join(out, "features_t.mmfe")
    statp = os.path.join(out, "stats.json")
    data.save_interactions(table, inter)
    data.write_features(fv, fvp)
    data.write_features(ft, ftp)
    stats = table.stats()
    with open(statp, "w", encoding="utf-8") as fh:
        json.dump({"num_users": stats.num_users, "num_items": stats.num_items,
                   "num_interactions": stats.num_interactions,
                   "sparsity_pct": stats.sparsity_pct}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    man.write(out, [inter, fvp, ftp, statp])
    print(f"wrote dataset to {out}: {stats.num_users} users, {stats.num_items} items, "
          f"{stats.num_interactions} interactions, sparsity {stats.sparsity_pct:.3f}%")
    return EXIT_OK


def cmd_fit(cfg, args):
    """``train`` (BPR from a fresh initialisation) and ``defend``
    (adversarial training from a checkpoint). ``--resume`` reloads the
    command's saved (best) checkpoint, keeps its log rows, numbers the new
    epochs after them and seeds the sampler by the first new epoch; the
    optimiser and early-stopping state start afresh. With neither file it
    starts afresh; with only one it refuses, so as not to overwrite it."""
    defend = args.command == "defend"
    out, inputs, split, fv, ft, enc = _workspace(cfg)
    ckpt = os.path.join(out, CHECKPOINTS[args.command])
    log_path = os.path.join(out, f"{args.command}_log.csv")
    start_epoch, old_rows = 1, []
    missing = [p for p in (ckpt, log_path) if not os.path.exists(p)]
    if args.resume and len(missing) == 1:
        raise DataError(f"{missing[0]}: not found; --resume needs the checkpoint and the log")
    if args.resume and not missing:
        params = _load_checkpoint(args, out, inputs, ckpt)
        inputs.append(log_path)
        last, old_rows = _read_last_epoch(log_path)
        start_epoch = last + 1
    elif defend:
        params = _load_checkpoint(args, out, inputs)
    else:
        params = _init_params(cfg, split, fv, ft)
    man = RunManifest.create(args.command, cfg, inputs)
    label = "defend" if defend else "pretrain"
    tcfg = _train_config(cfg, defend=defend, seed_label=f"{label}-{start_epoch}")
    fit = training.uat_mc_train if defend else training.pretrain
    best, log = fit(params, enc, fv, ft, tcfg, start_epoch=start_epoch)
    models.save_checkpoint(best, ckpt)
    reports.write_csv(log_path, log.COLUMNS,
                      old_rows + [[r[c] for c in log.COLUMNS] for r in log.rows])
    man.write(out, [ckpt, log_path])
    recall, ndcg = metrics.recall_ndcg(best, enc, k=cfg["eval.k_rank"])
    what = (f"defended ({tcfg.mode}, lambda={tcfg.lambda_}, alpha={tcfg.effective_alpha})"
            if defend else "pretrained")
    print(f"{what} {log.epochs} epochs; recall@{cfg['eval.k_rank']} {recall:.4f} "
          f"ndcg {ndcg:.4f}; checkpoint {ckpt}")
    return EXIT_OK


def run_campaign(params, enc, fv, ft, targets, acfg, k_hit, cache=None):
    """Attack every target; returns per-item rows, trace rows and mean stats."""
    cache = cache if cache is not None else metrics.RankCache(params, enc)
    rows, trace_rows = [], []
    hits_before, hits_after = [], []
    for i in targets:
        i = int(i)
        hit_before = metrics.hit_at_k(params, enc, i, k_hit, cache=cache)
        pert, trace = attacks.run_attack(params, enc, fv, ft, i, acfg, cache=cache)
        if acfg.k == k_hit:  # the trace's last hit count is on the final deltas
            hit_after = 100.0 * trace[-1][2] / enc.table.num_users
        else:
            hit_after = metrics.hit_at_k(params, enc, i, k_hit,
                                         delta=(pert.delta_v, pert.delta_t), cache=cache)
        rows.append([i, acfg.variant, acfg.with_align, acfg.eps_pct,
                     hit_before, hit_after, metrics.gain_hit(hit_before, hit_after)])
        trace_rows += [[i, *rec] for rec in trace]
        hits_before.append(hit_before)
        hits_after.append(hit_after)
    mean_before = float(np.mean(hits_before))
    mean_after = float(np.mean(hits_after))
    mean_gain = metrics.gain_hit(mean_before, mean_after)
    rows.append(["mean", acfg.variant, acfg.with_align, acfg.eps_pct,
                 mean_before, mean_after, mean_gain])
    return rows, trace_rows, (mean_before, mean_after, mean_gain)


def _select_targets(cfg, split, count=None):
    return metrics.select_targets(
        split, count if count is not None else cfg["attack.targets"],
        n_unpop=cfg["attack.popularity_threshold"],
        mode=cfg["attack.threshold_mode"], seed=seed_for(cfg["seed"], "targets"))


def cmd_attack(cfg, args):
    acfg = _attack_config(cfg)
    out, inputs, split, fv, ft, enc = _workspace(cfg)
    params = _load_checkpoint(args, out, inputs)
    man = RunManifest.create(args.command, cfg, inputs)
    targets = _select_targets(cfg, split)
    cache = metrics.RankCache(params, enc)
    rows, trace_rows, (mb, ma, gain) = run_campaign(
        params, enc, fv, ft, targets, acfg, cfg["eval.k_hit"], cache=cache)
    results_path = os.path.join(out, "attack_results.csv")
    trace_path = os.path.join(out, "attack_trace.csv")
    metrics_path = os.path.join(out, "metrics.csv")
    reports.write_csv(results_path,
                      ["target_item", "variant", "with_align", "eps_pct",
                       "hit_before", "hit_after", "gain_pct"], rows)
    reports.write_csv(trace_path,
                      ["target_item", "iteration", "promotion_loss", "n_rec",
                       "grad_cosine"], trace_rows)
    recall, ndcg = metrics.recall_ndcg(params, enc, k=cfg["eval.k_rank"], cache=cache)
    reports.write_csv(metrics_path,
                      ["run_id", "defense", "attack", "eps_d", "eps_a", "lambda",
                       "alpha", "hit_before", "hit_after", "gain", "recall10",
                       "ndcg10"],
                      [[man.run_id, args.label, acfg.variant,
                        cfg["defense.eps_d_pct"], acfg.eps_pct,
                        cfg["defense.lambda"], cfg["defense.alpha"],
                        mb, ma, gain, recall, ndcg]])
    man.write(out, [results_path, trace_path, metrics_path])
    print(f"attacked {len(targets)} targets ({acfg.variant}"
          f"{'+align' if acfg.with_align else ''}): hit {mb:.4f}% -> {ma:.4f}% "
          f"(gain {gain:.2f}%)")
    return EXIT_OK


def cmd_diagnose(cfg, args):
    out, inputs, split, _, _, enc = _workspace(cfg)
    params = _load_checkpoint(args, out, inputs)
    man = RunManifest.create(args.command, cfg, inputs)
    targets = _select_targets(cfg, split, count=cfg["diagnose.targets"])
    k_users = cfg["diagnose.k_users"] or None
    result = mismatch.mismatch_survey(params, enc, targets, k_users=k_users,
                                      k=cfg["eval.k_hit"],
                                      bin_width=cfg["diagnose.bin_width"])
    if not result.reports:
        item, reason = result.skipped[0]
        raise DataError(f"surveyed none of {len(targets)} targets; item {item}: {reason}")
    items_path = os.path.join(out, "mismatch_items.csv")
    hist_path = os.path.join(out, "mismatch_hist.csv")
    users_path = os.path.join(out, "mismatch_users.csv")
    reports.write_csv(items_path, ["item", "jaccard", "intersection"],
                      [[r.item, r.jaccard, len(set(r.users_v.tolist())
                                               & set(r.users_t.tolist()))]
                       for r in result.reports])
    hist = result.histogram
    reports.write_csv(hist_path, ["bin_low", "bin_high", "count"],
                      [[hist.edges[j], hist.edges[j + 1], int(hist.counts[j])]
                       for j in range(hist.counts.size)],
                      comments=[f"mean={reports.fmt(hist.mean)}"])
    reports.write_csv(users_path, ["item", "user", "c_v", "c_t"],
                      [[r.item, c.user, c.c_v, c.c_t]
                       for r in result.reports for c in r.contributions])
    man.write(out, [items_path, hist_path, users_path])
    print(f"surveyed {len(result.reports)} items (skipped {len(result.skipped)}); "
          f"mean jaccard {hist.mean:.4f}")
    return EXIT_OK


def _sweep_points(cfg, key, base, field):
    """(value, config) per value of grid ``key``."""
    return [(value, replace(base, **{field: value})) for value in cfg.floats(key)]


def cmd_sweep(cfg, args):
    kind = cfg["sweep.kind"]
    dcfg = _train_config(cfg, defend=True, seed_label="sweep-defend")
    acfg = _attack_config(cfg)
    if kind == "eps":
        defends = _sweep_points(cfg, "sweep.eps_d", dcfg, "eps_d_pct")
        attack_points = _sweep_points(cfg, "sweep.eps_a", acfg, "eps_pct")
    else:
        defends = _sweep_points(cfg, f"sweep.{kind}s", dcfg,
                                "lambda_" if kind == "lambda" else "alpha")
    out, inputs, split, fv, ft, enc = _workspace(cfg)
    pretrained = _load_checkpoint(args, out, inputs)
    man = RunManifest.create(args.command, cfg, inputs)
    targets = _select_targets(cfg, split)
    sweep_path = os.path.join(out, "sweep.csv")
    rows = []
    for value, point in defends:
        defended, _ = training.uat_mc_train(pretrained, enc, fv, ft, point)
        cache = metrics.RankCache(defended, enc)

        def gain(attack):
            _, _, (_, _, g) = run_campaign(defended, enc, fv, ft, targets, attack,
                                           cfg["eval.k_hit"], cache=cache)
            return g

        if kind == "eps":
            rows.extend([value, eps_a, gain(apoint)] for eps_a, apoint in attack_points)
        else:
            _, ndcg = metrics.recall_ndcg(defended, enc, k=cfg["eval.k_rank"], cache=cache)
            rows.append([value, ndcg, gain(acfg)])
    header = ["eps_d", "eps_a", "gain"] if kind == "eps" else [kind, "ndcg10", "gain"]
    reports.write_csv(sweep_path, header, rows)
    man.write(out, [sweep_path])
    print(f"sweep {kind}: {len(rows)} rows -> {sweep_path}")
    return EXIT_OK


def cmd_report(cfg, args):
    out = _out_dir(cfg)
    combined = []
    header = None
    for run_dir in args.runs or [out]:
        path = os.path.join(run_dir, "metrics.csv")
        if not os.path.exists(path):
            continue
        if not reports.verify_csv(path):
            raise DataError(f"{path}: fails its sha256 line")
        h, rows, _ = reports.read_csv(path)
        if header is not None and h != header:
            raise DataError(f"{path}: columns {h} differ from the first file's {header}")
        if any(len(row) != len(h) for row in rows):
            raise DataError(f"{path}: a row's field count differs from its {len(h)} columns")
        header = h
        combined.extend(rows)
    if header is None:
        raise DataError("no metrics.csv found in the given run directories")
    summary_path = os.path.join(out, "summary.csv")
    reports.write_csv(summary_path, header, combined)
    for row in combined:
        print(",".join(row))
    print(f"summary -> {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _csv_field(text):
    if any(c in text for c in ",\n\r"):  # it must stay one field of metrics.csv
        raise argparse.ArgumentTypeError(f"{text!r} holds a comma or a line break")
    return text


def build_parser():
    parser = argparse.ArgumentParser(prog="mmadvrec",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_checkpoint=False, needs_resume=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a dotted-key config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
        if needs_checkpoint:
            p.add_argument("--checkpoint", default=None)
        if needs_resume:
            p.add_argument("--resume", action="store_true")
        if name == "attack":
            p.add_argument("--label", default="none", type=_csv_field,
                           help="defense label recorded in metrics.csv")
        if name == "report":
            p.add_argument("--runs", nargs="*", default=None)
        p.set_defaults(func=func)
        return p

    add("gen-data", cmd_gen_data)
    add("train", cmd_fit, needs_resume=True)
    add("defend", cmd_fit, needs_checkpoint=True, needs_resume=True)
    add("attack", cmd_attack, needs_checkpoint=True)
    add("diagnose", cmd_diagnose, needs_checkpoint=True)
    add("sweep", cmd_sweep, needs_checkpoint=True)
    add("report", cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, args.set)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
