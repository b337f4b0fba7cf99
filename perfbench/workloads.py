"""The benchmark's three workloads and the program settings they use.

Every setting not named here is the program's default (``config.SCHEMA``),
and every seed is split from the workload seed with ``config.seed_for`` under
the same labels the CLI uses, so seed 7 gives the CLI's default dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from mmadvrec import data, metrics, models
from mmadvrec.attacks import AttackConfig
from mmadvrec.config import Config, seed_for
from mmadvrec.training import DefenseConfig

DEFAULTS = Config()


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # model.kind
    items: int  # synth.items
    defend: bool  # train stage: UAT-MC defence epochs instead of pretraining
    with_align: bool  # attack.with_align
    pretrain_epochs: int  # epochs behind the starting checkpoint (0 = init)
    expect_gain: bool  # the campaign must raise the mean hit (undefended model)
    # Wall seconds of one train-stage epoch on the reference machine; sizes
    # the stage's fixed epoch count from --seconds.
    epoch_seconds: float

    def synth_config(self):
        return data.SynthConfig(
            num_users=DEFAULTS["synth.users"], num_items=self.items,
            latent_dim=DEFAULTS["synth.latent_dim"], feat_dim_v=DEFAULTS["synth.feat_dim_v"],
            feat_dim_t=DEFAULTS["synth.feat_dim_t"],
            interactions_per_user=DEFAULTS["synth.interactions_per_user"],
            feature_noise=DEFAULTS["synth.feature_noise"],
            interaction_noise=DEFAULTS["synth.interaction_noise"],
            mixing_overlap=DEFAULTS["synth.mixing_overlap"],
            unpopular_count=DEFAULTS["synth.unpopular_count"], n_unpop=DEFAULTS["synth.n_unpop"])


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("concat_pretrain", "concat", 1000, defend=False, with_align=False,
             pretrain_epochs=0, expect_gain=True, epoch_seconds=1.45),
    Workload("concat_uatmc", "concat", 1000, defend=True, with_align=True,
             pretrain_epochs=2, expect_gain=False, epoch_seconds=2.75),
    Workload("graph_large", "graph", 3000, defend=False, with_align=False,
             pretrain_epochs=0, expect_gain=False, epoch_seconds=2.3),
)}


def input_paths(base):
    return {"interactions": os.path.join(base, "interactions.tsv"),
            "features_v": os.path.join(base, "features_v.mmfe"),
            "features_t": os.path.join(base, "features_t.mmfe"),
            "checkpoint": os.path.join(base, "start.ckpt")}


def init_params(wl, table, fv, ft, seed):
    return models.init_params(
        table.num_users, table.num_items, fv.dim, ft.dim, kind=wl.kind,
        phi=DEFAULTS["model.nonlinearity"], user_content=DEFAULTS["model.user_content"],
        id_dim=DEFAULTS["model.dim"], fuse_dim=DEFAULTS["model.fuse_dim"],
        seed=seed_for(seed, "init"))


def train_config(seed, *, defend, epoch, max_epochs=1):
    """The CLI's ``train`` / ``defend`` settings for epochs starting at
    ``epoch``, seeded as ``--resume`` seeds them."""
    label = f"defend-{epoch}" if defend else f"pretrain-{epoch}"
    return DefenseConfig(
        mode=DEFAULTS["defense.mode"] if defend else "uat_mc",
        lambda_=DEFAULTS["defense.lambda"] if defend else 0.0,
        alpha=DEFAULTS["defense.alpha"] if defend else 0.0,
        beta=DEFAULTS["defense.beta"] if defend else DEFAULTS["train.beta"],
        eta=DEFAULTS["train.eta"], eps_d_pct=DEFAULTS["defense.eps_d_pct"],
        batch_size=DEFAULTS["train.batch_size"], max_epochs=max_epochs,
        patience=DEFAULTS["train.patience"], eval_every=DEFAULTS["train.eval_every"],
        eval_k=DEFAULTS["eval.k_rank"], optimizer=DEFAULTS["train.optimizer"],
        reduction=DEFAULTS["train.reduction"], seed=seed_for(seed, label))


def attack_config(wl):
    return AttackConfig(variant=DEFAULTS["attack.variant"], eps_pct=DEFAULTS["attack.eps_a_pct"],
                        pgd_steps=DEFAULTS["attack.pgd_steps"], with_align=wl.with_align,
                        align_weight=DEFAULTS["attack.align_weight"], k=DEFAULTS["attack.k"])


def targets(split, seed):
    return metrics.select_targets(split, DEFAULTS["attack.targets"],
                                  n_unpop=DEFAULTS["attack.popularity_threshold"],
                                  mode=DEFAULTS["attack.threshold_mode"],
                                  seed=seed_for(seed, "targets"))
