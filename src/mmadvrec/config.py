"""Experiment configuration: dotted-key text files, seed splitting, manifests.

Config files hold one ``key = value`` per line ('#' starts a comment); every
key must exist in the schema below, so typos fail loudly. CLI ``--set``
overrides take the same ``key=value`` form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from . import __version__


class ConfigError(Exception):
    """Invalid configuration key, value, or file."""


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _check_finite(key, values):
    # nan passes every range check (each comparison is false) and inf the
    # one-sided ones, so a non-finite float is refused before they run
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"{key!r} must be finite, got {v}")


def _check_bounds(key, values, low, high, open_low):
    for v in values:
        if not (low < v <= high or (v == low and not open_low)):
            raise ConfigError(f"{key!r} must lie in {'(' if open_low else '['}{low}, "
                              f"{high}{']' if high < math.inf else ')'}, got {v}")


# key -> (type constructor, default)
SCHEMA = {
    "seed": (int, 0),
    "data.path": (str, ""),
    "data.out_dir": (str, "out"),
    "synth.users": (int, 2000),
    "synth.items": (int, 1000),
    "synth.latent_dim": (int, 8),
    "synth.feat_dim_v": (int, 16),
    "synth.feat_dim_t": (int, 16),
    "synth.interactions_per_user": (int, 20),
    "synth.feature_noise": (float, 0.1),
    "synth.interaction_noise": (float, 0.05),
    "synth.mixing_overlap": (float, 0.0),
    "synth.unpopular_count": (int, 100),
    "synth.n_unpop": (int, 5),
    "model.kind": (str, "concat"),
    "model.dim": (int, 32),
    "model.fuse_dim": (int, 16),
    "model.nonlinearity": (str, "tanh"),
    "model.user_content": (str, "shared"),
    "train.eta": (float, 0.01),
    "train.beta": (float, 1e-5),
    "train.batch_size": (int, 256),
    "train.max_epochs": (int, 30),
    "train.patience": (int, 5),
    "train.eval_every": (int, 1),
    "train.optimizer": (str, "adam"),
    "train.reduction": (str, "sum"),
    "defense.mode": (str, "uat_mc"),
    "defense.lambda": (float, 1.0),
    "defense.alpha": (float, 1.0),
    "defense.beta": (float, 1e-5),
    "defense.eps_d_pct": (float, 0.10),
    "defense.max_epochs": (int, 10),
    "attack.variant": (str, "pgd"),
    "attack.eps_a_pct": (float, 0.10),
    "attack.pgd_steps": (int, 10),
    "attack.with_align": (_bool, False),
    "attack.align_weight": (float, 1.0),
    "attack.k": (int, 50),
    "attack.targets": (int, 100),
    "attack.threshold_mode": (str, "exact"),
    "attack.popularity_threshold": (int, 5),
    "eval.k_hit": (int, 50),
    "eval.k_rank": (int, 10),
    "sweep.kind": (str, "eps"),
    "sweep.eps_d": (str, "0.025,0.05,0.075,0.10"),
    "sweep.eps_a": (str, "0.025,0.05,0.075,0.10"),
    "sweep.lambdas": (str, "1,2,3,4,5,6,7,8,9,10"),
    "sweep.alphas": (str, "0.1,1,2,3,4,5,6,7,8,9,10"),
    "diagnose.targets": (int, 100),
    "diagnose.k_users": (int, 0),  # 0 = 10% of the promotion set
    "diagnose.bin_width": (float, 0.05),
}

# (low end, high end, low end excluded) of each bounded key; a count may be
# 0 only where its low end is 0
BOUNDS = {key: (1, math.inf, False) for key in (
    "synth.users", "synth.items", "synth.latent_dim", "synth.feat_dim_v",
    "synth.feat_dim_t", "synth.interactions_per_user", "synth.n_unpop",
    "model.dim", "model.fuse_dim", "train.batch_size", "train.max_epochs",
    "train.eval_every", "defense.max_epochs", "attack.pgd_steps", "attack.k",
    "attack.targets", "attack.popularity_threshold", "eval.k_hit", "eval.k_rank",
    "diagnose.targets")}
BOUNDS.update({key: (0, math.inf, False) for key in (
    "synth.unpopular_count", "train.patience", "diagnose.k_users", "train.beta",
    "defense.beta", "defense.lambda", "defense.alpha", "attack.align_weight")})
BOUNDS.update({key: (0, 1, True) for key in (
    "defense.eps_d_pct", "attack.eps_a_pct", "diagnose.bin_width")})
BOUNDS.update({"train.eta": (0, math.inf, True), "synth.mixing_overlap": (0, 1, False)})

# allowed values of each enum key
CHOICES = {
    "model.kind": ("concat", "graph"),
    "model.nonlinearity": ("identity", "tanh"),
    "model.user_content": ("shared", "id_only"),
    "train.optimizer": ("sgd", "adam"),
    "train.reduction": ("sum", "mean"),
    "defense.mode": ("uat", "uat_mc"),
    "attack.variant": ("fgsm", "pgd"),
    "attack.threshold_mode": ("exact", "at_most"),
    "sweep.kind": ("eps", "lambda", "alpha"),
}


# where files live, not what a run computes; left out of the run id
PATH_KEYS = ("data.path", "data.out_dir")


class Config:
    def __init__(self, values=None):
        self.values = {k: default for k, (_, default) in SCHEMA.items()}
        for k, v in (values or {}).items():
            self.set(k, v)

    def set(self, key, raw):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        ctor, _ = SCHEMA[key]
        try:
            value = ctor(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        if ctor is float:
            _check_finite(key, [value])
        if key in BOUNDS:
            _check_bounds(key, [value], *BOUNDS[key])
        if key in CHOICES and value not in CHOICES[key]:
            raise ConfigError(f"{key!r} must be one of {', '.join(CHOICES[key])}, "
                              f"got {value!r}")
        self.values[key] = value

    def __getitem__(self, key):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def floats(self, key, like):
        """The comma-separated floats of grid ``key``, at least one, each held
        to the bounds of the scalar key ``like`` that it stands for."""
        try:
            values = [float(x) for x in str(self[key]).split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad list for {key!r}") from exc
        if not values:
            raise ConfigError(f"{key!r} lists no value")
        _check_finite(key, values)
        _check_bounds(key, values, *BOUNDS[like])
        return values

    def snapshot(self):
        return dict(sorted(self.values.items()))


def load_config(path, overrides=()):
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                key, _, value = stripped.partition("=")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = Config(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg.set(key.strip(), value.strip())
    return cfg


def seed_for(root_seed, label):
    """Deterministically split one root seed per component."""
    digest = hashlib.sha256(f"{root_seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63)


def file_checksum(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    run_id: str
    command: str
    provenance: str
    config: dict
    input_checksums: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    @staticmethod
    def create(command, cfg, input_paths=()):
        """The run id hashes the command, the config without its path keys
        and the inputs' contents in input order, so the same run on the same
        bytes gets the same id wherever its files live."""
        checksums = {str(p): file_checksum(p) for p in input_paths}
        config = {k: v for k, v in cfg.snapshot().items() if k not in PATH_KEYS}
        body = json.dumps({"command": command, "config": config,
                           "inputs": list(checksums.values())}, sort_keys=True)
        run_id = hashlib.sha256(body.encode()).hexdigest()[:12]
        return RunManifest(run_id, command, f"mmadvrec-{__version__}",
                           cfg.snapshot(), checksums)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "command": self.command,
                       "provenance": self.provenance, "config": self.config,
                       "input_checksums": self.input_checksums,
                       "outputs": self.outputs}, fh, indent=2, sort_keys=True)
            fh.write("\n")
