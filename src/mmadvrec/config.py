"""Experiment configuration: dotted-key text files, seed splitting, manifests.

Config files hold one ``key = value`` per line ('#' starts a comment); every
key must exist in the schema below, so typos fail loudly. CLI ``--set``
overrides take the same ``key=value`` form. Each key's parser in ``SCHEMA``
states its allowed values, and every value, sweep grids included, is parsed
when it is set, so a bad one is a ConfigError before any command runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

from . import __version__


class ConfigError(Exception):
    """Invalid configuration key, value, or file."""


def _bool(text):
    t = str(text).strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _number(ctor, low=-math.inf, high=math.inf, open_low=False):
    """A parser of finite ``ctor`` values in [low, high], or (low, high] with
    ``open_low``."""
    interval = f"{'(' if open_low else '['}{low}, {high}{']' if high < math.inf else ')'}"

    def parse(text):
        value = ctor(text)
        # nan passes every range check (each comparison is false) and inf the
        # one-sided ones, so a non-finite value is refused before they run
        if not abs(value) < math.inf:
            raise ValueError(f"must be finite, got {value}")
        if not (low < value <= high or (value == low and not open_low)):
            raise ValueError(f"must lie in {interval}, got {value}")
        return value
    return parse


def _one_of(*choices):
    """A parser of the enum ``choices``, which it keeps as ``.choices``."""
    def parse(text):
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return text
    parse.choices = choices
    return parse


def _grid(scalar):
    """A parser of a comma-separated grid that lists at least one value, each
    held to the parser ``scalar`` of the key it stands for. It returns the
    text as written, so snapshots and run ids hash the grid as given."""
    def parse(text):
        text = str(text)
        if not [scalar(x) for x in text.split(",") if x.strip()]:
            raise ValueError("lists no value")
        return text
    return parse


_COUNT = _number(int, 1)  # a count may be 0 only where it is a _SIZE
_SIZE = _number(int, 0)
_WEIGHT = _number(float, 0)
_SHARE = _number(float, 0, 1, open_low=True)

# key -> (parser, default); the parser is the one statement of the key's
# allowed values, and it raises ValueError or TypeError on any other
SCHEMA = {
    "seed": (int, 0),
    "data.path": (str, ""),
    "data.out_dir": (str, "out"),
    "synth.users": (_COUNT, 2000),
    "synth.items": (_COUNT, 1000),
    "synth.latent_dim": (_COUNT, 8),
    "synth.feat_dim_v": (_COUNT, 16),
    "synth.feat_dim_t": (_COUNT, 16),
    "synth.interactions_per_user": (_COUNT, 20),
    "synth.feature_noise": (_number(float, 0), 0.1),  # a noise scale
    "synth.interaction_noise": (_number(float, 0, 1), 0.05),  # a flip probability
    "synth.mixing_overlap": (_number(float, 0, 1), 0.0),
    "synth.unpopular_count": (_SIZE, 100),
    "synth.n_unpop": (_COUNT, 5),
    "model.kind": (_one_of("concat", "graph"), "concat"),
    "model.dim": (_COUNT, 32),
    "model.fuse_dim": (_COUNT, 16),
    "model.nonlinearity": (_one_of("identity", "tanh"), "tanh"),
    "model.user_content": (_one_of("shared", "id_only"), "shared"),
    "train.eta": (_number(float, 0, open_low=True), 0.01),
    "train.beta": (_WEIGHT, 1e-5),
    "train.batch_size": (_COUNT, 256),
    "train.max_epochs": (_COUNT, 30),
    "train.patience": (_SIZE, 5),
    "train.eval_every": (_COUNT, 1),
    "train.optimizer": (_one_of("sgd", "adam"), "adam"),
    "train.reduction": (_one_of("sum", "mean"), "sum"),
    "defense.mode": (_one_of("uat", "uat_mc"), "uat_mc"),
    "defense.lambda": (_WEIGHT, 1.0),
    "defense.alpha": (_WEIGHT, 1.0),
    "defense.beta": (_WEIGHT, 1e-5),
    "defense.eps_d_pct": (_SHARE, 0.10),
    "defense.max_epochs": (_COUNT, 10),
    "attack.variant": (_one_of("fgsm", "pgd"), "pgd"),
    "attack.eps_a_pct": (_SHARE, 0.10),
    "attack.pgd_steps": (_COUNT, 10),
    "attack.with_align": (_bool, False),
    "attack.align_weight": (_WEIGHT, 1.0),
    "attack.k": (_COUNT, 50),
    "attack.targets": (_COUNT, 100),
    "attack.threshold_mode": (_one_of("exact", "at_most"), "exact"),
    "attack.popularity_threshold": (_COUNT, 5),
    "eval.k_hit": (_COUNT, 50),
    "eval.k_rank": (_COUNT, 10),
    "sweep.kind": (_one_of("eps", "lambda", "alpha"), "eps"),
    "sweep.eps_d": (_grid(_SHARE), "0.025,0.05,0.075,0.10"),
    "sweep.eps_a": (_grid(_SHARE), "0.025,0.05,0.075,0.10"),
    "sweep.lambdas": (_grid(_WEIGHT), "1,2,3,4,5,6,7,8,9,10"),
    "sweep.alphas": (_grid(_WEIGHT), "0.1,1,2,3,4,5,6,7,8,9,10"),
    "diagnose.targets": (_COUNT, 100),
    "diagnose.k_users": (_SIZE, 0),  # 0 = 10% of the promotion set
    "diagnose.bin_width": (_number(float, 1e-4, 1), 0.05),  # at most 10,000 bins
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
        try:
            self.values[key] = SCHEMA[key][0](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc

    def __getitem__(self, key):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def floats(self, key):
        """The comma-separated floats of grid ``key``, checked when it was set."""
        return [float(x) for x in self[key].split(",") if x.strip()]

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
    input_checksums: dict

    @staticmethod
    def create(command, cfg, input_paths):
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

    def write(self, out_dir, outputs):
        """Write ``manifest_<command>.json`` (``-`` becomes ``_``) into
        ``out_dir``, listing the paths of the run's ``outputs``."""
        name = f"manifest_{self.command.replace('-', '_')}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "command": self.command,
                       "provenance": self.provenance, "config": self.config,
                       "input_checksums": self.input_checksums,
                       "outputs": sorted(outputs)}, fh, indent=2, sort_keys=True)
            fh.write("\n")
