"""Write one workload's input files: the dataset and a starting checkpoint.

Runs in its own process, so that generating the data (and, for
``concat_uatmc``, pretraining the checkpoint the defence starts from) adds
nothing to the measured process's peak memory. Usage:

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from mmadvrec import data, models, training  # noqa: E402
from mmadvrec.config import seed_for  # noqa: E402


# Known fault: ``load_interactions`` takes the catalog size from the largest
# item id it reads, so a dataset whose last items nobody consumed does not
# reload (its feature files have more rows). Such generator draws are left
# out: the next seed split from the workload seed is drawn instead, and the
# retry is logged.
MAX_DRAWS = 20


def generate(wl, seed, paths):
    """Write the dataset drawn from ``seed``; returns (table, fv, ft)."""
    for draw in range(MAX_DRAWS):
        label = "synth" if draw == 0 else f"synth/{draw}"
        table, fv, ft = data.synth_generate(wl.synth_config(), seed_for(seed, label))
        data.save_interactions(table, paths["interactions"])
        data.write_features(fv, paths["features_v"])
        data.write_features(ft, paths["features_t"])
        try:
            reloaded = data.load_interactions(paths["interactions"])
            data.load_features(paths["features_v"], "v", expected_items=reloaded.num_items)
            return table, fv, ft
        except data.DataError as exc:
            print(f"prepare: draw {label!r} of seed {seed} does not reload ({exc}); "
                  f"drawing again", flush=True)
    raise data.DataError(f"no reloadable dataset in {MAX_DRAWS} draws of seed {seed}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    paths = workloads.input_paths(args.out)
    table, fv, ft = generate(wl, args.seed, paths)
    params = workloads.init_params(wl, table, fv, ft, args.seed)
    if wl.pretrain_epochs:
        split = data.split_leave_one_out(table, seed_for(args.seed, "split"))
        enc = models.DatasetEncoding(split, fv, ft, wl.kind)
        cfg = workloads.train_config(args.seed, defend=False, epoch=1,
                                     max_epochs=wl.pretrain_epochs)
        params, _ = training.pretrain(params, enc, fv, ft, cfg)
    models.save_checkpoint(params, paths["checkpoint"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
