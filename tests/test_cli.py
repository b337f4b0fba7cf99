import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from mmadvrec import cli, config, data, mismatch, reports, training
from mmadvrec.config import Config, ConfigError, load_config, seed_for

from conftest import damaged_checkpoint, damaged_features

BASE_CFG = """
seed = 7
synth.users = 100
synth.items = 60
synth.feat_dim_v = 6
synth.feat_dim_t = 6
synth.interactions_per_user = 7
synth.unpopular_count = 10
synth.n_unpop = 4
attack.popularity_threshold = 4
model.dim = 10
model.fuse_dim = 5
train.max_epochs = 4
train.batch_size = 64
train.optimizer = adam
defense.max_epochs = 2
attack.targets = 5
attack.pgd_steps = 3
attack.k = 12
eval.k_hit = 12
diagnose.targets = 4
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.cfg"
    out = root / "run"
    cfg_path.write_text(BASE_CFG + f"data.out_dir = {out}\n", encoding="utf-8")
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path),
                     "--set", f"data.path={out}"]) == 0
    return {"cfg": str(cfg_path), "out": str(out)}


def run(workspace, *args):
    return cli.main([args[0], "--config", workspace["cfg"],
                     "--set", f"data.path={workspace['out']}", *args[1:]])


def test_gen_data_outputs(workspace):
    out = workspace["out"]
    for name in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe",
                 "stats.json", "manifest_gen_data.json"):
        assert os.path.exists(os.path.join(out, name))
    stats = json.loads(Path(out, "stats.json").read_text(encoding="utf-8"))
    expect = (1 - stats["num_interactions"]
              / (stats["num_users"] * stats["num_items"])) * 100
    assert abs(stats["sparsity_pct"] - expect) < 1e-9


def test_gen_data_deterministic(workspace, tmp_path):
    cfg2 = tmp_path / "again.cfg"
    out2 = tmp_path / "ds2"
    cfg2.write_text(BASE_CFG + f"data.out_dir = {out2}\n", encoding="utf-8")
    assert cli.main(["gen-data", "--config", str(cfg2)]) == 0
    for name in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe"):
        a = Path(workspace["out"], name).read_bytes()
        b = Path(out2, name).read_bytes()
        assert a == b


def test_defend_modes_and_logs(workspace):
    out = workspace["out"]
    assert run(workspace, "defend") == 0
    header, rows, _ = reports.read_csv(os.path.join(out, "defend_log.csv"))
    align_col = header.index("align_mean")
    assert any(float(r[align_col]) != 0.0 for r in rows)
    assert run(workspace, "defend", "--set", "defense.mode=uat") == 0
    _, rows, _ = reports.read_csv(os.path.join(out, "defend_log.csv"))
    assert all(float(r[align_col]) == 0.0 for r in rows)
    # restore the coordinated checkpoint for downstream tests
    assert run(workspace, "defend") == 0


def test_attack_outputs_and_rows(workspace):
    out = workspace["out"]
    assert run(workspace, "attack") == 0
    header, rows, _ = reports.read_csv(os.path.join(out, "attack_results.csv"))
    assert rows[-1][0] == "mean"
    assert len(rows) == 5 + 1  # targets + mean row
    _, trows, _ = reports.read_csv(os.path.join(out, "attack_trace.csv"))
    assert len(trows) == 5 * 3  # pgd_steps per target
    assert run(workspace, "attack", "--set", "attack.variant=fgsm") == 0
    _, trows, _ = reports.read_csv(os.path.join(out, "attack_trace.csv"))
    assert len(trows) == 5 * 1
    header, mrows, _ = reports.read_csv(os.path.join(out, "metrics.csv"))
    assert header[:4] == ["run_id", "defense", "attack", "eps_d"]
    assert len(mrows) == 1


def test_attack_rerun_byte_identical(workspace, tmp_path):
    out = workspace["out"]
    assert run(workspace, "attack") == 0
    first = {n: Path(out, n).read_bytes()
             for n in ("attack_results.csv", "attack_trace.csv", "metrics.csv")}
    assert run(workspace, "attack") == 0
    for n, blob in first.items():
        assert Path(out, n).read_bytes() == blob


def test_defend_rerun_byte_identical(workspace):
    out = workspace["out"]
    assert run(workspace, "defend") == 0
    ck = Path(out, "defended.ckpt").read_bytes()
    log = Path(out, "defend_log.csv").read_bytes()
    assert run(workspace, "defend") == 0
    assert Path(out, "defended.ckpt").read_bytes() == ck
    assert Path(out, "defend_log.csv").read_bytes() == log


def test_train_resume_continues_epochs(workspace):
    out = workspace["out"]
    _, rows, _ = reports.read_csv(os.path.join(out, "train_log.csv"))
    last = int(rows[-1][0])
    assert run(workspace, "train", "--resume") == 0
    _, rows2, _ = reports.read_csv(os.path.join(out, "train_log.csv"))
    assert int(rows2[0][0]) == 1
    assert int(rows2[-1][0]) > last


@pytest.mark.parametrize("damage", ["old columns", "cut"])
def test_resume_refuses_a_log_it_cannot_extend(workspace, tmp_path, capsys, damage):
    for name in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe", "pretrained.ckpt"):
        shutil.copy(os.path.join(workspace["out"], name), tmp_path / name)
    log = tmp_path / "train_log.csv"
    if damage == "old columns":  # the log as written before its seconds column went
        reports.write_csv(log, ["epoch", "clean_loss", "adv_loss", "align_mean",
                                "val_recall10", "seconds"], [[1, 0.5, 0.0, 0.0, 0.25, 0.0]])
    else:  # cut inside its last row, before the sha256 line
        raw = Path(workspace["out"], "train_log.csv").read_bytes()
        log.write_bytes(raw[:raw.rindex(b"\n", 0, raw.rindex(b"# sha256")) - 5])
    before = log.read_bytes()
    assert cli.main(["train", "--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
                     "--set", f"data.out_dir={tmp_path}", "--resume"]) == cli.EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and str(log) in lines[0]
    assert log.read_bytes() == before


@pytest.mark.parametrize("command, ckpt", [("train", "pretrained.ckpt"),
                                           ("defend", "defended.ckpt")])
def test_resumed_run_manifest_lists_the_checkpoint_it_read(workspace, tmp_path, command, ckpt):
    for name in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe",
                 "pretrained.ckpt", "train_log.csv"):
        shutil.copy(os.path.join(workspace["out"], name), tmp_path / name)
    args = ["--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
            "--set", f"data.out_dir={tmp_path}"]
    if command == "defend":
        assert cli.main(["defend", *args]) == cli.EXIT_OK
    before = config.file_checksum(tmp_path / ckpt)
    assert cli.main([command, *args, "--resume"]) == cli.EXIT_OK
    man = json.loads((tmp_path / f"manifest_{command}.json").read_text(encoding="utf-8"))
    ckpts = {p: c for p, c in man["input_checksums"].items() if p.endswith(".ckpt")}
    assert ckpts == {os.path.join(str(tmp_path), ckpt): before}
    assert config.file_checksum(tmp_path / ckpt) != before  # the run wrote over it


@pytest.mark.parametrize("command, ckpt, log", [("train", "pretrained.ckpt", "train_log.csv"),
                                                ("defend", "defended.ckpt", "defend_log.csv")])
def test_resumed_run_manifest_lists_the_log_it_extends(workspace, tmp_path, command, ckpt, log):
    """Two resumes from one checkpoint that extend different logs get
    different run ids: the manifest lists the log with its checksum from
    before the run. The second resume extends the log the first wrote."""
    for name in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe",
                 "pretrained.ckpt", "train_log.csv"):
        shutil.copy(os.path.join(workspace["out"], name), tmp_path / name)
    args = ["--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
            "--set", f"data.out_dir={tmp_path}"]
    if command == "defend":
        assert cli.main(["defend", *args]) == cli.EXIT_OK
    start = (tmp_path / ckpt).read_bytes()
    run_ids = []
    for _ in range(2):
        (tmp_path / ckpt).write_bytes(start)
        before = config.file_checksum(tmp_path / log)
        assert cli.main([command, *args, "--resume"]) == cli.EXIT_OK
        man = json.loads((tmp_path / f"manifest_{command}.json").read_text(encoding="utf-8"))
        assert man["input_checksums"][os.path.join(str(tmp_path), log)] == before
        run_ids.append(man["run_id"])
    assert run_ids[0] != run_ids[1]


def test_diagnose_outputs(workspace):
    out = workspace["out"]
    assert run(workspace, "diagnose") == 0
    _, items, _ = reports.read_csv(os.path.join(out, "mismatch_items.csv"))
    _, hist, comments = reports.read_csv(os.path.join(out, "mismatch_hist.csv"))
    assert sum(int(r[2]) for r in hist) == len(items) == 4
    assert any(c.startswith("mean=") for c in comments)
    _, users_rows, _ = reports.read_csv(os.path.join(out, "mismatch_users.csv"))
    # per-user dump row count equals the summed promotion-set sizes
    assert len(users_rows) > 0
    width = Config()["diagnose.bin_width"]
    edges = [(float(r[0]), float(r[1])) for r in hist]
    assert len(edges) == round(1 / width)
    assert [high for _, high in edges[:-1]] == [low for low, _ in edges[1:]]
    for j, (low, high) in enumerate(edges):
        assert low == pytest.approx(j * width) and high == pytest.approx((j + 1) * width)
    assert run(workspace, "diagnose") == 0
    _, items2, _ = reports.read_csv(os.path.join(out, "mismatch_items.csv"))
    assert items == items2


@pytest.mark.parametrize("width", ["0", "-0.5", "1.5"])
def test_bin_width_outside_the_unit_interval_is_config_error(workspace, monkeypatch, capsys,
                                                             tmp_path, width):
    surveyed = []
    monkeypatch.setattr(mismatch, "mismatch_survey", lambda *a, **k: surveyed.append(a))
    assert run(workspace, "diagnose", "--set", f"data.out_dir={tmp_path}",
               "--set", f"diagnose.bin_width={width}") == cli.EXIT_CONFIG
    assert surveyed == [] and os.listdir(tmp_path) == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "diagnose.bin_width" in lines[0]


def test_diagnose_that_surveys_no_target_is_data_error(workspace, tmp_path, capsys):
    """At k_hit = 60 on a 60-item catalog every target is skipped."""
    assert run(workspace, "diagnose", "--set", f"data.out_dir={tmp_path}",
               "--set", "eval.k_hit=60",
               "--checkpoint", os.path.join(workspace["out"], "pretrained.ckpt")) == cli.EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: surveyed none of 4 targets")
    assert "k=60 must be smaller than the item catalog" in lines[0]
    assert os.listdir(tmp_path) == []


def test_sweep_grids(workspace):
    out = workspace["out"]
    assert run(workspace, "sweep", "--set", "sweep.kind=eps",
               "--set", "sweep.eps_d=0.05,0.10", "--set", "sweep.eps_a=0.05,0.10",
               "--set", "attack.targets=2", "--set", "attack.variant=fgsm",
               "--set", "defense.max_epochs=1") == 0
    header, rows, _ = reports.read_csv(os.path.join(out, "sweep.csv"))
    assert header == ["eps_d", "eps_a", "gain"]
    assert len(rows) == 4
    assert run(workspace, "sweep", "--set", "sweep.kind=lambda",
               "--set", "sweep.lambdas=1,2", "--set", "attack.targets=2",
               "--set", "attack.variant=fgsm", "--set", "defense.max_epochs=1") == 0
    header, rows, _ = reports.read_csv(os.path.join(out, "sweep.csv"))
    assert header == ["lambda", "ndcg10", "gain"]
    assert len(rows) == 2
    assert run(workspace, "sweep", "--set", "sweep.kind=alpha",
               "--set", "sweep.alphas=0.1,1", "--set", "attack.targets=2",
               "--set", "attack.variant=fgsm", "--set", "defense.max_epochs=1") == 0
    header, rows, _ = reports.read_csv(os.path.join(out, "sweep.csv"))
    assert float(rows[0][0]) == 0.1


def test_report_merges_metrics(workspace):
    out = workspace["out"]
    assert run(workspace, "report") == 0
    assert os.path.exists(os.path.join(out, "summary.csv"))


@pytest.mark.parametrize("damage", ["cut in its sha256 line", "other columns",
                                    "a row of other length"])
def test_report_refuses_a_damaged_metrics_file(workspace, tmp_path, capsys, damage):
    header = ["run_id", "defense", "gain"]
    first, second, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
    for d in (first, second, out):
        d.mkdir()
    reports.write_csv(first / "metrics.csv", header, [["abc", "none", 1.5]])
    if damage == "other columns":
        reports.write_csv(second / "metrics.csv", header[:2], [["def", "uat_mc"]])
    elif damage == "a row of other length":  # as a label holding a comma wrote it
        reports.write_csv(second / "metrics.csv", header, [["def", "uat", "mc", 2.5]])
    else:
        raw = (first / "metrics.csv").read_bytes()
        (second / "metrics.csv").write_bytes(raw[:raw.rindex(b"# sha256=") + 20])
    assert run(workspace, "report", "--runs", str(first), str(second),
               "--set", f"data.out_dir={out}") == cli.EXIT_DATA
    assert str(second / "metrics.csv") in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("label", ["uat,mc", "uat\nmc", "uat\rmc"],
                         ids=["comma", "newline", "return"])
def test_attack_refuses_a_label_that_is_not_one_csv_field(workspace, tmp_path, capsys, label):
    ckpt = Path(workspace["out"], "pretrained.ckpt")
    assert run(workspace, "attack", "--label", label, "--checkpoint", str(ckpt),
               "--set", f"data.out_dir={tmp_path}") == cli.EXIT_CONFIG
    assert "--label" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_rejected(workspace):
    assert run(workspace, "train", "--set", "train.nope=1") == cli.EXIT_CONFIG
    with pytest.raises(ConfigError):
        Config({"bogus.key": "1"})


def test_missing_dataset_is_data_error(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.out_dir = {tmp_path}\ndata.path = {tmp_path}/missing\n",
                   encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_DATA


def test_config_file_parsing(tmp_path):
    p = tmp_path / "x.cfg"
    p.write_text("# comment\nseed = 9\nmodel.kind = graph\nattack.with_align = false\n",
                 encoding="utf-8")
    cfg = load_config(p)
    assert cfg["seed"] == 9 and cfg["model.kind"] == "graph"
    assert cfg["attack.with_align"] is False
    assert load_config(p, ["attack.with_align=yes"])["attack.with_align"] is True
    p.write_text("seed 9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(p)
    # a leading BOM is skipped, not read into the first key
    p.write_text("\ufeffseed = 3\n", encoding="utf-8")
    assert load_config(p)["seed"] == 3


def test_seed_split_stable():
    assert seed_for(7, "synth") == seed_for(7, "synth")
    assert seed_for(7, "synth") != seed_for(7, "split")
    assert seed_for(7, "synth") != seed_for(8, "synth")


def test_csv_checksum_integrity(workspace):
    out = workspace["out"]
    for name in ("attack_results.csv", "metrics.csv", "train_log.csv"):
        assert reports.verify_csv(os.path.join(out, name))


@pytest.mark.parametrize("key", ["train.batch_size", "train.eval_every"])
def test_non_positive_loop_size_is_config_error(workspace, key, capsys):
    for value in ("0", "-2"):
        assert run(workspace, "train", "--set", f"{key}={value}") == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(key in line for line in lines)


def test_count_keys_reject_non_positive_values():
    for key in ("attack.k", "eval.k_hit", "attack.pgd_steps", "synth.items",
                "model.dim", "diagnose.targets", "defense.max_epochs"):
        with pytest.raises(ConfigError):
            Config({key: "0"})
    cfg = Config({"train.patience": "0", "diagnose.k_users": "0",
                  "synth.unpopular_count": "0"})
    assert cfg["train.patience"] == 0 and cfg["diagnose.k_users"] == 0


def test_truncated_checkpoint_is_data_error(workspace, tmp_path):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(Path(workspace["out"], "pretrained.ckpt").read_bytes()[:30])
    assert run(workspace, "attack", "--checkpoint", str(ckpt),
               "--set", f"data.out_dir={tmp_path}") == cli.EXIT_DATA


def test_feature_header_cut_is_data_error(workspace, tmp_path):
    src = workspace["out"]
    for name in ("interactions.tsv", "features_t.mmfe"):
        (tmp_path / name).write_bytes(Path(src, name).read_bytes())
    (tmp_path / "features_v.mmfe").write_bytes(
        Path(src, "features_v.mmfe").read_bytes()[:12])
    assert cli.main(["attack", "--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
                     "--set", f"data.out_dir={tmp_path}",
                     "--checkpoint", os.path.join(src, "pretrained.ckpt")]) == cli.EXIT_DATA


def test_feature_file_of_zero_columns_is_data_error(workspace, tmp_path):
    src = workspace["out"]
    for name in ("interactions.tsv", "features_t.mmfe"):
        (tmp_path / name).write_bytes(Path(src, name).read_bytes())
    (tmp_path / "features_v.mmfe").write_bytes(
        b"MMFE" + (1).to_bytes(4, "little") + (2 ** 64 - 1).to_bytes(8, "little") + bytes(8))
    assert cli.main(["train", "--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
                     "--set", f"data.out_dir={tmp_path}"]) == cli.EXIT_DATA


@pytest.mark.parametrize("name, edit, message", [
    ("features_v.mmfe", "nan", "non-finite values"),
    ("features_t.mmfe", "version 2", "features_t.mmfe: unsupported version 2"),
    ("pretrained.ckpt", "version 2", "unsupported checkpoint version 2"),
    ("pretrained.ckpt", "rename user_embeds", "malformed block name"),
    ("pretrained.ckpt", "nan proj_t", "non-finite parameter value"),
    ("pretrained.ckpt", "widen user_embeds", "user embedding width inconsistent")])
def test_damaged_feature_or_checkpoint_file_is_data_error(workspace, tmp_path, capsys,
                                                          name, edit, message):
    for f in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe", "pretrained.ckpt"):
        shutil.copy(os.path.join(workspace["out"], f), tmp_path / f)
    damage = damaged_features if name.endswith(".mmfe") else damaged_checkpoint
    (tmp_path / name).write_bytes(damage((tmp_path / name).read_bytes(), edit))
    assert cli.main(["attack", "--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
                     "--set", f"data.out_dir={tmp_path}"]) == cli.EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:") and message in lines[0]
    assert str(tmp_path / name) in lines[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_loss_is_numerical_abort(workspace, tmp_path, capsys):
    assert run(workspace, "train", "--set", f"data.out_dir={tmp_path}",
               "--set", "train.eta=1e300") == cli.EXIT_NUMERIC
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["numerical abort: training loss is nan"]
    assert os.listdir(tmp_path) == []


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 7\n\xff\n")
    assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "bad.cfg" in capsys.readouterr().err


def test_interactions_that_are_not_utf8_are_data_error(workspace, tmp_path, capsys):
    src = workspace["out"]
    for name in ("features_v.mmfe", "features_t.mmfe"):
        (tmp_path / name).write_bytes(Path(src, name).read_bytes())
    (tmp_path / "interactions.tsv").write_bytes(
        Path(src, "interactions.tsv").read_bytes() + b"1\t\xff\n")
    assert cli.main(["train", "--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
                     "--set", f"data.out_dir={tmp_path}"]) == cli.EXIT_DATA
    assert "interactions.tsv" in capsys.readouterr().err


def test_interactions_with_a_user_id_past_any_array_size_are_data_error(workspace, tmp_path,
                                                                       capsys):
    src = workspace["out"]
    for name in ("features_v.mmfe", "features_t.mmfe"):
        (tmp_path / name).write_bytes(Path(src, name).read_bytes())
    (tmp_path / "interactions.tsv").write_text("4611686018427387904\t0\n0\t1\n",
                                               encoding="utf-8")
    assert cli.main(["train", "--config", workspace["cfg"], "--set", f"data.path={tmp_path}",
                     "--set", f"data.out_dir={tmp_path}"]) == cli.EXIT_DATA
    assert "too many" in capsys.readouterr().err


def test_report_of_a_metrics_file_that_is_not_utf8_is_data_error(workspace, tmp_path, capsys):
    (tmp_path / "metrics.csv").write_bytes(b"run_id,gain_pct\n\xff,1.0\n")
    assert run(workspace, "report", "--runs", str(tmp_path),
               "--set", f"data.out_dir={tmp_path}") == cli.EXIT_DATA
    assert "metrics.csv" in capsys.readouterr().err
    assert not reports.verify_csv(tmp_path / "metrics.csv")
    (tmp_path / "metrics.csv").write_bytes(b"a\n# sha256=\xff\n")
    assert not reports.verify_csv(tmp_path / "metrics.csv")


@pytest.mark.parametrize("args, message", [
    (["train"], "data.path is not set"),
    (["attack", "--set", "data.path={data}", "--set", "attack.popularity_threshold=1",
      "--checkpoint", "{data}/pretrained.ckpt"], "no unpopular items qualify"),
    (["report", "--runs", "{tmp}/empty", "{tmp}/empty"], "no metrics.csv found"),
    (["report", "--runs", "{tmp}/latin1"], "not UTF-8 text")],
    ids=["no-data-path", "no-target-qualifies", "no-metrics-file", "signed-but-not-utf8"])
def test_data_error_exits_3_with_one_line_and_no_traceback(workspace, tmp_path, capsys,
                                                           args, message):
    """The workspace config leaves data.path unset; a metrics.csv whose
    sha256 line is valid still needs a UTF-8 body."""
    (tmp_path / "empty").mkdir()
    (tmp_path / "latin1").mkdir()
    body = b"run_id,gain_pct\n\xe9t\xe9,1.0\n"
    (tmp_path / "latin1" / "metrics.csv").write_bytes(
        body + b"# sha256=" + hashlib.sha256(body).hexdigest().encode() + b"\n")
    argv = [a.format(data=workspace["out"], tmp=tmp_path) for a in args]
    assert cli.main([argv[0], "--config", workspace["cfg"],
                     "--set", f"data.out_dir={tmp_path / 'out'}", *argv[1:]]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:") and message in lines[0]
    assert "Traceback" not in captured.out + captured.err
    assert list((tmp_path / "out").glob("*.csv")) == []


@pytest.mark.parametrize("key, value, block", [("synth.feat_dim_v", "8", "proj_v"),
                                               ("synth.users", "150", "user_embeds")])
def test_checkpoint_that_does_not_fit_the_dataset_is_data_error(workspace, tmp_path, capsys,
                                                                key, value, block):
    other = tmp_path / "other"
    assert cli.main(["gen-data", "--config", workspace["cfg"], "--set", f"data.out_dir={other}",
                     "--set", f"{key}={value}"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["attack", "--config", workspace["cfg"], "--set", f"data.path={other}",
                     "--set", f"data.out_dir={other}",
                     "--checkpoint", os.path.join(workspace["out"], "pretrained.ckpt")]
                    ) == cli.EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and block in lines[0]


def test_run_id_does_not_depend_on_where_files_live(workspace, tmp_path):
    blobs = []
    for name in ("a", "b"):
        where = tmp_path / name / "run"
        where.mkdir(parents=True)
        for f in ("interactions.tsv", "features_v.mmfe", "features_t.mmfe", "pretrained.ckpt"):
            shutil.copy(os.path.join(workspace["out"], f), where / f)
        assert cli.main(["attack", "--config", workspace["cfg"], "--set", f"data.path={where}",
                         "--set", f"data.out_dir={where}"]) == cli.EXIT_OK
        blobs.append((where / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("kind, key, value", [("eps", "sweep.eps_a", "0.05,1.5"),
                                              ("eps", "sweep.eps_d", "0.05,2"),
                                              ("lambda", "sweep.lambdas", "1,-1"),
                                              ("alpha", "sweep.alphas", "0.1,-2"),
                                              ("lambda", "sweep.lambdas", "1,nan"),
                                              ("eps", "sweep.eps_a", "0.05,inf"),
                                              ("eps", "sweep.eps_a", "0.05,abc"),
                                              ("eps", "sweep.eps_d", ","),
                                              ("alpha", "sweep.alphas", " , ")])
def test_sweep_rejects_a_bad_grid_value_before_training(workspace, monkeypatch, capsys,
                                                        kind, key, value):
    trained = []
    monkeypatch.setattr(training, "uat_mc_train", lambda *a, **k: trained.append(a))
    assert run(workspace, "sweep", "--set", f"sweep.kind={kind}",
               "--set", f"{key}={value}") == cli.EXIT_CONFIG
    assert trained == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and key in lines[0]


@pytest.mark.parametrize("command, key, value", [("attack", "model.kind", "xyz"),
                                                 ("attack", "train.optimizer", "xyz"),
                                                 ("attack", "attack.variant", "xyz"),
                                                 ("attack", "attack.eps_a_pct", "2"),
                                                 ("attack", "attack.threshold_mode", "xyz"),
                                                 ("attack", "attack.align_weight", "-3"),
                                                 ("train", "train.optimizer", "xyz"),
                                                 ("attack", "attack.align_weight", "nan"),
                                                 ("defend", "defense.lambda", "nan"),
                                                 ("defend", "defense.alpha", "nan"),
                                                 ("train", "train.eta", "nan"),
                                                 ("defend", "defense.beta", "inf"),
                                                 ("train", "train.eta", "0"),
                                                 ("attack", "attack.with_align", "maybe"),
                                                 ("train", "train.eta", None)])
def test_bad_enum_or_range_value_is_config_error(workspace, tmp_path, capsys,
                                                 command, key, value):
    """A value of None passes the key alone, with no '='."""
    checkpoint = os.path.join(workspace["out"], "pretrained.ckpt")
    extra = ["--checkpoint", checkpoint] if command == "attack" else []
    override = key if value is None else f"{key}={value}"
    assert run(workspace, command, "--set", f"data.out_dir={tmp_path}",
               "--set", override, *extra) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key, value", [("attack.eps_a_pct", "2"),
                                        ("diagnose.bin_width", "0"),
                                        ("train.eta", "0"),
                                        ("defense.lambda", "-1"),
                                        ("synth.mixing_overlap", "1.5"),
                                        ("sweep.eps_d", "0.1,2"),
                                        ("sweep.alphas", "nan"),
                                        ("sweep.eps_a", ",")])
def test_every_command_refuses_an_out_of_bounds_value(workspace, tmp_path, capsys, key, value):
    for command in ("gen-data", "train", "defend", "attack", "diagnose", "sweep"):
        assert run(workspace, command, "--set", f"data.out_dir={tmp_path}",
                   "--set", f"{key}={value}") == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error") and key in lines[0]
    assert os.listdir(tmp_path) == []


GRIDS = ("sweep.eps_d", "sweep.eps_a", "sweep.lambdas", "sweep.alphas")


def test_every_float_key_refuses_non_finite_values():
    floats = [key for key, (_, default) in config.SCHEMA.items() if isinstance(default, float)]
    assert "defense.lambda" in floats
    for key in floats:
        for value in ("nan", "inf", "-inf", "NaN"):
            with pytest.raises(ConfigError, match=key):
                Config({key: value})
    for key in GRIDS:
        assert Config({key: "0.1, 1"}).floats(key) == [0.1, 1.0]
        for value in ("0.1,nan", "inf", "0.1,-inf", "0.1,-1", ",", ""):
            with pytest.raises(ConfigError, match=key):
                Config({key: value})


def test_every_grid_holds_its_values_to_the_key_it_stands_for():
    for key, scalar in (("sweep.eps_d", "defense.eps_d_pct"), ("sweep.eps_a", "attack.eps_a_pct"),
                        ("sweep.lambdas", "defense.lambda"), ("sweep.alphas", "defense.alpha")):
        assert Config({key: "0.1, 1"})[key] == "0.1, 1"  # kept as written, for the run id
        for value in ("0", "1", "1.5", "12", "-0.5", "0.001"):
            try:
                Config({scalar: value})
            except ConfigError:
                with pytest.raises(ConfigError, match=key):
                    Config({key: f"0.1,{value}"})
            else:
                assert Config({key: f"0.1,{value}"}).floats(key) == [0.1, float(value)]


def test_every_default_passes_its_own_parser():
    for key, (parse, default) in config.SCHEMA.items():
        assert parse(str(default)) == default, key


def test_every_bool_key_takes_a_python_bool():
    keys = [key for key, (parse, _) in config.SCHEMA.items() if parse is config._bool]
    assert "attack.with_align" in keys
    for key in keys:
        for value in (True, False):
            assert Config({key: value})[key] is value
            assert Config({key: f" {str(value).upper()} "})[key] is value
        for value in ("maybe", 2, None):
            with pytest.raises(ConfigError, match=key):
                Config({key: value})


def test_every_enum_key_checks_its_choices():
    enums = {key: parse.choices for key, (parse, _) in config.SCHEMA.items()
             if hasattr(parse, "choices")}
    assert "sweep.kind" in enums and "model.kind" in enums
    for key, allowed in enums.items():
        assert config.SCHEMA[key][1] in allowed
        for value in allowed:
            assert Config({key: value})[key] == value
        with pytest.raises(ConfigError, match=key):
            Config({key: "xyz"})


def test_checkpoint_of_another_model_kind_is_data_error(workspace, tmp_path, capsys):
    assert run(workspace, "attack", "--set", "model.kind=graph",
               "--set", f"data.out_dir={tmp_path}",
               "--checkpoint", os.path.join(workspace["out"], "pretrained.ckpt")) == cli.EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "model.kind" in lines[0]


def test_generated_data_with_a_cold_last_item_reloads(workspace, tmp_path):
    out = tmp_path / "cold"
    sets = ["--set", f"data.out_dir={out}", "--set", f"data.path={out}",
            "--set", "synth.users=40", "--set", "synth.items=200",
            "--set", "synth.interactions_per_user=5"]
    assert cli.main(["gen-data", "--config", workspace["cfg"], *sets]) == cli.EXIT_OK
    table = data.load_interactions(out / "interactions.tsv")
    assert table.num_items < 200  # the precondition: the last item has no interaction
    assert cli.main(["train", "--config", workspace["cfg"], *sets]) == cli.EXIT_OK


@pytest.fixture(scope="module")
def unequal_dims(workspace, tmp_path_factory):
    """Runs commands on a pretrained workspace whose visual features have 8
    columns and textual features 6; an attack writes to ``data.out_dir``
    and reads the workspace's checkpoint."""
    out = tmp_path_factory.mktemp("unequal")
    sets = ["--set", f"data.out_dir={out}", "--set", f"data.path={out}",
            "--set", "synth.feat_dim_v=8", "--set", "synth.feat_dim_t=6"]
    assert cli.main(["gen-data", "--config", workspace["cfg"], *sets]) == cli.EXIT_OK
    assert cli.main(["train", "--config", workspace["cfg"], *sets]) == cli.EXIT_OK
    ckpt = ["--checkpoint", str(out / "pretrained.ckpt")]
    return lambda command, *extra: cli.main([command, "--config", workspace["cfg"],
                                             *sets, *ckpt, *extra])


def test_attack_on_unequal_modality_dims_records_nan_cosine(unequal_dims, tmp_path):
    assert unequal_dims("attack", "--set", f"data.out_dir={tmp_path}") == cli.EXIT_OK
    header, rows, _ = reports.read_csv(tmp_path / "attack_trace.csv")
    column = header.index("grad_cosine")
    assert len(rows) == 5 * 3
    assert all(np.isnan(float(r[column])) for r in rows)
    assert all(np.isfinite(float(r[header.index("promotion_loss")])) for r in rows)


def test_alignment_on_unequal_modality_dims_is_a_data_error(unequal_dims, tmp_path, capsys):
    assert unequal_dims("defend") == cli.EXIT_DATA
    defend_err = capsys.readouterr().err.splitlines()
    assert unequal_dims("attack", "--set", f"data.out_dir={tmp_path}",
                        "--set", "attack.with_align=true") == cli.EXIT_DATA
    attack_err = capsys.readouterr().err.splitlines()
    assert len(attack_err) == 1 and "equal modality dims" in attack_err[0]
    assert attack_err == defend_err
