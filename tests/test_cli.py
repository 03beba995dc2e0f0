import json
import os

import numpy as np
import pytest

from attribank import cli
from attribank import data_io as dio
from attribank.encoders import ImageSample
from attribank.objective import total_loss


def write_config(tmp_path, **overrides):
    cfg = {
        "mode": "attriclip",
        "train": {"n": 4, "m": 2, "c": 2, "epochs_per_task": 1, "batch_size": 4,
                  "tau": 0.2, "seed": 1},
        "data": {"kind": "synthetic",
                 "synthetic": {"num_latent_attributes": 6, "attributes_per_class": 2,
                               "num_tasks": 3, "classes_per_task": 2,
                               "samples_per_class": 4, "feature_dim": 8,
                               "noise_sigma": 0.05, "seed": 2}},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_missing_config_exits_1(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_bad_train_field_exits_1(tmp_path):
    cfg = write_config(tmp_path, train={"c": 9, "n": 4})
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1


# Settings that older configs and checkpoints may still carry; no run uses them.
REMOVED_SETTINGS = {"weight_decay": {"weight_decay": 0.0},
                    "dict_distance": {"distance": {"kind": "cosine", "triplet_margin": 0.2}}}


@pytest.mark.parametrize("setting", sorted(REMOVED_SETTINGS))
def test_train_section_with_removed_setting_exits_1(tmp_path, capsys, setting):
    train = json.loads(open(write_config(tmp_path)).read())["train"]
    cfg = write_config(tmp_path, train={**train, **REMOVED_SETTINGS[setting]})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "bad train config" in capsys.readouterr().err


def test_missing_data_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"kind": "file", "train_path": str(tmp_path / "no.atrb"),
                                       "test_path": str(tmp_path / "no_test.atrb")})
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_usage_error_exits_1():
    assert cli.main(["train"]) == 1


# Configs of the wrong shape; unchecked, the first five would crash or run on defaults.
@pytest.mark.parametrize("command, mutate", [
    ("train", lambda raw: [1, 2]),
    ("train", lambda raw: {**raw, "data": "x"}),
    ("train", lambda raw: {**raw, "trian": {"tau": 0.3}}),
    ("train", lambda raw: {**raw, "data": {"kind": "synthetic",
                                           "synthetc": raw["data"]["synthetic"]}}),
    ("cdcl", lambda raw: {**raw, "data": {**raw["data"], "train_path": "a.atrb"}}),
    ("train", lambda raw: {**raw, "data": {**raw["data"], "kind": ["synthetic"]}}),
], ids=["list", "data_string", "top_level_typo", "data_typo", "pair_extra", "kind_list"])
def test_config_of_the_wrong_shape_exits_1(tmp_path, capsys, command, mutate):
    path = write_config(tmp_path) if command == "train" else cdcl_config(tmp_path)
    with open(path) as f:
        raw = mutate(json.load(f))
    with open(path, "w") as f:
        json.dump(raw, f)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_file_data_without_test_path_exits_1(tmp_path, capsys):
    cfg = _write_atrb_pair(tmp_path, d=4, train_records=True)
    data = json.loads(open(cfg).read())["data"]
    del data["test_path"]
    cfg = write_config(tmp_path, data=data)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error: file data source needs test_path" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["train", "--conf", "CONFIG", "--ou", "OUT"],
                                  ["report", "--format", "csv", "OUT"]],
                         ids=["abbreviated", "removed_format"])
def test_unknown_or_abbreviated_option_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [{"CONFIG": write_config(tmp_path), "OUT": str(out)}.get(a, a) for a in argv]
    assert cli.main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_train_emits_triangular_matrix_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", write_config(tmp_path), "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    rows = metrics["matrix"]["a"]
    assert len(rows) == 3
    for t, row in enumerate(rows):
        for s, v in enumerate(row):
            assert (v is None) == (s > t)
    assert (out / "manifest.json").exists()
    assert (out / "accuracy_matrix.csv").exists()
    assert len(list((out / "checkpoints").iterdir())) == 3


def test_train_metrics_are_byte_identical_across_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()


def test_train_resume_matches_straight_run(tmp_path):
    cfg = write_config(tmp_path)
    full, partial = tmp_path / "full", tmp_path / "partial"
    assert cli.main(["train", "--config", cfg, "--out", str(full)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(partial)]) == 0
    # drop the last task's outputs and resume from task 2's checkpoint
    os.remove(partial / "checkpoints" / "after_task_02.ckpt")
    matrix = json.loads((partial / "accuracy_matrix.json").read_text())
    matrix["a"][2] = [None, None, None]
    (partial / "accuracy_matrix.json").write_text(json.dumps(matrix))
    assert cli.main(["train", "--config", cfg, "--out", str(partial), "--resume"]) == 0
    assert (full / "metrics.json").read_bytes() == (partial / "metrics.json").read_bytes()


def test_train_resume_picks_highest_task_index(tmp_path):
    # after_task_1 sorts after after_task_02 by name, as after_task_99 does after
    # after_task_100; the resume must not read it. (A checkpoint's name must
    # match its tasks done, so a 3-task run cannot hold an after_task_100.)
    cfg = write_config(tmp_path)
    full, partial = tmp_path / "full", tmp_path / "partial"
    assert cli.main(["train", "--config", cfg, "--out", str(full)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(partial)]) == 0
    ckpts = partial / "checkpoints"
    (ckpts / "after_task_1.ckpt").write_bytes(b"not a checkpoint")
    assert cli.main(["train", "--config", cfg, "--out", str(partial), "--resume"]) == 0
    assert (full / "metrics.json").read_bytes() == (partial / "metrics.json").read_bytes()


def test_resume_after_crash_between_run_dir_writes(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    full, partial = tmp_path / "full", tmp_path / "partial"
    assert cli.main(["train", "--config", cfg, "--out", str(full)]) == 0
    matrix_writes = []
    real_dump = cli.dump_json

    def crash_on_second_matrix_write(obj, path):
        if path.endswith("accuracy_matrix.json"):
            matrix_writes.append(path)
            if len(matrix_writes) == 2:
                raise OSError("disk full")
        real_dump(obj, path)

    monkeypatch.setattr(cli, "dump_json", crash_on_second_matrix_write)
    with pytest.raises(OSError, match="disk full"):
        cli.main(["train", "--config", cfg, "--out", str(partial)])
    monkeypatch.undo()
    assert cli.main(["train", "--config", cfg, "--out", str(partial), "--resume"]) == 0
    assert (full / "metrics.json").read_bytes() == (partial / "metrics.json").read_bytes()


@pytest.mark.parametrize("change", ["config", "mode", "data"])
def test_resume_refuses_changed_config_or_mode(tmp_path, capsys, change):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", write_config(tmp_path), "--out", out]) == 0
    os.remove(os.path.join(out, "checkpoints", "after_task_02.ckpt"))
    if change == "config":
        argv = ["--config", write_config(tmp_path, train={"n": 4, "m": 2, "c": 2,
                "epochs_per_task": 1, "batch_size": 4, "tau": 0.3, "seed": 1})]
    elif change == "mode":
        argv = ["--config", write_config(tmp_path), "--mode", "shared_prompt"]
    else:
        data = json.loads((tmp_path / "config.json").read_text())["data"]
        data["synthetic"]["seed"] = 7
        argv = ["--config", write_config(tmp_path, data=data)]
    capsys.readouterr()
    assert cli.main(["train", *argv, "--out", out, "--resume"]) == 1
    assert "--resume" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["missing", "not json", "not a matrix"])
def test_resume_with_damaged_accuracy_matrix_exits_2(tmp_path, capsys, damage):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    matrix = out / "accuracy_matrix.json"
    if damage == "missing":
        matrix.unlink()
    else:
        matrix.write_text("{nope" if damage == "not json" else '{"a": 1}')
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--out", str(out), "--resume"]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("setting", sorted(REMOVED_SETTINGS))
def test_resume_from_checkpoint_with_removed_setting_exits_2(tmp_path, capsys, setting):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    (out / "checkpoints" / "after_task_02.ckpt").unlink()
    ckpt = out / "checkpoints" / "after_task_01.ckpt"
    sections = dio._parse_sections(ckpt.read_bytes(), str(ckpt))
    config = json.loads(sections["config"].decode())
    config.update(REMOVED_SETTINGS[setting])
    sections["config"] = json.dumps(config, sort_keys=True).encode()
    ckpt.write_bytes(dio._sections_blob(sections))
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--out", str(out), "--resume"]) == 2
    assert "malformed checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("after_task_01.ckpt", "tasks_done", "1"), ("after_task_01.ckpt", "tasks_done", 1.5),
    ("after_task_01.ckpt", "tasks_done", None), ("after_task_01.ckpt", "tasks_done", -1),
    ("after_task_01.ckpt", "tasks_done", True), ("after_task_01.ckpt", "tasks_done", 0),
    ("after_task_01.ckpt", "tasks_done", 7), ("after_task_06.ckpt", "tasks_done", 7),
    ("after_task_01.ckpt", "step_counter", "3"), ("after_task_01.ckpt", "step_counter", -1),
    ("after_task_01.ckpt", "step_counter", True)])
def test_resume_from_checkpoint_with_bad_counters_exits_2(tmp_path, capsys, name, key, value):
    # The checksum is valid: only the meta counters are wrong for the file's
    # name or for the 3-task stream.
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    ckpts = out / "checkpoints"
    (ckpts / "after_task_02.ckpt").unlink()
    sections = dio._parse_sections((ckpts / "after_task_01.ckpt").read_bytes(), name)
    (ckpts / "after_task_01.ckpt").unlink()
    meta = json.loads(sections["meta"].decode())
    meta[key] = value
    sections["meta"] = json.dumps(meta, sort_keys=True).encode()
    (ckpts / name).write_bytes(dio._sections_blob(sections))
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--out", str(out), "--resume"]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cdcl", "sweep", "gradcheck"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")]
    argv = {"train": ["--config", write_config(tmp_path), *out],
            "cdcl": ["--config", cdcl_config(tmp_path), *out],
            "sweep": ["--config", write_config(tmp_path), *out, "--axis", "C", "--values", "2"],
            "gradcheck": []}[command]
    assert cli.main([command, *argv, "--seed", "-1"]) == 1
    assert "config error" in capsys.readouterr().err


def _write_atrb_pair(tmp_path, d, train_records):
    sample = [ImageSample(vector=np.zeros(d), label=0, task_id=0)]
    paths = {}
    for split, samples in (("train", sample if train_records else []), ("test", sample)):
        paths[split] = str(tmp_path / f"{split}.atrb")
        dio.write_embedding_file(paths[split], samples, {0: np.ones(d)}, d)
    return write_config(tmp_path, data={"kind": "file", "train_path": paths["train"],
                                        "test_path": paths["test"]})


def test_atrb_with_zero_dimension_exits_2(tmp_path, capsys):
    cfg = _write_atrb_pair(tmp_path, d=0, train_records=True)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "dimension d is 0" in capsys.readouterr().err


def test_atrb_train_file_without_records_exits_2(tmp_path, capsys):
    cfg = _write_atrb_pair(tmp_path, d=4, train_records=False)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "no training records" in capsys.readouterr().err


@pytest.mark.parametrize("test_tokens", [{0: np.ones(4), 1: np.ones(4)}, {0: np.full(4, 2.0)}],
                         ids=["class_count", "value"])
def test_atrb_files_with_different_token_tables_exit_2(tmp_path, capsys, test_tokens):
    sample = [ImageSample(vector=np.ones(4), label=0, task_id=0)]
    paths = {}
    for split, tokens in (("train", {0: np.ones(4)}), ("test", test_tokens)):
        paths[split] = str(tmp_path / f"{split}.atrb")
        dio.write_embedding_file(paths[split], sample, tokens, 4)
    cfg = write_config(tmp_path, data={"kind": "file", "train_path": paths["train"],
                                       "test_path": paths["test"]})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "class-token table" in capsys.readouterr().err


def test_test_records_of_an_untrained_task_exit_2(tmp_path, capsys):
    tokens = {0: np.ones(4), 1: np.full(4, 2.0)}
    train = [ImageSample(vector=np.ones(4), label=0, task_id=0),
             ImageSample(vector=np.full(4, 0.5), label=0, task_id=0)]
    paths = {"train": str(tmp_path / "train.atrb"), "test": str(tmp_path / "test.atrb")}
    dio.write_embedding_file(paths["train"], train, tokens, 4)
    dio.write_embedding_file(paths["test"], train + [ImageSample(vector=np.ones(4), label=1,
                                                                 task_id=7)], tokens, 4)
    cfg = write_config(tmp_path, data={"kind": "file", "train_path": paths["train"],
                                       "test_path": paths["test"]})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "task ids [7]" in capsys.readouterr().err


def test_resume_refuses_rewritten_data_files(tmp_path, capsys):
    def write_files(seed):
        stream = dio.generate_synthetic(dio.SyntheticSpec(
            num_latent_attributes=6, attributes_per_class=2, num_tasks=3, classes_per_task=2,
            samples_per_class=4, feature_dim=8, noise_sigma=0.05, seed=seed))
        paths = {}
        for split in ("train", "test"):
            samples = [s for task in stream.tasks for s in getattr(task, split)]
            paths[split] = str(tmp_path / f"{split}.atrb")
            dio.write_embedding_file(paths[split], samples, stream.class_tokens, 8)
        return paths

    paths = write_files(2)
    cfg = write_config(tmp_path, data={"kind": "file", "train_path": paths["train"],
                                       "test_path": paths["test"]})
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    os.remove(os.path.join(out, "checkpoints", "after_task_02.ckpt"))
    write_files(7)  # same paths, same config, other records
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--out", out, "--resume"]) == 1
    assert "--resume" in capsys.readouterr().err


def test_numeric_failure_inside_a_task_exits_3(tmp_path, capsys):
    stream = dio.generate_synthetic(dio.SyntheticSpec(
        num_latent_attributes=6, attributes_per_class=2, num_tasks=2, classes_per_task=2,
        samples_per_class=4, feature_dim=8, noise_sigma=0.05, seed=2))
    paths = {}
    for split in ("train", "test"):
        samples = [s for task in stream.tasks for s in getattr(task, split)]
        if split == "train":
            samples[5].vector = np.full_like(samples[5].vector, np.nan)
        paths[split] = str(tmp_path / f"{split}.atrb")
        dio.write_embedding_file(paths[split], samples, stream.class_tokens, 8)
    cfg = write_config(tmp_path, data={"kind": "file", "train_path": paths["train"],
                                       "test_path": paths["test"]})
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numeric failure: task 0 failed" in capsys.readouterr().err


def test_mode_flag_overrides_config(tmp_path):
    out = tmp_path / "zs"
    rc = cli.main(["train", "--config", write_config(tmp_path), "--out", str(out),
                   "--mode", "zero_shot"])
    assert rc == 0
    assert json.loads((out / "metrics.json").read_text())["mode"] == "zero_shot"


def test_gradcheck_default_sizes_pass(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "keys" in out and "prompts" in out and "shared_prompt" in out


def test_gradcheck_corrupted_gradients_exit_3(capsys, monkeypatch):
    # The loss each check sees gains its parts' sum, out of the tape's sight:
    # central differences see that slope, backward does not.
    def corrupted(l_m, l_k, l_p, lambda_k, lambda_p):
        total = total_loss(l_m, l_k, l_p, lambda_k, lambda_p)
        total.values = total.values + (l_m.values + l_k.values + l_p.values)
        return total

    monkeypatch.setattr(cli, "total_loss", corrupted)
    assert cli.main(["gradcheck"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["keys", "prompts", "shared_prompt"]
    assert all(line.endswith("[FAIL]") for line in lines), lines


def test_gradcheck_covers_all_distance_variants(capsys):
    # The triplet path pins the (detached) negative distance during the
    # finite-difference sweep; without that, perturbing the negative key makes
    # the numeric gradient disagree with the stop-gradient analytic one.
    for variant in ("cosine", "mse", "triplet"):
        assert cli.main(["gradcheck", "--distance", variant]) == 0, variant


def test_gradcheck_rejects_oversized_problem(capsys):
    assert cli.main(["gradcheck", "--d", "64"]) == 1
    assert "unrecognized arguments: --d 64" in capsys.readouterr().err


def cdcl_config(tmp_path, **top):
    spec = {"num_latent_attributes": 6, "attributes_per_class": 2, "num_tasks": 2,
            "classes_per_task": 2, "samples_per_class": 4, "feature_dim": 8,
            "noise_sigma": 0.05, "seed": 3}
    cfg = {
        "train": {"n": 4, "m": 2, "c": 2, "epochs_per_task": 1, "batch_size": 4,
                  "tau": 0.2, "seed": 1},
        "data": {"kind": "synthetic_pair", "a": spec, "b": spec, "shared_attributes": 3},
        **top,
    }
    path = tmp_path / "cdcl.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cdcl_tabulates_all_modes(tmp_path):
    out = tmp_path / "cdcl"
    rc = cli.main(["cdcl", "--config", cdcl_config(tmp_path), "--out", str(out)])
    assert rc == 0
    table = (out / "cdcl_table.csv").read_text().strip().splitlines()
    assert table[0].startswith("method,memory")
    assert len(table) == 4
    for line in table[1:]:
        assert line.split(",")[1] == "0"  # memory column is always 0
    report = json.loads((out / "cdcl_report.json").read_text())
    assert set(report["reports"]) == {"attriclip", "shared_prompt", "zero_shot"}


def test_cdcl_zero_shot_mode_has_zero_transfers(tmp_path):
    out = tmp_path / "cdcl_zs"
    rc = cli.main(["cdcl", "--config", cdcl_config(tmp_path), "--out", str(out),
                   "--mode", "zero_shot"])
    assert rc == 0
    rep = json.loads((out / "cdcl_report.json").read_text())["reports"]["zero_shot"]
    assert rep["ft"] == 0.0
    assert rep["bt"] == 0.0


def test_cdcl_honours_the_config_mode(tmp_path):
    out = tmp_path / "cdcl"
    rc = cli.main(["cdcl", "--config", cdcl_config(tmp_path, mode="zero_shot"),
                   "--out", str(out)])
    assert rc == 0
    assert set(json.loads((out / "cdcl_report.json").read_text())["reports"]) == {"zero_shot"}


def test_cdcl_with_an_unknown_config_mode_exits_1(tmp_path, capsys):
    rc = cli.main(["cdcl", "--config", cdcl_config(tmp_path, mode="bogus"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


# Numbers of the wrong type. Unchecked, the first six ended in a traceback and
# the next three ran: the seed and shared_attributes truncated, tau read as 1.
# JSON's NaN and Infinity parse to floats; unchecked, an infinite tau trained
# on all-zero logits and the rest failed mid-run with exit 3.
@pytest.mark.parametrize("command, section, key, value", [
    ("train", "train", "epochs_per_task", 1.5),
    ("train", "train", "batch_size", 7.5),
    ("train", "train", "n", 6.0),
    ("train", "synthetic", "feature_dim", 16.5),
    ("train", "synthetic", "samples_per_class", 2.5),
    ("cdcl", "data", "shared_attributes", "x"),
    ("train", "train", "seed", 1.5),
    ("cdcl", "data", "shared_attributes", 1.7),
    ("train", "train", "tau", True),
    ("train", "train", "lr0", float("nan")),
    ("train", "train", "lr0", float("inf")),
    ("train", "train", "tau", float("inf")),
    ("train", "train", "lambda_k", float("inf")),
    ("train", "train", "lambda_p", float("nan")),
    ("train", "synthetic", "noise_sigma", float("nan")),
    ("train", "synthetic", "noise_sigma", float("inf")),
])
def test_number_of_the_wrong_type_exits_1(tmp_path, capsys, command, section, key, value):
    path = cdcl_config(tmp_path) if command == "cdcl" else write_config(tmp_path)
    raw = json.loads(open(path).read())
    target = raw["data"]["synthetic"] if section == "synthetic" else raw[section]
    target[key] = value
    with open(path, "w") as f:
        json.dump(raw, f)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_sweep_continues_past_invalid_value(tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
                   "--axis", "C", "--values", "2,9"])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "C,final_average_accuracy,error"
    ok_row = rows[1].split(",")
    assert ok_row[0] == "2" and ok_row[1]
    bad_row = rows[2].split(",", 2)
    assert bad_row[0] == "9" and bad_row[2]
    assert not (out / "value_9").exists()
    manifest = json.loads((out / "value_2" / "manifest.json").read_text())
    assert manifest["config"]["train"]["c"] == 2


def test_sweep_distance_axis_covers_all_variants(tmp_path):
    out = tmp_path / "sweep_d"
    rc = cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
                   "--axis", "distance", "--values", "cosine,mse,triplet"])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["cosine", "mse", "triplet"]
    assert all(r.split(",")[1] for r in rows[1:])


def test_sweep_rejects_unknown_axis(tmp_path):
    rc = cli.main(["sweep", "--config", write_config(tmp_path),
                   "--out", str(tmp_path / "s"), "--axis", "Q", "--values", "1"])
    assert rc == 1


def test_report_single_run_pass_through(tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", "--config", write_config(tmp_path), "--out", str(out)])
    capsys.readouterr()
    rc = cli.main(["report", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("run,")
    assert len(lines) == 2


def test_report_merges_two_runs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["train", "--config", cfg, "--out", str(out_a)])
    cli.main(["train", "--config", cfg, "--out", str(out_b), "--mode", "zero_shot"])
    capsys.readouterr()
    rc = cli.main(["report", str(out_a), str(out_b)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


def test_report_skips_missing_manifest_with_warning(tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", "--config", write_config(tmp_path), "--out", str(out)])
    capsys.readouterr()
    rc = cli.main(["report", str(out), str(tmp_path / "ghost")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" in captured.err


@pytest.mark.parametrize("name, content", [("metrics.json", [1, 2]),
                                           ("cdcl_report.json", {"reports": {"attriclip": 5}})])
def test_report_run_file_that_is_not_an_object_exits_2(tmp_path, capsys, name, content):
    (tmp_path / "manifest.json").write_text("{}")
    (tmp_path / name).write_text(json.dumps(content))
    assert cli.main(["report", str(tmp_path)]) == 2
    assert "data error" in capsys.readouterr().err


def test_report_all_missing_exits_1(tmp_path, capsys):
    rc = cli.main(["report", str(tmp_path / "ghost")])
    assert rc == 1


def test_bundled_demo_config_attriclip_beats_zero_shot(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "demo_3task.json")
    out_a, out_z = tmp_path / "attr", tmp_path / "zs"
    assert cli.main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out_z),
                     "--mode", "zero_shot"]) == 0
    acc_a = json.loads((out_a / "metrics.json").read_text())["final_average_accuracy"]
    acc_z = json.loads((out_z / "metrics.json").read_text())["final_average_accuracy"]
    assert acc_a > acc_z
    rows = json.loads((out_a / "metrics.json").read_text())["matrix"]["a"]
    assert len(rows) == 3 and rows[2][2] is not None


def test_report_fixture_mode_recomputes_printed_transfers(capsys):
    rc = cli.main(["report", "--fixtures"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in out[1:]]
    by_key = {(r[0], r[1]): r for r in rows}
    ft = by_key[("forward_transfer", "attriclip")]
    assert float(ft[6]) == pytest.approx(0.9, abs=0.05)
    bt = by_key[("backward_transfer", "attriclip")]
    assert float(bt[6]) == pytest.approx(7.0, abs=0.05)
    assert all(r[7] == "ok" for r in rows)


class _Cut(BaseException):
    """Ends a run the way a killed process would: no handler in the CLI sees it."""


def _run_outputs(out):
    names = ["metrics.json", "accuracy_matrix.json", "accuracy_matrix.csv"]
    names += [os.path.join("task_reports", f) for f in sorted(os.listdir(out / "task_reports"))]
    return {name: (out / name).read_bytes() for name in names}


@pytest.mark.parametrize("mode", cli.MODES)
def test_resume_from_every_task_boundary_matches_straight_run(tmp_path, monkeypatch, mode):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "demo_3task.json")
    full = tmp_path / "full"
    assert cli.main(["train", "--config", cfg, "--out", str(full), "--mode", mode]) == 0
    want = _run_outputs(full)
    assert len(want) == 3 + 3
    write_checkpoint = dio.write_checkpoint
    for cut in range(3):
        def write_then_cut(state, config, path, cut=cut):
            write_checkpoint(state, config, path)
            if path.endswith(f"after_task_{cut:02d}.ckpt"):
                raise _Cut
        partial = tmp_path / f"cut_after_{cut}"
        monkeypatch.setattr(dio, "write_checkpoint", write_then_cut)
        with pytest.raises(_Cut):
            cli.main(["train", "--config", cfg, "--out", str(partial), "--mode", mode])
        monkeypatch.undo()
        assert not (partial / "metrics.json").exists()
        assert len(os.listdir(partial / "checkpoints")) == cut + 1
        assert cli.main(["train", "--config", cfg, "--out", str(partial), "--mode", mode,
                         "--resume"]) == 0
        assert _run_outputs(partial) == want, f"cut after task {cut}"
