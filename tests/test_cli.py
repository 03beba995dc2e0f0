import json
import os

import numpy as np
import pytest

from attribank import cli
from attribank import data_io as dio
from attribank.encoders import ImageSample


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


def test_missing_data_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"kind": "file", "train_path": str(tmp_path / "no.atrb")})
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_usage_error_exits_1():
    assert cli.main(["train"]) == 1


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
    # after_task_99 sorts after after_task_100 by name; the resume must not read it.
    cfg = write_config(tmp_path)
    full, partial = tmp_path / "full", tmp_path / "partial"
    assert cli.main(["train", "--config", cfg, "--out", str(full)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(partial)]) == 0
    ckpts = partial / "checkpoints"
    os.rename(ckpts / "after_task_02.ckpt", ckpts / "after_task_100.ckpt")
    (ckpts / "after_task_99.ckpt").write_bytes(b"not a checkpoint")
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


@pytest.mark.parametrize("change", ["config", "mode"])
def test_resume_refuses_changed_config_or_mode(tmp_path, capsys, change):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", write_config(tmp_path), "--out", out]) == 0
    os.remove(os.path.join(out, "checkpoints", "after_task_02.ckpt"))
    if change == "config":
        argv = ["--config", write_config(tmp_path, train={"n": 4, "m": 2, "c": 2,
                "epochs_per_task": 1, "batch_size": 4, "tau": 0.3, "seed": 1})]
    else:
        argv = ["--config", write_config(tmp_path), "--mode", "shared_prompt"]
    capsys.readouterr()
    assert cli.main(["train", *argv, "--out", out, "--resume"]) == 1
    assert "--resume" in capsys.readouterr().err


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


def test_gradcheck_corrupted_gradients_exit_3(capsys):
    assert cli.main(["gradcheck", "--corrupt"]) == 3


def test_gradcheck_covers_all_distance_variants(capsys):
    # The triplet path pins the (detached) negative distance during the
    # finite-difference sweep; without that, perturbing the negative key makes
    # the numeric gradient disagree with the stop-gradient analytic one.
    for variant in ("cosine", "mse", "triplet"):
        assert cli.main(["gradcheck", "--distance", variant]) == 0, variant


def test_gradcheck_rejects_oversized_problem():
    assert cli.main(["gradcheck", "--d", "64"]) == 1


def cdcl_config(tmp_path):
    spec = {"num_latent_attributes": 6, "attributes_per_class": 2, "num_tasks": 2,
            "classes_per_task": 2, "samples_per_class": 4, "feature_dim": 8,
            "noise_sigma": 0.05, "seed": 3}
    cfg = {
        "train": {"n": 4, "m": 2, "c": 2, "epochs_per_task": 1, "batch_size": 4,
                  "tau": 0.2, "seed": 1},
        "data": {"kind": "synthetic_pair", "a": spec, "b": spec, "shared_attributes": 3},
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
