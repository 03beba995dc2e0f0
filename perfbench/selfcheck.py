"""The benchmark's own checks: they pass on real output and fail on corrupted output.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/selfcheck.py``. Every
case trains a tiny stream in well under a second. The file is named outside
pytest's ``test_*.py`` pattern, so the repository-wide test command does not
collect it; naming it on the command line does.
"""

import json
import os

import numpy as np
import pytest

from attribank import data_io as dio
from attribank.trainer import run_sequence

import layertrace
import workloads as wl

TINY_SPEC = dict(num_latent_attributes=6, attributes_per_class=2, num_tasks=2,
                 classes_per_task=3, samples_per_class=10, feature_dim=16, noise_sigma=0.05)
TINY_TRAIN = dict(wl.SEQ5_TRAIN, epochs_per_task=2, batch_size=8, n=4, m=2, c=2)


@pytest.fixture(scope="module")
def tiny_seq(tmp_path_factory):
    workload = wl.Seq5(TINY_SPEC, TINY_TRAIN)
    inputs = workload.setup(0, str(tmp_path_factory.mktemp("seq")))
    prepared = workload.prepare(inputs, None)
    done = workload.collect(prepared, workload.run(prepared))
    return workload, inputs, done.output


@pytest.fixture(scope="module")
def tiny_long(tmp_path_factory):
    workload = wl.Long(TINY_SPEC, dict(TINY_TRAIN, epochs_per_task=1))
    workdir = str(tmp_path_factory.mktemp("long"))
    inputs = workload.setup(0, workdir)
    prepared = workload.prepare(inputs, workdir)
    done = workload.collect(prepared, workload.run(prepared))
    return workload, inputs, done.output


def test_seq_checks_pass_on_real_output(tiny_seq):
    workload, inputs, output = tiny_seq
    assert workload.check(inputs, output) == []


def test_reference_catches_a_perturbed_prompt_row(tiny_seq):
    workload, inputs, (matrix, state, log) = tiny_seq
    stream, config = inputs
    prompts = wl.as_array(state.bank.prompts).copy()
    prompts[:, 0] += 3.0 * np.random.default_rng(0).standard_normal(prompts[:, 0].shape)
    problems = wl.ref.row_mismatches(
        matrix.a[-1], wl.task_test_sets(stream), wl.as_array(state.bank.keys), prompts,
        config.c, state.class_tokens, wl.ref.Weights.from_encoders(state.encoders))
    assert problems


def test_reference_catches_swapped_accuracy_entries(tiny_seq):
    workload, inputs, (matrix, state, log) = tiny_seq
    row = matrix.a[-1].copy()
    assert row[0] != row[1]
    row[[0, 1]] = row[[1, 0]]
    assert wl.reference_row_problems(row, wl.task_test_sets(inputs[0]), state, inputs[1].c)


def test_rehearsal_check_catches_a_late_read(tiny_seq):
    _, _, (_, _, log) = tiny_seq
    assert sorted(set(log)) == [0, 1]
    assert wl.rehearsal_problems(log, 2) == []
    assert wl.rehearsal_problems(log + [0], 2)
    assert wl.rehearsal_problems([0, 0], 2)


def test_matrix_shape_check_catches_an_entry_above_the_diagonal():
    assert wl.matrix_shape_problems([[50.0, None], [40.0, 60.0]], 2) == []
    assert wl.matrix_shape_problems([[50.0, 10.0], [40.0, 60.0]], 2)
    assert wl.matrix_shape_problems([[50.0, None], [None, 60.0]], 2)


def test_long_checks_pass_on_real_output(tiny_long):
    workload, inputs, output = tiny_long
    assert output[0] == 0
    assert workload.check(inputs, output) == []


def test_long_checks_catch_a_corrupted_checkpoint(tiny_long, tmp_path):
    workload, inputs, (code, out, rows) = tiny_long
    ckpt_dir = os.path.join(out, "checkpoints")
    name = sorted(os.listdir(ckpt_dir))[0]
    path = os.path.join(ckpt_dir, name)
    original = open(path, "rb").read()
    try:
        with open(path, "wb") as f:
            f.write(original[:-9] + bytes([original[-9] ^ 1]) + original[-8:])
        assert workload.check(inputs, (code, out, rows))
    finally:
        with open(path, "wb") as f:
            f.write(original)


def test_long_checks_catch_a_wrong_final_average(tiny_long):
    workload, inputs, (code, out, rows) = tiny_long
    path = os.path.join(out, "metrics.json")
    original = open(path).read()
    metrics = json.loads(original)
    try:
        metrics["final_average_accuracy"] += 1.0
        with open(path, "w") as f:
            json.dump(metrics, f)
        assert workload.check(inputs, (code, out, rows))
    finally:
        with open(path, "w") as f:
            f.write(original)


def test_long_checks_catch_a_swapped_last_row(tiny_long):
    workload, inputs, (code, out, rows) = tiny_long
    assert rows[-1][0] != rows[-1][1]
    swapped = [list(r) for r in rows]
    swapped[-1][0], swapped[-1][1] = swapped[-1][1], swapped[-1][0]
    assert workload.check(inputs, (code, out, swapped))
    assert workload.check(inputs, (2, out, rows))


def test_cdcl_checks():
    rep = {"acc_scratch_a": 15.4, "acc_a2b_on_a": 10.3, "acc_scratch_b": 5.8,
           "acc_a2b_on_b": 5.5, "acc_joint": 5.15}
    rep.update(ft=rep["acc_a2b_on_b"] - rep["acc_scratch_b"],
               bt=rep["acc_a2b_on_a"] - rep["acc_scratch_a"])
    assert wl.cdcl_problems(rep, 1000, 1000) == []
    assert wl.cdcl_problems(dict(rep, ft=rep["ft"] + 0.1), 1000, 1000)
    assert wl.cdcl_problems(dict(rep, acc_a2b_on_a=10.35), 1000, 1000)
    assert wl.cdcl_problems(dict(rep, acc_joint=8.0), 1000, 1000)


def test_full_tracer_counts_without_changing_results():
    stream = dio.generate_synthetic(dio.SyntheticSpec(**TINY_SPEC, seed=3))
    config = wl.TrainConfig(**TINY_TRAIN, seed=3)
    plain, _ = run_sequence(stream, config)
    tracer = layertrace.Tracer(full=True)
    tracer.install()
    try:
        tracer.active = True
        traced, _ = run_sequence(stream, config)
        layers = tracer.layer_sample()
    finally:
        tracer.uninstall()
    assert np.array_equal(plain.a, traced.a, equal_nan=True)
    steps = 2 * 2 * 4  # tasks x epochs x ceil(30 / 8)
    assert layers["trainer.steps"] == steps == layers["autodiff.backward_calls"]
    assert layers["bank.select_top_c_calls"] == 2 * 2 * 30 + 30 + 2 * 30
    assert layers["evaluation.samples"] == 30 + 2 * 30
    assert 0 < layers["encoders.eval_text_distinct_ratio"] <= 1
    assert 1 <= layers["bank.unique_selections_per_batch"] <= 8
    assert layers["trainer.train_step_self_s"] < layers["trainer.train_step_s"]
    from attribank import trainer
    assert not hasattr(trainer.train_step, "__wrapped__")
