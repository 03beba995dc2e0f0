"""The benchmark's workloads: inputs from a seed, one round of work, output checks.

A round is one whole continual-learning run on the same inputs. Each
workload states how many operations (tasks trained, then evaluated) a round
attempts, and checks a round's outputs against a separate computation or a
property the method must have, never against a stored copy of earlier output.

    seq5         criterion-6 protocol through run_sequence; training dominates
    long         a long stream of short tasks through `attribank train` on ATRB
                 files; evaluation against every seen class dominates
    cdcl_shared  `attribank cdcl --mode shared_prompt` on the criterion-7 pair;
                 no routing, loss assembly and backward dominate
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import sys

import numpy as np

from attribank import cli
from attribank import data_io as dio
from attribank.encoders import ImageSample
from attribank.trainer import TrainConfig, run_sequence

import refclassifier as ref

# The class structure (attribute subsets, class means, class tokens) and the
# learner's initialisation are those of criterion seed 1 for seq5 and long;
# the workload seed draws the samples. Routing, and with it the work per step,
# follows the structure, so a seed that also drew the structure would move run
# time and peak memory by a quarter between seeds.
STRUCTURE_SEED = 1

# Criterion-6 synthetic stream (tests/test_acceptance.py: bench_spec).
SEQ5_SPEC = dict(num_latent_attributes=12, attributes_per_class=3, num_tasks=5,
                 classes_per_task=4, samples_per_class=50, feature_dim=32, noise_sigma=0.05)
SEQ5_TRAIN = dict(epochs_per_task=10, batch_size=32, lr0=0.25, tau=0.05, c=3, n=10, m=12,
                  lambda_k=0.7, lambda_p=0.3)

# Sized so that one round fits the run length on two cores while the class
# count still grows to 80. Fewer than 100 tasks: `train --resume` picks the
# wrong checkpoint from 100 tasks on. 24 latent attributes leave 2024 distinct
# 3-attribute classes, so class collisions are rare.
LONG_SPEC = dict(num_latent_attributes=24, attributes_per_class=3, num_tasks=16,
                 classes_per_task=5, samples_per_class=12, feature_dim=32, noise_sigma=0.05)
LONG_TRAIN = dict(SEQ5_TRAIN, epochs_per_task=1)

# Criterion-7 stream pair (dataset B is drawn from seed + 100).
CDCL_SPEC = SEQ5_SPEC
CDCL_SHARED_ATTRIBUTES = 4
CDCL_B_SEED_OFFSET = 100
CDCL_TRAIN = dict(SEQ5_TRAIN, lr0=0.07, n=20)


class RecordingList(list):
    """A task's training list that logs its task index on every read."""

    def __init__(self, items, tag, log):
        super().__init__(items)
        self._tag = tag
        self._log = log

    def __getitem__(self, index):
        self._log.append(self._tag)
        return super().__getitem__(index)

    def __iter__(self):
        self._log.append(self._tag)
        return super().__iter__()


def canonical_sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_rows(a) -> list:
    return [[None if v is None or np.isnan(v) else float(v) for v in row] for row in a]


def as_array(x) -> np.ndarray:
    """Stack a parameter given as one tensor, an array, or a list of either."""
    values = getattr(x, "values", x)
    if isinstance(values, np.ndarray):
        return values
    return np.stack([as_array(v) for v in x])


def resampled_stream(spec: dict, seed: int):
    """The stream of ``spec`` at STRUCTURE_SEED, with every sample drawn from ``seed``."""
    centres = dio.generate_synthetic(dio.SyntheticSpec(
        **dict(spec, samples_per_class=1, noise_sigma=0.0), seed=STRUCTURE_SEED))
    rng = np.random.default_rng(seed)
    shape = (spec["samples_per_class"], spec["feature_dim"])
    tasks = []
    for task in centres.tasks:
        splits = {}
        for split in ("train", "test"):
            splits[split] = [ImageSample(vector=c.vector + spec["noise_sigma"] * row,
                                         label=c.label, task_id=c.task_id)
                             for c in task.train for row in rng.standard_normal(shape)]
        tasks.append(dataclasses.replace(task, **splits))
    return dataclasses.replace(centres, tasks=tasks)


def task_test_sets(stream) -> list:
    return [(np.stack([s.vector for s in task.test]), [s.label for s in task.test])
            for task in stream.tasks]


def reference_row_problems(row, sets, state, c) -> list:
    """Reproduce one accuracy row from a learner state with the reference classifier."""
    return ref.row_mismatches(row, sets, as_array(state.bank.keys),
                              as_array(state.bank.prompts), c, state.class_tokens,
                              ref.Weights.from_encoders(state.encoders))


def rehearsal_problems(log, num_tasks) -> list:
    """Training reads must move forward through the tasks and never come back."""
    problems = []
    for i in range(1, len(log)):
        if log[i] < log[i - 1]:
            problems.append(f"task {log[i]} training data read again after task {log[i - 1]}")
            break
    unread = sorted(set(range(num_tasks)) - set(log))
    if unread:
        problems.append(f"training data of tasks {unread} never read")
    return problems


def matrix_shape_problems(a, num_tasks) -> list:
    if len(a) != num_tasks or any(len(row) != num_tasks for row in a):
        return [f"accuracy matrix is not {num_tasks} x {num_tasks}"]
    problems = []
    for t, row in enumerate(a):
        for s, v in enumerate(row):
            if (v is not None) != (s <= t):
                problems.append(f"matrix entry ({t},{s}) is {'set' if v is not None else 'empty'}")
            elif v is not None and not 0.0 <= v <= 100.0:
                problems.append(f"matrix entry ({t},{s}) = {v} outside [0, 100]")
    return problems


def whole_hits(acc, total) -> float | None:
    """Number of hits behind a percent accuracy, or None if it is not a whole number."""
    hits = acc * total / 100.0
    return float(round(hits)) if abs(hits - round(hits)) <= 1e-6 else None


def write_atrb(path, vectors, labels, task_ids, class_tokens: dict, d: int) -> None:
    """The ATRB embedding file, written from the documented layout."""
    ids = sorted(class_tokens)
    header = b"ATRB" + np.array([1, d, len(ids), len(labels)], dtype="<u4").tobytes()
    table = np.stack([class_tokens[c] for c in ids]).astype("<f4")
    records = np.zeros(len(labels), dtype=[("label", "<u4"), ("task", "<u4"), ("vec", "<f4", (d,))])
    records["label"] = labels
    records["task"] = task_ids
    records["vec"] = vectors
    with open(path, "wb") as f:
        f.write(header + table.tobytes() + records.tobytes())


def run_cli(argv) -> int:
    # The CLI reports progress on stdout; the benchmark keeps stdout for its result.
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


@dataclasses.dataclass
class Round:
    digest: str
    output: object


class Workload:
    """Inputs are drawn from ``spec`` (a SyntheticSpec without its seed) and
    trained with ``train`` (TrainConfig fields without the seed)."""

    name = ""
    legs = 1  # training passes over the stream per round

    def __init__(self, spec: dict, train: dict):
        self.spec = spec
        self.train = train
        self.tasks_per_round = self.legs * spec["num_tasks"]


class Seq5(Workload):
    name = "seq5"

    def setup(self, seed: int, workdir: str):
        return (resampled_stream(self.spec, seed),
                TrainConfig(**self.train, seed=STRUCTURE_SEED))

    def prepare(self, inputs, round_dir):
        stream, config = inputs
        log: list = []
        tasks = [dataclasses.replace(t, train=RecordingList(t.train, i, log))
                 for i, t in enumerate(stream.tasks)]
        return dataclasses.replace(stream, tasks=tasks), config, log

    def run(self, prepared):
        stream, config, _ = prepared
        return run_sequence(stream, config, mode="attriclip")

    def collect(self, prepared, result) -> Round:
        matrix, state = result
        return Round(canonical_sha256(matrix_rows(matrix.a)), (matrix, state, prepared[2]))

    def check(self, inputs, output) -> list:
        stream, config = inputs
        matrix, state, log = output
        last = self.tasks_per_round - 1
        return (rehearsal_problems(log, self.tasks_per_round)
                + matrix_shape_problems(matrix_rows(matrix.a), self.tasks_per_round)
                + reference_row_problems(matrix.a[last], task_test_sets(stream), state, config.c))

    def info(self, inputs, output) -> dict:
        """Final average accuracy against a zero-shot run of the same stream (reported only)."""
        stream, config = inputs
        matrix = output[0]
        zero_shot, _ = run_sequence(stream, config, mode="zero_shot")
        last = self.tasks_per_round - 1
        acc, zs = float(np.mean(matrix.a[last])), float(np.mean(zero_shot.a[last]))
        return {"final_average_accuracy": acc, "zero_shot_final_average_accuracy": zs,
                "gap_points": acc - zs}


class Long(Workload):
    name = "long"

    def setup(self, seed: int, workdir: str):
        stream = resampled_stream(self.spec, seed)
        d = self.spec["feature_dim"]
        paths = {}
        sets = []
        for split in ("train", "test"):
            samples = [s for task in stream.tasks for s in getattr(task, split)]
            vectors = np.stack([s.vector for s in samples]).astype("<f4")
            labels = [s.label for s in samples]
            paths[split] = os.path.join(workdir, f"{split}.atrb")
            write_atrb(paths[split], vectors, labels, [s.task_id for s in samples],
                       stream.class_tokens, d)
            if split == "test":
                # The reference sees the test set as the package reads it: float32 widened.
                vec64 = vectors.astype(np.float64)
                for t in range(self.tasks_per_round):
                    rows = [i for i, s in enumerate(samples) if s.task_id == t]
                    sets.append((vec64[rows], [labels[i] for i in rows]))
        config_path = os.path.join(workdir, "long.json")
        with open(config_path, "w") as f:
            json.dump({"mode": "attriclip", "train": dict(self.train, seed=STRUCTURE_SEED),
                       "data": {"kind": "file", "train_path": paths["train"],
                                "test_path": paths["test"]}}, f)
        return config_path, sets

    def prepare(self, inputs, round_dir):
        return ["train", "--config", inputs[0], "--out", os.path.join(round_dir, "run")]

    def run(self, argv) -> int:
        return run_cli(argv)

    def collect(self, argv, code) -> Round:
        out = argv[argv.index("--out") + 1]
        rows = None
        if code == 0:
            with open(os.path.join(out, "accuracy_matrix.json")) as f:
                rows = json.load(f)["a"]
        return Round(canonical_sha256(rows), (code, out, rows))

    def check(self, inputs, output) -> list:
        _, sets = inputs
        code, out, rows = output
        if code != 0:
            return [f"attribank train exited with status {code}"]
        problems = matrix_shape_problems(rows, self.tasks_per_round)
        if problems:
            return problems
        with open(os.path.join(out, "metrics.json")) as f:
            final = json.load(f)["final_average_accuracy"]
        last = rows[-1]
        if abs(final - sum(last) / len(last)) > 1e-9:
            problems.append(f"final average {final} is not the mean of the last row")
        ckpt_dir = os.path.join(out, "checkpoints")
        by_index = {int(re.findall(r"\d+", name)[-1]): name for name in os.listdir(ckpt_dir)}
        if sorted(by_index) != list(range(self.tasks_per_round)):
            return problems + [f"checkpoint indices {sorted(by_index)}"]
        state = config = None
        for t, name in sorted(by_index.items()):
            try:
                state, config = dio.read_checkpoint(os.path.join(ckpt_dir, name))
            except (dio.DataError, ValueError, KeyError) as e:
                problems.append(f"checkpoint {name} does not read back: {e!r}")
                continue
            if state.tasks_done != t + 1:
                problems.append(f"checkpoint {name} has tasks_done {state.tasks_done}")
        if not problems:
            problems += reference_row_problems(last, sets, state, config.c)
        return problems

    def info(self, inputs, output) -> dict:
        code, _, rows = output
        return {"final_average_accuracy": sum(rows[-1]) / len(rows[-1])} if code == 0 else {}


class CdclShared(Workload):
    name = "cdcl_shared"
    legs = 3  # scratch on B, scratch on A, then A carried on to B

    def setup(self, seed: int, workdir: str):
        config_path = os.path.join(workdir, "cdcl.json")
        with open(config_path, "w") as f:
            json.dump({"train": dict(self.train, seed=seed),
                       "data": {"kind": "synthetic_pair",
                                "a": dict(self.spec, seed=seed),
                                "b": dict(self.spec, seed=seed + CDCL_B_SEED_OFFSET),
                                "shared_attributes": CDCL_SHARED_ATTRIBUTES}}, f)
        return config_path

    def prepare(self, config_path, round_dir):
        return ["cdcl", "--config", config_path, "--out", os.path.join(round_dir, "run"),
                "--mode", "shared_prompt"]

    def run(self, argv) -> int:
        return run_cli(argv)

    def collect(self, argv, code) -> Round:
        report = None
        if code == 0:
            with open(os.path.join(argv[argv.index("--out") + 1], "cdcl_report.json")) as f:
                report = json.load(f)["reports"]["shared_prompt"]
        accs = {k: v for k, v in (report or {}).items() if k.startswith("acc_")}
        return Round(canonical_sha256(accs), (code, report))

    def check(self, inputs, output) -> list:
        code, rep = output
        if code != 0:
            return [f"attribank cdcl exited with status {code}"]
        per_dataset = (self.spec["num_tasks"] * self.spec["classes_per_task"]
                       * self.spec["samples_per_class"])
        return cdcl_problems(rep, per_dataset, per_dataset)

    def info(self, inputs, output) -> dict:
        return dict(output[1] or {})


def cdcl_problems(rep: dict, n_a: int, n_b: int) -> list:
    problems = []
    for name, diff in (("ft", rep["acc_a2b_on_b"] - rep["acc_scratch_b"]),
                       ("bt", rep["acc_a2b_on_a"] - rep["acc_scratch_a"])):
        if abs(rep[name] - diff) > 1e-9:
            problems.append(f"{name} = {rep[name]} but the accuracies differ by {diff}")
    sizes = {"acc_scratch_a": n_a, "acc_a2b_on_a": n_a, "acc_scratch_b": n_b,
             "acc_a2b_on_b": n_b, "acc_joint": n_a + n_b}
    hits = {k: whole_hits(rep[k], n) for k, n in sizes.items()}
    problems += [f"{k} = {rep[k]} is not a whole number of hits over {sizes[k]}"
                 for k, h in hits.items() if h is None]
    if None not in hits.values() and hits["acc_joint"] > hits["acc_a2b_on_a"] + hits["acc_a2b_on_b"]:
        problems.append(f"joint evaluation has {hits['acc_joint']:.0f} hits, more than the "
                        f"{hits['acc_a2b_on_a'] + hits['acc_a2b_on_b']:.0f} of per-dataset evaluation")
    return problems


WORKLOADS = {w.name: w for w in (Seq5(SEQ5_SPEC, SEQ5_TRAIN), Long(LONG_SPEC, LONG_TRAIN),
                                  CdclShared(CDCL_SPEC, CDCL_TRAIN))}
