"""Metrics and protocols: accuracy matrices, transfer scores, cross-dataset runs.

Accuracies are stored as percentages. The accuracy matrix is lower
triangular: entry (t, s) is the test accuracy on task s after training task
t, defined for s <= t. Forward/backward transfer compare a model fine-tuned
across datasets against the same architecture trained from scratch.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .bank import class_text_embeddings, route
from .trainer import run_sequence


@dataclass
class AccuracyMatrix:
    a: np.ndarray
    task_labels: list

    @classmethod
    def empty(cls, task_labels) -> "AccuracyMatrix":
        t = len(task_labels)
        return cls(a=np.full((t, t), np.nan), task_labels=list(task_labels))

    @property
    def num_tasks(self) -> int:
        return self.a.shape[0]

    def set(self, t: int, s: int, value: float) -> None:
        if s > t:
            raise ValueError(f"matrix entry ({t},{s}) above the diagonal")
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"accuracy {value} outside [0, 100]")
        self.a[t, s] = value

    def to_dict(self) -> dict:
        return {"task_labels": self.task_labels,
                "a": [[None if np.isnan(v) else v for v in row] for row in self.a]}

    @classmethod
    def from_dict(cls, d: dict) -> "AccuracyMatrix":
        rows = [[np.nan if v is None else float(v) for v in row] for row in d["a"]]
        return cls(a=np.array(rows, dtype=np.float64), task_labels=list(d["task_labels"]))

    def to_csv(self, label: str) -> str:
        """One row per run, columns are the running average accuracy after each task."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method"] + [f"task_{t}" for t in range(1, self.num_tasks + 1)])
        writer.writerow([label] + [f"{average_accuracy(self, t):.4f}"
                                   for t in range(1, self.num_tasks + 1)])
        return buf.getvalue()


def average_accuracy(matrix: AccuracyMatrix, t: int) -> float:
    """Mean test accuracy over tasks 1..t after training task t (t is 1-based)."""
    if not 1 <= t <= matrix.num_tasks:
        raise ValueError(f"t={t} outside [1, {matrix.num_tasks}]")
    row = matrix.a[t - 1, :t]
    if np.isnan(row).any():
        raise ValueError(f"matrix row {t} has undefined entries")
    return float(row.mean())


@dataclass
class CdclReport:
    """Cross-dataset continual learning quantities for one learner mode."""

    acc_scratch_b: float
    acc_a2b_on_b: float
    acc_scratch_a: float
    acc_a2b_on_a: float
    acc_joint: float
    ft: float = field(init=False)
    bt: float = field(init=False)

    def __post_init__(self):
        self.ft = self.acc_a2b_on_b - self.acc_scratch_b
        self.bt = self.acc_a2b_on_a - self.acc_scratch_a


def evaluate(state, test_set, candidate_classes, cache: dict | None = None) -> float:
    """Accuracy percent over test_set with predictions restricted to candidates.

    The test set's images are encoded as one stack and routed as one: a
    single ``bank.scores`` call, then one top-C pick per sample. Samples
    that share a selection form a group; the group's candidate classes are
    embedded once, as a (K, d) matrix, and each sample predicts the class of
    highest guarded cosine similarity in the group's (rows x K) matrix.
    Candidates are sorted internally, so the result does not depend on
    their given order and ties break toward the lowest class id. All
    tensors are constants: nothing lands on the tape.

    Calls on one bank state may share ``cache`` (``run_sequence`` passes one per
    round); it keys class embeddings by candidate list, never mixing two lists.
    """
    candidates = sorted(set(int(c) for c in candidate_classes))
    if not candidates:
        raise ValueError("evaluate: no candidate classes")
    test_set = list(test_set)
    if not test_set:
        raise ValueError("evaluate: empty test set")
    for cid in candidates:
        if cid not in state.class_tokens:
            raise KeyError(f"unknown class id {cid}")

    enc = state.encoders
    bank = state.bank.frozen_view() if state.bank is not None else None
    class_rows = state.class_token_rows(candidates)
    table = ({} if cache is None else cache).setdefault(tuple(candidates), {})
    zs = enc.encode_image(test_set)
    embs, groups = class_text_embeddings(enc, bank, route(zs, bank, state.top_c), class_rows, table)
    predicted = np.empty(len(test_set), dtype=np.int64)
    for emb, rows in zip(embs, groups):
        for start in range(0, len(rows), _EVAL_ROWS):
            part = rows[start:start + _EVAL_ROWS]
            predicted[part] = _cosine_matrix(zs[part], emb.values).argmax(axis=1)
    labels = np.array([sample.label for sample in test_set])
    return 100.0 * int((np.asarray(candidates)[predicted] == labels).sum()) / len(test_set)


# Samples per cosine matrix, so evaluation's memory does not grow with a
# group's size.
_EVAL_ROWS = 256


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(R, d) x (K, d) -> (R, K) cosine similarities, each norm guarded as in
    ``autodiff.cosines``."""
    na = np.sqrt(np.einsum("ij,ij->i", a, a) + ad.NORM_EPS)
    nb = np.sqrt(np.einsum("ij,ij->i", b, b) + ad.NORM_EPS)
    sims = a @ b.T
    sims /= np.outer(na, nb)
    return sims


def run_cdcl(stream_a, stream_b, config, mode: str = "attriclip") -> CdclReport:
    """Four-leg cross-dataset protocol: scratch on each dataset, then A->B.

    Per-dataset accuracies use that dataset's classes as candidates; the
    joint accuracy presents the union of both label spaces for every test
    sample of both datasets.
    """
    ids_a = set(stream_a.all_class_ids())
    ids_b = set(stream_b.all_class_ids())
    overlap = ids_a & ids_b
    if overlap:
        raise ValueError(f"CDCL streams share class ids {sorted(overlap)}")

    cand_a = sorted(ids_a)
    cand_b = sorted(ids_b)
    test_a = stream_a.all_test_samples()
    test_b = stream_b.all_test_samples()

    _, state_b = run_sequence(stream_b, config, mode=mode)
    acc_scratch_b = evaluate(state_b, test_b, cand_b)

    _, state = run_sequence(stream_a, config, mode=mode)
    acc_scratch_a = evaluate(state, test_a, cand_a)

    run_sequence(stream_b, config, state=state, mode=mode)
    acc_a2b_on_b = evaluate(state, test_b, cand_b)
    acc_a2b_on_a = evaluate(state, test_a, cand_a)
    acc_joint = evaluate(state, test_a + test_b, cand_a + cand_b)

    return CdclReport(acc_scratch_b=acc_scratch_b, acc_a2b_on_b=acc_a2b_on_b,
                      acc_scratch_a=acc_scratch_a, acc_a2b_on_a=acc_a2b_on_a,
                      acc_joint=acc_joint)
