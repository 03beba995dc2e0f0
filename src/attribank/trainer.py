"""Task-sequential training: plain SGD, its learning rate on one cosine arc per task.

There is one learner, a frozen encoder pair plus a (key, prompt) bank, and
the modes are presets of it (``preset``):

  attriclip      n-entry bank, per-image top-C selection, all three loss terms
  shared_prompt  one-entry bank (n = C = 1, lambda_k = 0): one prompt shared
                 by every image, cross-entropy only
  zero_shot      no bank and no steps: class tokens only

Every class is named by the token its stream's class-token table supplies.
Training is rehearsal-free: a task's samples are never read again once the
task finishes. All shuffling comes from context-keyed streams, so a resumed
run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .bank import KEY_NORM_FLOOR, AttributeBank, class_text_embeddings, init_bank, route
from .encoders import FrozenEncoderPair
from .objective import (DISTANCES, LossBreakdown, breakdown, classification_loss,
                        key_matching_loss, prompt_orthogonality_loss, total_loss)
from .util import check_number_types, keyed_rng

_CTX_SHARED_PROMPT, _CTX_SHUFFLE = 41, 42

MODES = ("attriclip", "shared_prompt", "zero_shot")

# Hyperparameters a mode fixes; the rest come from the config.
_PRESETS = {"shared_prompt": {"n": 1, "c": 1, "lambda_k": 0.0}}


class SequenceError(RuntimeError):
    """A task failed mid-sequence; rows for completed tasks are retained."""

    def __init__(self, message, matrix):
        super().__init__(message)
        self.matrix = matrix


@dataclass
class TrainConfig:
    epochs_per_task: int = 10
    batch_size: int = 32
    lr0: float = 0.001
    lambda_k: float = 0.7
    lambda_p: float = 0.3
    c: int = 3
    n: int = 10
    m: int = 12
    tau: float = 0.01
    distance: str = "cosine"
    seed: int = 0

    def __post_init__(self):
        check_number_types(self)
        if self.distance not in DISTANCES:
            raise ValueError(f"distance must be one of {DISTANCES}, got {self.distance!r}")
        if self.epochs_per_task < 1 or self.batch_size < 1:
            raise ValueError("epochs_per_task and batch_size must be >= 1")
        if not 1 <= self.c <= self.n:
            raise ValueError(f"need 1 <= c <= n, got c={self.c} n={self.n}")
        if self.m < 1:
            raise ValueError("prompt length m must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lambda_k < 0 or self.lambda_p < 0:
            raise ValueError("loss weights must be non-negative")
        if self.lr0 < 0:
            raise ValueError("lr0 must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def preset(mode: str, config: TrainConfig) -> TrainConfig:
    """``config`` as the learner runs it in ``mode``.

    The one place a mode changes hyperparameters; returns ``config`` itself
    when the mode fixes nothing it does not already hold.
    """
    fixed = _PRESETS.get(mode, {})
    if all(getattr(config, k) == v for k, v in fixed.items()):
        return config
    return dataclasses.replace(config, **fixed)


@dataclass
class LearnerState:
    """Everything the learner owns: parameters, frozen encoders, class registry."""

    mode: str
    encoders: FrozenEncoderPair
    bank: AttributeBank | None = None
    class_tokens: dict = field(default_factory=dict)
    step_counter: int = 0
    tasks_done: int = 0
    top_c: int = 1
    selection_counts: np.ndarray | None = None
    data_hash: str = ""  # of the data section (and files) trained on; --resume compares it

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.selection_counts is None and self.bank is not None:
            self.selection_counts = np.zeros(self.bank.n, dtype=np.int64)

    def trainable_parameters(self) -> list:
        return self.bank.trainable_parameters() if self.bank is not None else []

    def register_class(self, class_id: int, vector: np.ndarray) -> None:
        if class_id in self.class_tokens:
            return
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        if vector.shape != (self.encoders.d,):
            raise ad.ShapeError(f"class token for {class_id} has shape {vector.shape}")
        self.class_tokens[class_id] = vector

    def class_token_rows(self, class_ids) -> ad.Tensor:
        """The class tokens of ``class_ids`` as one constant (K, d) matrix."""
        return ad.constant(np.stack([self.class_tokens[cid] for cid in class_ids]))

    def seen_classes(self) -> list:
        return sorted(self.class_tokens)


def init_state(mode: str, config: TrainConfig, stream) -> LearnerState:
    config = preset(mode, config)
    encoders = FrozenEncoderPair(
        d=stream.d, image_width=stream.image_width, seed=config.seed,
        max_tokens=config.c * config.m + 16, backend=stream.backend)
    bank = None
    if mode == "attriclip":
        bank = init_bank(config.n, config.m, stream.d, config.seed)
    elif mode == "shared_prompt":
        bank = init_bank(config.n, config.m, stream.d, config.seed,
                         prompt_context=_CTX_SHARED_PROMPT)
    return LearnerState(mode=mode, encoders=encoders, bank=bank, top_c=config.c)


def lr_at(step: int, total_steps: int, lr0: float) -> float:
    """Cosine decay from lr0 to 0 over total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def _sgd_update(params, lr: float) -> None:
    # A row (bank entry) that received no gradient holds backward's +0.0, so
    # subtracting it leaves the row bit-identical.
    for p in params:
        if p.grad is not None:
            p.values -= lr * p.grad


def _diagnostic_dump(batch, encoders) -> str:
    return "\n".join(
        f"  sample {i}: class {sample.label} "
        f"|z|={float(np.linalg.norm(encoders.encode_image(sample))):.3e}"
        for i, sample in enumerate(batch))


def forward(state: LearnerState, batch, config: TrainConfig, selections=None):
    """The learner's forward pass on the tape; returns (L_m, L_k, L_p, selections).

    ``selections`` holds one ``Selection`` per image. Without it the batch's
    image stack is routed by the current keys; passing the selections of an
    earlier call pins them, triplet negatives included, so gradient checks
    stay on one smooth branch. The tape gets one text-tower node per
    distinct selection and one node per loss term; a term whose weight is 0
    is not built and reads 0.
    """
    if state.bank is None:
        raise ValueError(f"forward: mode {state.mode!r} has no bank to train")
    if not batch:
        raise ValueError("forward: empty batch")
    config = preset(state.mode, config)
    bank = state.bank
    enc = state.encoders
    candidates = state.seen_classes()
    label_index = {cid: i for i, cid in enumerate(candidates)}
    for sample in batch:
        if sample.label not in label_index:
            raise ValueError(f"sample label {sample.label} not registered")
    zs = enc.encode_image(batch)
    if selections is None:
        selections = route(zs, bank, config.c)

    # Images that share a selection share its (K, d) class embeddings.
    embs, groups = class_text_embeddings(enc, bank, selections, state.class_token_rows(candidates))
    l_m = classification_loss(zs, [label_index[sample.label] for sample in batch], embs,
                              groups, config.tau)
    l_k = (key_matching_loss(zs, selections, bank, config.distance) if config.lambda_k > 0
           else ad.constant(0.0))
    l_p = prompt_orthogonality_loss(bank, enc) if config.lambda_p > 0 else ad.constant(0.0)
    return l_m, l_k, l_p, selections


def train_step(state: LearnerState, batch, config: TrainConfig, lr: float) -> LossBreakdown:
    """One forward/backward/SGD step on the bank at rate ``lr``; returns pre-step losses."""
    config = preset(state.mode, config)
    params = state.trainable_parameters()

    ad.reset_tape()
    for p in params:
        p.grad = None
    l_m, l_k, l_p, selections = forward(state, batch, config)
    for sel in selections:
        state.selection_counts[sel.indices] += 1
    total = total_loss(l_m, l_k, l_p, config.lambda_k, config.lambda_p)
    try:
        parts = breakdown(l_m, l_k, l_p, total)
    except ad.NumericError as e:
        raise ad.NumericError(f"{e}\n{_diagnostic_dump(batch, state.encoders)}") from None

    ad.backward(total)
    _sgd_update(params, lr)
    ad.reset_tape()
    if state.bank.min_key_norm() < KEY_NORM_FLOOR:
        raise ad.NumericError("key norm collapsed below floor after update")
    state.step_counter += 1
    return parts


def train_task(state: LearnerState, task, config: TrainConfig, class_tokens: dict) -> dict:
    """Register the task's classes from ``class_tokens``, the stream's token table,
    then run epochs_per_task seeded passes over the task; returns a task report."""
    if not task.train:
        raise ValueError(f"task {task.task_id}: empty training set")
    overlap = set(task.class_ids).intersection(state.class_tokens)
    if overlap:
        raise ValueError(f"task {task.task_id}: class ids {sorted(overlap)} already seen")
    for cid in task.class_ids:
        state.register_class(cid, class_tokens[cid])

    if state.bank is None:
        state.tasks_done += 1
        return {"task_id": task.task_id, "steps": 0, "epoch_losses": [], "lr_trace": []}
    state.selection_counts = np.zeros(state.bank.n, dtype=np.int64)
    config = preset(state.mode, config)

    n_samples = len(task.train)
    steps_per_epoch = math.ceil(n_samples / config.batch_size)
    task_total = config.epochs_per_task * steps_per_epoch

    epoch_losses = []
    lr_trace = []
    step_in_task = 0
    for epoch in range(config.epochs_per_task):
        order = keyed_rng(config.seed, _CTX_SHUFFLE, state.tasks_done, epoch).permutation(n_samples)
        sums = np.zeros(4)
        for b in range(steps_per_epoch):
            idx = order[b * config.batch_size:(b + 1) * config.batch_size]
            batch = [task.train[i] for i in idx]
            lr = lr_at(step_in_task, task_total, config.lr0)
            lr_trace.append(lr)
            parts = train_step(state, batch, config, lr)
            sums += [parts.l_m, parts.l_k, parts.l_p, parts.total]
            step_in_task += 1
        epoch_losses.append({k: v / steps_per_epoch for k, v in
                             zip(("l_m", "l_k", "l_p", "total"), sums)})
    state.tasks_done += 1
    return {"task_id": task.task_id, "steps": step_in_task, "epoch_losses": epoch_losses,
            "lr_trace": lr_trace, "selection_histogram": state.selection_counts.tolist()}


def run_sequence(stream, config: TrainConfig, eval_hooks=(), state: LearnerState | None = None,
                 matrix=None, start_task: int = 0, mode: str = "attriclip"):
    """Train the stream's tasks in order, evaluating on all seen tasks after each.

    Returns (AccuracyMatrix, LearnerState). Pass state/matrix/start_task to
    resume a checkpointed run. On failure the raised SequenceError carries the
    matrix with rows for completed tasks intact.
    """
    from .evaluation import AccuracyMatrix, evaluate

    tasks = stream.tasks
    if not tasks:
        raise ValueError("run_sequence: empty task stream")
    if state is None:
        state = init_state(mode, config, stream)
    if matrix is None:
        matrix = AccuracyMatrix.empty([f"task{t.task_id}" for t in tasks])
    checksum_before = state.encoders.checksum()

    for t in range(start_task, len(tasks)):
        task = tasks[t]
        try:
            report = train_task(state, task, config, class_tokens=stream.class_tokens)
            candidates = state.seen_classes()
            cache: dict = {}  # one round, one bank state: every call shares its encodes
            for s in range(t + 1):
                matrix.set(t, s, evaluate(state, tasks[s].test, candidates, cache=cache))
        except Exception as e:
            raise SequenceError(f"task {task.task_id} failed: {e}", matrix) from e
        for hook in eval_hooks:
            hook(state, t, matrix, report)

    if state.encoders.checksum() != checksum_before:
        raise RuntimeError("frozen encoder weights changed during training")
    return matrix, state
