"""Spans and counters around attribank's public functions, installed from outside.

The package is not edited. Each traced function is replaced, in every
attribank module that binds the name (``attribank.trainer.select_top_c`` and
``attribank.evaluation.select_top_c`` alike), by a wrapper that times the call
and updates counters; methods are replaced on their class. A span's child
time is the time covered by traced calls made directly inside it, so
``self = seconds - child_seconds``.

Two levels exist. The light level wraps only ``train_task`` and ``evaluate``,
a few dozen calls per run, and feeds the end-to-end throughputs. The full
level wraps every layer and is used only for the per-layer run, because its
wrappers run on every text encoding.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    seconds: float = 0.0
    calls: int = 0
    child_seconds: float = 0.0


class Tracer:
    def __init__(self, full: bool):
        self.full = full
        self.active = False
        self._stack: list = []
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (called before each round)."""
        self.spans: dict = defaultdict(Span)
        self.train_samples = 0
        self.eval_samples = 0
        self.encode_text_train = 0
        self.encode_text_eval = 0
        self.eval_distinct = 0
        self.unique_selections: list = []
        self.tape_nodes: list = []
        self.step_seconds_by_task: list = []
        self._eval_keys: set = set()
        self._eval_depth = 0
        self._step_selections: set | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from attribank import autodiff, bank, data_io, evaluation, objective, trainer, util
        from attribank.encoders import FrozenEncoderPair

        self._patch_function(trainer, "train_task", self._enter_train_task,
                             self._leave_train_task)
        self._patch_function(evaluation, "evaluate", self._enter_evaluate, self._leave_evaluate)
        if not self.full:
            return
        self._patch_function(trainer, "train_step", self._enter_train_step,
                             self._leave_train_step)
        self._patch_function(autodiff, "backward", self._enter_backward)
        self._patch_function(bank, "select_top_c", leave=self._leave_select_top_c)
        self._patch_function(bank, "compose_text_input")
        for name in ("classification_loss", "key_matching_loss", "prompt_orthogonality_loss"):
            self._patch_function(objective, name)
        for name in ("read_embedding_file", "write_checkpoint", "generate_synthetic"):
            self._patch_function(data_io, name)
        self._patch_function(util, "dump_json")
        self._patch_method(FrozenEncoderPair, "encode_text", "encoders",
                           self._enter_encode_text)
        self._patch_method(FrozenEncoderPair, "encode_image", "encoders")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_function(self, module, name, enter=None, leave=None) -> None:
        original = getattr(module, name)
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapper = self._wrap(f"{layer}.{name}", original, enter, leave)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "attribank" and not mod_name.startswith("attribank."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, name, layer, enter=None) -> None:
        original = getattr(cls, name)
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrap(f"{layer}.{name}", original, enter, None))

    def _wrap(self, key, fn, enter, leave):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(*args, **kwargs)
            stack.append(0.0)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                span = self.spans[key]  # looked up per call: reset() replaces the dict
                span.seconds += dt
                span.calls += 1
                span.child_seconds += child
                if stack:
                    stack[-1] += dt
                if leave is not None:
                    leave(result, dt, *args, **kwargs)

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _close_eval_round(self) -> None:
        self.eval_distinct += len(self._eval_keys)
        self._eval_keys = set()

    def _enter_train_task(self, state, task, config, *args, **kwargs) -> None:
        # Everything evaluated since the previous task is one post-task round.
        self._close_eval_round()
        self.step_seconds_by_task.append([])

    def _leave_train_task(self, result, dt, state, task, config, *args, **kwargs) -> None:
        if state.mode != "zero_shot":
            self.train_samples += config.epochs_per_task * len(task.train)

    def _enter_evaluate(self, state, test_set, *args, **kwargs) -> None:
        self._eval_depth += 1

    def _leave_evaluate(self, result, dt, state, test_set, *args, **kwargs) -> None:
        self._eval_depth -= 1
        self.eval_samples += len(test_set)

    def _enter_train_step(self, *args, **kwargs) -> None:
        self._step_selections = set()

    def _leave_train_step(self, result, dt, *args, **kwargs) -> None:
        # A step that routes nothing (shared prompt) runs one composition per class.
        self.unique_selections.append(len(self._step_selections) or 1)
        self._step_selections = None
        if self.step_seconds_by_task:
            self.step_seconds_by_task[-1].append(dt)

    def _enter_backward(self, *args, **kwargs) -> None:
        from attribank import autodiff
        self.tape_nodes.append(len(autodiff.active_tape()))

    def _leave_select_top_c(self, result, dt, *args, **kwargs) -> None:
        if self._step_selections is not None and result is not None:
            self._step_selections.add(result.index_tuple)

    def _enter_encode_text(self, encoders, seq, *args, **kwargs) -> None:
        if self._eval_depth:
            self.encode_text_eval += 1
            self._eval_keys.add(hash(seq.tokens.values.tobytes()))
        else:
            self.encode_text_train += 1

    # -- results -----------------------------------------------------------

    def throughput_sample(self) -> dict:
        """Light-level totals of one round."""
        return {"train_s": self.spans["trainer.train_task"].seconds,
                "train_samples": self.train_samples,
                "eval_s": self.spans["evaluation.evaluate"].seconds,
                "eval_samples": self.eval_samples}

    def layer_sample(self) -> dict:
        """Per-layer values of one round (full level)."""
        self._close_eval_round()
        sp = self.spans
        steps = sp["trainer.train_step"]
        ev = sp["evaluation.evaluate"]
        per_task = [t for t in self.step_seconds_by_task if t]

        def median_ms(values):
            return 1000.0 * statistics.median(values) if values else 0.0

        return {
            "autodiff.backward_s": sp["autodiff.backward"].seconds,
            "autodiff.backward_calls": sp["autodiff.backward"].calls,
            "autodiff.tape_nodes_per_step": (statistics.fmean(self.tape_nodes)
                                             if self.tape_nodes else 0.0),
            "autodiff.tape_nodes_max": max(self.tape_nodes, default=0),
            "encoders.encode_text_s": sp["encoders.encode_text"].seconds,
            "encoders.encode_text_calls_train": self.encode_text_train,
            "encoders.encode_text_calls_eval": self.encode_text_eval,
            "encoders.eval_text_distinct_ratio": (self.eval_distinct / self.encode_text_eval
                                                  if self.encode_text_eval else 0.0),
            "encoders.encode_image_calls": sp["encoders.encode_image"].calls,
            "bank.select_top_c_s": sp["bank.select_top_c"].seconds,
            "bank.select_top_c_calls": sp["bank.select_top_c"].calls,
            "bank.compose_text_input_s": sp["bank.compose_text_input"].seconds,
            "bank.unique_selections_per_batch": (statistics.fmean(self.unique_selections)
                                                 if self.unique_selections else 0.0),
            "objective.classification_loss_s": sp["objective.classification_loss"].seconds,
            "objective.key_matching_loss_s": sp["objective.key_matching_loss"].seconds,
            "objective.prompt_orthogonality_loss_s":
                sp["objective.prompt_orthogonality_loss"].seconds,
            "trainer.steps": steps.calls,
            "trainer.train_step_s": steps.seconds,
            "trainer.train_step_self_s": steps.seconds - steps.child_seconds,
            "trainer.step_ms_first_task": median_ms(per_task[0]) if per_task else 0.0,
            "trainer.step_ms_last_task": median_ms(per_task[-1]) if per_task else 0.0,
            "evaluation.evaluate_s": ev.seconds,
            "evaluation.evaluate_self_s": ev.seconds - ev.child_seconds,
            "evaluation.samples": self.eval_samples,
            "evaluation.ms_per_1k_samples": (1e6 * ev.seconds / self.eval_samples
                                             if self.eval_samples else 0.0),
            "data_io.read_embedding_file_s": sp["data_io.read_embedding_file"].seconds,
            "data_io.write_checkpoint_s": sp["data_io.write_checkpoint"].seconds,
            "data_io.write_checkpoint_calls": sp["data_io.write_checkpoint"].calls,
            "data_io.generate_synthetic_s": sp["data_io.generate_synthetic"].seconds,
            "util.dump_json_s": sp["util.dump_json"].seconds,
        }
