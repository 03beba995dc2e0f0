"""Rehearsal-free continual learning with a trainable attribute word bank.

A fixed-size bank of (key, prompt) pairs is matched per image against a
frozen image embedding, the selected prompts are composed with class tokens
and scored contrastively through a frozen text encoder, and everything is
trained with a three-term objective on a minimal reverse-mode tape.
"""

from .autodiff import Tensor, backward, constant, finite_difference_check, parameter, reset_tape
from .bank import AttributeBank, Selection, compose_text_input, init_bank, route
from .data_io import (SyntheticSpec, Task, TaskStream, generate_synthetic,
                      generate_synthetic_pair, read_checkpoint, read_embedding_file,
                      write_checkpoint, write_embedding_file)
from .encoders import FrozenEncoderPair, ImageSample, TokenSequence
from .evaluation import AccuracyMatrix, CdclReport, average_accuracy, evaluate, run_cdcl
from .objective import (LossBreakdown, classification_loss, key_matching_loss,
                        prompt_orthogonality_loss, total_loss)
from .trainer import (LearnerState, TrainConfig, forward, init_state, lr_at, preset,
                      run_sequence, train_step, train_task)

__version__ = "0.1.0"
