"""The attribute word bank: trainable (key, prompt) pairs with top-C selection.

Keys live in the image-embedding space and are matched against image
embeddings by cosine distance; each key owns a prompt of M learnable tokens.
The bank is two parameters, an (n, d) key matrix and an (n, m, d) prompt
tensor; the losses read entry i with ``autodiff.take``, so gradient reaches
only the rows they read. Selection is a hard top-C over distances and
happens outside the gradient tape: key gradients arrive only through the
key-matching loss, prompt gradients only through the losses that consume the
composed text input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoders import TokenSequence
from .util import keyed_rng

_CTX_KEYS, _CTX_PROMPTS = 21, 22

# Keys must keep a nonzero norm for cosine distances to stay meaningful.
KEY_NORM_FLOOR = 1e-9

PROMPT_INIT_STD = 0.02


@dataclass
class AttributeBank:
    """n (key, prompt) pairs: ``keys`` is an (n, d) tensor, ``prompts`` (n, m, d).

    Row i of both is entry i. Sizes come from the shapes.
    """

    keys: ad.Tensor
    prompts: ad.Tensor

    @property
    def n(self) -> int:
        return self.keys.shape[0]

    def trainable_parameters(self) -> list:
        return [self.keys, self.prompts]

    def frozen_view(self) -> "AttributeBank":
        """Read-only snapshot sharing the same value buffers (for evaluation)."""
        return AttributeBank(ad.constant(self.keys.values), ad.constant(self.prompts.values))

    def min_key_norm(self) -> float:
        return float(np.linalg.norm(self.keys.values, axis=1).min())


@dataclass
class Selection:
    """Top-C match for one image: bank indices ordered by ascending distance."""

    indices: list
    distances: list

    def __post_init__(self):
        if len(self.indices) != len(set(self.indices)):
            raise ValueError("selection indices must be distinct")

    @property
    def index_tuple(self) -> tuple:
        return tuple(self.indices)


def init_bank(n: int, m: int, d: int, seed: int,
              prompt_context: int = _CTX_PROMPTS) -> AttributeBank:
    """Seeded bank: keys ~ N(0, 1/d) per entry, prompt tokens ~ N(0, 0.02^2).

    ``prompt_context`` names the stream the prompts are drawn from.
    """
    if n < 1 or m < 1 or d < 1:
        raise ValueError(f"bank dimensions must be positive, got n={n} m={m} d={d}")
    key_rows = keyed_rng(seed, _CTX_KEYS).standard_normal((n, d)) / np.sqrt(d)
    prompt_rows = keyed_rng(seed, prompt_context).standard_normal((n, m, d)) * PROMPT_INIT_STD
    bank = AttributeBank(ad.parameter(key_rows), ad.parameter(prompt_rows))
    if bank.min_key_norm() < KEY_NORM_FLOOR:
        raise ad.NumericError("degenerate key norm at init")
    return bank


def score(z: np.ndarray, key: np.ndarray) -> float:
    """Cosine distance 1 - cos(z, key), in [0, 2]."""
    return float(scores(z, np.asarray(key, dtype=np.float64)[None])[0])


def scores(z: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cosine distances from z to each row of ``keys``, checked for finiteness once."""
    z = np.asarray(z, dtype=np.float64)
    if not (np.isfinite(z).all() and np.isfinite(keys).all()):
        raise ad.NumericError("score: non-finite input")
    return np.array([1.0 - ad.cosine_value(z, k) for k in keys])


def select_top_c(z: np.ndarray, bank: AttributeBank, c: int) -> Selection:
    """The c keys with smallest cosine distance to z; ties break on low index.

    Runs on raw values, outside the tape: selection is a hard, non-differentiable
    routing decision.
    """
    if not 1 <= c <= bank.n:
        raise ValueError(f"select_top_c: c={c} out of range for bank of {bank.n}")
    distances = scores(z, bank.keys.values)
    order = np.argsort(distances, kind="stable")[:c]
    return Selection(indices=[int(i) for i in order],
                     distances=[float(distances[i]) for i in order])


def route(z: np.ndarray, bank: AttributeBank | None, c: int) -> Selection | None:
    """The bank entries an image is routed to: its top-C keys.

    A one-entry bank routes every image to entry 0 without scoring it (the
    selection then carries no distances); with no bank there is no routing.
    """
    if bank is None:
        return None
    if bank.n == 1:
        return Selection(indices=[0], distances=[])
    return select_top_c(z, bank, c)


def compose_text_input(sel: Selection, bank: AttributeBank,
                       class_token: TokenSequence) -> TokenSequence:
    """Concatenate the selected prompts, in selection order, then the class tokens.

    Prompt tokens keep their trainable status through the concat; class tokens
    contribute no gradient.
    """
    for i in sel.indices:
        if not 0 <= i < bank.n:
            raise ValueError(f"selection index {i} outside bank of {bank.n}")
    d = bank.prompts.shape[2]
    if class_token.dim != d:
        raise ad.ShapeError(
            f"compose_text_input: class token dim {class_token.dim} != bank dim {d}")
    parts = [ad.take(bank.prompts, i) for i in sel.indices]
    parts.append(class_token.tokens)
    return TokenSequence(ad.concat(parts))


def class_text_embeddings(encoders, bank: AttributeBank | None, sel: Selection | None,
                          class_seqs: list, cache: dict) -> list:
    """Text embeddings of every candidate class under one selection.

    ``cache`` keeps one entry per selection, holding all candidates in the
    order of ``class_seqs``. With no selection the class tokens are encoded
    alone. On a parameter bank the embeddings are on the tape; on
    ``frozen_view()`` they are constants.
    """
    key = None if sel is None else sel.index_tuple
    embs = cache.get(key)
    if embs is None:
        embs = [encoders.encode_text(seq if sel is None else compose_text_input(sel, bank, seq))
                for seq in class_seqs]
        cache[key] = embs
    return embs
