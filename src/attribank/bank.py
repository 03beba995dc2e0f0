"""The attribute word bank: trainable (key, prompt) pairs with top-C selection.

Keys live in the image-embedding space and are matched against image
embeddings by cosine distance; each key owns a prompt of M learnable tokens.
The bank is two parameters, an (n, d) key matrix and an (n, m, d) prompt
tensor; the tape nodes that read entry i add their gradients into row i
only. Selection is a hard top-C over distances and happens outside the
gradient tape: key gradients arrive only through the key-matching loss,
prompt gradients only through the losses that consume the composed text
input.
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
    """Top-C match for one image: bank indices ordered by ascending distance,
    and ``negative``, the closest unselected key's distance (None if there is none)."""

    indices: list
    negative: float | None = None

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


def scores(z: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cosine distances from z to each row of ``keys``, checked for finiteness once.

    ``z`` is one (d,) embedding, giving (n,), or a (B, d) stack, giving (B, n);
    row b of a stack's distances equals the call on ``z[b]``, bit for bit.
    """
    if not (np.isfinite(z).all() and np.isfinite(keys).all()):
        raise ad.NumericError("score: non-finite input")
    return 1.0 - ad.cosines(z, keys)[0]


def select_top_c(distances: np.ndarray, c: int) -> Selection:
    """The c entries of smallest distance in one image's distance row; ties break on low index.

    The entry after them in the same stable sort is the selection's negative.
    Runs on raw values, outside the tape: selection is a hard, non-differentiable
    routing decision.
    """
    n = len(distances)
    if not 1 <= c <= n:
        raise ValueError(f"select_top_c: c={c} out of range for bank of {n}")
    order = np.argsort(distances, kind="stable")
    return Selection(indices=order[:c].tolist(),
                     negative=float(distances[order[c]]) if c < n else None)


def route(zs: np.ndarray, bank: AttributeBank | None, c: int) -> list:
    """The bank entries each image of the (B, d) ``zs`` is routed to: its top-C keys.

    One ``scores`` call covers the stack, then each row's pick is one
    ``select_top_c`` call. A one-entry bank routes every image to entry 0
    without scoring it (the selection then carries no negative); with no
    bank every image routes to None.
    """
    if bank is None:
        return [None] * len(zs)
    if bank.n == 1:
        return [Selection(indices=[0]) for _ in zs]
    return [select_top_c(row, c) for row in scores(zs, bank.keys.values)]


def compose_text_input(sel: Selection, bank: AttributeBank) -> TokenSequence:
    """The prompt prefix of a selection: the rows ``sel.indices`` of ``bank.prompts``.

    Every candidate class's text is this prefix plus its class token. The
    text tower reads the rows itself, in selection order. On a parameter
    bank (training) it adds their gradients back into them; on
    ``frozen_view()`` (evaluation) they are constants.
    """
    return TokenSequence(bank.prompts, sel.indices)


def class_text_embeddings(encoders, bank: AttributeBank | None, selections, class_rows: ad.Tensor,
                          cache: dict | None = None):
    """Text embeddings of every candidate class under each image's selection.

    Returns ``(embs, groups)``: one (K, d) tensor per distinct selection in
    ``selections``, in order of first appearance, and for each the int64
    array of the images routed to it, in increasing order. ``class_rows``
    holds the K candidates' class tokens, one per row, and ``cache`` keeps
    one entry per selection. Each distinct selection is looked up in
    ``cache`` and on a miss encoded once: one ``encode_text`` call whose
    sequences are the selection's composed prompts followed by each class
    token. With no selection the prefix is no rows of an empty stack and the
    class tokens are encoded alone. On a parameter bank that call is one
    tape node, each class's sequence unshared, so values and the order
    prompt gradients are summed in stay those of K separate sequences, bit
    for bit; on ``frozen_view()`` it is the prefix-shared tower's values.
    """
    cache = {} if cache is None else cache
    embs, groups = [], {}
    for i, sel in enumerate(selections):
        key = None if sel is None else sel.index_tuple
        if key not in groups:
            groups[key] = []
            if key not in cache:
                prefix = (TokenSequence(ad.constant(np.zeros((0, 0, class_rows.shape[1]))), [])
                          if sel is None else compose_text_input(sel, bank))
                cache[key] = encoders.encode_text(prefix, class_rows)
            embs.append(cache[key])
        groups[key].append(i)
    return embs, [np.array(rows, dtype=np.int64) for rows in groups.values()]
