"""Loss terms for attribute-bank prompt tuning.

Three components combine into the training objective:

  classification     L_m = mean over batch of -log p(label), with
                     p_i proportional to exp(cos(z, w_i) / tau)
  key matching       L_k = sum over selected keys of a distance to z, one of
                     DISTANCES: "cosine" (1 - cos), "mse" (normalized squared
                     error) or "triplet" (hinge against the selection's
                     detached negative at the fixed margin TRIPLET_MARGIN)
  prompt diversity   L_p = mean absolute pairwise cosine similarity of the
                     standalone prompt embeddings, over all bank entries

  total              L = L_m + lambda_k * L_k + lambda_p * L_p

Gradient routing is structural: keys appear on the tape only inside L_k,
prompts only inside L_m (via the composed text) and L_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bank import AttributeBank, Selection
from .encoders import TokenSequence

DISTANCES = ("cosine", "mse", "triplet")
TRIPLET_MARGIN = 0.2


@dataclass
class LossBreakdown:
    """Scalar loss components from one training step, before the update."""

    l_m: float
    l_k: float
    l_p: float
    total: float


def classification_loss(batch, tau: float) -> ad.Tensor:
    """Mean negative log-probability of the true class, on the tape.

    ``batch`` is a list of (z, label_index, text_embeddings) where z is a raw
    embedding, label_index points into text_embeddings, and text_embeddings
    is the (K, d) tensor of the candidate classes' text embeddings.
    """
    if not batch:
        raise ValueError("classification_loss: empty batch")
    if tau <= 0:
        raise ValueError("tau must be positive")
    inv_tau = 1.0 / tau
    nlls = []
    for z, label, embs in batch:
        if not 0 <= label < embs.shape[0]:
            raise IndexError(f"label index {label} out of range for {embs.shape[0]} classes")
        zc = ad.constant(np.asarray(z, dtype=np.float64))
        logits = ad.cosine_logits(zc, embs, inv_tau)
        nlls.append(ad.neg_log_prob(logits, label))
    return ad.mean_all(ad.concat(nlls))


def _relu(t: ad.Tensor) -> ad.Tensor:
    # max(0, x) = (x + |x|) / 2
    return ad.scale(ad.add(t, ad.absolute(t)), 0.5)


def key_matching_loss(z: np.ndarray, sel: Selection, bank: AttributeBank,
                      distance: str) -> ad.Tensor:
    """Distance from z to each selected key, summed; gradients reach only
    the selected keys (z is a constant, negatives are detached).

    The triplet negative is ``sel.negative``, fixed when the selection was
    made: a pinned selection keeps it while the keys move, so central
    differences measure the detached branch the optimizer follows.
    """
    if distance == "triplet" and sel.negative is None:
        raise ValueError("triplet variant needs at least one unselected key as negative")
    zc = ad.constant(np.asarray(z, dtype=np.float64))
    keys = ad.take(bank.keys, sel.indices)
    if distance == "mse":
        # ||z/|z| - k/|k|||^2 == 2 - 2 cos(z, k); both vectors unit-normalized
        terms = ad.add(ad.cosine_logits(zc, keys, -2.0), 2.0)
    else:
        terms = ad.add(ad.cosine_logits(zc, keys, -1.0), 1.0)
        if distance == "triplet":
            terms = _relu(ad.add(terms, TRIPLET_MARGIN - sel.negative))
    return ad.sum_all(terms)


def prompt_orthogonality_loss(bank: AttributeBank, text_encoder) -> ad.Tensor:
    """Mean |cosine| over all ordered prompt-embedding pairs.

    Every prompt is encoded standalone (no class token), all n as one (n, d)
    node; the sum runs over the upper triangle and is normalized by n*(n-1),
    so two identical prompts in a bank of two give 0.5. Defined as 0 for a
    single-entry bank.
    """
    n = bank.n
    if n == 1:
        return ad.constant(0.0)
    embs = text_encoder.encode_text(TokenSequence(bank.prompts))
    # Row i holds the pairs (i, j) for j > i, so the concat is the upper
    # triangle in row-major order.
    pairs = [ad.cosine_logits(ad.take(embs, i), ad.take(embs, range(i + 1, n)), 1.0)
             for i in range(n - 1)]
    return ad.scale(ad.sum_all(ad.absolute(ad.concat(pairs))), 1.0 / (n * (n - 1)))


def total_loss(l_m: ad.Tensor, l_k: ad.Tensor, l_p: ad.Tensor,
               lambda_k: float, lambda_p: float) -> ad.Tensor:
    if lambda_k < 0 or lambda_p < 0:
        raise ValueError("loss weights must be non-negative")
    return ad.add(ad.add(l_m, ad.scale(l_k, lambda_k)), ad.scale(l_p, lambda_p))


def breakdown(l_m: ad.Tensor, l_k: ad.Tensor, l_p: ad.Tensor,
              total: ad.Tensor) -> LossBreakdown:
    parts = LossBreakdown(l_m=float(l_m.values), l_k=float(l_k.values),
                          l_p=float(l_p.values), total=float(total.values))
    if not all(np.isfinite(v) for v in (parts.l_m, parts.l_k, parts.l_p, parts.total)):
        raise ad.NumericError(
            f"non-finite loss: l_m={parts.l_m:.6g} l_k={parts.l_k:.6g} l_p={parts.l_p:.6g}")
    return parts
