"""Loss terms for attribute-bank prompt tuning.

Three components combine into the training objective:

  classification     L_m = mean over batch of -log p(label), with
                     p_i proportional to exp(cos(z, w_i) / tau)
  key matching       L_k = sum over selected keys of a distance to z
                     (cosine distance, normalized MSE, or triplet)
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
from .bank import AttributeBank, Selection, score
from .encoders import TokenSequence

_VARIANTS = ("cosine", "mse", "triplet")


@dataclass
class DistanceVariant:
    kind: str = "cosine"
    triplet_margin: float = 0.2

    def __post_init__(self):
        if self.kind not in _VARIANTS:
            raise ValueError(f"distance variant must be one of {_VARIANTS}, got {self.kind!r}")
        if self.kind == "triplet" and self.triplet_margin <= 0:
            raise ValueError("triplet variant needs a positive margin")


@dataclass
class LossBreakdown:
    """Scalar loss components from one training step, before the update."""

    l_m: float
    l_k: float
    l_p: float
    total: float
    lambda_k: float
    lambda_p: float
    tau: float

    def as_dict(self) -> dict:
        return {"l_m": self.l_m, "l_k": self.l_k, "l_p": self.l_p, "total": self.total}


def predict_probabilities(z: np.ndarray, text_embeddings, tau: float) -> np.ndarray:
    """Softmax over cosine similarities at temperature tau (max-shifted)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=np.float64)
    embs = [np.asarray(w, dtype=np.float64) for w in text_embeddings]
    if not embs:
        raise ValueError("predict_probabilities: need at least one class embedding")
    if not np.isfinite(z).all() or any(not np.isfinite(w).all() for w in embs):
        raise ad.NumericError("predict_probabilities: non-finite embedding")
    logits = np.array([ad.cosine_value(z, w) for w in embs]) / tau
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def classification_loss(batch, tau: float) -> ad.Tensor:
    """Mean negative log-probability of the true class, on the tape.

    ``batch`` is a list of (z, label_index, text_embeddings) where z is a raw
    embedding, label_index points into text_embeddings, and each text
    embedding is a (d,) tensor from the text encoder.
    """
    if not batch:
        raise ValueError("classification_loss: empty batch")
    if tau <= 0:
        raise ValueError("tau must be positive")
    inv_tau = 1.0 / tau
    nlls = []
    for z, label, embs in batch:
        if not 0 <= label < len(embs):
            raise IndexError(f"label index {label} out of range for {len(embs)} classes")
        zc = ad.constant(np.asarray(z, dtype=np.float64))
        logits = ad.concat([ad.scale(ad.cosine_sim(zc, w), inv_tau) for w in embs])
        nlls.append(ad.neg_log_prob(logits, label))
    return ad.mean_all(ad.concat(nlls))


def _relu(t: ad.Tensor) -> ad.Tensor:
    # max(0, x) = (x + |x|) / 2
    return ad.scale(ad.add(t, ad.absolute(t)), 0.5)


def triplet_negative(z: np.ndarray, sel: Selection, bank: AttributeBank) -> float:
    """Distance from z to its closest unselected key: the detached triplet negative."""
    if len(sel.indices) >= bank.n:
        raise ValueError("triplet variant needs at least one unselected key as negative")
    selected = set(sel.indices)
    return min(score(z, bank.keys[i].values) for i in range(bank.n) if i not in selected)


def key_matching_loss(z: np.ndarray, sel: Selection, bank: AttributeBank,
                      variant: DistanceVariant,
                      frozen_negative: float | None = None) -> ad.Tensor:
    """Distance from z to each selected key, summed; gradients reach only
    the selected keys (z is a constant, negatives are detached).

    ``frozen_negative`` pins the triplet negative's distance to a value
    computed earlier (``trainer.forward`` takes it from the batch routing),
    so central differences measure the same detached branch the optimizer
    follows.
    """
    zc = ad.constant(np.asarray(z, dtype=np.float64))
    if variant.kind == "triplet":
        neg_dist = (triplet_negative(zc.values, sel, bank) if frozen_negative is None
                    else frozen_negative)
    terms = []
    for i in sel.indices:
        cos = ad.cosine_sim(zc, bank.keys[i])
        if variant.kind == "cosine":
            terms.append(ad.add(ad.scale(cos, -1.0), 1.0))
        elif variant.kind == "mse":
            # ||z/|z| - k/|k|||^2 == 2 - 2 cos(z, k); both vectors unit-normalized
            terms.append(ad.add(ad.scale(cos, -2.0), 2.0))
        else:
            gamma = ad.add(ad.scale(cos, -1.0), 1.0)
            terms.append(_relu(ad.add(gamma, variant.triplet_margin - neg_dist)))
    return ad.sum_all(ad.concat(terms))


def prompt_orthogonality_loss(bank: AttributeBank, text_encoder) -> ad.Tensor:
    """Mean |cosine| over all ordered prompt-embedding pairs.

    Every prompt is encoded standalone (no class token); the sum runs over the
    upper triangle and is normalized by n*(n-1), so two identical prompts in a
    bank of two give 0.5. Defined as 0 for a single-entry bank.
    """
    n = bank.n
    if n == 1:
        return ad.constant(0.0)
    embs = [text_encoder.encode_text(TokenSequence(p)) for p in bank.prompts]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append(ad.absolute(ad.cosine_sim(embs[i], embs[j])))
    return ad.scale(ad.sum_all(ad.concat(pairs)), 1.0 / (n * (n - 1)))


def total_loss(l_m: ad.Tensor, l_k: ad.Tensor, l_p: ad.Tensor,
               lambda_k: float, lambda_p: float) -> ad.Tensor:
    if lambda_k < 0 or lambda_p < 0:
        raise ValueError("loss weights must be non-negative")
    return ad.add(ad.add(l_m, ad.scale(l_k, lambda_k)), ad.scale(l_p, lambda_p))


def breakdown(l_m: ad.Tensor, l_k: ad.Tensor, l_p: ad.Tensor, total: ad.Tensor,
              lambda_k: float, lambda_p: float, tau: float) -> LossBreakdown:
    parts = LossBreakdown(
        l_m=float(l_m.values), l_k=float(l_k.values), l_p=float(l_p.values),
        total=float(total.values), lambda_k=lambda_k, lambda_p=lambda_p, tau=tau)
    if not all(np.isfinite(v) for v in (parts.l_m, parts.l_k, parts.l_p, parts.total)):
        raise ad.NumericError(
            f"non-finite loss: l_m={parts.l_m:.6g} l_k={parts.l_k:.6g} l_p={parts.l_p:.6g}")
    return parts
