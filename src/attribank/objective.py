"""Loss terms for attribute-bank prompt tuning.

Three components combine into the training objective:

  classification     L_m = mean over batch of -log p(label), with
                     p_i proportional to exp(cos(z, w_i) / tau)
  key matching       L_k = mean over batch of the sum over selected keys of
                     a distance to z, one of DISTANCES: "cosine" (1 - cos),
                     "mse" (normalized squared error) or "triplet" (hinge
                     against the selection's detached negative at the fixed
                     margin TRIPLET_MARGIN)
  prompt diversity   L_p = mean absolute pairwise cosine similarity of the
                     standalone prompt embeddings, over all bank entries

  total              L = L_m + lambda_k * L_k + lambda_p * L_p

Each term is one tape node over the whole batch (L_p's pairs one node after
the standalone encode), built on ``autodiff.cosines``, and so is the total.
Values and gradients are those of the chains in ``tests/reference.py``, bit
for bit: each node sums its gradients in the order backward visited them.
Gradient routing is structural: keys appear on the tape only inside L_k,
prompts only inside L_m (via the composed text) and L_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bank import AttributeBank
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


def classification_loss(zs, labels, embs, groups, tau: float) -> ad.Tensor:
    """Mean negative log-probability of the true class over the batch, as one node.

    Row i of the (B, d) ``zs`` is an image embedding and ``labels[i]`` its
    class's row among the candidates. As ``bank.class_text_embeddings`` gives
    them, ``embs[u]`` holds a selection's (K, d) candidate text embeddings and
    ``groups[u]`` its rows of ``zs`` in increasing order. Each tensor takes
    the sum of its samples' gradients in reverse sample order, the first as
    is, as backward would add B per-sample nodes.
    """
    zs = np.asarray(zs, dtype=np.float64)
    if not len(zs):
        raise ValueError("classification_loss: empty batch")
    if tau <= 0:
        raise ValueError("tau must be positive")
    k = embs[0].shape[0]
    for label in labels:
        if not 0 <= label < k:
            raise IndexError(f"label index {label} out of range for {k} classes")
    rows, labels = np.arange(len(zs)), np.asarray(labels)
    inv_tau = 1.0 / tau
    # Each selection's samples against its own (K, d) embeddings, broadcast.
    logits = np.empty((len(zs), k))
    grads = []
    for emb, mine in zip(embs, groups):
        c, grads_u = ad.cosines(zs[mine], emb.values)
        logits[mine] = c * inv_tau
        grads.append(grads_u)
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    out = ad.Tensor((lse - logits[rows, labels]).mean())

    def grad_fn(g):
        p = np.exp(logits - lse[:, None])  # softmax minus one-hot, per sample
        p[rows, labels] -= 1.0
        g_c = ((float(g) / len(zs)) * p) * inv_tau
        return tuple(np.add.accumulate(grads_u(g_c[mine], da=False)[1][::-1], axis=0)[-1]
                     for grads_u, mine in zip(grads, groups))

    return ad.record("classification_loss", tuple(embs), out, grad_fn)


def key_matching_loss(zs, selections, bank: AttributeBank, distance: str) -> ad.Tensor:
    """Mean over the batch of each image's summed distance to its selected keys, as one node.

    Row i of the (B, d) ``zs`` is matched against the keys of
    ``selections[i]``; all selections have one length. Gradients reach only
    the selected keys (z is a constant, negatives are detached), added in
    reverse sample order. The triplet negative is ``sel.negative``, fixed
    when the selection was made: a pinned selection keeps it while the keys
    move, so central differences measure the detached branch the optimizer
    follows.
    """
    triplet = distance == "triplet"
    if triplet and any(sel.negative is None for sel in selections):
        raise ValueError("triplet variant needs at least one unselected key as negative")
    index = np.array([sel.indices for sel in selections])
    c, grads = ad.cosines(np.asarray(zs, dtype=np.float64), bank.keys.values[index])
    # ||z/|z| - k/|k|||^2 == 2 - 2 cos(z, k); both vectors unit-normalized
    weight = 2.0 if distance == "mse" else 1.0
    terms = c * -weight + weight
    if triplet:
        terms += TRIPLET_MARGIN - np.array([sel.negative for sel in selections])[:, None]
    inv_b = 1.0 / len(index)
    out = ad.Tensor(((terms + np.abs(terms)) * 0.5 if triplet else terms).sum(axis=1).sum() * inv_b)

    def grad_fn(g):
        g_terms = np.full(c.shape, float(g * inv_b))
        if triplet:  # max(0, x) as (x + |x|) / 2: the x branch, then the |x| one
            g_terms = g_terms * 0.5 + g_terms * 0.5 * np.sign(terms)
        grad = np.zeros_like(bank.keys.values)
        np.add.at(grad, index[::-1], grads(g_terms * -weight, da=False)[1][::-1])
        return (grad,)

    return ad.record("key_matching_loss", (bank.keys,), out, grad_fn)


def prompt_orthogonality_loss(bank: AttributeBank, text_encoder) -> ad.Tensor:
    """Mean |cosine| over all ordered prompt-embedding pairs.

    Every prompt is encoded standalone (no class token), all n as one (n, d)
    node; the sum runs over the upper triangle in row-major order, as one
    more node, and is normalized by n*(n-1), so two identical prompts in a
    bank of two give 0.5. Defined as 0 for a single-entry bank.
    """
    n = bank.n
    if n == 1:
        return ad.constant(0.0)
    embs = text_encoder.encode_text(TokenSequence(bank.prompts))
    e = embs.values
    c, grads = ad.cosines(e, np.broadcast_to(e, (n, *e.shape)))
    upper = np.triu_indices(n, 1)
    inv_pairs = 1.0 / (n * (n - 1))
    out = ad.Tensor(np.abs(c[upper]).sum() * inv_pairs)

    def grad_fn(g):
        g_c = np.zeros_like(c)  # pairs (i, j <= i) add exact zeros below
        g_c[upper] = float(g * inv_pairs) * np.sign(c[upper])
        g_a, g_b = grads(g_c)
        # Row j takes d/da of its pairs (j, .), then d/db of (i, j) for i = n-1 ... 0:
        # backward's order over the per-pair nodes for i = n-2 ... 0.
        return (np.add.accumulate(np.concatenate([g_a[None], g_b[::-1]]), axis=0)[-1],)

    return ad.record("prompt_orthogonality_loss", (embs,), out, grad_fn)


def total_loss(l_m: ad.Tensor, l_k: ad.Tensor, l_p: ad.Tensor,
               lambda_k: float, lambda_p: float) -> ad.Tensor:
    """L_m + lambda_k * L_k + lambda_p * L_p as one node; values and gradients are
    those of the add/scale chain in ``tests/reference.py``, bit for bit."""
    if lambda_k < 0 or lambda_p < 0:
        raise ValueError("loss weights must be non-negative")
    out = ad.Tensor(l_m.values + l_k.values * lambda_k + l_p.values * lambda_p)
    return ad.record("total_loss", (l_m, l_k, l_p), out,
                     lambda g: (g, g * lambda_k, g * lambda_p))


def breakdown(l_m: ad.Tensor, l_k: ad.Tensor, l_p: ad.Tensor,
              total: ad.Tensor) -> LossBreakdown:
    parts = LossBreakdown(l_m=float(l_m.values), l_k=float(l_k.values),
                          l_p=float(l_p.values), total=float(total.values))
    if not all(np.isfinite(v) for v in (parts.l_m, parts.l_k, parts.l_p, parts.total)):
        raise ad.NumericError(
            f"non-finite loss: l_m={parts.l_m:.6g} l_k={parts.l_k:.6g} l_p={parts.l_p:.6g}")
    return parts
