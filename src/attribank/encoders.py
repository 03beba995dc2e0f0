"""Frozen dual encoders: an image tower and an input-differentiable text tower.

The image encoder maps a feature vector to a D-dimensional embedding and
tracks no gradients (its output is a constant for the objective). Two
backends exist: a seeded frozen linear map ("toy") and an identity pass for
precomputed embeddings ("lookup").

The text encoder is a deliberately small, order-sensitive network:

    tokens + positional table
    -> bilinear pairwise scores, row-softmax   (one token-mixing step)
    -> mean pool over tokens
    -> linear projection to R^D

Its weights are frozen; gradients flow only into the input tokens, which is
exactly the property prompt tuning relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .util import content_hash, keyed_rng

_CTX_IMAGE, _CTX_MIX, _CTX_PROJ, _CTX_POS = 11, 12, 13, 14


@dataclass
class ImageSample:
    """One labelled input: either a raw feature vector or a precomputed embedding."""

    vector: np.ndarray
    label: int
    task_id: int


@dataclass
class TokenSequence:
    """Ordered token matrix of shape (length, dim), possibly on the tape."""

    tokens: ad.Tensor

    def __post_init__(self):
        if self.tokens.values.ndim != 2 or self.tokens.shape[0] < 1:
            raise ad.ShapeError(f"TokenSequence expects a (length, dim) matrix, got {self.tokens.shape}")

    @property
    def length(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


@dataclass
class EncoderWeights:
    """Frozen parameter set for both towers; the checksum pins immutability."""

    theta: dict = field(default_factory=dict)  # image tower
    psi: dict = field(default_factory=dict)    # text tower: mix, proj, pos
    seed: int = 0

    def checksum(self) -> str:
        parts = []
        for name in sorted(self.theta):
            parts.extend([name.encode(), self.theta[name]])
        for name in sorted(self.psi):
            parts.extend([name.encode(), self.psi[name]])
        return content_hash(str(self.seed).encode(), *parts)


class FrozenEncoderPair:
    """Immutable encoder pair; weights are drawn once from the seed.

    Init is standard normal scaled by 1/sqrt(fan_in), which keeps cosine
    similarities well spread at the start of training.
    """

    def __init__(self, d: int, image_width: int, seed: int,
                 max_tokens: int = 64, backend: str = "toy"):
        if d < 1 or image_width < 1 or max_tokens < 1:
            raise ValueError("encoder dimensions must be positive")
        if backend not in ("toy", "lookup"):
            raise ValueError(f"unknown image backend {backend!r}")
        if backend == "lookup" and image_width != d:
            raise ValueError("lookup backend requires image_width == d")
        self.d = d
        self.image_width = image_width
        self.max_tokens = max_tokens
        self.backend = backend

        theta = {}
        if backend == "toy":
            theta["w_image"] = keyed_rng(seed, _CTX_IMAGE).standard_normal((d, image_width)) / math.sqrt(image_width)
        psi = {
            "w_mix": keyed_rng(seed, _CTX_MIX).standard_normal((d, d)) / math.sqrt(d),
            "w_proj": keyed_rng(seed, _CTX_PROJ).standard_normal((d, d)) / math.sqrt(d),
            "pos": keyed_rng(seed, _CTX_POS).standard_normal((max_tokens, d)) / math.sqrt(d),
        }
        self.weights = EncoderWeights(theta=theta, psi=psi, seed=seed)
        for arr in (*theta.values(), *psi.values()):
            arr.setflags(write=False)
        self._inv_sqrt_d = 1.0 / math.sqrt(d)

    def checksum(self) -> str:
        return self.weights.checksum()

    def encode_image(self, sample: ImageSample | np.ndarray) -> np.ndarray:
        """Deterministic D-vector; never on the tape."""
        x = sample.vector if isinstance(sample, ImageSample) else np.asarray(sample)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.image_width:
            raise ad.ShapeError(
                f"encode_image: expected width {self.image_width}, got shape {x.shape}")
        if self.backend == "lookup":
            return x
        return self.weights.theta["w_image"] @ x

    def encode_text(self, seq: TokenSequence) -> ad.Tensor:
        """Embed a token sequence; differentiable w.r.t. input tokens only.

        The tower is one tape node. Its arithmetic, forward and backward, is
        that of the primitive chain add, matmul, transpose, matmul, scale,
        softmax_logits, matmul, matmul, matmul, so values and gradients are
        bit-identical to building the chain, without nine nodes per call.
        """
        x = seq.tokens
        s, dim = x.shape
        if dim != self.d:
            raise ad.ShapeError(f"encode_text: token dim {dim} != encoder dim {self.d}")
        if s > self.max_tokens:
            raise ad.ShapeError(
                f"encode_text: sequence length {s} exceeds positional table ({self.max_tokens})")
        psi, alpha = self.weights.psi, self._inv_sqrt_d
        mix, proj = psi["w_mix"], psi["w_proj"]
        xp = x.values + psi["pos"][:s]
        xp_t = np.ascontiguousarray(xp.T)
        xm = xp @ mix
        scores = (xm @ xp_t) * alpha
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        pool = np.full(s, 1.0 / s)
        pooled = pool @ (attn @ xp)  # (s,) @ (s,d) -> (d,)

        def grad_fn(g):
            g_mixed = np.outer(pool, proj.T @ g)
            g_attn = g_mixed @ xp.T
            g_scores = ((g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) * attn) * alpha
            g_xp = attn.T @ g_mixed + (xm.T @ g_scores).T
            return (g_xp + (g_scores @ xp_t.T) @ mix.T,)

        return ad.record("encode_text", (x,), ad.Tensor(proj @ pooled), grad_fn)

