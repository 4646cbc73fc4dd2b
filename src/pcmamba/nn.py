"""Small dense-layer primitives shared by the local and sequence modules.

All math is plain numpy in the dtype of the inputs; parameters are created
in float64 from an explicit Generator so builds are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def silu(x, out=None):
    """x / (1 + exp(-x)), computed in one buffer besides the input: ``out``,
    which must not be ``x``, or a new array."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(x, out, out=out)


def softplus(x, out=None):
    """log(1 + e^x) without overflow, as max(x, 0) + log1p(exp(-|x|)).

    ``out`` may be ``x`` itself; one temporary besides it.
    """
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out = np.maximum(x, 0.0, out=out)
    out += t
    return out


def softplus_inverse(y):
    # x such that softplus(x) == y, for y > 0
    return np.log(np.expm1(y))


def rms_norm(x, scale, eps=1e-8):
    """Channel-wise RMS normalization with a learnable per-channel scale."""
    out = x * x
    rms = np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    np.divide(x, rms, out=out)
    out *= scale
    return out


@dataclass
class AffineMap:
    """y = x @ w.T + b with weight shape (d_out, d_in)."""

    w: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int):
        limit = 1.0 / np.sqrt(d_in)
        return cls(w=rng.uniform(-limit, limit, size=(d_out, d_in)), b=np.zeros(d_out))

    @property
    def d_in(self) -> int:
        return self.w.shape[1]

    @property
    def d_out(self) -> int:
        return self.w.shape[0]

    def __call__(self, x):
        if x.shape[-1] != self.d_in:
            raise ConfigurationError(
                f"affine expects {self.d_in} input channels, got {x.shape[-1]}"
            )
        y = x @ self.w.T
        y += self.b
        return y

    def named_params(self, prefix: str):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b
