"""Small dense-layer primitives shared by the local and sequence modules.

All math is plain numpy in the dtype of the inputs; parameters are created
in float64 from an explicit Generator so builds are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

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


def rms_norm(x, scale):
    """Channel-wise RMS normalization with a learnable per-channel scale;
    1e-8 is added to the mean square."""
    out = x * x
    rms = np.sqrt(out.mean(axis=-1, keepdims=True) + 1e-8)
    np.divide(x, rms, out=out)
    out *= scale
    return out


def param_slots(node, prefix: str = ""):
    """Yield ``(name, owner, key)`` for every array below ``node``.

    A name is the array's attribute path, its parts joined by dots after
    ``prefix``: dataclass fields in field order, list and tuple items by
    index, dict items by sorted key. The array is ``owner[key]`` when
    ``owner`` is a dict, list or tuple, and ``owner.key`` otherwise.
    """
    if isinstance(node, dict):
        items = [(key, node[key]) for key in sorted(node)]
    elif isinstance(node, (list, tuple)):
        items = enumerate(node)
    elif is_dataclass(node):
        items = [(f.name, getattr(node, f.name)) for f in fields(node)]
    else:
        return
    for key, value in items:
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, np.ndarray):
            yield name, node, key
        else:
            yield from param_slots(value, name)


class Params:
    """Base of the module dataclasses. Their arrays are named by their
    attribute paths (``param_slots``): in a model, ``stages.1.layers.0.0.dt_bias``
    is ``model.stages[1].layers[0][0].dt_bias``; archives store these names."""

    def named_params(self, prefix: str = ""):
        """``(name, array)`` for every array below the module, in ``param_slots`` order."""
        for name, owner, key in param_slots(self, prefix):
            subscript = isinstance(owner, (dict, list, tuple))
            yield name, owner[key] if subscript else getattr(owner, key)


@dataclass
class AffineMap(Params):
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
