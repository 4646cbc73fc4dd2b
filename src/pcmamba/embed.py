"""Order prompts and coordinate positional embeddings.

Order prompts are learnable boundary tokens, ``n_p`` vectors of width
``PROMPT_WIDTH`` per serialization order, projected into each stage's
channel width by a projection shared across that stage's layers and
concatenated to both ends of the sequence. Positional embeddings are a
per-stage affine map (an ``AffineMap`` from 3 to the stage width) of the
raw 3-D coordinates, shared by all layers in the stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import AffineMap, Params

# width of every order prompt before its stage projection
PROMPT_WIDTH = 64

# standard deviation of the normal draw that initializes each order prompt
PROMPT_INIT_SCALE = 0.02


def positional_embed(coords: np.ndarray, affine: AffineMap) -> np.ndarray:
    """Rowwise affine embedding of coordinates; equal coords give equal rows."""
    return affine(coords)


@dataclass
class OrderPromptBank(Params):
    """N_p learnable vectors per serialization order plus per-stage projections.

    ``prompts`` maps an order name to an (N_p, PROMPT_WIDTH) array;
    ``stage_proj`` holds one shared PROMPT_WIDTH -> D_stage affine per stage.
    """

    prompts: dict
    stage_proj: list

    @classmethod
    def init(cls, rng: np.random.Generator, order_names, stage_widths, n_p: int):
        prompts = {
            name: rng.normal(0.0, PROMPT_INIT_SCALE, size=(n_p, PROMPT_WIDTH))
            for name in order_names
        }
        proj = [AffineMap.init(rng, PROMPT_WIDTH, d) for d in stage_widths]
        return cls(prompts=prompts, stage_proj=proj)

    def projected(self, order_name: str, stage: int) -> np.ndarray:
        if order_name not in self.prompts:
            raise ConfigurationError(
                f"no prompts for order {order_name!r}; known: {sorted(self.prompts)}"
            )
        return self.stage_proj[stage](self.prompts[order_name])


def attach_prompts(
    seq: np.ndarray, order_name: str, bank: OrderPromptBank, stage: int
) -> np.ndarray:
    """Prepend and append the order's projected prompts to the sequence."""
    block = bank.projected(order_name, stage)
    return np.vstack([block, seq, block])


def strip_prompts(seq: np.ndarray, n_p: int) -> np.ndarray:
    """Drop the first and last n_p tokens (the prompt positions)."""
    if seq.shape[0] < 2 * n_p:
        raise ValueError(
            f"sequence of length {seq.shape[0]} is too short to strip 2*{n_p} prompts"
        )
    return seq[n_p : len(seq) - n_p]
