import numpy as np
import pytest

from pcmamba.embed import OrderPromptBank, attach_prompts, positional_embed, strip_prompts
from pcmamba.errors import ConfigurationError
from pcmamba.nn import AffineMap


def make_bank(n_p=6, stages=(8, 12)):
    rng = np.random.Generator(np.random.PCG64(0))
    return OrderPromptBank.init(rng, ("xyz", "z"), stages, n_p)


def test_positional_zero_map_gives_zero():
    pm = AffineMap.init(np.random.Generator(np.random.PCG64(1)), 3, 6)
    pm.w[:] = 0.0
    pm.b[:] = 0.0
    out = positional_embed(np.random.default_rng(0).uniform(size=(5, 3)), pm)
    np.testing.assert_array_equal(out, np.zeros((5, 6)))


def test_positional_equal_coords_equal_embeddings():
    pm = AffineMap.init(np.random.Generator(np.random.PCG64(2)), 3, 4)
    coords = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
    out = positional_embed(coords, pm)
    np.testing.assert_array_equal(out[0], out[1])


def test_positional_lipschitz_bound():
    rng = np.random.Generator(np.random.PCG64(3))
    pm = AffineMap.init(rng, 3, 10)
    opnorm = np.linalg.svd(pm.w, compute_uv=False)[0]
    for _ in range(50):
        a, b = rng.uniform(size=(2, 3))
        lhs = np.linalg.norm(positional_embed(a[None], pm) - positional_embed(b[None], pm))
        assert lhs <= opnorm * np.linalg.norm(a - b) + 1e-12


def test_positional_translation_covariance():
    rng = np.random.Generator(np.random.PCG64(4))
    pm = AffineMap.init(rng, 3, 7)
    c = rng.uniform(size=(6, 3))
    t = rng.uniform(size=3)
    diff = positional_embed(c + t, pm) - positional_embed(c, pm)
    np.testing.assert_allclose(diff, np.tile(pm.w @ t, (6, 1)), rtol=1e-12, atol=1e-12)


def test_attach_prompts_shapes_and_middle():
    bank = make_bank()
    seq = np.random.default_rng(1).normal(size=(128, 8))
    out = attach_prompts(seq, "xyz", bank, stage=0)
    assert out.shape == (128 + 12, 8)
    np.testing.assert_array_equal(out[6:-6], seq)


def test_attach_prompts_zero_np_is_identity():
    bank = make_bank(n_p=0)
    seq = np.random.default_rng(2).normal(size=(10, 8))
    np.testing.assert_array_equal(attach_prompts(seq, "xyz", bank, 0), seq)


def test_attach_prompts_orders_differ_only_at_boundaries():
    bank = make_bank()
    seq = np.random.default_rng(3).normal(size=(20, 8))
    a = attach_prompts(seq, "xyz", bank, 0)
    b = attach_prompts(seq, "z", bank, 0)
    np.testing.assert_array_equal(a[6:-6], b[6:-6])
    assert not np.array_equal(a[:6], b[:6])


def test_attach_prompts_unknown_order():
    bank = make_bank()
    with pytest.raises(ConfigurationError):
        attach_prompts(np.zeros((4, 8)), "hilbert", bank, 0)


def test_strip_prompts_roundtrip():
    bank = make_bank()
    seq = np.random.default_rng(4).normal(size=(31, 8))
    np.testing.assert_array_equal(strip_prompts(attach_prompts(seq, "z", bank, 0), 6), seq)
    np.testing.assert_array_equal(strip_prompts(seq, 0), seq)


def test_strip_prompts_too_short():
    with pytest.raises(ValueError):
        strip_prompts(np.zeros((5, 4)), 3)


def test_same_prompts_at_both_ends():
    bank = make_bank()
    seq = np.zeros((9, 8))
    out = attach_prompts(seq, "xyz", bank, 0)
    np.testing.assert_array_equal(out[:6], out[-6:])
