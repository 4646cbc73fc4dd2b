import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmamba import checks
from pcmamba.errors import ContractViolationError, NumericRangeError
from pcmamba.nn import rms_norm, silu, softplus
from pcmamba.ssm import (
    CONV_WIDTH,
    STATE_SIZE,
    SelectiveSSMLayer,
    bidirectional_mamba,
    causal_depthwise_conv,
    conv_form,
    discretize,
    mamba_block,
    scan,
    scan_backward,
    selective_ssm,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_system(rng, s):
    """Constant (a_bar, b_bar, c) of a random stable time-invariant system."""
    a = rng.uniform(-2.0, -0.05, size=s)
    b = rng.normal(size=s)
    c = rng.normal(size=s)
    return (*discretize(float(rng.uniform(0.1, 1.0)), a, b), c)


# ----------------------------------------------------------------- discretize


def test_discretize_dt_to_zero_limit():
    a_bar, b_bar = discretize(1e-12, np.array([-3.0]), np.array([2.0]))
    assert a_bar[0] == pytest.approx(1.0, abs=1e-11)
    assert abs(b_bar[0]) < 1e-11


def test_discretize_exact_values():
    assert checks.zoh_exact_values(1.0).passed


def test_discretize_series_agrees_with_closed_form():
    # |dt*a| = 1e-7 falls in the series branch
    assert checks.zoh_series_matches_closed().passed


def test_discretize_stability():
    rng = rng_for(0)
    a = rng.uniform(-100.0, -1e-9, size=500)
    dt = rng.uniform(1e-9, 20.0, size=500)
    a_bar, _ = discretize(dt, a, np.ones(500))
    assert np.all(np.abs(a_bar) < 1.0)


def test_discretize_overflow_raises():
    with pytest.raises(NumericRangeError):
        discretize(1000.0, np.array([10.0]), np.array([1.0]))


def test_discretize_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        discretize(0.0, np.array([-1.0]), np.array([1.0]))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.lists(_finite, min_size=1, max_size=3),
    _finite,
)
@example(1e300, [-1e10], 1.0)  # dt * a overflows to -inf; b_bar read 0
@example(2.0, [-1e-9], 1e308)  # b_bar overflows in the series branch
@example(1.34e154, [-1.34e154], 1.0)  # z * z overflows in the unused series
def test_discretize_fuzz_finite_or_range_error(dt, a, b):
    """Any finite dt > 0, a and b: finite a_bar and b_bar, or
    NumericRangeError, and never a floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            a_bar, b_bar = discretize(dt, np.array(a), np.array(b))
        except NumericRangeError:
            return
    assert a_bar.shape == b_bar.shape == (len(a),)
    assert np.isfinite(a_bar).all() and np.isfinite(b_bar).all()


# ----------------------------------------------------------------------- scan


def test_scan_single_step():
    y = scan(np.array([2.0]), np.array([[0.5]]), np.array([[3.0]]), np.array([[4.0]]))
    assert y[0] == 2.0 * 3.0 * 4.0


def test_scan_memoryless_when_a_zero():
    rng = rng_for(1)
    m, s = 16, 3
    x = rng.normal(size=m)
    b = rng.normal(size=(m, s))
    c = rng.normal(size=(m, s))
    y = scan(x, np.zeros((m, s)), b, c)
    expected = np.array([c[t] @ (b[t] * x[t]) for t in range(m)])
    np.testing.assert_allclose(y, expected, rtol=0, atol=0)


def test_scan_length_mismatch():
    with pytest.raises(ValueError):
        scan(np.zeros(4), np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 2)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 40),
    # powers of two scale losslessly, so linearity holds bit-for-bit
    st.sampled_from([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0]),
)
def test_scan_linear_in_x(m, alpha):
    rng = rng_for(m)
    x = rng.normal(size=m)
    a_bar = rng.uniform(0.1, 0.9, size=(m, 3))
    b_bar = rng.normal(size=(m, 3))
    c = rng.normal(size=(m, 3))
    np.testing.assert_array_equal(
        scan(alpha * x, a_bar, b_bar, c), alpha * scan(x, a_bar, b_bar, c)
    )


def test_scan_causality():
    rng = rng_for(2)
    m = 32
    x = rng.normal(size=m)
    a_bar = rng.uniform(0.1, 0.9, size=(m, 4))
    b_bar = rng.normal(size=(m, 4))
    c = rng.normal(size=(m, 4))
    base = scan(x, a_bar, b_bar, c)
    xp = x.copy()
    xp[20] += 5.0
    pert = scan(xp, a_bar, b_bar, c)
    np.testing.assert_array_equal(pert[:20], base[:20])
    assert np.any(pert[20:] != base[20:])


def scan_reference(x, a_bar, b_bar, c, g):
    """The per-token loops ``scan`` and ``scan_backward`` ran before the shared
    kernel, kept as a bit-exact oracle: (y, gradients of sum_t g_t * y_t)."""
    m = len(x)
    a_bar, b_bar, c = (np.broadcast_to(p, (m, p.shape[-1])) for p in (a_bar, b_bar, c))
    s = a_bar.shape[1]
    y = np.empty(m)
    states = np.empty((m, s))
    h = np.zeros(s)
    for t in range(m):
        h = a_bar[t] * h + b_bar[t] * x[t]
        states[t] = h
        y[t] = c[t] @ h
    dx = np.empty(m)
    da_bar = np.empty((m, s))
    db_bar = np.empty((m, s))
    lam = np.zeros(s)
    for t in range(m - 1, -1, -1):
        lam = g[t] * c[t] + (a_bar[t + 1] * lam if t + 1 < m else 0.0)
        prev = states[t - 1] if t > 0 else np.zeros(s)
        da_bar[t] = lam * prev
        db_bar[t] = lam * x[t]
        dx[t] = lam @ b_bar[t]
    return y, {"x": dx, "a_bar": da_bar, "b_bar": db_bar, "c": g[:, None] * states}


@pytest.mark.parametrize("m,s", [(1, 1), (1, 5), (2, 3), (37, 4), (200, 16)])
@pytest.mark.parametrize("constant", [False, True])
def test_scan_and_backward_match_reference_loop(m, s, constant):
    rng = rng_for(1000 * m + s)
    shape = (s,) if constant else (m, s)
    x = rng.normal(size=m)
    # signed a_bar with exact zeros exercises -0.0 and sign flips in the state
    a_bar = rng.uniform(-1.1, 1.1, size=shape)
    a_bar[rng.uniform(size=shape) < 0.1] = 0.0
    b_bar = rng.normal(size=shape)
    c = rng.normal(size=shape)
    g = rng.normal(size=m)
    y_ref, grads_ref = scan_reference(x, a_bar, b_bar, c, g)
    np.testing.assert_array_equal(scan(x, a_bar, b_bar, c), y_ref)
    grads = scan_backward(x, a_bar, b_bar, c, g)
    assert grads.keys() == grads_ref.keys()
    for name, ref in grads_ref.items():
        np.testing.assert_array_equal(grads[name], ref, err_msg=name)


# ------------------------------------------------------------------ conv_form


def test_conv_form_single_step():
    a_bar, b_bar = discretize(0.5, np.array([-1.0]), np.array([2.0]))
    y = conv_form(np.array([1.5]), a_bar, b_bar, np.array([3.0]))
    assert y[0] == pytest.approx(3.0 * b_bar[0] * 1.5)


def test_conv_form_impulse_gives_kernel():
    rng = rng_for(3)
    a_bar, b_bar, c = random_system(rng, s=4)
    m = 32
    impulse = np.zeros(m)
    impulse[0] = 1.0
    kernel = conv_form(impulse, a_bar, b_bar, c)
    powers = np.ones((m, 4))
    powers[1:] = np.cumprod(np.tile(a_bar, (m - 1, 1)), axis=0)
    expected = powers @ (c * b_bar)
    np.testing.assert_allclose(kernel, expected, rtol=1e-12, atol=1e-15)


def test_conv_form_rejects_time_varying():
    for a_bar, b_bar, c in [
        (np.zeros((4, 2)), np.zeros(2), np.zeros(2)),  # per-step a_bar
        (np.zeros(2), np.zeros(2), np.zeros((4, 2))),  # per-step c
        (np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2))),  # all per-step
        (np.zeros(2), np.zeros(3), np.zeros(2)),  # unequal lengths
        (np.zeros(2), np.zeros(2), np.zeros(1)),
    ]:
        with pytest.raises(ContractViolationError):
            conv_form(np.zeros(4), a_bar, b_bar, c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_reference_kernels_reject_non_finite_parameters(which, bad):
    params = [np.full(3, 0.5), np.ones(3), np.ones(3)]
    params[which][1] = bad
    with pytest.raises(ValueError, match="finite"):
        scan(np.ones(5), *params)
    with pytest.raises(ValueError, match="finite"):
        conv_form(np.ones(5), *params)
    with pytest.raises(ValueError, match="finite"):
        scan_backward(np.ones(5), *params, np.ones(5))


def test_reference_kernels_take_an_empty_sequence():
    params = np.full(2, 0.5), np.ones(2), np.ones(2)
    assert scan(np.zeros(0), *params).shape == (0,)
    assert conv_form(np.zeros(0), *params).shape == (0,)
    grads = scan_backward(np.zeros(0), *params, np.zeros(0))
    assert grads["x"].shape == (0,)
    assert all(grads[k].shape == (0, 2) for k in ("a_bar", "b_bar", "c"))


# -------------------------------------------------------------- scan_backward


def test_backward_zero_upstream():
    rng = rng_for(4)
    m, s = 8, 3
    grads = scan_backward(
        rng.normal(size=m),
        rng.uniform(0.1, 0.9, size=(m, s)),
        rng.normal(size=(m, s)),
        rng.normal(size=(m, s)),
        np.zeros(m),
    )
    for g in grads.values():
        assert np.all(g == 0.0)


def test_backward_single_step_by_hand():
    a_bar = np.array([[0.7, 0.2]])
    b_bar = np.array([[1.5, -2.0]])
    c = np.array([[0.3, 0.4]])
    x = np.array([2.0])
    g = np.array([1.25])
    grads = scan_backward(x, a_bar, b_bar, c, g)
    # y = c . (b_bar * x); dL/dx = g * c . b_bar
    assert grads["x"][0] == pytest.approx(1.25 * (0.3 * 1.5 + 0.4 * -2.0))
    np.testing.assert_allclose(grads["c"][0], 1.25 * b_bar[0] * 2.0)
    np.testing.assert_allclose(grads["b_bar"][0], 1.25 * c[0] * 2.0)
    np.testing.assert_allclose(grads["a_bar"][0], 0.0)  # h_{-1} = 0


# -------------------------------------------------------------- selective ssm


def test_selective_zero_projections_is_skip():
    rng = rng_for(5)
    layer = SelectiveSSMLayer.init(rng, 8)
    layer.b_proj_w[:] = 0.0
    layer.c_proj_w[:] = 0.0
    layer.d_skip[:] = 1.0
    x = rng.normal(size=(20, 8))
    np.testing.assert_array_equal(selective_ssm(x, layer), x)


def test_selective_steady_state_constant_input():
    rng = rng_for(0)
    layer = SelectiveSSMLayer.init(rng, 16)
    token = rng.normal(0.0, 0.5, size=16)
    x = np.tile(token, (512, 1))
    y = selective_ssm(x, layer)
    assert np.abs(y[-1] - y[-2]).max() < 1e-4


def test_selective_matches_per_token_loop():
    rng = rng_for(6)
    d, s, m = 5, STATE_SIZE, 24
    layer = SelectiveSSMLayer.init(rng, d)
    x = rng.normal(size=(m, d))
    got = selective_ssm(x, layer)
    # naive per-token reference, one channel at a time
    a = -np.exp(layer.a_log)
    h = np.zeros((d, s))
    expected = np.empty((m, d))
    for t in range(m):
        u = x[t]
        dt = softplus(layer.dt_up_w @ (layer.dt_down_w @ u) + layer.dt_bias)
        bt = layer.b_proj_w @ u
        ct = layer.c_proj_w @ u
        for ch in range(d):
            a_bar = np.exp(dt[ch] * a[ch])
            h[ch] = a_bar * h[ch] + dt[ch] * u[ch] * bt
            expected[t, ch] = ct @ h[ch] + layer.d_skip[ch] * u[ch]
    np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-12)


def selective_reference(u, layer):
    """The segment loop ``selective_ssm`` ran before the shared kernel, kept as
    an oracle: (Di, S) parameters per token in segments of
    262144 // (Di * S) rows, the state carried across segments, softplus as
    ``logaddexp`` and the readout as one ``einsum`` per segment."""
    m, d_inner = u.shape
    s = layer.state_size
    dt = np.logaddexp(0.0, u @ layer.dt_down_w.T @ layer.dt_up_w.T + layer.dt_bias)
    b_tok = u @ layer.b_proj_w.T
    c_tok = u @ layer.c_proj_w.T
    a = -np.exp(layer.a_log)
    h = np.zeros((d_inner, s))
    y = np.empty((m, d_inner))
    seg = min(m, max(1, 262_144 // (d_inner * s)))
    for start in range(0, m, seg):
        end = min(start + seg, m)
        dts = dt[start:end]
        a_bar = np.exp(dts[:, :, None] * a[None, :, :])
        bx = (dts * u[start:end])[:, :, None] * b_tok[start:end, None, :]
        states = np.empty_like(a_bar)
        for t in range(end - start):
            h = a_bar[t] * h + bx[t]
            states[t] = h
        np.einsum("tds,ts->td", states, c_tok[start:end], out=y[start:end])
    return y + layer.d_skip * u


def _first_states(layer, s):
    """The layer cut to its first s states; ``selective_ssm`` reads the
    state size from the layer's arrays."""
    cut = {"a_log": layer.a_log[:, :s], "b_proj_w": layer.b_proj_w[:s]}
    return SelectiveSSMLayer(**{**vars(layer), **cut, "c_proj_w": layer.c_proj_w[:s]})


# (D, S, M): 600 rows at D=64, S=16 are segments of 256, 256 and 88 rows
@pytest.mark.parametrize("d,s,m", [(64, STATE_SIZE, 600), (5, 3, 24), (8, 4, 1)])
def test_selective_matches_segment_loop(d, s, m):
    rng = rng_for(7)
    layer = _first_states(SelectiveSSMLayer.init(rng, d), s)
    u = rng.normal(size=(m, d))
    # the (S, Di) state, the readout at each step and the softplus form
    # change the rounding only
    got = selective_ssm(u, layer)
    np.testing.assert_allclose(got, selective_reference(u, layer), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- mamba block


def test_block_zero_out_proj_is_identity():
    # the block adds nothing to the residual stream that bidirectional_mamba
    # carries (test_bidirectional_zero_out_proj_identity): its output is zero
    rng = rng_for(8)
    layer = SelectiveSSMLayer.init(rng, 12)
    layer.out_proj_w[:] = 0.0
    x = rng.normal(size=(17, 12))
    np.testing.assert_array_equal(mamba_block(x, layer), np.zeros_like(x))


def test_block_single_token_conv_padding():
    rng = rng_for(9)
    layer = SelectiveSSMLayer.init(rng, 6)
    x = rng.normal(size=(1, 6))
    out = mamba_block(x, layer)
    assert out.shape == (1, 6) and np.isfinite(out).all()
    # causal conv over one token sees only that token (zeros padded on the left)
    u = rng.normal(size=(1, 4))
    w = rng.normal(size=(4, 3))
    b = np.zeros(4)
    np.testing.assert_allclose(causal_depthwise_conv(u, w, b), u * w[:, -1])


def test_block_deterministic():
    rng = rng_for(10)
    layer = SelectiveSSMLayer.init(rng, 8)
    x = rng_for(11).normal(size=(30, 8))
    np.testing.assert_array_equal(mamba_block(x, layer), mamba_block(x, layer))


# -------------------------------------------------------------- bidirectional


def test_bidirectional_palindrome_symmetry():
    rng = rng_for(12)
    layer = SelectiveSSMLayer.init(rng, 6)
    half = rng.normal(size=(9, 6))
    x = np.vstack([half, half[::-1]])
    y = bidirectional_mamba(x, layer, layer)
    np.testing.assert_array_equal(y, y[::-1])


def test_bidirectional_zero_out_proj_identity():
    rng = rng_for(13)
    fwd = SelectiveSSMLayer.init(rng, 6)
    bwd = SelectiveSSMLayer.init(rng, 6)
    fwd.out_proj_w[:] = 0.0
    bwd.out_proj_w[:] = 0.0
    x = rng.normal(size=(11, 6))
    np.testing.assert_array_equal(bidirectional_mamba(x, fwd, bwd), x)


def test_bidirectional_reverse_swap_symmetry():
    rng = rng_for(14)
    fwd = SelectiveSSMLayer.init(rng, 6)
    bwd = SelectiveSSMLayer.init(rng, 6)
    x = rng.normal(size=(15, 6))
    y = bidirectional_mamba(x, fwd, bwd)
    y_swapped = bidirectional_mamba(x[::-1], bwd, fwd)
    np.testing.assert_array_equal(y_swapped, y[::-1])


# ------------------------------------------ in-place forms, bit for bit
# Out-of-place forms of the Mamba kernels: a padded copy for the causal
# conv, fresh arrays for every sum and product. The in-place code must
# match them bit for bit and write none of its inputs.


def _conv_padded(u, w, b):
    m, d = u.shape
    width = w.shape[1]
    padded = np.vstack([np.zeros((width - 1, d)), u])
    out = np.zeros_like(u)
    for i in range(width):
        out += w[:, i] * padded[i : i + m]
    return out + b


def _block_out_of_place(x, layer):
    h = rms_norm(x, layer.norm_scale)
    proj = h @ layer.in_proj_w.T
    d_inner = layer.d_inner
    u, gate = proj[:, :d_inner], proj[:, d_inner:]
    u = silu(_conv_padded(u, layer.conv_w, layer.conv_b))
    y = selective_ssm(u, layer) * silu(gate)
    return y @ layer.out_proj_w.T


def _layer_snapshot(layer):
    return [arr.copy() for _, arr in layer.named_params("")]


def _assert_layer_unchanged(layer, snapshot):
    for (_, arr), before in zip(layer.named_params(""), snapshot):
        np.testing.assert_array_equal(arr, before)


@pytest.mark.parametrize("m", [1, CONV_WIDTH - 1, CONV_WIDTH, 37])
def test_causal_conv_matches_padded_copy_bit_exact(m):
    rng = rng_for(16)
    proj = rng.normal(size=(m, 10))
    u = proj[:, :5]  # a column view, as mamba_block passes it
    w, b = rng.normal(size=(5, CONV_WIDTH)), rng.normal(size=5)
    keep = proj.copy(), w.copy(), b.copy()
    np.testing.assert_array_equal(causal_depthwise_conv(u, w, b), _conv_padded(u, w, b))
    for arr, before in zip((proj, w, b), keep):
        np.testing.assert_array_equal(arr, before)


def test_selective_skip_term_bit_exact():
    rng = rng_for(17)
    layer = SelectiveSSMLayer.init(rng, 8)
    layer.d_skip[:] = rng.normal(size=8)
    u = rng.normal(size=(40, 8))
    keep = u.copy()
    no_skip = SelectiveSSMLayer(**{**vars(layer), "d_skip": np.zeros(8)})
    expected = selective_ssm(u, no_skip) + layer.d_skip * u
    np.testing.assert_array_equal(selective_ssm(u, layer), expected)
    np.testing.assert_array_equal(u, keep)


@pytest.mark.parametrize("m", [2, 41])
def test_block_matches_out_of_place_bit_exact(m):
    rng = rng_for(18)
    layer = SelectiveSSMLayer.init(rng, 12)
    outer = rng.normal(size=(2 * m, 12))
    x = outer[::-2]  # a reversed, strided caller view
    keep, snapshot = outer.copy(), _layer_snapshot(layer)
    np.testing.assert_array_equal(mamba_block(x, layer), _block_out_of_place(x, layer))
    np.testing.assert_array_equal(outer, keep)
    _assert_layer_unchanged(layer, snapshot)


def test_bidirectional_matches_out_of_place_bit_exact():
    rng = rng_for(19)
    fwd, bwd = SelectiveSSMLayer.init(rng, 12), SelectiveSSMLayer.init(rng, 12)
    outer = rng.normal(size=(60, 14))
    x = outer[5:35, 1:13]  # a caller view inside a larger array
    keep, snapshots = outer.copy(), (_layer_snapshot(fwd), _layer_snapshot(bwd))
    f = _block_out_of_place(x, fwd)
    b = _block_out_of_place(x[::-1], bwd)[::-1]
    np.testing.assert_array_equal(bidirectional_mamba(x, fwd, bwd), x + (f + b))
    np.testing.assert_array_equal(outer, keep)
    for layer, snapshot in zip((fwd, bwd), snapshots):
        _assert_layer_unchanged(layer, snapshot)


def test_a_matrix_strictly_negative():
    layer = SelectiveSSMLayer.init(rng_for(15), 8)
    assert np.all(-np.exp(layer.a_log) < 0.0)
