"""State-space sequence kernels.

Covers the discrete-time pipeline end to end: zero-order-hold
discretization of a diagonal continuous system, the sequential recurrence
h_t = a_bar * h_{t-1} + b_bar * x_t with y_t = c . h_t (``scan``), its
global-convolution form for constant parameters (``conv_form``, same
arguments), a hand-derived reverse-time adjoint (``scan_backward``), and
the selective (input-conditioned) layer with its gated block and
bidirectional wrapper. The reference kernels take plain arrays.
The selective layer discretizes its input term with the Euler rule
b_bar = dt * B, as Mamba's reference scan does. Its shape is fixed by the
module constants ``STATE_SIZE`` and ``CONV_WIDTH``, with an inner width
equal to the model width; only the model width varies between layers.

Kernel math runs in the dtype of its inputs; tests drive everything in
float64. The recurrence is sequential along the sequence axis and
vectorized across channels, with a fixed per-channel summation order, so
channel-parallel evaluation cannot change results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericRangeError
from .nn import Params, rms_norm, silu, softplus, softplus_inverse

# below this |dt * a| the ZOH input factor switches to its Taylor series
_ZOH_SERIES_CUTOFF = 1e-6

# softplus(dt_bias) of a new selective layer spans [DT_MIN, DT_MAX]
# log-uniformly across channels
DT_MIN = 1e-3
DT_MAX = 1e-1

# states per channel and causal-conv taps of every selective layer
STATE_SIZE = 16
CONV_WIDTH = 4


def discretize(dt, a, b):
    """Zero-order-hold discretization of diagonal continuous parameters (a, b).

    a_bar = exp(dt * a) and b_bar = ((exp(dt * a) - 1) / a) * b, evaluated
    as expm1(z)/z * dt * b with z = dt * a, falling back to the series
    1 + z/2 + z^2/6 when |z| < 1e-6 (the two branches agree to ~1e-15).

    Inputs broadcast elementwise; dt must be positive. One range guard: a
    non-finite z, a_bar or b_bar raises ``NumericRangeError``, with no warning.
    """
    dt, a, b = (np.asarray(v, dtype=np.float64) for v in (dt, a, b))
    if np.any(dt <= 0):
        raise ValueError("dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        z = dt * a
        a_bar = np.exp(z)
        small = np.abs(z) < _ZOH_SERIES_CUTOFF
        z_safe = np.where(small, 1.0, z)
        factor = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(z_safe) / z_safe)
        b_bar = factor * dt * b
    if not all(np.isfinite(v).all() for v in (z, a_bar, b_bar)):
        raise NumericRangeError("dt * a, a_bar or b_bar out of range in discretization")
    return a_bar, b_bar


def _recur(a_bar, bx, h, out, c=None):
    """h_t = a_bar_t * h_{t-1} + bx_t along the leading axis of (M, ...)
    arrays; out[t] receives h_t, or the readout c_t @ h_t when c is given.
    h holds the state before step 0 and is updated in place."""
    for t in range(len(out)):
        np.multiply(a_bar[t], h, out=h)
        h += bx[t]
        out[t] = h if c is None else c[t] @ h


def _scan_params(m, a_bar, b_bar, c):
    """The contract of ``scan`` and ``scan_backward``: a_bar, b_bar and c are
    finite (S,) or (M, S) arrays with one S, else ``ValueError``. Returns
    them as (M, S), constant vectors broadcast along the sequence."""
    params = [np.asarray(p, dtype=np.float64) for p in (a_bar, b_bar, c)]
    s = params[0].shape[-1] if params[0].ndim else None
    for name, p in zip(("a_bar", "b_bar", "c"), params):
        if p.shape not in ((s,), (m, s)):
            raise ValueError(f"{name} must have shape ({s},) or ({m}, {s}), got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError(f"{name} must be finite")
    return [np.broadcast_to(p, (m, s)) for p in params]


def scan(x, a_bar, b_bar, c):
    """Run the recurrence h_t = a_bar_t * h_{t-1} + b_bar_t * x_t, y_t = c_t . h_t.

    ``x`` is a length-M scalar sequence; the parameters are per-step (M, S)
    arrays or constant (S,) vectors, all finite. The initial state is zero.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    a_bar, b_bar, c = _scan_params(m, a_bar, b_bar, c)
    # one dot product per row: batched forms (einsum, a sum over S) add the
    # S products in another order and can differ in the last bit
    y = np.empty(m)
    _recur(a_bar, b_bar * x[:, None], np.zeros(a_bar.shape[1]), y, c)
    return y


def conv_form(x, a_bar, b_bar, c):
    """``scan`` with constant parameters, evaluated as a causal global convolution.

    The kernel is K_m = c . (a_bar^m * b_bar) for m = 0..M-1; the output is
    the causal convolution of x with K. Per-step (M, S) parameters and
    vectors of unequal length raise ``ContractViolationError``; otherwise
    the contract of ``scan`` holds.
    """
    shapes = {np.shape(p) for p in (a_bar, b_bar, c)}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise ContractViolationError("conv_form takes constant (S,) parameters of one length")
    a_bar, b_bar, c = (p[0] for p in _scan_params(1, a_bar, b_bar, c))
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    if m == 0:
        return np.zeros(0)
    powers = np.ones((m, a_bar.shape[0]))
    powers[1:] = np.cumprod(np.broadcast_to(a_bar, (m - 1, a_bar.shape[0])), axis=0)
    kernel = powers @ (c * b_bar)
    return np.convolve(x, kernel)[:m]


def scan_backward(x, a_bar, b_bar, c, upstream_grad):
    """Adjoint of ``scan``: gradients of L = sum_t g_t * y_t.

    Runs the forward recurrence to recover the states, then the reverse-time
    adjoint lambda_t = g_t * c_t + a_bar_{t+1} * lambda_{t+1} (diagonal
    transition, so the transpose is itself) as the same recurrence over the
    reversed sequence. The parameters are as in ``scan``. Returns a dict of
    gradients for x and the per-step (M, S) a_bar, b_bar and c.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(upstream_grad, dtype=np.float64)
    m = x.shape[0]
    if g.shape != (m,):
        raise ValueError(f"upstream_grad must have shape ({m},), got {g.shape}")
    a_bar, b_bar, c = _scan_params(m, a_bar, b_bar, c)
    s = a_bar.shape[1]

    # prev[t] = h_{t-1}, with h_{-1} = 0; a_next[t] = a_bar_{t+1}, with 0
    # past the last step
    prev = np.zeros((m + 1, s))
    _recur(a_bar, b_bar * x[:, None], np.zeros(s), prev[1:])
    a_next = np.zeros((m, s))
    a_next[:-1] = a_bar[1:]
    lam = np.empty((m, s))
    _recur(a_next[::-1], (g[:, None] * c)[::-1], np.zeros(s), lam[::-1])
    return {
        # one dot product per row, as in ``scan``
        "x": np.array([row @ b for row, b in zip(lam, b_bar)]),
        "a_bar": lam * prev[:-1],
        "b_bar": lam * x[:, None],
        "c": g[:, None] * prev[1:],
    }


@dataclass
class SelectiveSSMLayer(Params):
    """Parameters of one direction of a selective (Mamba-style) layer.

    The state matrix is diagonal, A = -exp(a_log), so it stays strictly
    negative; the per-token timescale is softplus(dt(u)) > 0. The timescale
    projection is factored through a small rank to keep the parameter
    budget near the published model sizes.
    """

    norm_scale: np.ndarray  # (D,) pre-block RMS norm
    in_proj_w: np.ndarray  # (2*Di, D): SSM branch and gate branch
    conv_w: np.ndarray  # (Di, W) depthwise causal conv
    conv_b: np.ndarray  # (Di,)
    a_log: np.ndarray  # (Di, S)
    dt_down_w: np.ndarray  # (R, Di)
    dt_up_w: np.ndarray  # (Di, R)
    dt_bias: np.ndarray  # (Di,)
    b_proj_w: np.ndarray  # (S, Di)
    c_proj_w: np.ndarray  # (S, Di)
    d_skip: np.ndarray  # (Di,)
    out_proj_w: np.ndarray  # (D, Di)

    def __post_init__(self):
        if not np.isfinite(self.a_log).all():
            raise ValueError("a_log must be finite so A = -exp(a_log) is negative")

    @property
    def d_inner(self) -> int:
        return self.out_proj_w.shape[1]

    @property
    def state_size(self) -> int:
        return self.a_log.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, d_model: int):
        d_inner = d_model
        rank = max(1, d_model // 16)

        def uniform(shape, fan_in):
            limit = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-limit, limit, size=shape)

        targets = np.exp(np.linspace(np.log(DT_MIN), np.log(DT_MAX), d_inner))
        return cls(
            norm_scale=np.ones(d_model),
            in_proj_w=uniform((2 * d_inner, d_model), d_model),
            conv_w=uniform((d_inner, CONV_WIDTH), CONV_WIDTH),
            conv_b=np.zeros(d_inner),
            a_log=np.tile(np.log(np.arange(1, STATE_SIZE + 1.0)), (d_inner, 1)),
            dt_down_w=uniform((rank, d_inner), d_inner),
            dt_up_w=uniform((d_inner, rank), rank),
            dt_bias=softplus_inverse(targets),
            b_proj_w=uniform((STATE_SIZE, d_inner), d_inner),
            c_proj_w=uniform((STATE_SIZE, d_inner), d_inner),
            d_skip=np.ones(d_inner),
            out_proj_w=uniform((d_model, d_inner), d_inner),
        )


def selective_ssm(u: np.ndarray, layer: SelectiveSSMLayer):
    """Input-conditioned scan over an (M, Di) token sequence.

    Per token: dt = softplus(dt_proj(u_t)) per channel, B_t = b_proj(u_t),
    C_t = c_proj(u_t); the recurrence runs per channel with S states and a
    zero initial state, and d_skip * u is added at the end. B_t and C_t are
    shared across channels. A is discretized as exp(dt * A) and the input
    term with the Euler rule b_bar = dt * B.

    No range checking of its own: ``model.encode`` runs every Mamba layer
    under ``model._numeric_step``, which raises on overflow and names the layer.
    """
    m, d_inner = u.shape
    s = layer.state_size
    dt = u @ layer.dt_down_w.T @ layer.dt_up_w.T
    dt += layer.dt_bias
    softplus(dt, out=dt)  # (M, Di)
    b_tok = u @ layer.b_proj_w.T  # (M, S)
    c_tok = u @ layer.c_proj_w.T  # (M, S)
    # the state is laid out (S, Di), so the per-step products below
    # broadcast over contiguous rows of Di channels
    a = np.ascontiguousarray(-np.exp(layer.a_log).T)  # (S, Di)
    h = np.zeros((s, d_inner))
    # Per-step (S, Di) parameters are materialized in bounded segments into
    # scratch buffers reused across segments: results are identical for any
    # segment length (all ops elementwise), while the buffers stay in cache
    # and per-call allocation stays constant, so wall time is linear in M.
    # y overwrites each segment of dt once that segment is consumed.
    seg = min(m, max(1, 65_536 // (d_inner * s)))
    a_bar = np.empty((seg, s, d_inner))
    bx = np.empty((seg, s, d_inner))
    for start in range(0, m, seg):
        end = min(start + seg, m)
        n = end - start
        dts = dt[start:end]
        z = np.multiply(dts[:, None, :], a, out=a_bar[:n])
        np.multiply((dts * u[start:end])[:, None, :], b_tok[start:end, :, None], out=bx[:n])
        np.exp(z, out=z)
        # sequential recurrence (state order is load-bearing) with the
        # readout y_t = C_t @ h_t taken at each step, then the skip term
        _recur(a_bar[:n], bx[:n], h, dts, c_tok[start:end])
        dts += layer.d_skip * u[start:end]
    return dt


def causal_depthwise_conv(u: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Depthwise causal convolution along the sequence axis, left zero-padded.

    out_t = b + sum over taps i of w[:, i] * u_{t + i - (W - 1)}, the taps
    added in order of i; a tap that falls before the sequence start reads
    the zero padding and adds nothing, so it is skipped (no padded copy).
    """
    m = len(u)
    width = w.shape[1]
    out = np.zeros_like(u)
    tap = np.empty_like(u)
    for i in range(width):
        shift = width - 1 - i
        if shift < m:
            np.multiply(w[:, i], u[: m - shift], out=tap[: m - shift])
            out[shift:] += tap[: m - shift]
    out += b
    return out


def mamba_block(x: np.ndarray, layer: SelectiveSSMLayer):
    """Gated selective-SSM block over an (M, D) sequence, without a residual.

    RMS pre-norm, in-projection split into an SSM branch and a gate branch;
    the SSM branch passes through a short causal depthwise conv and SiLU
    before the selective scan, is gated by SiLU(gate), and is projected back
    to D. The input is not added back: ``bidirectional_mamba`` adds it once
    for both directions.
    """
    normed = rms_norm(x, layer.norm_scale)
    u, gate = (normed @ w.T for w in np.split(layer.in_proj_w, 2))
    del normed
    # u's buffer takes SiLU of its conv, and after the scan SiLU of the gate
    u = silu(causal_depthwise_conv(u, layer.conv_w, layer.conv_b), out=u)
    y = selective_ssm(u, layer)
    y *= silu(gate, out=u)
    del u, gate
    return y @ layer.out_proj_w.T


def bidirectional_mamba(
    x: np.ndarray, fwd_layer: SelectiveSSMLayer, bwd_layer: SelectiveSSMLayer
):
    """Forward block plus a reversed block over the reversed sequence.

    The two directions have independent parameters and are fused by
    summation, and the input is added back once.
    """
    out = mamba_block(x, fwd_layer)
    out += mamba_block(x[::-1], bwd_layer)[::-1]
    out += x
    return out
