"""State-space sequence kernels.

Covers the discrete-time pipeline end to end: zero-order-hold
discretization of a diagonal continuous system, the sequential recurrence
h_t = a_bar * h_{t-1} + b_bar * x_t with y_t = c . h_t, the equivalent
global-convolution form for time-invariant parameters, a hand-derived
reverse-time adjoint for gradient verification, and the selective
(input-conditioned) layer with its gated block and bidirectional wrapper.
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

    Inputs broadcast elementwise; dt must be positive.
    """
    dt = np.asarray(dt, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(dt <= 0):
        raise ValueError("dt must be positive")
    z = dt * a
    with np.errstate(over="raise"):
        try:
            a_bar = np.exp(z)
        except FloatingPointError as exc:
            raise NumericRangeError(f"exp overflow in discretization: {exc}") from exc
    if not np.isfinite(a_bar).all():
        raise NumericRangeError("exp overflow in discretization")
    small = np.abs(z) < _ZOH_SERIES_CUTOFF
    z_safe = np.where(small, 1.0, z)
    factor = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(z_safe) / z_safe)
    return a_bar, factor * dt * b


def _recur(a_bar, bx, h, out, c=None):
    """h_t = a_bar_t * h_{t-1} + bx_t along the leading axis of (M, ...)
    arrays; out[t] receives h_t, or the readout c_t @ h_t when c is given.
    h holds the state before step 0 and is updated in place."""
    for t in range(len(out)):
        np.multiply(a_bar[t], h, out=h)
        h += bx[t]
        out[t] = h if c is None else c[t] @ h


def _per_step(arr, m, s, name):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != s:
            raise ValueError(f"{name} has state size {arr.shape[0]}, expected {s}")
        return np.broadcast_to(arr, (m, s))
    if arr.shape != (m, s):
        raise ValueError(f"{name} must be ({m}, {s}), got {arr.shape}")
    return arr


def scan(x, a_bar, b_bar, c):
    """Run the recurrence h_t = a_bar_t * h_{t-1} + b_bar_t * x_t, y_t = c_t . h_t.

    ``x`` is a length-M scalar sequence; the parameters are per-step (M, S)
    arrays or constant (S,) vectors. The initial state is zero.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    s = np.asarray(a_bar).shape[-1]
    a_bar = _per_step(a_bar, m, s, "a_bar")
    b_bar = _per_step(b_bar, m, s, "b_bar")
    c = _per_step(c, m, s, "c")
    # one dot product per row: batched forms (einsum, a sum over S) add the
    # S products in another order and can differ in the last bit
    y = np.empty(m)
    _recur(a_bar, b_bar * x[:, None], np.zeros(s), y, c)
    return y


def conv_form(x, system: "LTISystem"):
    """Evaluate a time-invariant system as a causal global convolution.

    The kernel is K_m = c . (a_bar^m * b_bar) for m = 0..M-1; the output is
    the causal convolution of x with K. Only valid for constant parameters.
    """
    if not isinstance(system, LTISystem):
        raise ContractViolationError("conv_form requires a time-invariant LTISystem")
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    a_bar, b_bar = system.discretize()
    powers = np.ones((m, a_bar.shape[0]))
    if m > 1:
        powers[1:] = np.cumprod(np.broadcast_to(a_bar, (m - 1, a_bar.shape[0])), axis=0)
    kernel = powers @ (system.c * b_bar)
    return np.convolve(x, kernel)[:m]


def scan_backward(x, a_bar, b_bar, c, upstream_grad):
    """Adjoint of ``scan``: gradients of L = sum_t g_t * y_t.

    Runs the forward recurrence to recover the states, then the reverse-time
    adjoint lambda_t = g_t * c_t + a_bar_{t+1} * lambda_{t+1} (diagonal
    transition, so the transpose is itself) as the same recurrence over the
    reversed sequence. Returns a dict with gradients for x, a_bar, b_bar,
    and c; per-step (M, S) parameter shapes required.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(upstream_grad, dtype=np.float64)
    m = x.shape[0]
    if g.shape != (m,):
        raise ValueError(f"upstream_grad must have shape ({m},), got {g.shape}")
    a_bar = np.asarray(a_bar, dtype=np.float64)
    s = a_bar.shape[-1]
    for name, arr in (("a_bar", a_bar), ("b_bar", b_bar), ("c", c)):
        if np.asarray(arr).shape != (m, s):
            raise ValueError(f"{name} must be per-step with shape ({m}, {s})")
    b_bar = np.asarray(b_bar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)

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
class LTISystem:
    """Diagonal continuous-time system (a, b, c) with a fixed timescale dt."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    dt: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        if not (a.ndim == b.ndim == c.ndim == 1 and a.shape == b.shape == c.shape):
            raise ContractViolationError(
                "LTISystem parameters must be equal-length 1-D vectors "
                "(time-varying parameters are not representable here)"
            )
        if not np.isscalar(self.dt) and np.asarray(self.dt).ndim != 0:
            raise ContractViolationError("dt must be a scalar")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("system parameters must be finite")
        self.a, self.b, self.c = a, b, c

    def discretize(self):
        return discretize(self.dt, self.a, self.b)


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
    """
    m, d_inner = u.shape
    s = layer.state_size
    dt = u @ layer.dt_down_w.T @ layer.dt_up_w.T
    dt += layer.dt_bias
    softplus(dt, out=dt)  # (M, Di)
    if not np.isfinite(dt).all():
        raise NumericRangeError("non-finite timescale dt in selective scan")
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
        # a huge finite dt (e.g. from a crafted dt_bias) overflows dt*A or
        # dt*u*B; report it instead of running inf/NaN on into the output
        with np.errstate(over="raise", invalid="raise"):
            try:
                z = np.multiply(dts[:, None, :], a, out=a_bar[:n])
                np.multiply((dts * u[start:end])[:, None, :], b_tok[start:end, :, None], out=bx[:n])
            except FloatingPointError as exc:
                msg = f"overflow in selective-scan discretization: {exc}"
                raise NumericRangeError(msg) from exc
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
