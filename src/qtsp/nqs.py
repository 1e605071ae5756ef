"""Complex-parameter variational amplitudes and their exact derivatives.

Two ansatze, both returning log psi(config) as a complex scalar:

* a fully-connected spin network over the N^2 one-hot spins,
    log psi = sum_j a_j sigma_j + sum_l log(2 cosh(b_l + sum_j W_lj sigma_j))
* a periodic 1-D convolutional network over the N raw city levels, with a
  split-complex rectifier, position-sum reduction and one dense output
  neuron.

Derivatives are taken with respect to the real and imaginary parts of every
parameter as independent real degrees of freedom; the "flat" layout used by
the optimizer stacks [Re(block), Im(block)] per parameter block in the
field order of the dataclasses below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RbmParams:
    """Visible bias a, hidden bias b and connection matrix w (complex)."""

    a: np.ndarray  # (n_visible,)
    b: np.ndarray  # (n_hidden,)
    w: np.ndarray  # (n_hidden, n_visible)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.complex128)
        b = np.asarray(self.b, dtype=np.complex128)
        w = np.asarray(self.w, dtype=np.complex128)
        if w.shape != (b.shape[0], a.shape[0]):
            raise ValueError(f"w shape {w.shape} inconsistent with a/b sizes")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)

    @property
    def n_visible(self) -> int:
        return self.a.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.b.shape[0]

    @property
    def n_real_params(self) -> int:
        return 2 * (self.a.size + self.b.size + self.w.size)

    def to_flat(self) -> np.ndarray:
        return np.concatenate(
            [self.a.real, self.a.imag, self.b.real, self.b.imag,
             self.w.real.ravel(), self.w.imag.ravel()]
        )

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_visible: int, n_hidden: int) -> "RbmParams":
        m, h = n_visible, n_hidden
        expected = 2 * (m + h + h * m)
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (expected,):
            raise ValueError(f"flat vector must have length {expected}, got {flat.shape}")
        a_re, a_im, b_re, b_im, w_re, w_im = np.split(flat, np.cumsum([m, m, h, h, h * m]))
        return cls(a=a_re + 1j * a_im, b=b_re + 1j * b_im, w=(w_re + 1j * w_im).reshape(h, m))


@dataclass(frozen=True, eq=False)
class CnnParams:
    """Periodic-convolution filters w (kernel x channels), channel biases b,
    and the dense output layer (dense_w, dense_b). All complex."""

    w: np.ndarray        # (kernel_size, n_channels)
    b: np.ndarray        # (n_channels,)
    dense_w: np.ndarray  # (n_channels,)
    dense_b: complex

    def __post_init__(self):
        # read-only copies: the evaluation caches derived forms per object
        w = np.array(self.w, dtype=np.complex128)
        b = np.array(self.b, dtype=np.complex128)
        dw = np.array(self.dense_w, dtype=np.complex128)
        if w.ndim != 2 or b.shape != (w.shape[1],) or dw.shape != (w.shape[1],):
            raise ValueError("inconsistent convolution/dense shapes")
        for array in (w, b, dw):
            array.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dense_w", dw)
        object.__setattr__(self, "dense_b", complex(self.dense_b))

    @property
    def kernel_size(self) -> int:
        return self.w.shape[0]

    @property
    def n_channels(self) -> int:
        return self.w.shape[1]

    @property
    def n_real_params(self) -> int:
        return 2 * (self.w.size + self.b.size + self.dense_w.size + 1)

    def to_flat(self) -> np.ndarray:
        return np.concatenate(
            [self.w.real.ravel(), self.w.imag.ravel(),
             self.b.real, self.b.imag,
             self.dense_w.real, self.dense_w.imag,
             [self.dense_b.real], [self.dense_b.imag]]
        )

    @classmethod
    def from_flat(cls, flat: np.ndarray, kernel_size: int, n_channels: int) -> "CnnParams":
        k, f = kernel_size, n_channels
        expected = 2 * (k * f + f + f + 1)
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (expected,):
            raise ValueError(f"flat vector must have length {expected}, got {flat.shape}")
        w_re, w_im, b_re, b_im, dw_re, dw_im, db = np.split(
            flat, np.cumsum([k * f, k * f, f, f, f, f]))
        return cls(w=(w_re + 1j * w_im).reshape(k, f), b=b_re + 1j * b_im,
                   dense_w=dw_re + 1j * dw_im, dense_b=complex(db[0], db[1]))


NetworkParams = RbmParams | CnnParams


# ---------------------------------------------------------------------------
# spin network
# ---------------------------------------------------------------------------

def log_2cosh(z: np.ndarray) -> np.ndarray:
    """Overflow-safe log(2 cosh z) for complex z.

    Uses cosh(-z) = cosh(z) to flip onto Re z >= 0, then
    z + log1p(exp(-2z)), which never overflows.
    """
    z = np.asarray(z, dtype=np.complex128)
    flip = np.where(z.real < 0, -1.0, 1.0)
    s = z * flip
    return s + np.log1p(np.exp(-2.0 * s))


def rbm_log_psi(params: RbmParams, sigma: np.ndarray) -> complex | np.ndarray:
    """log psi for spin vectors sigma in {-1,+1}^(n_visible).

    Accepts a single vector or a (B, n_visible) batch.
    """
    sigma = np.asarray(sigma, dtype=float)
    single = sigma.ndim == 1
    sig = sigma.reshape(-1, sigma.shape[-1])
    if sig.shape[1] != params.n_visible:
        raise ValueError(f"expected {params.n_visible} spins, got {sig.shape[1]}")
    theta = sig @ params.w.T + params.b
    value = sig @ params.a + log_2cosh(theta).sum(axis=1)
    return complex(value[0]) if single else value


@dataclass(frozen=True, eq=False)
class RbmGrad:
    """Complex derivative of log psi per parameter; the derivatives with
    respect to (Re, Im) components are (g, i*g) since the amplitude is
    holomorphic in the parameters."""

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray

    def to_flat(self) -> np.ndarray:
        return np.concatenate(
            [self.a, 1j * self.a, self.b, 1j * self.b,
             self.w.ravel(), 1j * self.w.ravel()]
        )


def rbm_grad_log_psi(params: RbmParams, sigma: np.ndarray) -> RbmGrad:
    """d log psi / d theta: sigma_j for a_j, tanh(theta_l) for b_l and
    sigma_j tanh(theta_l) for W_lj."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (params.n_visible,):
        raise ValueError(f"expected {params.n_visible} spins, got {sigma.shape}")
    theta = params.w @ sigma + params.b
    t = np.tanh(theta)
    return RbmGrad(a=sigma.astype(np.complex128), b=t, w=np.outer(t, sigma))


def rbm_log_derivatives(params: RbmParams, sigmas: np.ndarray) -> np.ndarray:
    """(B, 2P) matrix of d log psi / d theta_k over the flat real layout."""
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] != params.n_visible:
        raise ValueError(f"expected (B, {params.n_visible}) spin batch, got {sigmas.shape}")
    batch = sigmas.shape[0]
    theta = sigmas @ params.w.T + params.b
    t = np.tanh(theta)                                   # (B, H)
    g_w = (t[:, :, None] * sigmas[:, None, :]).reshape(batch, -1)
    g_a = sigmas.astype(np.complex128)
    return np.concatenate([g_a, 1j * g_a, t, 1j * t, g_w, 1j * g_w], axis=1)


def _centred_weights(energies: np.ndarray, batch: int) -> np.ndarray:
    """c = (E - mean E) / S, the per-sample weights of the covariance gradient."""
    e = np.asarray(energies, dtype=float)
    if e.shape != (batch,):
        raise ValueError(f"energies {e.shape} do not match {batch} configurations")
    if batch < 2:
        raise ValueError("gradient estimation needs at least two configurations")
    shifted = e - e[0]  # exact zeros for a constant batch
    return (shifted - shifted.mean()) / batch


def rbm_energy_gradient(params: RbmParams, sigmas: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Flat real covariance gradient 2 Re sum_b c_b conj(O_b), c = (E - mean E) / S,
    without the (B, 2P) log-derivative matrix.

    With conj t = conj(tanh theta) the complex sums are c^T sigma for a,
    c^T conj t for b and (c * conj t)^T sigma for W; since the amplitude is
    holomorphic, the (Re, Im) entries of each block are 2 Re G and 2 Im G.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] != params.n_visible:
        raise ValueError(f"expected (B, {params.n_visible}) spin batch, got {sigmas.shape}")
    c = _centred_weights(energies, sigmas.shape[0])
    t = np.conj(np.tanh(sigmas @ params.w.T + params.b))     # (B, H)
    return 2.0 * RbmParams(a=c @ sigmas, b=c @ t, w=(c[:, None] * t).T @ sigmas).to_flat()


# ---------------------------------------------------------------------------
# periodic convolutional network
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _window_index(n: int, k: int) -> np.ndarray:
    idx = (np.arange(n)[:, None] + np.arange(k)[None, :]) % n
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=8)
def _cnn_unrolled(params: CnnParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The network unrolled over a ring of n levels in real arithmetic:
    levels @ conv + bias are the (B, n*2F) pre-activations [Re | Im] of
    every position (conv is the circulant of [Re w | Im w]), and
    rectified @ dense is the position sum and the dense output neuron.
    Cached per parameter object, whose arrays are read-only."""
    k, f = params.kernel_size, params.n_channels
    if k > n:
        raise ValueError(f"kernel size {k} exceeds configuration length {n}")
    filters = np.zeros((n, 2 * f))
    filters[:k] = np.concatenate([params.w.real, params.w.imag], axis=1)
    shift = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n   # (level, position)
    conv = filters[shift].reshape(n, n * 2 * f)
    bias = np.tile(np.concatenate([params.b.real, params.b.imag]), n)
    dense = np.tile(np.concatenate([params.dense_w, 1j * params.dense_w]), n)
    for array in (conv, bias, dense):
        array.setflags(write=False)
    return conv, bias, dense


def _cnn_preactivations(params: CnnParams, levels: np.ndarray) -> np.ndarray:
    """(B, N, F) complex pre-activations of the circular convolution."""
    n = levels.shape[-1]
    if params.kernel_size > n:
        raise ValueError(
            f"kernel size {params.kernel_size} exceeds configuration length {n}"
        )
    windows = levels[:, _window_index(n, params.kernel_size)]   # (B, N, K)
    return windows @ params.w + params.b


def _split_relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z.real, 0.0) + 1j * np.maximum(z.imag, 0.0)


def cnn_log_psi(params: CnnParams, config: np.ndarray) -> complex | np.ndarray:
    """log psi for level sequences (single (N,) config or (B, N) batch).

    Circular convolution over the raw integer levels, split-complex
    rectifier, sum over positions, dense output neuron. The real and
    imaginary channels stay 2F real columns until the dense layer.
    """
    config = np.asarray(config, dtype=float)
    single = config.ndim == 1
    levels = config.reshape(-1, config.shape[-1])
    conv, bias, dense = _cnn_unrolled(params, levels.shape[1])
    pre = levels @ conv
    pre += bias
    value = np.maximum(pre, 0.0, out=pre) @ dense + params.dense_b
    return complex(value[0]) if single else value


@dataclass(frozen=True, eq=False)
class CnnGrad:
    """d log psi with respect to the real (``*_re``) and imaginary
    (``*_im``) part of each parameter; every entry is complex because
    log psi itself is."""

    w_re: np.ndarray
    w_im: np.ndarray
    b_re: np.ndarray
    b_im: np.ndarray
    dense_w_re: np.ndarray
    dense_w_im: np.ndarray
    dense_b_re: complex
    dense_b_im: complex

    def to_flat(self) -> np.ndarray:
        return np.concatenate(
            [self.w_re.ravel(), self.w_im.ravel(), self.b_re, self.b_im,
             self.dense_w_re, self.dense_w_im,
             [self.dense_b_re], [self.dense_b_im]]
        )


def cnn_log_derivatives(params: CnnParams, configs: np.ndarray) -> np.ndarray:
    """(B, 2P) matrix of d log psi / d theta_k over the flat real layout.

    The rectifier is piecewise linear; the subgradient at the kink is 0
    (strict positivity masks).
    """
    configs = np.asarray(configs, dtype=float)
    if configs.ndim != 2:
        raise ValueError(f"expected a (B, N) batch, got shape {configs.shape}")
    batch, n = configs.shape
    pre = _cnn_preactivations(params, configs)                  # (B, N, F)
    act = _split_relu(pre)
    pooled = act.sum(axis=1)                                    # (B, F)

    # d log psi / d pre.real and / d pre.imag, both complex
    g_re = np.where(pre.real > 0, 1.0, 0.0) * params.dense_w    # (B, N, F)
    g_im = np.where(pre.imag > 0, 1.0, 0.0) * (1j * params.dense_w)

    windows = configs[:, _window_index(n, params.kernel_size)]  # (B, N, K)
    dw_re = np.einsum("bnk,bnf->bkf", windows, g_re).reshape(batch, -1)
    dw_im = np.einsum("bnk,bnf->bkf", windows, g_im).reshape(batch, -1)
    db_re = g_re.sum(axis=1)
    db_im = g_im.sum(axis=1)
    ones = np.ones((batch, 1), dtype=np.complex128)
    return np.concatenate(
        [dw_re, dw_im, db_re, db_im, pooled, 1j * pooled, ones, 1j * ones], axis=1
    )


def cnn_energy_gradient(params: CnnParams, configs: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Flat real covariance gradient 2 Re sum_b c_b conj(O_b), c = (E - mean E) / S,
    without the (B, 2P) log-derivative matrix.

    The weights c fold into the (B*N, K+1) matrix of windows with a
    constant bias column; one GEMM against the (B*N, 2F) rectifier masks
    sums every filter and bias term, and the dense weight enters as
    2 Re conj(dense_w) = 2 Re dense_w for the real channels and
    2 Re(-i conj(dense_w)) = -2 Im dense_w for the imaginary ones.
    """
    configs = np.asarray(configs, dtype=float)
    if configs.ndim != 2:
        raise ValueError(f"expected a (B, N) batch, got shape {configs.shape}")
    batch, n = configs.shape
    k, f = params.kernel_size, params.n_channels
    c = _centred_weights(energies, batch)
    conv, bias, _ = _cnn_unrolled(params, n)
    pre = (configs @ conv + bias).reshape(batch * n, 2 * f)
    mask = pre > 0
    pooled = np.maximum(pre, 0.0, out=pre).reshape(batch, n, 2 * f).sum(axis=1)   # (B, 2F)

    windows = configs[:, _window_index(n, k)].reshape(batch * n, k)
    weighted = np.repeat(c, n)[:, None] * np.column_stack([windows, np.ones(batch * n)])
    sign = np.repeat([2.0, -2.0], f)
    g = (weighted.T @ mask) * (sign * np.concatenate([params.dense_w.real, params.dense_w.imag]))
    g_dense = sign * (c @ pooled)
    return np.concatenate(
        [g[:k, :f].ravel(), g[:k, f:].ravel(), g[k, :f], g[k, f:], g_dense, [2.0 * c.sum(), 0.0]]
    )


def cnn_grad_log_psi(params: CnnParams, config: np.ndarray) -> CnnGrad:
    """Exact single-configuration gradient of log psi."""
    config = np.asarray(config, dtype=float)
    if config.ndim != 1:
        raise ValueError("cnn_grad_log_psi takes a single configuration")
    k, f = params.kernel_size, params.n_channels
    row = cnn_log_derivatives(params, config[None, :])[0]
    w_re, w_im, b_re, b_im, dw_re, dw_im, db = np.split(row, np.cumsum([k * f, k * f, f, f, f, f]))
    return CnnGrad(w_re=w_re.reshape(k, f), w_im=w_im.reshape(k, f), b_re=b_re, b_im=b_im,
                   dense_w_re=dw_re, dense_w_im=dw_im,
                   dense_b_re=complex(db[0]), dense_b_im=complex(db[1]))


# ---------------------------------------------------------------------------
# initialization and checkpoints
# ---------------------------------------------------------------------------

def init_params(kind: str, shape: tuple[int, int], scale: float, seed: int) -> NetworkParams:
    """Draw every real and imaginary component from N(0, scale^2).

    shape is (n_visible, n_hidden) for "rbm" and (kernel_size, n_channels)
    for "cnn". Deterministic for a given seed.
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    rng = np.random.default_rng(seed)

    def draw(*dims):
        return scale * (rng.standard_normal(dims) + 1j * rng.standard_normal(dims))

    if kind == "rbm":
        m, h = shape
        return RbmParams(a=draw(m), b=draw(h), w=draw(h, m))
    if kind == "cnn":
        k, f = shape
        return CnnParams(w=draw(k, f), b=draw(f), dense_w=draw(f), dense_b=complex(draw()))
    raise ValueError(f"unknown network kind {kind!r}")


def save_params(params: NetworkParams, path: str | Path) -> None:
    """Checkpoint as JSON (real, imag) pairs; round-trips bit-exactly."""
    if isinstance(params, RbmParams):
        header = {"kind": "rbm", "n_visible": params.n_visible, "n_hidden": params.n_hidden}
        values = np.concatenate([params.a, params.b, params.w.ravel()])
    else:
        header = {"kind": "cnn", "kernel_size": params.kernel_size,
                  "n_channels": params.n_channels}
        values = np.concatenate(
            [params.w.ravel(), params.b, params.dense_w, [params.dense_b]]
        )
    payload = dict(header, data=[[v.real, v.imag] for v in values])
    Path(path).write_text(json.dumps(payload) + "\n")


def load_params(path: str | Path) -> NetworkParams:
    payload = json.loads(Path(path).read_text())
    data = np.array([complex(re, im) for re, im in payload["data"]])
    if payload["kind"] == "rbm":
        m, h = payload["n_visible"], payload["n_hidden"]
        return RbmParams(a=data[:m], b=data[m: m + h], w=data[m + h:].reshape(h, m))
    if payload["kind"] == "cnn":
        k, f = payload["kernel_size"], payload["n_channels"]
        return CnnParams(w=data[: k * f].reshape(k, f), b=data[k * f: k * f + f],
                         dense_w=data[k * f + f: k * f + 2 * f], dense_b=complex(data[-1]))
    raise ValueError(f"unknown checkpoint kind {payload['kind']!r}")
