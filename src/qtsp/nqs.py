"""Complex-parameter variational amplitudes and their exact derivatives.

Two ansatze, both returning log psi(config) as a complex scalar:

* a fully-connected spin network over the N^2 one-hot spins,
    log psi = sum_j a_j sigma_j + sum_l log(2 cosh(b_l + sum_j W_lj sigma_j))
* a periodic 1-D convolutional network over the N raw city levels, with a
  split-complex rectifier, position-sum reduction and one dense output
  neuron.

Derivatives are taken with respect to the real and imaginary parts of every
parameter as independent real degrees of freedom. The fields of the
parameter dataclasses below, in order, define the "flat" layout the
optimizer uses: each block raveled, with the real and imaginary parts of
every entry side by side, which is the blocks' complex memory read as
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import InvalidTourError
from .instance import read_labels


# ---------------------------------------------------------------------------
# the flat layout and the parameter containers
# ---------------------------------------------------------------------------

def _join(cls, blocks: dict, lead: tuple[int, ...] = ()) -> np.ndarray:
    """Interleave the two parts of every block of cls entry by entry, fields
    in order, each block raveled behind the leading axes `lead`, along the
    last axis. With (Re, Im) parts per block this is the flat layout; with
    the derivatives of log psi by those parts it is a row of log-derivatives.
    Each part is copied once, straight into the result."""
    re, im = zip(*([np.reshape(part, (*lead, -1)) for part in blocks[f.name]] for f in fields(cls)))
    out = np.empty((*lead, sum(part.shape[-1] for part in re), 2), np.result_type(*re, *im))
    np.concatenate(re, axis=-1, out=out[..., 0])
    np.concatenate(im, axis=-1, out=out[..., 1])
    return out.reshape(*lead, -1)


class _FlatLayout:
    """The flat real vector of a parameter container, laid out by its
    fields, and its shape: the values of shape_keys, which from_flat and
    block_shapes take in that order. Each field holds a read-only complex
    copy of its block, so evaluations may cache derived forms per object."""

    def __post_init__(self):
        for f in fields(self):
            block = np.array(getattr(self, f.name), dtype=np.complex128)
            block.setflags(write=False)
            object.__setattr__(self, f.name, block)
        got = {f.name: getattr(self, f.name).shape for f in fields(self)}
        try:  # reading the shape raises IndexError when a block has too few axes
            consistent = got == self.block_shapes(*self.shape)
        except IndexError:
            consistent = False
        if not consistent:
            raise ValueError(f"inconsistent {self.kind} block shapes {got}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(getattr(self, key) for key in self.shape_keys)

    @property
    def n_real_params(self) -> int:
        return 2 * sum(np.size(value) for value in vars(self).values())

    def to_flat(self) -> np.ndarray:
        return _join(type(self), {name: (v.real, v.imag) for name, v in vars(self).items()})

    @classmethod
    def from_flat(cls, flat: np.ndarray, *shape: int):
        """The parameters whose flat layout is flat. The blocks are read as
        views of flat's complex memory, which __post_init__ then copies."""
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        shapes = cls.block_shapes(*shape)
        sizes = [math.prod(shapes[f.name]) for f in fields(cls)]
        if flat.shape != (2 * sum(sizes),):
            raise ValueError(f"expected {2 * sum(sizes)} values for {cls.kind} shape {tuple(shape)}, "
                             f"got shape {flat.shape}")
        blocks = np.split(flat.view(np.complex128), np.cumsum(sizes)[:-1])
        return cls(**{f.name: block.reshape(shapes[f.name]) for f, block in zip(fields(cls), blocks)})


@dataclass(frozen=True, eq=False)
class RbmParams(_FlatLayout):
    """Visible bias a, hidden bias b and connection matrix w (complex)."""

    kind = "rbm"
    shape_keys = ("n_visible", "n_hidden")

    a: np.ndarray  # (n_visible,)
    b: np.ndarray  # (n_hidden,)
    w: np.ndarray  # (n_hidden, n_visible)

    @staticmethod
    def block_shapes(n_visible: int, n_hidden: int) -> dict[str, tuple[int, ...]]:
        return {"a": (n_visible,), "b": (n_hidden,), "w": (n_hidden, n_visible)}

    @property
    def n_visible(self) -> int:
        return self.a.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True, eq=False)
class CnnParams(_FlatLayout):
    """Periodic-convolution filters w (kernel x channels), channel biases b,
    and the dense output layer (dense_w, dense_b). All complex."""

    kind = "cnn"
    shape_keys = ("kernel_size", "n_channels")

    w: np.ndarray        # (kernel_size, n_channels)
    b: np.ndarray        # (n_channels,)
    dense_w: np.ndarray  # (n_channels,)
    dense_b: np.ndarray  # ()

    @staticmethod
    def block_shapes(kernel_size: int, n_channels: int) -> dict[str, tuple[int, ...]]:
        return {"w": (kernel_size, n_channels), "b": (n_channels,),
                "dense_w": (n_channels,), "dense_b": ()}

    @property
    def kernel_size(self) -> int:
        return self.w.shape[0]

    @property
    def n_channels(self) -> int:
        return self.w.shape[1]


NetworkParams = RbmParams | CnnParams
_KINDS = {cls.kind: cls for cls in (RbmParams, CnnParams)}


@dataclass(frozen=True, eq=False)
class LogPsiGrad:
    """d log psi / d theta_k of one configuration over the flat real layout
    (complex entries, since log psi is complex)."""

    row: np.ndarray

    def to_flat(self) -> np.ndarray:
        return self.row


def _single_row(log_derivatives, params: NetworkParams, config: np.ndarray) -> LogPsiGrad:
    """The log-derivative row of one configuration."""
    config = np.asarray(config, dtype=float)
    if config.ndim != 1:
        raise ValueError(f"expected a single configuration, got shape {config.shape}")
    return LogPsiGrad(log_derivatives(params, config[None, :])[0])


# ---------------------------------------------------------------------------
# spin network
# ---------------------------------------------------------------------------

def log_2cosh(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe log(2 cosh z) for complex z.

    Uses cosh(-z) = cosh(z) to flip onto Re z >= 0, then
    z + log1p(exp(-2z)), which never overflows. Works in the result and
    one scratch array of z's size; out may be z itself when the caller no
    longer needs z.
    """
    z = np.asarray(z, dtype=np.complex128)
    flip = np.where(z.real < 0, -1 + 0j, 1 + 0j)          # the complex factor onto Re z >= 0
    s = np.multiply(z, flip, out=out)
    tail = np.multiply(-2.0, s, out=flip)
    np.log1p(np.exp(tail, out=tail), out=tail)
    return np.add(s, tail, out=s)


def _rbm_theta(params: RbmParams, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (B, n_visible) spin batch as floats, and its hidden-unit arguments
    theta = W sigma + b, (B, n_hidden). The real batch meets Re W and Im W
    in two real GEMMs, so it is never cast to complex."""
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] != params.n_visible:
        raise ValueError(f"expected (B, {params.n_visible}) spin batch, got {sigmas.shape}")
    theta = np.empty((sigmas.shape[0], params.n_hidden), dtype=np.complex128)
    np.matmul(sigmas, params.w.real.T, out=theta.real)
    np.matmul(sigmas, params.w.imag.T, out=theta.imag)
    theta += params.b
    return sigmas, theta


def rbm_log_psi(params: RbmParams, sigma: np.ndarray) -> complex | np.ndarray:
    """log psi for spin vectors sigma in {-1,+1}^(n_visible).

    Accepts a single vector or a (B, n_visible) batch.
    """
    sigma = np.asarray(sigma, dtype=float)
    sig, theta = _rbm_theta(params, sigma.reshape(-1, sigma.shape[-1]))
    value = log_2cosh(theta, out=theta).sum(axis=1)
    value.real += sig @ params.a.real
    value.imag += sig @ params.a.imag
    return complex(value[0]) if sigma.ndim == 1 else value


def rbm_log_derivatives(params: RbmParams, sigmas: np.ndarray) -> np.ndarray:
    """(B, 2P) matrix of d log psi / d theta_k over the flat real layout:
    sigma_j for a_j, tanh(theta_l) for b_l and sigma_j tanh(theta_l) for W_lj,
    each as (g, i*g) for its (Re, Im) parts, since the amplitude is holomorphic."""
    sigmas, theta = _rbm_theta(params, sigmas)
    t = np.tanh(theta)                                   # (B, H)
    g = {"a": sigmas.astype(np.complex128), "b": t, "w": t[:, :, None] * sigmas[:, None, :]}
    return _join(RbmParams, {name: (v, 1j * v) for name, v in g.items()}, lead=sigmas.shape[:1])


def rbm_grad_log_psi(params: RbmParams, sigma: np.ndarray) -> LogPsiGrad:
    """Exact single-configuration gradient of log psi."""
    return _single_row(rbm_log_derivatives, params, sigma)


def _centred_weights(energies: np.ndarray, batch: int) -> np.ndarray:
    """c = (E - mean E) / S, the per-sample weights of the covariance gradient."""
    e = np.asarray(energies, dtype=float)
    if e.shape != (batch,):
        raise ValueError(f"energies {e.shape} do not match {batch} configurations")
    if batch < 2:
        raise ValueError("gradient estimation needs at least two configurations")
    shifted = e - e[0]  # exact zeros for a constant batch
    return (shifted - shifted.mean()) / batch


@lru_cache(maxsize=1)
def _rbm_columns(params: RbmParams) -> tuple[np.ndarray, np.ndarray, complex]:
    """The spin network on tours. A tour's spins sigma = 2z - 1 have N of
    their N^2 entries up, so W sigma + b = 2 (the sum of the N up columns of
    W) + b - W 1, and a . sigma = 2 (the sum of the N up entries of a) - sum a.
    Holds W's columns as a contiguous (N, N, n_hidden) array indexed by
    (city - 1, slot), the row-major spin layout of instance.spin_columns,
    b - W 1 and sum a. Cached for the latest parameter object only, as
    train makes a new one at every step; its arrays are read-only."""
    n = math.isqrt(params.n_visible)
    columns = np.ascontiguousarray(params.w.T).reshape(n, n, params.n_hidden)
    offset = params.b - params.w.sum(axis=1)
    for array in (columns, offset):
        array.setflags(write=False)
    return columns, offset, complex(params.a.sum())


def _check_width(params: RbmParams, tours: np.ndarray) -> None:
    """Raise InvalidTourError unless tours is a (B, N) batch of the network's N^2 spins."""
    shape = np.shape(tours)
    if len(shape) != 2 or shape[1] ** 2 != params.n_visible:
        raise InvalidTourError(f"expected (B, {params.n_visible}) spin batch as "
                               f"(B, {math.isqrt(params.n_visible)}) tours, got {shape}")


def rbm_tour_log_psi(params: RbmParams, tours: np.ndarray) -> np.ndarray:
    """log psi of a (B, N) batch of tours: rbm_log_psi of their one-hot
    spins (encoding.tours_to_sigma), from the N up columns of each tour.
    The (B, N, n_hidden) gather is small at the sampler's batch size."""
    _check_width(params, tours)
    return rbm_tour_log_psi_unchecked(params, read_labels(tours))


def rbm_tour_log_psi_unchecked(params: RbmParams, tours: np.ndarray) -> np.ndarray:
    """rbm_tour_log_psi with no check, for a batch read before or a gather
    of one, such as the sampler's swap proposals."""
    cities, slots = tours - 1, np.arange(tours.shape[1])
    columns, offset, a_sum = _rbm_columns(params)
    theta = columns[cities, slots].sum(axis=1)
    theta *= 2.0
    theta += offset
    value = log_2cosh(theta, out=theta).sum(axis=1)
    value += 2.0 * params.a.reshape(columns.shape[:2])[cities, slots].sum(axis=1) - a_sum
    return value


def rbm_tour_energy_gradient(params: RbmParams, tours: np.ndarray,
                             energies: np.ndarray) -> np.ndarray:
    """Flat real covariance gradient 2 Re sum_b c_b conj(O_b), c = (E - mean E) / S,
    of a (B, N) tour batch, with no (B, 2P) log-derivative matrix and no
    (B, N^2) spin batch."""
    _check_width(params, tours)
    return rbm_tour_energy_gradient_unchecked(params, read_labels(tours), energies)


def rbm_tour_energy_gradient_unchecked(params: RbmParams, tours: np.ndarray,
                                       energies: np.ndarray) -> np.ndarray:
    """rbm_tour_energy_gradient with no check, for a batch read before.

    With conj t = conj(tanh theta) the complex sums are c^T sigma for a,
    c^T conj t for b and (c * conj t)^T sigma for W; since the amplitude is
    holomorphic, the (Re, Im) entries of each block are 2 Re G and 2 Im G,
    and the 2 is folded into c. A sum over sigma is the sum over sigma + 1,
    which is 2 on the up spins, less the sum over all samples. City by
    city, the (B, N) indicator of the slots that hold it gives that city's
    N contiguous entries of the a and W blocks, written straight into the
    flat result.
    """
    cities = tours - 1
    batch, n = cities.shape
    c = _centred_weights(energies, batch)
    c *= 2.0
    columns, offset, _ = _rbm_columns(params)
    theta = columns[cities[:, 0], 0]                            # one slot at a time: no (B, N, H) gather
    for s in range(1, n):
        theta += columns[cities[:, s], s]
    theta *= 2.0
    theta += offset
    np.conj(np.tanh(theta, out=theta), out=theta)               # conj t, in theta's buffer

    out = np.empty(params.n_real_params)
    m = params.n_visible
    g_a, g_b, g_w = np.split(out.view(np.complex128), [m, m + params.n_hidden])
    g_w = g_w.reshape(params.n_hidden, n, n)                    # (hidden, city, slot)
    g_b.real = c @ theta.real
    g_b.imag = c @ theta.imag
    t = theta.view(np.float64)                                  # (B, 2H), Re and Im side by side
    t *= c[:, None]                                             # c conj t
    for j in range(n):
        up = (cities == j) * 2.0                                # city j's row of sigma + 1
        g_a.real[j * n:(j + 1) * n] = c @ up
        g_w[:, j] = (up.T @ t).view(np.complex128).T
    g_a.real -= c.sum()
    g_a.imag = 0.0
    g_w -= g_b[:, None, None]
    return out


# ---------------------------------------------------------------------------
# periodic convolutional network
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _window_index(n: int, k: int) -> np.ndarray:
    """(n, k) ring indices of the filter windows: row i holds the levels
    i, i+1, ..., i+k-1 (mod n) that the filter sees at position i."""
    if k > n:
        raise ValueError(f"kernel size {k} exceeds configuration length {n}")
    idx = (np.arange(n)[:, None] + np.arange(k)[None, :]) % n
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=1)
def _cnn_unrolled(params: CnnParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The network unrolled over a ring of n levels in real arithmetic:
    levels @ conv + bias are the (B, n*2F) pre-activations [Re | Im] of
    every position (conv scatters [Re w | Im w] onto each position's
    window), and rectified @ dense is the position sum and the dense
    output neuron. Cached for the latest parameter object only, as train
    makes a new one at every step; its arrays are read-only."""
    conv = np.zeros((n, n, 2 * params.n_channels))               # (level, position, 2F)
    conv[_window_index(n, params.kernel_size), np.arange(n)[:, None]] = np.concatenate(
        [params.w.real, params.w.imag], axis=1)
    conv = conv.reshape(n, -1)
    bias = np.tile(np.concatenate([params.b.real, params.b.imag]), n)
    dense = np.tile(np.concatenate([params.dense_w, 1j * params.dense_w]), n)
    for array in (conv, bias, dense):
        array.setflags(write=False)
    return conv, bias, dense


def cnn_log_psi(params: CnnParams, config: np.ndarray) -> complex | np.ndarray:
    """log psi of a single (N,) config or a (B, N) batch of levels 1..N, read first.

    Circular convolution over the raw integer levels, split-complex
    rectifier, sum over positions, dense output neuron. The real and
    imaginary channels stay 2F real columns until the dense layer.
    """
    config = np.asarray(config)
    single = config.ndim == 1
    value = cnn_log_psi_unchecked(params, read_labels(config[None] if single else config))
    return complex(value[0]) if single else value


def cnn_log_psi_unchecked(params: CnnParams, tours: np.ndarray) -> np.ndarray:
    """cnn_log_psi of a (B, N) batch with no check, for a batch read before
    or a gather of one, such as the sampler's swap proposals."""
    levels = np.asarray(tours, dtype=float)
    conv, bias, dense = _cnn_unrolled(params, levels.shape[1])
    pre = levels @ conv
    pre += bias
    return np.maximum(pre, 0.0, out=pre) @ dense + params.dense_b


def cnn_log_derivatives(params: CnnParams, configs: np.ndarray) -> np.ndarray:
    """(B, 2P) matrix of d log psi / d theta_k over the flat real layout.

    The rectifier is piecewise linear; the subgradient at the kink is 0
    (strict positivity masks).
    """
    configs = read_labels(configs).astype(float)
    batch, n = configs.shape
    windows = configs[:, _window_index(n, params.kernel_size)]  # (B, N, K)
    pre = windows @ params.w + params.b                         # (B, N, F)
    pooled = (np.maximum(pre.real, 0.0) + 1j * np.maximum(pre.imag, 0.0)).sum(axis=1)

    # d log psi / d pre.real and / d pre.imag, both complex
    g_re = np.where(pre.real > 0, 1.0, 0.0) * params.dense_w    # (B, N, F)
    g_im = np.where(pre.imag > 0, 1.0, 0.0) * (1j * params.dense_w)

    ones = np.ones(batch, dtype=np.complex128)
    return _join(CnnParams, {
        "w": [np.einsum("bnk,bnf->bkf", windows, g) for g in (g_re, g_im)],
        "b": [g_re.sum(axis=1), g_im.sum(axis=1)],
        "dense_w": [pooled, 1j * pooled],
        "dense_b": [ones, 1j * ones],
    }, lead=(batch,))


def cnn_energy_gradient(params: CnnParams, configs: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Flat real covariance gradient 2 Re sum_b c_b conj(O_b), c = (E - mean E) / S,
    of a (B, N) level batch, without the (B, 2P) log-derivative matrix."""
    return cnn_energy_gradient_unchecked(params, read_labels(configs), energies)


def cnn_energy_gradient_unchecked(params: CnnParams, configs: np.ndarray,
                                  energies: np.ndarray) -> np.ndarray:
    """cnn_energy_gradient with no check, for a batch read before.

    Goes position by position. The (B, K+1) window with a constant bias
    column meets [Re w | Im w] over [Re b | Im b] in one GEMM, into one
    (B, 2F) buffer; its rectified values add into the pooled activations,
    and it then turns in place into the 0/1 rectifier mask times c. The
    window against that buffer adds every filter and bias term. The dense
    weight enters as 2 Re conj(dense_w) = 2 Re dense_w for the real
    channels and 2 Re(-i conj(dense_w)) = -2 Im dense_w for the imaginary
    ones. Besides the (B, N) float batch, the scratch is O(B (K + F)).
    """
    configs = np.asarray(configs, dtype=float)
    batch, n = configs.shape
    k, f = params.kernel_size, params.n_channels
    c = _centred_weights(energies, batch)
    windows = _window_index(n, k)
    filters = np.block([[params.w.real, params.w.imag], [params.b.real, params.b.imag]])  # (K+1, 2F)

    window = np.empty((batch, k + 1))
    window[:, k] = 1.0
    pre = np.empty((batch, 2 * f))
    pooled = np.zeros((batch, 2 * f))
    g = np.zeros((k + 1, 2 * f))
    for cols in windows:
        np.take(configs, cols, axis=1, out=window[:, :k], mode="wrap")   # in range: no buffered copy
        np.matmul(window, filters, out=pre)
        pooled += np.maximum(pre, 0.0, out=pre)
        np.greater(pre, 0.0, out=pre)                                    # 0/1 floats, NaN -> 0
        pre *= c[:, None]
        g += window.T @ pre
    sign = np.repeat([2.0, -2.0], f)
    g *= sign * np.concatenate([params.dense_w.real, params.dense_w.imag])
    g_dense = sign * (c @ pooled)
    return _join(CnnParams, {"w": [g[:k, :f], g[:k, f:]], "b": [g[k, :f], g[k, f:]],
                             "dense_w": [g_dense[:f], g_dense[f:]], "dense_b": [2.0 * c.sum(), 0.0]})


def cnn_grad_log_psi(params: CnnParams, config: np.ndarray) -> LogPsiGrad:
    """Exact single-configuration gradient of log psi."""
    return _single_row(cnn_log_derivatives, params, config)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def init_params(kind: str, shape: tuple[int, int], scale: float, seed: int) -> NetworkParams:
    """Draw every real and imaginary component from N(0, scale^2).

    shape is (n_visible, n_hidden) for "rbm" and (kernel_size, n_channels)
    for "cnn". Deterministic for a given seed.
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if kind not in _KINDS:
        raise ValueError(f"unknown network kind {kind!r}")
    cls = _KINDS[kind]
    shapes = cls.block_shapes(*shape)
    rng = np.random.default_rng(seed)
    return cls(**{f.name: scale * (rng.standard_normal(shapes[f.name])
                                   + 1j * rng.standard_normal(shapes[f.name]))
                  for f in fields(cls)})
