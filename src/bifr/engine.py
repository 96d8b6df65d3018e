"""Streaming correlated-noise engine with generator-state regeneration.

For banded-inverse factorizations the privatized step output is

    x_hat_i = x_i + s * sum_k w_k * Z_{i-k} + s * Z_i,

where the w_k are the inverse-band coefficients and the Z are i.i.d. Gaussian
vectors.  Instead of buffering the last bandwidth-1 noise vectors, the engine
keeps one generator state token, the origin of Z_0, and regenerates the old
vectors on every step, so memory overhead is O(1) vectors plus that token.

Z_j occupies counters j*dim .. (j+1)*dim - 1 of one stream, so the window of
old vectors and the fresh one is a single contiguous counter range, a pure
function of the origin and the step: each step seeks once, to
origin + (i - rows + 1)*dim, and draws the window in blocks of up to
4096 draws (whole rows, at least one) per ``GaussianStream.fill`` call.  Each
block is scaled in one multiply.  A block of several rows sits under a leading
row that holds the running sum: one in-place ``np.add.accumulate`` down the
rows adds them oldest first, each in its own pass, which keeps the output
bit-identical to ``engine_dense_reference`` (a reduction would sum pairwise).

A vector-buffer variant (``store_vectors=True``) keeps the raw noise vectors
instead; it is bit-identical to the regenerating engine and exists as a cross
check.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .calibration import PrivacyBudget, gaussian_sigma
from .catalog import (
    BANDED_INVERSE_METHODS,
    FactorizationSpec,
    inverse_band,
    inverse_coeffs,
    strategy_coeffs,
)
from .prng import GaussianStream, StateToken
from .sensitivity import ParticipationSchema, sens_exact
from .toeplitz import band_length

DENSE_REFERENCE_N_CAP = 1024
DENSE_REFERENCE_DIM_CAP = 64
_BLOCK_DRAWS = 4096  # draws per fill call when a step regenerates its window


class UnsupportedMethodError(ValueError):
    """Streaming correlation needs an explicitly banded inverse."""


@dataclasses.dataclass
class CorrelatorState:
    """Mutable, single-owner state of the streaming engine."""

    spec: FactorizationSpec
    dim: int
    noise_scale: float
    weights: np.ndarray  # inverse-band coefficients w_1 .. w_{p-1}
    origin: StateToken  # generator state of Z_0; Z_j starts j*dim draws later
    gen: GaussianStream
    step: int = 0
    store_vectors: bool = False
    # Draw scratch, whole rows of dim draws: the window is drawn min(p, 4096 //
    # dim) rows per fill call, at least one.  With more than one, a leading row
    # holds the running sum.  Row 0 is the one-vector scratch of the buffered
    # path.  Left as None, it is sized here.
    _zbuf: np.ndarray | None = None
    _vbuf: list[np.ndarray] = dataclasses.field(default_factory=list)
    # noise_scale * [w_{p-1} .. w_1, 1]: the scale of each window row, oldest first
    _scales: np.ndarray = dataclasses.field(init=False, repr=False)
    # Those scales spread over a block of rows.  A ufunc broadcasting a column
    # over a small block allocates an iterator buffer per call; np.copyto into
    # this scratch does not.  None when the window is drawn one row per fill.
    _scale_rows: np.ndarray | None = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self._scales = self.noise_scale * np.append(np.asarray(self.weights)[::-1], 1.0)
        if self._zbuf is None:
            rows = min(self._scales.size, max(1, _BLOCK_DRAWS // self.dim))
            self._zbuf = np.empty((rows + 1 if rows > 1 else 1, self.dim))
        rows = self._zbuf.size // self.dim
        self._scale_rows = np.empty((rows - 1, self.dim)) if rows > 1 else None


def engine_init(
    spec: FactorizationSpec,
    dim: int,
    noise_scale: float,
    seed: int,
    store_vectors: bool = False,
) -> CorrelatorState:
    """Set up a correlator for a banded-inverse factorization."""
    if spec.method not in BANDED_INVERSE_METHODS:
        raise UnsupportedMethodError(
            f"{spec.method.value} does not have a banded inverse; streaming "
            "noise regeneration is unsupported"
        )
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    weights = inverse_band(spec)[1:]
    return _init_from_weights(spec, weights, dim, noise_scale, seed, store_vectors)


def _init_from_weights(
    spec, weights, dim, noise_scale, seed, store_vectors=False
) -> CorrelatorState:
    gen = GaussianStream.from_seed(seed)
    return CorrelatorState(
        spec=spec,
        dim=dim,
        noise_scale=float(noise_scale),
        weights=np.asarray(weights, dtype=np.float64),
        origin=gen.get_state(),
        gen=gen,
        store_vectors=store_vectors,
    )


def engine_step(
    state: CorrelatorState, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Privatize one aggregated vector; mutates the engine state.

    Raises ``ValueError`` once ``spec.n`` steps have been taken: the noise
    scale was calibrated for the sensitivity over that horizon only.  With
    ``out`` supplied, the step performs no per-call allocations beyond the
    first invocation (which warms up generator scratch).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (state.dim,):
        raise ValueError(f"expected input of shape ({state.dim},), got {x.shape}")
    if state.step >= state.spec.n:
        raise ValueError(
            f"horizon reached: all {state.spec.n} steps of the spec were taken"
        )
    if out is None:
        out = x.copy()
    else:
        np.copyto(out, x)
    if state.store_vectors:
        _buffered_step(state, out)
    else:
        _regenerating_step(state, out)
    state.step += 1
    return out


def _regenerating_step(state: CorrelatorState, out: np.ndarray):
    """Draw Z_{i-rows+1} .. Z_i as one counter range and add them oldest first."""
    i, p1, dim = state.step, state.weights.size, state.dim
    rows = min(i, p1) + 1
    block = state._zbuf.reshape(-1, dim)
    per = max(1, block.shape[0] - 1)  # rows drawn per fill, under the sum row
    scales = state._scales[p1 + 1 - rows :]
    state.gen.set_state(state.origin.advanced((i + 1 - rows) * dim))
    for lo in range(0, rows, per):
        c = min(per, rows - lo)
        if c == 1:
            row = block[0]
            state.gen.fill(row)
            np.multiply(row, scales[lo], out=row)
            out += row
            continue
        acc = block[: c + 1]
        chunk = acc[1:]
        state.gen.fill(chunk)
        scale_rows = state._scale_rows[:c]
        np.copyto(scale_rows, scales[lo : lo + c, None])
        np.multiply(chunk, scale_rows, out=chunk)
        np.copyto(acc[0], out)
        np.add.accumulate(acc, axis=0, out=acc)
        np.copyto(out, acc[c])


def _buffered_step(state: CorrelatorState, out: np.ndarray):
    i = state.step
    p1 = state.weights.size
    zbuf = state._zbuf.reshape(-1, state.dim)[0]
    start = max(0, i - p1)
    for m in range(start, i):
        np.multiply(
            state._vbuf[m - start],
            state.noise_scale * state.weights[i - m - 1],
            out=zbuf,
        )
        out += zbuf
    state.gen.fill(zbuf)
    if p1:
        state._vbuf.append(zbuf.copy())
        if len(state._vbuf) > p1:
            state._vbuf.pop(0)
    np.multiply(zbuf, state.noise_scale, out=zbuf)
    out += zbuf


def engine_dense_reference(
    spec: FactorizationSpec, dim: int, noise_scale: float, seed: int, n: int
) -> np.ndarray:
    """Oracle: materialize the inverse band, replay the same noise, multiply.

    Returns the n x dim outputs the engine produces on zero inputs.  Uses the
    same generator discipline and the same oldest-first accumulation order as
    the streaming engine, so the result is bit-identical.
    """
    if n > DENSE_REFERENCE_N_CAP or dim > DENSE_REFERENCE_DIM_CAP:
        raise ValueError(
            f"dense reference capped at n <= {DENSE_REFERENCE_N_CAP}, "
            f"dim <= {DENSE_REFERENCE_DIM_CAP}"
        )
    if n > spec.n:
        raise ValueError(f"n={n} exceeds spec horizon {spec.n}")
    scaled_band = noise_scale * inverse_band(spec)
    p = scaled_band.size
    gen = GaussianStream.from_seed(seed)
    Z = gen.normal((n, dim))
    out = np.zeros((n, dim))
    for i in range(n):
        for j in range(max(0, i - p + 1), i + 1):
            out[i] += scaled_band[i - j] * Z[j]
    return out


@dataclasses.dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    stderr: float
    trials: int
    noise_scale: float


def run_prefix_release(
    spec: FactorizationSpec,
    schema: ParticipationSchema,
    dim: int,
    budget: PrivacyBudget | None,
    trials: int,
    seed: int,
    noise_scale: float | None = None,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the running-sum noise RMSE on zero inputs.

    Converges to rmse(spec, schema) * sigma as trials grow; the per-dimension
    normalization makes the estimate comparable with the analytic objective.
    Trials use independent derived substreams of ``seed`` and a deterministic
    aggregation order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if noise_scale is None:
        if budget is None:
            raise ValueError("either a privacy budget or an explicit noise_scale is required")
        noise_scale = gaussian_sigma(budget) * sens_exact(strategy_coeffs(spec), schema)
    n = spec.n
    inv = inverse_coeffs(spec).coeffs
    band = inv[: band_length(inv)]
    # Column-major, the layout scipy.signal.lfilter gives an FIR filter's output
    # (one np.convolve per column): cumsum and sum below then add in its order,
    # so the estimate equals the lfilter formulation bit for bit.
    correlated = np.empty((n, dim), order="F")
    vals = np.empty(trials)
    for t in range(trials):
        gen = GaussianStream.from_seed(seed, stream=t + 1)
        Z = gen.normal((n, dim))
        for j in range(dim):
            correlated[:, j] = np.convolve(band, Z[:, j])[:n]
        sums = np.cumsum(correlated, axis=0)
        vals[t] = noise_scale * noise_scale * np.sum(sums * sums) / (n * dim)
    mean = float(np.mean(vals))
    estimate = math.sqrt(mean)
    if trials > 1 and estimate > 0.0:
        se_mean = float(np.std(vals, ddof=1)) / math.sqrt(trials)
        stderr = se_mean / (2.0 * estimate)
    else:
        stderr = 0.0
    return MonteCarloEstimate(
        estimate=estimate, stderr=stderr, trials=trials, noise_scale=noise_scale
    )


def clip_and_aggregate(per_example_grads, clip_norm: float) -> np.ndarray:
    """Clip each per-example gradient to ``clip_norm`` in l2 and sum them."""
    if clip_norm <= 0.0:
        raise ValueError(f"clip norm must be positive, got {clip_norm}")
    acc = None
    for g in per_example_grads:
        g = np.asarray(g, dtype=np.float64)
        norm = float(np.linalg.norm(g))
        scale = min(1.0, clip_norm / norm) if norm > 0.0 else 1.0
        acc = g * scale if acc is None else acc + g * scale
    if acc is None:
        raise ValueError("no gradients supplied")
    return acc


def private_step(
    state: CorrelatorState, per_example_grads, clip_norm: float
) -> np.ndarray:
    """Thin adapter: clip/aggregate a batch, then run one engine step."""
    return engine_step(state, clip_and_aggregate(per_example_grads, clip_norm))
