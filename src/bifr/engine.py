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
origin + (i - rows + 1)*dim.  Rows of at most 2048 draws are drawn in blocks
of up to 4096 draws (whole rows) per ``GaussianStream.fill`` call, each block
scaled in one multiply.  A block sits under a leading row that holds the
running sum: one in-place ``np.add.accumulate`` down the rows adds them oldest
first, each in its own pass, which keeps the output bit-identical to
``engine_dense_reference`` (a reduction would sum pairwise).  Longer rows (or
a window of one row) are added in one parallel region per step: the output is
cut into k contiguous column slabs, k = ``prng.split_ways(dim)``, and each
slab, one per thread, draws every window row oldest first, seeking once per
row and drawing, scaling and adding it in pieces of at most 2^16/k draws.
Every draw depends on its counter only, and every output element still gets
its rows oldest first, so the bits are those of any other split.

So the engine state is five values, spec, dim, noise scale, origin and step,
plus scratch derived from them: those five are a complete checkpoint.  No
noise vector is stored, and the draw scratch of all slabs together holds at
most 2^16 draws (512 KiB) whatever the dim; ``CorrelatorState.stats()``
reports its bytes.
The tests hold a vector-buffer reference that keeps the last bandwidth-1 raw
vectors, and the engine matches it bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import secrets

import numpy as np

from .calibration import PrivacyBudget, gaussian_sigma
from .catalog import (
    BANDED_INVERSE_METHODS,
    FactorizationSpec,
    inverse_band,
    inverse_coeffs,
    strategy_coeffs,
)
from .prng import TOKEN_BYTES, GaussianStream, StateToken, run_tasks, split_ways
from .sensitivity import ParticipationSchema, sens_exact
from .toeplitz import band_length

DENSE_REFERENCE_N_CAP = 1024
DENSE_REFERENCE_DIM_CAP = 64
_BLOCK_DRAWS = 4096  # draws per fill call when a step regenerates its window
# Draw scratch of a row-per-fill step, shared by its k column slabs: each slab
# draws its rows in pieces of at most 2^16 // k draws, so the scratch stays at
# 2^16 draws for any dim and any k.
_PIECE_DRAWS = 1 << 16


class UnsupportedMethodError(ValueError):
    """Streaming correlation needs an explicitly banded inverse."""


@dataclasses.dataclass
class CorrelatorState:
    """Mutable, single-owner state of the streaming engine.

    The init fields fix every noise bit the engine releases, so they are its
    checkpoint; the rest is scratch derived from them.
    """

    spec: FactorizationSpec
    dim: int
    noise_scale: float
    origin: StateToken  # generator state of Z_0; Z_j starts j*dim draws later
    step: int = 0
    # noise_scale * [w_{p-1} .. w_1, 1]: the scale of each window row, oldest first
    _scales: np.ndarray = dataclasses.field(init=False, repr=False)
    # Scratch stream: every step seeks it, and after a step it stands at the
    # end of that step's window, origin + step*dim.
    gen: GaussianStream = dataclasses.field(init=False, repr=False)
    # Draw scratch.  The window is drawn min(p, 4096 // dim) rows per fill
    # call; with more than one, _zbuf holds that many rows under a leading row
    # for the running sum.  Otherwise it holds one piece per column slab, k
    # pieces of at most min(ceil(dim / k), 2^16 // k) draws: never more than
    # 2^16 draws, whatever the dim.
    _zbuf: np.ndarray = dataclasses.field(init=False, repr=False)
    # Column slabs (lo, hi, stream) of a row-per-fill step; the last slab's
    # stream is gen, whose counter so ends each step at the window's end.
    # Empty when the window is drawn in blocks of rows.
    _slabs: list[tuple[int, int, GaussianStream]] = dataclasses.field(init=False, repr=False)
    # Those scales spread over a block of rows.  A ufunc broadcasting a column
    # over a small block allocates an iterator buffer per call; np.copyto into
    # this scratch does not.  None when the window is drawn one row per fill.
    _scale_rows: np.ndarray | None = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.spec.method not in BANDED_INVERSE_METHODS:
            raise UnsupportedMethodError(
                f"{self.spec.method.value} does not have a banded inverse; "
                "streaming noise regeneration is unsupported"
            )
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        self.noise_scale = float(self.noise_scale)
        _check_noise_scale(self.noise_scale)
        self._scales = self.noise_scale * inverse_band(self.spec)[::-1]
        self.gen = GaussianStream(self.origin)
        rows = min(self._scales.size, max(1, _BLOCK_DRAWS // self.dim))
        if rows > 1:
            self._zbuf = np.empty((rows + 1, self.dim))
            self._scale_rows = np.empty((rows, self.dim))
            self._slabs = []
        else:
            k = split_ways(self.dim)
            cuts = [self.dim * j // k for j in range(k + 1)]
            gens = [GaussianStream(self.origin) for _ in range(k - 1)] + [self.gen]
            self._slabs = list(zip(cuts, cuts[1:], gens))
            self._zbuf = np.empty((k, min(-(-self.dim // k), _PIECE_DRAWS // k)))
            self._scale_rows = None

    def stats(self) -> dict[str, int]:
        """What the engine has released and what it holds, computed on call.

        ``step`` and ``horizon_left`` (``spec.n - step``); ``fresh_draws`` and
        ``regenerated_draws`` over the steps taken (a step that raised counts
        for nothing); ``state_bytes``, the origin token, the scaled band and
        the draw scratch: every byte the engine keeps between steps.
        """
        p1, step = self._scales.size - 1, self.step
        # step i regenerates min(i, p-1) rows: 0, 1, .., m-1, then p-1 per step
        m = min(step, p1)
        regenerated = m * (m - 1) // 2 + p1 * (step - m)
        scratch = self._zbuf.nbytes
        if self._scale_rows is not None:
            scratch += self._scale_rows.nbytes
        return dict(
            step=step,
            horizon_left=self.spec.n - step,
            fresh_draws=self.dim * step,
            regenerated_draws=self.dim * regenerated,
            state_bytes=TOKEN_BYTES + self._scales.nbytes + scratch,
        )


def _check_noise_scale(noise_scale: float):
    """Refuse a NaN, infinite or negative scale: NaN and inf scale to non-finite noise."""
    if not 0.0 <= noise_scale < math.inf:
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")


def engine_init(
    spec: FactorizationSpec, dim: int, noise_scale: float, seed: int | None = None
) -> CorrelatorState:
    """Set up a correlator for a banded-inverse factorization.

    Without a ``seed`` the stream key is 128 fresh bits from ``secrets``, so two
    engines never release the same noise; a seed is an explicit choice made
    for reproducibility.
    """
    if seed is None:
        origin = StateToken(key=secrets.randbits(128), counter=0)
    else:
        origin = GaussianStream.from_seed(seed).get_state()
    return CorrelatorState(spec=spec, dim=dim, noise_scale=noise_scale, origin=origin)


def engine_step(
    state: CorrelatorState, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Privatize one aggregated vector; mutates the engine state.

    Raises ``ValueError`` unless 0 <= ``state.step`` < ``spec.n``: the noise
    scale was calibrated for the sensitivity over that horizon only.  With
    ``out`` supplied, the step performs no per-call allocations beyond the
    first invocation (which warms up generator scratch).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (state.dim,):
        raise ValueError(f"expected input of shape ({state.dim},), got {x.shape}")
    if not 0 <= state.step < state.spec.n:
        raise ValueError(
            f"step {state.step} is outside the horizon [0, {state.spec.n}) "
            "of the spec"
        )
    if out is None:
        out = x.copy()
    else:
        np.copyto(out, x)
    _regenerating_step(state, out)
    state.step += 1
    return out


def _regenerating_step(state: CorrelatorState, out: np.ndarray):
    """Draw Z_{i-rows+1} .. Z_i as one counter range and add them oldest first."""
    i, p1, dim = state.step, state._scales.size - 1, state.dim
    rows = min(i, p1) + 1
    scales = state._scales[p1 + 1 - rows :]
    if state._slabs:
        add = functools.partial(_add_slab, state, out, scales, i + 1 - rows)
        run_tasks(add, len(state._slabs))
        return
    state.gen.set_state(state.origin.advanced((i + 1 - rows) * dim))
    block = state._zbuf
    per = block.shape[0] - 1  # rows drawn per fill, under the sum row
    for lo in range(0, rows, per):
        c = min(per, rows - lo)
        acc = block[: c + 1]
        chunk = acc[1:]
        state.gen.fill(chunk)
        scale_rows = state._scale_rows[:c]
        np.copyto(scale_rows, scales[lo : lo + c, None])
        np.multiply(chunk, scale_rows, out=chunk)
        np.copyto(acc[0], out)
        np.add.accumulate(acc, axis=0, out=acc)
        np.copyto(out, acc[c])


def _add_slab(state: CorrelatorState, out: np.ndarray, scales, first: int, j: int):
    """Add window rows Z_first .. to column slab j of ``out``, oldest first.

    One seek per row; the row's pieces continue its counter range.
    """
    lo, hi, gen = state._slabs[j]
    piece = state._zbuf[j]
    for r, scale in enumerate(scales):
        gen.set_state(state.origin.advanced((first + r) * state.dim + lo))
        for a in range(lo, hi, piece.size):
            z = piece[: hi - a]
            gen.fill(z)
            np.multiply(z, scale, out=z)
            out[a : a + z.size] += z


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
    _check_noise_scale(noise_scale)
    n = spec.n
    inv = inverse_coeffs(spec).coeffs
    band = inv[: band_length(inv)]
    # Column-major, the layout scipy.signal.lfilter gives an FIR filter's output
    # (one np.convolve per column): the in-place cumsum, square and sum below
    # then add in its order, so the estimate equals the lfilter formulation bit
    # for bit.  Both arrays are reused by every trial.
    Z = np.empty((n, dim))
    correlated = np.empty((n, dim), order="F")
    vals = np.empty(trials)
    for t in range(trials):
        GaussianStream.from_seed(seed, stream=t + 1).fill(Z)
        for j in range(dim):
            correlated[:, j] = np.convolve(band, Z[:, j])[:n]
        np.cumsum(correlated, axis=0, out=correlated)
        np.multiply(correlated, correlated, out=correlated)
        vals[t] = noise_scale * noise_scale * np.sum(correlated) / (n * dim)
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
