"""The one integer rule: every count, size, seed, key and counter becomes an int where it enters.

Each entry point takes any integer type as its Python int when it is called or
its object is built, so NumPy integers (as read back from an ``.npz``
checkpoint, or from ``np.prod(shape)``) give the bits of the equal ``int``, and
a float is refused there, not at some later step.
"""

import numpy as np
import pytest

from bifr.catalog import FactorizationSpec, Method, strategy_coeffs
from bifr.engine import CorrelatorState, engine_init, engine_step, run_prefix_release
from bifr.prng import GaussianStream, StateToken
from bifr.sensitivity import ParticipationSchema, sens_exact
from bifr.tuner import default_schema, tune_method

_SPEC = FactorizationSpec(method=Method.GAMMA_BIFR, n=16, gamma=0.5, bandwidth=4)


# Each entry point, called with its integer inputs passed through ``i``: the
# integers it stores (and, for the engine, its stats) and what it computes.
def _token(i):
    tok = StateToken(key=i(5), counter=i(3))
    return dict(key=tok.key, counter=tok.counter), tok.to_bytes()


def _seek(i):
    gen = GaussianStream(StateToken(key=5, counter=0))
    gen.seek(i(3))
    return dict(counter=gen._counter), gen.normal(4)


def _spec(i):
    spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=i(16), gamma=0.5, bandwidth=i(4))
    return dict(n=spec.n, bandwidth=spec.bandwidth), strategy_coeffs(spec).coeffs


def _schema(i):
    schema = ParticipationSchema(n=i(16), b=i(4), k=i(3))
    return dict(n=schema.n, b=schema.b, k=schema.k), sens_exact(strategy_coeffs(_SPEC), schema)


def _checkpoint(i):
    """An engine restored from a checkpoint whose integers are all NumPy-typed."""
    spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=i(16), gamma=0.5, bandwidth=i(4))
    origin = StateToken(key=i(7), counter=i(0))
    state = CorrelatorState(spec=spec, dim=i(3), noise_scale=1.0, origin=origin, step=i(2))
    out = engine_step(state, np.zeros(3))
    return dict(dim=state.dim, **state.stats()), out


def _engine_init_seed(i):
    state = engine_init(_SPEC, 3, 1.0, i(5))
    out = engine_step(state, np.zeros(3))
    return dict(key=state.origin.key, counter=state.origin.counter, **state.stats()), out


def _prefix_release(i):
    est = run_prefix_release(
        _SPEC, None, dim=i(2), budget=None, trials=i(3), seed=i(1), noise_scale=1.0
    )
    return dict(trials=est.trials), [est.estimate, est.stderr]


def _tune_bandwidths(i):
    report = tune_method(Method.BISR, default_schema(16, 1), bandwidths=[i(2), i(4)])
    return dict(n=report.spec.n, bandwidth=report.spec.bandwidth), report.rmse


ENTRY_POINTS = [_token, _seek, _spec, _schema, _checkpoint, _engine_init_seed, _prefix_release,
                _tune_bandwidths]  # fmt: skip


def _bits(value) -> bytes:
    return value if isinstance(value, bytes) else np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("numpy_int", [np.int32, np.int64, np.uint64])
def test_numpy_integers_are_stored_as_ints_with_the_int_bits(entry, numpy_int):
    fields, out = entry(numpy_int)
    int_fields, int_out = entry(int)
    assert {name: type(value) for name, value in fields.items()} == dict.fromkeys(fields, int)
    assert fields == int_fields
    assert _bits(out) == _bits(int_out)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.lstrip("_"))
def test_a_float_is_refused(entry):
    with pytest.raises((TypeError, ValueError), match="integer"):
        entry(float)
