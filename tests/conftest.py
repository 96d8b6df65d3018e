"""Fixtures shared by the stream, engine and CLI tests."""

import argparse
import sys
import threading

import pytest

from bifr import cli, prng
from bifr.prng import GaussianStream


@pytest.fixture
def fills(monkeypatch):
    """Every kernel run a fill computes, from any thread: (first counter, draws, thread id)."""
    calls = []
    kernel = prng._fill_kernel

    def recording(out, rng, state, counter):
        calls.append((counter, out.size, threading.get_ident()))
        kernel(out, rng, state, counter)

    monkeypatch.setattr(prng, "_fill_kernel", recording)
    return calls


@pytest.fixture
def seeks(monkeypatch):
    """The counter of every ``GaussianStream.seek`` call, from any thread."""
    counters = []
    seek = GaussianStream.seek

    def recording(gen, counter):
        counters.append(counter)
        return seek(gen, counter)

    monkeypatch.setattr(GaussianStream, "seek", recording)
    return counters


@pytest.fixture
def fast_switching():
    """Hand the interpreter lock between threads as often as it allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def parser_flags():
    """Each subcommand's option strings, as ``cli._build_parser()`` declares them, help aside."""
    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
