"""Fixtures shared by the training and inversion tests."""

import pytest

from tsgad import lstm


@pytest.fixture
def kept_caches(monkeypatch):
    """A function that returns ``(kept, unread)``: the LSTM caches forward
    passes kept since the fixture wrapped both passes, and those of them no
    backward pass was given."""
    kept, read = [], []
    forward, backward = lstm.forward_batch, lstm.backward_batch

    def keeping(net, sequences, **kwargs):
        out, cache = forward(net, sequences, **kwargs)
        if cache is not None:
            kept.append(cache)
        return out, cache

    def reading(net, cache, *args, **kwargs):
        read.append(cache)
        return backward(net, cache, *args, **kwargs)

    monkeypatch.setattr(lstm, "forward_batch", keeping)
    monkeypatch.setattr(lstm, "backward_batch", reading)
    return lambda: (kept, [c for c in kept if not any(c is r for r in read)])
