"""Fixtures shared across the suite."""

import pytest

from cliquechain.difficulty import DifficultyPolicy


@pytest.fixture
def policy_calls(monkeypatch):
    """Spy on ``DifficultyPolicy.on_block``, the method the benchmark's
    tracer wraps.  Returns a list that gets one ``(received, applied)``
    pair per call, in call order: the ``updates`` of the state the call
    was given, and the changes its result adds to them."""
    calls = []
    on_block = DifficultyPolicy.on_block

    def spy(self, state, block):
        new = on_block(self, state, block)
        calls.append((state.updates, new.updates[len(state.updates):]))
        return new

    monkeypatch.setattr(DifficultyPolicy, "on_block", spy)
    return calls

