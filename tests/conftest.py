import pytest

from tcinit import network


def trial_block(f, x_shape):
    """Trials per block of ``variance_mc`` for a per-trial input of ``x_shape``."""
    return network._trial_block([network._plan(f, False, (1, *x_shape))])


@pytest.fixture
def trial_block_bytes(monkeypatch):
    """Set ``network.TRIAL_BLOCK_BYTES`` for one test.  Plans are compiled
    for the budget in force, batch tiles and all, so ``_plan``'s cache is
    cleared on every change and again when the test ends."""

    def set_budget(nbytes):
        monkeypatch.setattr(network, "TRIAL_BLOCK_BYTES", nbytes)
        network._plan.cache_clear()

    yield set_budget
    network._plan.cache_clear()
