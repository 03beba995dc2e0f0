import numpy as np
import pytest

from attribank import autodiff as ad


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class RecordingList(list):
    """List wrapper that appends (tag, index) to a shared log on every read.

    Lets tests assert the rehearsal-free property: training never touches
    samples of a finished task again.
    """

    def __init__(self, items, tag, log):
        super().__init__(items)
        self._tag = tag
        self._log = log

    def __getitem__(self, index):
        self._log.append((self._tag, index))
        return super().__getitem__(index)
