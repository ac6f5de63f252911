import numpy as np
import pytest
from hypothesis import Phase, settings

from gencast import StateFeedbackMatrix

# for tests/mutants.py: a killed mutant needs one failing example, not the simplest
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture
def conflict_sfm():
    """4 receivers x 6 packets with a triangle of pairwise want-conflicts
    among packets 0/1/2, so the cap-1 minimum partition needs 3 generations.

    Also pins: packet 0 wanted by exactly 2 receivers, and one receiver
    wants both packets 1 and 2 (that pair has rank 2).
    """
    return StateFeedbackMatrix([
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [1, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 1],
    ])


def random_sfm(rng, n_receivers, n_packets, p):
    return StateFeedbackMatrix((rng.random((n_receivers, n_packets)) < p).astype(np.uint8))


def prefix_ranks(sfm, ids):
    """The rank of each prefix of ids, as ints: the column max of the
    receivers' cumulative want counts over ids."""
    return np.cumsum(sfm.wants[:, list(ids)], axis=1).max(axis=0).tolist()
