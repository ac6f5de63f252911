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


def coloring_violations(h, coloring, gamma):
    """The (color, edge) pairs whose color class meets edge n (row n of the
    hypergraph h) in more than gamma vertices, by ascending color, then edge.

    A reference for hypergraph.is_valid_coloring counted apart from
    sfm.generation_counts: one set intersection per (color, edge) pair.
    """
    edges = [set(np.flatnonzero(row).tolist()) for row in h.wants]
    classes = {color: {v for v, c in enumerate(coloring) if c == color} for color in coloring}
    return tuple((color, n) for color in sorted(classes) for n, e in enumerate(edges)
                 if len(classes[color] & e) > gamma)
