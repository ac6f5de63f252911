"""The partitioning problem as hypergraph coloring, both directions.

Packets map to vertices and each receiver's want-set to a hyperedge; a
partition respecting a rank cap is exactly a coloring whose classes meet
every edge in at most that many vertices.  A hypergraph is held as the SFM
whose rows are its edges, and a coloring as a tuple of colors that
coloring_to_partition reads as a Partition.  The script writes the
hypergraph file and reads it back, solves a small instance exactly, and
spot-checks the equivalence on random instances.
"""

import numpy as np

from gencast import (
    StateFeedbackMatrix,
    coloring_to_partition,
    is_valid_coloring,
    optimal_partition,
    partition_to_coloring,
    sfm_to_hypergraph,
    validate_partition,
)
from gencast.hypergraph import format_hypergraph, parse_hypergraph

sfm = StateFeedbackMatrix([
    [1, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0],
    [1, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 1, 1],
])
h = sfm_to_hypergraph(sfm)
print(f"hypergraph: {h.n_packets} vertices, {h.n_receivers} edges")
for n, row in enumerate(h.wants):
    print(f"  edge {n}: {np.flatnonzero(row).tolist()}")

back = parse_hypergraph(format_hypergraph(h))
print("round trip reproduces the feedback matrix:", bool((back.wants == sfm.wants).all()))

witness = optimal_partition(h, 1).witness
coloring = partition_to_coloring(witness)
print(f"\ncap-1 chromatic number: {witness.n_generations}")
print("witness coloring:", list(coloring))
print("witness valid:", is_valid_coloring(h, coloring, 1).valid)

bad = (0, 0, 1, 2, 2, 1)
report = is_valid_coloring(h, bad, 1)
print(f"\na deliberately bad coloring has violations: {report.violations}")
print("same verdict through the partition view:",
      bool(validate_partition(sfm, coloring_to_partition(bad), 1).rank_violations))

print("\nrandom-instance equivalence check (coloring test == partition test):")
rng = np.random.default_rng(7)
agree = 0
for _ in range(50):
    random_sfm = StateFeedbackMatrix((rng.random((5, 8)) < 0.4).astype(np.uint8))
    g = sfm_to_hypergraph(random_sfm)
    colors = tuple(int(c) for c in rng.integers(0, 4, size=8))
    part = coloring_to_partition(colors)
    for gamma in (1, 2, 3):
        lhs = is_valid_coloring(g, colors, gamma).valid
        rhs = not validate_partition(random_sfm, part, gamma).rank_violations
        agree += lhs == rhs
print(f"  {agree}/150 checks agree")

round_trip = coloring_to_partition(partition_to_coloring(coloring_to_partition(bad)))
print("partition -> coloring -> partition is the identity:",
      round_trip == coloring_to_partition(bad))
