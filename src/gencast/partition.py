"""Partitioning of the packet block into rank-bounded generations.

Three producers share the Partition output type:

* heuristic_partition - greedy feedback-assisted partitioner.  It opens one
  generation at a time and, while any remaining packet can join without
  pushing the generation's rank past the cap, inserts the most popular packet
  that keeps the rank unchanged, falling back to the most popular remaining
  packet (which raises the rank by exactly one) when no rank-preserving
  packet exists.  Generations close only when full, so the output is
  irreducible: nothing can move to an earlier generation for free.
  The packets nobody wants keep any rank, so they open the first
  generation, in index order, and every generation's scans start at rank 1.
  It scans the candidates once per rank and resumes past each insertion:
  at a fixed rank the set of receivers already at the rank only grows, so a
  packet once rejected stays rejected; only a raise restarts the scan at
  the most popular remaining packet.
  At gamma_cap = 1 every generation is instantly decodable, which makes the
  greedy output the IDNC reference partition.
* blind_partition - consecutive equal-size chunks, the no-feedback baseline.
* optimal_partition - the exact minimum, a verification oracle: the greedy's
  partition if it meets the demand lower bound, at any K, else a size-capped
  branch-and-bound search; its OracleResult also carries the greedy partition.

by_algorithm picks a producer by its name in ALGORITHMS and is the one home of
the pairing rule: "blind" chunks into the greedy's generation count at that cap.

Both feedback-driven partitioners work on StateFeedbackMatrix.receiver_bitsets,
one Python-int receiver bitset per packet (bit n set iff receiver n wants
it), so a packet's popularity is a bit count and a rank-cap test is one AND.
A generation under construction is a thermometer code: levels[i] is the set
of receivers that want more than i of its packets.  Adding a packet carries
its receivers up one level, and the packet fits under cap c iff its bitset
misses levels[c - 1].  The greedy partitioner tests each candidate against
the receivers already at the generation's rank ("full"); the exact search
tests it against the receivers at the cap.  Every rank cap passes sfm.check_cap.

The exact search branches on the most demanded packets first, after Brelaz's
DSATUR rule (colour the most constrained vertex first, CACM 1979): a packet
weighs the summed want counts of its receivers, the counts whose maximum gives
the demand lower bound.  At the paper's operating point the optimum almost
always equals that bound, and placing the busiest receivers' packets first
reaches it long before the index order does.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .sfm import Partition, StateFeedbackMatrix, check_cap

__all__ = [
    "ALGORITHMS",
    "PartitionerConfig",
    "OracleResult",
    "InstanceTooLargeError",
    "heuristic_partition",
    "blind_partition",
    "optimal_partition",
    "by_algorithm",
]

ALGORITHMS = ("heuristic", "blind", "oracle")


class PartitionerConfig(NamedTuple("PartitionerConfig", [("gamma_cap", int)])):
    """A rank cap that passed sfm.check_cap."""

    __slots__ = ()

    def __new__(cls, gamma_cap):
        return super().__new__(cls, check_cap(gamma_cap))


class OracleResult(NamedTuple):
    """A minimum partition, the search nodes that proved it, and the greedy
    partition the search started from (the witness itself when no node beat it)."""

    witness: Partition
    nodes_explored: int
    heuristic: Partition

    @property
    def min_generations(self) -> int:
        return self.witness.n_generations


class InstanceTooLargeError(ValueError):
    """An instance that needs an exact search and is past the search's size cap."""


def heuristic_partition(sfm: StateFeedbackMatrix, cfg: PartitionerConfig) -> Partition:
    return Partition._of(_greedy(sfm, cfg.gamma_cap), cfg.gamma_cap, sfm.n_packets)


def _greedy(sfm, gamma):
    """The greedy core: each generation's packets in insertion order."""
    bits = sfm.receiver_bitsets
    # candidate order: most popular first; sorted is stable, so ties keep index order
    popularity = [b.bit_count() for b in bits]
    order = sorted(range(sfm.n_packets), key=popularity.__getitem__, reverse=True)
    depth = min(gamma, sfm.n_packets)  # no generation's rank exceeds K

    # the packets nobody wants come last in that order and keep any rank, so
    # they open the first generation and the scans start at rank 1
    wanted = len(order) - popularity.count(0)
    members, remaining = order[wanted:], order[:wanted]
    groups = []
    while True:
        levels = [0] * depth  # levels[i]: receivers wanting more than i of the members
        cur_rank = 0
        while remaining and cur_rank < gamma:
            # raise: no receiver is above the old rank yet, so the scan inserts
            # the most popular remaining packet first
            cur_rank += 1
            full = 0  # receivers whose count has reached the rank
            # one scan per rank (full only grows at a fixed rank): a packet keeps
            # the rank iff none of its receivers is full
            rejected = []
            for chosen in remaining:
                mask = bits[chosen]
                if mask & full:
                    rejected.append(chosen)
                    continue
                members.append(chosen)
                for i in range(cur_rank - 1, 0, -1):
                    levels[i] |= levels[i - 1] & mask
                levels[0] |= mask
                full = levels[cur_rank - 1]
            remaining = rejected
        groups.append(members)
        if not remaining:
            return groups
        members = []  # the remaining packets would all exceed the cap: open the next generation


def blind_partition(n_packets: int, n_generations: int) -> Partition:
    """Split packets 0..K-1 into M consecutive chunks, sizes differing by <= 1.

    The first K mod M chunks take the extra packet.
    """
    if n_generations < 1 or n_generations > n_packets:
        raise ValueError(
            f"need 1 <= M <= K, got M={n_generations} K={n_packets}"
        )
    base, extra = divmod(n_packets, n_generations)
    starts = [m * base + min(m, extra) for m in range(n_generations + 1)]  # chunk m's first id
    return Partition._of(map(range, starts, starts[1:]), None, int(n_packets))  # K as an int


def optimal_partition(sfm, gamma: int, *, max_packets: int = 12) -> OracleResult:
    """Exact minimum generation count by branch-and-bound assignment search.

    Packets are assigned heaviest first, where packet k weighs sum(W_r) over
    the receivers r that want it and W_r is r's total want count; ties go by
    packet index.  A packet may only open generation j when generation j-1
    already exists, which kills the color-relabeling symmetry.  Branches die
    when a placement would exceed the rank cap or when the open-generation
    count reaches the incumbent.  Only a greedy that misses the demand lower
    bound starts the search, so only the search is capped at max_packets.

    Each open generation is kept as its thermometer levels over the receiver
    bitsets (see the module docstring): a placement is feasible iff the
    packet's bitset misses levels[gamma - 1], and it costs at most gamma ORs
    and ANDs to carry the packet's receivers up one level.

    A witness found by the search lists its generations by smallest packet
    id, with ids ascending inside each generation.
    """
    gamma = (cfg := PartitionerConfig(gamma_cap=gamma)).gamma_cap  # the one cap check

    K = sfm.n_packets
    # each receiver's want count, for the bound and the branching order; signed:
    # the uint8 want-matrix sums to uint64, which wraps when negated
    demand = sfm.wants.sum(axis=1, dtype=np.int64)
    # a receiver wanting w packets needs at least ceil(w / gamma) generations
    lower_bound = max(1, -(-max(demand.tolist()) // gamma))
    incumbent = heuristic_partition(sfm, cfg)
    best_m = incumbent.n_generations
    best_assign = None
    nodes = 0

    if best_m > lower_bound:
        if K > max_packets:
            raise InstanceTooLargeError(
                f"K={K} needs an exact search (the greedy's {best_m} generations miss the "
                f"demand bound of {lower_bound}), which is capped at {max_packets} packets")
        order = np.argsort(-(demand @ sfm.wants), kind="stable").tolist()  # heaviest first
        bits = [sfm.receiver_bitsets[k] for k in order]
        top = gamma - 1
        assign = [-1] * K
        gens = []  # levels of each open generation

        def search(k):
            nonlocal best_m, best_assign, nodes
            if len(gens) >= best_m:
                return
            if k == K:
                best_m = len(gens)
                best_assign = assign.copy()
                return
            mask = bits[k]
            for j, levels in enumerate(gens):
                nodes += 1
                if mask & levels[top]:
                    continue
                carried, below = [], mask
                for level in levels:
                    carried.append(level | below)
                    below = level & mask
                gens[j] = carried
                assign[k] = j
                search(k + 1)
                gens[j] = levels
                if best_m == lower_bound:
                    return
            if len(gens) + 1 < best_m:
                nodes += 1
                gens.append([mask] + [0] * top)
                assign[k] = len(gens) - 1
                search(k + 1)
                gens.pop()

        search(0)

    witness = incumbent
    if best_assign is not None:
        groups = [[] for _ in range(best_m)]
        for k, j in zip(order, best_assign):
            groups[j].append(k)
        groups = sorted(sorted(g) for g in groups)  # nonempty and disjoint: by smallest id
        witness = Partition._of(groups, gamma, K)
    return OracleResult(witness, nodes, incumbent)


def by_algorithm(sfm: StateFeedbackMatrix, gamma: int, algorithm: str) -> Partition:
    """The partition that `algorithm`, one of ALGORITHMS, gives at rank cap gamma;
    "blind" chunks the block into as many generations as the greedy uses."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose one of {', '.join(ALGORITHMS)}")
    if algorithm == "oracle":
        return optimal_partition(sfm, gamma).witness
    if algorithm == "blind":  # the greedy's generations counted, not built as a Partition
        return blind_partition(sfm.n_packets, len(_greedy(sfm, check_cap(gamma))))
    return heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
