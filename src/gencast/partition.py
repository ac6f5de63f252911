"""Partitioning of the packet block into rank-bounded generations.

Three producers share the Partition output type:

* heuristic_partition - greedy feedback-assisted partitioner.  It opens one
  generation at a time and, while any remaining packet can join without
  pushing the generation's rank past the cap, inserts the most popular packet
  that keeps the rank unchanged, falling back to the most popular remaining
  packet (which raises the rank by exactly one) when no rank-preserving
  packet exists.  Generations close only when full, so the output is
  irreducible: nothing can move to an earlier generation for free.
  At gamma_cap = 1 every generation is instantly decodable, which makes the
  greedy output the IDNC reference partition.
* blind_partition - consecutive equal-size chunks, the no-feedback baseline.
* optimal_partition - exact branch-and-bound search for the minimum
  generation count, used as a verification oracle on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sfm import Generation, Partition, StateFeedbackMatrix

__all__ = [
    "PartitionerConfig",
    "InsertionStep",
    "OracleResult",
    "InstanceTooLargeError",
    "heuristic_partition",
    "heuristic_partition_with_trace",
    "blind_partition",
    "optimal_partition",
]


@dataclass(frozen=True)
class PartitionerConfig:
    gamma_cap: int

    def __post_init__(self):
        if self.gamma_cap < 1:
            raise ValueError(f"gamma_cap must be >= 1, got {self.gamma_cap}")


@dataclass(frozen=True)
class InsertionStep:
    """One greedy insertion: which packet, which branch, rank afterwards."""

    packet_id: int
    branch: str  # "keep" (rank unchanged) or "raise" (rank grew by one)
    rank_after: int


@dataclass(frozen=True)
class OracleResult:
    min_generations: int
    witness: Partition
    nodes_explored: int


class InstanceTooLargeError(ValueError):
    """Instance exceeds the exact solver's hard size cap."""


def heuristic_partition(sfm: StateFeedbackMatrix, cfg: PartitionerConfig) -> Partition:
    part, _ = heuristic_partition_with_trace(sfm, cfg)
    return part


def heuristic_partition_with_trace(sfm, cfg):
    """Greedy partition plus the per-generation insertion trace."""
    gamma = cfg.gamma_cap
    wants = sfm.wants
    pop = sfm.popularity_vector()
    # candidate order: highest popularity first, then lowest packet index
    order = sorted(range(sfm.n_packets), key=lambda k: (-int(pop[k]), k))
    pool = set(range(sfm.n_packets))

    generations = []
    traces = []
    while pool:
        members = []
        steps = []
        counts = np.zeros(sfm.n_receivers, dtype=np.int64)
        cur_rank = 0
        while True:
            pool_ids = [k for k in order if k in pool]
            if not pool_ids:
                break
            # rank each candidate would leave the generation at
            new_ranks = (counts[:, None] + wants[:, pool_ids]).max(axis=0)
            keep = [k for k, r in zip(pool_ids, new_ranks) if int(r) == cur_rank]
            if keep:
                chosen = keep[0]
                branch = "keep"
            elif cur_rank < gamma:
                chosen = pool_ids[0]
                branch = "raise"
                cur_rank += 1
            else:
                break  # every remaining packet would exceed the cap
            pool.remove(chosen)
            members.append(chosen)
            counts = counts + wants[:, chosen]
            steps.append(InsertionStep(packet_id=chosen, branch=branch, rank_after=cur_rank))
        generations.append(Generation(tuple(members)))
        traces.append(tuple(steps))
    return Partition(tuple(generations), gamma_cap=gamma), tuple(traces)


def blind_partition(n_packets: int, n_generations: int) -> Partition:
    """Split packets 0..K-1 into M consecutive chunks, sizes differing by <= 1.

    The first K mod M chunks take the extra packet.
    """
    if n_generations < 1 or n_generations > n_packets:
        raise ValueError(
            f"need 1 <= M <= K, got M={n_generations} K={n_packets}"
        )
    base, extra = divmod(n_packets, n_generations)
    gens = []
    start = 0
    for m in range(n_generations):
        size = base + (1 if m < extra else 0)
        gens.append(Generation(tuple(range(start, start + size))))
        start += size
    return Partition(tuple(gens), gamma_cap=None)


def optimal_partition(sfm, gamma: int, *, max_packets: int = 12) -> OracleResult:
    """Exact minimum generation count by branch-and-bound assignment search.

    Packets are assigned in index order; a packet may only open generation j
    when generation j-1 already exists, which kills the color-relabeling
    symmetry.  Branches die when a placement would exceed the rank cap or
    when the open-generation count reaches the incumbent.  Runtime is
    exponential, hence the hard instance-size cap.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if sfm.n_packets > max_packets:
        raise InstanceTooLargeError(
            f"K={sfm.n_packets} exceeds the exact-search cap of {max_packets} packets"
        )

    wants = sfm.wants
    K = sfm.n_packets
    # a receiver wanting w packets needs at least ceil(w / gamma) generations
    lower_bound = max(1, int(np.ceil(wants.sum(axis=1).max() / gamma)))
    incumbent = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
    best_m = incumbent.n_generations
    best_assign = None
    nodes = 0

    if best_m > lower_bound:
        cols = [wants[:, k].astype(np.int64) for k in range(K)]
        assign = [-1] * K
        gen_counts = []

        def search(k):
            nonlocal best_m, best_assign, nodes
            if len(gen_counts) >= best_m:
                return
            if k == K:
                best_m = len(gen_counts)
                best_assign = assign.copy()
                return
            for j, c in enumerate(gen_counts):
                nodes += 1
                cand = c + cols[k]
                if int(cand.max()) <= gamma:
                    gen_counts[j] = cand
                    assign[k] = j
                    search(k + 1)
                    gen_counts[j] = c
                    if best_m == lower_bound:
                        return
            if len(gen_counts) + 1 < best_m:
                nodes += 1
                gen_counts.append(cols[k].copy())
                assign[k] = len(gen_counts) - 1
                search(k + 1)
                gen_counts.pop()

        search(0)

    if best_assign is None:
        witness = Partition(incumbent.generations, gamma_cap=gamma)
    else:
        groups = [[] for _ in range(best_m)]
        for k, j in enumerate(best_assign):
            groups[j].append(k)
        witness = Partition(tuple(Generation(tuple(g)) for g in groups), gamma_cap=gamma)
    return OracleResult(min_generations=best_m, witness=witness, nodes_explored=nodes)
