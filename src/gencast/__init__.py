"""Feedback-assisted generation partitioning for coded wireless broadcast.

The sender broadcasts a packet block once, collects one round of reception
feedback, partitions the block into generations whose per-receiver demand
never exceeds a rank budget, then broadcasts random linear combinations per
generation until everyone decodes.  This package provides the feedback data
model and metrics, the partitioning algorithms (greedy, blind, exact), the
hypergraph-coloring view of the problem as adapters over them (a hypergraph
is an SFM whose rows are its edges, a coloring a tuple of colors read as a
Partition), a GF(2^m) codec, and a Monte-Carlo protocol simulator with a CSV
benchmark harness.
"""

from .galois import GF16, GF256, Field, get_field
from .hypergraph import (
    coloring_to_partition,
    is_valid_coloring,
    partition_to_coloring,
    sfm_to_hypergraph,
)
from .partition import (
    InstanceTooLargeError,
    OracleResult,
    PartitionerConfig,
    blind_partition,
    by_algorithm,
    heuristic_partition,
    optimal_partition,
)
from .rlnc import CodedPacket, DecoderState, encode, random_coefficients, random_payloads
from .sfm import (
    Generation,
    Partition,
    StateFeedbackMatrix,
    apdd_upper_bound,
    generation_counts,
    is_irreducible,
    load_sfm,
    parse_sfm,
    partition_from_json,
    partition_to_json,
    total_rank,
    validate_partition,
)
from .sim import (
    ChannelModel,
    SimConfig,
    TrialResult,
    coded_phase,
    run_experiment,
    run_trial,
    systematic_phase,
)

__version__ = "0.1.0"
