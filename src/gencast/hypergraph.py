"""Hypergraph view of the partitioning problem, as adapters over sfm.

Packets are vertices and each receiver's want-set is a hyperedge, so a
hypergraph is a StateFeedbackMatrix whose rows are its edges (an edgeless one
is one all-zero row) and a coloring, a tuple of one color per vertex, is the
Partition of its color classes.  A coloring valid at cap gamma is a partition
of rank at most gamma, so partition.optimal_partition finds the chromatic
number (refusing only a search past its size cap) and is_valid_coloring
reads its violations off sfm.generation_counts.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .sfm import (Partition, SfmParseError, StateFeedbackMatrix, check_cap, check_ids,
                  format_rows, generation_counts, read_rows)

__all__ = ["sfm_to_hypergraph", "is_valid_coloring", "coloring_to_partition",
           "partition_to_coloring", "parse_hypergraph", "load_hypergraph", "format_hypergraph"]


def _hypergraph(edges: np.ndarray) -> StateFeedbackMatrix:
    """The hypergraph of an E x V 0/1 edge matrix; no edges give one all-zero row."""
    return StateFeedbackMatrix(edges if len(edges) else np.zeros((1, edges.shape[1])))


def sfm_to_hypergraph(sfm: StateFeedbackMatrix) -> StateFeedbackMatrix:
    """One vertex per packet; one edge per receiver with a nonzero row."""
    return _hypergraph(sfm.wants[sfm.wants.any(axis=1)])


def coloring_to_partition(c) -> Partition:
    """Color classes become generations, by ascending color; unused colors
    give no generation, so the work follows the vertex count, never the
    largest color value."""
    classes = {}
    for v, color in enumerate(check_ids(c, "color", "coloring")):
        classes.setdefault(color, []).append(v)
    if not classes:
        raise ValueError("cannot build a partition from an empty coloring")
    return Partition(tuple(classes[color] for color in sorted(classes)))


def partition_to_coloring(p: Partition) -> tuple[int, ...]:
    """Generation index becomes the color of each member packet."""
    assignment = [0] * p.n_packets
    for m, g in enumerate(p.generations):
        for k in g:
            assignment[k] = m
    return tuple(assignment)


def is_valid_coloring(h: StateFeedbackMatrix, c, gamma: int) -> SimpleNamespace:
    """Every (color, edge) pair whose intersection exceeds gamma, by ascending
    color, then edge, as .violations; .valid is True iff there are none."""
    c = check_ids(c, "color", "coloring")
    gamma = check_cap(gamma)
    if len(c) != h.n_packets:
        raise ValueError(f"coloring covers {len(c)} vertices, hypergraph has {h.n_packets}")
    colors = sorted(set(c))  # generation m of coloring_to_partition(c) is colors[m]
    over = generation_counts(h, coloring_to_partition(c)).T > gamma  # color class x edge
    violations = tuple((colors[m], n) for m, n in np.argwhere(over).tolist())
    return SimpleNamespace(violations=violations, valid=not violations)


# --- flat-file format -----------------------------------------------------

def parse_hypergraph(text: str) -> StateFeedbackMatrix:
    """Parse the hypergraph text format: "V E" header, then E vertex lists.
    The header is checked first, then each line; a bad line names its number."""
    v, e, body = read_rows(text, "V E", "edge lines", 1)
    wants = np.zeros((e, check_cap(v, "n_vertices")), dtype=np.uint8)
    for n, (lineno, fields) in enumerate(body):
        try:
            members = frozenset(int(tok) for tok in fields)
        except ValueError:
            raise SfmParseError("edges must be integer vertex lists", line=lineno) from None
        try:
            check_ids(members, "vertex id", "hyperedge")
        except ValueError as exc:
            raise SfmParseError(str(exc), line=lineno) from None
        bad = sorted(u for u in members if u >= v)
        if bad:
            raise SfmParseError(f"vertex ids out of range: {bad}", line=lineno)
        wants[n, list(members)] = 1
    return _hypergraph(wants)


def load_hypergraph(path) -> StateFeedbackMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def format_hypergraph(h: StateFeedbackMatrix) -> str:
    edges = [np.flatnonzero(row).tolist() for row in h.wants if row.any()]
    return format_rows((h.n_packets, len(edges)), edges)
