"""Hypergraph view of the partitioning problem.

Packets are vertices; each receiver's want-set is a hyperedge.  A coloring
whose every color class meets every hyperedge in at most gamma vertices is
exactly a partition whose every generation has rank at most gamma, so the
minimum color count (the gamma-chromatic number) equals the minimum
generation count.  The conversions here are the executable form of that
equivalence, plus seeded random-instance generators for property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import optimal_partition
from .sfm import (Partition, SfmParseError, StateFeedbackMatrix, check_cap,
                  check_ids, format_rows, read_rows)

__all__ = [
    "Hypergraph",
    "Coloring",
    "ColoringReport",
    "NoReceiversError",
    "sfm_to_hypergraph",
    "hypergraph_to_sfm",
    "is_valid_coloring",
    "chromatic_number",
    "is_uniform",
    "coloring_to_partition",
    "partition_to_coloring",
    "random_hypergraph",
    "random_uniform_hypergraph",
    "parse_hypergraph",
    "load_hypergraph",
    "format_hypergraph",
]


class NoReceiversError(ValueError):
    """An edgeless hypergraph has no SFM counterpart (an SFM needs N >= 1)."""


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a multiset of hyperedges, each a frozenset of vertex
    ids that pass check_ids (duplicate edges are distinct receivers, so kept)."""

    n_vertices: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_vertices", check_cap(self.n_vertices, "n_vertices"))
        edges = tuple(frozenset(check_ids(e, "vertex id", "hyperedge")) for e in self.edges)
        for e in edges:
            if not e:
                raise ValueError("hyperedges must be nonempty")
            bad = [v for v in e if v >= self.n_vertices]
            if bad:
                raise ValueError(f"vertex ids out of range: {sorted(bad)}")
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self):
        return len(self.edges)


@dataclass(frozen=True)
class Coloring:
    """Total assignment vertex -> color index; the colors pass check_ids."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", check_ids(self.assignment, "color", "coloring"))

    @property
    def n_colors(self):
        return max(self.assignment) + 1 if self.assignment else 0


@dataclass(frozen=True)
class ColoringReport:
    violations: tuple[tuple[int, int], ...]  # (color, edge index) pairs over the cap

    @property
    def valid(self):
        return not self.violations


def sfm_to_hypergraph(sfm: StateFeedbackMatrix) -> Hypergraph:
    """One vertex per packet; one edge per receiver with a nonzero row."""
    supports = map(np.flatnonzero, sfm.wants)
    return Hypergraph(n_vertices=sfm.n_packets, edges=tuple(s for s in supports if s.size))


def hypergraph_to_sfm(h: Hypergraph) -> StateFeedbackMatrix:
    """One receiver per edge; raises NoReceiversError for edgeless inputs."""
    if not h.edges:
        raise NoReceiversError("edgeless hypergraph converts to an SFM with no receivers")
    a = np.zeros((h.n_edges, h.n_vertices), dtype=np.uint8)
    for n, e in enumerate(h.edges):
        a[n, sorted(e)] = 1
    return StateFeedbackMatrix(a)


def is_valid_coloring(h: Hypergraph, c: Coloring, gamma: int) -> ColoringReport:
    """List every (color, edge) pair whose intersection exceeds gamma."""
    gamma = check_cap(gamma)
    if len(c.assignment) != h.n_vertices:
        raise ValueError(
            f"coloring covers {len(c.assignment)} vertices, hypergraph has {h.n_vertices}"
        )
    violations = []
    for m, members in _color_classes(c):
        cls = set(members)
        for n, e in enumerate(h.edges):
            if len(cls & e) > gamma:
                violations.append((m, n))
    return ColoringReport(violations=tuple(violations))


def chromatic_number(h: Hypergraph, gamma: int):
    """Exact minimum color count with a witness, via the partition oracle."""
    gamma = check_cap(gamma)
    if not h.edges:
        return 1, Coloring(tuple(0 for _ in range(h.n_vertices)))
    result = optimal_partition(hypergraph_to_sfm(h), gamma)
    return result.min_generations, partition_to_coloring(result.witness)


def is_uniform(h: Hypergraph, omega: int) -> bool:
    return all(len(e) == omega for e in h.edges)


def _color_classes(c: Coloring):
    """(color, vertices) of every color in use, by ascending color: the work
    follows the vertex count, never the largest color value."""
    classes = {}
    for v, col in enumerate(c.assignment):
        classes.setdefault(col, []).append(v)
    return sorted(classes.items())


def coloring_to_partition(c: Coloring) -> Partition:
    """Color classes become generations, by ascending color; unused colors
    give no generation."""
    gens = tuple(cls for _, cls in _color_classes(c))
    if not gens:
        raise ValueError("cannot build a partition from an empty coloring")
    return Partition(gens, gamma_cap=None)


def partition_to_coloring(p: Partition) -> Coloring:
    """Generation index becomes the color of each member packet."""
    assignment = [0] * p.n_packets
    for m, g in enumerate(p.generations):
        for k in g.packet_ids:
            assignment[k] = m
    return Coloring(tuple(assignment))


# --- random instances for property tests ---------------------------------

def random_hypergraph(n_vertices, n_edges, edge_prob, rng) -> Hypergraph:
    """Each vertex joins each edge independently; empty draws get one random
    vertex so the nonempty-edge invariant holds."""
    edges = []
    for _ in range(n_edges):
        mask = rng.random(n_vertices) < edge_prob
        members = np.flatnonzero(mask)
        if members.size == 0:
            members = rng.integers(0, n_vertices, size=1)
        edges.append(members)
    return Hypergraph(n_vertices=n_vertices, edges=tuple(edges))


def random_uniform_hypergraph(n_vertices, n_edges, omega, rng) -> Hypergraph:
    """Exact omega-sized edges sampled without replacement."""
    if omega < 1 or omega > n_vertices:
        raise ValueError(f"need 1 <= omega <= |V|, got omega={omega} |V|={n_vertices}")
    edges = tuple(rng.choice(n_vertices, size=omega, replace=False) for _ in range(n_edges))
    return Hypergraph(n_vertices=n_vertices, edges=edges)


# --- flat-file format -----------------------------------------------------

def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hypergraph text format: "V E" header, then E vertex lists."""
    v, _, body = read_rows(text, "V E", "edge lines", 1)
    edges = []
    for lineno, fields in body:
        try:
            members = [int(tok) for tok in fields]
        except ValueError:
            raise SfmParseError("edges must be integer vertex lists", line=lineno) from None
        edges.append(frozenset(members))
    return Hypergraph(n_vertices=v, edges=tuple(edges))


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def format_hypergraph(h: Hypergraph) -> str:
    return format_rows((h.n_vertices, h.n_edges), map(sorted, h.edges))
