"""State feedback matrix, generations, partitions, and their closed-form metrics.

The state feedback matrix (SFM) is the single piece of receiver feedback the
sender collects: a binary N x K matrix where entry (n, k) = 1 means receiver n
missed packet k in the systematic phase and still wants it.  A partition
groups the K packets into disjoint generations; the rank of a generation is
the largest number of its packets wanted by any single receiver, which is the
number of coded packets that receiver needs to decode the generation.

A Partition is a disjoint cover of packets 0..K-1 by construction: it checks
the cover once, when it is built, so nothing downstream checks it again.  The
build reads every group, a Generation (a tuple of its ids) or any iterable of
ids, the same way: all ids join one flat list, checked once, and each
generation is built from its slice without Generation's own check, since a
cover holds each id once.  The cover is tested without sorting: K non-negative
ids whose largest is K-1 and which are all distinct are exactly 0..K-1.  A
non-cover's error prints a run of missing ids as a..b, and a negative-id error
names at most five of them, so neither grows with the ids given.

Every metric of a partition derives from one N x M count matrix,
generation_counts, which only checks that the partition's K is the SFM's:
a generation's rank is its column max (generation_ranks), total rank the sum
of ranks, and the delay bound (delay_bound) the sum of r(r+1)/2 over ranks.

It holds the one input rule, check_ids for ids and colours and check_cap for
rank caps, and the one reader and writer (read_rows, format_rows) of the
"A B" header plus rows layout that the SFM and hypergraph files share.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "StateFeedbackMatrix",
    "Generation",
    "Partition",
    "PartitionReport",
    "generation_counts",
    "generation_ranks",
    "validate_partition",
    "total_rank",
    "delay_bound",
    "apdd_upper_bound",
    "is_irreducible",
    "parse_sfm",
    "load_sfm",
    "format_sfm",
    "partition_to_json",
    "partition_from_json",
    "SfmParseError",
    "check_ids",
    "check_generation_ids",
    "check_cap",
    "read_rows",
    "format_rows",
]


class SfmParseError(ValueError):
    """Malformed SFM or hypergraph text; carries 1-based line/column positions."""

    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


def _integer(value):
    """The type rule: a Python or numpy integer as an int, else None (bool too)."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    return None


_INT = frozenset({int})


def check_ids(values, what="packet id", where="generation") -> tuple[int, ...]:
    """Ids or colours as a tuple of int: each passes _integer and is >= 0."""
    ids = tuple(values)
    if not _INT.issuperset(map(type, ids)):  # plain ints need no conversion
        ints = tuple(map(_integer, ids))
        if None in ints:
            raise ValueError(f"{what}s must be integers, got {ids[ints.index(None)]!r}")
        ids = ints
    if ids and min(ids) < 0:
        bad = [i for i in ids if i < 0]
        shown = ", ".join(map(str, bad[:5])) + (", ..." if len(bad) > 5 else "")
        raise ValueError(f"negative {what} in {where}: {shown} ({len(bad)} of {len(ids)} ids)")
    return ids


def check_generation_ids(values) -> tuple[int, ...]:
    """One generation's packet ids: check_ids, and no id twice."""
    ids = check_ids(values)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate packet ids in generation: {ids}")
    return ids


def check_cap(gamma, what="gamma") -> int:
    """A rank cap (or another count, named what) as an int: _integer and >= 1."""
    cap = _integer(gamma)
    if cap is None or cap < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {gamma!r}")
    return cap


class StateFeedbackMatrix:
    """Immutable binary want-matrix collected after the systematic phase."""

    def __init__(self, wants):
        a = np.asarray(wants, dtype=np.uint8)
        if a.ndim != 2:
            raise ValueError(f"SFM must be 2-dimensional, got shape {a.shape}")
        n, k = a.shape
        if n < 1 or k < 1:
            raise ValueError(f"SFM needs at least one receiver and one packet, got {n}x{k}")
        if (a > 1).any():  # uint8, so nothing is below 0
            raise ValueError("SFM entries must be 0 or 1")
        a.setflags(write=False)
        self.wants = a
        self.n_receivers = n
        self.n_packets = k

    @cached_property
    def receiver_bitsets(self) -> tuple[int, ...]:
        """One receiver bitset per packet: bit n of entry k is set iff
        receiver n wants packet k.  Built once, on first use."""
        width = (self.n_receivers + 7) // 8
        packed = np.packbits(self.wants, axis=0, bitorder="little").T.tobytes()
        return tuple(int.from_bytes(packed[k * width:(k + 1) * width], "little")
                     for k in range(self.n_packets))

    def __eq__(self, other):
        if not isinstance(other, StateFeedbackMatrix):
            return NotImplemented
        return self.wants.shape == other.wants.shape and bool((self.wants == other.wants).all())

    def __repr__(self):
        return f"StateFeedbackMatrix(N={self.n_receivers}, K={self.n_packets})"


class Generation(tuple):
    """An ordered set of packet ids that pass check_generation_ids: a tuple of them."""

    __slots__ = ()

    def __new__(cls, packet_ids):
        return super().__new__(cls, check_generation_ids(packet_ids))

    packet_ids = property(tuple, doc="The ids as a plain tuple.")

    def __repr__(self):
        return f"Generation(packet_ids={tuple(self)!r})"


class Partition:
    """Ordered generations that disjointly cover packets 0..K-1, each id once (a
    generation may be empty), and gamma_cap, the rank budget they were built for
    (None if the producer had none, e.g. the blind splitter).  Its fields are
    read-only; equality and hash ignore n_packets (K), which follows from the rest."""

    __slots__ = ("_generations", "_gamma_cap", "_n_packets")

    def __init__(self, generations, gamma_cap=None):
        ids, bounds = [], []  # every group's ids in one flat list, each group a slice of it
        for g in generations:
            start = len(ids)
            ids.extend(g)
            bounds.append(slice(start, len(ids)))
        ids = check_ids(ids, where="partition")
        self._gamma_cap = None if gamma_cap is None else check_cap(gamma_cap)
        n = len(ids)
        # ids are non-negative ints, so n distinct ones below n are exactly 0..n-1
        if n and (max(ids) != n - 1 or len(set(ids)) != n):
            distinct = sorted(set(ids))
            duplicated = sorted(i for i, c in Counter(ids).items() if c > 1)
            gaps = [(a + 1, b - 1) for a, b in zip([-1] + distinct, distinct) if b - a > 1]
            missing = ", ".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in gaps)
            raise ValueError(f"partition does not disjointly cover packets 0..{distinct[-1]}: "
                             f"duplicated ids {duplicated}, missing ids [{missing}]")
        self._generations = tuple(tuple.__new__(Generation, ids[b]) for b in bounds)
        self._n_packets = n

    generations = property(lambda self: self._generations)
    gamma_cap = property(lambda self: self._gamma_cap)
    n_packets = property(lambda self: self._n_packets)

    @property
    def n_generations(self):
        return len(self._generations)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._generations, self._gamma_cap) == (other._generations, other._gamma_cap)

    def __hash__(self):
        return hash((self._generations, self._gamma_cap))

    def __repr__(self):
        return f"Partition(generations={self._generations!r}, gamma_cap={self._gamma_cap!r})"


class PartitionReport(NamedTuple):
    """Outcome of validate_partition; valid iff no generation exceeds the cap."""

    rank_violations: tuple[tuple[int, int], ...] = ()  # (generation index, rank)

    @property
    def valid(self):
        return not self.rank_violations


def generation_counts(sfm: StateFeedbackMatrix, p: Partition) -> np.ndarray:
    """N x M int64 matrix: entry (n, m) is how many packets of generation m
    receiver n still wants.

    Every partition metric derives from it: a generation's rank is its
    column max.  Raises ValueError when p covers a different K than sfm.
    """
    if p.n_packets != sfm.n_packets:
        raise ValueError(f"partition covers K={p.n_packets} packets, SFM has K={sfm.n_packets}")
    membership = np.zeros((sfm.n_packets, p.n_generations), dtype=np.int64)
    rows = [k for g in p.generations for k in g]
    membership[rows, np.repeat(np.arange(p.n_generations), [len(g) for g in p.generations])] = 1
    return sfm.wants @ membership


def generation_ranks(sfm, p: Partition) -> list[int]:
    """Rank of every generation of p, in partition order."""
    return generation_counts(sfm, p).max(axis=0).tolist()


def validate_partition(sfm, p: Partition, gamma: int) -> PartitionReport:
    """Every generation of p whose rank exceeds gamma, as (index, rank) pairs.

    p covers its block by construction; like generation_counts, this raises
    ValueError when p covers a different K than sfm.
    """
    gamma = check_cap(gamma)
    ranks = generation_ranks(sfm, p)
    return PartitionReport(tuple((m, r) for m, r in enumerate(ranks) if r > gamma))


def total_rank(sfm, p: Partition) -> int:
    """Sum of generation ranks: erasure-free coded-phase transmission count."""
    return sum(generation_ranks(sfm, p))


def delay_bound(ranks) -> int:
    """Closed-form delay bound: sum of r*(r+1)/2 over generation ranks r.

    Each term is a triangular number, so the bound is an exact integer.
    """
    return sum(r * (r + 1) // 2 for r in ranks)


def apdd_upper_bound(sfm, p: Partition) -> int:
    """The delay bound of p's generation ranks."""
    return delay_bound(generation_ranks(sfm, p))


def is_irreducible(sfm, p: Partition) -> bool:
    """True iff no packet can move to any earlier generation without raising
    that generation's rank."""
    counts = generation_counts(sfm, p)
    ranks = counts.max(axis=0)
    for n in range(p.n_generations - 1):
        # rank generation n would have with each packet appended
        new_ranks = (counts[:, n, None] + sfm.wants).max(axis=0)
        later = [k for g in p.generations[n + 1:] for k in g]
        if (new_ranks[later] <= ranks[n]).any():
            return False
    return True


# --- flat-file formats ---------------------------------------------------

def read_rows(text: str, header: str, rows: str, counted: int, positive: bool = False):
    """The two integers of an "A B" header (named by header, e.g. "N K"; both
    >= 1 if positive) and the non-blank rows below it as (line number,
    fields) pairs, as many as the header integer at index counted."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise SfmParseError(f"missing '{header}' header", line=1)
    fields = lines[0].split()
    if len(fields) != 2:
        raise SfmParseError(f"header must be '{header}', got {lines[0]!r}", line=1)
    try:
        values = int(fields[0]), int(fields[1])
    except ValueError:
        raise SfmParseError(f"header must be two integers, got {lines[0]!r}", line=1) from None
    if positive and min(values) < 1:
        (a, x), (b, y) = zip(header.split(), values)
        raise SfmParseError(f"need {a} >= 1 and {b} >= 1, got {a}={x} {b}={y}", line=1)
    body = [(lineno, ln.split()) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    want = values[counted]
    if len(body) != want:
        # the first surplus line, or the line after the end of a short body
        line = body[want][0] if 0 <= want < len(body) else len(lines) + 1
        raise SfmParseError(f"expected {want} {rows}, found {len(body)}", line=line)
    return values[0], values[1], body


def format_rows(header, rows) -> str:
    """The text read_rows reads back: the two header integers, then one line per row."""
    return "".join(" ".join(map(str, row)) + "\n" for row in (header, *rows))


def parse_sfm(text: str) -> StateFeedbackMatrix:
    """Parse the SFM text format: "N K" header, then N rows of K 0/1 digits."""
    n, k, body = read_rows(text, "N K", "matrix rows", 0, positive=True)
    for lineno, fields in body:
        if len(fields) != k:
            raise SfmParseError(f"expected {k} entries, found {len(fields)}", line=lineno)
        for col, f in enumerate(fields, start=1):
            if f not in ("0", "1"):
                raise SfmParseError(f"entry must be 0 or 1, got {f!r}", line=lineno, column=col)
    return StateFeedbackMatrix([list(map(int, fields)) for _, fields in body])


def load_sfm(path) -> StateFeedbackMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sfm(fh.read())


def format_sfm(sfm: StateFeedbackMatrix) -> str:
    return format_rows((sfm.n_receivers, sfm.n_packets), sfm.wants.tolist())


def partition_to_json(p: Partition) -> str:
    doc = {
        "gamma": p.gamma_cap,
        "generations": [list(g) for g in p.generations],
    }
    return json.dumps(doc)


def partition_from_json(text: str) -> Partition:
    """The Partition of a partition JSON document; a non-cover is a ValueError."""
    doc = json.loads(text)
    groups = doc.get("generations") if isinstance(doc, dict) else None
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError("partition JSON must be an object whose 'generations' is a list of "
                         "packet-id lists")
    return Partition(tuple(groups), gamma_cap=doc.get("gamma"))
