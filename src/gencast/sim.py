"""Two-phase broadcast simulation over independent erasure channels.

Offers the phases (systematic_phase, coded_phase), one trial (run_trial, a
per_trial.csv row), a Monte-Carlo cell (run_experiment: the trial rows in
trial order plus aggregate_rows of them) and SlotDraws, the block reader of
the coded slots' random draws.  Phase one broadcasts every packet once,
uncoded; its erasures form the state feedback matrix.  Phase two sends coded
packets generation by generation in round-robin rounds until every receiver
decodes all it wants, under one of the SCHEDULERS:

* feedback_rr - the sender knows the SFM: round 1 sends rank(G_m) packets of
  each generation; each later round sends, per unfinished generation, what
  its worst pending receiver still needs (strict_rr resends the rank).
* blind_rr - the sender never saw the SFM: every round sends one packet of
  every nonempty generation until the whole block is complete.

U is the coded slot (counted from 1) that completes the block; D averages,
over all wanted (receiver, packet) pairs, the slot at which the pair's
generation reached full rank, as an exact Fraction.  A trial with an
all-zero SFM sends no coded slot, has U = D = 0 and is flagged
empty_demand.  A trial is fixed by (seed, trial index): the same inputs
give the same row in either decode mode, serially or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import NamedTuple

import numpy as np

from .galois import get_field
from .partition import by_algorithm
from .rlnc import CodedPacket, DecoderState, encode, random_payloads
from .sfm import Partition, StateFeedbackMatrix, check_cap, delay_bound, generation_counts

__all__ = [
    "ChannelModel",
    "SlotDraws",
    "SimConfig",
    "TrialResult",
    "systematic_phase",
    "coded_phase",
    "trial_rng",
    "run_trial",
    "run_experiment",
    "SCHEDULERS",
    "DEFAULT_SEED",
]

SCHEDULERS = ("feedback_rr", "blind_rr", "strict_rr")
DEFAULT_SEED = 20200731


class ChannelModel(NamedTuple("ChannelModel", [("erasure_prob", float)])):
    """I.i.d. Bernoulli erasures, one probability for every receiver and slot."""

    __slots__ = ()

    def __new__(cls, erasure_prob):
        if type(p := erasure_prob) is bool or not isinstance(p, Real) or not 0 <= p < 1:
            raise ValueError(f"erasure_prob must be a real number in [0, 1), got {p!r}")
        return super().__new__(cls, p)

    def erased(self, rng, shape) -> np.ndarray:
        """Boolean erasure pattern: True where the copy is lost."""
        return rng.random(shape) < self.erasure_prob


_BLOCK = 256  # PCG64 words per random_raw call of SlotDraws


class SlotDraws:
    """One trial's coded-slot draws, read from its PCG64 words _BLOCK at a time.

    slot(g) returns exactly random_coefficients(g, rng, field), then
    ChannelModel(p).erased(rng, n).tolist() ([False] * n if p is None).  The g
    coefficients are the little-endian bytes of ceil(g / 4) 32-bit halves taken
    as next_uint32 takes them (the buffered half, else a new word's low half),
    cut to their top m bits over GF(2^m), where Lemire's step never rejects.
    Word w is an erasure iff (w >> 11) * 2**-53 < p, i.e. w < ceil(p * 2**53)
    << 11.  rng is left at an unspecified position.
    """

    def __init__(self, rng, field, n, erasure_prob):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise ValueError(f"slot draws need a PCG64 generator, got {type(bitgen).__name__}")
        state = bitgen.state
        self._carry = state["uinteger"].to_bytes(4, "little") if state["has_uint32"] else b""
        self._raw = bitgen.random_raw
        self._top_bits = (np.arange(256, dtype=np.uint8) >> (8 - field.m)).tobytes()
        self._n = 0 if erasure_prob is None else n  # erasure words per slot
        self._clear = [False] * n
        self._limit = None if erasure_prob is None else math.ceil(erasure_prob * (1 << 53)) << 11
        # little-endian bytes of the words read, their erasure flags, first unused word
        self._bytes, self._flags, self._pos = b"", [], 0

    def slot(self, g):
        """(coefficients, erased) of one slot coding g packets."""
        halves = (g + 3) // 4 - bool(self._carry)  # 32-bit halves taken from new words
        words, n, pos = (halves + 1) // 2, self._n, self._pos
        if (pos + words + n) * 8 > len(self._bytes):  # top up by whole blocks
            raw = self._raw(_BLOCK * ((words + n) // _BLOCK + 1))
            self._bytes = self._bytes[pos * 8:] + raw.astype("<u8", copy=False).tobytes()
            self._flags = self._flags[pos:] + (raw < self._limit).tolist() if n else []
            pos = 0
        end = pos + words
        buf = self._carry + self._bytes[pos * 8:end * 8]
        self._carry = buf[-4:] if halves % 2 else b""
        self._pos = end + n
        coeffs = np.frombuffer(buf[:g].translate(self._top_bits), np.uint8)
        return coeffs, self._flags[end:end + n] if n else self._clear


def check_seed(seed):
    """Reject a seed np.random.SeedSequence would refuse, naming the seed."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SimConfig:
    n_packets: int = 20
    n_receivers: int = 20
    gamma: int = 2
    erasure_prob: float = 0.2
    field_order: int = 256
    seed: int = DEFAULT_SEED  # master seed; a spec's config.seed or --seed overrides it
    trials: int = 1
    scheduler: str = "feedback_rr"
    coded_phase_erasures: bool = True
    payload_len: int = 32
    abstract_decode: bool = False

    def __post_init__(self):
        for name in ("n_packets", "n_receivers", "gamma", "trials", "payload_len", "field_order"):
            object.__setattr__(self, name, check_cap(getattr(self, name), name))
        for name in ("coded_phase_erasures", "abstract_decode"):
            if not isinstance(flag := getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        if self.gamma > self.n_packets:
            raise ValueError(f"need 1 <= gamma <= K, got gamma={self.gamma} K={self.n_packets}")
        check_seed(self.seed)
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}, got {self.scheduler!r}")
        ChannelModel(self.erasure_prob)  # rejects a probability outside [0, 1)
        get_field(self.field_order)  # rejects unsupported orders


class TrialResult(NamedTuple):
    completion_time: int  # U
    delay: Fraction  # D
    ranks: tuple[int, ...]  # rank of every generation, in partition order


def systematic_phase(n_packets, n_receivers, channel: ChannelModel, rng) -> StateFeedbackMatrix:
    """Broadcast each packet once; an entry is 1 iff that copy was erased."""
    misses = channel.erased(rng, (n_receivers, n_packets))
    return StateFeedbackMatrix(misses.astype(np.uint8))


def _schedule(cfg: SimConfig, gen_ids, ranks, pending):
    """The generation each coded slot serves, in send order; rounds start
    while some receiver is pending.

    blind_rr cycles over the nonempty generations.  feedback_rr sends each
    generation with a pending receiver its rank in round 1, then the largest
    needed among its pending decoders; strict_rr sends its rank every round.
    A quota is read at its generation's turn, which equals reading it at the
    round's start: only a generation's own slots change its pending set.
    """
    if cfg.scheduler == "blind_rr":
        nonempty = [m for m, ids in enumerate(gen_ids) if ids]
        while any(pending):
            yield from nonempty
        return
    resend = True  # round 1 sends every rank
    while any(pending):
        for m, waiting in enumerate(pending):
            if waiting:
                quota = ranks[m] if resend else max(s.needed for s in waiting.values())
                yield from [m] * quota
        resend = cfg.scheduler == "strict_rr"


def coded_phase(sfm, partition: Partition, cfg: SimConfig, rng) -> TrialResult:
    """Run coded rounds until every wanted (receiver, packet) pair decodes.

    Each waiting receiver's decoders read their want flags off one 0/255 copy
    of the wants in partition order.  With payloads, each decode is solved and
    checked against the sources.  rng must be a PCG64 generator; the slot
    draws leave it at an unspecified position (run_trial reads no more of it).
    """
    counts = generation_counts(sfm, partition)
    field = get_field(cfg.field_order)

    # both decode modes consume this draw, keeping their streams aligned
    payload_seed = int(rng.integers(0, 2**63))
    draws = SlotDraws(rng, field, sfm.n_receivers,
                      cfg.erasure_prob if cfg.coded_phase_erasures else None)
    payloads = None if cfg.abstract_decode else dict(enumerate(random_payloads(
        sfm.n_packets, cfg.payload_len, np.random.default_rng(payload_seed), field)))

    gen_ids = partition.generations  # each a tuple of its packet ids
    waiting = counts.T.tolist()  # per generation, each receiver's want count
    k, pending, stop = sfm.n_packets, [], 0
    flags = (sfm.wants[:, [pid for ids in gen_ids for pid in ids]] * np.uint8(255)).tobytes()
    for m, ids in enumerate(gen_ids):
        start, stop = stop, stop + len(ids)
        rows = {r: flags[r * k + start:r * k + stop] for r, c in enumerate(waiting[m]) if c}
        pending.append(DecoderState.for_generation(m, ids, rows, field, payloads))
    ranks = list(map(max, waiting))

    delay_sum = 0  # decode time summed over wanted (receiver, packet) pairs
    remaining = sum(map(len, pending))
    t = 0  # U when nothing is wanted
    for t, m in enumerate(_schedule(cfg, gen_ids, ranks, pending), 1):
        coeffs, erased = draws.slot(len(gen_ids[m]))
        if payloads is None:
            pkt = CodedPacket(m, coeffs, None)
        else:
            pkt = encode([payloads[k] for k in gen_ids[m]], coeffs, field, generation_id=m)
        for r, state in list(pending[m].items()):
            if erased[r]:
                continue
            state.absorb(pkt)
            if not state.needed:
                if payloads is not None and any(
                        got.tobytes() != payloads[k].tobytes() for k, got in state.solve().items()):
                    raise RuntimeError(f"receiver {r} decoded generation {m} wrongly")
                delay_sum += t * waiting[m][r]
                del pending[m][r]
                remaining -= 1
        if not remaining:
            break  # the block just completed; U is this time index

    n_wanted = int(counts.sum())
    delay = Fraction(delay_sum, n_wanted) if n_wanted else Fraction(0)
    return TrialResult(completion_time=t, delay=delay, ranks=tuple(ranks))


def trial_rng(master_seed, trial_index):
    """The independent RNG stream of one trial (or one oracle-gap instance)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial_index]))


def run_trial(cfg: SimConfig, trial_index: int) -> dict:
    """One independent trial; the row dict feeds the per-trial CSV."""
    rng = trial_rng(cfg.seed, trial_index)
    channel = ChannelModel(cfg.erasure_prob)
    sfm = systematic_phase(cfg.n_packets, cfg.n_receivers, channel, rng)
    part = by_algorithm(sfm, cfg.gamma, "blind" if cfg.scheduler == "blind_rr" else "heuristic")
    result = coded_phase(sfm, part, cfg, rng)
    return {
        "trial": trial_index,
        "scheduler": cfg.scheduler,
        "gamma": cfg.gamma,
        "N": cfg.n_receivers,
        "M": part.n_generations,
        "U": result.completion_time,
        "D": result.delay,
        "total_rank": sum(result.ranks),
        "apdd_bound": delay_bound(result.ranks),
        "empty_demand": int(not any(result.ranks)),
    }


def aggregate_rows(rows):
    """Exact-arithmetic reduction of trial rows into one aggregate cell.

    Sums are integers/Fractions, so worker completion order cannot change
    the result; floats appear only in the final division.
    """
    def stats(values):
        """Mean, sample std and 95% CI half-width; (0.0, 0.0, 0.0) if empty."""
        count = len(values)
        if count == 0:
            return 0.0, 0.0, 0.0
        total = sum(values)
        var = (sum(v ** 2 for v in values) - Fraction(total) ** 2 / count) / (count - 1) \
            if count > 1 else 0
        std = float(var) ** 0.5 if var > 0 else 0.0
        return float(total / count), std, 1.96 * std / count**0.5

    n = len(rows)
    delays = [row["D"] for row in rows if not row["empty_demand"]]
    mean_u, std_u, ci_u = stats([row["U"] for row in rows])
    mean_m, std_m, _ = stats([row["M"] for row in rows])
    mean_d, std_d, ci_d = stats(delays)
    return {
        "trials": n,
        "n_demand": len(delays),
        "mean_M": mean_m,
        "std_M": std_m,
        "mean_U": mean_u,
        "std_U": std_u,
        "ci95_U": ci_u,
        "mean_D": mean_d,
        "std_D": std_d,
        "ci95_D": ci_d,
        "mean_total_rank": sum(row["total_rank"] for row in rows) / n,
        "mean_apdd_bound": sum(row["apdd_bound"] for row in rows) / n,
    }


def run_experiment(cfg: SimConfig, workers: int = 1):
    """Monte-Carlo cell: per-trial rows (trial order) plus their aggregate."""
    workers = min(workers, cfg.trials)  # a forked pool starts all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, cfg.trials // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_trial, [cfg] * cfg.trials, range(cfg.trials),
                                 chunksize=chunk))
    else:
        rows = [run_trial(cfg, i) for i in range(cfg.trials)]
    return rows, aggregate_rows(rows)
