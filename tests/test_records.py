"""The contract of gencast's record types, built without dataclass code
generation: how callers construct them, what they read off them, equality,
hashing, immutability of the value records, pickling and the validation
messages.  Only SimConfig and ExperimentSpec, which callers pass to
dataclasses.replace, are dataclasses."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re
from fractions import Fraction

import numpy as np
import pytest

import gencast
from gencast import (
    ChannelModel,
    CodedPacket,
    Generation,
    OracleResult,
    Partition,
    PartitionerConfig,
    SimConfig,
    TrialResult,
    coded_phase,
    heuristic_partition,
    optimal_partition,
    systematic_phase,
    validate_partition,
)
from gencast.sfm import PartitionReport

from conftest import random_sfm


def value_records():
    """One of each value record, built as the package's callers build it."""
    sfm = random_sfm(np.random.default_rng(3), 5, 8, 0.4)
    part = Partition(((0, 1, 2), (3, 4, 5, 6, 7)), gamma_cap=2)
    return {
        "Generation": Generation((2, np.int64(0), 1)),
        "Partition": part,
        "PartitionReport": validate_partition(sfm, part, 1),
        "PartitionerConfig": PartitionerConfig(gamma_cap=2),
        "OracleResult": optimal_partition(sfm, 2),
        "ChannelModel": ChannelModel(0.2),
        "TrialResult": TrialResult(7, Fraction(9, 2), (2, 1)),
    }


FIELDS = {  # each value record's fields, in constructor order
    "Generation": ("packet_ids",),
    "Partition": ("generations", "gamma_cap", "n_packets"),
    "PartitionReport": ("rank_violations",),
    "PartitionerConfig": ("gamma_cap",),
    "OracleResult": ("witness", "nodes_explored", "heuristic"),
    "ChannelModel": ("erasure_prob",),
    "TrialResult": ("completion_time", "delay", "ranks"),
}


def test_only_sim_config_and_experiment_spec_are_dataclasses():
    modules = [importlib.import_module(f"gencast.{m.name}")
               for m in pkgutil.iter_modules(gencast.__path__)]
    found = sorted(name for mod in modules for name, obj in vars(mod).items()
                   if inspect.isclass(obj) and obj.__module__ == mod.__name__
                   and dataclasses.is_dataclass(obj))
    assert found == ["ExperimentSpec", "SimConfig"]
    assert dataclasses.is_dataclass(SimConfig)


def test_construction_shapes_and_attributes():
    groups = ((0, 1), (2,))
    assert PartitionerConfig(gamma_cap=3) == PartitionerConfig(3)
    assert PartitionerConfig(np.int64(3)).gamma_cap == 3
    assert type(PartitionerConfig(np.int64(3)).gamma_cap) is int
    p = Partition(groups, gamma_cap=2)
    assert p == Partition(groups, 2) == Partition(generations=groups, gamma_cap=2)
    assert (p.generations, p.gamma_cap, p.n_packets, p.n_generations) == (groups, 2, 3, 2)
    assert all(type(g) is Generation for g in p.generations)
    assert Partition(groups).gamma_cap is None
    assert ChannelModel(0.2) == ChannelModel(erasure_prob=0.2)
    assert ChannelModel(0.2).erasure_prob == 0.2
    g = Generation(packet_ids=[3, 1])
    assert (g.packet_ids, type(g.packet_ids), len(g), list(g)) == ((3, 1), tuple, 2, [3, 1])
    assert PartitionReport().rank_violations == () and PartitionReport().valid
    report = PartitionReport(rank_violations=((0, 3),))
    assert not report.valid and report.rank_violations == ((0, 3),)
    result = TrialResult(completion_time=4, delay=Fraction(5, 2), ranks=(2, 2))
    assert (result.completion_time, result.delay, result.ranks) == (4, Fraction(5, 2), (2, 2))
    oracle = OracleResult(witness=p, nodes_explored=0, heuristic=p)
    assert (oracle.witness, oracle.nodes_explored, oracle.heuristic) == (p, 0, p)
    assert oracle.min_generations == 2
    coeffs, payload = np.array([1, 2], np.uint8), np.zeros(3, np.uint8)
    pkt = CodedPacket(generation_id=1, coefficients=coeffs, payload=payload, products=None)
    assert (pkt.generation_id, pkt.coefficients, pkt.payload) == (1, coeffs, payload)
    assert pkt.products is pkt.read is pkt.payload_field is None
    assert CodedPacket(0, coeffs, None).payload is None


def test_attributes_the_tracer_reads():
    # perfbench's tracer hooks read these off the results it wraps
    rng = np.random.default_rng(1)
    sfm = systematic_phase(6, 4, ChannelModel(0.3), rng)
    part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
    result = coded_phase(sfm, part, SimConfig(n_packets=6, n_receivers=4, abstract_decode=True),
                         rng)
    assert isinstance(result.completion_time, int) and result.completion_time >= sum(result.ranks)
    oracle = optimal_partition(sfm, 2)
    assert isinstance(oracle.nodes_explored, int)
    assert oracle.min_generations == oracle.witness.n_generations


def test_equality_and_hash():
    a, b = value_records(), value_records()
    for name in FIELDS:
        assert a[name] == b[name] and not a[name] != b[name], name
        assert hash(a[name]) == hash(b[name]), name
    groups = ((0, 1), (2,))
    assert Partition(groups, gamma_cap=2) != Partition(groups, gamma_cap=3)
    assert Partition(groups, gamma_cap=2) != Partition(groups)
    assert Partition(groups) != Partition(((0,), (1, 2)))
    assert Partition(groups) != Partition(((1, 0), (2,)))  # generation order is kept
    assert Partition(groups) != groups
    assert Generation((0, 1)) != Generation((1, 0))
    assert PartitionerConfig(2) != PartitionerConfig(3)
    assert ChannelModel(0.2) != ChannelModel(0.3)
    # CodedPacket compares by identity: test_rlnc.py::test_coded_packets_compare_by_identity


def test_value_records_are_immutable():
    for name, record in value_records().items():
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict either
    # a Partition is no sequence of its fields
    p = Partition(((0,),))
    with pytest.raises(TypeError):
        iter(p)
    with pytest.raises(TypeError):
        len(p)


def test_pickle_round_trip():
    for name, record in value_records().items():
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record, name
        assert [getattr(copy, f) for f in FIELDS[name]] == \
            [getattr(record, f) for f in FIELDS[name]], name
    pkt = CodedPacket(2, np.array([1, 3], np.uint8), np.arange(4, dtype=np.uint8))
    pkt.read, pkt.payload_field = (b"\x01\x03", 0x0301, None), None
    copy = pickle.loads(pickle.dumps(pkt))
    assert copy is not pkt and copy.generation_id == 2 and copy.read == pkt.read
    assert copy.coefficients.tolist() == [1, 3] and copy.payload.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("build, message", [
    (lambda: PartitionerConfig(gamma_cap=0), "gamma must be an integer >= 1, got 0"),
    (lambda: PartitionerConfig(True), "gamma must be an integer >= 1, got True"),
    (lambda: ChannelModel(1.0), "erasure_prob must be a real number in [0, 1), got 1.0"),
    (lambda: ChannelModel(True), "erasure_prob must be a real number in [0, 1), got True"),
    (lambda: Generation((1, 1)), "duplicate packet ids in generation: (1, 1)"),
    (lambda: Generation((0, -1)), "negative packet id in generation: -1 (1 of 2 ids)"),
    (lambda: Partition(((0,), (0, 3))), "partition does not disjointly cover packets 0..3: "
                                        "duplicated ids [0], missing ids [1..2]"),
    (lambda: Partition(((0,),), gamma_cap=0), "gamma must be an integer >= 1, got 0"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
