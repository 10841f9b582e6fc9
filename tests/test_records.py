"""The contract of the package's immutable value classes: equality, hash,
repr, keyword construction, immutability, copies and pickles."""

import copy
import pickle

import pytest

from wondermodels.cohomology import AdmissibleFunction, Part, WeightedPartition
from wondermodels.lattice import BuildingElement, GroupId, LatticeElement, Variant
from wondermodels.polytopes import Graph

BLOCK = BuildingElement("weak", (1, 2, 3), (0, 0, 0), 1)
PART = Part((1, 2, 3), (0, 1, 0), 1)

# (instance, the fields equality compares, its repr, its fields by keyword)
RECORDS = [
    (GroupId(2, 1, 3), (2, 1, 3), "GroupId(r=2, p=1, n=3)", dict(r=2, p=1, n=3)),
    (BuildingElement("weak", (1, 2), (0, 1), 2), ("weak", (1, 2), (0, 1)),
     "BuildingElement(kind='weak', support=(1, 2), weights=(0, 1), r=2)",
     dict(kind="weak", support=(1, 2), weights=(0, 1), r=2)),
    (LatticeElement(2, (3,), (((1, 2), (0, 1)),)), (2, (3,), (((1, 2), (0, 1)),)),
     "LatticeElement(r=2, zeros=(3,), blocks=(((1, 2), (0, 1)),))",
     dict(r=2, zeros=(3,), blocks=(((1, 2), (0, 1)),))),
    (AdmissibleFunction(GroupId(1, 1, 3), ((BLOCK, 1),)),
     (GroupId(1, 1, 3), ((BLOCK, 1),)),
     "AdmissibleFunction(group=GroupId(r=1, p=1, n=3), assignment=((BuildingElement("
     "kind='weak', support=(1, 2, 3), weights=(0, 0, 0), r=1), 1),))",
     dict(group=GroupId(1, 1, 3), assignment=((BLOCK, 1),))),
    (PART, ((1, 2, 3), (0, 1, 0), 1), "Part(members=(1, 2, 3), weights=(0, 1, 0), exponent=1)",
     dict(members=(1, 2, 3), weights=(0, 1, 0), exponent=1)),
    (WeightedPartition(3, (PART,)), (3, (PART,)),
     "WeightedPartition(ground_size=3, parts=(Part(members=(1, 2, 3), weights=(0, 1, 0), "
     "exponent=1),))", dict(ground_size=3, parts=(PART,))),
    (Graph((1, 2), frozenset({frozenset({1, 2})})), ((1, 2), frozenset({frozenset({1, 2})})),
     "Graph(nodes=(1, 2), edges=frozenset({frozenset({1, 2})}))",
     dict(nodes=(1, 2), edges=frozenset({frozenset({1, 2})}))),
]
IDS = [type(rec).__name__ for rec, _, _, _ in RECORDS]


@pytest.mark.parametrize("rec,key,text,fields", RECORDS, ids=IDS)
def test_equal_only_within_the_class_and_hashed_as_the_compared_fields(rec, key, text, fields):
    assert rec != key and key != rec and not rec == key
    assert hash(rec) == hash(key)
    twin = type(rec)(**fields)
    assert twin == rec and not twin != rec and hash(twin) == hash(rec)
    assert repr(rec) == repr(twin) == text
    assert {rec: 1}[twin] == 1


@pytest.mark.parametrize("rec,key,text,fields", RECORDS, ids=IDS)
def test_fields_can_be_neither_set_nor_deleted(rec, key, text, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == text


@pytest.mark.parametrize("rec", [rec for rec, _, _, _ in RECORDS], ids=IDS)
def test_no_attribute_outside_the_fields_can_be_set(rec):
    # a name outside the fields, a slot, a cached property or neither, is refused too
    for name in ("extra", "mask", "_view", "variant"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


@pytest.mark.parametrize("rec,key,text,fields", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal_records(rec, key, text, fields):
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec)
        assert repr(twin) == text
        assert all(getattr(twin, name) == value for name, value in fields.items())


def test_derived_facts_work_on_copies():
    g, graph = RECORDS[0][0], RECORDS[-1][0]
    for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin.variant is Variant.FULL_MONOMIAL and twin.min_zero_set == 1
    for twin in (copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert twin.neighbors(1) == {2} and twin.neighbors(3) == frozenset()


def test_building_elements_order_by_their_compared_fields():
    strong = BuildingElement("strong", (1, 2), (), 2)
    weak = BuildingElement("weak", (1, 2), (0, 1), 2)
    other_r = BuildingElement("weak", (1, 2), (0, 1), 3)  # r is outside identity
    assert strong < weak and strong <= weak and weak > strong and weak >= strong
    assert not weak < strong and not weak <= strong
    assert weak <= other_r and weak >= other_r and not weak < other_r
    assert weak == other_r and hash(weak) == hash(other_r)
    with pytest.raises(TypeError):
        weak < ("weak", (1, 2), (0, 1))
    with pytest.raises(TypeError):
        GroupId(1, 1, 3) < GroupId(1, 1, 4)
