"""The contract of the package's immutable value classes: equality, hash,
repr, construction by position or keyword and its refusals, immutability,
copies and pickles."""

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


@pytest.mark.parametrize("rec,key,text,fields", RECORDS, ids=IDS)
def test_the_base_constructor_refuses_a_wrong_argument_list(rec, key, text, fields):
    # one constructor for every record: fields by position or keyword, and
    # TypeError on a missing, extra, unknown or repeated one
    cls, names = type(rec), list(fields)
    values = [fields[name] for name in names]
    assert cls(*values[:1], **{name: fields[name] for name in names[1:]}) == rec
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: {names[-1]!r}"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: {names[0]!r}"):
        cls(**{name: fields[name] for name in names[1:]})
    with pytest.raises(TypeError, match="positional arguments but .* were given$"):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match=f"multiple values for argument {names[0]!r}"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match=f"^{cls.__name__}.__init__"):
        cls()


@pytest.mark.parametrize("build,message", [
    # a negative coordinate once raised "negative shift count" from the mask
    (lambda: BuildingElement("weak", (-1, 2), (0, 1), 2), "canonical form$"),
    (lambda: BuildingElement.weak((1, 2), (0, 0), True), "canonical form$"),  # r = True
    # weak once reduced its weights mod r before r was checked: r = 0 raised
    # ZeroDivisionError, and r = 'x' a TypeError
    (lambda: BuildingElement.weak((1, 2), (0, 0), 0), "canonical form$"),
    (lambda: BuildingElement.weak((1, 2), (0, 0), "x"), "canonical form$"),
    # an edge to no node once built, and neighbors(1) then raised KeyError
    (lambda: Graph((1, 2), frozenset({frozenset({1, 5})})), "^bad edge"),
    (lambda: Graph((1, 2), frozenset({(1, 2)})), "^bad edge"),
    (lambda: Graph((1, 2), frozenset({frozenset({1})})), "^bad edge"),
], ids=["negative-coordinate", "bool-r", "zero-r", "str-r", "edge-off-the-graph",
        "tuple-edge", "loop"])
def test_a_record_out_of_canonical_form_is_refused_at_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()
