import dataclasses

import pytest

from hedgekit import SpaceList, space
from hedgekit.errors import SpaceError


def test_dims_and_labels():
    sp = space(("A", 2), ("B", 3))
    assert sp.dim == 6
    assert sp.labels == ("A", "B")
    assert sp.dims == (2, 3)
    assert sp.dim_of("B") == 3
    assert sp.position("B") == 1


def test_duplicate_labels_rejected():
    with pytest.raises(SpaceError):
        space(("A", 2), ("A", 2))


def test_nonpositive_dim_rejected():
    with pytest.raises(SpaceError):
        space(("A", 0))


def test_restrict_drop_concat():
    sp = space(("A", 2), ("B", 3), ("C", 2))
    assert sp.restrict(["C", "A"]).labels == ("A", "C")
    assert sp.drop(["B"]).labels == ("A", "C")
    joined = space(("A", 2)).concat(space(("B", 3)))
    assert joined.labels == ("A", "B")
    with pytest.raises(SpaceError):
        space(("A", 2)).concat(space(("A", 2)))


def test_reorder_requires_permutation():
    sp = space(("A", 2), ("B", 3))
    assert sp.reorder(("B", "A")).dims == (3, 2)
    with pytest.raises(SpaceError):
        sp.reorder(("A", "C"))


def test_relabel():
    sp = space(("A", 2), ("B", 3)).relabel({"A": "A#1"})
    assert sp.labels == ("A#1", "B")


def test_unknown_label():
    with pytest.raises(SpaceError):
        space(("A", 2)).restrict(["Q"])


def test_equal_entries_compare_and_hash_equal():
    # labels, dims and dim are stored once; equality, hashing and the repr
    # still read the entries alone
    a = space(("A", 2), ("B", 3))
    b = SpaceList([["A", 2.0], ("B", 3)])
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == repr(b) == "SpaceList(entries=(('A', 2), ('B', 3)))"
    assert a != space(("A", 2), ("B", 2)) and a != space(("B", 3), ("A", 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.dim = 7
