"""The package's record classes: construction, equality, hashing, repr,
immutability and pickling, each as a frozen dataclass would give them."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from jordanlab import (
    CanonicalParams,
    Decomposition,
    ImageAlgebra,
    JordanAutomorphism,
    NcPoly,
    Partition,
    QMatrix,
    QuiverData,
    RepPair,
    RewriteSystem,
    SpanBuilder,
    StratumInfo,
    TameLabel,
    UniPoly,
    Violation,
    epsilon_rep,
    image_algebra,
    jordan_block,
    x_zero,
)

EPS3 = epsilon_rep(3)
A3 = image_algebra(EPS3)
RULES = (("xy", NcPoly({"yx": 1, "yy": 1})),)

# class -> (field names, field values, values of an unequal record); the
# values are given as the constructor stores them.
RECORDS = {
    QMatrix: (("rows", "cols", "entries"), (2, 2, (1, 0, Fraction(1, 2), 1)),
              (2, 2, (1, 0, 0, 1))),
    SpanBuilder: (("length", "rows", "pivots"), (3, [[1, 0, 2]], [0]), (3, [[0, 1, 2]], [1])),
    RewriteSystem: (("alphabet", "rules"), (("y", "x"), RULES), (("x", "y"), ())),
    JordanAutomorphism: (("alpha", "p"), (2, UniPoly([0, 1])), (2, UniPoly([1]))),
    Partition: (("parts",), ((3, 2),), ((3, 1, 1),)),
    RepPair: (("X", "Y"), (x_zero(3), jordan_block(3)), (QMatrix.zeros(3), QMatrix.zeros(3))),
    Violation: (("residual",), (jordan_block(2),), (QMatrix.identity(2),)),
    CanonicalParams: (("lam", "mu"), (1, Fraction(1, 2)), (1, 0)),
    ImageAlgebra: (("rep", "rows", "pivots"),
                   (EPS3, A3.rows, A3.pivots), (EPS3, A3.rows[:-1], A3.pivots[:-1])),
    QuiverData: (("vertices", "arrows"), ((0,), ((1,),)), ((0,), ((2,),))),
    StratumInfo: (("partition", "fiber_dim", "base_dim", "stratum_dim", "image_dim_bound",
                   "tame"), (Partition((2,)), 2, 2, 4, 2, TameLabel.TAME),
                  (Partition((2,)), 2, 2, 4, 2, TameLabel.UNKNOWN)),
    Decomposition: (("summands", "eigenvalues", "change_of_basis"),
                    ((EPS3,), (0,), QMatrix.identity(3)), ((EPS3,), (1,), QMatrix.identity(3))),
}
IDS = [cls.__name__ for cls in RECORDS]


def copied(value):
    """An equal value that is not the same object where that is possible."""
    if isinstance(value, list):
        return [copied(v) for v in value]
    return value


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_construction_and_fields(cls):
    names, values, _ = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, map(copied, values))))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert not by_position != by_keyword


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_equality_is_by_fields_and_class(cls):
    names, values, other = RECORDS[cls]
    record = cls(*values)
    assert record != cls(*other)
    assert record.__eq__(object()) is NotImplemented
    assert record != values
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert record != subclass(*values)
    assert subclass(*values) == subclass(*map(copied, values))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_hash(cls):
    _, values, other = RECORDS[cls]
    record = cls(*values)
    if cls is SpanBuilder:
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(cls(*map(copied, values)))
    assert len({record, cls(*values), cls(*other)}) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(cls):
    names, values, other = RECORDS[cls]
    record = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_repr(cls):
    names, values, _ = RECORDS[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_pickles(cls):
    _, values, _ = RECORDS[cls]
    record = cls(*values)
    assert pickle.loads(pickle.dumps(record)) == record


def test_repr_examples():
    assert repr(Partition((3, 2))) == "Partition(parts=(3, 2))"
    assert repr(CanonicalParams(1, Fraction(1, 2))) == "CanonicalParams(lam=1, mu=Fraction(1, 2))"
    assert repr(SpanBuilder(2)) == "SpanBuilder(length=2, rows=[], pivots=[])"


def test_span_builder_starts_with_fresh_lists():
    first, second = SpanBuilder(2), SpanBuilder(2)
    first.add([1, 0])
    assert second.rows == [] and second.pivots == []
    assert first.rows == [[1, 0]] and first.pivots == [0]


def test_image_algebra_caches_its_basis():
    a = image_algebra(EPS3)
    assert "basis" not in vars(a)
    basis = a.basis
    assert a.basis is basis and vars(a)["basis"] is basis


@pytest.mark.parametrize("cls, args", [(QMatrix, (1, 1, (5,))),
                                       (RepPair, (QMatrix.zeros(1), QMatrix.zeros(1)))])
def test_post_init_replaced_on_the_class_runs_on_construction(monkeypatch, cls, args):
    """A wrapper set on the class, as a tracer installs one, sees every
    construction: ``__init__`` looks ``__post_init__`` up on the instance."""
    calls = []
    original = cls.__post_init__

    def wrapped(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "__post_init__", wrapped)
    record = cls(*args)
    assert calls == [record]
