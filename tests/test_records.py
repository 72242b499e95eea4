"""The result types are plain slotted classes on one private base
(poly._Record): their constructors keep the parameters they had as
dataclasses, they compare field by field and print as Name(field=value,
...), the frozen ones hash by their fields and refuse assignment and
deletion, and the mutable ones are unhashable.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from polysolve import (
    PFQParams,
    PFQResult,
    PFQRootForm,
    PFQRootGroup,
    Polynomial,
    Quadrinomial,
    RDBoundRow,
    RootEntry,
    RootReport,
    SeriesDiagnostics,
    SquareDifferenceSplit,
    Trinomial,
)
from polysolve.pipeline import Shape

# (type, constructor arguments, a different last argument, the
# constructor's signature without annotations). The signatures are the
# dataclass ones, except that a field that got a fresh list or dict per
# instance (dataclass `<factory>`) now defaults to None and gets it then.
FROZEN = [
    (Polynomial, ([1, 2, 3],), [1, 2, 4], "(coeffs)"),
    (Trinomial, (5, 2, 1.5, 2.0), 3.0, "(s, b, alpha, q)"),
    (Quadrinomial, (5, 2, 1.0, 2.0, 3.0), 4.0, "(s, r, c, alpha, b)"),
    (RootEntry, (1j, 1e-15, 2, 3), 4, "(root, residual, branch=0, iterations=0)"),
    (PFQParams, ((1, 2), (3,)), (4,), "(upper, lower)"),
    (
        Shape,
        (Polynomial([1, 0, 1]), None, None, None),
        (1, 2, 3, 4),
        "(poly, tri=None, quad=None, septic=None)",
    ),
    (RDBoundRow, (5, 1, 4), 3, "(n, r, rd_max)"),
]
MUTABLE = [
    (
        RootReport,
        ([RootEntry(1j, 0.0)], "closed", ["w"], 1),
        2,
        "(roots, method, warnings=None, aimed=None)",
    ),
    (PFQResult, (1.5, 3, "converged"), "truncated", "(value, terms_used, status)"),
    (
        SeriesDiagnostics,
        ("converged", 10, 1j, 1e-12, 1e-15, 2, ["w"], {"a": 1}),
        {"a": 2},
        "(status, terms_used, series_value, pre_polish_residual, residual,"
        " iterations=0, warnings=None, notes=None)",
    ),
    (
        PFQRootGroup,
        (1j, Fraction(1, 3), PFQParams((1,), ()), 0.5),
        0.25,
        "(prefactor, power_of_q, params, argument)",
    ),
    (PFQRootForm, (Trinomial(3, 1, 1, 1), 0, []), [None], "(trinomial, k, groups)"),
    (
        SquareDifferenceSplit,
        ([1j], [2j], [3j], [4j], 1e-12),
        1e-11,
        "(omega, l_vars, w_plus, w_minus, residual)",
    ),
]
ALL = FROZEN + MUTABLE


def _ids(rows):
    return [row[0].__name__ for row in rows]


def _plain_signature(cls) -> str:
    sig = inspect.signature(cls)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def _with_last(args: tuple, last) -> tuple:
    return args[:-1] + (last,)


@pytest.mark.parametrize("cls, args, other, signature", ALL, ids=_ids(ALL))
class TestEveryRecord:
    def test_signature_is_pinned(self, cls, args, other, signature):
        assert _plain_signature(cls) == signature
        assert tuple(inspect.signature(cls).parameters) == cls.__slots__

    def test_compares_by_fields(self, cls, args, other, signature):
        x = cls(*args)
        assert x == cls(*args)
        assert x != cls(*_with_last(args, other))
        assert x != args and x != object()

    def test_repr_names_every_field(self, cls, args, other, signature):
        x = cls(*args)
        fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in cls.__slots__)
        assert repr(x) == f"{cls.__name__}({fields})"

    def test_slotted(self, cls, args, other, signature):
        x = cls(*args)
        assert not hasattr(x, "__dict__")
        with pytest.raises(AttributeError):
            x.no_such_field = 1

    def test_copy_and_pickle_round_trip(self, cls, args, other, signature):
        x = cls(*args)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x


@pytest.mark.parametrize("cls, args, other, signature", FROZEN, ids=_ids(FROZEN))
class TestFrozenRecord:
    def test_hashes_by_fields(self, cls, args, other, signature):
        assert hash(cls(*args)) == hash(cls(*args))
        assert len({cls(*args), cls(*args), cls(*_with_last(args, other))}) == 2

    def test_assignment_and_deletion_raise(self, cls, args, other, signature):
        x = cls(*args)
        name = cls.__slots__[-1]
        with pytest.raises(AttributeError):
            setattr(x, name, other)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert x == cls(*args)


@pytest.mark.parametrize("cls, args, other, signature", MUTABLE, ids=_ids(MUTABLE))
class TestMutableRecord:
    def test_unhashable(self, cls, args, other, signature):
        with pytest.raises(TypeError):
            hash(cls(*args))

    def test_fields_assign(self, cls, args, other, signature):
        x = cls(*args)
        setattr(x, cls.__slots__[-1], other)
        assert x == cls(*_with_last(args, other))


def test_literal_reprs():
    assert repr(Trinomial(5, 2, 1.5, 2)) == "Trinomial(s=5, b=2, alpha=(1.5+0j), q=(2+0j))"
    assert repr(RootEntry(1j, 0.0)) == "RootEntry(root=1j, residual=0.0, branch=0, iterations=0)"
    assert repr(RootReport([], "oracle")) == "RootReport(roots=[], method='oracle', warnings=[], aimed=None)"
    assert repr(Polynomial([1, 2])) == "Polynomial(coeffs=((1+0j), (2+0j)))"


def test_default_lists_and_dicts_are_fresh():
    a, b = RootReport([], "closed"), RootReport([], "closed")
    assert a.warnings == [] and a.warnings is not b.warnings
    d, e = (SeriesDiagnostics("converged", 1, 0j, 0.0, 0.0) for _ in range(2))
    assert d.warnings is not e.warnings and d.notes is not e.notes


def test_given_warnings_list_is_kept():
    warnings: list[str] = []
    report = RootReport([], "closed", warnings)
    warnings.append("late")
    assert report.warnings == ["late"]
