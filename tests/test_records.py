"""The result records: immutable named tuples whose repr, hash and equality
are those of the frozen dataclasses they replaced."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import pdmdirac
from pdmdirac import numerics, verify

_ARR = np.array([1.0, -0.5])
_RM = pdmdirac.RosenMorseSuperpotential(c1=-0.375, c2=4.0)
_PT = pdmdirac.PoschlTellerSuperpotential(a=12.0, b=3.0)
_LEVEL = pdmdirac.Level(n=1, e_bar=7.0, e_rel=complex(3.0, 0.0), is_real=True,
                        admissible=True)
_SPECTRUM = pdmdirac.LevelSpectrum((_LEVEL,))

# one record of each class, with the repr its frozen dataclass gave
RECORDS = [
    (pdmdirac.MassProfile(m=abs, dm=len),
     "MassProfile(m=<built-in function abs>, dm=<built-in function len>)"),
    (pdmdirac.RealPotential(v=abs, dv=len, d2v=min),
     "RealPotential(v=<built-in function abs>, dv=<built-in function len>, "
     "d2v=<built-in function min>)"),
    (pdmdirac.DiracPotential(v_r=abs, v_i=len),
     "DiracPotential(v_r=<built-in function abs>, v_i=<built-in function len>)"),
    (pdmdirac.SpinorPair(phi=_ARR, theta=_ARR, residual=1e-9),
     "SpinorPair(phi=array([ 1. , -0.5]), theta=array([ 1. , -0.5]), residual=1e-09)"),
    (pdmdirac.OperatorCoefficients(c2=abs, c1=len, c0=min),
     "OperatorCoefficients(c2=<built-in function abs>, c1=<built-in function len>, "
     "c0=<built-in function min>)"),
    (pdmdirac.CoshProfile(), "CoshProfile(delta=1.0, gamma=0.0, beta=0.0)"),
    (pdmdirac.CothProfile(delta=2.0, c=0.5, gamma=0.1, beta=-0.3),
     "CothProfile(delta=2.0, c=0.5, gamma=0.1, beta=-0.3)"),
    # a_vanishes is a field, so the repr shows it last
    (pdmdirac.ProfileValues(a=_ARR, a1=_ARR, a2=_ARR, b=0.5, b1=-0.5, a_vanishes=False),
     "ProfileValues(a=array([ 1. , -0.5]), a1=array([ 1. , -0.5]), "
     "a2=array([ 1. , -0.5]), b=0.5, b1=-0.5, a_vanishes=False)"),
    (pdmdirac.ConstraintSolution(sigma=1.0, beta=0.25, epsilon=-0.5, e_squared=1.5,
                                 m1_plus=0.5, m1_minus=None),
     "ConstraintSolution(sigma=1.0, beta=0.25, epsilon=-0.5, e_squared=1.5, "
     "m1_plus=0.5, m1_minus=None)"),
    (pdmdirac.EigenResult(eigenvalues=_ARR, eigenvectors=None),
     "EigenResult(eigenvalues=array([ 1. , -0.5]), eigenvectors=None)"),
    (numerics._tridiagonal(np.array([2.0, 3.0, 1.0]), -0.5),
     "_Tridiagonal(diag=array([2., 3., 1.]), rows=[2.0, 3.0, 1.0], e=-0.5, "
     "esq=0.25, pivmin=2.5e-293, suffix_min=[1.0, 1.0, 1.0], block_min=[], "
     "lo=0.0, hi=4.0)"),
    (_RM, "RosenMorseSuperpotential(c1=-0.375, c2=4.0)"),
    (_PT, "PoschlTellerSuperpotential(a=12.0, b=3.0, c=1.0)"),
    (pdmdirac.PartnerPotentials(v_minus=_ARR, v_plus=0.5),
     "PartnerPotentials(v_minus=array([ 1. , -0.5]), v_plus=0.5)"),
    (_LEVEL, "Level(n=1, e_bar=7.0, e_rel=(3+0j), is_real=True, admissible=True)"),
    (pdmdirac.RM2Coeffs(v0=0.0, v1=20.0, v2=-3.0), "RM2Coeffs(v0=0.0, v1=20.0, v2=-3.0)"),
    (pdmdirac.RM2Solution(coeffs=pdmdirac.RM2Coeffs(v0=0.0, v1=20.0, v2=-3.0), w=_RM,
                          spectrum=_SPECTRUM),
     "RM2Solution(coeffs=RM2Coeffs(v0=0.0, v1=20.0, v2=-3.0), "
     "w=RosenMorseSuperpotential(c1=-0.375, c2=4.0), "
     "spectrum=LevelSpectrum(levels=(Level(n=1, e_bar=7.0, e_rel=(3+0j), "
     "is_real=True, admissible=True),)))"),
    (pdmdirac.GPTSolution(w=_PT, spectrum=_SPECTRUM),
     "GPTSolution(w=PoschlTellerSuperpotential(a=12.0, b=3.0, c=1.0), "
     "spectrum=LevelSpectrum(levels=(Level(n=1, e_bar=7.0, e_rel=(3+0j), "
     "is_real=True, admissible=True),)))"),
    (pdmdirac.susy.LevelColumns(_ARR, _ARR, _ARR > 0.0, _ARR > 0.0, _ARR < 0.0),
     "LevelColumns(e_re=array([ 1. , -0.5]), e_im=array([ 1. , -0.5]), "
     "is_real=array([ True, False]), admissible=array([ True, False]), "
     "regular=array([False,  True]))"),
    (verify.Check("criterion 0: x", 0.25, 0.5),
     "Check(name='criterion 0: x', value=0.25, tol=0.5)"),
    (pdmdirac.BoundState(n=2, samples=_ARR, e_bar=11.0, nodes=2),
     "BoundState(n=2, samples=array([ 1. , -0.5]), e_bar=11.0, nodes=2)"),
]
_IDS = [type(record).__name__ for record, _ in RECORDS]

# the classes that stay frozen dataclasses: the first two validate in
# __post_init__, LevelSpectrum iterates its levels
DATACLASSES = {"Grid", "ModelParams", "LevelSpectrum"}


def _hashable(record) -> bool:
    try:
        hash(tuple(record))
    except TypeError:
        return False
    return True


def _package_classes():
    # every class defined in a module of the package, private ones included
    found = set()
    for info in pkgutil.iter_modules(pdmdirac.__path__):
        module = importlib.import_module(f"pdmdirac.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__}
    return found


@pytest.mark.parametrize("record, former", RECORDS, ids=_IDS)
def test_repr_is_the_former_dataclass_repr(record, former):
    assert repr(record) == former


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=_IDS)
def test_a_record_is_immutable(record):
    for name, value in zip(record._fields, record):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=_IDS)
def test_hash_and_equality_are_the_field_tuples(record):
    # a frozen dataclass hashed the tuple of its fields and compared them in
    # order; a tuple also equals a plain tuple of the same values
    copy = type(record)(*record)
    assert copy == record and copy == tuple(record)
    if _hashable(record):
        assert hash(copy) == hash(record) == hash(tuple(record))
        assert record != record._replace(**{record._fields[0]: object()})
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=_IDS)
def test_replace_returns_the_same_type(record):
    name = record._fields[-1]
    changed = record._replace(**{name: None})
    assert type(changed) is type(record)
    assert getattr(changed, name) is None
    assert changed._asdict().keys() == record._asdict().keys()


def test_only_the_three_validating_or_iterating_classes_are_dataclasses():
    classes = _package_classes()
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == DATACLASSES
    # every other record is a named tuple with its pinned repr above
    records = {c.__name__ for c in classes if issubclass(c, tuple)}
    assert records == set(_IDS)
