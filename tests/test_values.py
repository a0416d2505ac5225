"""The value classes: equality, hash, repr, immutability and constructor checks.

Each case builds one instance from positional arguments and one from other
arguments.  The recorded reprs are those the classes have printed since they
were first written, so a repr change shows here.
"""

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from selmat.combinat import Permutation
from selmat.exact import Approx
from selmat.jack import SymPoly
from selmat.moments import EnsembleSpec, MomentReport, RationalFunction
from selmat.oracle import QuadratureSpec, SampleEstimate
from selmat.selberg import ParamOutOfRangeError, SelbergParams
from selmat.verify import CheckResult
from selmat.weingarten import CovarianceReport

HERMITIAN = EnsembleSpec("self_adjoint", 2)
MOMENTS_AT_3 = (F(17, 35), F(37, 105), F(1, 5), F(-1, 5), F(164, 1225), F(164, 289))
COVARIANCE_AT_3 = (F(1, 7), F(6, 35), F(-1, 35), F(3, 35), F(6, 35), F(2), True)

# class, arguments, other arguments, hashable, repr of cls(*arguments); every class is frozen
CASES = [
    (Permutation, ((2, 1, 3),), ((1, 2, 3),), True, "Permutation(images=(2, 1, 3))"),
    (
        Approx, (1.5, 0.4054651081081644, 1), (1.5, 0.4054651081081644, -1), True,
        "Approx(value=1.5, log_value=0.4054651081081644, sign=1)",
    ),
    (
        SymPoly, (2, (((1, 1), F(2)), ((2,), F(1)))), (2, (((2,), F(1)),)), True,
        "SymPoly(degree=2, coeffs=(((1, 1), Fraction(2, 1)), ((2,), Fraction(1, 1))))",
    ),
    (
        SelbergParams, (3, F(1, 2), 1, F(2, 3)), (3, F(1, 2), 1, F(1, 3)), True,
        "SelbergParams(n=3, u=Fraction(1, 2), w=Fraction(1, 1), kappa=Fraction(2, 3))",
    ),
    (
        EnsembleSpec, ("self_adjoint", 2), ("full_matrix", 2), True,
        "EnsembleSpec(family='self_adjoint', beta=2)",
    ),
    (
        RationalFunction, ((1, 2), (3,)), ((1, 2), (5,)), True,
        "RationalFunction(numerator=(1, 2), denominator=(3,))",
    ),
    (
        MomentReport, (3, HERMITIAN, "forced", *MOMENTS_AT_3),
        (3, HERMITIAN, "paper", *MOMENTS_AT_3), True,
        "MomentReport(n=3, ensemble=EnsembleSpec(family='self_adjoint', beta=2),"
        " convention='forced', M2=Fraction(17, 35), M4=Fraction(37, 105), M22=Fraction(1, 5),"
        " M11=Fraction(-1, 5), var=Fraction(164, 1225), sigma2=Fraction(164, 289))",
    ),
    (
        CovarianceReport, ("hermitian", 3, "forced", *COVARIANCE_AT_3),
        ("hermitian", 3, "forced", *COVARIANCE_AT_3[:-1], None), True,
        "CovarianceReport(ensemble='hermitian', n=3, convention='forced',"
        " diag_variance=Fraction(1, 7), offdiag_variance=Fraction(6, 35),"
        " diag_diag_covariance=Fraction(-1, 35), eig_trace_direction=Fraction(3, 35),"
        " eig_bulk=Fraction(6, 35), condition_number=Fraction(2, 1), zero_pattern_exact=True)",
    ),
    (
        SampleEstimate, (0.25, 0.01, 100, 7), (0.25, 0.01, 100, 8), True,
        "SampleEstimate(mean=0.25, stderr=0.01, n_samples=100, seed=7)",
    ),
    (
        QuadratureSpec, ("selberg", 2, ("one",), (F(1), F(1), F(1)), 12),
        ("selberg", 2, ("one",), (F(1), F(1), F(1)), 16), True,
        "QuadratureSpec(kind='selberg', n=2, payload=('one',),"
        " params=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)), points_per_axis=12)",
    ),
    (
        CheckResult, ("C2", "name", True, 1, [{"pass": True}]),
        ("C2", "name", False, 1, [{"pass": True}]), False,
        "CheckResult(criterion='C2', name='name', passed=True, n_cases=1, details=[{'pass': True}])",
    ),
]


@pytest.mark.parametrize("cls,args,other_args,hashable,text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, args, other_args, hashable, text):
    a, b, other = cls(*args), cls(*args), cls(*other_args)
    assert a == b and not a != b
    assert a != other and not a == other
    # the same fields in another class, or a non-value, are unequal
    sub = type("Sub", (cls,), {"__slots__": ()})(*args)
    assert a != sub and sub != a and a != args and a is not None
    # keyword construction binds the same parameters
    assert cls(**inspect.signature(cls).bind(*args).arguments) == a
    assert repr(a) == text
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert not hasattr(a, "__dict__")
    field = text[len(cls.__name__) + 1:].partition("=")[0]
    if hashable:
        assert hash(a) == hash(b)
    else:  # a field holds a list
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    assert a == b


def test_constructors_keep_their_defaults_and_typed_errors():
    assert QuadratureSpec("selberg", 2, ("one",), (1, 1, 1)).points_per_axis == 40
    assert CheckResult("C2", "name", True, 0).details == []
    with pytest.raises(ParamOutOfRangeError):
        SelbergParams(0, 1, 1, 1)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1))
    with pytest.raises(ValueError, match="unknown family"):
        EnsembleSpec("bad", 1)
