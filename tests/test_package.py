import importlib

import pytest

import selmat

# home layer -> the names that `selmat` re-exports from it
PUBLIC_HOMES = {
    "combinat": ("Partition", "Permutation", "partitions_of"),
    "exact": ("GammaProduct", "PoleError", "Rational", "pochhammer", "to_float"),
    "jack": ("SymPoly", "jack_in_monomials", "kadell_ratio", "monomial_to_jack",
             "principal_specialization"),
    "moments": ("EnsembleSpec", "MomentReport", "ensemble", "ensemble_moments"),
    "selberg": ("SelbergParams", "aomoto_general_ratio", "aomoto_ratio", "selberg_I0"),
    "weingarten": ("CovarianceReport", "covariance_report", "wg_orthogonal", "wg_unitary"),
}


def test_public_names_resolve_to_their_home_layers():
    homes = {name: layer for layer, names in PUBLIC_HOMES.items() for name in names}
    assert sorted([*homes, "__version__"]) == sorted(selmat.__all__)
    for name, layer in homes.items():
        assert getattr(selmat, name) is getattr(importlib.import_module(f"selmat.{layer}"), name), name
    star = {}
    exec("from selmat import *", star)
    assert all(star[name] is getattr(selmat, name) for name in selmat.__all__)
    assert set(selmat.__all__) <= set(dir(selmat))
    with pytest.raises(AttributeError, match="no_such_name"):
        selmat.no_such_name
