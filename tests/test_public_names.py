import importlib.util

import hnbundles

# the package exports, pinned so that adding or removing a public name
# shows up as a change to this list
PUBLIC_NAMES = [
    "Atom", "CanonicalReduction", "Filtration", "FinAbGroup", "GroupFamily",
    "HNType", "HnBundleError", "IsotropicBundle", "IsotropicFiltration",
    "ParabolicIndex", "PlainBundle", "SlBundle", "SoBundle", "SpBundle",
    "StrataPoset", "adjoint", "as_cocharacter", "bundle",
    "bundle_from_degrees", "canon", "canonical_reduction",
    "character_generators", "check_bh", "direct_sum",
    "dominant_representative", "dual", "enumerate_strata", "errors",
    "extend_with_perps", "fundamental_groups", "hn_filtration",
    "hn_filtration_isotropic", "hn_type", "hn_uniqueness_oracle", "hnfilt",
    "hull_membership", "is_dominant_character", "is_semistable", "lattice",
    "levi_fundamental_groups", "obstruction_class", "parabolic",
    "parabolic_from_flag", "parabolic_leq", "rootsys", "scss", "strata",
    "stratum_leq", "tensor", "to_dot", "topological_type", "underlying",
    "vertical_degree", "weyl_orbit",
]


def test_public_names_are_pinned():
    assert sorted(hnbundles.__all__) == PUBLIC_NAMES
    # the package's __getattr__ adds the oracle export and nothing else
    assert not hasattr(hnbundles, "no_such_name")
    # the Smith normal form is a test oracle now, and its module is gone
    assert importlib.util.find_spec("hnbundles.intlin") is None
