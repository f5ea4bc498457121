"""Exact-arithmetic toolkit for Harder-Narasimhan filtrations, canonical
reductions, and HN-type stratifications of decorated bundles on a formal
model, for the classical groups GL, SL, Sp, SO."""

from .bundle import (Atom, IsotropicBundle, PlainBundle, SlBundle, SoBundle,
                     SpBundle, adjoint, bundle_from_degrees, direct_sum, dual,
                     is_semistable, tensor, underlying, vertical_degree)
from .canon import (CanonicalReduction, HNType, canonical_reduction, check_bh,
                    hn_type)
from .errors import HnBundleError
from .hnfilt import (Filtration, IsotropicFiltration, extend_with_perps,
                     hn_filtration, hn_filtration_isotropic, scss)
from .lattice import (FinAbGroup, fundamental_groups, levi_fundamental_groups,
                      obstruction_class, topological_type)
from .parabolic import (ParabolicIndex, character_generators,
                        is_dominant_character, parabolic_from_flag,
                        parabolic_leq)
from .rootsys import (GroupFamily, as_cocharacter, dominant_representative,
                      weyl_orbit)
from .strata import (StrataPoset, enumerate_strata, hull_membership,
                     stratum_leq, to_dot)

__all__ = [name for name in dir() if not name.startswith("_")] + [
    "hn_uniqueness_oracle"]


def __getattr__(name):
    # the HN oracle is exported, but its module loads on the first read
    if name == "hn_uniqueness_oracle":
        from .oracles import hn_uniqueness_oracle
        return hn_uniqueness_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
