"""Exact verification toolkit for paramodular oldform combinatorics.

Everything is computed over the rationals: Laurent polynomials in a formal
square root v of the residue cardinality q, symmetric Laurent polynomials
in unramified parameters X_1..X_r, and truncated power series in the
complex-variable monomial Y.  See the submodules for the representations:

    rings       -- the three coefficient layers
    coweights   -- dominant cones, dimension counts
    characters  -- Schur and symplectic Weyl characters, orbit sums
    whittaker   -- torus values of Whittaker functions and raising moves
    rankin      -- local factor polynomials and the normalized series map
    oldforms    -- series images of oldform families, exact ranks
    cli         -- batch verification harness
"""

from .rings import SymLaurent, TruncSeries, VLaurent
from .coweights import Cone, basis_cardinality, dim_formula, enumerate_cone
from .characters import orbit_sum, schur, sp_character, sp_character_value
from .whittaker import (
    WhittakerData,
    eta_data,
    gl_whittaker,
    spherical_so_data,
    theta_data,
    theta_prime_data,
)
from .rankin import (
    EpsilonData,
    EvaluationMode,
    SymbolicMode,
    XiResult,
    fe_check,
    kernel_check,
    psi_alternant,
    psi_component,
    psi_series,
    specialize_last,
    xi,
    zeta_series,
)
from .oldforms import (
    BasisElementSpec,
    basis_specs,
    compare_bases,
    dependence_check_a3,
    rank_check,
    rs_specs,
    xi_image,
)

__version__ = "0.1.0"

__all__ = [
    "SymLaurent",
    "TruncSeries",
    "VLaurent",
    "Cone",
    "basis_cardinality",
    "dim_formula",
    "enumerate_cone",
    "orbit_sum",
    "schur",
    "sp_character",
    "sp_character_value",
    "WhittakerData",
    "eta_data",
    "gl_whittaker",
    "spherical_so_data",
    "theta_data",
    "theta_prime_data",
    "EpsilonData",
    "EvaluationMode",
    "SymbolicMode",
    "XiResult",
    "fe_check",
    "kernel_check",
    "psi_alternant",
    "psi_component",
    "psi_series",
    "specialize_last",
    "xi",
    "zeta_series",
    "BasisElementSpec",
    "basis_specs",
    "compare_bases",
    "dependence_check_a3",
    "rank_check",
    "rs_specs",
    "xi_image",
    "__version__",
]
