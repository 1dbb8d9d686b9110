"""Finite simplicial data, edgewise subdivision, and Segal-type checks.

The package is organized bottom-up: maps between finite ordinals
(`delta`), truncated simplicial sets (`sset`), categories and partial
monoids with their nerves (`cat`), the checkers tying subdivision to
the Segal and 2-Segal conditions (`checks`), the same story valued in
finite groupoids (`groupoid`), and file formats plus a command line
(`io`, `cli`, `draw`).
"""

from .delta import (SimplexMap, coface, codegeneracy, compose,
                    edgewise_on_map, epi_mono_factorize, identity,
                    segal_inclusions, two_segal_inclusions)
from .errors import GenerationError, InputError
from .sset import (Pullback, SimplicialMap, TruncatedSSet, act, edgewise,
                   edgewise_map, iso_check, nondegenerate_cells, op_reverse,
                   standard_simplex, strict_pullback, validate)
from .cat import (FinCategory, LawViolation, PartialMonoid, bar,
                  canonical_partial_iso, canonical_tw_iso, chain_poset,
                  cyclic_monoid, monoid_category, nerve, poset_category,
                  span_category, truncated_free_monoid, twisted_arrow,
                  validate_category, validate_partial_monoid)
from .checks import (BetaGammaResult, CheckEntry, CheckReport, Comparison,
                     FuzzSummary, beta_gamma_equality, fuzz_theorem,
                     retract_verify, segal_check, segal_map, theorem_verify,
                     two_segal_check, two_segal_map, witness_re_verifies)
from .groupoid import (FinGroupoid, Functor, SgpdBetaGamma, SgpdComparison,
                       TruncatedSGpd, act_gpd, discrete_sgpd, esd_gpd,
                       functor_violations, groupoid_equivalence, iso_comma,
                       s_construction, sgpd_beta_gamma_equality,
                       sgpd_segal_check, sgpd_segal_map, sgpd_two_segal_check,
                       sgpd_two_segal_map, validate_groupoid, validate_sgpd)

__all__ = [
    "SimplexMap", "coface", "codegeneracy", "compose", "edgewise_on_map",
    "epi_mono_factorize", "identity", "segal_inclusions",
    "two_segal_inclusions",
    "GenerationError", "InputError",
    "Pullback", "SimplicialMap", "TruncatedSSet", "act", "edgewise",
    "edgewise_map", "iso_check", "nondegenerate_cells",
    "op_reverse", "standard_simplex", "strict_pullback", "validate",
    "FinCategory", "LawViolation", "PartialMonoid", "bar",
    "canonical_partial_iso", "canonical_tw_iso", "chain_poset",
    "cyclic_monoid", "monoid_category", "nerve", "poset_category",
    "span_category", "truncated_free_monoid", "twisted_arrow",
    "validate_category", "validate_partial_monoid",
    "BetaGammaResult", "CheckEntry", "CheckReport", "Comparison",
    "FuzzSummary", "beta_gamma_equality", "fuzz_theorem", "retract_verify",
    "segal_check", "segal_map", "theorem_verify", "two_segal_check",
    "two_segal_map", "witness_re_verifies",
    "FinGroupoid", "Functor", "SgpdBetaGamma", "SgpdComparison",
    "TruncatedSGpd", "act_gpd", "discrete_sgpd", "esd_gpd",
    "functor_violations", "groupoid_equivalence", "iso_comma",
    "s_construction", "sgpd_beta_gamma_equality", "sgpd_segal_check",
    "sgpd_segal_map", "sgpd_two_segal_check", "sgpd_two_segal_map",
    "validate_groupoid", "validate_sgpd",
]
