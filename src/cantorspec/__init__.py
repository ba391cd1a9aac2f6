"""Spectra of Riesz product measures on homogeneous Cantor sets.

Exact constructions (integer scales, digit-tree frequency sets, rational
interval models), certified numerics for the infinite-product transform, and
verification reports for orthogonality, the partition identity, the
completeness trend, and dimension estimates.
"""

from .core import (BudgetExceededError, Issue, PairConstraintError, ScalePair,
                   ValidationReport, constant_pair, dimension_targeting_pair,
                   explicit_pair, pair_from_config, rho,
                   validate_pair)
from .dimension import (BeurlingEstimate, BoxCountFit, DimensionComparison,
                        DimensionFormula, beurling_upper_dim,
                        beurling_vs_hausdorff, box_counting_dim,
                        build_intervals, gap_ratios, hausdorff_dim_formula,
                        rescale_constant)
from .fourier import (FamilyCertificate, FilterCertificationError,
                      FilterFamily, QmfReport, TruncatedValue, eval_H,
                      eval_H_array, filter_family_from_config, mu_hat,
                      mu_hat_array, phi_hat, qmf_check, uniform_family)
from .sampling import (SampleSet, default_depth, empirical_char,
                       empirical_moments, exact_mean, sample_measure)
from .spectra import (GrowthReport, SpectrumLevel, TreeMapping, Word,
                      canonical_tau, check_growth_conditions, enumerate_level,
                      tree_mapping_from_config, validate_tree_mapping,
                      word_count)
from .verify import (CompletenessReport, OrthogonalityReport, PartitionResult,
                     QRow, completeness_Q, orthogonality_check,
                     partition_identity, partition_levels, transfer_gaps)

__version__ = "0.1.0"

__all__ = [
    "BeurlingEstimate", "BoxCountFit", "BudgetExceededError",
    "CompletenessReport", "DimensionComparison", "DimensionFormula",
    "FamilyCertificate", "FilterCertificationError", "FilterFamily",
    "GrowthReport", "Issue", "OrthogonalityReport",
    "PairConstraintError", "PartitionResult", "QRow", "QmfReport",
    "SampleSet", "ScalePair", "SpectrumLevel", "TreeMapping",
    "TruncatedValue", "ValidationReport", "Word",
    "beurling_upper_dim", "beurling_vs_hausdorff", "box_counting_dim",
    "build_intervals", "canonical_tau",
    "check_growth_conditions",
    "completeness_Q", "constant_pair", "default_depth",
    "dimension_targeting_pair", "empirical_char", "empirical_moments",
    "enumerate_level", "eval_H", "eval_H_array",
    "exact_mean",
    "explicit_pair", "filter_family_from_config", "gap_ratios",
    "hausdorff_dim_formula",
    "mu_hat", "mu_hat_array",
    "orthogonality_check", "pair_from_config",
    "partition_identity", "partition_levels", "phi_hat", "qmf_check",
    "rescale_constant", "rho",
    "sample_measure", "transfer_gaps", "tree_mapping_from_config", "uniform_family",
    "validate_pair", "validate_tree_mapping", "word_count",
]
