"""Harder-Narasimhan filtrations and the skyscraper invariant of finitely
presented 2-parameter persistence modules over finite fields.

Three mutually cross-checking computation routes:

- :mod:`skyhn.hn_core` -- exhaustive highest-slope search over the fiber
  subspaces, with iterated quotients for the full filtration;
- :mod:`skyhn.subdivision` -- exact wall-and-chamber subdivision of a grid
  cell via lower envelopes of slope polynomials;
- :mod:`skyhn.cheng` -- randomized shrunk-subspace splitting with
  certificate-checked Wong sequences on blown-up matrix spaces.

:mod:`skyhn.pipeline` drives approximate and exact skyscraper stores,
the cache-friendly grid scan, and filtered landscapes; :mod:`skyhn.cli`
provides the ``skyhn`` command.
"""

from .field import DenseMatrix, FieldExt, PrimeField, ext_field_build
from .grmat import (GradedMatrix, Grid, direct_sum, induced_grid, kernel,
                    minimize, pointwise_model, quotient_presentation,
                    structure_map, submodule_presentation)
from .invariants import (HNFactor, HNFactorList, SkyscraperStore, Staircase,
                         betti_numbers, erosion_distance, hilbert_function,
                         integral_dim, merge_factors, skyscraper_query)
from .hn_core import brute_force_max_slope, hn_filtration_at
from .cheng import MatrixSpace, ShrunkFailure, hn_cheng, shrunk_subspace_random
from .subdivision import (ConvexRegion, SlopePoly, SubdivTree, all_max_slope,
                          exact_hnf_cell, slope_polynomial)
from .pipeline import (EngineFailure, ScanConfig, approx_skyscraper,
                       exact_skyscraper, factor_interval_check,
                       filtered_landscape, hn_at, parallel_grid_scan)

__all__ = ["DenseMatrix", "FieldExt", "PrimeField", "ext_field_build",
           "GradedMatrix", "Grid", "direct_sum", "induced_grid", "kernel",
           "minimize", "pointwise_model", "quotient_presentation",
           "structure_map", "submodule_presentation", "HNFactor",
           "HNFactorList", "SkyscraperStore", "Staircase", "betti_numbers",
           "erosion_distance", "hilbert_function", "integral_dim",
           "merge_factors", "skyscraper_query",
           "brute_force_max_slope", "hn_filtration_at", "MatrixSpace",
           "ShrunkFailure", "hn_cheng", "shrunk_subspace_random",
           "ConvexRegion", "SlopePoly", "SubdivTree", "all_max_slope",
           "exact_hnf_cell", "slope_polynomial", "EngineFailure", "ScanConfig",
           "approx_skyscraper", "exact_skyscraper", "factor_interval_check",
           "filtered_landscape", "hn_at", "parallel_grid_scan"]

__version__ = "0.1.0"
