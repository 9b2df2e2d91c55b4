"""Exact arithmetic for the circular matrix product and its loop scheme.

The package computes, in exact integer and rational arithmetic:

* the circular (degenerate) matrix product and its deformation family,
  inverses, the semidirect-product model, and the periodic strip picture
  (``circlealg``);
* link patterns on N cyclic points, their operators and rank tables
  (``linkpat``);
* sample points of the loop scheme components, membership and rank
  checks, tangent and stabilizer dimensions (``escheme``);
* the multidegree table of the components, polynomials over Z computed
  by the divided-difference recursion, with the exchange identities and
  sum rules (``psitable``, ``exactpoly``);
* the stationary distribution of the rotate-and-glue Markov chain and
  its match with the degree table (``loopchain``);
* Pfaffian and determinant closed forms for total degrees (``pfdet``);
* commuting-variety degrees by operator chains (``commvar``).

The ``brauerloop`` command line wraps table persistence and the
verification suites.
"""

from __future__ import annotations

from .circlealg import (
    ExactMatrix,
    StripWindow,
    cp_inv,
    cp_mul,
    cycle,
    s_mul,
)
from .commvar import DeltaResult, delta, delta_alt_order, degree_sequence
from .errors import BrauerLoopError
from .escheme import (
    SamplePoint,
    check_rank_bounds,
    identify_pattern,
    is_in_E,
    random_sample,
    sample_point,
    southwest_ranks,
    stabilizer_codim,
    tangent_dimension,
)
from .exactpoly import MultiPoly
from .linkpat import (
    LinkPattern,
    apply_e,
    apply_f,
    enumerate_patterns,
    maximal_pattern,
    rank_table,
    reflect,
    restrict_pattern,
    rotate,
)
from .loopchain import StationarySolution, match_psi, stationary, transition_matrix
from .pfdet import degree_determinant, pfaffian, skew_sum, total_mdeg_pfaffian_value
from .psitable import MdegTable, compute_table, verify_edges, verify_exchange

__version__ = "0.1.0"

__all__ = [
    "BrauerLoopError",
    "DeltaResult",
    "ExactMatrix",
    "LinkPattern",
    "MdegTable",
    "MultiPoly",
    "SamplePoint",
    "StationarySolution",
    "StripWindow",
    "apply_e",
    "apply_f",
    "check_rank_bounds",
    "compute_table",
    "cp_inv",
    "cp_mul",
    "cycle",
    "degree_determinant",
    "degree_sequence",
    "delta",
    "delta_alt_order",
    "enumerate_patterns",
    "identify_pattern",
    "is_in_E",
    "match_psi",
    "maximal_pattern",
    "pfaffian",
    "random_sample",
    "rank_table",
    "reflect",
    "restrict_pattern",
    "rotate",
    "s_mul",
    "sample_point",
    "skew_sum",
    "southwest_ranks",
    "stabilizer_codim",
    "stationary",
    "tangent_dimension",
    "total_mdeg_pfaffian_value",
    "transition_matrix",
    "verify_edges",
    "verify_exchange",
]
