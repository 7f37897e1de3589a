"""Exact tools for additive-group actions on polynomial rings.

The package decides, with certified rational arithmetic, whether the
quotient of an invariant hypersurface by a linearizable additive-group
action is affine, strictly quasi-affine, or not everywhere stable, and
exhibits the supporting evidence (boundary values, slices, witness
points) in each case.
"""

from __future__ import annotations

from .classify import (
    Bounds,
    ClassificationReport,
    FamilyComparison,
    FamilyMember,
    FamilyOutcome,
    SmoothnessReport,
    StabilityCertificate,
    UnstableWitness,
    Verdict,
    build_family_member,
    certify_everywhere_stable,
    classify,
    compare_family,
    crosscheck_constant_removed,
    jacobian_boundary_smoothness,
)
from .derivations import (
    Derivation,
    GraphPresentation,
    PowerInImage,
    SliceSearch,
    graded_kernel_generators,
    power_in_image,
    restrict_to_graph,
    slice_search,
)
from .errors import (
    ConstructionFailure,
    ExprSyntaxError,
    GaquotError,
    GraphInconsistency,
    InternalInconsistency,
    JobError,
    NonInvariantInput,
    UnsupportedBlock,
    VariableTableMismatch,
)
from .expr import parse
from .fixtures import (
    NAMED_FIXTURES,
    Fixture,
    all_named_fixtures,
    fixture,
    job_for,
    verify_winkelmann_relation,
    winkelmann_invariant_images,
)
from .poly import Poly, squarefree_distinct_root_count
from .reps import (
    CatalogEntry,
    RepSpec,
    Sl2Triple,
    build_derivation,
    catalog_invariants,
    group_substitution,
    nonstable_coordinates,
    sl2_triple,
    spec_from_blocks,
    spec_to_blocks,
)
from .transfer import BoundaryClass, TransferResult, boundary_split, extend, extended_spec, verify_invariance

__all__ = [
    "BoundaryClass",
    "Bounds",
    "CatalogEntry",
    "ClassificationReport",
    "ConstructionFailure",
    "Derivation",
    "ExprSyntaxError",
    "FamilyComparison",
    "FamilyMember",
    "FamilyOutcome",
    "Fixture",
    "GaquotError",
    "GraphInconsistency",
    "GraphPresentation",
    "InternalInconsistency",
    "JobError",
    "NAMED_FIXTURES",
    "NonInvariantInput",
    "Poly",
    "PowerInImage",
    "RepSpec",
    "Sl2Triple",
    "SliceSearch",
    "SmoothnessReport",
    "StabilityCertificate",
    "TransferResult",
    "UnstableWitness",
    "UnsupportedBlock",
    "VariableTableMismatch",
    "Verdict",
    "all_named_fixtures",
    "boundary_split",
    "build_derivation",
    "build_family_member",
    "catalog_invariants",
    "certify_everywhere_stable",
    "classify",
    "compare_family",
    "crosscheck_constant_removed",
    "extend",
    "extended_spec",
    "fixture",
    "graded_kernel_generators",
    "group_substitution",
    "jacobian_boundary_smoothness",
    "job_for",
    "nonstable_coordinates",
    "parse",
    "power_in_image",
    "restrict_to_graph",
    "sl2_triple",
    "slice_search",
    "spec_from_blocks",
    "spec_to_blocks",
    "squarefree_distinct_root_count",
    "verify_invariance",
    "verify_winkelmann_relation",
    "winkelmann_invariant_images",
]

__version__ = "0.1.0"
