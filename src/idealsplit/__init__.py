"""Exact engine for ideal-filtered coefficient K-data.

The package computes with finitely generated abelian groups in exact
integer arithmetic: it validates instances (a coefficient group Kn with
its tensor and torsion rows, filtered by a finite distributive ideal
lattice), builds ideal-respecting splittings by induction over the
lattice, and lifts isomorphisms between aligned instances.

The most used names are re-exported here; the submodules carry the full
surface (``intmat`` for matrix kernels, ``fgab`` for groups and homs,
``lattice``, ``kunneth``, ``splitter``, ``fixtures`` for generators,
``fileformat`` for the JSON schema, and ``cli`` for the command line
tool).
"""

from .errors import (AmbientMismatchError, DefectNotApplicableError,
                     GluingError, HomDefinitionError, IdealSplitError,
                     InstanceValidationError, LatticeError,
                     LiftHypothesisError, MissingMapError, MissingSigmaError,
                     NotASplittingError, NotComaximalError, NotExactError,
                     NotHereditaryError, NotSubgroupError, SchemaError,
                     SizeBoundError, SplittingObstructionError)
from .fgab import (FgGroup, GroupHom, Subgroup, direct_sum, image,
                   image_subgroup, induced_tensor_hom, induced_torsion_hom,
                   kernel, n_torsion_group, preimage_subgroup, tensor_zmod)
from .fileformat import (dumps_canonical, instance_from_json,
                         instance_to_json, load_file, save_file,
                         splitting_from_json, splitting_to_json)
from .fixtures import (DEFECT_KINDS, direct_sum_instance, dp_truncation,
                       plant_defect, random_instance, transported_instance,
                       twist_instance)
from .kunneth import (CoeffGroup, CoherentFamily, IdealNode, KData,
                      KunnethInstance, ValidationReport, check_coherence,
                      check_family_coherence, validate_instance)
from .lattice import IdealLattice
from .splitter import (ComplexIso, SplittingFamily, build_ideal_splitting,
                       check_gamma_exact, enumerate_splittings,
                       exhaustive_ideal_splittings, full_section,
                       glue_comaximal, lift_isomorphism,
                       verify_ideal_splitting)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError", "CoeffGroup", "CoherentFamily",
    "ComplexIso", "DEFECT_KINDS", "DefectNotApplicableError", "FgGroup",
    "GluingError", "GroupHom", "HomDefinitionError", "IdealLattice",
    "IdealNode", "IdealSplitError", "InstanceValidationError", "KData", "KunnethInstance", "LatticeError",
    "LiftHypothesisError", "MissingMapError", "MissingSigmaError",
    "NotASplittingError", "NotComaximalError", "NotExactError",
    "NotHereditaryError", "NotSubgroupError", "SchemaError",
    "SizeBoundError", "SplittingFamily", "SplittingObstructionError",
    "Subgroup", "ValidationReport", "build_ideal_splitting",
    "check_coherence", "check_family_coherence", "check_gamma_exact",
    "direct_sum", "direct_sum_instance", "dp_truncation", "dumps_canonical",
    "enumerate_splittings", "exhaustive_ideal_splittings",
    "full_section", "glue_comaximal", "image", "image_subgroup",
    "induced_tensor_hom", "induced_torsion_hom", "instance_from_json",
    "instance_to_json", "kernel", "lift_isomorphism",
    "load_file", "n_torsion_group", "plant_defect", "preimage_subgroup",
    "random_instance", "save_file", "splitting_from_json",
    "splitting_to_json", "tensor_zmod", "transported_instance",
    "twist_instance", "validate_instance", "verify_ideal_splitting",
]
