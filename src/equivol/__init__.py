"""Exact equivariant volumes for linearized actions on products of
projective spaces: isotypic section counts, invariant exponents, moment
images, GIT stability classes, compatibility certificates and the
closed-form volume predictor, all in exact arithmetic."""

from .model import (
    GroupSpec,
    LinearizedBundle,
    ProjectiveFactor,
    Rational,
    Scenario,
    ScenarioError,
    Space,
    UnsupportedScenario,
    circle_scenario,
    scenario_from_dict,
    scenario_power,
    scenario_to_dict,
    su2_scenario,
    tensor_power,
    tensor_product,
    validate_scenario,
    with_bundle,
)
from .counting import (
    EngineLimit,
    IsotypicTable,
    brute_force_oracle,
    full_weight_distribution,
    isotypic_table,
    section_dimension,
    section_dimensions,
    total_dimension,
)
from .geometry import (
    CompatibilityCertificate,
    MomentImage,
    StabilityReport,
    StabilizerData,
    classify_stability,
    dh_slice_volume,
    generic_stabilizer,
    moment_image,
    numerically_compatible,
    predicted_volume,
    vanishing_certificate,
)
from .volumes import (
    ExponentResult,
    VolumeEstimate,
    equivariant_volume,
    g_exponent,
    g_semigroup,
    mu_semigroup,
    residue_volume,
)
from .corpus import corpus_scenario, default_corpus, scenario_path

__all__ = [name for name in dir() if not name.startswith("_")]
