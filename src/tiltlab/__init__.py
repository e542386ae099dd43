"""tiltlab: finite-precision arithmetic for perfectoid towers.

Towers of truncated ramified rings, their small tilts, the monoidal maps
between them, and executable verifiers for the structural axioms,
closure properties, and ramification constants, all at explicitly
tracked finite precision.
"""

from ._backend import backend_name
from .core import (
    ABOVE_PRECISION,
    BadIdealExponent,
    BadVarCap,
    EnumerationTooLarge,
    LayerElem,
    LayerRing,
    NonPrime,
    NotInvertible,
    ParseError,
    PrecisionBudget,
    Prime,
    ProductElem,
    ProductRing,
    TorsionReport,
    layer_make,
    parse_element,
)
from .towers import (
    AxiomReport,
    LevelOutOfRange,
    MethodDisagreement,
    ProductTower,
    SpecError,
    TowerHandle,
    TowerSpec,
    build_tower,
    check_axioms,
    frob_projection,
)
from .tilts import (
    InsufficientDepth,
    SmallTiltElem,
    TiltPresentation,
    ZeroDepth,
    f_flat_generator,
    p_flat,
    small_tilt,
    tilt_tower,
)
from .monoidal import (
    SharpResult,
    check_pillar_valuation,
    check_sharp_reduction,
    check_tilt_quotient_iso,
    idempotent_bijection,
    lift_independence_trial,
    multiplicativity_trial,
    sharp,
    torsion_bijection,
)
from .closure import (
    ExplicitRing,
    RingPair,
    TorsionPresent,
    almost_integral_witness,
    check_root_closed,
    is_cartesian_mod_f,
    transfer_suite,
)
from .ramified import (
    AxiomFailure,
    DeltaTable,
    EpsilonWitness,
    KummerCoverSpec,
    NoWitnessInRange,
    assemble_perfectoid,
    build_cover_layers,
    colimit_shadow,
    delta_table,
    find_epsilon,
    smalltilt_normality_report,
    tilted_delta_table,
    verify_epsilon_certificate,
)
from .verdict import Verdict

__version__ = "0.1.0"
