"""loclab: a numerical laboratory for Lawson-Osserman spheres, cones and the
radial minimal-graph Dirichlet problems attached to them."""

from .dirichlet import (
    DirichletReport,
    Multiplicity,
    MultiplicityKind,
    dirichlet_multiplicity,
    nonminimizing_verdict,
)
from .dynamics import (
    BarrierCertificate,
    CaseId,
    Event,
    EventKind,
    Orbit,
    PhasePoint,
    Profile,
    Terminal,
    Tolerances,
    barrier_certificate_A3,
    barrier_certificate_A4,
    extract_profile,
    f1,
    f2,
    integrate_orbit,
    ode1_residual,
    seed_unstable,
    vector_field,
)
from .errors import (
    DomainTooShort,
    InsufficientEvents,
    InvalidDegree,
    InvalidFamily,
    LoclabError,
    NonFiniteState,
    NotConverged,
    NotOnSphere,
    StepSizeUnderflow,
    WrongCase,
    WrongType,
)
from .geometry import (
    DensityReport,
    ball_volume,
    sphere_volume,
    volume_ratio_product,
    GeometryReport,
    Verdict,
    cone_density,
    density_report,
    geometry_report,
    jordan_angles,
    los_volume_ratio,
    normal_angle_cos,
    slope_function,
)
from .hopf import (
    SphereSample,
    general_vs_lomse_deviation,
    harmonic_degree_check,
    hopf_map,
    hopf_verify_report,
    los_angle_root,
    singular_value_sample,
)
from .params import (
    Family,
    FamilyKind,
    LomseParams,
    SpectralData,
    Stability,
    classify_family,
    spectra,
    validate_params,
)

__version__ = "0.1.0"
