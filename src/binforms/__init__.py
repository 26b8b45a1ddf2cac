"""Exact decomposition of real binary forms into signed sums of even powers
of linear forms: lengths, badges, signature sets, and the supporting exact
real-root and symmetric linear algebra machinery."""

from .errors import (
    BinformsError,
    DegenerateRepresentationError,
    DegreeMismatchError,
    DimensionMismatchError,
    FormSyntaxError,
    InputTooLargeError,
    InternalCheckError,
    NotHomogeneousError,
    NotIncomparableError,
    OddDegreeError,
    PrecisionExhaustedError,
    RankOutOfRangeError,
    SingularSubstitutionError,
    SylvesterRejectionError,
    ZeroFormError,
    ZeroPolynomialError,
)
from .forms import (
    Badge,
    BinaryForm,
    CertifiedForm,
    PowerSumRep,
    ProjLinearForm,
    expand_certified,
    expand_exact,
    inner_product,
    minimal_badges,
    mirror,
    mirror_badge,
    parse_family,
    parse_form,
    substitute,
)
from .realroots import (
    RatInterval,
    RealAlgebraic,
    UniPoly,
    sign_at,
)
from .quadforms import (
    HankelMatrix,
    Inertia,
    SymMatrix,
    WidthResult,
    catalecticant,
    catalecticant_value,
    hankel,
    inertia,
    is_psd,
    kernel_basis,
    width,
)
from .engine import (
    BadgeSearchResult,
    DecompResult,
    LengthResult,
    SearchConfig,
    SignatureReport,
    SweepResult,
    SylvesterForm,
    badge_search,
    decide_pencil,
    incomparable_constraints_ok,
    possible_signatures,
    quartic_classify,
    real_length,
    real_linear_factor_count,
    sign_change_certificate,
    signature_lower_bound,
    signature_report,
    solve_coefficients,
    sweep,
    validate_sylvester,
    vandermonde_rep,
)

__version__ = "0.1.0"
