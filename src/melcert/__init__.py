"""melcert: exact first-order averaged integrals for a perturbed circular
center, with certified zero counts and numerical cross-validation."""

from .polynomials import (
    Polynomial,
    count_real_roots,
    isolate_roots,
    refine_root,
    squarefree_part,
)
from .intervals import RatInterval, pi_interval, sqrt_rational
from .melnikov import (
    AssemblyError,
    ConfluentNormalForm,
    MelnikovNormalForm,
    PerturbCoeffs,
    SystemFamily,
    assemble,
    assemble_confluent,
    assemble_melnikov,
    circle_moment,
    evaluate_normal_form,
    monomial_integral,
)
from .zeros import (
    CertifiedZero,
    PrescribeError,
    ZeroReport,
    count_zeros,
    eliminate_radicals,
    prescribe_zeros,
    theorem_bound,
)
from .flow import (
    CycleReport,
    DetectedCycle,
    FlowConfig,
    FlowError,
    QuadratureError,
    displacement,
    find_limit_cycles,
    numeric_melnikov,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "RatInterval",
    "SystemFamily",
    "PerturbCoeffs",
    "MelnikovNormalForm",
    "ConfluentNormalForm",
    "ZeroReport",
    "CertifiedZero",
    "FlowConfig",
    "CycleReport",
    "DetectedCycle",
    "AssemblyError",
    "PrescribeError",
    "FlowError",
    "QuadratureError",
    "assemble",
    "assemble_confluent",
    "assemble_melnikov",
    "circle_moment",
    "count_real_roots",
    "count_zeros",
    "displacement",
    "eliminate_radicals",
    "evaluate_normal_form",
    "find_limit_cycles",
    "isolate_roots",
    "monomial_integral",
    "numeric_melnikov",
    "pi_interval",
    "prescribe_zeros",
    "refine_root",
    "sqrt_rational",
    "squarefree_part",
    "theorem_bound",
]
