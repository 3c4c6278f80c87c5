"""Synthesis and exhaustive verification of bilinear multiplication algorithms
for finite-field extensions, with the code/supercode bridge and a catalog of
closed-form complexity bounds."""

from .bilinear import (
    BilinearAlgorithm,
    CostTable,
    brute_force_min_rank,
    compose_tower,
    compose_truncated,
    extension_target,
    karatsuba,
    schoolbook,
    truncated_target,
    verify,
)
from .curves import (
    CurveDivisor,
    CurveModel,
    CurvePlace,
    ccma_build_curve,
    check_conditions,
    enumerate_curve_places,
    find_divisor,
    find_place_of_degree,
    riemann_roch_basis,
)
from .codes import (
    LinearCode,
    Supercode,
    code_from_decomposition,
    supercode_from_symmetric,
    symmetric_from_supercode,
)
from .errors import CcmaError, GuardExceeded, VerificationError
from .gf import (
    FieldSpec,
    Poly,
    crt_reconstruct,
    field_extend,
    irreducibles,
    local_expansion,
)
from .genus0 import EvalPlan, G0Place, build, enumerate_g0_places, plan_search
from .planner import Planner, curve_instance_synth, spec_for_q

__version__ = "0.1.0"
