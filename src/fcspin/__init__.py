"""Finitely correlated spin-chain states: construction, symmetry
certification, transfer spectra, and exact-diagonalization cross-checks."""

from .su2 import (
    SpinRep,
    GroupElement,
    TwistMatrix,
    build_spin_rep,
    group_element,
    build_twist,
)
from .fcs import (
    KrausFamily,
    FcsState,
    ModularData,
    validate,
    fixed_point,
    modular_data,
)
from .transfer import (
    TransferOperator,
    GapReport,
    build_transfer,
    gap,
    two_point,
    decay_certificate,
)
from .symmetry import (
    SymmetryVerdict,
    AuditReport,
    check_real,
    check_lattice_twist,
    check_reflection_positive,
    check_su2,
    check_kraus_twist_relation,
    find_intertwiner,
    theorem_audit,
)
from .states import (
    aklt_kraus,
    aklt_state,
    product_kraus,
    product_state,
    covariant_kraus,
    covariant_state,
    random_unital_kraus,
    random_fcs_state,
    direct_sum,
    gauge_transform,
)
from .chains import (
    SpinChainSystem,
    GroundReport,
    ThermalState,
    build_chain,
    ground,
    gibbs,
    correlation_profile,
    rp_gram_check,
)
from .krausfile import read_kraus, write_kraus, load_state, dump_state
from .errors import KrausFileError, ResourceLimitError

__all__ = [name for name in dir() if not name.startswith("_")]
