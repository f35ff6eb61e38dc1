"""Exact dynamical R-matrices for quantum sl2, with a q-difference solver.

Everything is computed in closed form over an exact scalar field (rational
functions of q and x on a fractional exponent lattice, extended by formal
square roots), so identity checks are symbolic proofs, not float estimates.
"""

from .lame import (
    QDiffOperator,
    QDOMatrix,
    classical_limit_table,
    energy,
    hamiltonian,
    lax_matrix,
    transfer_and_restrict,
    wavefunction,
)
from .lattice import (
    LatticeError,
    from_units,
    to_units,
)
from .numeric import (
    gnf_r_num,
    prelimit_three_j_num,
    psi_closed_num,
    verify_numeric_coherence,
    verify_prelimit_convergence,
)
from .report import VerificationReport
from .scalar import (
    SC_ONE,
    SC_ZERO,
    DivergentLimit,
    Scalar,
    phase,
    qbinom,
    qdiff,
    qfact,
    qnum,
    qpow,
    sc_coeff,
    sc_from_qrat,
    sc_from_rf,
    sqrt_qdiff,
    sqrt_qfact,
    sqrt_qint,
    sqrt_xbracket,
    xbracket,
    xpow,
)
from .serialize import dumps_canonical, from_payload, latex, plain_text, to_payload
from .spins import (
    GradedOperator,
    Spin,
    TensorSpace,
    check_algebra,
    coproduct_eminus,
    coproduct_eplus,
    coproduct_h,
    embed,
    identity_op,
    rep_eminus,
    rep_eplus,
    rep_h,
)
from .suite import default_manifest, run_entry, run_suite, verify_relation
from .symbols import limit_three_j, m_element, six_j, three_j
from .twist import (
    associator_phi,
    boundary_m,
    drinfeld_r,
    gnf_r,
    twist_f,
    twist_f_inv,
)

verify_symbol_relation = verify_relation  # still called by bench/child.py

__version__ = "0.1.0"
