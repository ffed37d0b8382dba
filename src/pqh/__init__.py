"""Exact-arithmetic subspace classification in para-quaternionic
Hermitian vector spaces."""

from .classify import (
    ClassificationReport,
    Flags,
    GenericDecomposition,
    KindWitnesses,
    check_complex,
    check_nilpotent,
    check_para_complex,
    check_totally_real,
    classify,
    generic_decompose,
    is_para_quaternionic,
    is_real,
    kind_witnesses,
    oracle_check,
    stabilizer,
)
from .linalg import Mat, symmetric_signature
from .model import (
    MAT_I,
    MAT_J,
    MAT_K,
    HBasisChange,
    ModelSpace,
    Operator,
    OP_I,
    OP_J,
    OP_K,
    ParaQuaternion,
    StructureError,
    standard_symplectic,
    standardize,
    tensor,
)
from .subspace import (
    SignatureTriple,
    Subspace,
    decomposable_subspace,
    h_fiber,
    image,
    maximal_pq,
    p1,
    product_subspace,
    signature,
)
from .uft import (
    Form1,
    Form2,
    PencilSpectrum,
    UFTForm,
    decomposable_spectrum,
    decompose_form1,
    decompose_form2,
    find_transversal_direction,
    injectivize,
    invariant_core,
    to_uft,
    transversal_basis,
)

__version__ = "0.1.0"
