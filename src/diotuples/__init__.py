"""Exact D(n)-tuple arithmetic, search and bound verification in imaginary quadratic rings."""

__version__ = "0.1.0"

from .quad_ring import (  # noqa: F401
    ParityError,
    QuadInt,
    RingParams,
    format_elem,
    make_ring,
    norm,
    parse_elem,
)
from .tuples import (  # noqa: F401
    DioTuple,
    ExtensionPair,
    PellWitness,
    VerifyReport,
    build_pell_witness,
    c_plus_minus,
    extend_triple,
    is_regular,
    make_tuple,
    pell_residuals,
    tuple_orbit,
    verify_tuple,
)
