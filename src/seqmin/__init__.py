"""Exact minimal polynomials, minimal realisations and Bezout identities."""

from .ring import (
    Domain,
    DomainError,
    DomainMismatchError,
    GF2,
    GFp,
    GFpPolyRing,
    IntegerRing,
    domain_from_string,
)
from .sequence import SequenceView, format_sequence, parse_sequence
from .poly import (
    PairedPoly,
    Poly,
    format_poly,
    parse_poly,
    poly_part,
    pretty_poly,
    pseudo_divide,
    series_prefix,
)
from .lfsr import (
    MRResult,
    MRState,
    annihilates,
    lc_profile,
    minimal_polynomial,
    minimal_realisation,
    mr_init,
    mr_scan,
    mr_step,
    next_identity,
    normalize_monic,
    verify_identity,
)

from .bezout import BezoutResult, bezout_pair, lrs_identity, reduce_equal_degree
from .plcp import (
    PlcpReport,
    check_stable_theorem,
    count_plcp,
    is_plcp,
    is_stable,
    plcp_mr_specialized,
    random_plcp_sequence,
)
from .annihilator import (
    char_decompose,
    extend_by_jump,
    lc_bullet,
    min_nonvanishing,
    mr_bullet_family,
)
from .reverse import iy_classify, max_iy_prefix, reciprocal_annihilates, reverse_lc

__version__ = "0.1.0"
