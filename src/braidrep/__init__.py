"""braidrep: exact braid-group representations from cyclic covers of the sphere.

Public surface:

- :mod:`braidrep.cyclo`    exact cyclotomic field arithmetic
- :mod:`braidrep.linalg`   exact dense linear algebra over the field
- :mod:`braidrep.rep`      contexts, Gram matrices, twist operators, words
- :mod:`braidrep.criteria` dimension/signature formulas and the two verdicts
- :mod:`braidrep.horo`     horospherical flags, pairings, orbit and lattice scans
- :mod:`braidrep.cli`      command-line interface
"""

from .cyclo import CycloNum, Rational, cyclotomic_poly, euler_phi, order_of_power, zeta
from .errors import BraidRepError
from .linalg import CycloMatrix, inertia, rank_over_rationals, sesquilinear
from .rep import (
    BraidWord,
    RepContext,
    block_twist,
    block_twist_word,
    commutator,
    evaluate_quotient,
    evaluate_word,
    galois_transport,
    lantern_block,
    make_context,
    pair_twist,
    parse_word,
    prefix_twist,
    quotient_gram,
    quotient_matrix,
    radical_vector,
    scalar_relation_holds,
    transported_context,
    word_det,
)
from .criteria import (
    Verdict,
    arithmeticity_verdict,
    density_verdict,
    eigenspace_dimension,
    find_signature_window,
    is_good,
    signature,
)
from .horo import (
    FlagContext,
    commutator_pairing,
    conjugation_action,
    center_lattice_vectors,
    in_parabolic,
    in_unipotent,
    make_flag,
    translation_part,
    witness,
)

__all__ = [
    "BraidRepError",
    "BraidWord",
    "CycloMatrix",
    "CycloNum",
    "FlagContext",
    "Rational",
    "RepContext",
    "Verdict",
    "arithmeticity_verdict",
    "block_twist",
    "block_twist_word",
    "center_lattice_vectors",
    "commutator",
    "commutator_pairing",
    "conjugation_action",
    "cyclotomic_poly",
    "density_verdict",
    "eigenspace_dimension",
    "euler_phi",
    "evaluate_quotient",
    "evaluate_word",
    "find_signature_window",
    "galois_transport",
    "in_parabolic",
    "in_unipotent",
    "inertia",
    "is_good",
    "lantern_block",
    "make_context",
    "make_flag",
    "order_of_power",
    "pair_twist",
    "parse_word",
    "prefix_twist",
    "quotient_gram",
    "quotient_matrix",
    "radical_vector",
    "rank_over_rationals",
    "scalar_relation_holds",
    "sesquilinear",
    "signature",
    "translation_part",
    "transported_context",
    "witness",
    "word_det",
    "zeta",
]
