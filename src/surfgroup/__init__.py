"""Exact computation in surface groups under the symmetric presentation.

The group of a closed orientable surface of genus g >= 2 is taken with
generators c_1, ..., c_2g and the single relator
c_1...c_2g c_1^-1...c_2g^-1.  Words are tuples of nonzero ints, letter
+i for c_i and -i for c_i^-1.  Everything is exact integer arithmetic;
there are no matrices and no floating point anywhere.
"""

from .group_core import (
    DomainError,
    GroupContext,
    VerificationError,
    Word,
    WordParseError,
    abelianize,
    compare_words,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
)
from .rewrite import (
    ReductionStep,
    ReductionTrace,
    RuleId,
    d_basis_normalize,
    enumerate_ball,
    is_cyclically_irreducible,
    is_irreducible,
    nf,
    normalize,
)
from .powers import (
    PowerDecomposition,
    nf_power,
    power_decompose,
    translation_number,
)
from .conjugacy import (
    ConjugacyCertificate,
    ConjPowerResult,
    RootResult,
    are_conjugate,
    class_nf,
    conj_power,
    reducing_pair,
    root,
)
from .oracle import (
    DehnForm,
    dehn_conjugate,
    dehn_equal,
    dehn_reduce,
)
from .presentations import (
    PresentationDescriptor,
    canonical_descriptor,
    load_descriptor,
    symmetric_descriptor,
    t_parameter,
    translate,
    untranslate,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GroupContext",
    "VerificationError",
    "Word",
    "WordParseError",
    "abelianize",
    "compare_words",
    "format_word",
    "free_reduce",
    "invert_word",
    "parse_word",
    "ReductionStep",
    "ReductionTrace",
    "RuleId",
    "d_basis_normalize",
    "enumerate_ball",
    "is_cyclically_irreducible",
    "is_irreducible",
    "nf",
    "normalize",
    "PowerDecomposition",
    "nf_power",
    "power_decompose",
    "translation_number",
    "ConjugacyCertificate",
    "ConjPowerResult",
    "RootResult",
    "are_conjugate",
    "class_nf",
    "conj_power",
    "reducing_pair",
    "root",
    "DehnForm",
    "dehn_conjugate",
    "dehn_equal",
    "dehn_reduce",
    "PresentationDescriptor",
    "canonical_descriptor",
    "load_descriptor",
    "symmetric_descriptor",
    "t_parameter",
    "translate",
    "untranslate",
    "__version__",
]
