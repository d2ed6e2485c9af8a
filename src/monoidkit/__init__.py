"""monoidkit: exact computation in finite transformation and partition
monoids, with oracle-verified ideal meets, congruence machinery, and the
inverse monoid of punctured integer shift maps."""

from .elements import (
    PartialMap,
    Partition,
    element_count,
    embed,
    enumerate_elements,
    identity_of,
    is_kind,
)
from .order import OrderVerdict, generalized_inverses, is_idempotent, leq_L, leq_R, leq_oracle, natural_leq
from .congruence import (
    FiniteMonoid,
    RightCongruence,
    YSequence,
    annihilator,
    is_right_congruence,
    kappa,
    rc_close,
    subact_generators,
    y_sequence,
)
from .ideals import MeetResult, meet, verify_meet
from .pmonoid import (
    NF,
    NF_IDENTITY,
    PUNCTURE,
    SHIFT_DOWN,
    SHIFT_UP,
    AnnihilatorVerdict,
    ChainReport,
    annihilator_witness,
    chain_search,
    check_nc,
    check_presentation,
    divide_left,
    in_annihilator,
    nf_inverse,
    nf_mul,
    nf_of_word,
    nf_power,
    nf_window,
    y_n,
)
from .textio import ParseError, format_element, parse_element, render_partition
from .verify import SUITES, SuiteResult, cached_monoid, delta, run_suite

__version__ = "0.1.0"
