"""asymcodes: a construction-and-search workbench for error-correcting
codes on asymmetric channels.

Builds binary codes from ternary outer codes, group-checksum codes over
abelian groups, linear codes over Z_q for +-1 symbol errors, and
limited-magnitude flash-style codes; verifies everything against exact
distance and error-ball oracles; and reproduces the summary tables.
"""

__version__ = "0.1.0"

from .words import (
    AlphabetSpec,
    CodeBook,
    WeightEnumerator,
    Word,
    asym_distance,
    d_ell_distance,
    decode_asymmetric,
    is_lm_code,
    is_t_code,
    min_asym_distance,
    weight_enumerator,
    weight_w,
)
from .channels import (
    ChannelGraph,
    ProductChannel,
    ball_overlap,
    corrects_t_errors,
    error_ball,
    make_channel,
    simulate_channel,
)
from .groups import (
    AbelianGroup,
    Pairing,
    best_cr_group,
    canonical_pairing,
    cr_code,
    vt_code,
)
from .ternary import (
    construct_even,
    construct_extended,
    construct_odd_mixed,
    expand_to_binary,
    find_pairing,
    fold_to_ternary,
    is_ternary_code,
)
from .linearq import (
    ConcatCode,
    MatrixModZq,
    codewords_of,
    concat_code,
    decode_concat,
    double_code,
    hamming_parity_check,
    is_single_rq_correcting,
    lee_parity_check,
    min_hamming_distance,
    nullspace,
    rank,
)
from .cyclic import (
    Orbit,
    SearchConfig,
    builtin_table_generators,
    enumerate_orbits,
    orbits_compatible,
    search_cyclic,
    search_extended,
)
from .bounds import (
    best_d3_dimension,
    is_perfect,
    rate_ratio,
    sphere_bound,
    table1_report,
    table2_report,
)
