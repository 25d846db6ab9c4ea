"""Window-constrained visibility of binary words in coin-flip sequences."""

from .core import (
    BinaryWord,
    Embedding,
    SequencePrefix,
    SpacingProfile,
    alternating_seen_by_spacings,
    constant_seen_by_spacings,
    enumerate_embeddings,
    is_m_seen,
    make_word,
    s_sequence,
    seen_within,
    spacing_profile,
    standard_embedding,
)
from .exactprob import (
    ProbAutomaton,
    StateCapExceeded,
    build_automaton,
    exact_seen_probability,
    exhaustive_seen_probability,
    max_word_probability,
    word_probability_sweep,
)
from .recursions import (
    AlphaBeta,
    CharPoly,
    TwoBlockTable,
    VnTable,
    char_poly,
    delta_operator,
    pq_polynomials,
    sigma_closed_form,
    sigma_generating_identity,
    sigma_oracle,
    u_table,
    verify_suffix_bounds_m2,
    vn_pair_recursion,
    vn_single_recursion,
)
from .moments import (
    GrowthConstant,
    RenewalTable,
    expected_embeddings,
    growth_constant,
    random_word_second_moment,
    renewal_table,
    second_moment_exact,
    second_moment_oracle,
    visits_moment_bruteforce,
)
from .montecarlo import (
    RedGrid,
    RngConfig,
    admissible_path_exists,
    coupling_F,
    coupling_chain_demo,
    estimate_seen_probability,
    estimate_x_seen_in_y,
    plan_parameter_path,
    red_grid,
    sample_sequence,
)

__version__ = "0.1.0"
