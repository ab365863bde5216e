"""Constant schemes for the real coefficient-norm inequality of m-linear
forms, plus exact-enumeration verification of the inequalities behind them.
"""

from .constants import (
    ConstantsTable,
    K_GROTHENDIECK,
    Log2Constant,
    SchemeId,
    asymptotic_ratio,
    closed_form_cor52,
    closed_form_new,
    constant,
    table,
)
from .exponents import BleiParams, bh_exponent, blei_f, blei_w
from .forms import (
    BudgetExceededError,
    MultilinearForm,
    bh_lhs,
    bh_ratio,
    dump_form,
    evaluate,
    form_from_flat,
    from_interchange,
    load_form,
    multiple_summing_lhs,
    sup_norm_exact,
    sup_norm_lower,
    to_interchange,
    weak_l1_norm,
)
from .khinchine import (
    Branch,
    KhinchineConstant,
    haagerup_crossover,
    khinchine_A,
    khinchine_A2r,
    khinchine_B,
    ln_gamma,
)
from .verify import (
    SearchState,
    VerificationReport,
    check_blei,
    check_kcc,
    check_khinchine,
    check_multiple_summing,
    check_rademacher_tensor,
    rademacher_moment,
    rademacher_sums,
    run_bh_trials,
    run_blei_suite,
    run_kcc_suite,
    run_khinchine_suite,
    run_tensor_suite,
    search_extremal,
)

__version__ = "0.1.0"
