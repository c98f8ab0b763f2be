"""Sparse solutions of tensor complementarity problems.

Library layout:

* tensors  — dense tensor storage, contraction kernels, instance generation
* merit    — Fischer-Burmeister residual, merit function, gradients, objective
* regpath  — l_p utilities, closed-form bounds, continuation schedules
* solve    — smoothing gradient descent with continuation and support polish
* oracle   — exact desk-scale ground truth (enumeration, least element)
* cli      — the `sparse-tcp` command-line front end
"""

from .merit import (
    FbGradConfig,
    ObjectiveParams,
    grad_check,
    grad_merit,
    merit_fb,
    objective,
    phi_fb,
    residual_fb,
)
from .oracle import (
    LeastElementOptions,
    OracleOptions,
    OracleResult,
    brute_force_sparse,
    least_element,
    minimal_lp_select,
    sample_feasible,
    verify_solution,
)
from .regpath import (
    BoundInputs,
    Schedule,
    card,
    compute_Bbar,
    gamma_k,
    lower_bound_L,
    lp_norm_p,
    q_tilde,
    t_upper_for_nonzero,
    threshold_by_L,
)
from .solve import (
    DivergedError,
    SolveOptions,
    SolveReport,
    minimize_local,
    polish_on_support,
    smooth_grad,
    smooth_objective,
    solve_sparse_tcp,
)
from .tensors import (
    DenseTensor,
    Instance,
    ResidualReport,
    contract_full,
    contract_m1,
    contract_m2,
    example_instance,
    gen_instance,
    gen_z_feasible,
    identity_tensor,
    is_z_tensor,
    load_instance,
    save_instance,
    semi_symmetrize,
    tensor_norm,
)

__version__ = "0.1.0"
