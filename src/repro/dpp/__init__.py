"""Determinantal point process substrate.

Provides the probability product kernel between discrete distributions, the
normalized correlation kernel used by the dHMM transition prior, and
log-det scores and gradients.
"""

from repro.dpp.kernels import (
    probability_product_kernel,
    normalized_probability_kernel,
    transition_kernel_matrix,
)
from repro.dpp.log_det import (
    log_det_psd,
    psd_log_det_and_inverse,
    dpp_log_prior,
    dpp_log_prior_and_gradient,
    dpp_log_prior_gradient,
)

__all__ = [
    "probability_product_kernel",
    "normalized_probability_kernel",
    "transition_kernel_matrix",
    "log_det_psd",
    "psd_log_det_and_inverse",
    "dpp_log_prior",
    "dpp_log_prior_and_gradient",
    "dpp_log_prior_gradient",
]
