"""Saddlepoint approximations for ratios of quadratic forms in normal variables."""

from .builders import beta_matrices, durbin_watson, ls_serial_corr, ratio_n2
from .core import (
    DEFAULT_TOL,
    QuadFormRatio,
    SpectrumAtR,
    Tolerances,
    is_degenerate,
    new_ratio,
    spectrum_at,
    whiten,
)
from .errors import InvalidInputError, NumericalError, QfrError, UnsupportedInstanceError
from .oracle import (
    McEstimate,
    exact_cdf_n2,
    exact_density_n2,
    imhof_cdf_of_R,
    imhof_pdf_of_R,
    mc_cdf,
    mc_cdf_grid,
    relative_error_curve,
)
from .saddlepoint import (
    CdfApprox,
    DensityApprox,
    SaddlepointSolution,
    cdf,
    cdf_grid,
    normalized_pdf,
    pdf,
    pdf_grid,
    solve_saddlepoint,
)
from .specfun import (
    Chi2Combo,
    density_at_zero,
    hyp1f1,
    imhof_cdf,
    ln_beta,
    ln_hyp1f1,
    stirling_beta_hat,
    stirling_gamma_hat,
)
from .support import (
    BlockDecomp,
    EdgeStructure,
    SupportInfo,
    decompose_B,
    edge_structure,
    support,
)
from .tails import BetaLimit, TailLimitMultiple, beta_limit, central_ratio, limit_multiple, limit_simple

__version__ = "0.1.0"
