"""Kernel PCA through dual difference-of-convex optimization.

Solves the KPCA dual min 0.5 Tr(H'H) - Tr sqrt(H'GH) with L-BFGS instead of
the O(n^3) Gram SVD, and extends it to robust (Huber) and sparse
(eps-insensitive) Moreau-envelope objectives solved by DCA.
"""

from .baselines import EigPairs, h_from_pairs, kpca_dense_eig, rsvd, rsvd_adaptive
from .data_io import (Dataset, contaminate, gen_controlled_spectrum_gram,
                      gen_synth_gaussian, load_csv, parse_libsvm, serialize_libsvm)
from .dual_core import (SpectralDecomp, check_critical_point, dual_cost,
                        dual_residual, grad_pi, optimal_dual_cost, pi,
                        sym_eig_small)
from .errors import (DataError, KpcaError, SingularMatrixError,
                     ToleranceUnreachableError, UnprojectableModelError)
from .kernels import (CenteringStats, GramMatrix, KernelSpec, center_gram, gram,
                      kernel_eval, kernel_row, kernel_rows, load_gram_csv,
                      sigma_rule)
from .model import (KpcaModel, attach_training_data, dataset_fingerprint, fit,
                    load_model, project, reconstruction_error,
                    recover_primal_coefficients, save_model, sparsity_metrics)
from .objectives import (ObjectiveSpec, format_objective, kappa_max,
                         parse_objective, project_l1_ball, prox_psi_star,
                         psi_star_value)
from .solvers import SolveConfig, SolveReport, dca_solve, lbfgs_solve

__version__ = "0.1.0"
