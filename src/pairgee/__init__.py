"""pairgee: regression for between-subject (pairwise) attributes.

Models the conditional mean of a response defined on pairs of subjects
(a distance, a rank indicator, an agreement measure) as a function of a
pairwise covariate, estimates it from all n(n-1)/2 pairs by weighted
estimating equations, and reports projection-based sandwich variances
that account for the dependence of pairs sharing a subject.
"""

from .errors import (EvaluationError, InputError, NonConvergence,
                     SingularInformation)
from .fit import (FitConfig, FitResult, PairData, adaptive_fit, assemble_ugee,
                  build_pairs, estimate_nuisance, fit_icc, fit_mean_variance,
                  icc_pair_data, sandwich_variance, solve_ugee)
from .kernels import (Composition, Kernel, aitchison_distance,
                      apply_pseudocount, clr, pairwise_responses)
from .links import link_mean_deriv
from .model import (FrmModel, IccModel, MeanVarianceModel, PairCovariate,
                    SubjectRecord, WorkingVariance, icc_mean_map,
                    meanvar_mean_map, onehot_pair_labels, stack_subjects)
from .simulate import (McConfig, McReport, MleResult, gen_icc_ratings,
                       gen_linear_exogenous, gen_mww_probit, gen_nb_scenario,
                       linear_pair_data, make_rng, mww_pair_data,
                       nb_working_mle, run_monte_carlo)
from .ustat import (PairScoreTable, enumerate_pairs, hajek_scores, pair_count,
                    projection_variance, ustatistic_mean)

__version__ = "0.1.0"

__all__ = [
    "Composition", "EvaluationError", "FitConfig", "FitResult", "FrmModel",
    "IccModel", "InputError", "Kernel", "McConfig", "McReport",
    "MeanVarianceModel", "MleResult", "NonConvergence", "PairCovariate",
    "PairData", "PairScoreTable", "SingularInformation", "SubjectRecord",
    "WorkingVariance", "adaptive_fit", "aitchison_distance",
    "apply_pseudocount", "assemble_ugee", "build_pairs", "clr",
    "enumerate_pairs", "estimate_nuisance", "fit_icc", "fit_mean_variance",
    "gen_icc_ratings", "gen_linear_exogenous", "gen_mww_probit",
    "gen_nb_scenario", "hajek_scores", "icc_mean_map", "icc_pair_data",
    "linear_pair_data", "link_mean_deriv", "make_rng", "meanvar_mean_map",
    "mww_pair_data", "nb_working_mle", "onehot_pair_labels", "pair_count",
    "pairwise_responses", "projection_variance", "run_monte_carlo",
    "sandwich_variance", "solve_ugee", "stack_subjects", "ustatistic_mean",
]
