"""nmfkit: nonnegative matrix factorization engine.

Factorization methods (multiplicative, projected-gradient, penalized NNLS,
nonsmooth, binary, Gibbs/ICM), seeding strategies, quality measures,
multi-run rank estimation, dense/CSR kernels, file I/O, and a CLI.
"""

from .errors import NmfkitError
from .factor import (FactorConfig, FactorModel, ParamSet, RunTrace, METHODS,
                     factorize, reconstruct)
from .matcore import DataMatrix, RngStream, derive_seed
from .mio import read_matrix, synth, write_matrix, write_summary
from .multirun import (ConsensusReport, RankSweepConfig, rank_sweep, run_many)
from .quality import (FitSummary, connectivity, consensus, cophenetic,
                      dispersion, distance, evar, feature_scores, fit_summary,
                      rss, sparseness)
from .seeding import SEED_METHOD_NAMES, SeedSpec

__version__ = "0.1.0"

__all__ = [
    "ConsensusReport", "DataMatrix", "FactorConfig", "FactorModel",
    "FitSummary", "METHODS", "NmfkitError", "ParamSet", "RankSweepConfig",
    "RngStream", "RunTrace", "SEED_METHOD_NAMES", "SeedSpec",
    "connectivity", "consensus", "cophenetic", "derive_seed",
    "dispersion", "distance", "evar", "factorize", "feature_scores",
    "fit_summary", "rank_sweep", "read_matrix", "reconstruct", "rss",
    "run_many", "sparseness", "synth", "write_matrix", "write_summary",
]
