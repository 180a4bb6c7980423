"""Repeated factorizations: consensus over runs and rank estimation.

Every run gets its own stream seed derived from (master_seed, rank, run
index) through the documented mixing function in matcore, and runs execute
serially.  The consensus matrix is the mean connectivity of the runs' H
factors, taken in run order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (RankError, check_number, check_settings, integer,
                     out_of_memory, setting)
from .factor import FactorConfig, factorize
from .matcore import as_matrix, derive_seed
from .quality import _evar_of_rss, consensus, cophenetic, dispersion, rss


@dataclass
class RankSweepConfig:
    ranks: list
    runs_per_rank: int = setting("[1, inf)")
    base: FactorConfig = field(metadata={"record": FactorConfig,
                                         "prefix": "base "})


@dataclass
class RankRecord:
    rank: int
    cophenetic: float
    dispersion: float
    mean_rss: float
    mean_evar: float
    mean_n_iter: float


@dataclass
class ConsensusReport:
    records: list = field(default_factory=list)
    recommended_rank: int = 0


def run_many(v, config: FactorConfig, runs: int, master_seed: int,
             threads: int = 1):
    """Run `runs` independent factorizations and average their
    connectivity matrices.  Returns (models, consensus matrix).

    Runs execute serially; `threads` is kept for existing callers and
    must be 1.  A failing run aborts the whole batch with its error;
    silently skipped runs would bias the consensus.
    """
    check_settings(config, FactorConfig, "config")
    runs = check_number("runs", runs, int, "[1, inf)")
    check_number("threads", threads, int, "[1, 1]")  # runs are serial
    v = as_matrix(v)
    seeds = [derive_seed(master_seed, config.rank, i) for i in range(runs)]
    models = [factorize(v, replace(config, master_seed=s))[0] for s in seeds]
    return models, consensus([model.H for model in models])


def rank_sweep(v, sweep: RankSweepConfig) -> ConsensusReport:
    """Consensus statistics per candidate rank plus a recommendation.

    The recommended rank maximizes the cophenetic coefficient; ties go to
    the smallest rank.  Fewer than two runs per rank is permitted but
    degenerate, and recorded as a warning.  Running out of memory raises
    OutOfMemoryError.
    """
    v = as_matrix(v)
    check_settings(sweep, RankSweepConfig, "sweep")
    m, n = v.shape
    # each candidate is checked before set() merges 2.0 into 2, True into 1
    ranks = [integer(r) for r in sweep.ranks]
    if None in ranks:
        raise RankError("candidate ranks must be integers: %r" % (sweep.ranks,))
    ranks = sorted(set(ranks))
    if not ranks:
        raise RankError("rank sweep needs at least one candidate rank")
    for r in ranks:
        if not 1 <= r <= min(m, n):
            raise RankError("candidate rank %d out of range [1, %d]"
                            % (r, min(m, n)))
    if sweep.runs_per_rank < 2:
        warnings.warn("consensus over a single run is degenerate; "
                      "stability statistics are not informative")

    report = ConsensusReport()
    for rank in ranks:
        with out_of_memory("sweeping rank %d on a %dx%d matrix"
                           % (rank, m, n)):
            models, cons = run_many(v, replace(sweep.base, rank=rank),
                                    sweep.runs_per_rank,
                                    sweep.base.master_seed)
            rsses = [rss(v, mo) for mo in models]
            report.records.append(RankRecord(
                rank=rank,
                cophenetic=cophenetic(cons),
                dispersion=dispersion(cons),
                mean_rss=float(np.mean(rsses)),
                mean_evar=float(np.mean([_evar_of_rss(v, r) for r in rsses])),
                mean_n_iter=float(np.mean([mo.n_iter for mo in models]))))
    best = max(rec.cophenetic for rec in report.records)
    report.recommended_rank = min(rec.rank for rec in report.records
                                  if rec.cophenetic == best)
    return report
