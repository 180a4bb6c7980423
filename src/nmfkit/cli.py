"""Command-line front end: factorize, rank-estimate, synth, convert.

Exit codes: 0 success, 1 runtime/pipeline error (out of memory included),
2 flag misuse.  Results go to files and standard output; diagnostics
(including wall time) go to the error stream.  With a fixed --master-seed
every command writes byte-identical output files across runs and --threads
counts, at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import warnings
from pathlib import Path

from .errors import NmfkitError
from .factor import METHODS, FactorConfig, ParamSet, factorize
from .matcore import DataMatrix
from .mio import SummaryDocument, read_matrix, synth, write_matrix, write_summary
from .multirun import RankSweepConfig, rank_sweep
from .quality import fit_summary
from .seeding import SEED_METHOD_NAMES, SeedSpec


class UsageError(Exception):
    pass


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _nonneg_float(text):
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


_PARAM_TYPES = {f.name: f.type for f in dataclasses.fields(ParamSet)}
_INT_PARAMS = {"lambda_period", "burn_in", "inner_max_iter"}


def _parse_params(pairs) -> ParamSet:
    params = ParamSet()
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise UsageError("--param expects KEY=VALUE, got %r" % (pair,))
        if key not in _PARAM_TYPES:
            raise UsageError("unknown method parameter %r (known: %s)"
                             % (key, ", ".join(sorted(_PARAM_TYPES))))
        try:
            parsed = int(value) if key in _INT_PARAMS else float(value)
        except ValueError:
            raise UsageError("parameter %s has a non-numeric value %r"
                             % (key, value)) from None
        setattr(params, key, parsed)
    return params


def _parse_ranks(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if lo < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        ranks = [int(tok) for tok in text.split(",") if tok]
        if not ranks or any(r < 1 for r in ranks):
            raise ValueError
        return ranks
    except ValueError:
        raise UsageError("--ranks expects A..B or a comma list of positive "
                         "integers, got %r" % (text,)) from None


def _scale_unit(v: DataMatrix) -> DataMatrix:
    values = v.data if v.is_sparse else v.dense_view()
    peak = float(values.max()) if values.size else 0.0
    if peak <= 0:
        return v
    if v.is_sparse:
        return v.with_values(v.data / peak)
    return DataMatrix.dense(v.dense_view() / peak)


def _add_common_io_flags(p):
    p.add_argument("--input", required=True, help="input matrix (.mtx or .csv)")
    p.add_argument("--input-format", choices=("mtx", "csv"),
                   help="override format inference from the extension")
    p.add_argument("--allow-negative", action="store_true",
                   help="accept negative entries at read time")


def _add_factorize_flags(p, with_rank=True):
    _add_common_io_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    if with_rank:
        p.add_argument("--rank", required=True, type=_positive_int)
    p.add_argument("--seed", default="random_vcol", choices=SEED_METHOD_NAMES)
    p.add_argument("--max-iter", type=_positive_int, default=200)
    p.add_argument("--min-delta", type=_nonneg_float, default=1e-5,
                   help="relative objective improvement below which to stop")
    p.add_argument("--conn-change", type=_nonneg_int, default=30,
                   help="connectivity-stability stopping window (0 disables)")
    p.add_argument("--master-seed", type=_nonneg_int, default=0)
    p.add_argument("--scale-unit", action="store_true",
                   help="divide V by its maximum entry before factorizing")
    p.add_argument("--sparseness-axis", choices=("columns", "rows"),
                   default="columns")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="method parameter, e.g. --param theta=0.3")
    p.add_argument("--output-dir", default="out")


def _build_config(args, rank) -> FactorConfig:
    return FactorConfig(
        method=args.method,
        rank=rank,
        seed=SeedSpec.from_name(args.seed),
        max_iter=args.max_iter,
        min_residual_delta=args.min_delta,
        conn_change=args.conn_change,
        track_error=getattr(args, "track_error", False),
        master_seed=args.master_seed,
        params=_parse_params(args.param))


def _read_input(args) -> DataMatrix:
    v = read_matrix(args.input, args.input_format, args.allow_negative)
    if args.scale_unit:
        v = _scale_unit(v)
    return v


def cmd_factorize(args) -> int:
    start = time.perf_counter()
    v = _read_input(args)
    config = _build_config(args, args.rank)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model, trace = factorize(v, config)
        summary = fit_summary(v, model, sparseness_axis=args.sparseness_axis)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix(DataMatrix.dense(model.W), outdir / "W.mtx")
    write_matrix(DataMatrix.dense(model.H), outdir / "H.mtx")
    doc = SummaryDocument(
        schema_version="2",
        method=config.method,
        rank=config.rank,
        seed_method=args.seed,
        n_iter=model.n_iter,
        max_iter=config.max_iter,
        rss=summary.rss,
        evar=summary.evar,
        dist_euclidean=summary.dist_euclidean,
        dist_kl=summary.dist_kl,
        sparseness_w=summary.sparseness_w,
        sparseness_h=summary.sparseness_h,
        warnings=[str(w.message) for w in caught],
        objective_trace=trace.objective_per_iter if config.track_error else None)
    write_summary(doc, outdir / "summary.json")
    print("Rss: %.4f" % summary.rss)
    print("Evar: %.4f" % summary.evar)
    print("K-L divergence: %.4f" % summary.dist_kl)
    print("Sparseness, W: %.4f, H: %.4f"
          % (summary.sparseness_w, summary.sparseness_h))
    elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
    print("factorize finished in %d ms; outputs in %s" % (elapsed_ms, outdir),
          file=sys.stderr)
    return 0


def _env_threads():
    """Thread count from NMFKIT_THREADS; None when unset or empty."""
    text = os.environ.get("NMFKIT_THREADS", "")
    if not text:
        return None
    try:
        return _positive_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError("NMFKIT_THREADS must be a positive integer, got %r"
                         % (text,)) from None


def cmd_rank_estimate(args) -> int:
    start = time.perf_counter()
    threads = args.threads if args.threads is not None else _env_threads()
    v = _read_input(args)
    ranks = _parse_ranks(args.ranks)
    base = _build_config(args, ranks[0])
    sweep = RankSweepConfig(ranks=ranks, runs_per_rank=args.runs, base=base,
                            master_seed=args.master_seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = rank_sweep(v, sweep, threads=threads)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": "1",
        "method": args.method,
        "runs_per_rank": args.runs,
        "ranks": [dataclasses.asdict(rec) for rec in report.records],
        "recommended_rank": report.recommended_rank,
        "warnings": [str(w.message) for w in caught],
    }
    with open(outdir / "consensus_report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(outdir / "consensus_report.csv", "w", encoding="utf-8") as fh:
        fh.write("rank,cophenetic,dispersion,mean_rss,mean_evar,mean_n_iter\n")
        for rec in report.records:
            fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                     % (rec.rank, rec.cophenetic, rec.dispersion,
                        rec.mean_rss, rec.mean_evar, rec.mean_n_iter))
    print("Recommended rank: %d" % report.recommended_rank)
    elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
    print("rank-estimate finished in %d ms; outputs in %s"
          % (elapsed_ms, outdir), file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    v, w_true, h_true = synth(args.rows, args.cols, args.rank,
                              noise_sigma=args.noise, density=args.density,
                              seed=args.seed)
    out = Path(args.output)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_matrix(v, out)
    if args.emit_truth:
        write_matrix(DataMatrix.dense(w_true),
                     out.with_name(out.stem + "_W.mtx"))
        write_matrix(DataMatrix.dense(h_true),
                     out.with_name(out.stem + "_H.mtx"))
    print("wrote %dx%d matrix to %s" % (args.rows, args.cols, out))
    return 0


def cmd_convert(args) -> int:
    v = read_matrix(args.input, args.input_format, allow_negative=True)
    write_matrix(v, args.output, args.to)
    print("wrote %s" % (args.output,))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmfkit",
        description="Nonnegative matrix factorization: methods, seeding, "
                    "quality measures, and rank estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize a matrix and write "
                                         "W.mtx, H.mtx and summary.json")
    _add_factorize_flags(p)
    p.add_argument("--track-error", action="store_true",
                   help="record the per-iteration objective in the summary")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("rank-estimate",
                       help="multi-run consensus over a range of ranks")
    _add_factorize_flags(p, with_rank=False)
    p.add_argument("--ranks", required=True,
                   help="candidate ranks: A..B or comma list")
    p.add_argument("--runs", type=_positive_int, default=10,
                   help="factorization runs per rank")
    p.add_argument("--threads", type=_positive_int,
                   help="worker threads (default: NMFKIT_THREADS, else 1)")
    p.set_defaults(func=cmd_rank_estimate)

    p = sub.add_parser("synth", help="generate a seeded synthetic matrix")
    p.add_argument("--rows", required=True, type=_positive_int)
    p.add_argument("--cols", required=True, type=_positive_int)
    p.add_argument("--rank", required=True, type=_positive_int)
    p.add_argument("--noise", type=_nonneg_float, default=0.0)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--emit-truth", action="store_true",
                   help="also write the ground-truth factors")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("convert", help="transcode between mtx and csv")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", choices=("mtx", "csv"))
    p.add_argument("--output", required=True)
    p.add_argument("--to", required=True, choices=("mtx", "csv"))
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for flag misuse
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except NmfkitError as exc:
        print("error (%s): %s" % (exc.kind, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("error (io): %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error (memory): %s" % (str(exc) or "out of memory"),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
