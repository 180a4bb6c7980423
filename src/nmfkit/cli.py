"""Command-line front end: factorize, rank-estimate, synth, convert.

Exit codes: 0 success, 1 runtime/pipeline error (out of memory included),
2 flag misuse.  Results go to files and standard output; diagnostics
(including wall time) go to the error stream.  With a fixed --master-seed
every command writes byte-identical output files across runs; see the
README for when the BLAS thread count can still matter.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import time
import warnings
from pathlib import Path

from .errors import NmfkitError, field_type, in_interval
from .factor import METHODS, FactorConfig, ParamSet, factorize
from .matcore import DataMatrix
from .mio import (SynthArgs, read_matrix, synth, write_matrix, write_summary,
                  write_text)
from .multirun import RankSweepConfig, rank_sweep
from .quality import fit_summary
from .seeding import SEED_METHOD_NAMES, SeedSpec


def _within(interval, cast):
    """An argparse type: `cast(text)`, refused outside `interval` or if NaN."""
    def parse(text):
        value = cast(text)
        if not in_interval(value, interval):
            raise argparse.ArgumentTypeError("must be finite and lie in %s"
                                             % interval)
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid ... value"
    return parse


_TYPES = {f.name: _within(f.metadata["range"], field_type(f)[0])
          for record in (ParamSet, FactorConfig, RankSweepConfig, SynthArgs)
          for f in dataclasses.fields(record) if "range" in f.metadata}


def _param(text):
    """An argparse type: KEY=VALUE for a ParamSet field, as (key, value);
    the value must lie in the field's `errors.setting` range."""
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("expects KEY=VALUE, got %r" % text)
    if key not in ParamSet.__dataclass_fields__:
        raise argparse.ArgumentTypeError(
            "unknown method parameter %r (known: %s)"
            % (key, ", ".join(sorted(ParamSet.__dataclass_fields__))))
    try:
        return key, _TYPES[key](value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "parameter %s must be of type %s, got %r"
            % (key, _TYPES[key].__name__, value)) from None
    except argparse.ArgumentTypeError as exc:  # outside the field's range
        raise argparse.ArgumentTypeError(
            "parameter %s %s, got %r" % (key, exc, value)) from None


def _ranks(text):
    """An argparse type: A..B or a comma list of positive integers."""
    lo, sep, hi = text.partition("..")
    try:
        ranks = (list(range(int(lo), int(hi) + 1)) if sep
                 else [int(tok) for tok in text.split(",") if tok])
    except ValueError:
        ranks = []
    if not ranks or min(ranks) < 1:
        raise argparse.ArgumentTypeError("expects A..B or a comma list of "
                                         "positive integers, got %r" % text)
    return ranks


def _add_common_io_flags(p):
    p.add_argument("--input", required=True, help="input matrix (.mtx or .csv)")
    p.add_argument("--input-format", choices=("mtx", "csv"),
                   help="override format inference from the extension")


def _add_factorize_flags(p, with_rank=True):
    _add_common_io_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    if with_rank:
        p.add_argument("--rank", required=True, type=_within("[1, inf)", int))
    # no flag supplies W0 and H0, so `fixed` seeding is library-only
    p.add_argument("--seed", default=SeedSpec.kind,
                   choices=[s for s in SEED_METHOD_NAMES if s != "fixed"])
    p.add_argument("--max-iter", type=_TYPES["max_iter"],
                   default=FactorConfig.max_iter)
    p.add_argument("--min-delta", type=_TYPES["min_residual_delta"],
                   default=FactorConfig.min_residual_delta,
                   help="relative objective improvement below which to stop")
    p.add_argument("--conn-change", type=_TYPES["conn_change"],
                   default=FactorConfig.conn_change,
                   help="connectivity-stability stopping window (0 disables)")
    p.add_argument("--master-seed", type=_TYPES["master_seed"],
                   default=FactorConfig.master_seed)
    p.add_argument("--scale-unit", action="store_true",
                   help="divide V by its maximum entry before factorizing")
    p.add_argument("--param", action="append", default=[], type=_param,
                   metavar="KEY=VALUE",
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
        params=ParamSet(**dict(args.param)))


def _read_input(args) -> DataMatrix:
    """The input matrix, divided by its largest entry under --scale-unit."""
    v = read_matrix(args.input, args.input_format)
    values = v.values
    peak = float(values.max()) if args.scale_unit and values.size else 0.0
    return v.with_values(values / peak) if peak > 0 else v


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
    payload = {"schema_version": "2", "method": config.method,
               "rank": config.rank, "seed_method": args.seed,
               "max_iter": config.max_iter, "n_iter": model.n_iter,
               "warnings": [str(w.message) for w in caught]}
    payload.update(dataclasses.asdict(summary))
    if config.track_error:
        payload["objective_trace"] = trace.objective_per_iter
    write_summary(payload, outdir / "summary.json")
    print("Rss: %.4f" % summary.rss)
    print("Evar: %.4f" % summary.evar)
    print("K-L divergence: %.4f" % summary.dist_kl)
    print("Sparseness, W: %.4f, H: %.4f"
          % (summary.sparseness_w, summary.sparseness_h))
    elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
    print("factorize finished in %d ms; outputs in %s" % (elapsed_ms, outdir),
          file=sys.stderr)
    return 0


def cmd_rank_estimate(args) -> int:
    start = time.perf_counter()
    v = _read_input(args)
    base = _build_config(args, args.ranks[0])
    sweep = RankSweepConfig(ranks=args.ranks, runs_per_rank=args.runs,
                            base=base)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = rank_sweep(v, sweep)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = [dataclasses.asdict(rec) for rec in report.records]
    write_summary({"schema_version": "1", "method": args.method,
                   "runs_per_rank": args.runs, "ranks": records,
                   "recommended_rank": report.recommended_rank,
                   "warnings": [str(w.message) for w in caught]},
                  outdir / "consensus_report.json")
    rows = [records[0]] + [["%.17g" % x for x in r.values()] for r in records]
    write_text(outdir / "consensus_report.csv",  # field names, then ranks
               (",".join(row) + "\n" for row in rows))
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
    v = read_matrix(args.input, args.input_format)
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
    p.add_argument("--sparseness-axis", choices=("columns", "rows"),
                   default=inspect.signature(fit_summary).parameters[
                       "sparseness_axis"].default)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("rank-estimate",
                       help="multi-run consensus over a range of ranks")
    _add_factorize_flags(p, with_rank=False)
    p.add_argument("--ranks", required=True, type=_ranks,
                   help="candidate ranks: A..B or comma list")
    p.add_argument("--runs", type=_TYPES["runs_per_rank"], default=10,
                   help="factorization runs per rank")
    p.set_defaults(func=cmd_rank_estimate)

    p = sub.add_parser("synth", help="generate a seeded synthetic matrix")
    p.add_argument("--rows", required=True, type=_TYPES["m"])
    p.add_argument("--cols", required=True, type=_TYPES["n"])
    p.add_argument("--rank", required=True, type=_TYPES["k_true"])
    p.add_argument("--noise", type=_TYPES["noise_sigma"], default=0.0)
    p.add_argument("--density", type=_TYPES["density"], default=1.0)
    p.add_argument("--seed", type=_TYPES["seed"], default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--emit-truth", action="store_true",
                   help="also write the ground-truth factors")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("convert", help="transcode between mtx and csv")
    _add_common_io_flags(p)
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
