"""Command-line front end.

Subcommands: synth (materialize a synthetic trace), ingest, replay,
oracle, sweep, hist. Every run command reads its stream either from a
binary trace (--trace) or from a stream spec generated on the fly
(--synth-spec), and writes a JSON report to --report or stdout.

Exit codes: 0 success, 1 validation error (including bad usage),
2 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .errors import TierMemError, ValidationError
from .retrieval import GATE_POOLINGS, load_queries_jsonl
from .synth import check_frame_shape, generate_stream, load_stream_spec
from .tiers import TierConfig
from .traceio import frames_dim, load_trace, write_trace
from .vecspace import ProbeBank


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _add_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--trace", metavar="PATH", help="binary trace file to read")
    group.add_argument(
        "--synth-spec",
        dest="synth_spec",
        metavar="PATH",
        help="JSON stream spec to generate the trace from",
    )


def _add_common(parser: argparse.ArgumentParser, queries: bool = False) -> None:
    parser.add_argument("--config", metavar="PATH", help="tier config JSON (defaults apply)")
    parser.add_argument("--probes", metavar="PATH", help="probe bank JSON (default: generated)")
    if queries:
        parser.add_argument("--queries", metavar="PATH", required=True, help="JSONL query file")
    parser.add_argument("--report", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--seed", type=_u64, default=0, help="seed for generated inputs")


def _load_frames(args) -> tuple[list, dict]:
    if args.trace:
        return load_trace(args.trace), {"trace": args.trace}
    spec = load_stream_spec(args.synth_spec)
    return generate_stream(spec), {"synth_spec": spec.to_json_dict()}


def _load_probes(args, dim: int | None) -> tuple[ProbeBank, dict]:
    if args.probes:
        return ProbeBank.from_file(args.probes), {"probes": args.probes}
    if dim is None:
        raise ValidationError("cannot infer the embedding dimension; pass --probes")
    bank = ProbeBank.generated(dim, n=5, seed=args.seed)
    return bank, {"probes": "generated", "probe_seed": args.seed}


def _load_config(args) -> TierConfig:
    return TierConfig.from_file(args.config) if args.config else TierConfig()


def _load_run(args) -> tuple[list, TierConfig, ProbeBank, dict]:
    """A run's frames, config and probe bank, and the inputs its report names."""
    frames, inputs = _load_frames(args)
    config = _load_config(args)
    bank, probe_inputs = _load_probes(args, frames_dim(frames))
    return frames, config, bank, {**inputs, "config_file": args.config, **probe_inputs}


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(report: bench.RunReport, args) -> None:
    if args.report:
        _write_text(args.report, bench.report_json(report))
        print(f"wrote {args.report}")
    else:
        sys.stdout.write(bench.report_json(report))


def _cmd_synth(args) -> int:
    spec = load_stream_spec(args.synth_spec)
    write_trace(args.out, generate_stream(spec), dim=spec.dim)
    print(
        f"wrote {args.out}: {spec.frames} frames, "
        f"{spec.tokens_per_frame} tokens/frame, dim {spec.dim}"
    )
    return 0


def _cmd_ingest(args) -> int:
    frames, config, bank, inputs = _load_run(args)
    variant = bench.parse_variant(args.variant)
    prior = bench.resolve_prior_bank(bank, variant.prior, args.seed)
    report = bench.run_ingest(
        frames,
        config,
        prior,
        seed=args.seed,
        variant=variant,
        inputs=inputs,
    )
    _emit(report, args)
    return 0


def _cmd_replay(args) -> int:
    frames, config, bank, inputs = _load_run(args)
    queries = load_queries_jsonl(args.queries, dim=bank.dim)
    report = bench.run_query_replay(
        frames,
        queries,
        config,
        bank,
        bench.parse_variant(args.variant),
        gate_pooling=args.gate_pooling,
        compare_oracle=args.compare_oracle,
        seed=args.seed,
        inputs={**inputs, "queries": args.queries},
    )
    _emit(report, args)
    return 0


def _cmd_oracle(args) -> int:
    frames, inputs = _load_frames(args)
    queries = load_queries_jsonl(args.queries, dim=frames_dim(frames))
    report = bench.run_oracle(
        frames,
        queries,
        exclude_most_recent=args.exclude_recent,
        seed=args.seed,
        inputs={**inputs, "queries": args.queries},
    )
    _emit(report, args)
    return 0


def _cmd_sweep(args) -> int:
    try:
        lengths = [int(part) for part in args.lengths.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--lengths must be comma-separated integers, got {args.lengths!r}")
    config = _load_config(args)
    if not args.probes:
        tpf = args.tokens_per_frame
        check_frame_shape(args.dim, config.tokens_per_frame_max if tpf is None else tpf)
    bank, probe_inputs = _load_probes(args, args.dim)
    report = bench.run_growth_sweep(
        lengths,
        config,
        bank,
        seed=args.seed,
        tokens_per_frame=args.tokens_per_frame,
        noise_sigma=args.noise_sigma,
        inputs={"config_file": args.config, **probe_inputs},
    )
    if args.csv:
        _write_text(args.csv, bench.sweep_csv(report))
    _emit(report, args)
    return 0


def _cmd_hist(args) -> int:
    frames, config, bank, inputs = _load_run(args)
    report = bench.emit_score_histograms(
        frames,
        config,
        bank,
        bins=args.bins,
        frame_index=args.frame,
        seed=args.seed,
        inputs=inputs,
    )
    for level, path in zip(bench.HIST_LEVELS, (args.frame_csv, args.token_csv)):
        if path:
            _write_text(path, bench.histogram_csv(report, level))
    _emit(report, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiermem",
        description="Budgeted tiered token memory: ingest, replay, and benchmark drivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a binary trace from a stream spec")
    p.add_argument("--synth-spec", dest="synth_spec", metavar="PATH", required=True)
    p.add_argument("--out", metavar="PATH", required=True, help="trace file to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="ingest a trace and report occupancy")
    _add_source(p)
    _add_common(p)
    p.add_argument("--variant", metavar="FLAGS", help="e.g. prior=random (gate/stage ignored)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("replay", help="pseudo-streaming query replay")
    _add_source(p)
    _add_common(p, queries=True)
    p.add_argument("--variant", metavar="FLAGS", help="gate=...,prior=...,stage=...")
    p.add_argument("--gate-pooling", choices=GATE_POOLINGS, default="mean")
    p.add_argument("--compare-oracle", action="store_true", help="score against the brute-force oracle")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("oracle", help="brute-force exact top-K over the raw trace")
    _add_source(p)
    p.add_argument("--queries", metavar="PATH", required=True)
    p.add_argument("--exclude-recent", type=int, default=0, metavar="N",
                   help="drop the N newest visible frames per query")
    p.add_argument("--report", metavar="PATH")
    p.add_argument("--seed", type=_u64, default=0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="token growth across stream lengths")
    p.add_argument("--lengths", metavar="CSV", required=True, help="e.g. 8,16,32,64,128")
    _add_common(p)
    p.add_argument("--dim", type=int, default=32, help="embedding dim when --probes is omitted")
    p.add_argument("--tokens-per-frame", type=int, default=None)
    p.add_argument("--noise-sigma", type=float, default=0.25)
    p.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("hist", help="salience score distributions")
    _add_source(p)
    _add_common(p)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--frame", type=int, default=None, help="designated frame for the token level")
    p.add_argument("--frame-csv", metavar="PATH")
    p.add_argument("--token-csv", metavar="PATH")
    p.set_defaults(func=_cmd_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage errors
        # are validation failures under this tool's exit-code contract.
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except TierMemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
