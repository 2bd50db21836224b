"""Command-line entry point: synth, train, evaluate, identify, default-config."""

from __future__ import annotations

import argparse
import logging
import sys
import warnings

from .commands import evaluate_command, identify_command, train_command
from .config import DEFAULT_CONFIG_TEXT, ToolkitConfig, load_config
from .corpus import (
    DEFAULT_SAMPLE_RATE,
    default_speaker_specs,
    generate_synthetic_corpus,
    read_manifest,
)
from .errors import SidkitError
from .store import ModelStore

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidkit",
        description="Closed-set speaker identification with fused spectral "
        "and residual-moment streams.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic speaker corpus")
    synth.add_argument("--speakers", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output corpus directory")
    synth.add_argument("--train-utts", type=int, default=8)
    synth.add_argument("--test-utts", type=int, default=4)
    synth.add_argument("--seconds", type=float, default=2.0)
    synth.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE)

    train = sub.add_parser("train", help="train per-speaker models from a manifest")
    train.add_argument("--manifest", required=True)
    train.add_argument("--out", required=True, help="model store directory")
    train.add_argument("--config", help="configuration file")

    ev = sub.add_parser("evaluate", help="score the test split and report accuracy")
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--store", required=True)
    ev.add_argument("--eta", type=float, default=None, help="fusion weight in [0, 1]")
    ev.add_argument("--report", help="write the text report here")
    ev.add_argument("--records", help="write per-utterance JSON records here")

    ident = sub.add_parser("identify", help="identify the speaker of one WAV file")
    ident.add_argument("--audio", required=True)
    ident.add_argument("--store", required=True)
    ident.add_argument("--eta", type=float, default=None, help="fusion weight in [0, 1]")

    dump = sub.add_parser("default-config", help="print or write the default config")
    dump.add_argument("--out", help="write to this path instead of stdout")
    return parser


def _run_synth(args) -> int:
    specs = default_speaker_specs(args.speakers, seed=args.seed)
    manifest = generate_synthetic_corpus(
        specs,
        train_utts=args.train_utts,
        test_utts=args.test_utts,
        utt_seconds=args.seconds,
        seed=args.seed,
        out_dir=args.out,
        sample_rate=args.sample_rate,
    )
    print(
        f"wrote {len(manifest.entries)} utterances for {args.speakers} speakers "
        f"under {args.out} ({len(manifest.train_entries)} train / "
        f"{len(manifest.test_entries)} test)"
    )
    return 0


def _run_train(args) -> int:
    cfg = load_config(args.config) if args.config else ToolkitConfig()
    manifest = read_manifest(args.manifest)
    train_command(manifest, cfg, args.out)
    trained = {entry.speaker_id for entry in manifest.train_entries}
    print(f"trained {2 * len(trained)} models into {args.out}")
    return 0


def _run_evaluate(args) -> int:
    run = evaluate_command(
        read_manifest(args.manifest), ModelStore(args.store), eta=args.eta,
        report_path=args.report, records_path=args.records,
    )
    print(f"test utterances: {run.fused.num_trials}")
    print(f"PIA spectral-only: {run.spectral_only.pia:.4f}")
    print(f"PIA residual-only: {run.residual_only.pia:.4f}")
    print(f"PIA fused (eta={run.eta:.4f}): {run.fused.pia:.4f}")
    return 0


def _run_identify(args) -> int:
    result = identify_command(args.audio, ModelStore(args.store), eta=args.eta)
    print(f"decided: {result.decided_id}")
    scores = result.scores
    for rank, speaker in enumerate(result.ranking, 1):
        spectral, residual, combined = scores.scores[scores.speakers.index(speaker)].tolist()
        print(
            f"{rank:3d}. {speaker}  combined={combined:.6f}  "
            f"spectral={spectral:.6f}  residual={residual:.6f}"
        )
    return 0


def _run_default_config(args) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(DEFAULT_CONFIG_TEXT)
        print(f"wrote default configuration to {args.out}")
    else:
        sys.stdout.write(DEFAULT_CONFIG_TEXT)
    return 0


_RUNNERS = {
    "synth": _run_synth,
    "train": _run_train,
    "evaluate": _run_evaluate,
    "identify": _run_identify,
    "default-config": _run_default_config,
}


def _show_warning(message, *args, **kwargs) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # A warning is one "warning:" line, like an "error:" line; the previous
    # printer is restored on return.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _RUNNERS[args.command](args)
        except (SidkitError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
