"""Command-line front end.

    melodygen <subcommand> --config PATH [--seed N] [--out DIR] ...

Subcommands: synth-data, train-clmp, build-index, train-latent,
train-diffusion, generate, evaluate. ``--out`` is the pipeline working
directory that all artifacts live in. Exit codes: 0 success, 1 validation
error, 2 missing artifact, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import pipeline, smallnet
from .config import PipelineConfig
from .errors import MelodyGenError, MissingArtifactError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISSING_ARTIFACT = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="melodygen",
                                     description="melody-guided text-to-music pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="work", help="pipeline working directory")

    for name, desc in (
        ("synth-data", "generate the synthetic corpus"),
        ("train-clmp", "train the tri-modal alignment model"),
        ("build-index", "embed melodies and build the vector database"),
        ("train-latent", "train the mel/latent codec"),
        ("train-diffusion", "train the conditional denoiser"),
    ):
        common(sub.add_parser(name, help=desc))

    g = sub.add_parser("generate", help="generate audio from a text prompt")
    common(g)
    g.add_argument("--prompt", required=True, help="text description")
    g.add_argument("--steps", type=int, help="DDIM step count (ddim sampler only)")
    g.add_argument("--cfg", type=float, help="guidance weight w")
    g.add_argument("--no-melody", action="store_true",
                   help="zero-pad the melody half of the condition")
    g.add_argument("--sampler", choices=("ddim", "ddpm"), default="ddim")
    g.add_argument("--tag", default="gen", help="basename for the output files")

    e = sub.add_parser("evaluate", help="run an evaluation mode and print JSON")
    common(e)
    e.add_argument("--mode", choices=pipeline.EVAL_MODES, default="standard")
    e.add_argument("--report", help="also write the JSON report to this file")

    return parser


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig().validate()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "synth-data":
            records = pipeline.run_synth_data(cfg, args.out)
            print(json.dumps({"records": len(records),
                              "manifest": str(pipeline.Artifacts(args.out).manifest)}))
        elif args.command == "train-clmp":
            result = pipeline.run_train_clmp(cfg, args.out)
            print(json.dumps({"epochs": len(result.loss_curve),
                              "final_loss": result.loss_curve[-1] if result.loss_curve else None}))
        elif args.command == "build-index":
            print(json.dumps({"indexed": pipeline.run_build_index(cfg, args.out)}))
        elif args.command == "train-latent":
            history = pipeline.run_train_latent(cfg, args.out)
            print(json.dumps({"steps": len(history), "final_loss": history[-1]}))
        elif args.command == "train-diffusion":
            history = pipeline.run_train_diffusion(cfg, args.out)
            print(json.dumps({"steps": len(history), "final_loss": history[-1]}))
        elif args.command == "generate":
            result = pipeline.run_generate(
                cfg, args.out, args.prompt,
                seed=args.seed, steps=args.steps, w=args.cfg,
                use_melody=not args.no_melody, sampler=args.sampler, tag=args.tag,
            )
            print(json.dumps(dataclasses.asdict(result), indent=2))
        elif args.command == "evaluate":
            if args.report and not Path(args.report).parent.is_dir():
                raise ValidationError(f"--report: directory {Path(args.report).parent} "
                                      "does not exist")
            report = pipeline.run_evaluate(cfg, args.out, mode=args.mode, seed=args.seed)
            text = json.dumps(report, indent=2, sort_keys=True)
            if args.report:
                smallnet.write_atomic(args.report, [(text + "\n").encode("utf-8")])
            print(text)
        return EXIT_OK
    except MissingArtifactError as e:
        print(f"melodygen: error: missing artifact: {e}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except ValidationError as e:
        print(f"melodygen: error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except MelodyGenError as e:
        print(f"melodygen: error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:  # never a bare traceback for operational failures
        print(f"melodygen: error: unexpected {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
