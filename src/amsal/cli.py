"""Batch command-line interface.

Subcommands: synth (emit a planted dataset), align (recover an
assignment), erase (fit and apply a removal operator), eval (score
predictions) and pipeline (align -> erase -> eval from a config file).
The CLI is a thin shell: align, erase and eval call the stage functions
that the pipeline also uses, then write their files once every stage is
done, so every result is reproducible through library calls alone.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as aio
from .assignment import PRIOR_SLACK
from .driver import AmsalConfig, alignment_accuracy, run_amsal
from .errors import AmsalError, InvalidInput
from .removal import INLP_ROUNDS, _check_rank, _check_rounds, apply_eraser
from .synthetic import LatentSpec, as_records, generate_latent


def _cmd_synth(args):
    spec = LatentSpec(
        n=args.n,
        d=args.d,
        d_prime=args.d_prime,
        num_states=args.states,
        state_priors=tuple(args.priors),
        x_noise=args.x_noise,
        z_noise=args.z_noise,
        separation=args.separation,
        bound_b=args.clip,
        rng_seed=args.seed,
    )
    data = generate_latent(spec)
    out = aio.output_dir(args.out)
    ext = args.format
    aio.save_matrix(data.x, out / f"x.{ext}", fmt=ext)
    aio.save_matrix(data.z, out / f"z_samples.{ext}", fmt=ext)
    records, truth = as_records(data)
    aio.save_matrix(records.z, out / f"z_records.{ext}", fmt=ext)
    aio.save_assignment(truth, out / "truth.csv")
    aio.save_labels(data.states, out / "states.csv")
    counts = np.bincount(truth.map, minlength=records.m)
    aio.save_matrix((counts / data.n).reshape(1, -1), out / "priors.csv", fmt=aio.CSV)
    print(f"wrote {data.n} samples ({records.m} unique records) to {out}")
    return 0


# the align flag that sets each PipelineConfig key
_ALIGN_FLAGS = {"x": "--x", "records": "--records", "output_dir": "--out", "priors": "--priors",
                "slack": "--slack", "max_iterations": "--iterations", "num_seeds": "--seeds",
                "rng_seed": "--rng-seed", "score_k": "--k", "seed_labels": "--labels",
                "truth": "--truth"}


def _cmd_align(args):
    try:
        cfg = aio.PipelineConfig(x=args.x, records=args.records, output_dir=args.out,
                                 priors=tuple(args.priors), slack=args.slack, truth=args.truth,
                                 max_iterations=args.iterations, num_seeds=args.seeds,
                                 rng_seed=args.rng_seed, score_k=args.k, seed_labels=args.labels)
    except InvalidInput as exc:
        raise InvalidInput(f"{_ALIGN_FLAGS[exc.key]}: {exc}") from None
    x, records, amsal_cfg, truth = aio.load_align_inputs(cfg)
    with aio._stage_output(args.out) as out:
        result = run_amsal(x, records, amsal_cfg, truth=truth)
        aio.save_alignment(result, out)
    print(f"objective = {result.objective!r} (seed {result.seed})")
    if truth is not None:
        print(f"alignment_accuracy = {alignment_accuracy(result.assignment, truth)!r}")
    return 0


def _cmd_erase(args):
    other_method = {
        "inlp": (("--records", args.records), ("--rank", args.rank)),
        "sal": (("--max-rounds", args.max_rounds),),
    }[args.method]
    for flag, value in other_method:
        if value is not None:
            raise InvalidInput(f"{flag} does not apply to --method {args.method}")
    if args.method == "sal" and not args.records:
        raise InvalidInput("--method sal requires --records")
    if args.max_rounds is not None:
        _check_rounds(args.max_rounds, name="--max-rounds")
    x = aio.load_matrix(args.x)
    if args.rank is not None:
        _check_rank(args.rank, x.shape[1], name="--rank")
    # SAL reads only the record rows, so their count bounds are the defaults
    records = (aio.guarded_records(aio.load_matrix(args.records), x.shape[0], None, PRIOR_SLACK)
               if args.records else None)
    pi = aio.load_assignment(args.assignment, x.shape[0], records.m if records else None)
    with aio._stage_output(args.out) as out:
        eraser = aio.erase(x, pi, args.method, records=records, rank=args.rank,
                           max_rounds=args.max_rounds)
        aio.save_erasure(eraser, apply_eraser(eraser, x), out, args.format)
    print(f"erased matrix written to {out / f'x_erased.{args.format}'}")
    return 0


def _cmd_eval(args):
    load = aio.load_labels if args.task == "classification" else aio.load_values
    z = aio.load_labels(args.z)
    report = aio.evaluate(args.task, load(args.y_true), load(args.y_pred), z)
    text = aio.format_report(report)
    if args.out:
        aio.save_report(report, args.out)
    print(text, end="")
    return 0


def _cmd_pipeline(args):
    cfg = aio.PipelineConfig.from_file(args.config)
    report = aio.run_pipeline(cfg)
    print(aio.format_report(report), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="amsal",
        description="Align unlabeled inputs to guarded records, then erase the aligned information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--d-prime", type=int, default=2)
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--priors", type=float, nargs="*", default=(0.6, 0.4))
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--x-noise", type=float, default=1.0)
    p.add_argument("--z-noise", type=float, default=0.0)
    p.add_argument("--clip", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("align", help="recover an input-to-record assignment")
    p.add_argument("--x", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--priors", type=float, nargs="*", default=(),
                   help="record priors in records-file row order (default: uniform; "
                        "synth writes the matching values to priors.csv)")
    p.add_argument("--slack", type=float, default=PRIOR_SLACK,
                   help="fractional slack around the prior counts (default %(default)s)")
    p.add_argument("--seeds", type=int, default=AmsalConfig.num_seeds)
    p.add_argument("--iterations", type=int, default=AmsalConfig.max_iterations)
    p.add_argument("--rng-seed", type=int, default=AmsalConfig.rng_seed)
    p.add_argument("--k", type=aio._score_k, default=AmsalConfig.score_k,
                   help="projected scoring dimensions (default %(default)s)")
    p.add_argument("--truth", default="")
    p.add_argument("--labels", default="", help="seed pairs for partial selection")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("erase", help="fit an eraser under a fixed assignment")
    p.add_argument("--x", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--method", choices=("sal", "inlp"), default="sal")
    p.add_argument("--records", default=None, help="required for sal")
    p.add_argument("--rank", type=aio._rank, default=None,
                   help="directions to drop (sal; default auto)")
    p.add_argument("--max-rounds", type=int, default=None,
                   help=f"probe rounds (inlp; default {INLP_ROUNDS})")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_erase)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--task", choices=("classification", "regression"), required=True)
    p.add_argument("--y-true", required=True)
    p.add_argument("--y-pred", required=True)
    p.add_argument("--z", required=True, help="per-sample guarded group ids")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pipeline", help="run align -> erase -> eval from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AmsalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
