"""Command-line entry point.

Subcommands: ``svd``, ``train``, ``eval``, ``plane``, ``oracle``,
``interpolate``.  All artifact-producing commands honour ``--out`` and
the ``CA_OUTPUT_DIR`` environment variable; ``--seed`` rewrites every
seed in the config deterministically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import factor_plane as fp
from .datasets import apply_standardization
from .errors import CaError, ContractViolationError
from .experiment import (
    build_dataset,
    load_config,
    resolve_output_dir,
    run_eval,
    run_experiment,
    run_plane,
)
from .fileio import write_csv_atomic
from .model import load_model
from .oracles import bsc_spectrum_uniform


def _out_dir(args):
    return Path(resolve_output_dir(args.out) or ".")


def _cmd_train(args):
    out = run_experiment(args.config, seed=args.seed, out_dir=args.out)
    print(f"artifacts written to {out}")
    return 0


def _cmd_svd(args):
    if args.pmf is None:
        cfg = load_config(args.config)
    else:
        cfg = {"version": 1, "dataset": {"source": "pmf_csv", "path": args.pmf}}
    cfg["mode"] = "svd"
    if args.plane:
        cfg["planes"] = [args.plane]
    out = run_experiment(cfg, seed=args.seed, out_dir=args.out)
    print(f"artifacts written to {out}")
    return 0


def _cmd_eval(args):
    out = run_eval(args.model, args.config, seed=args.seed, out_dir=args.out)
    print(f"report written to {out / 'pic_report_eval.json'}")
    return 0


def _cmd_plane(args):
    out = run_plane(args.model, args.config, args.i, args.j, seed=args.seed, out_dir=args.out)
    print(f"plane written to {out}")
    return 0


def _cmd_oracle(args):
    if args.kind == "bsc-spectrum" and args.p != 0.5:
        raise ContractViolationError(
            f"bsc-spectrum has a closed form for --p 0.5 only, got --p {args.p}"
        )
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "bsc-spectrum":
        path = out / "bsc_spectrum.csv"
        spectrum = bsc_spectrum_uniform(args.bits, args.delta)
        write_csv_atomic(path, ["value", "multiplicity"], spectrum)
    else:
        # Each source reads only its own keys.
        ds = build_dataset({
            "source": args.kind, "n_samples": args.samples, "seed": args.seed,
            "n_bits": args.bits, "delta": args.delta, "p": args.p,
            "sigma1": args.sigma1, "sigma2": args.sigma2,
            "mu0": args.mu0, "mu1": args.mu1,
            "cov": [[args.var, args.cov], [args.cov, args.var]], "p_mode": args.p_mode,
        })
        path = out / f"{args.kind}_samples.csv"
        header = [f"x{k}" for k in range(ds.x.shape[0])]
        header += [f"y{k}" for k in range(ds.y.shape[0])]
        write_csv_atomic(path, header, zip(ds.x.T, ds.y.T))
    print(f"wrote {path}")
    return 0


def _parse_vector(text):
    try:
        return np.asarray([float(v) for v in text.split(",")], dtype=np.float64)
    except ValueError:
        raise CaError(f"cannot parse vector {text!r}; expected comma-separated floats") from None


def _cmd_interpolate(args):
    model = load_model(args.model)
    start = _parse_vector(args.start)
    end = _parse_vector(args.end)
    std = model.metadata.get("standardization", {}).get("x")
    if std is not None:
        start = apply_standardization(std, start[:, None])[:, 0]
        end = apply_standardization(std, end[:, None])[:, 0]
    path = fp.interpolate_path(model, start, end, args.steps)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    header = ["step"] + [f"f{k}" for k in range(path.shape[1])]
    target = out / "interpolation.csv"
    write_csv_atomic(target, header, enumerate(path))
    print(f"wrote {target}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ca",
        description="Correspondence analysis: classical SVD and neural principal functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override every config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("svd", help="classical decomposition of a table or dataset")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--pmf", help="joint-table CSV (labels in header/first column)")
    p.add_argument("--plane", type=int, nargs=2, metavar=("I", "J"), default=None,
                   help="write this factor plane (in place of a config's planes)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_svd)

    p = sub.add_parser("eval", help="re-evaluate a saved model on a config's dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plane", help="export a factor plane for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plane)

    p = sub.add_parser("oracle", help="emit oracle datasets or exact spectra")
    p.add_argument("kind", choices=["bsc-spectrum", "bsc", "gaussian", "multimodal"])
    p.add_argument("--bits", type=int, default=5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--sigma1", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--mu0", type=float, nargs=2, default=[5.0, 5.0])
    p.add_argument("--mu1", type=float, nargs=2, default=[-5.0, -5.0])
    p.add_argument("--var", type=float, default=1.0)
    p.add_argument("--cov", type=float, default=0.7)
    p.add_argument("--p-mode", type=float, default=0.5, dest="p_mode")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("interpolate", help="trace a feature-space segment in the factor plane")
    p.add_argument("--model", required=True)
    p.add_argument("--start", required=True, help="comma-separated feature vector")
    p.add_argument("--end", required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_interpolate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
