"""Command-line interface.

Subcommands cover the full pipeline: synth (build + sample an oracle
world), contingency, sample, fit, project, edit, eval, sweep, report.
Exit codes: 0 success, 1 usage error, 2 data/file error.  Every random
step takes --seed (default 0); under --strict an omitted --seed is a
usage error.  Identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .contingency import build_contingency, imbalance_stats, write_contingency_csv
# write_dataset and sample_world stay bound here for perfbench/tracing.py to wrap
from .dataio import (LatdFormatError, atomic_write_text, csv_text, read_csv, read_dataset,
                     write_dataset, write_dataset_blocks, write_json)
from .directions import (conditional_project, edit_latent, load_direction,
                         save_direction)
from .evaluation import (METHODS, SWEEP_POLICIES, _eval_latents, fit_directions, rescore,
                         save_rescore, sweep_regularization, sweep_sample_size, sweep_to_csv)
from .oracle import default_world, load_world, make_world, sample_blocks, sample_world, save_world
from .sampler import (POLICIES, SamplePlan, balanced_subsample, read_subsample_indices,
                      uniform_subsample, write_subsample)

_EDIT_BLOCK_BYTES = 1 << 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_seed(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default 0; required with --strict)")


def _resolve_seed(args) -> int:
    if args.seed is None:
        if args.strict:
            raise _UsageError("--seed is required in --strict mode")
        return 0
    return args.seed


def _default(value, default):
    return default if value is None else value


def _checked(parse, valid, expected: str, many: bool = False):
    """An argparse type: the parsed value, or with ``many`` the list of
    comma-separated values; a value that does not parse or fails ``valid`` is
    a usage error (exit 1) that names the flag and the value."""
    def check(text: str):
        try:
            values = [parse(t) for t in (text.split(",") if many else [text])]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {expected}, got {text!r}") from None
        for v in values:
            if not valid(v):
                raise argparse.ArgumentTypeError(f"expects {expected}, got {v!r}")
        return values if many else values[0]
    return check


def _positive(x: float) -> bool:
    return bool(np.isfinite(x)) and x > 0


def _corr(text: str) -> tuple:
    i, j, rho = text.split(",")
    return int(i), int(j), float(rho)


def _subset(choices):
    return _checked(str.strip, lambda v: v in choices,
                    "a comma-separated subset of " + ",".join(choices), many=True)


_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")
_POSITIVE = _checked(float, _positive, "a finite number > 0")
_FINITE = _checked(float, np.isfinite, "a finite number")


def build_parser() -> _Parser:
    parser = _Parser(prog="latbal",
                     description="Balanced sampling and attribute-direction "
                                 "estimation for labeled latent datasets.")
    parser.add_argument("--version", action="version", version=f"latbal {__version__}")
    parser.add_argument("--strict", action="store_true",
                        help="fail (exit 1) when a random step runs without --seed")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth",
                       help="build an oracle world and sample a labeled dataset")
    p.add_argument("--out", required=True, help="output dataset path base")
    p.add_argument("--world-out", default=None, help="world JSON path (default <out>.world.json)")
    p.add_argument("--n", type=int, default=10000, help="number of latent codes")
    p.add_argument("--dim", type=_COUNT, default=None)
    p.add_argument("--names", type=_checked(str, lambda v: v.strip() != "",
                                            "comma-separated non-blank names", many=True),
                   default=None, help="comma-separated attribute names")
    p.add_argument("--rates", type=_checked(float, lambda r: 0 < r < 1,
                                            "comma-separated numbers in (0, 1)", many=True),
                   default=None, help="comma-separated positive rates")
    p.add_argument("--corr", type=_checked(_corr, lambda t: np.isfinite(t[2]),
                                           "I,J,RHO with a finite RHO"),
                   action="append", default=None, metavar="I,J,RHO",
                   help="pairwise cosine between planted vectors (repeatable)")
    p.add_argument("--sharpness", type=_POSITIVE, default=None, help="logistic slope")
    _add_seed(p)

    p = sub.add_parser("contingency",
                       help="build the label contingency table")
    p.add_argument("--data", required=True, help="dataset path base")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--stats", default=None, help="optional JSON path for imbalance stats")

    p = sub.add_parser("sample", help="subsample a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("balanced", "uniform"), default="balanced")
    p.add_argument("--n0", type=_COUNT, default=1000)
    p.add_argument("--policy", choices=POLICIES, default=None,
                   help="--mode balanced only; exhausted-cell policy (default skip)")
    p.add_argument("--out", required=True, help="output path base (.csv + .json)")
    _add_seed(p)

    p = sub.add_parser("fit", help="fit one direction per attribute")
    p.add_argument("--data", required=True)
    p.add_argument("--subsample", default=None, help="subsample CSV restricting the fit rows")
    p.add_argument("--method", choices=METHODS, default="centroid")
    p.add_argument("--c", type=_POSITIVE, default=1.0, help="SVM regularization")
    p.add_argument("--tol", type=_POSITIVE, default=1e-6,
                   help="SVM duality-gap tolerance that certifies convergence")
    p.add_argument("--max-iter", type=_COUNT, default=1000,
                   help="cap on SVM Newton steps, summed over all smoothing stages")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="accepted and ignored: fitting draws no random numbers")

    p = sub.add_parser("project",
                       help="project a direction off the span of others")
    p.add_argument("--target", required=True)
    p.add_argument("--others", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("edit", help="translate all codes along a direction")
    p.add_argument("--data", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--alpha", type=_FINITE, default=0.2)
    p.add_argument("--out", required=True, help="output dataset path base")

    p = sub.add_parser("eval",
                       help="re-score directions against an oracle world")
    p.add_argument("--world", required=True)
    p.add_argument("--directions", nargs="+", required=True)
    p.add_argument("--alpha", type=_FINITE, default=0.2)
    p.add_argument("--n", type=_COUNT, default=2000, help="evaluation codes")
    p.add_argument("--out", required=True, help="output path base (.csv + .json)")
    _add_seed(p)

    p = sub.add_parser("sweep",
                       help="sample-size or regularization sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--world", required=True)
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--sizes", type=_checked(int, lambda n: n >= 1,
                                               "comma-separated integers >= 1", many=True),
                      help="comma-separated N0 grid")
    grid.add_argument("--c-grid", type=_checked(float, _positive,
                                                "comma-separated finite numbers > 0",
                                                many=True),
                      help="comma-separated C grid")
    p.add_argument("--methods", type=_subset(METHODS), default=None,
                   help="--sizes only; comma-separated: centroid,svm (default centroid)")
    p.add_argument("--policies", type=_subset(SWEEP_POLICIES), default=None,
                   help="--sizes only; comma-separated: skip,oversample,uniform "
                        "(default skip)")
    p.add_argument("--n0", type=_COUNT, default=None,
                   help="--c-grid only; balanced subsample size (default 1000)")
    p.add_argument("--c", type=_POSITIVE, default=None,
                   help="--sizes only; SVM C (default 1.0)")
    p.add_argument("--runs", type=_COUNT, default=5)
    p.add_argument("--alpha", type=_FINITE, default=0.2)
    p.add_argument("--n-eval", type=_COUNT, default=2000)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_seed(p)

    p = sub.add_parser("report", help="merge sweep/rescore CSVs")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _cmd_synth(args) -> int:
    seed = _resolve_seed(args)
    try:  # synth reads no file, so every value its world rejects is a bad flag
        world = _synth_world(args, seed)
        labels, blocks = sample_blocks(world, args.n, seed=seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    write_dataset_blocks(args.out, world.schema, labels, world.dim, blocks)
    save_world(world, args.world_out or args.out + ".world.json")
    print(f"wrote {args.out}.latd ({args.n} codes, dim {world.dim}, {world.m} attributes)")
    return 0


def _synth_world(args, seed: int):
    """The default world, or the one the custom-world flags describe."""
    names, rates = args.names, args.rates
    if all(v is None for v in (args.dim, names, rates, args.corr, args.sharpness)):
        return default_world(seed=seed)
    if names and rates and len(rates) != len(names):
        raise _UsageError(f"--rates has {len(rates)} values for {len(names)} --names")
    m = len(names) if names else (len(rates) if rates else 4)
    dim = _default(args.dim, 64)
    if dim < m:
        raise _UsageError(f"--dim must be >= the number of attributes ({m}), got {dim}")
    gram = np.eye(m)
    for i, j, rho in args.corr or []:
        if not (0 <= i < m and 0 <= j < m and i != j):
            raise _UsageError(f"--corr needs two distinct indices in 0..{m - 1}, "
                              f"got {i},{j},{rho!r}")
        gram[i, j] = gram[j, i] = rho
    return make_world(dim=dim, gram=gram, positive_rates=_default(rates, [0.5] * m),
                      sharpness=_default(args.sharpness, 1.0), seed=seed,
                      names=None if names is None else tuple(names))


def _cmd_contingency(args) -> int:
    dataset = read_dataset(args.data)
    table = build_contingency(dataset)
    write_contingency_csv(table, args.out)
    payload = dataclasses.asdict(imbalance_stats(table))
    if args.stats:
        write_json(args.stats, payload)
    print(json.dumps(payload))
    return 0


def _cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    if args.mode == "uniform" and args.policy is not None:
        raise _UsageError("--policy does not apply to --mode uniform")
    dataset = read_dataset(args.data)
    if args.mode == "uniform":
        result = uniform_subsample(dataset, args.n0, seed)
    else:
        table = build_contingency(dataset)
        plan = SamplePlan(n0=args.n0, policy=_default(args.policy, "skip"), seed=seed)
        result = balanced_subsample(dataset, table, plan)
    write_subsample(result, args.out)
    print(f"wrote {args.out}.csv ({result.size} draws, "
          f"{result.skipped_iterations} skipped)")
    return 0


def _cmd_fit(args) -> int:
    dataset = read_dataset(args.data)
    indices = read_subsample_indices(args.subsample, dataset.n) if args.subsample else None
    for name in dataset.schema.names:  # a name becomes a file name in --out-dir
        if name in (".", "..") or any(ch in name for ch in ("/", os.sep, "\0")):
            raise ValueError(f"{args.data}.labels.csv: attribute name {name!r} cannot "
                             "name a file in --out-dir")
    dirs = fit_directions(dataset, args.method, c=args.c, tol=args.tol,
                          max_iter=args.max_iter, rows=indices)
    for direction in dirs:
        name = dataset.schema.names[direction.attribute]
        path = os.path.join(args.out_dir, f"{name}.json")
        save_direction(direction, path)
        print(f"wrote {path}")
        meta = direction.meta
        if direction.method == "svm" and not meta["converged"]:
            print(f"latbal fit: warning: {name}: SVM stopped at --max-iter after "
                  f"{meta['iterations']} iterations, duality gap {meta['duality_gap']:.3g} "
                  f"> tol {args.tol:g}; not converged", file=sys.stderr)
    return 0


def _cmd_project(args) -> int:
    target = load_direction(args.target)
    others = [load_direction(p) for p in args.others]
    save_direction(conditional_project(target, others), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_edit(args) -> int:
    dataset = read_dataset(args.data)
    direction = load_direction(args.direction)
    # edit and write about 1 MB of rows at a time; an empty dataset still
    # makes one (empty) block, so edit_latent checks the direction's dim
    step = max(1, _EDIT_BLOCK_BYTES // (8 * dataset.dim))
    blocks = (edit_latent(dataset.codes[i:i + step], direction, args.alpha)
              for i in range(0, max(dataset.n, 1), step))
    with np.errstate(over="ignore"):  # the writer names an overflowed row and writes nothing
        write_dataset_blocks(args.out, dataset.schema, dataset.labels, dataset.dim, blocks)
    print(f"wrote {args.out}.latd")
    return 0


def _cmd_eval(args) -> int:
    seed = _resolve_seed(args)
    world = load_world(args.world)
    dirs = [load_direction(p) for p in args.directions]
    for path, u in zip(args.directions, dirs):
        if u.dim != world.dim or not 0 <= u.attribute < world.m:
            raise ValueError(f"{path}: direction has dim {u.dim} and attribute {u.attribute}, "
                             f"but {args.world} has dim {world.dim} and {world.m} attributes")
    latents = _eval_latents(world.dim, args.n, seed, 0)
    matrix = rescore(world.score, dirs, latents, args.alpha)
    save_rescore(matrix, args.out, names=world.names)
    print(f"wrote {args.out}.csv")
    return 0


def _cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    kind = "--sizes" if args.sizes is not None else "--c-grid"
    for name in ("methods", "policies", "c") if args.c_grid is not None else ("n0",):
        if getattr(args, name) is not None:
            raise _UsageError(f"--{name} does not apply to a {kind} sweep")
    dataset = read_dataset(args.data)
    world = load_world(args.world)
    if (world.dim, world.m) != (dataset.dim, dataset.m):
        raise ValueError(f"{args.world}: world has dim {world.dim} and {world.m} attributes, "
                         f"but {args.data} has dim {dataset.dim} and {dataset.m} attributes")
    if args.sizes is not None:
        report = sweep_sample_size(
            dataset, world.score, args.sizes, methods=tuple(args.methods or ["centroid"]),
            policies=tuple(args.policies or ["skip"]), runs=args.runs, alpha=args.alpha,
            n_eval=args.n_eval, c=_default(args.c, 1.0), seed=seed)
    else:
        report = sweep_regularization(
            dataset, world.score, args.c_grid, n0=_default(args.n0, 1000),
            runs=args.runs, alpha=args.alpha, n_eval=args.n_eval, seed=seed)
    atomic_write_text(args.out, sweep_to_csv(report))
    print(f"wrote {args.out} ({len(report.rows)} rows)")
    return 0


def _cmd_report(args) -> int:
    header = None
    rows = []
    for path in args.inputs:
        head, body = read_csv(path)
        if header is None:
            header = head
        elif head != header:
            raise LatdFormatError(f"{path}: header {head} does not match {header}")
        rows.extend(body)
    if args.format == "csv":
        atomic_write_text(args.out, csv_text([header] + rows))
    else:
        repeated = [name for k, name in enumerate(header) if name in header[:k]]
        if repeated:  # a JSON object keeps one value per key
            raise LatdFormatError(f"{args.inputs[0]}: header repeats {repeated[0]!r}; "
                                  "JSON output needs distinct names")
        write_json(args.out, [dict(zip(header, r)) for r in rows])
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "contingency": _cmd_contingency,
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "project": _cmd_project,
    "edit": _cmd_edit,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"latbal {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, OSError) as exc:  # LatdFormatError is a ValueError
        print(f"latbal {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
