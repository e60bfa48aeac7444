"""Command-line entry points.

Subcommands: zoo generate | zoo evaluate | analyze | search |
bridge-selftest | surrogate-serve. All commands are deterministic for fixed
inputs and seeds; data always goes to files or stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import harness
from .bridge import serve
from .documents import UserError
from .genotype import BUILTIN_OP_SETS, OutputRule
from .proxy import resolve_table
from .surrogate import SurrogateParams


def _csv(text: str) -> list[str]:
    return [part for part in text.split(",") if part.strip()]


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in _csv(text)]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers: %r" % text) from None


def _at_least(minimum: int, what: str):
    """An argparse type: an integer ``what`` of at least ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "expected a %s of at least %d, got %d" % (what, minimum, value)
            )
        return value

    parse.__name__ = what  # argparse names the type in "invalid ... value"
    return parse


_workers = _at_least(1, "worker count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="econas", description="Proxy-based evolutionary cell search toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    zoo = sub.add_parser("zoo", help="model zoo workflows")
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)

    gen = zoo_sub.add_parser("generate", help="write a zoo of random genotypes")
    gen.set_defaults(run=_cmd_zoo_generate)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--count", type=_at_least(0, "model count"), default=50)
    gen.add_argument("--nodes", type=_at_least(1, "node count"), default=5)
    gen.add_argument("--op-set", default="zoo13", choices=sorted(BUILTIN_OP_SETS))
    gen.add_argument(
        "--output-rule", default="all_intermediate", choices=[r.value for r in OutputRule]
    )
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--force", action="store_true")

    ev = zoo_sub.add_parser("evaluate", help="evaluate a zoo over a setting grid")
    ev.set_defaults(run=_cmd_zoo_evaluate)
    # Without --manifest these flags are the manifest's keys (_MANIFEST_KEYS);
    # a manifest sets all of them, so none may be given with one.
    ev.add_argument("--manifest", help="experiment manifest document")
    ev.add_argument("--zoo", help="zoo directory (manifest-less mode)")
    ev.add_argument("--table", help="built-in name or table document (default cifar10)")
    ev.add_argument("--settings", type=_csv, help="comma-separated setting labels")
    ev.add_argument("--out", help="output evaluation log")
    ev.add_argument("--evaluator", help="'surrogate' (default) or 'cmd:...'")
    ev.add_argument("--params", help="surrogate parameters document")
    ev.add_argument("--seed", type=int, help="default 7")
    ev.add_argument("--workers", type=_workers, default=None)
    ev.add_argument("--no-resume", action="store_true", help="re-evaluate everything")

    an = sub.add_parser("analyze", help="build consistency reports from a log")
    an.set_defaults(run=_cmd_analyze)
    an.add_argument("--log", required=True)
    an.add_argument("--ground-truth", required=True, help="Ground-Truth setting label")
    an.add_argument("--out", required=True, help="report output directory")
    an.add_argument("--table", default="cifar10")
    an.add_argument("--top-k", type=int, default=10)
    an.add_argument("--windows", type=_csv_ints, default="15,20")
    an.add_argument("--tolerant-b", type=float, default=0.0015)
    an.add_argument("--rho-f-sizes", type=_csv_ints, help="e.g. 5,10,15,20,30,50")
    an.add_argument("--rho-f-trials", type=int, default=100)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--allow-duplicates", action="store_true",
                    help="keep the last record per (model, setting) instead of rejecting a repeat")

    se = sub.add_parser("search", help="run the evolutionary search")
    se.set_defaults(run=_cmd_search)
    se.add_argument("--config", required=True, help="search config document")
    se.add_argument("--out", required=True, help="result directory")
    se.add_argument("--resume", action="store_true", help="continue from checkpoint")
    se.add_argument("--force", action="store_true", help="ignore an existing checkpoint")
    se.add_argument("--workers", type=_workers, default=None)
    se.add_argument("--stop-after-cycle", type=_at_least(0, "cycle"), default=None,
                    help="stop at a cycle boundary (for testing interrupted runs)")

    bt = sub.add_parser("bridge-selftest", help="check the subprocess evaluator path")
    bt.set_defaults(run=_cmd_bridge_selftest)
    bt.add_argument(
        "--command", dest="serve_command", help="evaluator command line (default: own surrogate)"
    )
    bt.add_argument("--table", default="cifar10")
    bt.add_argument("--seed", type=int, default=7)
    bt.add_argument("--params", help="surrogate parameters document")
    bt.add_argument("--checks", type=_at_least(1, "check count"), default=3)

    sv = sub.add_parser(
        "surrogate-serve", help="serve the surrogate over the wire protocol on stdio"
    )
    sv.set_defaults(run=_cmd_surrogate_serve)
    sv.add_argument("--table", default="cifar10")
    sv.add_argument("--seed", type=int, default=7)
    sv.add_argument("--params", help="surrogate parameters document")

    return parser


def _params(path: str | None) -> SurrogateParams | None:
    """The ``--params`` document; without one, ``harness.make_evaluator``
    uses the packaged calibration at ``--seed``."""
    return SurrogateParams.load(path) if path else None


def _cmd_zoo_generate(args) -> int:
    entries = harness.zoo_generate(
        args.out,
        count=args.count,
        node_count=args.nodes,
        op_set=BUILTIN_OP_SETS[args.op_set],
        seed=args.seed,
        output_rule=OutputRule(args.output_rule),
        force=args.force,
    )
    print("wrote %d genotypes + index to %s" % (len(entries), args.out))
    return 0


# Each flag of `zoo evaluate` that describes the run, and its manifest key.
_MANIFEST_KEYS = {
    "zoo": "zoo", "table": "table", "settings": "settings", "out": "output_log",
    "evaluator": "evaluator", "params": "surrogate_params", "seed": "seed",
}


def _manifest_from_args(args) -> harness.ExperimentManifest:
    given = [flag for flag in _MANIFEST_KEYS if getattr(args, flag) is not None]
    if args.manifest:
        if given:
            raise harness.HarnessError(
                "%s cannot be given with --manifest, which sets them"
                % ", ".join("--" + flag for flag in given)
            )
        manifest = harness.load_manifest(args.manifest)
    else:
        # A manifest must name its table; the flags default to cifar10.
        fields = {"table": "cifar10", "seed": 7}
        fields.update((_MANIFEST_KEYS[flag], getattr(args, flag)) for flag in given)
        manifest = harness.resolve_manifest(fields, "command line", "")
    if args.workers is not None:
        manifest.workers = args.workers
    return manifest


def _cmd_zoo_evaluate(args) -> int:
    manifest = _manifest_from_args(args)
    completed, failed, total = harness.zoo_evaluate(manifest, resume=not args.no_resume)
    print(
        "evaluated %d/%d records into %s (%d failed)"
        % (completed, total, manifest.output_log, failed)
    )
    if failed > 0.10 * total:
        print("more than 10% of the grid failed", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    table = resolve_table(args.table)
    report, paths = harness.run_analyze(
        args.log,
        args.ground_truth,
        args.out,
        table,
        top_k=args.top_k,
        windows=tuple(args.windows),
        tolerant_b=args.tolerant_b,
        rho_f_sizes=args.rho_f_sizes,
        rho_f_trials=args.rho_f_trials,
        seed=args.seed,
        allow_duplicates=args.allow_duplicates,
    )
    print("%d settings analyzed against %s" % (len(report.rows), args.ground_truth))
    for path in paths:
        print("wrote %s" % path)
    return 0


def _cmd_search(args) -> int:
    cfg = harness.load_search_config(args.config)
    if args.workers is not None:
        cfg.workers = args.workers
    result = harness.run_search(
        cfg,
        args.out,
        resume=args.resume,
        force=args.force,
        stop_after_cycle=args.stop_after_cycle,
    )
    # Every finished cycle logs at least one history entry, so the last
    # entry's cycle is the boundary the engine reached.
    reached = result.history[-1].cycle
    if reached < cfg.engine_config.cycles:
        print("stopped at cycle boundary %d; checkpoint saved" % reached)
        return 0
    print(
        "search done: %d models from scratch, %d trained epochs"
        % (result.ledger.from_scratch_models, result.ledger.total_epochs)
    )
    if result.top:
        best = result.top[0]
        print(
            "best model %s: accuracy %.4f after %d epochs"
            % (best.model_id[:16], best.accuracy, best.epochs_trained)
        )
    return 0


def _cmd_bridge_selftest(args) -> int:
    command = args.serve_command or harness.default_serve_command(
        args.table, args.seed, args.params
    )
    lines = harness.bridge_selftest(
        command, resolve_table(args.table), _params(args.params), args.seed, args.checks
    )
    for line in lines:
        print(line)
    return 0


def _cmd_surrogate_serve(args) -> int:
    table = resolve_table(args.table)
    serve(harness.make_evaluator("surrogate", table, _params(args.params), args.seed), table)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UserError, OSError) as exc:  # OSError: a path
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
