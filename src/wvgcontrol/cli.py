"""Batch command-line surface.

Subcommands: ``index`` (exact Penrose-Banzhaf index of one player),
``control`` (decide a control-by-deleting-players instance), ``reduce``
(compile a DIMACS formula into a gadget instance file), ``oracle``
(formula oracles) and ``verify`` (run a verification suite).

Exact fractions are the primary output; decimal renderings are cosmetic
and labelled as such.  Exit codes: 0 = command completed (a NO verdict is
a completed command), 1 = a verification suite failed, 2 = input error,
3 = an engine refused the instance under its budget.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from . import __version__
from .control import (
    ENGINE_CHOICES,
    Exhaustive,
    Restricted,
    Sampled,
    compute_index,
    solve_control,
)
from . import engines as costs
from .engines import DEFAULT_BUDGET, EngineBudget
from .errors import BandStructureError, BudgetExceededError, InputError
from .formulas import count_sat, e_exact_sat, e_minority_sat, parse_dimacs
from .game import ExactIndex, Game
from .gadgets import (
    ControlInstance,
    GadgetConstructionNote,
    Goal,
    build_decrease,
    build_maintain,
    build_nonincrease,
    exactify,
)
from .serialize import dump_instance, load_document
from .verify import SUITES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load(path: Path, strip_tautologies: bool | None = None) -> tuple:
    """The file's DIMACS formula (if ``strip_tautologies`` is given) or its
    game or instance document, and the bytes of its one read; input errors
    name the file."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
        if strip_tautologies is None:
            return load_document(text), data
        return parse_dimacs(text, strip_tautologies=strip_tautologies), data
    except UnicodeDecodeError as error:
        raise InputError(f"{path}: not UTF-8 text ({error})") from error
    except (InputError, BandStructureError) as error:
        raise InputError(f"{path}: {error}") from error


def _echo(args: argparse.Namespace, path: Path, data: bytes) -> None:
    print(f"command: {' '.join(args.argv)}")
    print(f"input:   {path} (sha256/16 {hashlib.sha256(data).hexdigest()[:16]})")


def _fraction_line(label: str, index: ExactIndex) -> str:
    return f"{label}: {index} (~ {index.decimal()}, decimal is cosmetic)"


def _refuse_unread(args: argparse.Namespace, command: str, flags: Iterable[str]) -> None:
    """Refuse those of ``flags`` on the command line (absent flags parse to
    ``None``): ``command`` never reads them."""
    given = [flag for flag in flags if getattr(args, flag[2:]) is not None]
    if given:
        raise InputError(f"{command} does not read {', '.join(given)}")


def _budget_from(args: argparse.Namespace) -> EngineBudget:
    return EngineBudget(args.budget_enum, args.budget_mitm_half, args.budget_dp_quota)


def cmd_index(args: argparse.Namespace) -> int:
    path = Path(args.input)
    loaded, data = _load(path)
    if isinstance(loaded, ControlInstance) and args.player in (None, loaded.distinguished):
        instance = loaded
    elif args.player is None:
        raise InputError("a bare game document needs --player")
    else:
        # Indices of non-distinguished players never use band metadata.
        game = loaded.game if isinstance(loaded, ControlInstance) else loaded
        instance = ControlInstance(game, args.player, 0, Goal.DECREASE)
    budget = _budget_from(args)
    _echo(args, path, data)
    started = time.perf_counter()
    index, engine_used = compute_index(instance, args.engine, budget)
    elapsed = time.perf_counter() - started
    print(f"engine:  {engine_used}")
    print(_fraction_line(f"index of player {instance.distinguished}", index))
    print(f"time:    {elapsed:.3f}s")
    return EXIT_OK


def cmd_control(args: argparse.Namespace) -> int:
    read_in = {"--groups": "restricted", "--seed": "sampled", "--trials": "sampled"}
    unread = [flag for flag, mode in read_in.items() if mode != args.mode]
    _refuse_unread(args, f"control --mode {args.mode}", unread)
    path = Path(args.input)
    loaded, data = _load(path)
    if isinstance(loaded, Game):
        missing = [
            flag
            for flag, value in (
                ("--player", args.player),
                ("--deletions", args.deletions),
                ("--goal", args.goal),
            )
            if value is None
        ]
        if missing:
            raise InputError(
                f"a bare game document needs {', '.join(missing)} on the command line"
            )
        instance = ControlInstance(
            game=loaded,
            distinguished=args.player,
            budget=args.deletions,
            goal=args.goal.upper(),
        )
    else:
        instance = loaded
        for flag, value, own in (("--player", args.player, instance.distinguished),
                                 ("--deletions", args.deletions, instance.budget)):
            if value is not None and value != own:
                raise InputError(f"{flag} {value} differs from the instance document's {own}")
        if args.goal is not None:
            instance = replace(instance, goal=args.goal.upper(), meta=dict(instance.meta))
    if args.mode == "exhaustive":
        mode = Exhaustive()
    elif args.mode == "sampled":
        given = {f: getattr(args, f) for f in ("seed", "trials") if getattr(args, f) is not None}
        mode = Sampled(**given)
    else:
        if not args.groups:
            raise InputError("restricted mode needs --groups")
        mode = Restricted(tuple(args.groups.split(",")))
        mode.players(instance)  # a group the instance lacks is refused before the echo
    budget = _budget_from(args)
    _echo(args, path, data)
    started = time.perf_counter()
    report = solve_control(instance, args.engine, mode, budget)
    elapsed = time.perf_counter() - started
    print(f"goal:    {report.goal.value}")
    print(f"engine:  {report.engine}")
    print(f"verdict: {report.verdict}")
    print(_fraction_line("index before", report.index_before))
    if report.witness is not None:
        print(f"witness: {report.witness.describe()} (players {sorted(report.witness.players)})")
        print(_fraction_line("index after", report.index_after_witness))
        if report.reverified_with:
            print(f"witness re-verified with the {report.reverified_with} engine")
    if report.min_index_seen is not None:
        print(_fraction_line("lowest index seen", report.min_index_seen))
        print(_fraction_line("highest index seen", report.max_index_seen))
    print(f"candidates evaluated: {report.candidates_evaluated}")
    if report.trials is not None:
        print(f"sampling: {report.trials} trials, seed {report.seed}")
    print(f"time:    {elapsed:.3f}s")
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    if args.kind != "maintain":
        _refuse_unread(args, f"reduce --kind {args.kind}", ["--ell", "--exactify"])
    path = Path(args.cnf)
    formula, data = _load(path, args.strip_tautologies)
    strict = not args.relaxed
    if args.kind == "decrease":
        instance = build_decrease(formula, args.k, strict=strict)
    elif args.kind == "nonincrease":
        instance = build_nonincrease(formula, args.k, strict=strict)
    else:
        if args.ell is None:
            raise InputError("maintain reductions need --ell")
        ell = args.ell
        if args.exactify:
            formula, _, ell = exactify(formula, args.k, ell)
        instance = build_maintain(formula, args.k, ell, strict=strict)
    out = Path(args.output)
    out.write_text(dump_instance(instance))
    _echo(args, path, data)
    print(f"kind:    {args.kind} ({instance.meta.get('mode')} mode)")
    print(f"players: {instance.game.num_players}, budget {instance.budget}")
    print(f"wrote:   {out}")
    return EXIT_OK


_ORACLE_UNREAD = {"count-sat": ("--k", "--ell"), "e-minority-sat": ("--ell",), "e-exact-sat": ()}


def cmd_oracle(args: argparse.Namespace) -> int:
    _refuse_unread(args, f"oracle {args.kind}", _ORACLE_UNREAD[args.kind])
    path = Path(args.cnf)
    formula, data = _load(path, args.strip_tautologies)
    if args.kind == "e-minority-sat" and args.k is None:
        raise InputError("e-minority-sat needs --k")
    if args.kind == "e-exact-sat":
        if args.k is None or args.ell is None:
            raise InputError("e-exact-sat needs --k and --ell")
        if args.ell < 1:
            raise InputError(f"--ell must be at least 1, got {args.ell}")
    # the oracle runs before the echo, so every refusal leaves stdout empty
    started = time.perf_counter()
    if args.kind == "count-sat":
        lines = [f"#SAT = {count_sat(formula)}"]
    else:
        if args.kind == "e-minority-sat":
            verdict, prefix = e_minority_sat(formula, args.k)
        else:
            verdict, prefix = e_exact_sat(formula, args.k, args.ell)
        lines = [f"verdict: {'YES' if verdict else 'NO'}"]
        if prefix is not None:
            lines.append(f"witness prefix: {''.join(str(b) for b in prefix)}")
    elapsed = time.perf_counter() - started
    _echo(args, path, data)
    print(*lines, f"time:    {elapsed:.3f}s", sep="\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    # built before any suite runs, so that a trial count it refuses stops ``all`` at once
    options = Sampled(seed=args.seed, trials=args.trials)
    failures = 0
    for name in names:
        print(f"== suite {name}", flush=True)
        started = time.perf_counter()
        for check in SUITES[name](options):
            status = "PASS" if check.passed else "FAIL"
            detail = f"  [{check.detail}]" if check.detail else ""
            # flushed, so that a long suite shows its progress through a pipe too
            print(f"  {status}  {check.name}{detail}", flush=True)
            failures += 0 if check.passed else 1
        print(f"  ({time.perf_counter() - started:.2f}s)")
    if failures:
        print(f"{failures} check(s) FAILED")
        return EXIT_CHECK_FAILED
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvg",
        description="Exact power indices, deletion control and hardness gadgets "
        "for weighted voting games.",
    )
    parser.add_argument("--version", action="version", version=f"wvg {__version__}")
    # Small parent parsers, so each subcommand accepts only the flags it reads.
    engines = argparse.ArgumentParser(add_help=False)
    engines.add_argument(
        "--engine", choices=ENGINE_CHOICES, default="auto",
        help="index engine; auto takes layered whenever it accepts, else the accepting engine "
        f"of least estimated picoseconds: enum {costs.ENUM_PS_PER_SUBSET:,}*2^m, mitm "
        f"{costs.MITM_PS_PER_HALF_SUBSET:,}*2^ceil(m/2), dp {costs.DP_PS_PER_CALL:,} + "
        f"{costs.DP_PS_PER_TABLE_BIT}*m*cells*limb for m co-players, ties to enum, then mitm",
    )
    engines.add_argument("--budget-enum", type=int, metavar="N",
                         default=DEFAULT_BUDGET.max_enum_players,
                         help="max co-players for the enumeration engine")
    engines.add_argument("--budget-mitm-half", type=int, metavar="N",
                         default=DEFAULT_BUDGET.max_mitm_half,
                         help="max half size for meet-in-the-middle")
    engines.add_argument("--budget-dp-quota", type=int, metavar="Q",
                         default=DEFAULT_BUDGET.max_dp_quota,
                         help="max quota for the weight-table engine")
    defaults = Sampled()
    dimacs = argparse.ArgumentParser(add_help=False)
    dimacs.add_argument("--strip-tautologies", action="store_true",
                        help="drop tautological clauses while parsing DIMACS")

    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", parents=[engines],
                             help="exact index of one player")
    p_index.add_argument("input", help="game or instance document")
    p_index.add_argument("--player", type=int, default=None,
                         help="player position (defaults to the instance's distinguished player)")
    p_index.set_defaults(func=cmd_index)

    p_control = sub.add_parser("control", parents=[engines],
                               help="decide a control-by-deletion instance")
    p_control.add_argument("input", help="instance document (or game document plus flags)")
    p_control.add_argument("--player", type=int, default=None)
    p_control.add_argument("--deletions", type=int, default=None,
                           help="deletion budget k; an instance document's own if given")
    p_control.add_argument("--goal", default=None,
                           choices=[g.value.lower() for g in Goal],
                           help="override or supply the goal relation")
    p_control.add_argument("--mode", choices=("exhaustive", "sampled", "restricted"),
                           default="exhaustive")
    p_control.add_argument("--groups", default=None,
                           help="comma-separated provenance groups for restricted mode")
    p_control.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed for sampled mode (default {defaults.seed})")
    p_control.add_argument("--trials", type=int, default=None,
                           help=f"samples in sampled mode (default {defaults.trials})")
    p_control.set_defaults(func=cmd_control)

    p_reduce = sub.add_parser("reduce", parents=[dimacs],
                              help="compile DIMACS into a control instance file")
    p_reduce.add_argument("cnf", help="DIMACS cnf file")
    p_reduce.add_argument("--kind", required=True,
                          choices=("decrease", "nonincrease", "maintain"))
    p_reduce.add_argument("-k", type=int, required=True, help="deletion budget / prefix length")
    p_reduce.add_argument("--ell", type=int, default=None,
                          help="exact suffix count (maintain only)")
    p_reduce.add_argument("--exactify", action="store_true", default=None,
                          help="apply the two-variable extension before building maintain")
    p_reduce.add_argument("--relaxed", action="store_true",
                          help="allow oracle-scale gadget parameters (1 <= k < n)")
    p_reduce.add_argument("-o", "--output", required=True, help="instance file to write")
    p_reduce.set_defaults(func=cmd_reduce)

    p_oracle = sub.add_parser("oracle", parents=[dimacs],
                              help="run a formula oracle")
    p_oracle.add_argument("kind", choices=("count-sat", "e-minority-sat", "e-exact-sat"))
    p_oracle.add_argument("cnf", help="DIMACS cnf file")
    p_oracle.add_argument("--k", type=int, default=None, help="prefix length")
    p_oracle.add_argument("--ell", type=int, default=None, help="exact suffix count")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=defaults.seed, help="RNG seed")
    p_verify.add_argument("--trials", type=int, default=defaults.trials,
                          help="samples in the no-direction-sampled suite")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # ``argv`` rides along so the subcommands echo the command they ran.
    args = parser.parse_args(argv, namespace=argparse.Namespace(argv=argv))
    try:
        # the gadget notes are for library callers; a command-line user cannot act on them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GadgetConstructionNote)
            return args.func(args)
    except BudgetExceededError as error:
        print(f"budget refusal: {error}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, BandStructureError, OSError) as error:
        print(f"input error: {error}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
