"""Command-line interface.

Exit codes: 0 on success, 1 when a verification claim fails, 2 on usage
or parse errors.  Results go to standard output, diagnostics to standard
error.  Automaton files use the SAF format; the file argument ``-``
reads standard input, so generators pipe into the other commands.

The environment variable ``IDEMSYNC_MAX_SUBSETS`` overrides the default
subset budget of the exact search; ``--budget`` beats both.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .analysis import (
    DEFAULT_BUDGET,
    DEFAULT_CAPACITY,
    SearchBudget,
    analyze_automaton,
    reset_threshold,
)
from .core import Dfa, UsageError, Word, word_from_names, word_to_names
from .dot import export_dot
from .generators import (
    NotInImage,
    chi_decode,
    chi_encode,
    gen_cerny,
    gen_flipflop,
    gen_gusev_like,
    gen_ladder,
    gen_random_idempotent,
    higgins_transform,
)
from .harness import CLAIMS, run_harness
from .saf import parse_automaton, render_automaton
from .two_idempotent import ContradictionError, synchronize_sink_2idem

BUDGET_ENV = "IDEMSYNC_MAX_SUBSETS"


def _read_dfa(path: str) -> Dfa:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8: bad byte at offset {exc.start}") from None
    return parse_automaton(text)


def _budget(args: argparse.Namespace) -> SearchBudget:
    if args.budget is not None:
        return SearchBudget(max_subsets=args.budget)
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return SearchBudget(max_subsets=int(env))
        except ValueError:
            raise UsageError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


def _cmd_write(args: argparse.Namespace) -> int:
    sys.stdout.write(args.text(args))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    dfa = _read_dfa(args.file)
    report = analyze_automaton(dfa, _budget(args))
    print(f"states: {report.n}")
    print(f"letters: {' '.join(report.letters)}")
    for name, rank, idem in zip(
        report.letters, report.letter_ranks, report.letter_idempotent
    ):
        print(f"letter {name}: rank={rank} idempotent={_flag(idem)}")
    print(f"sinks: {' '.join(map(str, report.sinks)) or '-'}")
    print(f"strongly_connected: {_flag(report.strongly_connected)}")
    print(f"synchronizing: {_flag(report.synchronizing)}")
    sync = report.sync
    if sync is None:
        print(
            f"search: skipped ({report.n} states exceed the subset-search "
            f"capacity {DEFAULT_CAPACITY})"
        )
        return 0
    if sync.synchronizing:
        print(f"reset_threshold: {sync.threshold}")
        print(f"shortest_reset_word: {_spell(dfa, sync.witness)}")
    print(f"states_explored: {sync.states_explored}")
    print(f"truncated: {_flag(sync.truncated)}")
    return 0


def _flag(value: bool) -> str:
    return str(value).lower()


def _spell(dfa: Dfa, word: Word) -> str:
    """The word as space-separated letter names, or ``(empty)``."""
    return " ".join(word_to_names(dfa, word)) or "(empty)"


def _cmd_shortest_word(args: argparse.Namespace) -> int:
    dfa = _read_dfa(args.file)
    result = reset_threshold(dfa, _budget(args))
    if not result.synchronizing:
        reason = "search truncated by budget" if result.truncated else "not synchronizing"
        print(reason, file=sys.stderr)
        return 1
    print(_spell(dfa, result.witness))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_harness([args.claim], _budget(args))
    lines = report.jsonl_lines() if args.json else report.text_lines()
    for line in lines:
        print(line)
    return 0 if report.ok else 1


def _cmd_synchronize(args: argparse.Namespace) -> int:
    dfa = _read_dfa(args.file)
    print(_spell(dfa, synchronize_sink_2idem(dfa)))
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    base = _read_dfa(args.file)
    image = higgins_transform(base)
    if args.direction == "encode":
        word = word_from_names(base, args.letters)
        print(_spell(image.result, chi_encode(image, word)))
        return 0
    word = word_from_names(image.result, args.letters)
    decoded = chi_decode(image, word)
    if isinstance(decoded, NotInImage):
        print(f"not-in-image position={decoded.position}")
        return 0
    print(_spell(base, decoded))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemsync",
        description="Construct, transform, and exactly analyze synchronizing automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, help="max subsets for the exact search")
    file = argparse.ArgumentParser(add_help=False)
    file.add_argument("file", help="SAF file, or - for stdin")

    gen = sub.add_parser("gen", help="emit a generated automaton as SAF")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    p = gen_sub.add_parser("cerny", help="binary family with threshold (n-1)^2")
    p.add_argument("-n", type=int, required=True, help="state count (>= 2)")
    p.set_defaults(generate=lambda a: gen_cerny(a.n))
    p = gen_sub.add_parser("ladder", help="two idempotent letters, unique sink")
    p.add_argument("-n", type=int, required=True, help="state count (>= 1)")
    p.set_defaults(generate=lambda a: gen_ladder(a.n))
    p = gen_sub.add_parser("gusev", help="ladder with the sink's b redirected")
    p.add_argument("-n", type=int, default=7, help="odd state count (default 7)")
    p.set_defaults(generate=lambda a: gen_gusev_like(a.n))
    p = gen_sub.add_parser("flipflop", help="the two-state flip-flop")
    p.set_defaults(generate=lambda a: gen_flipflop())
    p = gen_sub.add_parser("random-idem", help="seeded random idempotent letters")
    p.add_argument("-n", type=int, required=True, help="state count")
    p.add_argument("-k", type=int, required=True, help="letter count")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.set_defaults(generate=lambda a: gen_random_idempotent(a.n, a.k, a.seed))
    gen.set_defaults(func=_cmd_write, text=lambda a: render_automaton(a.generate(a)))

    transform = sub.add_parser("transform", help="apply an automaton transform")
    transform_sub = transform.add_subparsers(dest="transform", required=True)
    p = transform_sub.add_parser(
        "higgins", parents=[file], help="double the states; all letters become idempotent"
    )
    p.set_defaults(
        func=_cmd_write,
        text=lambda a: render_automaton(higgins_transform(_read_dfa(a.file)).result),
    )

    p = sub.add_parser(
        "analyze", parents=[budget, file], help="structural and synchronization report"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "shortest-word",
        parents=[budget, file],
        help="lexicographically least shortest reset word",
    )
    p.set_defaults(func=_cmd_shortest_word)

    p = sub.add_parser("verify", parents=[budget], help="run one verification claim")
    p.add_argument("claim", choices=sorted(CLAIMS), help="claim id")
    p.add_argument("--json", action="store_true", help="emit line-delimited records")
    p.set_defaults(func=_cmd_verify)

    # declared ahead of the file, so a bare `synchronize` names --idem2 first
    idem2 = argparse.ArgumentParser(add_help=False)
    idem2.add_argument(
        "--idem2",
        action="store_true",
        required=True,
        help="use the two-idempotent-letter unique-sink construction",
    )
    p = sub.add_parser(
        "synchronize", parents=[idem2, file], help="constructive reset word (length <= n-1)"
    )
    p.set_defaults(func=_cmd_synchronize)

    p = sub.add_parser("export-dot", parents=[file], help="emit the transition graph as DOT")
    p.set_defaults(func=_cmd_write, text=lambda a: export_dot(_read_dfa(a.file)))

    p = sub.add_parser("chi", help="encode or decode words of the doubled automaton")
    p.add_argument("direction", choices=("encode", "decode"))
    p.add_argument("file", help="SAF file of the BASE automaton, or - for stdin")
    p.add_argument("letters", nargs="*", help="word as letter names")
    p.set_defaults(func=_cmd_chi)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContradictionError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
