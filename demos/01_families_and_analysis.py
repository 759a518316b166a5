"""Tour of the shipped automaton families and the analysis report.

Builds one member of each family, prints its transition table in the
SAF text format, and runs the exact analysis: letter ranks and
idempotency, sinks, strong connectivity, and the reset threshold with
its canonical shortest witness.
"""

from idemsync import (
    analyze_automaton,
    export_dot,
    gen_cerny,
    gen_flipflop,
    gen_gusev_like,
    gen_ladder,
    render_automaton,
    word_to_names,
)


def describe(title, dfa):
    print("=" * 60)
    print(title)
    print("-" * 60)
    print(render_automaton(dfa), end="")
    report = analyze_automaton(dfa)
    for name, rank, idem in zip(
        report.letters, report.letter_ranks, report.letter_idempotent
    ):
        print(f"  letter {name}: rank {rank}, idempotent {idem}")
    print(f"  sinks: {report.sinks or 'none'}")
    print(f"  strongly connected: {report.strongly_connected}")
    if not report.synchronizing:
        print("  not synchronizing")
    elif report.sync is None:
        print(f"  synchronizing; {report.n} states are past the exact search")
    else:
        witness = " ".join(word_to_names(dfa, report.sync.witness)) or "(empty)"
        print(f"  reset threshold: {report.sync.threshold}, witness: {witness}")
    print()


describe("The 4-state binary family member, threshold (4-1)^2 = 9", gen_cerny(4))
describe("The 6-state ladder: two idempotent letters, threshold 6-1 = 5", gen_ladder(6))
describe("The flip-flop: every single letter already resets it", gen_flipflop())
describe("The 7-state near-idempotent instance, threshold 16", gen_gusev_like(7))

print("=" * 60)
print("DOT output for diagrams (pipe into `dot -Tpng`):")
print("-" * 60)
print(export_dot(gen_ladder(4)), end="")
