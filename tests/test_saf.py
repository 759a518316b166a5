import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemsync import (
    Dfa,
    ParseError,
    UsageError,
    gen_cerny,
    gen_flipflop,
    gen_gusev_like,
    gen_ladder,
    gen_random_dfa,
    gen_random_idempotent,
    higgins_transform,
    parse_automaton,
    render_automaton,
)
from oracles import reference_parse_automaton

FLIPFLOP_TEXT = "SAF 1\n2 2\na 0 0\nb 1 1\n"


def test_flipflop_renders_to_the_canonical_golden():
    assert render_automaton(gen_flipflop()) == FLIPFLOP_TEXT


def test_parse_inverts_render_on_generator_outputs():
    samples = [gen_flipflop(), higgins_transform(gen_cerny(4)).result]
    samples += [gen_cerny(n) for n in range(2, 9)]
    samples += [gen_ladder(n) for n in range(1, 11)]
    samples += [gen_gusev_like(n) for n in (3, 5, 7, 9)]
    for dfa in samples:
        assert parse_automaton(render_automaton(dfa)) == dfa


def test_parse_inverts_render_on_seeded_random_automata():
    rng = random.Random(2)
    for i in range(1000):
        n = rng.randint(1, 8)
        k = rng.randint(1, 3)
        seed = rng.randrange(2**32)
        dfa = (
            gen_random_idempotent(n, k, seed)
            if i % 2
            else gen_random_dfa(n, k, seed)
        )
        assert parse_automaton(render_automaton(dfa)) == dfa


@st.composite
def named_automata(draw):
    """The arguments of a ``Dfa`` whose letter names are drawn from an
    alphabet with ``#``, whitespace and letters."""
    n = draw(st.integers(1, 4))
    names = draw(
        st.lists(st.text(alphabet="ab# \t", max_size=3), min_size=1, max_size=3, unique=True)
    )
    rows = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in names]
    return n, tuple(names), tuple(map(tuple, rows))


@settings(max_examples=200, deadline=None)
@given(named_automata())
def test_every_accepted_name_survives_the_round_trip(args):
    try:
        dfa = Dfa(*args)
    except UsageError as err:
        assert str(err).startswith("bad letter name ")
        return
    assert parse_automaton(render_automaton(dfa)) == dfa


def test_render_canonicalizes_comments_and_spacing():
    text = (
        "# a flip-flop\n"
        "\n"
        "SAF 1   # header\n"
        "  2   2\n"
        "a 0 0  # constant to 0\n"
        "b  1  1\n"
    )
    assert render_automaton(parse_automaton(text)) == FLIPFLOP_TEXT


def test_letter_order_is_preserved():
    text = "SAF 1\n2 2\nz 1 1\ny 0 0\n"
    assert parse_automaton(text).letters == ("z", "y")
    assert render_automaton(parse_automaton(text)) == text


class TestParseErrors:
    def _error(self, text):
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        return err.value

    def test_empty_input(self):
        err = self._error("")
        assert err.line == 1
        assert "header" in str(err)

    def test_comments_only_input(self):
        assert "header" in str(self._error("# nothing here\n\n"))

    def test_bad_header(self):
        assert self._error("XYZ 1\n2 1\nr 0 1\n").line == 1
        assert self._error("SAF 2\n2 1\nr 0 1\n").line == 1

    def test_missing_dimensions(self):
        err = self._error("SAF 1\n")
        assert "dimensions" in str(err)

    def test_malformed_dimensions(self):
        assert self._error("SAF 1\n2\nr 0 1\n").line == 2
        assert self._error("SAF 1\ntwo 1\nr 0 1\n").line == 2
        assert self._error("SAF 1\n0 1\n").line == 2

    def test_out_of_range_target_with_line_number(self):
        err = self._error("SAF 1\n3 1\nr 0 1 3\n")
        assert err.line == 3
        assert "out of range" in str(err)

    def test_duplicate_letter(self):
        err = self._error("SAF 1\n2 2\na 0 1\na 1 0\n")
        assert err.line == 4
        assert "duplicate" in str(err)

    def test_wrong_target_count(self):
        assert self._error("SAF 1\n2 1\nr 0\n").line == 3

    def test_non_integer_target(self):
        err = self._error("SAF 1\n2 1\nr 0 x\n")
        assert err.line == 3
        assert "bad state index" in str(err)

    def test_missing_rows(self):
        err = self._error("SAF 1\n2 2\na 0 1\n")
        assert "expected 2 letter rows" in str(err)

    def test_extra_line(self):
        err = self._error("SAF 1\n2 1\nr 0 1\nextra 0 1\n")
        assert err.line == 4
        assert "extra" in str(err)

    def test_duplicate_among_40000_letters(self):
        rows = [f"x{j} 0" for j in range(40000)]
        start = time.perf_counter()
        assert parse_automaton("\n".join(["SAF 1", "1 40000", *rows])).k == 40000
        assert time.perf_counter() - start < 2.0
        rows[-1] = "x0 0"
        err = self._error("\n".join(["SAF 1", "1 40000", *rows]))
        assert str(err) == "line 40002: duplicate letter name 'x0'"

    def test_parse_error_is_a_usage_error(self):
        with pytest.raises(UsageError):
            parse_automaton("")


def _outcome(parse, text):
    """The parsed automaton, or the error's line and message."""
    try:
        return parse(text)
    except ParseError as err:
        return err.line, str(err)


# spellings that int() accepts or refuses besides plain ASCII digits
ODD_TOKENS = ["x", "+1", "1_0", "\u0661", "\u0663", "-0", "01", "-1", "1.0", "0x1",
              "\u00b2", "1e1", "_1", "+"]


@st.composite
def saf_texts(draw) -> str:
    """SAF texts whose rows may hold odd, negative or out-of-range tokens,
    or one token too many or too few, at up to three places."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    lines = ["SAF 1", f"{n} {k}"]
    for j in range(k):
        tokens = [str(draw(st.integers(0, n - 1))) for _ in range(n)]
        for _ in range(draw(st.integers(0, 3))):
            bad = draw(st.sampled_from(ODD_TOKENS) | st.integers(-2, n + 12).map(str))
            tokens[draw(st.integers(0, n - 1))] = bad
        tokens = tokens[: n + draw(st.sampled_from([0, 0, 0, 0, -1]))]
        tokens += ["0"] * draw(st.sampled_from([0, 0, 0, 0, 1]))
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(sep.join([f"x{j + 1}", *tokens]))
    return "\n".join(lines) + "\n"


class TestParseDifferential:
    """``parse_automaton`` against the token-by-token parser it replaced:
    the same automaton, or the same message on the same line."""

    @settings(max_examples=300, deadline=None)
    @given(saf_texts())
    def test_matches_the_token_loop(self, text):
        assert _outcome(parse_automaton, text) == _outcome(reference_parse_automaton, text)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # a bad token after an out-of-range one in the same row
            ("r 5 x 0", (3, "line 3: state index 5 out of range [0, 3)")),
            ("r 0 -1 x", (3, "line 3: state index -1 out of range [0, 3)")),
            ("r x 5 0", (3, "line 3: bad state index 'x'")),
            ("r 0 1_0 2", (3, "line 3: state index 10 out of range [0, 3)")),
            ("r 0 1.0 2", (3, "line 3: bad state index '1.0'")),
            ("r 0 1 2\ns 0 3 x", (4, "line 4: state index 3 out of range [0, 3)")),
            ("r +1 -0 \u0662", Dfa(3, ("r",), ((1, 0, 2),))),
            ("r \u0661 0 1", Dfa(3, ("r",), ((1, 0, 1),))),
            # leading zeros, which a JSON number may not have
            ("r 0 00 02", Dfa(3, ("r",), ((0, 0, 2),))),
            ("r 0 1\t2", Dfa(3, ("r",), ((0, 1, 2),))),
            ("r 0 1 2 0", (3, "line 3: letter 'r' has 4 targets, expected 3")),
        ],
    )
    def test_first_bad_token_and_int_spellings(self, rows, expected):
        k = rows.count("\n") + 1
        text = f"SAF 1\n3 {k}\n{rows}\n"
        assert _outcome(parse_automaton, text) == expected
        assert _outcome(reference_parse_automaton, text) == expected

    def test_a_run_of_5000_digits(self):
        # past int()'s default digit limit where there is one
        text = "SAF 1\n2 1\nr 0 " + "1" * 5000 + "\n"
        assert _outcome(parse_automaton, text) == _outcome(reference_parse_automaton, text)
        assert isinstance(_outcome(parse_automaton, text), tuple)

    def test_underscore_digits_within_range(self):
        text = "SAF 1\n11 1\nr " + " ".join(["1_0"] * 11) + "\n"
        assert parse_automaton(text) == Dfa(11, ("r",), ((10,) * 11,))
