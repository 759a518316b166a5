import random
import time

import pytest

from idemsync import (
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
