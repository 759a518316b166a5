import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemsync import (
    chi_encode,
    gen_cerny,
    gen_flipflop,
    gen_gusev_like,
    gen_ladder,
    higgins_transform,
    parse_automaton,
    render_automaton,
    word_to_names,
)
from idemsync.cli import main
from oracles import cerny_with_tail
from strategies import dfas

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_saf(tmp_path, dfa, name="input.saf"):
    path = tmp_path / name
    path.write_text(render_automaton(dfa), encoding="utf-8")
    return str(path)


class TestGen:
    def test_cerny_roundtrips(self, capsys):
        assert main(["gen", "cerny", "-n", "3"]) == 0
        assert parse_automaton(capsys.readouterr().out) == gen_cerny(3)

    def test_flipflop_golden(self, capsys):
        assert main(["gen", "flipflop"]) == 0
        assert capsys.readouterr().out == "SAF 1\n2 2\na 0 0\nb 1 1\n"

    def test_ladder_and_gusev(self, capsys):
        assert main(["gen", "ladder", "-n", "6"]) == 0
        assert parse_automaton(capsys.readouterr().out) == gen_ladder(6)
        assert main(["gen", "gusev"]) == 0
        assert parse_automaton(capsys.readouterr().out) == gen_gusev_like(7)

    def test_random_idem_is_seed_deterministic(self, capsys):
        argv = ["gen", "random-idem", "-n", "6", "-k", "2", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_parameter_exits_with_usage_code(self, capsys):
        assert main(["gen", "cerny", "-n", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_refused(self, capsys):
        # it would print the automaton of --seed 5
        assert main(["gen", "random-idem", "-n", "4", "-k", "2", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be nonnegative, got -5\n"


class TestTransform:
    def test_higgins_from_file(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_flipflop())
        assert main(["transform", "higgins", path]) == 0
        out = parse_automaton(capsys.readouterr().out)
        assert out == higgins_transform(gen_flipflop()).result

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(render_automaton(gen_cerny(3))))
        assert main(["transform", "higgins", "-"]) == 0
        out = parse_automaton(capsys.readouterr().out)
        assert out.letters == ("a1", "a2", "b")
        assert out.n == 6


class TestAnalyze:
    def test_ladder_report(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_ladder(5))
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "states: 5" in out
        assert "letter a: rank=3 idempotent=true" in out
        assert "sinks: 4" in out
        assert "strongly_connected: false" in out
        assert "synchronizing: true" in out
        assert "reset_threshold: 4" in out
        assert "shortest_reset_word: b a b a" in out

    def test_budget_flag_truncates(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(4))
        assert main(["analyze", path, "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "truncated: true" in out
        # the search ran only after the pair test passed
        assert "synchronizing: true" in out

    def test_environment_does_not_set_the_budget(self, tmp_path, capsys, monkeypatch):
        # the budget is --budget or its default, never a hidden input
        path = write_saf(tmp_path, gen_cerny(4))
        monkeypatch.setenv("IDEMSYNC_MAX_SUBSETS", "2")
        assert main(["analyze", path]) == 0
        assert "truncated: false" in capsys.readouterr().out

    def test_over_capacity_ladder_skips_the_search(self, capsys, monkeypatch):
        assert main(["gen", "ladder", "-n", "100"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["analyze", "-"]) == 0
        assert capsys.readouterr().out == (
            "states: 100\n"
            "letters: a b\n"
            "letter a: rank=51 idempotent=true\n"
            "letter b: rank=50 idempotent=true\n"
            "sinks: 99\n"
            "strongly_connected: false\n"
            "synchronizing: true\n"
            "search: skipped (100 states exceed the subset-search capacity 63)\n"
        )

    def test_over_capacity_non_synchronizing(self, tmp_path, capsys):
        cycle = " ".join(str((q + 1) % 100) for q in range(100))
        path = tmp_path / "cycle.saf"
        path.write_text(f"SAF 1\n100 1\nr {cycle}\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == (
            "states: 100\n"
            "letters: r\n"
            "letter r: rank=100 idempotent=false\n"
            "sinks: -\n"
            "strongly_connected: true\n"
            "synchronizing: false\n"
            "search: skipped (100 states exceed the subset-search capacity 63)\n"
        )

    def test_two_sinks_answer_without_the_pair_table(self, capsys, monkeypatch):
        # the pair table would need 10**10 bytes here; two sinks decide it
        argv = ["gen", "random-idem", "-n", "100000", "-k", "2", "--seed", "7"]
        assert main(argv) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["analyze", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2:] == [
            "synchronizing: false",
            "search: skipped (100000 states exceed the subset-search capacity 63)",
        ]

    def test_one_sink_answers_without_the_pair_table(self, capsys, monkeypatch):
        # one sink reached from every state decides it in O(k * n) steps
        assert main(["gen", "ladder", "-n", "100000"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["analyze", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-4:] == [
            "sinks: 99999",
            "strongly_connected: false",
            "synchronizing: true",
            "search: skipped (100000 states exceed the subset-search capacity 63)",
        ]

    def test_sink_free_past_the_pair_table_cap_exits_two(self, capsys, monkeypatch):
        # a 10**10-byte pair table is refused with one line, not attempted
        assert main(["gen", "cerny", "-n", "100000"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["analyze", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_tail_past_the_pair_table_cap_is_answered(self, capsys, monkeypatch):
        # 20,050 states, but the terminal component is the 50 Černý states
        text = render_automaton(cerny_with_tail(50, 20_000))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["analyze", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-4:] == [
            "sinks: -",
            "strongly_connected: false",
            "synchronizing: true",
            "search: skipped (20050 states exceed the subset-search capacity 63)",
        ]


class TestShortestWord:
    def test_cerny3_witness(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(3))
        assert main(["shortest-word", path]) == 0
        assert capsys.readouterr().out.strip() == "s1 s2 s2 s1"

    def test_non_synchronizing_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cycle.saf"
        path.write_text("SAF 1\n3 1\nr 1 2 0\n", encoding="utf-8")
        assert main(["shortest-word", str(path)]) == 1
        assert "not synchronizing" in capsys.readouterr().err


class TestVerify:
    def test_passing_claim(self, capsys):
        assert main(["verify", "ladder"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 15

    def test_known_red_claim_exits_one(self, capsys):
        assert main(["verify", "cor3"]) == 1
        assert "[FAIL] cor3 n=4" in capsys.readouterr().out

    def test_json_records(self, capsys):
        assert main(["verify", "gusev7", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["claim"] == "gusev7"
        assert records[0]["pass"] is True
        assert any(r["informative"] for r in records)

    def test_unknown_claim_is_a_parser_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "bogus"])
        assert err.value.code == 2


class TestSynchronize:
    def test_ladder_word(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_ladder(5))
        assert main(["synchronize", "--idem2", path]) == 0
        assert capsys.readouterr().out.strip() == "b a b a"

    def test_single_state_prints_empty_marker(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_ladder(1))
        assert main(["synchronize", "--idem2", path]) == 0
        assert capsys.readouterr().out.strip() == "(empty)"

    def test_rejects_non_idempotent_input(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(3))
        assert main(["synchronize", "--idem2", path]) == 2
        assert "idempotent" in capsys.readouterr().err

    def test_flag_is_required(self, tmp_path):
        path = write_saf(tmp_path, gen_ladder(3))
        with pytest.raises(SystemExit) as err:
            main(["synchronize", path])
        assert err.value.code == 2

    def test_contradiction_is_a_usage_failure(self, tmp_path, capsys):
        path = tmp_path / "blocked.saf"
        path.write_text("SAF 1\n5 2\na 1 1 3 3 4\nb 0 2 2 0 4\n", encoding="utf-8")
        assert main(["synchronize", "--idem2", str(path)]) == 2
        assert "not synchronizing" in capsys.readouterr().err

    def test_large_ladder_pipeline(self, capsys, monkeypatch):
        assert main(["gen", "ladder", "-n", "3000"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["synchronize", "--idem2", "-"]) == 0
        letters = capsys.readouterr().out.split()
        assert len(letters) == 2999
        assert letters[:4] == ["b", "a", "b", "a"]


class TestExportDot:
    def test_stdin_to_dot(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(render_automaton(gen_ladder(4))))
        assert main(["export-dot", "-"]) == 0
        assert '3 -> 3 [label="a,b"];' in capsys.readouterr().out


class TestChi:
    def test_encode(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(3))
        assert main(["chi", "encode", path, "s1", "s2"]) == 0
        assert capsys.readouterr().out.strip() == "b a1 b a2"

    def test_decode(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(3))
        assert main(["chi", "decode", path, "b", "a1", "b", "a2"]) == 0
        assert capsys.readouterr().out.strip() == "s1 s2"

    def test_decode_out_of_image(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(3))
        assert main(["chi", "decode", path, "a1", "b"]) == 0
        assert capsys.readouterr().out.strip() == "not-in-image position=0"

    def test_empty_word(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(3))
        assert main(["chi", "encode", path]) == 0
        assert capsys.readouterr().out.strip() == "(empty)"

    def test_unknown_letter(self, tmp_path, capsys):
        path = write_saf(tmp_path, gen_cerny(3))
        assert main(["chi", "encode", path, "zz"]) == 2

    def test_encode_builds_no_automaton_larger_than_the_base(
        self, tmp_path, capsys, built_sizes
    ):
        base = gen_cerny(1000)
        path = write_saf(tmp_path, base)
        image = higgins_transform(base)
        expected = " ".join(word_to_names(image.result, chi_encode(image, (0, 1, 1))))
        built_sizes.clear()
        assert main(["chi", "encode", path, "s1", "s2", "s2"]) == 0
        assert max(built_sizes) <= base.n
        assert capsys.readouterr().out == expected + "\n"


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/a.saf"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_null_byte_in_the_path_is_a_usage_error(self, capsys):
        # open() raises ValueError, not OSError, for it
        assert main(["export-dot", "a\x00b"]) == 2
        assert capsys.readouterr().err == "error: cannot read 'a\\x00b': embedded null byte\n"

    def test_file_given_as_a_second_double_dash(self, capsys):
        # argparse reads the file of `chi encode -- --` as an empty list
        assert main(["chi", "encode", "--", "--"]) == 2
        assert capsys.readouterr().err == "error: missing file argument\n"

    def test_non_utf8_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.saf"
        path.write_bytes(b"\xff\xfeS\x00A\x00F\x00 \x001\x00\n\x00")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not UTF-8" in err

    def test_non_utf8_stdin_is_a_usage_error(self, monkeypatch, capsys):
        raw = io.BytesIO(b"\xff\xfeSAF 1\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        assert main(["shortest-word", "-"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not UTF-8" in err

    @pytest.mark.parametrize(
        "setting, bad",
        [
            ({"LC_ALL": "C.UTF-8"}, b"\xff"),
            ({"LC_ALL": "C"}, b"\xff"),
            ({"PYTHONIOENCODING": "utf-8:surrogatepass"}, b"\xed\xa0\x80"),
        ],
    )
    def test_non_utf8_stdin_fails_under_every_locale(self, setting, bad):
        # each setting reads the bad bytes from stdin as lone surrogates
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHONIO", "LC_"))}
        env.update(setting)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "idemsync.cli", "analyze", "-"],
            input=b"SAF 1\n1 1\n" + bad + b" 0\n",
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: - is not UTF-8: bad byte at offset 10\n"

    @pytest.mark.parametrize("argv", [["analyze", "-"], ["gen", "ladder", "-n", "3"]])
    def test_closed_stdout_exits_quietly(self, argv):
        # the read end is closed before the child starts, so its first
        # write to standard output meets a broken pipe
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "idemsync.cli", *argv],
                input=render_automaton(gen_cerny(4)).encode(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141

    def test_malformed_saf_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.saf"
        path.write_text("SAF 1\n3 1\nr 0 1 7\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err


# each subcommand's argv head and the flags, choices and letter names it takes
CLI_SHAPES = {
    ("gen", "cerny"): ["-n"],
    ("gen", "ladder"): ["-n"],
    ("gen", "gusev"): ["-n"],
    ("gen", "flipflop"): [],
    ("gen", "random-idem"): ["-n", "-k", "--seed"],
    ("transform", "higgins"): ["-"],
    ("analyze",): ["-", "--budget"],
    ("shortest-word",): ["-", "--budget"],
    ("verify",): ["--budget", "--json", "cerny", "gusev7", "ladder", "cor3"],
    ("synchronize",): ["--idem2", "-"],
    ("export-dot",): ["-"],
    ("chi",): ["encode", "decode", "-", "x1", "x2", "a1", "b"],
}
# numbers stay small, so every accepted size is cheap to build and search
HOSTILE_TOKENS = [
    "", " ", "-", "--", "-h", "-1", "-0", "0", "1", "2", "5", "9", "1.5", "1e3", "0x10",
    "1_0", "x", "\u00e9", "a\nb", "\x00", "--budget=-3", "--seed=-2", "--nope",
    "/nonexistent/in.saf", "gen", "verify",
]


@st.composite
def cli_argv(draw) -> list[str]:
    head = draw(st.sampled_from(sorted(CLI_SHAPES)))
    tokens = st.sampled_from(CLI_SHAPES[head] + HOSTILE_TOKENS)
    return [*head, *draw(st.lists(tokens, max_size=6))]


@st.composite
def saf_bytes(draw) -> bytes:
    """Random bytes, or the SAF text of a small automaton with random
    bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=48))
    text = render_automaton(draw(dfas(max_n=5, max_k=3))).encode()
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 3))
    return text[:at] + draw(st.binary(max_size=4)) + text[at + cut:]


def _run_in_process(argv: list[str], data: bytes, errors: str) -> tuple[int, str, str]:
    """The exit code, standard output and standard error of ``main(argv)``
    reading ``data`` as standard input decoded with ``errors``."""
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse: a usage error, or --help
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


class TestHostileInput:
    """Any argv and any bytes on standard input, run in process through the
    one parser ``main`` builds: an exit code of 0, 1 or 2, a one-line
    message on 2, and never an uncaught exception."""

    @settings(max_examples=400, deadline=None)
    @given(cli_argv(), saf_bytes(), st.sampled_from(["strict", "surrogateescape"]))
    def test_exit_codes_and_one_line_errors(self, argv, data, errors):
        code, out, err = _run_in_process(argv, data, errors)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert err.count("\n") == 1 and err.endswith("\n")
            assert "error: " in err
