import json

import pytest

from idemsync import SearchBudget, UsageError, gen_cerny
from idemsync.cli import main
from idemsync.harness import (
    CLAIMS,
    PROP5_SAMPLES,
    ClaimRecord,
    HarnessReport,
    Lemma1Report,
    check_theorem2,
    run_harness,
)


def test_claim_registry_is_complete():
    assert sorted(CLAIMS) == [
        "cerny",
        "cor3",
        "gusev7",
        "ladder",
        "lemma1",
        "prop5",
        "thm2",
    ]


def test_cerny_claim_produces_one_record_per_size():
    report = run_harness(["cerny"])
    assert [r.params for r in report.records] == [f"n={n}" for n in range(2, 11)]
    assert report.ok
    assert all(r.claim == "cerny" and r.passed for r in report.records)
    assert all(r.millis >= 0 for r in report.records)


def test_records_are_ordered_by_claim_id():
    report = run_harness(["thm2", "cerny"])
    claims = [r.claim for r in report.records]
    assert claims == sorted(claims)
    assert claims[0] == "cerny"


def test_default_selection_runs_every_claim_in_id_order():
    report = run_harness()
    assert len(report.records) == 47
    assert list(dict.fromkeys(r.claim for r in report.records)) == sorted(CLAIMS)
    red = [(r.claim, r.params) for r in report.records if not r.passed and not r.informative]
    assert red == [("cor3", "n=4")]


def test_repeated_claim_ids_run_once():
    report = run_harness(["thm2", "cerny", "cerny"])
    assert [(r.claim, r.params) for r in report.records] == [
        ("cerny", f"n={n}") for n in range(2, 11)
    ] + [("thm2", f"n={n}") for n in range(2, 10)]


def test_unknown_claim_is_rejected():
    with pytest.raises(UsageError, match="unknown claim"):
        run_harness(["cerny", "bogus"])


def test_a_bare_string_is_not_read_as_its_characters():
    with pytest.raises(UsageError) as info:
        run_harness("cerny")
    assert str(info.value) == "claim ids 'cerny' is a string, expected an iterable of claim ids"


def test_claim_ids_that_are_not_iterable_are_refused():
    with pytest.raises(UsageError) as info:
        run_harness(5)
    assert str(info.value) == "claim ids 5 has type int, expected an iterable of claim ids"


def test_gusev_claim_gates_only_the_seven_state_instance():
    report = run_harness(["gusev7"])
    gating = [r for r in report.records if not r.informative]
    info = [r for r in report.records if r.informative]
    assert [r.params for r in gating] == ["n=7"]
    assert [r.params for r in info] == ["n=3", "n=5", "n=9", "n=11", "n=13"]
    assert report.ok == gating[0].passed


def test_informative_records_never_gate():
    failing_info = ClaimRecord("x", "n=1", "1", "2", False, 0.0, informative=True)
    passing = ClaimRecord("x", "n=2", "1", "1", True, 0.0)
    failing = ClaimRecord("x", "n=2", "1", "2", False, 0.0)
    assert HarnessReport((failing_info, passing)).ok
    assert not HarnessReport((failing_info, passing, failing)).ok


def test_text_lines_carry_tags():
    report = run_harness(["gusev7"])
    lines = report.text_lines()
    assert lines[0].startswith("[PASS] gusev7 n=7:")
    assert all(line.startswith("[info]") for line in lines[1:])


def test_jsonl_records_carry_all_fields():
    report = run_harness(["ladder"])
    for line in report.jsonl_lines():
        record = json.loads(line)
        assert set(record) == {
            "claim",
            "params",
            "expected",
            "measured",
            "pass",
            "millis",
            "informative",
        }
        assert record["claim"] == "ladder"
        assert record["pass"] is True


def test_budget_is_threaded_through():
    report = run_harness(["cerny"], budget=SearchBudget(max_subsets=2))
    assert not report.ok


def test_lemma1_counts_every_failing_sample(monkeypatch):
    import idemsync.harness as harness

    monkeypatch.setattr(harness, "check_lemma1", lambda dfa: Lemma1Report(dfa.n, (), (), False))
    (record,) = run_harness(["lemma1"]).records
    assert record.passed is False
    assert record.measured == "violations=200"


def test_smallest_doubled_instance_is_the_known_red_record():
    report = run_harness(["cor3"])
    failing = [r for r in report.records if not r.passed]
    assert [r.params for r in failing] == ["n=4"]
    assert "proper=False" in failing[0].measured


def test_truncated_threshold_records_say_so():
    # a search the budget cut short is not a non-synchronizing answer
    records = run_harness(["ladder"], SearchBudget(max_subsets=3)).records
    assert [r.measured for r in records[:4]] == [
        "ret=0", "ret=1", "ret=None truncated=1", "ret=None truncated=1"
    ]
    assert all(r.measured.endswith("truncated=1") for r in records[2:])
    (cor3,) = run_harness(["cor3"], SearchBudget(max_subsets=3)).records[:1]
    assert cor3.measured.startswith("ret=None truncated=1 ranks=[2]")


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_every_truncated_threshold_says_so(claim):
    # an unknown threshold reads the same as a non-synchronizing answer
    # unless the record marks the truncation
    for r in run_harness([claim], SearchBudget(max_subsets=3)).records:
        if "ret=None" in r.measured or "ret_doubled=None" in r.measured:
            assert "truncated=" in r.measured, (r.params, r.measured)


def test_thm2_truncated_doubled_search_keeps_agreement():
    records = run_harness(["thm2"], SearchBudget(max_subsets=3)).records
    assert records[0].params == "n=2"
    assert records[0].measured == "ret_doubled=None truncated=1 agree=True encoded_resets=None"
    assert not any(r.passed for r in records)


def test_thm2_verify_under_a_truncating_budget_exits_one(capsys):
    assert main(["verify", "thm2", "--budget", "3"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", [2, 6])
def test_theorem2_agreement_reads_the_pair_test_under_truncation(n):
    # at n=2 only the doubled search is cut, at n=6 both are
    report = check_theorem2(gen_cerny(n), SearchBudget(max_subsets=3))
    assert report.transformed.truncated
    assert report.sync_agrees is True
    assert report.threshold_doubled is None and report.encoded_witness_resets is None
    assert report.ok is False


def test_prop5_default_budget_record():
    (record,) = run_harness(["prop5"]).records
    assert record.passed
    assert record.measured == "synchronizing=198 violations=0"


def test_prop5_truncated_samples_fail_the_record():
    (record,) = run_harness(["prop5"], SearchBudget(max_subsets=2)).records
    assert record.passed is False
    assert "truncated=" in record.measured


def test_prop5_verify_under_a_truncating_budget_exits_one(capsys):
    assert main(["verify", "prop5", "--budget", "2"]) == 1
    assert capsys.readouterr().err == ""


def test_prop5_runs_one_pair_test_per_sample(monkeypatch):
    import idemsync.analysis as analysis

    calls = []
    pair_test = analysis.is_synchronizing

    def counted(dfa):
        calls.append(dfa)
        return pair_test(dfa)

    monkeypatch.setattr(analysis, "is_synchronizing", counted)
    run_harness(["prop5"])
    assert len(calls) == PROP5_SAMPLES
