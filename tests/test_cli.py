"""Command-line interface: file ingestion, verdict reports, exit codes."""

import contextlib
import io
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortality2x2 import Immortal, Instance, InternalError, Mat2, Mortal, Unknown, cli, decide, linalg
from mortality2x2.cli import main
from mortality2x2.linalg import int_form
from mortality2x2.oracle import FuzzReport

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import instances  # noqa: E402

PLANTED = {"matrices": [[[7, -8], [0, 0]], [[2, 0], [1, 1]]]}
IMMORTAL = {"matrices": [[[1, 0], [0, 0]], [[1, -2], [1, 0]]]}
ZERO = {"matrices": [[[0, 0], [0, 0]]]}
OUT_OF_SCOPE = {"matrices": [[[2, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 0]]]}
RATIONAL_ENTRIES = {"matrices": [[["-1/2", 0], [0, 0]], [["1/3", "2/3"], [1, 2]]]}


def write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_decide_zero_instance(tmp_path, capsys):
    code = main(["decide", write(tmp_path, ZERO), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "mortal"
    assert report["witness"] == [0]


def test_decide_planted_instance(tmp_path, capsys):
    code = main(["decide", write(tmp_path, PLANTED), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["witness"] == [0, 1, 1, 1, 0]
    assert report["exponent_witnesses"] == [[0, 3, 0]]
    assert report["certificate"] == "pair-exponent"


def test_decide_immortal_instance(tmp_path, capsys):
    code = main(["decide", write(tmp_path, IMMORTAL), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "immortal"
    assert report["witness"] is None


def test_decide_unknown_instance(tmp_path, capsys):
    code = main(["decide", write(tmp_path, OUT_OF_SCOPE), "--json", "--oracle-bound", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == "unknown"
    assert report["search_bound"] == 5


def test_decide_accepts_rational_strings(tmp_path, capsys):
    code = main(["decide", write(tmp_path, RATIONAL_ENTRIES), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert report["verdict"] in ("mortal", "immortal")


def test_decide_human_output(tmp_path, capsys):
    code = main(["decide", write(tmp_path, PLANTED)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: mortal" in out
    assert "0 1 1 1 0" in out


def test_json_reports_are_stable_modulo_timings(tmp_path, capsys):
    path = write(tmp_path, PLANTED)
    main(["decide", path, "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["decide", path, "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first) == json.dumps(second)


MORTAL_REPORT = """{
  "verdict": "mortal",
  "witness": [
    0,
    1,
    1,
    1,
    0
  ],
  "exponent_witnesses": [
    [
      0,
      3,
      0
    ]
  ],
  "certificate": "pair-exponent",
  "timings": {
    "parse_ms": 0,
    "decide_ms": 0
  }
}
"""
ZERO_MEMBER_REPORT = """{
  "verdict": "mortal",
  "witness": [
    0
  ],
  "exponent_witnesses": null,
  "certificate": "zero-member",
  "timings": {
    "parse_ms": 0,
    "decide_ms": 0
  }
}
"""
IMMORTAL_REPORT = """{
  "verdict": "immortal",
  "witness": null,
  "exponent_witnesses": null,
  "certificate": "all-pairs-refused",
  "timings": {
    "parse_ms": 0,
    "decide_ms": 0
  }
}
"""
UNKNOWN_REPORT = """{
  "verdict": "unknown",
  "witness": null,
  "exponent_witnesses": null,
  "certificate": "multiple-invertible-out-of-scope",
  "search_bound": 5,
  "timings": {
    "parse_ms": 0,
    "decide_ms": 0
  }
}
"""


@pytest.mark.parametrize(
    "doc, golden",
    [
        (PLANTED, MORTAL_REPORT),
        (ZERO, ZERO_MEMBER_REPORT),
        (IMMORTAL, IMMORTAL_REPORT),
        (OUT_OF_SCOPE, UNKNOWN_REPORT),
    ],
)
def test_decide_json_text_is_golden(tmp_path, capsys, doc, golden):
    # the exact bytes, key order included, with only the timing values zeroed
    main(["decide", write(tmp_path, doc), "--json", "--oracle-bound", "5"])
    out = re.sub(r'("(?:parse|decide)_ms": )[^,\n]+', r"\g<1>0", capsys.readouterr().out)
    assert out == golden


TIMINGS = {"parse_ms": 0.123, "decide_ms": 45.0}
WORDS = {
    "one": [3],
    "two-runs": [0, 0, 1],
    "planted": [0] + [1] * 4998 + [0],
    "alternating": [0, 1] * 2500,
    "random": [random.Random(0).randrange(4) for _ in range(5000)],
    # near misses of the one-repeat shape i, v x (n - 2), j, and one hit
    "first-is-middle": [1, 1, 1],
    "last-is-middle": [0, 1, 1, 1, 1],
    "count-off-by-one": [0, 1, 2, 1, 0],
    "one-repeat": [0, 1, 0],
    "pair": [3, 3],
    "middle-twice-between": [2, 1, 1, 2, 1, 2],
    # the count fits, but an end is the middle index
    "first-is-middle-count-fits": [1, 1, 2, 0],
    "last-is-middle-count-fits": [0, 1, 2, 1],
}
REPORTS = {
    "pair-exponent": cli._verdict_report(Mortal((0, 1, 1, 1, 0), "pair-exponent", (0, 3, 0)), TIMINGS),
    "zero-member": cli._verdict_report(Mortal((0,), "zero-member"), TIMINGS),
    "two-step": cli._verdict_report(Mortal((1, 0), "two-step-product"), TIMINGS),
    "bounded-search": cli._verdict_report(Mortal((2, 0, 1, 2), "bounded-search"), TIMINGS),
    "immortal": cli._verdict_report(Immortal("all-pairs-refused"), TIMINGS),
    "unknown": cli._verdict_report(Unknown(5), TIMINGS),
    "fuzz-clean": FuzzReport(count=3, seed=1, bound=8, mortal=2, immortal=1, decide_seconds=0.0123).as_dict(),
    "fuzz-failing": FuzzReport(count=9, seed=0, bound=8, witness_failures=2, failing_seeds=[4, 4, 7]).as_dict(),
    "oracle-found": {"found": True, "witness": [0, 1, 1, 1, 0], "max_len": 8, "timings": {"search_ms": 1.5}},
    "oracle-not-found": {"found": False, "witness": None, "max_len": 4, "timings": {"search_ms": 0.25}},
    "empty-list": [],
    "empty-dict": {},
    "empty-members": {"a": [], "b": {}, "c": [[], {}]},
    **{f"word-{name}": {"witness": word, "exponent_witnesses": [[0, len(word), 0]]} for name, word in WORDS.items()},
    **{
        f"tuple-word-{name}": {"witness": tuple(word), "exponent_witnesses": [(0, len(word), 0)]}
        for name, word in WORDS.items()
    },
    "tuple-in-list": [(0,), (1, 1, 2), [], (-7, 0, 10**30)],
}


@pytest.mark.parametrize("report", REPORTS.values(), ids=REPORTS.keys())
def test_json_text_is_json_dumps_indent_2(report):
    assert cli._json_text(report) == json.dumps(report, indent=2)


WORDS_AND_TUPLES = {**WORDS, **{f"tuple-{name}": tuple(word) for name, word in WORDS.items()}}


@pytest.mark.parametrize("word", WORDS_AND_TUPLES.values(), ids=WORDS_AND_TUPLES.keys())
def test_word_runs_join_like_str_join(word):
    assert cli._join_runs(word, " ") == " ".join(map(str, word))


def _pair_exponent(i, k, j):
    return Mortal((i,) + (1,) * k + (j,), "pair-exponent", (i, k, j))


DECIDE_VERDICTS = {
    "zero-member": Mortal((0,), "zero-member"),
    "two-step-same-index": Mortal((1, 1), "two-step-product"),
    "bounded-search": Mortal((2, 0, 1, 2), "bounded-search"),
    "pair-exponent-k0-same-ends": Mortal((0, 0), "pair-exponent", (0, 0, 0)),
    "pair-exponent-k0": Mortal((0, 2), "pair-exponent", (0, 0, 2)),
    "pair-exponent-k1": _pair_exponent(0, 1, 2),
    "pair-exponent-k5000": _pair_exponent(0, 5000, 0),
    "all-invertible": Immortal("all-invertible"),
    "no-zero-pair-product": Immortal("no-zero-pair-product"),
    "all-pairs-refused": Immortal("all-pairs-refused"),
    "unknown": Unknown(5),
}
DECIDE_TIMINGS = [0.0, 1e-05, 123456.789, 0.1]


@pytest.mark.parametrize("verdict", DECIDE_VERDICTS.values(), ids=DECIDE_VERDICTS.keys())
@pytest.mark.parametrize("t", range(len(DECIDE_TIMINGS)), ids=map(repr, DECIDE_TIMINGS))
def test_decide_json_is_json_dumps_of_the_report(verdict, t):
    # each timing value is written both as parse_ms and as decide_ms
    parse_ms, decide_ms = DECIDE_TIMINGS[t], DECIDE_TIMINGS[t - 1]
    report = cli._verdict_report(verdict, {"parse_ms": parse_ms, "decide_ms": decide_ms})
    assert cli._decide_json(verdict, parse_ms, decide_ms) == json.dumps(report, indent=2)


def test_decide_json_on_the_benchmark_pools_is_json_dumps(tmp_path, capsys):
    # every seed-1 pool file of deep_exponent and wide_pairs, drawn as
    # perfbench/run.py draws them (DEEP_STRATA = 26; WIDE_SINGULARS = 12,
    # WIDE_PER_KIND = 13)
    pool = instances.deep_pool(1, 26) + instances.wide_pool(1, 12, 13)
    for i, case in enumerate(pool):
        path = write(tmp_path, {"matrices": case.matrices()}, f"pool-{i}.json")
        code = main(["decide", path, "--json"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert (code, report["verdict"], report["witness"]) == case.expected()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=6) | st.dictionaries(st.text(max_size=5), children, max_size=6),
    max_leaves=40,
)


@given(json_values | st.lists(st.integers(-3, 3) | st.booleans()))
@settings(max_examples=300)
def test_json_text_matches_json_dumps_on_any_report_shape(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


# N = u w^T with u = (0, 1), w = (1, -2000) and the shear V = [[1, 1], [0, 1]]:
# w . V^k u = k - 2000, so the witness is (0, 1 x 2000, 0)
SHEAR_2000 = {"matrices": [[[0, 0], [1, -2000]], [[1, 1], [0, 1]]]}


def test_decide_json_never_runs_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode called")

    path = write(tmp_path, SHEAR_2000)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert main(["decide", path, "--json"]) == 0
    monkeypatch.undo()
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["witness"] == [0] + [1] * 2000 + [0]
    assert out == json.dumps(report, indent=2) + "\n"


def test_text_word_lines_list_every_index(tmp_path, capsys):
    path = write(tmp_path, SHEAR_2000)
    line = "witness word: " + " ".join(["0"] + ["1"] * 2000 + ["0"]) + "\n"
    assert main(["decide", path]) == 0
    assert line in capsys.readouterr().out
    assert main(["oracle", write(tmp_path, PLANTED, "planted.json")]) == 0
    assert capsys.readouterr().out == "witness word: 0 1 1 1 0\n"


def test_verify_round_trip(tmp_path, capsys):
    path = write(tmp_path, PLANTED)
    assert main(["verify", path, "0", "1", "1", "1", "0"]) == 0
    assert main(["verify", path, "0", "1", "0"]) == 1
    capsys.readouterr()
    for index in ("-1", "7"):
        assert main(["verify", path, "0", index, "0"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"index {index} out of range 0..1" in err and "Traceback" not in err


def test_mortal_reports_reverify(tmp_path, capsys):
    # any witness printed by decide must be accepted by verify with exit 0
    for doc, name in ((PLANTED, "a.json"), (ZERO, "b.json"), (RATIONAL_ENTRIES, "c.json")):
        path = write(tmp_path, doc, name)
        code = main(["decide", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        if code != 0:
            continue
        witness = [str(i) for i in report["witness"]]
        assert main(["verify", path, *witness]) == 0
        capsys.readouterr()


def test_oracle_subcommand(tmp_path, capsys):
    path = write(tmp_path, PLANTED)
    assert main(["oracle", path, "--max-len", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witness"] == [0, 1, 1, 1, 0]
    assert main(["oracle", path, "--max-len", "4"]) == 1
    capsys.readouterr()


LONG_ENTRY = "1" + "0" * 5000  # 10^5000, past Python's 4,300-digit int-string limit


@pytest.mark.parametrize("entry", [LONG_ENTRY, f'"{LONG_ENTRY}/1"'], ids=["integer", "rational-string"])
def test_entries_of_any_length(tmp_path, capsys, entry):
    # written by hand: json.dumps would itself hit the interpreter's limit
    path = tmp_path / "long.json"
    path.write_text(f'{{"matrices": [[[{entry}, 0], [0, 0]], [[0, 1], [1, 0]]]}}')
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert main(["decide", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "mortal"
    assert report["witness"] == [0, 1, 0]
    assert main(["verify", str(path), "0", "1", "0"]) == 0
    assert capsys.readouterr().out == "zero product\n"
    assert main(["oracle", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [0, 1, 0]
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_fuzz_subcommand(capsys):
    code = main(["fuzz", "--count", "50", "--seed", "7", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["count"] == 50
    assert report["contradictions"] == 0
    assert report["mortal"] + report["immortal"] + report["unknown"] == 50


FUZZ_REPORT = """{
  "count": 10,
  "seed": 3,
  "bound": 2,
  "mortal": 4,
  "immortal": 6,
  "unknown": 0,
  "witness_failures": 0,
  "immortal_contradicted": 0,
  "search_misses": 0,
  "mortal_unconfirmed": 2,
  "contradictions": 0,
  "failing_seeds": [],
  "timings": {
    "decide_seconds": 0,
    "search_seconds": 0
  }
}
"""


def test_fuzz_json_text_is_golden(capsys):
    # the exact bytes, key order included, with only the timing values zeroed
    assert main(["fuzz", "--count", "10", "--seed", "3", "--oracle-bound", "2", "--json"]) == 0
    out = re.sub(r'("(?:decide|search)_seconds": )[^,\n]+', r"\g<1>0", capsys.readouterr().out)
    assert out == FUZZ_REPORT


def test_fuzz_human_output(capsys):
    # two of the four mortal witnesses are longer than the search bound
    assert main(["fuzz", "--count", "10", "--seed", "3", "--oracle-bound", "2"]) == 0
    assert capsys.readouterr().out == (
        "10 instances: 4 mortal, 6 immortal, 0 unknown\n"
        "contradictions: 0\n"
        "witnesses beyond the search bound (not contradictions): 2\n"
    )
    assert main(["fuzz", "--count", "10", "--seed", "1", "--oracle-bound", "2"]) == 0
    assert "beyond the search bound" not in capsys.readouterr().out


def test_malformed_inputs_exit_64(tmp_path, capsys):
    bad_entry = {"matrices": [[[1, 0.5], [0, 0]]]}
    path = write(tmp_path, bad_entry)
    assert main(["decide", path]) == 64
    err = capsys.readouterr().err
    assert "matrices[0][0][1]" in err

    assert main(["decide", str(tmp_path / "missing.json")]) == 64
    capsys.readouterr()

    not_json = tmp_path / "garbage.json"
    not_json.write_text("{")
    assert main(["decide", str(not_json)]) == 64
    capsys.readouterr()

    empty = write(tmp_path, {"matrices": []}, "empty.json")
    assert main(["decide", empty]) == 64
    capsys.readouterr()

    shaped = write(tmp_path, {"matrices": [[[1, 0], [0]]]}, "shape.json")
    assert main(["decide", shaped]) == 64
    capsys.readouterr()

    stringy = write(tmp_path, {"matrices": [[["x", 0], [0, 0]]]}, "stringy.json")
    assert main(["decide", stringy]) == 64
    err = capsys.readouterr().err
    assert "matrices[0][0][0]" in err

    # bytes that are not UTF-8 text, and nesting past the parser's recursion
    # limit: a diagnostic naming the file, never a traceback with exit 1
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    utf16 = tmp_path / "utf16.json"
    utf16.write_text(json.dumps(PLANTED), encoding="utf-16")
    deep = tmp_path / "deep.json"
    deep.write_text('{"matrices": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for path in (not_utf8, utf16, deep):
        for argv in (["decide", str(path)], ["verify", str(path), "0"], ["oracle", str(path)]):
            assert main(argv) == 64
            out, err = capsys.readouterr()
            assert out == ""
            assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "entry, problem",
    [
        (True, "boolean is not a rational entry"),
        (None, "unsupported entry of type NoneType"),
        ([1], "unsupported entry of type list"),
        ({"p": 1}, "unsupported entry of type dict"),
    ],
    ids=["boolean", "null", "array", "object"],
)
def test_non_numeric_entries_exit_64(tmp_path, capsys, entry, problem):
    # a JSON true is no 1 and a null no 0: each is refused by its position
    path = write(tmp_path, {"matrices": [[[1, 0], [0, entry]]]})
    assert main(["decide", path]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: matrices[0][1][1]: {problem}\n"


@pytest.mark.parametrize("doc", [[[[1, 0], [0, 0]]], "matrices", 3, None, {"matrix": [[[1, 0], [0, 0]]]}])
def test_documents_without_a_matrices_key_exit_64(tmp_path, capsys, doc):
    path = write(tmp_path, doc)
    assert main(["decide", path]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f'error: {path}: expected an object with a "matrices" key\n'


@pytest.mark.parametrize("entry", ["1e1000000", "0.5", "1_000", " 1/2", "\u0663"])
def test_entry_strings_outside_the_grammar_exit_64(tmp_path, capsys, entry):
    # Fraction() reads every one of these, "1e1000000" as a million-digit
    # integer; an entry string must fully match [+-]?[0-9]+(/[0-9]+)?
    path = write(tmp_path, {"matrices": [[[entry, 1], [0, 0]], [[2, 1], [1, 1]]]})
    for argv in (["decide", path], ["verify", path, "0"], ["oracle", path]):
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "matrices[0][0][0]" in err and "Traceback" not in err


# one entry is not an integer or "p/q" string; the other matches the grammar
# but has a zero denominator, so Fraction() cannot parse it
@pytest.mark.parametrize(
    "entry", ["x" * 1_000_000, "1/" + "0" * 1_000_000], ids=["not-in-grammar", "zero-denominator"]
)
def test_long_bad_entry_is_echoed_cut_short(tmp_path, capsys, entry):
    path = write(tmp_path, {"matrices": [[[entry, 1], [0, 0]]]})
    assert main(["decide", path]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.encode()) < 200
    assert "matrices[0][0][0]" in err and f"{len(entry)} characters" in err
    assert repr(entry[:40]) in err


def test_short_bad_entry_is_echoed_in_full(tmp_path, capsys):
    for entry in ("x" * 40, "1/0"):
        path = write(tmp_path, {"matrices": [[[entry, 1], [0, 0]]]})
        assert main(["decide", path]) == 64
        out, err = capsys.readouterr()
        assert out == "" and repr(entry) in err and "characters" not in err


def test_entry_grammar_keeps_signs_leading_zeros_and_json_integers(tmp_path, capsys):
    # "-1/2", "+3" and "007" read as -1/2, 3 and 7, as they did before the
    # grammar was enforced; the instance is mortal at k = 1
    written = {"matrices": [[["-1/2", "+3"], ["007", -42]], [[6, 0], [15, 1]]]}
    plain = {"matrices": [[["-1/2", 3], [7, -42]], [[6, 0], [15, 1]]]}
    reports = []
    for doc, name in ((written, "written.json"), (plain, "plain.json")):
        path = write(tmp_path, doc, name)
        assert main(["decide", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timings"]
        reports.append(report)
        assert main(["verify", path, *map(str, report["witness"])]) == 0
        assert main(["oracle", path]) == 0
        capsys.readouterr()
    assert reports[0] == reports[1] and reports[0]["witness"] == [0, 1, 0]


@contextlib.contextmanager
def _no_digit_limit():
    """Lift the interpreter's int-string limit, where it has one, inside the
    block: huge entries are written by json.dumps and compared by repr."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _loaded_instances(monkeypatch):
    """The instances `load_instance` hands to the subcommands, in order."""
    loaded = []
    real = cli.load_instance
    monkeypatch.setattr(cli, "load_instance", lambda path: loaded.append(real(path)) or loaded[-1])
    return loaded


def _to_int_mat_calls(monkeypatch):
    calls = []
    real = linalg.to_int_mat
    monkeypatch.setattr(linalg, "to_int_mat", lambda m: calls.append(m) or real(m))
    return calls


def test_integer_files_load_straight_into_forms(tmp_path, capsys, monkeypatch):
    # all-integer files, with zeros, negatives and entries past the 4,300-digit
    # int-string limit, load as Instance.from_rows builds them, with
    # Instance.forms already set to each member's int_form
    rng = random.Random(27)
    loaded = _loaded_instances(monkeypatch)
    to_int_mat = _to_int_mat_calls(monkeypatch)
    huge = 10 ** 5000
    for trial in range(30):
        rows = [
            [[rng.choice((0, rng.randint(-9, 9), rng.randint(-huge, huge))) for _ in range(2)] for _ in range(2)]
            for _ in range(rng.randint(1, 4))
        ]
        path = tmp_path / f"ints-{trial}.json"
        with _no_digit_limit():
            path.write_text(json.dumps({"matrices": rows}))
        to_int_mat.clear()
        assert main(["verify", str(path), "0"]) in (0, 1)
        capsys.readouterr()
        assert not to_int_mat
        instance, fresh = loaded[-1], Instance.from_rows(rows)
        assert instance.forms == tuple(int_form(m) for m in instance.matrices)
        assert instance == fresh and hash(instance) == hash(fresh)
        fresh.forms
        assert pickle.dumps(instance) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(instance)) == fresh
        with _no_digit_limit():
            assert repr(instance) == repr(fresh)


def _mat2_builds(monkeypatch):
    """One entry per `Mat2` built, by any constructor."""
    builds = []
    real = Mat2.__init__

    def counting(self, *entries):
        builds.append(entries)
        real(self, *entries)

    monkeypatch.setattr(Mat2, "__init__", counting)
    return builds


def test_integer_files_build_a_mat2_only_for_a_pair_that_reaches_decide_pair(tmp_path, capsys, monkeypatch):
    # a wide_pairs file of 13 members, whose 144 pairs the orbit sieve refuses
    # wholesale, is decided on its integer forms alone; so is a verify or an
    # oracle search on an integer file
    rows = instances.wide_pool(1, 12, 1)[0].matrices()
    wide, planted = write(tmp_path, {"matrices": rows}, "wide.json"), write(tmp_path, PLANTED)
    builds = _mat2_builds(monkeypatch)
    assert main(["decide", wide, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["certificate"] == "all-pairs-refused"
    assert builds == []
    assert decide(Instance.from_int_rows(rows)) == Immortal("all-pairs-refused")
    assert builds == []
    assert main(["verify", planted, "0", "1", "1", "1", "0"]) == 0
    assert main(["oracle", planted]) == 0
    capsys.readouterr()
    assert builds == []
    # the planted file's one pair reaches decide_pair: its two members are built
    assert main(["decide", planted, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [0, 1, 1, 1, 0]
    assert builds == [(7, -8, 0, 0), (2, 0, 1, 1)]


def test_integer_and_string_entries_mixed_take_the_fraction_path(tmp_path, capsys, monkeypatch):
    # one "p/q" string anywhere sends the file entry by entry through
    # Fraction; the verdict and report are those of the all-integer file
    loaded = _loaded_instances(monkeypatch)
    to_int_mat = _to_int_mat_calls(monkeypatch)
    mixed = {"matrices": [[[7, "-8/1"], [0, 0]], [[2, 0], [1, 1]]]}
    reports, conversions = [], []
    for doc, name in ((PLANTED, "ints.json"), (mixed, "mixed.json")):
        assert main(["decide", write(tmp_path, doc, name), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timings"]
        reports.append(report)
        conversions.append(len(to_int_mat))
    assert reports[0] == reports[1] and reports[0]["witness"] == [0, 1, 1, 1, 0]
    assert loaded[0] == loaded[1] == Instance.from_rows(PLANTED["matrices"])
    assert loaded[0].forms == loaded[1].forms
    # none for the integer file; then each member once, for Instance.forms
    assert conversions == [0, 2]


def _parse_entry_calls(monkeypatch):
    calls = []
    real = cli._parse_entry
    monkeypatch.setattr(cli, "_parse_entry", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("doc", [PLANTED, IMMORTAL, ZERO, OUT_OF_SCOPE], ids=["planted", "immortal", "zero", "unknown"])
def test_integer_files_are_read_in_one_pass(tmp_path, capsys, monkeypatch, doc):
    # no entry of an all-integer file goes through _parse_entry, and the
    # report is that of the same instance built entry by entry into Mat2s
    calls = _parse_entry_calls(monkeypatch)
    code = main(["decide", write(tmp_path, doc), "--json", "--oracle-bound", "5"])
    report = json.loads(capsys.readouterr().out)
    assert calls == []
    verdict = decide(Instance.from_rows(doc["matrices"]), oracle_bound=5)
    assert report == json.loads(json.dumps(cli._verdict_report(verdict, report["timings"])))
    assert code == {"mortal": 0, "immortal": 1, "unknown": 2}[report["verdict"]]


# A member that the one-pass integer load refuses, after a valid member, and
# what `decide` then reports: the first bad member or entry, as the messages
# pinned above word it, or, for a "p/q" string, the report of the same
# instance written in integers.
REFUSED_MEMBERS = {
    "three-entry-row": ([[1, 0, 2], [0, 0]], "matrices[1]: expected a 2x2 array"),
    "boolean": ([[1, 0], [0, True]], "matrices[1][1][1]: boolean is not a rational entry"),
    "float": (
        [[1, 0.5], [0, 0]],
        'matrices[1][0][1]: floating point entries are not accepted; write an exact "p/q" string',
    ),
    "nested-list": ([[1, 0], [[1], 0]], "matrices[1][1][0]: unsupported entry of type list"),
    "dict": ([[1, 0], [0, {"p": 1}]], "matrices[1][1][1]: unsupported entry of type dict"),
    "string-member": ("ab", "matrices[1]: expected a 2x2 array"),
    "string-rows": (["12", "34"], "matrices[1]: expected a 2x2 array"),
    "p/q-string": ([[7, "-8/1"], [0, 0]], None),
    "empty-member": ([], "matrices[1]: expected a 2x2 array"),
    "one-by-two": ([[1, 2]], "matrices[1]: expected a 2x2 array"),
}


@pytest.mark.parametrize("member, problem", REFUSED_MEMBERS.values(), ids=REFUSED_MEMBERS.keys())
def test_one_pass_load_keeps_every_refusal(tmp_path, capsys, member, problem):
    v = [[2, 0], [1, 1]]
    code = main(["decide", write(tmp_path, {"matrices": [v, member]}), "--json"])
    out, err = capsys.readouterr()
    if problem is not None:
        assert (code, out, err) == (64, "", f"error: {problem}\n")
        return
    assert (code, err) == (0, "")
    assert main(["decide", write(tmp_path, {"matrices": [v, [[7, -8], [0, 0]]]}, "ints.json"), "--json"]) == 0
    reports = [json.loads(out), json.loads(capsys.readouterr().out)]
    for report in reports:
        del report["timings"]
    assert reports[0] == reports[1] and reports[0]["witness"] == [1, 0, 0, 0, 1]


def test_usage_errors_exit_64(capsys):
    assert main(["decode"]) == 64
    capsys.readouterr()
    assert main([]) == 64
    capsys.readouterr()
    assert main(["fuzz", "--count", "abc"]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: argument --count: invalid int value: 'abc'\n"


@pytest.mark.parametrize("error", [InternalError, MemoryError])
@pytest.mark.parametrize("target", ["decide", "fuzz_compare"])
def test_engine_failure_exits_70_with_empty_stdout(tmp_path, capsys, monkeypatch, error, target):
    # an exception from the engine is no verdict; left uncaught it would
    # exit 1, which `decide` documents as Immortal
    def fail(*args, **kwargs):
        raise error("engine failure")

    monkeypatch.setattr(cli, target, fail)
    argv = ["decide", write(tmp_path, PLANTED), "--json"] if target == "decide" else ["fuzz", "--count", "1"]
    assert main(argv) == cli.EXIT_SOFTWARE == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback") and f"{error.__name__}: engine failure" in err


def test_parse_error_leaves_the_shared_parser_usable(tmp_path, capsys, monkeypatch):
    errors = []
    real_error = cli._Parser.error

    def spy(self, message):
        errors.append(message)
        real_error(self, message)

    monkeypatch.setattr(cli._Parser, "error", spy)
    path = write(tmp_path, PLANTED)
    assert main(["decide", path, "--no-such-option"]) == 64
    assert len(errors) == 1 and "--no-such-option" in errors[0]
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["decide", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [0, 1, 1, 1, 0]
    assert len(errors) == 1


@pytest.mark.parametrize(
    "command, option",
    [
        ("decide", "--oracle-bound"),
        ("oracle", "--max-len"),
        ("fuzz", "--count"),
        ("fuzz", "--oracle-bound"),
        ("fuzz", "--max-numerator"),
        ("fuzz", "--max-denominator"),
    ],
)
def test_numbers_below_one_exit_64(tmp_path, capsys, command, option):
    # must fail while parsing: run, a zero hangs (--max-numerator: no
    # invertible member can be drawn) or ends in a verdict exit code
    argv = [command, option, "0"]
    if command != "fuzz":
        argv.insert(1, write(tmp_path, OUT_OF_SCOPE))
    assert main(argv) == 64
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_reader_exits_74_without_a_traceback(tmp_path, buffered):
    # the reader of stdout is gone before the report is written, as with
    # `decide FILE | head -2`; the exit code must not read as a verdict.
    # Buffered, the write fails only when stdout is flushed; unbuffered, in
    # the print itself.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mortality2x2.cli", "decide", write(tmp_path, PLANTED), "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_OUTPUT_ERROR == 74
    assert proc.stderr == ""


def _reference_parser():
    """The grammar stated call by call, as `build_parser` stated it before the
    `_COMMANDS` table: the parser, and each subcommand's parser by name."""
    parser = cli._Parser(prog="mortality2x2", description="Exact mortality decisions for sets of 2x2 rational matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide mortality of an instance file")
    p_decide.add_argument("file")
    p_decide.add_argument("--json", action="store_true")
    p_decide.add_argument("--oracle-bound", type=cli._at_least_one, default=8, dest="oracle_bound")
    p_decide.set_defaults(func=cli.cmd_decide)

    p_verify = sub.add_parser("verify", help="check a witness word against an instance file")
    p_verify.add_argument("file")
    p_verify.add_argument("index", type=int, nargs="+")
    p_verify.set_defaults(func=cli.cmd_verify)

    p_oracle = sub.add_parser("oracle", help="bounded brute-force search for a zero product")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.add_argument("--max-len", type=cli._at_least_one, default=8, dest="max_len")
    p_oracle.set_defaults(func=cli.cmd_oracle)

    p_fuzz = sub.add_parser("fuzz", help="cross-validate the decider against the search oracle")
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.add_argument("--count", type=cli._at_least_one, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--oracle-bound", type=cli._at_least_one, default=8, dest="oracle_bound")
    p_fuzz.add_argument("--max-numerator", type=cli._at_least_one, default=3, dest="max_numerator")
    p_fuzz.add_argument("--max-denominator", type=cli._at_least_one, default=3, dest="max_denominator")
    p_fuzz.set_defaults(func=cli.cmd_fuzz)

    return parser, {"decide": p_decide, "verify": p_verify, "oracle": p_oracle, "fuzz": p_fuzz}


_REFERENCE, _REFERENCE_SUBPARSERS = _reference_parser()

# Every subcommand and option string, taken from the table so that a new
# one joins the draws below.
_SUBPARSERS = list(cli._COMMANDS)
_OPTION_STRINGS = sorted({s for command in cli._COMMANDS.values() for s in command[4]})
_VALUES = ["0", "1", "8", "-1", "+3", " 7", "1_0", "٣", "abc", ""]
_FILES = ["instance.json", "dir/f.json", "-f.json"]
_TOKENS = [
    *_SUBPARSERS, "decode", *_OPTION_STRINGS,
    "--js", "--oracle", "--max", "--max-n", "--cou", "--oracle-bound=3", "--count=3", "--json=1", "--seed=-1",
    "-h", "--help", "--", "-", *_VALUES, *_FILES,
]
_PLAIN = [token for token in _VALUES + _FILES if not token.startswith("-")]
# Wholly random argv, and argv that start with a subcommand and lean to
# plain tokens, so that each subcommand's fast path is reached.
_ARGVS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=6),
    st.builds(
        lambda command, rest: [command, *rest],
        st.sampled_from(sorted(_SUBPARSERS)),
        st.lists(st.sampled_from(_PLAIN) | st.sampled_from(_PLAIN) | st.sampled_from(_TOKENS), max_size=5),
    ),
).flatmap(lambda argv: st.sampled_from([argv, tuple(argv)]))


def test_fast_path_agrees_with_argparse():
    # Item 15's gate: whatever argv `_match` reads, argparse reads to the
    # same namespace, and without an error; any other argv is argparse's.
    matched = set()

    @given(_ARGVS)
    @settings(max_examples=1500, deadline=None)
    def agree(argv):
        fast = cli._match(argv)
        if fast is not None:
            assert vars(fast) == vars(cli._PARSER.parse_args(argv))
            matched.add(fast.command)

    agree()
    assert matched == set(_SUBPARSERS) == {"decide", "verify", "oracle", "fuzz"}


def test_common_argv_skip_argparse_and_help_still_comes_from_it(tmp_path, capsys, monkeypatch):
    calls = []
    real_parse_args = cli._PARSER.parse_args

    def spy(argv):
        calls.append(argv)
        return real_parse_args(argv)

    monkeypatch.setattr(cli._PARSER, "parse_args", spy)
    path = write(tmp_path, PLANTED)
    fast = [
        (["decide", path], 0),
        (["decide", path, "--json"], 0),
        (["decide", path, "--oracle-bound", "3", "--json"], 0),
        (("oracle", path, "--max-len", "4", "--json"), 1),  # the witness has 5 letters
        (["fuzz", "--count", "3", "--seed", "1", "--json"], 0),
    ]
    for argv, code in fast:
        assert main(argv) == code
    assert calls == []
    capsys.readouterr()
    # an abbreviation and an --opt=value form are argparse's to read
    assert main(["decide", path, "--js"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [0, 1, 1, 1, 0]
    assert main(["decide", path, "--oracle-bound=3"]) == 0
    assert capsys.readouterr().out.startswith("verdict: mortal\n")
    assert calls == [["decide", path, "--js"], ["decide", path, "--oracle-bound=3"]]
    helps = [([], _REFERENCE)] + [([name], _REFERENCE_SUBPARSERS[name]) for name in _SUBPARSERS]
    for words, parser in helps:
        with pytest.raises(SystemExit) as exit_info:
            main([*words, "--help"])
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert out == parser.format_help() and err == ""
        assert calls[-1] == [*words, "--help"]
    assert len(calls) == 2 + len(helps)


def _parsed(parser, argv):
    """What `parser` makes of argv: its namespace, its error message, or the
    exit code and stdout of --help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parser.parse_args(argv))
    except cli.CliError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, out.getvalue()


def test_parser_built_from_the_table_keeps_the_reference_grammar():
    # A changed default, type, dest, help string or argument order shows in
    # a help text or a namespace here.
    assert cli._PARSER.format_help() == _REFERENCE.format_help()
    for name, sub in _REFERENCE_SUBPARSERS.items():
        assert _parsed(cli._PARSER, [name, "--help"]) == (0, sub.format_help())

    @given(_ARGVS)
    @settings(max_examples=1000, deadline=None)
    def agree(argv):
        assert _parsed(cli._PARSER, argv) == _parsed(_REFERENCE, argv)

    agree()


def test_one_or_more_positional_next_to_an_option_is_left_to_argparse(monkeypatch):
    # argparse ends a one-or-more positional at an option: given an option,
    # `verify F 1 --json 2` is an error there, not index [1, 2].
    monkeypatch.setitem(cli._COMMANDS, "verify", (*cli._COMMANDS["verify"][:4], {"--json": ("json", None, False)}))
    monkeypatch.setitem(cli._DEFAULTS, "verify", {**cli._DEFAULTS["verify"], "json": False})
    parser = cli.build_parser()
    for argv in (["verify", "f", "1", "--json", "2"], ["verify", "f", "--json", "1"], ["verify", "--json", "f", "1"]):
        assert cli._match(argv) is None
    argv = ["verify", "f", "1", "2"]
    assert vars(cli._match(argv)) == vars(parser.parse_args(argv)) == {
        "command": "verify", "func": cli.cmd_verify, "json": False, "file": "f", "index": [1, 2],
    }
