"""The CLI's output, byte for byte: the golden corpus replayed through
``cli.main``, and the JSON writer against ``json.dumps``."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuttemap import cli
from tuttemap.poly import ZERO, BivariatePolynomial

from make_cli_golden import run

CORPUS = json.loads((Path(__file__).resolve().parent / "cli_golden.json")
                    .read_text(encoding="utf-8"))
RECORDS = CORPUS["records"]
COMMANDS = sorted({r["argv"][0] for r in RECORDS})


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    for name, text in CORPUS["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def mismatches(records) -> list[list[str]]:
    """The command lines whose exit code or stdout differ from the record."""
    return [r["argv"] for r in records
            if run(cli.main, r["argv"]) != (r["code"], r["stdout"])]


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_records_replay_byte_identical(corpus_dir, command):
    assert mismatches([r for r in RECORDS if r["argv"][0] == command]) == []


def test_golden_corpus_covers_every_command_both_formats_and_exit_1():
    kinds = {(r["argv"][0], "json" in r["argv"], r["code"]) for r in RECORDS}
    assert kinds == {(c, j, code) for c in ("tutte", "zpoly", "activities", "tour",
                                            "minor", "euler", "check", "census")
                     for j in (False, True) for code in (0, 1)}
    by_argv = {tuple(r["argv"]): r["stdout"] for r in RECORDS}
    zero = ("zpoly", "--edges", "4", "--genus", "3")
    assert by_argv[zero] == "0\n"
    assert by_argv[zero + ("--format", "json")] == '{\n  "z": []\n}\n'


def test_a_writer_that_drops_a_last_term_fails_the_replay(corpus_dir, monkeypatch):
    # every JSON record that prints a nonzero polynomial sees the fault
    real = cli._json

    def dropping(obj, pad=""):
        if isinstance(obj, BivariatePolynomial):
            obj = BivariatePolynomial.from_json_terms(obj.json_terms()[:-1])
        return real(obj, pad)

    monkeypatch.setattr(cli, "_json", dropping)
    json_records = [r for r in RECORDS if "json" in r["argv"]]
    polynomial = [r["argv"] for r in json_records if '"dx"' in r["stdout"]]
    assert polynomial and mismatches(json_records) == polynomial


def plain(obj):
    """The object with each polynomial replaced by its json_terms()."""
    if isinstance(obj, BivariatePolynomial):
        return obj.json_terms()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


texts = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7féß☃ 😀') | st.characters(),
                max_size=6)
polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-3, 3) | st.integers(-2 ** 80, 2 ** 80), max_size=6,
).map(BivariatePolynomial)
scalars = (st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80) | texts | polys)
values = st.recursive(scalars, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(texts, kids, max_size=4)), max_leaves=24)


@settings(max_examples=100)
@given(values)
@example({"z": ZERO, "": [], "e": {}, "t": ()})
@example([BivariatePolynomial({(2, 0): -3, (0, 1): 2 ** 64 + 1, (0, 0): -(2 ** 70)})])
@example({"é\"\\\x01": [None, True, False, -1, 0, "\U0001f600"]})
def test_writer_equals_json_dumps(obj):
    assert cli._json(obj) == json.dumps(plain(obj), indent=2, sort_keys=True)


def test_writer_refuses_a_float():
    with pytest.raises(TypeError):
        cli._json({"x": 0.5})
