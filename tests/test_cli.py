import csv
import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import seesaw_closed_form
from pfakit import (
    Distribution,
    ProbAutomaton,
    PropReport,
    accept_prob,
    build_simulation,
    hat,
    parse_automaton,
    random_simple_pa,
    seesaw_pa,
    serialize_automaton,
)
from pfakit.cli import build_parser, main, prop_battery


@pytest.fixture(scope="module")
def seesaw_doc(tmp_path_factory):
    from importlib import resources

    path = tmp_path_factory.mktemp("docs") / "seesaw.json"
    path.write_text((resources.files("pfakit") / "data" / "seesaw.json").read_text())
    return str(path)


@pytest.fixture(scope="module")
def tiny_doc(tmp_path_factory, tiny_pa):
    path = tmp_path_factory.mktemp("docs") / "tiny.json"
    path.write_text(serialize_automaton(tiny_pa, name="tiny"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_eval(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "eval", "--automaton", seesaw_doc,
            "--set", "x=3/4", "--set", "y=1/4", "--word", "i a f",
        )
        assert code == 0
        assert out.strip() == "3/8 = 0.375"

    def test_eval_empty_word(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "eval", "--automaton", seesaw_doc,
            "--set", "x=1/2", "--set", "y=1/2", "--word", "",
        )
        assert code == 0
        assert out.strip() == "0 = 0.0"

    @pytest.mark.parametrize("command", [["eval"], ["monte-carlo", "--samples", "10"]])
    def test_values_past_the_int_digit_limit(self, capsys, seesaw_doc, command):
        word = ["i", "a", "a", "a", "f"] * 2500
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(
            capsys, *command, "--automaton", seesaw_doc,
            "--set", "x=1/3", "--set", "y=1/7", "--word", " ".join(word),
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        line = next(s for s in out.splitlines() if "/" in s)
        exact = line.removeprefix("exact: ").split(" = ")[0]
        assert max(len(part) for part in exact.split("/")) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert F(exact) == accept_prob(seesaw_pa(F(1, 3), F(1, 7)), word)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_reach(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "reach", "--automaton", seesaw_doc,
            "--set", "x=1/2", "--set", "y=1/2",
            "--source", "C1", "--word", "i", "--targets", "L1 R1",
        )
        assert code == 0
        assert out.strip() == "1 = 1.0"


class TestSearch:
    def test_search_even(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "search", "--automaton", seesaw_doc,
            "--set", "x=1/2", "--set", "y=1/2", "--max-len", "6",
        )
        assert code == 0
        assert "word: i f" in out
        assert "value: 1/2 = 0.5" in out


class TestConstructionCommands:
    def test_encode(self, capsys):
        code, out, _ = run(capsys, "encode", "--word", "i f", "--k", "2")
        assert code == 0
        assert out.strip() == "i # # # # f # # # #"

    def test_fair_coin_document(self, capsys, tiny_doc, tmp_path):
        out_path = tmp_path / "fc.json"
        code, _, _ = run(
            capsys, "fair-coin", "--automaton", tiny_doc,
            "--lambda", "1/3", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "pa"
        assert doc["name"] == "fair-coin"
        pa = parse_automaton(out_path.read_text())
        assert "#" in pa.alphabet

    def test_simulate_build_and_instantiate(self, capsys, tiny_doc, tmp_path):
        npa_path = tmp_path / "sim.json"
        code, _, _ = run(
            capsys, "simulate-build", "--automaton", tiny_doc, "--out", str(npa_path)
        )
        assert code == 0
        doc = json.loads(npa_path.read_text())
        assert doc["kind"] == "npa"
        assert len(doc["states"]) == 80
        assert len(doc["alphabet"]) == 39

        pa_path = tmp_path / "simc.json"
        code, _, _ = run(
            capsys, "simulate-instantiate", "--automaton", tiny_doc,
            "--lambda", "1/2", "--theta", "1/4", "--out", str(pa_path),
        )
        assert code == 0
        assert json.loads(pa_path.read_text())["kind"] == "pa"

    def test_hat_prints_probe_word(self, capsys, tiny_doc):
        code, out, _ = run(capsys, "hat", "--automaton", tiny_doc, "--word", "a")
        assert code == 0
        tokens = out.split()
        assert tokens[0].startswith("check(a,")
        assert tokens[-1] == "next_transition"

    def test_fairness_dfa_document(self, capsys, tiny_doc, tmp_path):
        out_path = tmp_path / "dfa.json"
        code, _, _ = run(
            capsys, "fairness-dfa", "--automaton", tiny_doc, "--out", str(out_path)
        )
        assert code == 0
        assert len(json.loads(out_path.read_text())["states"]) == 57

    def test_buchi_and_lasso(self, capsys, tiny_doc, tmp_path):
        pba_path = tmp_path / "pba.json"
        code, _, _ = run(capsys, "buchi", "--automaton", tiny_doc, "--out", str(pba_path))
        assert code == 0
        assert json.loads(pba_path.read_text())["kind"] == "pba"

        code, out, _ = run(
            capsys, "lasso", "--automaton", str(pba_path), "--cycle", "a #"
        )
        assert code == 0
        assert out.strip() == "0 = 0.0"

    def test_lasso_reduces_pa_automatically(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "lasso", "--automaton", seesaw_doc,
            "--set", "x=3/4", "--set", "y=1/4",
            "--stem", "i f", "--cycle", "a",
        )
        assert code == 0
        assert out.strip() == "1/2 = 0.5"


class TestReports:
    def test_sweep_csv(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "sweep", "--automaton", seesaw_doc,
            "--set", "x=1/2", "--set", "y=1/2",
            "--eps", "1/16", "--grid", "3", "--max-len", "4",
        )
        assert code == 0
        rows = list(csv.reader(StringIO(out)))
        assert rows[0] == ["offsets", "word", "value", "value_float"]
        assert len(rows) > 1
        assert any(r[0] == "center" for r in rows[1:])

    def test_sweep_builds_the_automaton_once(self, capsys, seesaw_doc, monkeypatch):
        import pfakit.cli

        calls = []
        real = pfakit.cli.document_to_automaton
        monkeypatch.setattr(
            pfakit.cli, "document_to_automaton", lambda *a: calls.append(a) or real(*a)
        )
        code, out, _ = run(
            capsys, "sweep", "--automaton", seesaw_doc,
            "--set", "x=3/4", "--set", "y=1/4",
            "--eps", "1/16", "--grid", "2", "--max-len", "6",
        )
        assert code == 0
        assert len(calls) == 1
        # The CSV as it was while the sweep still built the center twice.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a5a98967677a1ecf2374b3dc6463a608d81838cc68ad2afd16a41a81035c0fd2"
        )

    def test_case_study_csv(self, capsys):
        code, out, err = run(
            capsys, "case-study", "--x", "3/4", "--y", "1/4",
            "--n-max", "6", "--m-max", "64",
        )
        assert code == 0
        rows = list(csv.reader(StringIO(out)))
        assert rows[0] == ["n", "m", "exact", "float", "exceeds"]
        for n, m, exact, approx, exceeds in rows[1:]:
            want = seesaw_closed_form(F(3, 4), F(1, 4), int(n), int(m))
            assert F(exact) == want
            assert exceeds == ("1" if want > F(99, 100) else "0")
        assert "n=5 m=64" in err

    def test_case_study_prints_huge_exact_values(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(
            capsys, "case-study", "--x", "7/8", "--y", "3/8",
            "--n-max", "10", "--m-max", "512",
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        rows = list(csv.reader(StringIO(out)))[1:]
        sys.set_int_max_str_digits(0)
        try:
            for n, m, exact, _approx, _exceeds in rows:
                assert F(exact) == seesaw_closed_form(F(7, 8), F(3, 8), int(n), int(m))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_check_props_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "props.csv"
        code, _, _ = run(
            capsys, "check-props", "--seed", "5", "--trials", "12",
            "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(StringIO(out_path.read_text())))
        assert rows[0][0] == "trial"
        assert len(rows) == 13
        assert all(r[8] in ("equal", "bounded", "not-applicable") for r in rows[1:])

    def test_check_props_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "check-props", "--seed", "9", "--trials", "6")
        code2, out2, _ = run(capsys, "check-props", "--seed", "9", "--trials", "6")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_check_props_violation_exits_one(self, capsys, monkeypatch):
        fake = PropReport("demo", (), F(1), F(0), "<=", "violated")
        monkeypatch.setattr("pfakit.cli.prop_battery", lambda seed, trials: [(0, fake)])
        code, out, err = run(capsys, "check-props", "--trials", "1")
        assert code == 1
        assert "violated" in out
        assert "violated" in err

    # Both estimates were recorded with randrange's draws; the sampler must
    # make the same draws, end to end.
    def test_monte_carlo(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "monte-carlo", "--automaton", seesaw_doc,
            "--set", "x=1/2", "--set", "y=1/2",
            "--word", "i f", "--samples", "400", "--seed", "3",
        )
        assert code == 0
        assert out.splitlines()[:2] == ["estimate: 0.495", "exact: 1/2 = 0.5"]
        assert "abs_error:" in out

    def test_monte_carlo_estimate_over_split_rows(self, capsys, seesaw_doc):
        code, out, _ = run(
            capsys, "monte-carlo", "--automaton", seesaw_doc,
            "--set", "x=3/4", "--set", "y=1/4",
            "--word", "i a a f i a a f", "--samples", "5000", "--seed", "11",
        )
        assert code == 0
        assert out.splitlines()[:2] == ["estimate: 0.463", "exact: 243/512 = 0.474609375"]

    def test_export_dot(self, capsys, seesaw_doc):
        code, out, _ = run(capsys, "export-dot", "--automaton", seesaw_doc)
        assert code == 0
        assert out.startswith("digraph automaton {")


class TestErrors:
    def test_unreadable_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "eval", "--automaton", str(bad), "--word", "a")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "content",
        [None, "directory", b"\xff\xfe{", ("[" * 100_000 + "]" * 100_000).encode()],
        ids=["missing", "directory", "not-utf8", "nested-100000-deep"],
    )
    def test_unloadable_document(self, capsys, tmp_path, content):
        path = tmp_path / "doc.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "eval", "--automaton", str(path), "--word", "a")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_integer_literal_beyond_the_digit_bound(self, capsys, tmp_path):
        doc = {
            "kind": "pa", "states": ["q0"], "alphabet": ["a"], "initial": "q0",
            "final": [], "transitions": [
                {"from": "q0", "letter": "a", "to": {"q0": "1" * 5001 + "/" + "1" * 5001}},
            ],
        }
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--automaton", str(path), "--word", "a")
        assert code == 2
        assert "longer than 4300 digits" in err

    @pytest.mark.parametrize(
        "expression",
        ["1" * 5001 + "/2", "(" * 5000 + "1" + ")" * 5000, "x" * 5000, "1/2" + " " * 5000 + "junk"],
        ids=["long-literal", "deep-nesting", "long-name", "trailing"],
    )
    def test_error_lines_stay_short(self, capsys, tmp_path, expression):
        doc = {
            "kind": "pa", "states": ["q0"], "alphabet": ["a"], "initial": "q0",
            "final": [], "transitions": [{"from": "q0", "letter": "a", "to": {"q0": expression}}],
        }
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--automaton", str(path), "--word", "a")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200

    def test_unknown_letter(self, capsys, seesaw_doc):
        code, _, err = run(
            capsys, "eval", "--automaton", seesaw_doc,
            "--set", "x=1/2", "--set", "y=1/2", "--word", "z",
        )
        assert code == 2
        assert "'z'" in err

    def test_missing_bindings(self, capsys, seesaw_doc):
        code, _, err = run(capsys, "eval", "--automaton", seesaw_doc, "--word", "i f")
        assert code == 2
        assert "--set" in err

    def test_bad_set_syntax(self, capsys, seesaw_doc):
        code, _, err = run(
            capsys, "eval", "--automaton", seesaw_doc, "--set", "x", "--word", "i",
        )
        assert code == 2
        assert "name=value" in err

    def test_bad_rational(self, capsys, seesaw_doc):
        code, _, err = run(
            capsys, "eval", "--automaton", seesaw_doc,
            "--set", "x=blue", "--word", "i",
        )
        assert code == 2

    def test_binding_that_drops_a_listed_target(self, capsys, seesaw_doc):
        code, _, err = run(
            capsys, "eval", "--automaton", seesaw_doc,
            "--set", "x=1", "--set", "y=1/4", "--word", "i a f",
        )
        assert code == 2
        assert "('L1', 'a', 'C2')" in err

    @pytest.mark.parametrize("expr", ["(" * 5000 + "1/2" + ")" * 5000, "-" * 5000 + "1/2"])
    def test_deeply_nested_expression(self, capsys, tmp_path, expr):
        doc = {
            "kind": "pa", "states": ["q0", "q1"], "alphabet": ["a"], "initial": "q0",
            "final": ["q1"], "transitions": [
                {"from": "q0", "letter": "a", "to": {"q0": expr, "q1": "1/2"}},
                {"from": "q1", "letter": "a", "to": {"q1": "1"}},
            ],
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--automaton", str(path), "--word", "a")
        assert code == 2
        assert "nested deeper" in err

    def test_huge_exponent_in_set(self, capsys, seesaw_doc):
        code, _, err = run(
            capsys, "eval", "--automaton", seesaw_doc,
            "--set", "x=1e-20000", "--set", "y=1/2", "--word", "i",
        )
        assert code == 2
        assert "exponent" in err

    def test_huge_exponent_in_a_rational_flag(self, capsys, tiny_doc):
        code, _, err = run(
            capsys, "simulate-instantiate", "--automaton", tiny_doc,
            "--lambda", "1e-20000", "--theta", "1/2",
        )
        assert code == 2
        assert "exponent" in err

    def test_instance_probability_past_the_digit_bound(self, capsys, tmp_path):
        # lam and theta each fit the 4300-digit bound; the coin's lam * theta does not.
        source = tmp_path / "source.json"
        source.write_text(serialize_automaton(random_simple_pa(0, 2, 1)))
        value = "1/" + "7" * 3000
        code, out, err = run(
            capsys, "simulate-instantiate", "--automaton", str(source),
            "--lambda", value, "--theta", value, "--out", str(tmp_path / "instance.json"),
        )
        assert (code, out) == (2, "")
        assert err == "error: cannot write ('coin', '$'): a probability has more than 4300 digits\n"
        assert not (tmp_path / "instance.json").exists()

    @pytest.mark.parametrize("command", [
        ["fair-coin", "--lambda", "1e4300"],
        ["simulate-instantiate", "--lambda", "1e4300", "--theta", "1/2"],
    ])
    def test_flag_past_the_digit_limit(self, capsys, tmp_path, command):
        source = tmp_path / "source.json"
        source.write_text(serialize_automaton(random_simple_pa(0, 2, 1)))
        code, out, err = run(capsys, command[0], "--automaton", str(source), *command[1:])
        assert (code, out) == (2, "")
        assert err == "error: lam must lie strictly between 0 and 1, got a fraction too long to print\n"

    def test_sweep_eps_past_the_digit_limit(self, capsys, seesaw_doc):
        code, out, err = run(capsys, "sweep", "--automaton", seesaw_doc, "--set", "x=1/2",
                             "--set", "y=1/2", "--eps=-1e4300", "--grid", "1")
        assert (code, out) == (2, "")
        assert err == "error: eps must be >= 0, got a fraction too long to print\n"

    @pytest.mark.parametrize("argv,message", [
        (["fair-coin", "tiny", "--lambda", "-1/3"], "lam must lie strictly between 0 and 1, got -1/3"),
        (["simulate-instantiate", "tiny", "--lambda", "1/2", "--theta", "-1/2"],
         "theta must lie strictly between 0 and 1, got -1/2"),
        (["sweep", "seesaw", "--set", "x=1/2", "--set", "y=1/2", "--grid", "1", "--eps", "-1/16"],
         "eps must be >= 0, got -1/16"),
        (["case-study", "--y", "1/4", "--x", "-1/2"], "negative mass -1/2 on state 'L1'"),
        (["fair-coin", "tiny", "--lambda", "-1e4300"],
         "lam must lie strictly between 0 and 1, got a fraction too long to print"),
    ], ids=["fair-coin", "simulate-instantiate", "sweep", "case-study", "past-the-digit-limit"])
    def test_negative_rational_in_the_space_form(self, capsys, tiny_doc, seesaw_doc, argv, message):
        # argparse alone would take "-1/3" for an option and print its usage
        documents = {"tiny": ["--automaton", tiny_doc], "seesaw": ["--automaton", seesaw_doc]}
        argv = [token for word in argv for token in documents.get(word, [word])]
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert run(capsys, *argv) == run(capsys, *joined) == (2, "", f"error: {message}\n")

    def test_rational_flags_are_read_from_the_parser(self):
        from pfakit.cli import _rational_flags

        assert _rational_flags() == {"--lambda", "--theta", "--eps", "--x", "--y"}

    # The pair (p, a) of this source has probabilities of about 6000 digits.
    LONG = "1/" + "7" * 3000 + "*1/" + "7" * 3000

    @pytest.fixture
    def long_doc(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"kind": "pa", "states": ["p", "q"], "alphabet": ["a"],
                                    "initial": "p", "final": ["q"], "transitions": [
                                        {"from": "p", "letter": "a", "to": {"p": self.LONG, "q": "1-" + self.LONG}},
                                        {"from": "q", "letter": "a", "to": {"q": "1"}}]}))
        return str(path)

    @pytest.mark.parametrize("command", [["simulate-build"], ["fair-coin", "--lambda", "1/3"]])
    def test_probabilities_past_the_digit_limit_are_not_simple(self, capsys, long_doc, command):
        code, out, err = run(capsys, command[0], "--automaton", long_doc, *command[1:])
        assert (code, out) == (2, "")
        assert err == ("error: ('p', 'a') has probabilities [a fraction too long to print,"
                       " a fraction too long to print], not in {1/2, 1}\n")

    def test_dot_labels_past_the_digit_limit(self, capsys, long_doc):
        code, out, err = run(capsys, "export-dot", "--automaton", long_doc)
        assert (code, err) == (0, "")
        p = F(1, int("7" * 3000)) ** 2
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            labels = [f'"p" -> "p" [label="a, {p}"];', f'"p" -> "q" [label="a, {1 - p}"];']
        finally:
            sys.set_int_max_str_digits(limit)
        assert [line.strip() for line in out.splitlines() if line.strip().startswith('"p" ->')] == labels

    def test_sweep_grid_beyond_the_point_bound(self, capsys, seesaw_doc):
        code, out, err = run(
            capsys, "sweep", "--automaton", seesaw_doc,
            "--set", "x=1/2", "--set", "y=1/2", "--eps", "1/16", "--grid", "100000",
        )
        assert code == 2
        assert out == ""
        assert "grid points" in err

    def test_sweep_rejects_pa_document(self, capsys, tiny_doc):
        code, _, err = run(
            capsys, "sweep", "--automaton", tiny_doc, "--eps", "1/16", "--grid", "2",
        )
        assert code == 2
        assert "numberless" in err


class TestProbeCommands:
    """hat and fairness-dfa read only the coin support, not the simulation."""

    @staticmethod
    def source_doc(tmp_path, states, alphabet, rows):
        delta = {(q, c): Distribution(rows.get((q, c), {q: 1})) for q in states for c in alphabet}
        pa = ProbAutomaton(states, alphabet, states[0], delta, frozenset())
        path = tmp_path / "source.json"
        path.write_text(serialize_automaton(pa))
        return str(path)

    @pytest.mark.parametrize("command", ["hat", "fairness-dfa"])
    @pytest.mark.parametrize(
        "states,alphabet,rows,message",
        [
            (("q0", "q1"), ("a",), {("q0", "a"): {"q0": F(1, 3), "q1": F(2, 3)}},
             "('q0', 'a') has probabilities [Fraction(1, 3), Fraction(2, 3)], not in {1/2, 1}"),
            (("q0",), ("#",), {}, "source alphabet already contains '#'"),
            (("q(0", "q1"), ("a",), {}, "state id 'q(0' may not contain '(', ')' or ','"),
            (("q)",), ("a",), {}, "state id 'q)' may not contain '(', ')' or ','"),
            (("q0",), ("a,b",), {}, "state id 'q0@a,b' may not contain '(', ')' or ','"),
        ],
        ids=["not-simple", "sharp-letter", "open-paren-state", "close-paren-state", "comma-letter"],
    )
    def test_sources_the_simulation_rejects(
        self, capsys, tmp_path, command, states, alphabet, rows, message
    ):
        path = self.source_doc(tmp_path, states, alphabet, rows)
        word = ["--word", "a"] if command == "hat" else []
        code, out, err = run(capsys, command, "--automaton", path, *word)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2)])
    def test_output_matches_the_built_simulation(self, capsys, tmp_path, monkeypatch, shape):
        pa = random_simple_pa(0, *shape)
        path = tmp_path / "source.json"
        path.write_text(serialize_automaton(pa))
        sim = build_simulation(pa)
        word = list(pa.alphabet) + ["#"]
        monkeypatch.setattr("pfakit.cli.build_simulation", None)  # neither command needs it
        code, out, _ = run(capsys, "hat", "--automaton", str(path), "--word", " ".join(word))
        assert code == 0
        assert out == " ".join(hat(word, sim.state_order)) + "\n"
        code, out, _ = run(capsys, "fairness-dfa", "--automaton", str(path))
        assert code == 0
        assert out == serialize_automaton(sim.checker, name="fairness-checker")


class TestWorkBounds:
    def test_encode_beyond_the_letter_bound(self, capsys):
        code, out, err = run(capsys, "encode", "--word", "a", "--k", "1000000000")
        assert code == 2
        assert out == ""
        assert err == "error: encoding gives 2000000001 letters, more than 1000000\n"

    def test_hat_beyond_the_letter_bound(self, capsys, tmp_path):
        source = tmp_path / "source.json"
        source.write_text(serialize_automaton(random_simple_pa(0, 2, 1)))
        code, out, err = run(capsys, "hat", "--automaton", str(source), "--word", "a " * 500_000)
        assert (code, out) == (2, "")
        assert err == "error: encoding gives 14000000 letters, more than 1000000\n"

    @pytest.mark.parametrize("command", ["simulate-build", "fairness-dfa"])
    def test_simulation_beyond_the_pair_bound(self, capsys, tmp_path, monkeypatch, command):
        def no_work(*args):
            raise AssertionError("rows were written before the bound was checked")

        monkeypatch.setattr("pfakit.constructions._checker", no_work)
        source = tmp_path / "source.json"
        source.write_text(serialize_automaton(random_simple_pa(0, 1, 26)))
        code, out, err = run(capsys, command, "--automaton", str(source))
        assert (code, out) == (2, "")
        states = 6648 if command == "simulate-build" else 6483
        assert err == f"error: {states} states x 4323 letters is more than 2000000 pairs\n"

    def test_case_study_beyond_the_m_bound(self, capsys):
        code, out, err = run(
            capsys, "case-study", "--x", "3/4", "--y", "1/4", "--n-max", "2",
            "--m-max", "100000000",
        )
        assert code == 2
        assert out == ""
        assert err == "error: m_max = 100000000 is more than 8192\n"

    def test_case_study_beyond_the_n_bound(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the case study started before its bound was checked")

        monkeypatch.setattr("pfakit.verification.seesaw_pa", no_work)
        code, out, err = run(
            capsys, "case-study", "--x", "3/4", "--y", "1/4", "--n-max", "1000000000",
            "--m-max", "2",
        )
        assert code == 2
        assert out == ""
        assert err == "error: n_max = 1000000000 is more than 24\n"


    def test_case_study_beyond_the_bits_bound(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the case study started before its bound was checked")

        monkeypatch.setattr("pfakit.verification.seesaw_pa", no_work)
        code, out, err = run(
            capsys, "case-study", "--x", "1/1" + "0" * 39, "--y", "1/4",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: values of about 10899456 bits at n_max = 20, m_max = 4096 and these"
            " denominators of x and y, more than 1000000\n"
        )

    def test_monte_carlo_beyond_the_step_bound(self, capsys, monkeypatch, seesaw_doc):
        def no_work(*args):
            raise AssertionError("sampling started before its bound was checked")

        monkeypatch.setattr("pfakit.core._kernel", no_work)
        code, out, err = run(
            capsys, "monte-carlo", "--automaton", seesaw_doc, "--set", "x=1/2", "--set", "y=1/2",
            "--word", "i f", "--samples", str(10**12),
        )
        assert code == 2
        assert out == ""
        assert err == "error: 1000000000000 samples of a 2-letter word is more than 10000000 steps\n"

    def test_check_props_beyond_the_trial_bound(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the battery started before its bound was checked")

        monkeypatch.setattr("pfakit.cli.random_simple_pa", no_work)
        code, out, err = run(capsys, "check-props", "--trials", "10001")
        assert code == 2
        assert out == ""
        assert err == "error: trials = 10001 is more than 10000\n"

    def test_check_props_negative_trials(self, capsys):
        code, out, err = run(capsys, "check-props", "--trials", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: trials must be >= 0, got -3\n"

    def test_out_to_a_path_that_cannot_be_written(self, capsys, tiny_doc, tmp_path):
        path = str(tmp_path / "nonexistent" / "x.json")
        code, out, err = run(capsys, "simulate-build", "--automaton", tiny_doc, "--out", path)
        assert code == 2
        assert out == ""
        assert err == (f"error: cannot write {path!r}: "
                       f"[Errno 2] No such file or directory: {path!r}\n")

    def test_search_beyond_the_belief_bound(self, capsys, monkeypatch, seesaw_doc):
        monkeypatch.setattr("pfakit.analysis.MAX_SEARCH_BELIEFS", 20)
        code, out, err = run(
            capsys, "search", "--automaton", seesaw_doc, "--set", "x=3/4", "--set", "y=1/4",
            "--max-len", "10",
        )
        assert code == 2
        assert out == ""
        assert err == "error: more than 20 distinct beliefs\n"


class TestParser:
    def test_built_once_and_bindings_stay_apart(self, capsys, seesaw_doc):
        assert build_parser() is build_parser()
        word = ["--word", "i a f"]
        code, out, _ = run(capsys, "eval", "--automaton", seesaw_doc,
                           "--set", "x=3/4", "--set", "y=1/4", *word)
        assert (code, out) == (0, "3/8 = 0.375\n")
        code, out, _ = run(capsys, "eval", "--automaton", seesaw_doc,
                           "--set", "x=1/4", "--set", "y=3/4", *word)
        assert (code, out) == (0, "1/8 = 0.125\n")
        # Had the first calls' bindings leaked into the shared parser, y would be bound.
        code, out, err = run(capsys, "eval", "--automaton", seesaw_doc, "--set", "x=1/2", *word)
        assert (code, out) == (2, "")
        assert "unbound parameter 'y'" in err
        fresh = build_parser().parse_args(["eval", "--automaton", seesaw_doc, "--word", "a"])
        assert fresh.set == []

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"], ["sweep", "--help"]])
    def test_help_unchanged(self, capsys, argv):
        fresh = build_parser.__wrapped__()
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        want = capsys.readouterr().out
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(argv)
            assert capsys.readouterr().out == want


class TestBattery:
    def test_all_kinds_appear(self):
        rows = prop_battery(0, 12)
        kinds = {rep.proposition for (_t, rep) in rows}
        assert {
            "fair_coin_commit",
            "fair_coin_erasure",
            "lower_commit",
            "theta_cap",
            "cheat_once",
            "upper_witness",
        } <= kinds

    def test_no_violations_across_seeds(self):
        for seed in (0, 1, 2):
            for _t, rep in prop_battery(seed, 18):
                assert rep.holds


# --- an argv fuzzer --------------------------------------------------------------

# Valid values come first and more often: hypothesis favours the first of a list.
JUNK = ("", " ", "x", "1/0", "--", "\u00e9")
INTS = st.sampled_from(("1", "2", "0", "3", "-1") * 3 + JUNK)
RATIONALS = st.sampled_from(("1/2", "1/3", "0.25", "1e-4300", "1/" + "7" * 3000, "0", "1", "-1/2", "1e4300",
                             "-1e4300") * 3 + JUNK)
WORDS = st.lists(st.sampled_from(("a", "i", "f", "a", "#", "$", "next_word", "z")), max_size=4).map(" ".join)
STATES = st.sampled_from(("q0", "C1", "q1", "L2", "q0 q1", "ghost", ""))
# Each command's flags. Those that scale work are always given, and small.
FLAGS = {
    "eval": {"--word": WORDS},
    "reach": {"--source": STATES, "--word": WORDS, "--targets": STATES},
    "search": {"--max-len": INTS, "--beam": INTS, "--max-beliefs": INTS},
    "fair-coin": {"--lambda": RATIONALS},
    "simulate-build": {},
    "simulate-instantiate": {"--lambda": RATIONALS, "--theta": RATIONALS},
    "hat": {"--word": WORDS},
    "encode": {"--word": WORDS, "--k": INTS},
    "fairness-dfa": {},
    "buchi": {},
    "lasso": {"--stem": WORDS, "--cycle": WORDS},
    "sweep": {"--eps": RATIONALS, "--grid": INTS, "--max-len": INTS, "--beam": INTS},
    "check-props": {"--seed": INTS, "--trials": INTS},
    "case-study": {"--x": RATIONALS, "--y": RATIONALS, "--n-max": INTS, "--m-max": INTS,
                   "--eps": RATIONALS},
    "export-dot": {},
    "monte-carlo": {"--word": WORDS, "--samples": INTS, "--seed": INTS},
}
SCALING = {"--max-len", "--samples", "--trials", "--n-max", "--m-max"}
NO_DOCUMENT = {"encode", "check-props", "case-study"}


class TestArgvFuzz:
    """Drawn argv for every command end in exit 0 or 2 (1 only for a
    violated check-props), never in an exception."""

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory, seesaw_doc):
        source = tmp_path_factory.mktemp("fuzz") / "source.json"
        source.write_text(serialize_automaton(random_simple_pa(0, 2, 1)))
        return (str(source), seesaw_doc, str(source.with_name("missing.json")))

    def test_fuzzed_argv_exits_cleanly(self, documents):
        @given(st.data())
        @settings(max_examples=600, deadline=None)
        def run_one(data):
            draw = data.draw
            command = draw(st.sampled_from(sorted(FLAGS)))
            argv = [command]
            if command not in NO_DOCUMENT:
                argv.append("--automaton=" + draw(st.sampled_from(documents[:2] * 3 + documents[2:])))
                names = st.sampled_from(("x", "y") * 2 + ("z", ""))
                for name, value in draw(st.lists(st.tuples(names, RATIONALS), max_size=3)):
                    argv.append(f"--set={name}={value}")
            for flag, values in FLAGS[command].items():
                if flag in SCALING or draw(st.integers(0, 9)):  # now and then a flag is left out
                    value = draw(values)
                    argv += draw(st.sampled_from(([f"{flag}={value}"], [flag, value])))
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses the argv
                    code = exc.code
            assert code in ((0, 1, 2) if command == "check-props" else (0, 2)), argv

        run_one()
