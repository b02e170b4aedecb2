"""Command-line behaviour: output formats and the exit-status contract.

Everything runs in-process through run() except one subprocess smoke test.
"""

import subprocess
import sys

import pytest
from helpers import S, autsg_env, stdout_under_hash_seeds

from autsg.cli import run
from autsg.gadgets import build_gadget, separation_instance
from autsg.mealy import check_properties
from autsg.textio import parse_text, serialize_automaton, serialize_instance, serialize_tm
from autsg.turing import TuringMachineSpec, TmReductionParams, encode_computation
from autsg.wordproblem import WordProblemInstance

ADDING = build_gadget("adding")
DUAL = build_gadget("dual-adding")


@pytest.fixture
def adding_file(tmp_path):
    f = tmp_path / "adding.aut"
    f.write_text(serialize_automaton(ADDING), encoding="utf-8")
    return str(f)


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


# --- act ---------------------------------------------------------------------


def test_act_example(adding_file, capsys):
    assert run(["act", adding_file, "--seq", "+1", "--word", "0", "1", "0"]) == 0
    assert capsys.readouterr().out == "1 1 0\n"


def test_act_empty_sequence_is_identity(adding_file, capsys):
    assert run(["act", adding_file, "--seq", "--word", "1", "0"]) == 0
    assert capsys.readouterr().out == "1 0\n"


def test_act_undefined(tmp_path, capsys):
    f = _write(tmp_path, "fp.aut", serialize_automaton(build_gadget("free-partial")))
    assert run(["act", f, "--seq", "b", "--word", "a", "b"]) == 0
    assert capsys.readouterr().out == "undefined at 0\n"
    assert run(["act", f, "--seq", "b", "--word", "a", "b", "--porcelain"]) == 0
    assert capsys.readouterr().out == "UNDEFINED 0\n"


def test_act_inverted_sequence(adding_file, capsys):
    assert run(["act", adding_file, "--seq", "~+1", "--word", "1", "1", "0"]) == 0
    assert capsys.readouterr().out == "0 1 0\n"


# --- check -------------------------------------------------------------------


def test_check_bireversible_example(tmp_path, capsys):
    f = _write(tmp_path, "bi.aut", serialize_automaton(build_gadget("bireversible")))
    assert run(["check", f]) == 0
    assert capsys.readouterr().out == (
        "complete=false inverse-deterministic=false inverse-complete=false "
        "reversible=true bireversible=true is-g-automaton=false\n"
    )


def test_check_many_automata_prefixes_names(tmp_path, capsys):
    f = _write(
        tmp_path,
        "two.aut",
        serialize_automaton(ADDING) + serialize_automaton(DUAL),
    )
    assert run(["check", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("adding ")
    assert lines[1].startswith("dual-adding ")
    assert "is-g-automaton=true" in lines[0]


# --- decide / oracle ---------------------------------------------------------


def test_decide_not_equal_example(tmp_path, capsys):
    inst = WordProblemInstance(DUAL, ["0", "0"], ["0"])
    f = _write(tmp_path, "d2.inst", serialize_instance(inst))
    assert run(["decide", f]) == 10
    assert capsys.readouterr().out == "NOT-EQUAL witness: a a\n"
    assert run(["decide", f, "--porcelain"]) == 10
    assert capsys.readouterr().out == "NOT-EQUAL 2 a a\n"


def test_decide_equal(tmp_path, capsys):
    inst = WordProblemInstance(ADDING, S("~+1", "+1"), [])
    f = _write(tmp_path, "id.inst", serialize_instance(inst))
    assert run(["decide", f]) == 0
    assert capsys.readouterr().out == "EQUAL\n"


def test_decide_many_instances(tmp_path, capsys):
    text = serialize_automaton(ADDING) + (
        "instance\nautomaton adding\nlhs ~+1 +1\nrhs\nend\n"
        "instance\nautomaton adding\nlhs +1\nrhs +0\nend\n"
    )
    f = _write(tmp_path, "multi.inst", text)
    assert run(["decide", f]) == 10
    assert capsys.readouterr().out == "EQUAL\nNOT-EQUAL witness: 0\n"


def test_decide_budget_exceeded(tmp_path, capsys):
    inst = WordProblemInstance(DUAL, ["0", "0", "0"], ["0", "0"])
    f = _write(tmp_path, "d3.inst", serialize_instance(inst, budget=3))
    assert run(["decide", f]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    # an explicit flag overrides the file budget
    assert run(["decide", f, "--max-configs", "100000"]) == 10


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_decide_rejects_a_budget_below_one(tmp_path, capsys, budget):
    f = _write(tmp_path, "d3.inst", serialize_instance(separation_instance("dual-adding", 3)))
    assert run(["decide", f, "--max-configs", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_configs must be >= 1\n"


def test_oracle(tmp_path, capsys):
    inst = WordProblemInstance(DUAL, ["0", "0"], ["0"])
    f = _write(tmp_path, "d2.inst", serialize_instance(inst))
    assert run(["oracle", f, "--max-len", "1"]) == 0
    assert capsys.readouterr().out == "EQUAL (all words up to length 1)\n"
    assert run(["oracle", f, "--max-len", "1", "--porcelain"]) == 0
    assert capsys.readouterr().out == "EQUAL\n"
    assert run(["oracle", f, "--max-len", "2", "--naive"]) == 10
    assert capsys.readouterr().out == "NOT-EQUAL witness: a a\n"


# --- gadget ------------------------------------------------------------------


def test_gadget_emits_parseable_automaton(capsys):
    assert run(["gadget", "adding"]) == 0
    doc = parse_text(capsys.readouterr().out)
    assert doc.automata["adding"] == ADDING


def test_gadget_with_n_emits_instance(tmp_path, capsys):
    assert run(["gadget", "dual-adding", "-n", "2"]) == 0
    f = _write(tmp_path, "sep.inst", capsys.readouterr().out)
    assert run(["decide", f]) == 10
    assert capsys.readouterr().out == "NOT-EQUAL witness: a a\n"


def test_gadget_dprime_instance(tmp_path, capsys):
    assert run(["gadget", "dual-adding-prime", "-n", "3"]) == 0
    doc = parse_text(capsys.readouterr().out)
    parsed = doc.instances[0]
    assert parsed.lhs_tokens == ("0", "0")
    assert parsed.rhs_tokens == ("q",)


def test_gadget_n_rejected_for_non_dual(capsys):
    assert run(["gadget", "adding", "-n", "2"]) == 2
    assert "dual-adding" in capsys.readouterr().err


# --- reduce / encode ---------------------------------------------------------

ZEROS = (
    "acceptor zeros\nalphabet 0 1\nstates s t\ninitial s\nfinal s\n"
    "t s 0 s\nt s 1 t\nt t 0 t\nt t 1 t\nend\n"
)
ONES = (
    "acceptor ones\nalphabet 0 1\nstates s t\ninitial s\nfinal s\n"
    "t s 1 s\nt s 0 t\nt t 0 t\nt t 1 t\nend\n"
)


def test_reduce_dfa_intersection_cli(tmp_path, capsys):
    f1 = _write(tmp_path, "z.acc", ZEROS)
    f2 = _write(tmp_path, "o.acc", ONES)
    assert run(["reduce", "dfa-intersection", f1, f2, "--group"]) == 0
    out = capsys.readouterr().out
    doc = parse_text(out)
    assert "dfa-isect-group" in doc.automata
    assert doc.instances[0].constraint_names == ("tail-ones",)
    f3 = _write(tmp_path, "isect.inst", out)
    assert run(["decide", f3]) == 10  # 0* and 1* share only the empty word
    assert capsys.readouterr().out == "NOT-EQUAL witness: # 1 1 # 1\n"


def test_reduce_dfa_empty_cli(tmp_path, capsys):
    all_words = (
        "acceptor allw\nalphabet 0 1\nstates s\ninitial s\nfinal s\n"
        "t s 0 s\nt s 1 s\nend\n"
    )
    f = _write(tmp_path, "all.acc", all_words)
    assert run(["reduce", "dfa-empty", f]) == 0
    f2 = _write(tmp_path, "empty.inst", capsys.readouterr().out)
    assert run(["decide", f2]) == 10
    assert capsys.readouterr().out == "NOT-EQUAL witness: 0\n"


TM_TEXT = serialize_tm(
    TuringMachineSpec(
        "accnow",
        ["_", "a"],
        "_",
        ["z0", "zf"],
        "z0",
        ["zf"],
        {("z0", "_"): ("_", "zf", "N"), ("z0", "a"): ("a", "zf", "N")},
    )
)


def test_encode_tm_cli(tmp_path, capsys):
    f = _write(tmp_path, "acc.tm", TM_TEXT)
    assert run(["encode", "tm", f, "--space", "2", "--steps", "1"]) == 0
    assert capsys.readouterr().out == "_:zf 0 0 _ 0 0 $ 0 0 $ 0\n"


def test_reduce_tm_cli_roundtrip(tmp_path, capsys):
    f = _write(tmp_path, "acc.tm", TM_TEXT)
    assert run(["reduce", "tm", f, "--space", "2"]) == 0
    f2 = _write(tmp_path, "tm.inst", capsys.readouterr().out)
    assert run(["decide", f2]) == 10
    assert capsys.readouterr().out == "NOT-EQUAL witness: _:zf 0 0 _ 0 $ $ 0\n"


def test_reduce_tm_group_cli(tmp_path, capsys):
    f = _write(tmp_path, "acc.tm", TM_TEXT)
    assert run(["reduce", "tm", f, "--space", "2", "--group"]) == 0
    f2 = _write(tmp_path, "tmg.inst", capsys.readouterr().out)
    assert run(["decide", f2]) == 10
    tm = parse_text(TM_TEXT).machines["accnow"]
    expected = encode_computation(tm, TmReductionParams(p_val=2), 1)
    assert capsys.readouterr().out == "NOT-EQUAL witness: " + " ".join(expected) + "\n"


def test_reduce_tm_emits_the_quotient(tmp_path, capsys):
    # the Moore quotient of the group automaton: still a G-automaton, and
    # the same bytes whatever order string sets iterate in
    f = _write(tmp_path, "acc.tm", TM_TEXT)
    assert run(["reduce", "tm", f, "--space", "2", "--group"]) == 0
    text = capsys.readouterr().out
    (automaton,) = parse_text(text).automata.values()
    assert automaton.name == "tm-accnow-group"
    assert len(automaton.states) < 100
    assert check_properties(automaton).is_g_automaton
    argv = ["-m", "autsg", "reduce", "tm", f, "--space", "2", "--group"]
    assert stdout_under_hash_seeds(argv) == [text] * 2


# --- exit statuses -----------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["decide"]) == 1
    assert run(["oracle", "somefile"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["gadget", "nosuch"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "decide" in capsys.readouterr().out


def test_input_errors_exit_2(tmp_path, capsys):
    assert run(["decide", str(tmp_path / "missing.inst")]) == 2
    f = _write(tmp_path, "bad.aut", "mealy m\nalphabet a\n")
    assert run(["check", f]) == 2
    # no automaton at all
    f2 = _write(tmp_path, "acc.only", ZEROS)
    assert run(["check", f2]) == 2
    # incomplete DFA for the reduction
    partial = "acceptor p\nalphabet 0 1\nstates s\ninitial s\nfinal s\nt s 0 s\nend\n"
    f3 = _write(tmp_path, "p.acc", partial)
    assert run(["reduce", "dfa-intersection", f3]) == 2
    # instance file without instances
    f4 = _write(tmp_path, "noinst.aut", serialize_automaton(ADDING))
    assert run(["decide", f4]) == 2
    errs = capsys.readouterr().err
    assert errs.count("error:") == 5
    # ~r is undefined (r emits b twice): rejected at the instance's line
    f5 = _write(
        tmp_path,
        "bi.inst",
        serialize_automaton(build_gadget("bireversible"))
        + "instance\nautomaton bireversible\nlhs ~r\nrhs s\nend\n",
    )
    assert run(["decide", f5]) == 2
    err = capsys.readouterr().err
    assert "line " in err and "~r" in err


def test_bytes_that_are_not_utf8_exit_2_naming_their_line(tmp_path, capsys):
    bad = tmp_path / "bad.inst"
    bad.write_bytes(b"% line 1\nmealy \xff\n")
    main = _write(tmp_path, "main.inst", "% line 1\ninclude bad.inst\n")
    for f in (str(bad), main):
        assert run(["decide", f]) == 2
        assert capsys.readouterr().err.startswith("error: line 2: bad.inst is not UTF-8")


def test_a_value_error_that_is_not_an_input_error_propagates(tmp_path, monkeypatch):
    f = _write(tmp_path, "sep.inst", serialize_instance(separation_instance("dual-adding", 2)))
    assert run(["decide", f]) == 10

    def bug(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr("autsg.cli.decide", bug)
    with pytest.raises(ValueError, match="^bug$"):
        run(["decide", f])


def test_subprocess_smoke(adding_file):
    proc = subprocess.run(
        [sys.executable, "-m", "autsg", "act", adding_file,
         "--seq", "+1", "--word", "0", "1", "0"],
        capture_output=True,
        text=True,
        env=autsg_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1 0\n"
