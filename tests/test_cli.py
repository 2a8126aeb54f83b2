import argparse
import itertools
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import qreliab
from qreliab import bipartite
from qreliab.cli import build_parser, main
from qreliab.instances import parse_instance


@pytest.fixture()
def five_facts(tmp_path):
    path = tmp_path / "five.facts"
    path.write_text("R(a)\nR(b)\nS(a,c)\nS(b,c)\nT(c)\n")
    return str(path)


@pytest.fixture()
def edge_graph(tmp_path):
    path = tmp_path / "edge.bg"
    path.write_text("left u\nright w\nedge u w\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_non_hierarchical(capsys):
    code, out, _ = run(capsys, "classify", "R(x), S(x,y), T(y)")
    assert code == 0
    assert out == "non-hierarchical witness=(x,y) rst=(1,1,1)\n"


def test_classify_hierarchical(capsys):
    code, out, _ = run(capsys, "classify", "R(x), S(x,y)")
    assert code == 0
    assert out == "hierarchical\n"


def test_ur_brute(capsys, five_facts):
    code, out, _ = run(capsys, "ur", "R(x), S(x,y), T(y)", five_facts)
    assert (code, out) == (0, "7\n")


def test_ur_methods_agree_on_hierarchical(capsys, five_facts):
    q = qreliab.parse_query("R(x), S(x,y)")
    instance = parse_instance(Path(five_facts).read_text())
    brute = qreliab.ur_brute(q, instance)
    assert brute == qreliab.ur_safe(q, instance)
    assert run(capsys, "ur", "R(x), S(x,y)", five_facts) == (0, f"{brute}\n", "")


def test_pqe_uniform(capsys, five_facts):
    code, out, _ = run(
        capsys, "pqe", "R(x), S(x,y), T(y)", five_facts, "--uniform", "1/2"
    )
    assert (code, out) == (0, "7/32\n")


def test_pqe_probs_file(capsys, five_facts, tmp_path):
    probs = tmp_path / "p.probs"
    probs.write_text("R 1/2\nS 1/2\nT 1\n")
    code, out, _ = run(
        capsys, "pqe", "R(x), S(x,y), T(y)", five_facts, "--probs", str(probs)
    )
    assert code == 0
    assert out == "7/16\n"


def test_pqe_probs_file_comment_does_not_pick_mode(capsys, five_facts, tmp_path):
    probs = tmp_path / "p.probs"
    probs.write_text("# probabilities (per relation)\nR 1/2\nS 1/2\nT 1\n")
    code, out, _ = run(
        capsys, "pqe", "R(x), S(x,y), T(y)", five_facts, "--probs", str(probs)
    )
    assert (code, out) == (0, "7/16\n")


@pytest.mark.parametrize("query", ["R(x), S(x,y)", "R(x), S(x,y), T(y)"])
def test_pqe_missing_fact_probability_is_an_error(capsys, tmp_path, query):
    # S(b,c) takes part in no match, so neither route needs its probability
    # to compute the answer; both still report it missing.
    facts = tmp_path / "f.facts"
    facts.write_text("R(a)\nS(a,c)\nS(b,c)\nT(c)\n")
    probs = tmp_path / "p.probs"
    probs.write_text("R(a) 1/2\nS(a,c) 1/3\nT(c) 1\n")
    code, out, err = run(capsys, "pqe", query, str(facts), "--probs", str(probs))
    assert (code, out) == (1, "")
    assert err == "error: no probability assigned to S(b,c)\n"


def test_pqe_probs_file_bad_constant_exits_1(capsys, five_facts, tmp_path):
    probs = tmp_path / "p.probs"
    probs.write_text("R(a) 1/2\nR(a-1) 1/5\n")
    code, out, err = run(
        capsys, "pqe", "R(x), S(x,y)", five_facts, "--probs", str(probs)
    )
    assert (code, out) == (1, "")
    assert err == "error: line 2: bad constant 'a-1'\n"


@pytest.mark.parametrize(
    "text, err",
    [
        ("R(a) 1/2\nR(a) 1/3\n", "error: line 2: R(a) already has a probability on line 1\n"),
        ("R 1/2\nS 1\nR 1/3\n", "error: line 3: R already has a probability on line 1\n"),
    ],
)
def test_pqe_probs_file_duplicate_exits_1(capsys, five_facts, tmp_path, text, err):
    probs = tmp_path / "p.probs"
    probs.write_text(text)
    code, out, got = run(
        capsys, "pqe", "R(x), S(x,y)", five_facts, "--probs", str(probs)
    )
    assert (code, out, got) == (1, "", err)


def test_long_exact_answers_print_in_full(capsys, tmp_path):
    # 2**15000 - 1 has 4,516 digits, past the interpreter's default limit on
    # int-to-str conversion (Python 3.11+).  The command line lifts it while
    # printing the answer and restores it afterwards.  Decimal converts
    # without that limit, so it spells out the expected digits.
    def limit():
        return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None

    before = limit()
    count, worlds = Decimal(2**15000 - 1), Decimal(2**15000)
    facts = tmp_path / "big.facts"
    facts.write_text("".join(f"R(a{i})\n" for i in range(15_000)))
    code, out, err = run(capsys, "ur", "R(x)", str(facts))
    assert (code, err) == (0, "")
    assert out == f"{count}\n"
    code, out, err = run(capsys, "pqe", "R(x)", str(facts), "--uniform", "1/2")
    assert (code, err) == (0, "")
    assert out == f"{count}/{worlds}\n"
    assert limit() == before


def test_gadgets(capsys):
    code, out, _ = run(capsys, "gadgets", "--rst", "1,1,1")
    assert code == 0
    assert out == (
        "lam_r=3\nlam_rbar=4\nlam_t=3\nlam_tbar=4\ngamma=17\n"
        "delta_r=22\ndelta_t=22\ndelta_bot=28\nkappa=8\n"
    )


def test_gadgets_check_brute(capsys):
    code, out, _ = run(capsys, "gadgets", "--rst", "2,1,1", "--check-brute")
    assert code == 0
    assert "brute_match=true\n" in out


def test_lemmas(capsys):
    code, out, _ = run(capsys, "lemmas", "--max-rst", "2")
    assert code == 0
    assert out.strip().endswith("failures=0")


def test_isets(capsys, edge_graph):
    assert run(capsys, "isets", edge_graph)[:2] == (0, "3\n")


def _graph_file(tmp_path, n_left, n_right, edges):
    lines = [f"left u{k}" for k in range(n_left)] + [f"right w{k}" for k in range(n_right)]
    lines += [f"edge u{a} w{b}" for a, b in edges]
    path = tmp_path / "g.bg"
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


def test_isets_folds_without_enumerating_pairs(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("isets enumerated every pair")

    monkeypatch.setattr(bipartite, "iter_pairs", refuse)
    matching = _graph_file(tmp_path, 12, 12, [(k, k) for k in range(12)])
    assert run(capsys, "isets", matching)[:2] == (0, f"{3**12}\n")
    complete = _graph_file(tmp_path, 12, 12, [(a, b) for a in range(12) for b in range(12)])
    assert run(capsys, "isets", complete)[:2] == (0, f"{2**13 - 1}\n")


def test_isets_caps_the_smaller_side(capsys, monkeypatch, tmp_path):
    # 2 + 30 = 32 vertices is over the pair cap of 24, but the fold runs
    # over the 2-vertex side only
    assert run(capsys, "isets", _graph_file(tmp_path, 2, 30, []))[:2] == (0, f"{2**32}\n")
    code, out, err = run(capsys, "isets", _graph_file(tmp_path, 25, 25, []))
    assert (code, out) == (1, "")
    assert "enumeration width 25 exceeds cap 24" in err
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "3")
    code, _, err = run(capsys, "isets", _graph_file(tmp_path, 4, 4, [(0, 0)]))
    assert code == 1 and "enumeration width 4 exceeds cap 3" in err


def test_reduce_ur(capsys, edge_graph):
    code, out, _ = run(
        capsys, "reduce-ur", edge_graph, "--rst", "1,1,1", "--oracle", "analytic"
    )
    assert (code, out) == (0, "P=3\n")


def test_reduce_ur_large_multiplicities(capsys, edge_graph):
    assert run(capsys, "reduce-ur", edge_graph, "--rst", "20,21,20")[:2] == (0, "P=3\n")


def test_reduce_ur_emit_instances(capsys, edge_graph, tmp_path):
    out_dir = tmp_path / "emitted"
    code, out, _ = run(
        capsys, "reduce-ur", edge_graph, "--rst", "1,1,1", "--emit-instances", str(out_dir)
    )
    assert (code, out) == (0, "P=3\n")
    # the grid p_left <= 1, p_right <= 1, p < C(4, 3) = 4
    grid = itertools.product(range(2), range(2), range(4))
    names = [f"D_{p_left}_{p_right}_{p}.facts" for p_left, p_right, p in grid]
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(names)
    for name in names:
        text = (out_dir / name).read_text()
        assert parse_instance(text).serialize() == text


def test_reduce_pqe(capsys, edge_graph):
    code, out, _ = run(
        capsys, "reduce-pqe", edge_graph, "--r", "1/3", "--t", "2/3"
    )
    assert (code, out) == (0, "P=3\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_built_once_reads_each_call_as_a_fresh_process(capsys, monkeypatch, five_facts):
    # The usage text wraps at the terminal width, which both sides read from
    # COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(qreliab.__file__).resolve().parent.parent))
    both = ["pqe", "R(x), S(x,y)", five_facts, "--probs", five_facts, "--uniform", "1/2"]
    calls = [
        both,
        ["ur", "R(x), S(x,y), T(y)", five_facts],
        ["pqe", "R(x), S(x,y), T(y)", five_facts, "--uniform", "1/2"],
        ["classify", "R(x), S(x,y), T(y)"],
        both,
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "qreliab.cli", *argv], env=env, capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 2 and "not allowed with argument" in captured.err
    assert build_parser() is build_parser()


def test_readme_synopsis_matches_the_parser():
    # A flag removed from the parser must not linger in the docs, nor an
    # added one go undocumented.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    documented = {}
    for line in block.splitlines():
        prog, command, *rest = line.split()
        assert prog == "qreliab"
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        command: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for command, sub in subparsers.choices.items()
    }
    assert documented == parsed


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("query", ["R(x), S(x,y)", "R(x), S(x,y), T(y)"])
def test_output_ignores_the_order_of_fact_lines(capsys, tmp_path, query, seed):
    rng = random.Random(seed)
    xs, ys = [f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]
    facts = [f"R({x})" for x in xs if rng.random() < 0.7]
    facts += [f"S({x},{y})" for x in xs for y in ys if rng.random() < 0.4]
    facts += [f"T({y})" for y in ys if rng.random() < 0.7]
    rng.shuffle(facts)
    forward, backward = tmp_path / "forward.facts", tmp_path / "backward.facts"
    forward.write_text("".join(f"{f}\n" for f in facts))
    backward.write_text("".join(f"{f}\n" for f in reversed(facts)))
    per_fact = tmp_path / "fact.probs"
    per_fact.write_text("".join(f"{f} {rng.randint(1, 9)}/{rng.choice([9, 10])}\n" for f in facts))
    per_relation = tmp_path / "relation.probs"
    per_relation.write_text("R 1/3\nS 5/7\nT 1/2\n")
    tails = [[], ["--probs", str(per_fact)], ["--probs", str(per_relation)]]
    for command, tail in zip(["ur", "pqe", "pqe"], tails):
        outputs = [run(capsys, command, query, str(path), *tail) for path in (forward, backward)]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_brute_cap_env_is_a_usage_error(capsys, monkeypatch, five_facts, value):
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", value)
    with pytest.raises(SystemExit) as exc:
        main(["ur", "R(x), S(x,y), T(y)", five_facts])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "QRELIAB_BRUTE_CAP must be a non-negative integer" in captured.err


def test_computation_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.facts"
    bad.write_text("this is not a fact\n")
    code, out, err = run(capsys, "ur", "R(x)", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "ur", "R(x)", "/nonexistent/path.facts")
    assert code == 1
    assert "error:" in err


def test_query_syntax_error_exits_1(capsys, five_facts):
    code, _, err = run(capsys, "ur", "R(x", five_facts)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ur", "R(x), S(x,y)"],
        ["ur", "R(x), S(x,y), T(y)"],
        ["pqe", "R(x), S(x,y)", "--uniform", "1/2"],
        ["pqe", "R(x), S(x,y), T(y)", "--uniform", "1/2"],
    ],
)
def test_arity_mismatch_reads_the_same_on_every_route(capsys, tmp_path, argv):
    facts = tmp_path / "wide.facts"
    facts.write_text("R(a,b)\nS(a,b)\n")
    code, out, err = run(capsys, *argv[:2], str(facts), *argv[2:])
    assert (code, out) == (1, "")
    assert err == "error: relation 'R' has arity 1 in the query but 2 in the instance\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce-ur", "GRAPH", "--rst", "1,1"], "argument --rst: expects integers r,s,t; got '1,1'"),
        (["gadgets", "--rst", "1,x,1"], "argument --rst: expects integers r,s,t; got '1,x,1'"),
        (["pqe", "R(x)", "FACTS", "--uniform", "abc"], "argument --uniform: expects a rational"),
        (["pqe", "R(x)", "FACTS", "--uniform", "1/0"], "argument --uniform: expects a rational"),
        (["reduce-pqe", "GRAPH", "--r", "abc", "--t", "1/2"], "argument --r: expects a rational"),
        (["reduce-pqe", "GRAPH", "--r", "1/2", "--t", "1/0"], "argument --t: expects a rational"),
        (["lemmas", "--max-rst", "0"], "argument --max-rst: expects a positive integer; got '0'"),
        (["ur", "R(x)", "FACTS", "--method", "brute"], "unrecognized arguments: --method brute"),
    ],
)
def test_malformed_value_is_a_usage_error(capsys, five_facts, edge_graph, argv, message):
    argv = [{"GRAPH": edge_graph, "FACTS": five_facts}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["reduce-ur", "GRAPH", "--rst", "0,1,1"], "error: r, s, t must all be positive\n"),
        (["gadgets", "--rst", "1,1,0"], "error: r, s, t must all be positive\n"),
        (
            ["reduce-pqe", "GRAPH", "--r", "1", "--t", "1/2"],
            "error: r must lie strictly between 0 and 1, got 1\n",
        ),
        (["pqe", "R(x)", "FACTS", "--uniform", "3/2"], "error: probability 3/2 is outside (0, 1]\n"),
    ],
)
def test_out_of_range_value_exits_1(capsys, five_facts, edge_graph, argv, err):
    argv = [{"GRAPH": edge_graph, "FACTS": five_facts}.get(a, a) for a in argv]
    assert run(capsys, *argv) == (1, "", err)
