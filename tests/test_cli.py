import pytest

from qreliab.cli import main


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
    _, brute, _ = run(
        capsys, "ur", "R(x), S(x,y)", five_facts, "--method", "brute"
    )
    _, safe, _ = run(capsys, "ur", "R(x), S(x,y)", five_facts, "--method", "safe")
    assert brute == safe


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


def test_gadgets(capsys):
    code, out, _ = run(capsys, "gadgets", "--rst", "1,1,1")
    assert code == 0
    assert "gamma=17\n" in out
    assert "kappa=8\n" in out


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


def test_reduce_ur(capsys, edge_graph):
    code, out, _ = run(
        capsys, "reduce-ur", edge_graph, "--rst", "1,1,1", "--oracle", "analytic"
    )
    assert (code, out) == (0, "P=3\n")


def test_reduce_pqe(capsys, edge_graph):
    code, out, _ = run(
        capsys, "reduce-pqe", edge_graph, "--r", "1/3", "--t", "2/3"
    )
    assert (code, out) == (0, "P=3\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
