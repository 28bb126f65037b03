import json

import numpy as np
import pytest

import bellgraph.search as search_module
from bellgraph.bell import bell_coefficients
from bellgraph.cli import build_parser, main
from bellgraph.graph6 import emit_graph6
from bellgraph.quantum import EXPECTATION_TOL
from bellgraph.search import DEFAULT_MAX_WITNESSES
from oracles import random_graph, stabilizer_element, to_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_named_prints_graph6(capsys):
    code, out = run(capsys, "named", "ring(5)")
    assert code == 0
    assert out.strip() == "Dhc"


def test_named_rejects_unknown(capsys):
    assert main(["named", "blob(2)"]) == 2
    assert "family" in capsys.readouterr().err


def test_lhv_bound_json(capsys):
    code, out = run(capsys, "lhv-bound", "--graph", "family:star_copies(2)",
                    "--t", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == {"num": 15, "log2_den": 4}
    assert obj["decimal"] == 0.9375
    assert obj["valid"] is True
    assert obj["argmax"] == {"x_neg": [], "y_neg": []}


def test_lhv_bound_full_engine(capsys):
    # The blocked Z-reduced engine is the only one: `--engine full` is gone
    # and the default path still gives the 8^n oracle's value for Bo.
    code, out = run(capsys, "lhv-bound", "--graph", "Bo", "--t", "0", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == {"num": 3, "log2_den": 2}
    with pytest.raises(SystemExit):
        main(["lhv-bound", "--graph", "Bo", "--t", "0", "--engine", "full"])
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_lhv_bound_engine_choices(capsys):
    # No engine is selectable: the JSON carries no "engine" key and argparse
    # rejects every former --engine choice.
    code, out = run(capsys, "lhv-bound", "--graph", "Bo", "--t", "0", "--json")
    assert code == 0
    assert "engine" not in json.loads(out)
    for gone in ("auto", "full", "direct", "transform"):
        with pytest.raises(SystemExit):
            main(["lhv-bound", "--graph", "Bo", "--t", "0", "--engine", gone])
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_lhv_bound_graph6_literal(capsys):
    code, out = run(capsys, "lhv-bound", "--graph", "Dhc", "--t", "0")
    assert code == 0
    assert "5/8" in out


def test_coverable_members(capsys):
    code, out = run(capsys, "coverable", "--graph", "Bo", "--t", "1", "--members")
    assert code == 0
    assert "8 coverable sets of 8 (full)" in out
    assert "111" in out


def test_coverable_json(capsys):
    code, out = run(capsys, "coverable", "--graph", "family:star_copies(2)",
                    "--t", "1", "--json")
    obj = json.loads(out)
    assert obj["count"] == 15 and obj["full"] is False


def test_bell_op_lists_signed_terms(capsys):
    code, out = run(capsys, "bell-op", "--graph", "Bo", "--t", "0")
    assert code == 0
    assert "8 stabilizer terms" in out
    assert "-1  X1 Y2 Y3" in out
    assert out.count("+1  ") == 7


def test_bell_op_json_roundtrip(capsys):
    code, out = run(capsys, "bell-op", "--graph", "Bo", "--t", "0", "--json")
    obj = json.loads(out)
    assert obj["scale"] == 8
    paulis = {term["pauli"] for term in obj["terms"]}
    assert "-X1 Y2 Y3" in paulis
    assert len(obj["terms"]) == 8


def test_bell_op_terms_match_oracle(capsys, census):
    # the CLI renders each G_S from the stabilizer table; the oracle
    # multiplies the vertex stabilizers one by one
    rng = np.random.default_rng(9)
    graphs = [g for n in range(1, 6) for g in census[n]]
    graphs += [random_graph(rng, n) for n in range(6, 11) for _ in range(2)]
    for g in graphs:
        for t in range(min(2, g.n) + 1):
            code, out = run(capsys, "bell-op", "--graph", emit_graph6(g),
                            "--t", str(t), "--json")
            assert code == 0
            k = bell_coefficients(g, t).k
            expected = []
            for s in range(1 << g.n):
                if k[s]:
                    p = stabilizer_element(g, s)
                    subset = "".join(str(s >> v & 1) for v in range(g.n))
                    expected.append((subset, int(k[s]) * p.sign(), to_text(p)))
            got = [(term["subset"], term["coefficient"], term["pauli"])
                   for term in json.loads(out)["terms"]]
            assert got == expected, (emit_graph6(g), t)


def test_verify_prop1(capsys):
    code, out = run(capsys, "verify-prop1", "--graph", "family:star_copies(2)",
                    "--t", "1", "--channels", "5", "--seed", "11")
    assert code == 0
    assert "PASS" in out


def test_verify_prop1_json(capsys):
    code, out = run(capsys, "verify-prop1", "--graph", "Bw", "--t", "1",
                    "--channels", "3", "--seed", "2", "--json")
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["max_deviation"] < 1e-9


@pytest.mark.parametrize("family, channels", [
    ("star_copies(3)", []),                        # 9 qubits, the default 20 channels
    ("complete_join(3,3,4)", ["--channels", "5"]),  # 10 qubits
])
def test_verify_prop1_double_error_constructions(capsys, family, channels):
    # the paper's t = 2 constructions on 9 and 10 qubits
    code, out = run(capsys, "verify-prop1", "--graph", f"family:{family}", "--t", "2",
                    *channels, "--json")
    obj = json.loads(out)
    assert code == 0 and obj["passed"] is True
    assert obj["tolerance"] == EXPECTATION_TOL
    assert obj["max_deviation"] < 1e-12


@pytest.mark.parametrize("m", [4, pytest.param(5, marks=pytest.mark.slow)])
def test_verify_prop1_star_copies_past_ten_qubits(capsys, m):
    # the t = m - 1 construction on 3m qubits: 12 qubits at t = 3, 15 at t = 4,
    # each with the default 20 channels
    code, out = run(capsys, "verify-prop1", "--graph", f"family:star_copies({m})",
                    "--t", str(m - 1), "--json")
    obj = json.loads(out)
    assert code == 0 and obj["passed"] is True
    assert (obj["n"], obj["channels"]) == (3 * m, 20)
    assert obj["max_deviation"] < 1e-12


def test_verify_prop1_rejects_channel_weights_past_four(capsys, monkeypatch):
    # a weight-t draw holds up to 16^t entries; these exit before any
    # generator is made, let alone a draw
    monkeypatch.setattr(np.random, "default_rng", None)
    for graph, t in (("family:star_copies(2)", "5"), ("family:ring(10)", "8")):
        assert main(["verify-prop1", "--graph", graph, "--t", t]) == 2
        assert f"error: t={t} above 4" in capsys.readouterr().err


def test_search_all_labeled_json(capsys):
    code, out = run(capsys, "search", "--all-labeled", "4", "--t", "0", "--json")
    obj = json.loads(out)
    assert obj["best_bound"] == {"num": 3, "log2_den": 2}
    assert obj["graphs_examined"] == 64
    assert set(obj["stages_s"]) == {"read", "dedup", "evaluate", "verify"}


def test_search_max_witnesses_default_is_the_library_default():
    args = build_parser().parse_args(["search", "--all-labeled", "4", "--t", "0"])
    assert args.max_witnesses == DEFAULT_MAX_WITNESSES


def test_search_census_file(capsys, census5_path):
    code, out = run(capsys, "search", "--census", census5_path, "--t", "0")
    assert code == 0
    assert "5/8" in out
    assert "0 malformed records skipped" in out
    assert "0 orbit-cap fallbacks" in out


def test_search_census_checkpoint_reports_the_same_twice(capsys, tmp_path, census5_path):
    # the second run resumes from the completed file
    ck = tmp_path / "n5.ck"
    runs = []
    for _ in range(2):
        code, out = run(capsys, "search", "--census", census5_path, "--t", "0",
                        "--checkpoint", str(ck), "--json")
        assert code == 0
        runs.append({key: val for key, val in json.loads(out).items()
                     if key not in ("wall_time_s", "stages_s")})
    assert runs[0] == runs[1] and runs[0]["graphs_examined"] == 34


def test_search_census_rejects_v3_checkpoint(capsys, tmp_path, census5_path):
    # a file in an older format is rejected, with the advice to delete it
    ck = tmp_path / "v3.ck"
    ck.write_text("bellgraph-checkpoint v3\nn=5\nrecords=1\norbit_cap_fallbacks=0\nseen=0\n")
    assert main(["search", "--census", census5_path, "--t", "0", "--checkpoint", str(ck)]) == 2
    assert "delete the file" in capsys.readouterr().err


def test_search_all_labeled_rejects_vertex_count(capsys, monkeypatch):
    # rejected before any level is built; 11 would otherwise walk toward
    # about 10^9 isomorphism classes, 17 for hours
    monkeypatch.setattr(search_module, "_extensions", None)
    for n, message in (("0", "vertex count 0 outside 1..16"),
                       ("17", "vertex count 17 outside 1..16"),
                       ("11", "n=11 above 10")):
        assert main(["search", "--all-labeled", n, "--t", "0"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
    # LC dedup is the one mode: a mode flag is an argparse error
    with pytest.raises(SystemExit) as exit_:
        main(["search", "--all-labeled", "4", "--t", "0", "--dedup", "lc"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --dedup lc" in capsys.readouterr().err


def test_search_all_labeled_rejects_census_only_flags(capsys, tmp_path):
    # --checkpoint and --lenient act on census files only
    ck = tmp_path / "y.ck"
    for extra in (["--checkpoint", str(ck)], ["--lenient"]):
        assert main(["search", "--all-labeled", "5", "--t", "0", *extra]) == 2
        assert "error: --checkpoint and --lenient need --census" in capsys.readouterr().err
    assert not ck.exists()


def test_search_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\nB\n")
    assert main(["search", "--census", str(bad), "--t", "0"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_reproduce_table1_small(capsys):
    code, out = run(capsys, "reproduce-table1", "--max-n", "4")
    assert code == 0
    assert "3/4" in out
    assert "t=0" in out


def test_reproduce_table1_json(capsys):
    code, out = run(capsys, "reproduce-table1", "--max-n", "3", "--json")
    obj = json.loads(out)
    cells = {(c["t"], c["n"]): c for c in obj["cells"]}
    assert cells[(0, 3)]["value"] == {"num": 3, "log2_den": 2}
    assert obj["minimal_violating_n"] == {"0": 3}
    assert set(cells[(0, 3)]) == {"t", "n", "value", "expected", "matches"}


def test_reproduce_table1_rejects_bad_arguments(capsys, tmp_path, monkeypatch):
    # rejected before any level is built
    monkeypatch.setattr(search_module, "_extensions", None)
    for max_n in ("11", "17"):
        assert main(["reproduce-table1", "--max-n", max_n]) == 2
        assert f"error: max_n={max_n} outside 3..10" in capsys.readouterr().err
    # the grid reads no census directory: the flag is an argparse error
    with pytest.raises(SystemExit) as exit_:
        main(["reproduce-table1", "--census-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --census-dir" in capsys.readouterr().err


def test_bad_graph_literal_is_reported(capsys):
    assert main(["lhv-bound", "--graph", "!!!", "--t", "0"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify-prop1", "--graph", "Bo", "--t", "1", "--channels", "0"],
     "argument --channels: must be at least 1, got 0"),
    (["search", "--all-labeled", "4", "--t", "0", "--max-witnesses", "-1"],
     "argument --max-witnesses: must be at least 0, got -1"),
    (["reproduce-table1", "--max-n", "2"],
     "argument --max-n: must be at least 3, got 2"),
    (["bell-op", "--graph", "Bo", "--t", "0", "--limit", "-1"],
     "argument --limit: must be at least 0, got -1"),
])
def test_counts_that_would_make_a_check_vacuous_are_rejected(capsys, argv, message):
    # zero channels would print PASS having checked nothing, a negative
    # witness cap would slice off the last witness, and max-n below 3 would
    # print an empty grid; a negative limit would print 7 of 8 terms and
    # then "... 9 more"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_smallest_accepted_counts(capsys):
    code, out = run(capsys, "verify-prop1", "--graph", "Bo", "--t", "1", "--channels", "1")
    assert code == 0 and "PASS: 1 random" in out
    code, out = run(capsys, "search", "--all-labeled", "4", "--t", "0",
                    "--max-witnesses", "0", "--json")
    obj = json.loads(out)
    assert obj["witnesses"] == [] and obj["witness_classes_total"] > 0
    code, out = run(capsys, "reproduce-table1", "--max-n", "3", "--json")
    assert code == 0 and {c["n"] for c in json.loads(out)["cells"]} == {3}
    code, out = run(capsys, "bell-op", "--graph", "Bo", "--t", "0", "--limit", "0")
    assert code == 0 and out.splitlines()[1:] == ["  ... 8 more"]
