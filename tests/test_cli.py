import json

import pytest

from bellgraph.cli import main


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
    code, out = run(capsys, "lhv-bound", "--graph", "Bo", "--t", "0",
                    "--engine", "full", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == {"num": 3, "log2_den": 2}
    assert obj["engine"] == "full"


def test_lhv_bound_engine_choices(capsys):
    code, out = run(capsys, "lhv-bound", "--graph", "Bo", "--t", "0", "--json")
    assert json.loads(out)["engine"] == "auto"
    for gone in ("direct", "transform"):
        with pytest.raises(SystemExit):
            main(["lhv-bound", "--graph", "Bo", "--t", "0", "--engine", gone])
    assert "invalid choice" in capsys.readouterr().err


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


def test_search_all_labeled_json(capsys):
    code, out = run(capsys, "search", "--all-labeled", "4", "--t", "0",
                    "--threads", "1", "--json")
    obj = json.loads(out)
    assert obj["best_bound"] == {"num": 3, "log2_den": 2}
    assert obj["graphs_examined"] == 64


def test_search_census_file(capsys, census5_path):
    code, out = run(capsys, "search", "--census", census5_path, "--t", "0",
                    "--threads", "1")
    assert code == 0
    assert "5/8" in out


def test_search_dedup_flag(capsys):
    code, out = run(capsys, "search", "--all-labeled", "4", "--t", "0",
                    "--dedup", "none", "--threads", "1", "--json")
    obj = json.loads(out)
    assert obj["lc_classes_examined"] == 64  # every labeled graph evaluated
    assert obj["best_bound"] == {"num": 3, "log2_den": 2}


def test_search_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\nB\n")
    assert main(["search", "--census", str(bad), "--t", "0"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_reproduce_table1_small(capsys):
    code, out = run(capsys, "reproduce-table1", "--max-n", "4", "--threads", "1")
    assert code == 0
    assert "3/4" in out
    assert "t=0" in out


def test_reproduce_table1_json(capsys):
    code, out = run(capsys, "reproduce-table1", "--max-n", "3", "--json")
    obj = json.loads(out)
    cells = {(c["t"], c["n"]): c for c in obj["cells"]}
    assert cells[(0, 3)]["value"] == {"num": 3, "log2_den": 2}
    assert obj["minimal_violating_n"]["0"] == {"n": 3, "exact": True}


def test_bad_graph_literal_is_reported(capsys):
    assert main(["lhv-bound", "--graph", "!!!", "--t", "0"]) == 2
    assert "error" in capsys.readouterr().err
