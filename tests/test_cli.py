import json
import math
import time
from fractions import Fraction

import pytest

from bellpoly import LinearGame, NLCSpec, build_nlc, build_nlcd, cli, value_report
from bellpoly.cut import CUT_ENUM_MAX_VERTICES, CutInequality, Graph
from bellpoly.scenario import Scenario, correlator_inequality
from tests.conftest import (
    make_chsh_game,
    make_nlc2_and,
    make_nlc3_game,
    make_phi_ex_game,
    make_unique3_rotation,
)

F = Fraction


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_game(tmp_path, game, name="game.json"):
    path = tmp_path / name
    path.write_text(cli.serialize_game(game))
    return str(path)


# ------------------------------------------------------------------ round trip

def test_game_round_trip_byte_identity():
    for g in (make_nlc3_game(), make_phi_ex_game(), make_nlc2_and(),
              make_unique3_rotation()):
        text = cli.serialize_game(g)
        assert cli.serialize_game(cli.parse_game_text(text)) == text
        assert text.endswith("\n")


def test_graph_round_trip_byte_identity():
    text = cli.serialize_graph(Graph(4, [(0, 1), (1, 2), (0, 3)]))
    assert cli.serialize_graph(cli.parse_graph_text(text)) == text


def test_inequality_round_trip_byte_identity():
    from bellpoly import to_bell_inequality, to_correlator_inequality
    g = make_chsh_game()
    for ineq in (to_bell_inequality(g), to_correlator_inequality(g)):
        text = cli.serialize_inequality(ineq)
        assert cli.serialize_inequality(cli.parse_inequality_text(text)) == text
    for ineq in (CutInequality.hypermetric((1, 1, -1)),
                 CutInequality(3, {(0, 1): F(1), (1, 2): F(-2)}, F(0)),
                 CutInequality(4, {(2, 0): F(3, 4), (1, 3): F(-2)}, F(1, 2))):
        text = cli.serialize_inequality(ineq)
        assert cli.parse_inequality_text(text) == ineq
        assert cli.serialize_inequality(cli.parse_inequality_text(text)) == text


def test_reports_are_canonical_json(tmp_path, capsys):
    path = write_game(tmp_path, make_nlc3_game())
    code, out, _ = run_cli(capsys, "analyze-game", path)
    assert code == 0
    parsed = json.loads(out)
    assert out == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- analyze-game

def test_analyze_nlc3(tmp_path, capsys):
    path = write_game(tmp_path, make_nlc3_game())
    code, out, _ = run_cli(capsys, "analyze-game", path)
    assert code == 0
    r = json.loads(out)["results"]
    assert r["classical_value"] == "2/3"
    assert r["no_signaling_value"] == "1"
    assert abs(r["quantum_upper_bound"]["value"] - 0.7182335127930838) < 1e-12
    assert r["soundness"] == "verified"


def test_analyze_phi_ex_sufficient(tmp_path, capsys):
    path = write_game(tmp_path, make_phi_ex_game())
    code, out, _ = run_cli(capsys, "analyze-game", path, "--sufficient")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["no_advantage"]["verdict"] == "Holds"
    assert r["no_advantage"]["strategy"] == {"a_map": [0, 2, 3, 1],
                                             "b_map": [0, 2, 1, 3]}


def test_analyze_phi_ex_sufficient_at_large_weights(tmp_path, capsys):
    # weights times 10^9: the soundness chain and the verdict read their
    # tolerance relative to the total weight
    g = make_phi_ex_game()
    big = LinearGame(g.d, g.ma, g.mb, [[v * 10 ** 9 for v in row] for row in g.q], g.f)
    code, out, err = run_cli(capsys, "analyze-game", write_game(tmp_path, big), "--sufficient")
    assert (code, err) == (0, "")
    r = json.loads(out)["results"]
    assert r["no_advantage"]["verdict"] == "Holds"
    assert r["no_advantage"]["strategy"] == {"a_map": [0, 2, 3, 1],
                                             "b_map": [0, 2, 1, 3]}


def test_analyze_unique3_reports_joint_norms(tmp_path, capsys):
    path = write_game(tmp_path, make_unique3_rotation())
    code, out, _ = run_cli(capsys, "analyze-game", path, "--bound")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["kind"] == "unique3"
    assert r["bound_certified"] is True
    assert len(r["joint_norms"]) == 2
    assert "bound_converged" not in r
    rep = value_report(make_unique3_rotation()).norm_bound
    for field, (lo, hi) in zip(r["joint_norms"], rep.norms):
        assert field["value"] == hi
        assert hi - lo <= field["precision"] <= 1e-9


def test_flag_filtering(tmp_path, capsys):
    path = write_game(tmp_path, make_nlc3_game())
    code, out, _ = run_cli(capsys, "analyze-game", path, "--classical")
    r = json.loads(out)["results"]
    assert "classical_value" in r
    assert "quantum_upper_bound" not in r


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "kind": "linear",\n  "d": oops\n}\n')
    code, out, err = run_cli(capsys, "analyze-game", str(bad))
    assert code == 2
    assert out == ""
    assert "line 3" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze-game", "/nonexistent/file.json")
    assert code == 2


def test_bad_weight_value_reports_line(tmp_path, capsys):
    path = write_game(tmp_path, make_nlc3_game())
    text = open(path).read().replace('"1/9"', '"1/banana"', 1)
    bad = tmp_path / "badweight.json"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "analyze-game", str(bad))
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("text", [
    '{"kind": "linear", "d": 2, "mA": 1, "mB": 1, "q": [[Infinity]], "f": [[0]]}',
    '{"kind": "linear", "d": 2, "mA": 1, "mB": 1, "q": [[NaN]], "f": [[0]]}',
    '{"kind": "linear", "d": 2, "mA": 1, "mB": 1, "q": [[1]], "f": [[0]], "n": "x"}',
])
def test_malformed_linear_game_is_exit_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "analyze-game", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("bellpoly: parse error") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"kind": "linear", "d": 3, "mA": 1, "mB": 1, "n": 100000000, "q": [[1]], "f": [[0]]}',
    '{"kind": "nlc", "d": 3, "nlc": {"n": 100000000, "g": [0], "p": [1]}}',
])
def test_huge_dit_counts_are_exit_2_at_once(tmp_path, capsys, text):
    # refused before d^n, a number of 10^8 bits, is computed
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze-game", str(bad))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("bellpoly: parse error") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"kind": "nlc", "d": 2, "nlc": {"n": 1, "g": 5, "p": [1]}}',
    '{"kind": "nlc", "d": 2, "nlc": {"n": 1, "g": [0, 1], "p": null}}',
])
def test_nlc_tables_that_are_not_lists_are_exit_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "analyze-game", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("bellpoly: parse error") and "must be lists" in err


@pytest.mark.parametrize("text", [
    '{"space": "probability", "bound": 0, "coeffs": [[[[0], []]]]}',
    '{"space": "probability", "bound": 0, "coeffs": [[[[0, 1], [1, 0]]], []]}',
    '{"space": "correlator", "bound": 2, "coeffs": [[1], [1, 5]]}',
])
def test_ragged_coefficient_tables_are_exit_2(tmp_path, capsys, text):
    bad = tmp_path / "ragged.json"
    bad.write_text(text)
    kind = "bell" if "probability" in text else "correlation"
    code, out, err = run_cli(capsys, "facet-test", str(bad), "--polytope", kind)
    assert (code, out) == (2, "")
    assert err.startswith("bellpoly: parse error") and "coeffs must be nested" in err


@pytest.mark.parametrize("text, message", [
    ('{"space": "probability",\n "bound": 0,\n "coeffs": [[[[]]]]}',
     "probability coeffs must be nested [x][y][a][b]"),
    ('{"space": "correlator",\n "bound": 0,\n "coeffs": [[]]}',
     "correlator coeffs must be nested [x][y]"),
])
def test_empty_coefficient_levels_are_parse_errors(tmp_path, capsys, text, message):
    # an empty level makes no scenario; the file, not the library, is at fault
    bad = tmp_path / "empty.json"
    bad.write_text(text)
    kind = "bell" if "probability" in text else "correlation"
    assert run_cli(capsys, "facet-test", str(bad), "--polytope", kind) == \
        (2, "", f"bellpoly: parse error: line 3: {message}\n")


@pytest.mark.parametrize("argv, text, message", [
    (["analyze-game", "FILE"], '[{"kind": "linear"}]', "top level must be an object"),
    (["analyze-game", "FILE"],
     '{"kind": "linear", "d": 2, "mA": 1, "mB": 1, "q": [["1"]], "f": [[2]]}',
     "f entry 2 outside Z_2"),
    (["analyze-game", "FILE"],
     '{"kind": "unique3", "mA": 1, "mB": 1, "q": [["1"]], "perms": [["swap"]]}',
     "unknown permutation 'swap'"),
    (["analyze-game", "FILE"], '{"kind": "nlc", "d": 2, "nlc": [1, [0, 1], ["1"]]}',
     '"nlc" must be an object'),
    (["cut", "cuts", "--graph", "FILE"], "three\n0 1\n", "first line must be the vertex count"),
    (["cut", "cuts", "--graph", "FILE"], "3\n0 1 2\n", "line 2: edge lines read 'i j'"),
    (["cut", "facet", "--ineq", "FILE"],
     '{"space": "cut", "n": 3, "bound": "0", "coeffs": [[0, 1]]}', "[i, j, value] triples"),
    (["chsh", "0", "0", "0", "0"], None, "weights cannot all be zero"),
    (["cut", "hypermetric", "--b", "1,x"], None, "comma-separated integers"),
    # the graph files that hypermetric and facet read in place of K_n
    (["cut", "hypermetric", "--b=1,1,-1", "--graph", "FILE"], "three\n0 1\n",
     "first line must be the vertex count"),
    (["cut", "facet", "--b", "1,x"], None, "comma-separated integers"),
    (["cut", "facet", "--b=1,1,-1", "--graph", "FILE"], "3\n0 1 2\n",
     "line 2: edge lines read 'i j'"),
    (["cut", "facet", "--ineq", "FILE"],
     '{"space": "correlator", "bound": "2", "coeffs": [["1", "1"], ["1", "-1"]]}',
     "cut facet tests need a cut-space inequality"),
    (["chsh", "nan", "1", "1", "1"], None, "line 1: P1: bad rational 'nan'"),
    (["chsh", "1", "1", "1/0", "1"], None, "line 1: P3: bad rational '1/0'"),
    (["cut", "suspend", "--graph", "FILE"], "-1\n", "line 1: vertex count -1 is negative"),
    (["cut", "cuts", "--graph", "FILE"], "-1\n", "line 1: vertex count -1 is negative"),
    (["cut", "facet", "--ineq", "FILE"], '{"space": "cut", "bound": "0",\n "n": -2, "coeffs": []}',
     "line 2: vertex count -2 is negative"),
    # the value 2 first appears on line 3, as d; the error names f's line
    (["analyze-game", "FILE"],
     '{\n "kind": "linear",\n "d": 2,\n "mA": 1,\n "mB": 1,\n "q": [["1"]],\n "f": [[2]]\n}',
     "line 7: f entry 2 outside Z_2"),
])
def test_malformed_input_is_a_parse_error(tmp_path, capsys, argv, text, message):
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("bellpoly: parse error") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, options", [
    (["cut", "hypermetric"], ["--b"]),
    (["cut", "facet"], ["--b", "--ineq"]),
    (["cut", "ce1"], ["--n"]),
    (["cut", "suspend"], ["--graph"]),
    (["cut", "ce1", "--n", "3", "--graph", "F"], ["--graph"]),
    (["cut", "pentagonal", "--graph", "F"], ["--graph"]),
    (["cut", "facet", "--b=1,1,-1", "--ineq", "F"], ["--b", "--ineq"]),
], ids=["hypermetric-needs-b", "facet-needs-b-or-ineq", "ce1-needs-n", "suspend-needs-graph",
        "ce1-stray-graph", "pentagonal-stray-graph", "facet-b-and-ineq"])
def test_cut_option_errors_exit_2_in_the_parser(capsys, argv, options):
    # each cut operation declares only the options it reads: a missing or a
    # stray one is refused by argparse, before any file is opened
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert all(option in err for option in options) and "Traceback" not in err


def test_budget_exit_code(tmp_path, capsys):
    path = write_game(tmp_path, make_phi_ex_game())
    code, _, err = run_cli(capsys, "analyze-game", path, "--budget", "10")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("m", [2, 18])
def test_workers_below_one_are_exit_2(tmp_path, capsys, workers, m):
    # the scan is serial and takes no worker count: --workers is an unknown
    # option, refused before any scan of a one-chunk or a many-chunk game
    game = LinearGame(2, m, m, ((F(1, m * m),) * m,) * m, ((0,) * m,) * m)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["analyze-game", write_game(tmp_path, game), f"--workers={workers}"])
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert f"unrecognized arguments: --workers={workers}" in err


def test_negative_budgets_are_exit_2(tmp_path, capsys):
    path = write_game(tmp_path, make_chsh_game())
    for command in (["analyze-game", path], ["facet-test", path, "--polytope", "bell"]):
        code, out, err = run_cli(capsys, *command, "--budget", "-1")
        assert (code, out) == (2, "")
        assert "--budget must be at least 0, got -1" in err
    assert run_cli(capsys, "facet-test", path, "--polytope", "bell", "--budget", "0")[0] == 3


def test_determinism_across_runs(tmp_path, capsys):
    path = write_game(tmp_path, make_phi_ex_game())
    _, out1, _ = run_cli(capsys, "analyze-game", path)
    _, out2, _ = run_cli(capsys, "analyze-game", path)
    assert out1 == out2


def test_timing_only_when_requested(tmp_path, capsys):
    path = write_game(tmp_path, make_nlc3_game())
    _, out, _ = run_cli(capsys, "analyze-game", path)
    assert "timing_seconds" not in json.loads(out)
    _, out2, _ = run_cli(capsys, "analyze-game", path, "--timing")
    assert "timing_seconds" in json.loads(out2)


def test_verification_failure_exits_4(tmp_path, capsys, monkeypatch):
    # force the quantum bound below the classical value: the soundness
    # cross-check must fail loudly
    import bellpoly.values as V
    monkeypatch.setattr(V, "_linear_bound", lambda g, norms: 0.1)
    path = write_game(tmp_path, make_nlc3_game())
    code, out, err = run_cli(capsys, "analyze-game", str(path))
    assert code == 4
    assert "verification" in err


def test_a_scan_that_disagrees_with_its_witness_exits_4(tmp_path, capsys, monkeypatch):
    import bellpoly.values as V
    real = V.scaled_functionals
    monkeypatch.setattr(V, "scaled_functionals", lambda g: (lambda C, den: (2 * C, den))(*real(g)))
    path = write_game(tmp_path, make_nlc3_game())
    code, out, err = run_cli(capsys, "analyze-game", path, "--classical")
    assert (code, out) == (4, "")
    assert "integer-scaled search disagrees with exact re-evaluation" in err


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # an allocation the machine cannot serve is a budget exit, not a traceback
    import bellpoly.values as V
    path = write_game(tmp_path, make_nlc3_game())
    refusal = "Unable to allocate 298. GiB"
    for error, reason in ((MemoryError(refusal), refusal), (MemoryError(), "out of memory")):
        def refuse(g, error=error):
            raise error
        monkeypatch.setattr(V, "scaled_functionals", refuse)
        assert run_cli(capsys, "analyze-game", path, "--classical") == \
            (3, "", f"bellpoly: budget exceeded: {reason}\n")


# ------------------------------------------------------------------ facet-test

def test_facet_test_nlc2_and_bell(tmp_path, capsys):
    path = write_game(tmp_path, make_nlc2_and())
    code, out, _ = run_cli(capsys, "facet-test", path, "--polytope", "bell")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["is_facet"] is False
    assert r["ambient_dim"] == 24
    assert r["decomposition"]["fragment_bounds"] == ["3/8", "3/8"]


def test_facet_test_splits_a_binary_game_by_its_bits_not_its_file_kind(tmp_path, capsys):
    # the AND game as an nlc file and as a linear file with "n": 2
    from bellpoly.records import replace
    game = make_nlc2_and()
    linear = replace(game, nlc=None)
    assert '"kind": "linear"' in cli.serialize_game(linear)
    reports = []
    for g, name in ((game, "nlc.json"), (linear, "linear.json")):
        code, out, _ = run_cli(capsys, "facet-test", write_game(tmp_path, g, name),
                               "--polytope", "bell")
        assert code == 0
        reports.append(json.loads(out)["results"])
    assert reports[0] == reports[1]
    assert (reports[1]["saturating_count"], reports[1]["saturating_affine_dim"]) == (8, 7)
    assert reports[1]["decomposition"] == {"fragments": 2, "fragment_bounds": ["3/8", "3/8"]}


@pytest.mark.parametrize("d, n, table, bound", [
    (5, 2, (0, 0, 0, 1, 2), "17/25"),
    (3, 3, (0, 0, 0, 1, 0, 0, 0, 0, 2), "23/27")])
def test_facet_test_product_form_from_fragments(tmp_path, capsys, d, n, table, bound):
    # decided by the d^(n-1) fragments; the whole game's d^(d^n) maps are never scanned
    game = build_nlcd(NLCSpec(d, n, table, (F(1, len(table)),) * len(table)))
    code, out, _ = run_cli(capsys, "facet-test", write_game(tmp_path, game), "--polytope", "bell")
    assert code == 0
    r = json.loads(out)["results"]
    assert (r["decomposition"]["fragments"], r["bound"], r["is_facet"]) == \
        (d ** (n - 1), bound, False)


@pytest.mark.parametrize("spec, maps", [
    (NLCSpec(2, 3, (0,) * 7 + (1,), (F(1, 8),) * 8), 2 ** 8),  # the whole game's maps
    (NLCSpec(3, 2, (0, 0, 1), (F(1, 3),) * 3), 3 ** 3)])  # one fragment's maps
def test_facet_test_budget_bounds_every_scan(tmp_path, capsys, spec, maps):
    path = write_game(tmp_path, build_nlc(spec))
    code, out, err = run_cli(capsys, "facet-test", path, "--polytope", "bell",
                             "--budget", str(maps - 1))
    assert (code, out) == (3, "")
    assert f"{maps} response maps exceed the strategy budget of {maps - 1}" in err
    code, out, _ = run_cli(capsys, "facet-test", path, "--polytope", "bell", "--budget", str(maps))
    assert code == 0
    assert json.loads(out)["results"]["is_facet"] is False


def test_facet_test_chsh_correlation(tmp_path, capsys):
    path = write_game(tmp_path, make_chsh_game())
    code, out, _ = run_cli(capsys, "facet-test", path, "--polytope", "correlation")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["is_facet"] is True
    assert r["ambient_dim"] == 4
    assert r["saturating_affine_dim"] == 3


def test_facet_test_inequality_file(tmp_path, capsys):
    from bellpoly import to_bell_inequality
    ineq = to_bell_inequality(make_chsh_game())
    path = tmp_path / "ineq.json"
    path.write_text(cli.serialize_inequality(ineq))
    code, out, _ = run_cli(capsys, "facet-test", str(path), "--polytope", "bell")
    assert code == 0
    assert json.loads(out)["results"]["is_facet"] is True


def test_facet_test_rejects_invalid_inequality_file(tmp_path, capsys):
    ineq = correlator_inequality(Scenario(2, 2, 2, 2), ((1, 1), (1, -1)), -2)
    path = tmp_path / "chsh_minus2.json"
    path.write_text(cli.serialize_inequality(ineq))
    code, out, err = run_cli(capsys, "facet-test", str(path), "--polytope", "correlation")
    assert code == 2
    assert out == ""
    assert "violated by the deterministic box" in err
    assert "Traceback" not in err


def test_facet_test_rejects_cut_space_file(tmp_path, capsys):
    ineq = CutInequality(3, {(0, 1): F(1)}, F(1))
    path = tmp_path / "cut.json"
    path.write_text(cli.serialize_inequality(ineq))
    code, _, err = run_cli(capsys, "facet-test", str(path), "--polytope", "bell")
    assert code == 2
    assert "cut-space inequalities go through the cut subcommand" in err


# ------------------------------------------------------------------------ chsh

def test_chsh_uniform_weights(capsys):
    code, out, _ = run_cli(capsys, "chsh", "1/4", "1/4", "1/4", "1/4")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["verdict"] == "QuantumViolation"
    assert r["certificate"]["verdict"] == "indefinite"
    assert abs(r["qubit_estimate"]["value"] - 0.8535533905932737) < 1e-4


def test_chsh_weighted(capsys):
    code, out, _ = run_cli(capsys, "chsh", "9/20", "5/20", "5/20", "1/20")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["verdict"] == "NontrivialFace"
    assert r["certificate"]["verdict"] == "no-advantage"
    assert r["classical_game_value"] == "19/20"


def test_chsh_signed_coefficients(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--", "-1/4", "-1/4", "-1/4", "1/4")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["verdict"] == "QuantumViolation"
    assert r["canonical"]["p"] == ["1/4", "1/4", "1/4", "1/4"]


def test_chsh_trivial_even_class(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--", "1/4", "-1/4", "-1/4", "1/4")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["verdict"] == "Trivial"
    assert r["certificate"] is None
    assert r["qubit_estimate"]["value"] == 1.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_chsh_singular_scaling_prints_strict_json(capsys):
    # the certificate's spectral radius is infinite here; strict JSON has no
    # Infinity, so the value is null
    code, out, _ = run_cli(capsys, "chsh", "1", "1", "1", "1")
    assert code == 0
    r = json.loads(out, parse_constant=_reject_constant)["results"]
    assert r["certificate"] == {"rho": {"precision": 1e-10, "value": None},
                                "verdict": "indefinite"}


def test_analyze_game_with_131_outputs(tmp_path, capsys):
    from bellpoly import LinearGame
    game = LinearGame(131, 2, 2, ((F(1, 4),) * 2,) * 2, ((0, 1), (2, 3)))
    code, out, err = run_cli(capsys, "analyze-game", write_game(tmp_path, game))
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=_reject_constant)["results"]["classical_value"] == "1"


def test_analyze_game_with_weights_past_int64(tmp_path, capsys):
    # every weight 2^60: the scaled sums pass int64
    from bellpoly import LinearGame
    from tests.classical_reference import by_alice_maps
    f = tuple(tuple((x * y + x + 3 * y) % 3 % 2 for y in range(8)) for x in range(8))
    game = LinearGame(2, 8, 8, ((F(2 ** 60),) * 8,) * 8, f)
    code, out, err = run_cli(capsys, "analyze-game", write_game(tmp_path, game))
    assert (code, err) == (0, "")
    value, a_map, b_map = by_alice_maps(game)
    r = json.loads(out, parse_constant=_reject_constant)["results"]
    assert r["classical_value"] == str(value)
    assert r["witness"] == {"a_map": list(a_map), "b_map": list(b_map)}


@pytest.mark.parametrize("m, weight", [(2, "1e308"), (1, "1e400")])
def test_total_weight_beyond_the_float_range_is_exit_2(tmp_path, capsys, m, weight):
    # every weight of the 2 x 2 game is a float, their total is not; the
    # 1 x 1 game's one weight is not
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "linear", "d": 2, "mA": m, "mB": m,
                                "q": [[weight] * m] * m, "f": [[0] * m] * m}))
    code, out, err = run_cli(capsys, "analyze-game", str(path))
    assert (code, out) == (2, "")
    assert err == ("bellpoly: invalid input: total weight beyond the float range "
                   "(max 1.7976931348623157e+308)\n")
    path.write_text(path.read_text().replace(weight, "1e307"))
    code, out, err = run_cli(capsys, "analyze-game", str(path))
    assert (code, err) == (0, "")
    r = json.loads(out, parse_constant=_reject_constant)["results"]
    assert r["total_weight"] == str(m * m * 10 ** 307) and r["soundness"] == "verified"


def test_facet_test_nlc_computes_the_classical_value_once(tmp_path, capsys, monkeypatch):
    # one scan of the whole game gives both the bound and the face, on
    # either polytope and in nlc2_decompose
    from bellpoly import tightness, values
    game = make_nlc2_and()
    calls = []
    for module in (values, tightness):
        real = module._scan
        monkeypatch.setattr(module, "_scan", lambda C, *a, real=real, **k:
                            calls.append(C.shape[:2]) or real(C, *a, **k))
    path = write_game(tmp_path, game)
    for polytope, bound in (("bell", "3/4"), ("correlation", "1/4")):
        calls.clear()
        code, out, _ = run_cli(capsys, "facet-test", path, "--polytope", polytope)
        assert code == 0
        assert json.loads(out)["results"]["bound"] == bound
        assert calls.count((game.ma, game.mb)) == 1
    calls.clear()
    assert [fr.bound for fr in tightness.nlc2_decompose(game).decomposition] == [F(3, 8)] * 2
    assert calls.count((game.ma, game.mb)) == 1


def test_analyze_game_unique3_runs_the_ascent_once(tmp_path, capsys, monkeypatch):
    from bellpoly import values
    calls = []
    real = values.gen_norm_detailed
    monkeypatch.setattr(values, "gen_norm_detailed",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    code, out, _ = run_cli(capsys, "analyze-game", write_game(tmp_path, make_unique3_rotation()))
    assert code == 0
    assert len(calls) == 1  # one joint norm for the conjugate coset pairs k = 1, 2
    r = json.loads(out)["results"]
    assert r["bound_certified"] is True and len(r["joint_norms"]) == 2
    assert r["joint_norms"][0] == r["joint_norms"][1]
    assert "bound_converged" not in r


def test_chsh_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "chsh", "a", "b", "c", "d")
    assert code == 2


# ------------------------------------------------------------------------- cut

def test_cut_suspend(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "cut", "suspend", "--graph", str(graph))
    assert code == 0
    r = json.loads(out)["results"]
    assert r["suspension"]["n"] == 4
    assert len(r["suspension"]["edges"]) == 5


def test_cut_cuts_count(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "cut", "cuts", "--graph", str(graph))
    assert code == 0
    assert json.loads(out)["results"]["count"] == 8


def test_cut_ce1_n4(capsys):
    code, out, _ = run_cli(capsys, "cut", "ce1", "--n", "4")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 16


def test_cut_ce1_beyond_the_vertex_limit_is_exit_3(capsys):
    # n observables need the suspension K_{n+1}: n = 19 fits the 20-vertex
    # limit, n = 20 and beyond are refused before any inequality is built
    code, out, _ = run_cli(capsys, "cut", "ce1", "--n", "19")
    assert code == 0 and json.loads(out)["results"]["count"] == 4 * math.comb(19, 3)
    for n in ("20", "100", "1000000"):
        code, out, err = run_cli(capsys, "cut", "ce1", "--n", n)
        assert (code, out) == (3, "")
        assert f"{n} observables need the suspension K_{int(n) + 1}" in err
        assert "cut enumeration limit of 20 vertices" in err


ONE_AND_ZEROS, ONES = ",".join(["1"] + ["0"] * 2999), ",".join(["1"] * 3000)
TOO_MANY_VERTICES = "3000 vertices exceed the cut enumeration limit of 20"


@pytest.mark.parametrize("sub, b, code, message", [
    ("facet", ONE_AND_ZEROS, 3, f"budget exceeded: {TOO_MANY_VERTICES}"),
    ("facet", ONES, 3, f"budget exceeded: {TOO_MANY_VERTICES}"),
    ("hypermetric", ONE_AND_ZEROS, 3, f"budget exceeded: {TOO_MANY_VERTICES}"),
    ("hypermetric", ONES, 2, "invalid input: coefficient sum is 3000, hypermetric form needs 1"),
], ids=["facet-sum-1", "facet-sum-3000", "hypermetric-sum-1", "hypermetric-sum-3000"])
def test_an_oversized_b_fails_before_k_n_is_built(monkeypatch, capsys, sub, b, code, message):
    # 3000 vertices make about 4.5 million edges; the limit and sum checks
    # come first, with the messages they gave after building them
    sizes = []

    def spy(real):
        def call(arg, *rest):
            sizes.append(arg if isinstance(arg, int) else len(arg))
            return real(arg, *rest)
        return staticmethod(call)
    monkeypatch.setattr(Graph, "complete", spy(Graph.complete))
    monkeypatch.setattr(CutInequality, "hypermetric", spy(CutInequality.hypermetric))
    assert run_cli(capsys, "cut", sub, f"--b={b}") == (code, "", f"bellpoly: {message}\n")
    assert all(n <= CUT_ENUM_MAX_VERTICES for n in sizes)


@pytest.mark.parametrize("n", [40, 63, 64])
def test_a_graph_file_past_the_vertex_limit_is_exit_3(tmp_path, capsys, n):
    # the limit comes before the 2^(n-1) cut masks of the file's graph are
    # made: about 4 TiB of them at n = 40, and from n = 63 on 1 << n does not
    # fit an int64
    graph = tmp_path / "path.txt"
    graph.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    ineq = tmp_path / "ineq.json"
    ineq.write_text('{"space": "cut", "n": %d, "bound": "1", "coeffs": [[0, 1, "1"]]}' % n)
    b = ",".join(["1"] + ["0"] * (n - 1))
    for args in (["facet", "--ineq", str(ineq)], ["facet", f"--b={b}"],
                 ["hypermetric", f"--b={b}"]):
        code, out, err = run_cli(capsys, "cut", *args, "--graph", str(graph))
        assert (code, out) == (3, "")
        assert err == (f"bellpoly: budget exceeded: {n} vertices exceed "
                       "the cut enumeration limit of 20\n")


@pytest.mark.parametrize("graph_text, b, message", [
    ("3\n0 1\n1 2\n", ONE_AND_ZEROS, "inequality and graph vertex counts differ"),
], ids=["vertex-count"])
def test_cut_facet_refuses_the_graph_before_building_the_inequality(
        tmp_path, monkeypatch, capsys, graph_text, b, message):
    # a 3000-entry --b would weigh each of the graph's edges: the graph is
    # checked against len(b) before CutInequality.hypermetric builds that form
    graph = tmp_path / "g.txt"
    graph.write_text(graph_text)
    built = []
    monkeypatch.setattr(CutInequality, "hypermetric",
                        staticmethod(lambda *args: built.append(args)))
    code, out, err = run_cli(capsys, "cut", "facet", "--graph", str(graph), f"--b={b}")
    assert (code, out, built) == (2, "", [])
    assert message in err and "Traceback" not in err


def test_cut_ce1_negative_n_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "cut", "ce1", "--n", "-2")
    assert (code, out) == (2, "")
    assert "--n must be at least 0, got -2" in err
    code, out, _ = run_cli(capsys, "cut", "ce1", "--n", "0")
    assert code == 0 and json.loads(out)["results"]["count"] == 0


def test_cut_hypermetric(tmp_path, capsys):
    graph = tmp_path / "k5.txt"
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    graph.write_text("5\n" + "".join(f"{i} {j}\n" for i, j in edges))
    code, out, _ = run_cli(capsys, "cut", "hypermetric", "--graph", str(graph),
                           "--b", "1,1,1,-1,-1")
    assert code == 0
    assert json.loads(out)["results"]["valid"] is True


def test_cut_hypermetric_decides_on_the_graph_file(tmp_path, capsys):
    # on the path 0-1-2-3-4 the cut {1} scores b0 b1 + b1 b2 = 2 > 0
    graph = tmp_path / "path5.txt"
    graph.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run_cli(capsys, "cut", "hypermetric", "--graph", str(graph),
                           "--b=1,1,1,-1,-1")
    assert code == 0
    assert json.loads(out)["results"]["valid"] is False
    # cut facet judges that same form on the graph, and names the first cut
    # of largest value, {1, 4}
    code, out, err = run_cli(capsys, "cut", "facet", "--graph", str(graph), "--b=1,1,1,-1,-1")
    assert (code, out) == (2, "")
    assert err == "bellpoly: invalid input: inequality is violated at the cut with subset [1, 4]\n"
    code, out, err = run_cli(capsys, "cut", "hypermetric", "--graph", str(graph), "--b=1,1,-1")
    assert (code, out) == (2, "") and "one coefficient per vertex" in err


def test_cut_facet_pentagonal(tmp_path, capsys):
    graph = tmp_path / "k5.txt"
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    graph.write_text("5\n" + "".join(f"{i} {j}\n" for i, j in edges))
    code, out, _ = run_cli(capsys, "cut", "facet", "--graph", str(graph),
                           "--b", "1,1,1,-1,-1")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["is_facet"] is True
    assert (r["saturating_affine_dim"], r["ambient_dim"]) == (9, 10)


@pytest.mark.parametrize("coeffs", ['[[0, 1, "1"], [1, 0, "-1"]]',
                                    '[[0, 1, "1"], [0, 1, "-1"]]'])
def test_cut_facet_rejects_an_edge_listed_twice(tmp_path, capsys, coeffs):
    path = tmp_path / "dup.json"
    path.write_text('{"space": "cut", "n": 3, "bound": "0",\n "coeffs": ' + coeffs + "}\n")
    code, out, err = run_cli(capsys, "cut", "facet", "--ineq", str(path))
    assert (code, out) == (2, "")
    assert "line 2: edge (0, 1) is listed twice" in err


@pytest.mark.parametrize("coeffs, message", [
    ('[[0, 1, "1"], [0, 7, "-1"]]', "edge (0, 7) references a missing vertex"),
    ('[[2, 2, "1"]]', "self-loop at vertex 2"),
], ids=["past-n", "self-pair"])
def test_cut_facet_refuses_an_edge_off_the_vertices(tmp_path, capsys, coeffs, message):
    path = tmp_path / "off.json"
    path.write_text('{"space": "cut", "n": 3, "bound": "0",\n "coeffs": ' + coeffs + "}\n")
    code, out, err = run_cli(capsys, "cut", "facet", "--ineq", str(path))
    assert (code, out) == (2, "")
    assert err == f"bellpoly: parse error: line 2: {message}\n"


@pytest.mark.parametrize("graph_text, ineq_text, expected", [
    ("5\n0 1\n1 2\n2 3\n0 3\n0 4\n1 4\n2 4\n3 4\n",
     '[[0, 1, "1"], [1, 2, "-1"], [2, 3, "-1"], [0, 3, "-1"]]', [8, 7, True]),
    ("5\n0 1\n1 2\n2 3\n0 3\n0 2\n0 4\n1 4\n2 4\n3 4\n",
     '[[0, 1, "1"], [1, 2, "-1"], [2, 3, "-1"], [0, 3, "-1"]]', [8, 7, False]),
], ids=["nabla-C4", "nabla-C4-chord"])
def test_cut_facet_of_a_cut_space_file_on_a_graph_file(tmp_path, capsys, graph_text,
                                                       ineq_text, expected):
    graph, ineq = tmp_path / "g.txt", tmp_path / "cycle.json"
    graph.write_text(graph_text)
    ineq.write_text('{"space": "cut", "n": 5, "bound": "0", "coeffs": ' + ineq_text + "}\n")
    code, out, _ = run_cli(capsys, "cut", "facet", "--ineq", str(ineq), "--graph", str(graph))
    r = json.loads(out)["results"]
    assert code == 0
    assert [r["saturating_count"], r["saturating_affine_dim"], r["is_facet"]] == expected


@pytest.mark.parametrize("coeffs", ['[[true, 2, "-1"], [0.0, 1, "-1"]]',
                                    '[[0, 2, "-1"], [0.0, 1, "-1"]]',
                                    '[[0, "1", "-1"]]'])
def test_cut_facet_rejects_an_endpoint_that_is_no_integer(tmp_path, capsys, coeffs):
    # true and 0.0 compare equal to 1 and 0, yet are no vertex numbers
    path = tmp_path / "endpoints.json"
    path.write_text('{"space": "cut", "n": 3, "bound": "0",\n "coeffs": ' + coeffs + "}\n")
    code, out, err = run_cli(capsys, "cut", "facet", "--ineq", str(path))
    assert (code, out) == (2, "")
    assert "edge endpoint must be an integer" in err


def test_cut_pentagonal_report(capsys):
    code, out, _ = run_cli(capsys, "cut", "pentagonal")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["valid_on_k5"] is True
    assert r["deterministic_max"] == "2"
    assert r["facet"]["is_facet"] is True


def test_cut_ce_gap(capsys):
    code, out, _ = run_cli(capsys, "cut", "ce-gap")
    assert code == 0
    checks = json.loads(out)["results"]["checks"]
    assert checks["pentagonal_value"] == "10/3"
    assert checks["ce1_max"] == "1"
    assert checks["positivity_min"] == "0"


def test_graph_parse_error_line_numbers(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n0 1\n1 two\n")
    code, _, err = run_cli(capsys, "cut", "cuts", "--graph", str(graph))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("text, message", [
    ("3\n0 1\n0 5\n", "line 3: edge (0, 5) references a missing vertex"),
    ("3\n1 1\n", "line 2: self-loop at vertex 1"),
    ("3\n0 1\n\n2 2\n0 7\n", "line 4: self-loop at vertex 2"),
    ("-2\n0 1\n", "line 1: vertex count -2 is negative"),
])
def test_graph_errors_name_the_edge_line(tmp_path, capsys, text, message):
    # an edge the graph refuses is reported at its own line; a vertex-count
    # error stays at line 1
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    code, out, err = run_cli(capsys, "cut", "cuts", "--graph", str(graph))
    assert (code, out) == (2, "")
    assert err == f"bellpoly: parse error: {message}\n"


@pytest.mark.parametrize("option", ["--graph", "--graph=g.txt", "--timing"])
def test_cut_option_before_the_operation_names_the_order(capsys, option):
    # argparse alone would read the option's value as the operation name
    with pytest.raises(SystemExit) as exit_:
        cli.main(["cut", option, "g.txt", "suspend"])
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert f"option {option} comes before the operation" in err
    assert "bellpoly cut OPERATION [options]" in err and "invalid choice" not in err
