"""Fuzz the input boundary: the game, inequality and graph parsers and the
command line, on small inputs near and off the file formats. A parser
returns its object or raises ValueError (ParseError is one; the command
line reports both with exit 2); a bellpoly run ends with exit
0, 2 or 3 (never 4, the soundness alarm, and never a traceback), and on
exit 0 prints strict JSON. Weights reach 2^64, past int64 sums; NLC
tables reach n = 4."""
import contextlib
import io
import json
import string
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bellpoly import cli

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BIG = 2 ** 64
junk = st.sampled_from(["", "x", "1/0", "-1/2", "0.5", None, True, [], {}, [1], {"a": 1}])
rationals = st.one_of(
    st.integers(0, BIG),
    st.integers(-2, 3),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(0, BIG), st.integers(-1, BIG)),
    st.floats(allow_nan=True, allow_infinity=True),
    junk)
small_ints = st.one_of(st.integers(-1, 4), junk)


def tables(values, rows, cols):
    """rows x cols lists, or ragged ones one entry off."""
    return st.one_of(
        st.lists(st.lists(values, min_size=cols, max_size=cols), min_size=rows, max_size=rows),
        st.lists(st.lists(values, max_size=cols + 1), max_size=rows + 1),
        junk)


@st.composite
def game_docs(draw):
    kind = draw(st.sampled_from(["linear", "unique3", "nlc", "nlc", "other"]))
    ma, mb = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    doc = {"kind": kind, "d": draw(st.one_of(st.integers(-1, 4), junk)), "mA": ma, "mB": mb,
           "q": draw(tables(rationals, ma, mb))}
    if kind == "linear":
        doc["f"] = draw(tables(small_ints, ma, mb))
        if draw(st.booleans()):
            doc["n"] = draw(small_ints)
    elif kind == "unique3":
        doc["perms"] = draw(tables(st.sampled_from(["e", "(01)", "(02)", "(12)", "(012)",
                                                    "(021)", "(0)", 7]), ma, mb))
    elif kind == "nlc":
        d, n = draw(st.sampled_from([2, 2, 3, 4])), draw(st.integers(0, 4))
        size = draw(st.sampled_from([2 ** n, d ** max(n - 1, 0), 3]))
        doc["d"] = d
        doc["nlc"] = {"n": n,
                      "g": draw(st.one_of(st.lists(small_ints, min_size=size, max_size=size),
                                          junk)),
                      "p": draw(st.one_of(st.lists(rationals, min_size=size, max_size=size),
                                          junk))}
    return _drop_keys(draw, doc)


@st.composite
def inequality_docs(draw):
    space = draw(st.sampled_from(["probability", "correlator", "cut", "other"]))
    doc = {"space": space, "bound": draw(rationals)}
    ma, mb = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if space == "probability":
        doc["coeffs"] = draw(tables(tables(rationals, 2, 2), ma, mb))
    elif space == "correlator":
        doc["coeffs"] = draw(tables(rationals, ma, mb))
    else:
        doc["n"] = draw(small_ints)
        doc["coeffs"] = draw(st.one_of(
            st.lists(st.tuples(small_ints, small_ints, rationals).map(list), max_size=6),
            junk))
    return _drop_keys(draw, doc)


def _drop_keys(draw, doc):
    drop = draw(st.sets(st.sampled_from(sorted(doc))))
    return {k: v for k, v in doc.items() if k not in drop or draw(st.booleans())}


graph_texts = st.one_of(
    st.builds(lambda n, edges: "\n".join([str(n)] + [f"{i} {j}" for i, j in edges]),
              st.integers(-1, 6), st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
                                           max_size=8)),
    st.text(string.printable, max_size=30))


def as_text(doc, garble):
    text = json.dumps(doc)
    return text[:garble] if garble is not None and garble < len(text) else text


garbles = st.one_of(st.none(), st.none(), st.integers(0, 200))


def parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


def run(argv, text, name):
    """cli.main with text written to the file named PATH in argv, held to
    the exit-code and strict-JSON contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        argv = [str(path) if a == "PATH" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


NLC_NOT_LISTS = [{"kind": "nlc", "d": 2, "nlc": {"n": 1, "g": 5, "p": [1]}},
                 {"kind": "nlc", "d": 2, "nlc": {"n": 1, "g": [0, 1], "p": None}}]
EMPTY_SIDES = [{"kind": "linear", "d": 2, "mA": 1, "mB": 0, "q": [[]], "f": [[]]},
               {"kind": "linear", "d": 2, "mA": 0, "mB": 0, "q": [], "f": []}]


@SETTINGS
@example(NLC_NOT_LISTS[0], None)
@example(NLC_NOT_LISTS[1], None)
@given(game_docs(), garbles)
def test_parse_game_text(doc, garble):
    parses_or_value_error(cli.parse_game_text, as_text(doc, garble))


@SETTINGS
@given(inequality_docs(), garbles)
def test_parse_inequality_text(doc, garble):
    parses_or_value_error(cli.parse_inequality_text, as_text(doc, garble))


@SETTINGS
@given(graph_texts)
def test_parse_graph_text(text):
    parses_or_value_error(cli.parse_graph_text, text)


@SETTINGS
@example(NLC_NOT_LISTS[0], None, ["facet-test", "PATH", "--polytope", "bell"])
@example(NLC_NOT_LISTS[1], None, ["analyze-game", "PATH"])
@example(EMPTY_SIDES[0], None, ["analyze-game", "PATH", "--classical", "--sufficient"])
@example(EMPTY_SIDES[1], None, ["analyze-game", "PATH", "--classical", "--sufficient"])
@given(game_docs(), garbles, st.sampled_from([
    ["analyze-game", "PATH"], ["analyze-game", "PATH", "--classical", "--sufficient"],
    ["analyze-game", "PATH", "--budget", "8"], ["analyze-game", "PATH", "--bound"],
    ["facet-test", "PATH", "--polytope", "bell"],
    ["facet-test", "PATH", "--polytope", "correlation"]]))
def test_cli_on_game_files(doc, garble, argv):
    run(argv, as_text(doc, garble), "game.json")


@SETTINGS
@example({"space": "cut", "bound": 0, "n": 2, "coeffs": [[0, "", 0]]}, None,
         ["facet-test", "PATH", "--polytope", "bell"])
@example({"space": "correlator", "bound": 0, "coeffs": {"a": 1}}, None,
         ["facet-test", "PATH", "--polytope", "correlation"])
@example({"space": "probability", "bound": 0, "coeffs": [[[[0], []]]]}, None,
         ["facet-test", "PATH", "--polytope", "bell"])
@example({"space": "probability", "bound": 0, "coeffs": [[[[0]]]]}, None,
         ["facet-test", "PATH", "--polytope", "bell"])
@given(inequality_docs(), garbles, st.sampled_from([
    ["facet-test", "PATH", "--polytope", "bell"],
    ["facet-test", "PATH", "--polytope", "correlation"], ["cut", "facet", "--ineq", "PATH"]]))
def test_cli_on_inequality_files(doc, garble, argv):
    run(argv, as_text(doc, garble), "ineq.json")


@SETTINGS
@given(graph_texts, st.sampled_from([
    ["cut", "suspend", "--graph", "PATH"], ["cut", "cuts", "--graph", "PATH"],
    ["cut", "hypermetric", "--graph", "PATH", "--b=1,1,1,-1,-1"],
    ["cut", "facet", "--graph", "PATH", "--b=1,1,1,-1,-1"]]))
def test_cli_on_graph_files(text, argv):
    run(argv, text, "graph.txt")
