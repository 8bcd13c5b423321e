import argparse
import csv
import io
import json

import pytest

from btrank.cli import build_parser, main

FOUR_TEAMS = {
    "teams": ["1", "2", "3", "4"],
    "a": [[0, 2, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]],
}

ISLANDS = {
    "teams": ["1", "2", "3", "4"],
    "a": [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]],
}

CSV_GAMES = "home,away,outcome\nA,B,home_win\nB,C,away_win\nC,A,home_win\nA,B,tie\n"

BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark Excel's "CSV UTF-8" export writes


@pytest.fixture
def four_teams_file(tmp_path):
    path = tmp_path / "four.json"
    path.write_text(json.dumps(FOUR_TEAMS))
    return str(path)


@pytest.fixture
def islands_file(tmp_path):
    path = tmp_path / "islands.json"
    path.write_text(json.dumps(ISLANDS))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_table_output(capsys, four_teams_file):
    code, out, err = run(
        capsys, "fit", "--data", four_teams_file, "--epsilon", "0.5"
    )
    assert code == 0
    assert err == ""
    assert "ranking: 1 > 2 > 4 > 3" in out
    assert "converged        yes" in out


FIT_TABLE = """\
model            bt
epsilon          0.500
log-likelihood   -6.417
iterations       4
converged        yes

team  merit  beta    score
1     1.000  0.000   3.000
2     0.600  -0.511  1.000
3     0.200  -1.609  1.000
4     0.333  -1.099  2.000

ranking: 1 > 2 > 4 > 3
"""

CHECK_TABLE = """\
condition  verdict  note
A          fail     condition A fails for the split {1, 2} | {3, 4}: \
no team in the second set has beaten any team in the first set
B          pass
C          n/a      data carry no venue structure
"""

SWEEP_RATIO_TABLE = """\
epsilon  log-likelihood  ranking
0.001    -3.830          1 > 2 > 4 > 3
0.010    -3.905          1 > 2 > 4 > 3
0.100    -4.463          1 > 2 > 4 > 3
0.500    -6.417          1 > 2 > 4 > 3
1.000    -8.640          1 > 2 > 4 > 3
2.000    -12.926         1 > 2 > 4 > 3

stable: yes

merit ratios across the grid (best-to-worst adjacent pairs):
pair  ratios                                  non-increasing
1/2   1.999 1.990 1.909 1.667 1.500 1.333     yes
2/4   500.750 50.751 5.762 1.800 1.333 1.125  yes
4/3   1.999 1.990 1.909 1.667 1.500 1.333     yes
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["fit", "--epsilon", "0.5"], FIT_TABLE),
        (["check"], CHECK_TABLE),
        (["sweep", "--epsilons", "0.001,0.01,0.1,0.5,1,2", "--ratios"], SWEEP_RATIO_TABLE),
    ],
    ids=["fit", "check", "sweep-ratios"],
)
def test_tables_render_these_exact_bytes(capsys, four_teams_file, argv, expected):
    # every value prints to 3 decimals, so the bytes do not vary with BLAS threads
    code, out, err = run(capsys, argv[0], "--data", four_teams_file, *argv[1:])
    assert (code, out, err) == (0, expected, "")


def test_fit_json_is_deterministic_and_carries_the_estimate(capsys, four_teams_file):
    code, first, _ = run(
        capsys, "fit", "--data", four_teams_file, "--epsilon", "0.5", "--out", "json"
    )
    assert code == 0
    code, second, _ = run(
        capsys, "fit", "--data", four_teams_file, "--epsilon", "0.5", "--out", "json"
    )
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["model"] == "bt"
    assert payload["converged"] is True
    assert payload["merits"][0] == 1.0
    assert payload["merits"][1] == pytest.approx(0.600, abs=2e-3)
    assert payload["merits"][3] == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert payload["ranking"] == ["1", "2", "4", "3"]


def test_fit_writes_json_to_a_file(capsys, four_teams_file, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "fit", "--data", four_teams_file, "--epsilon", "0.5", "--out", str(report),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(report.read_text())
    assert payload["teams"] == ["1", "2", "3", "4"]


def test_fit_exit_codes_for_each_failure_family(capsys, islands_file, tmp_path):
    # 1: the estimate does not exist (comparison graph in two pieces)
    code, _, err = run(capsys, "fit", "--data", islands_file)
    assert code == 1
    assert "does not exist" in err

    # 2: unparseable input
    bad = tmp_path / "bad.csv"
    bad.write_text("home,away,outcome\nA,B,upset\n")
    code, _, err = run(capsys, "fit", "--data", str(bad))
    assert code == 2
    assert "unknown outcome" in err

    # 2: a cell the csv module itself refuses
    bad.write_text("home,away,outcome\nA," + "B" * 200_000 + ",tie\n")
    code, _, err = run(capsys, "fit", "--data", str(bad))
    assert code == 2
    assert "line 2: field larger than field limit" in err

    # 2: unreadable path
    code, _, err = run(capsys, "fit", "--data", str(tmp_path / "missing.json"))
    assert code == 2

    # 2: a file that is not UTF-8, as data or as a shift matrix
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("home,away,outcome\nJos\u00e9,B,home_win\n".encode("latin-1"))
    code, _, err = run(capsys, "fit", "--data", str(latin1))
    assert code == 2
    assert f"{latin1}: not UTF-8 text" in err
    shift = tmp_path / "a0.json"
    shift.write_bytes('{"a0": [[0, 1], [1, 0]], "note": "\u00e9"}'.encode("latin-1"))
    code, _, err = run(
        capsys, "fit", "--data", islands_file, "--perturbation", f"matrix:{shift}"
    )
    assert code == 2
    assert f"{shift}: not UTF-8 text" in err

    # 2: a shift matrix that is ragged or not numeric
    for a0 in ([[0, 1], [1]], [["x", 0], [0, 0]]):
        shift.write_text(json.dumps({"a0": a0}))
        code, out, err = run(
            capsys, "fit", "--data", islands_file, "--perturbation", f"matrix:{shift}"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"btrank: {shift}: a0 is not a numeric matrix (")
        assert err.count("\n") == 1

    # 4: flag errors, both argparse-level and value-level; the data file
    # must be valid here or the parse error would win (data loads first)
    code, _, err = run(capsys, "fit", "--data", islands_file, "--no-such-flag")
    assert code == 4
    code, _, err = run(capsys, "fit", "--data", islands_file, "--epsilon", "-1")
    assert code == 4
    code, _, err = run(capsys, "fit", "--data", islands_file, "--epsilon", "bogus")
    assert code == 4
    code, _, err = run(capsys, "fit", "--data", islands_file, "--max-iters", "0")
    assert code == 4
    assert "must be at least 1" in err


def test_fit_exit_3_when_iterations_run_out(capsys, tmp_path):
    ten = {
        "teams": [f"B{k}" for k in range(1, 11)],
        "a": [
            [0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            [1, 0, 1, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 1, 1, 1, 1, 1, 1],
            [0, 0, 1, 0, 1, 1, 1, 1, 1, 1],
            [0, 0, 0, 1, 0, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 1, 0, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, 1, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        ],
    }
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(ten))
    code, _, err = run(
        capsys,
        "fit", "--data", str(path), "--epsilon", "0.01", "--max-iters", "2",
    )
    assert code == 3
    assert "no convergence" in err


def test_version_and_help(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "fit", "--help")[0] == 0


def test_check_reports_and_requires_conditions(capsys, four_teams_file):
    code, out, _ = run(capsys, "check", "--data", four_teams_file)
    assert code == 0  # nothing required, so the report itself is the outcome
    assert "fail" in out and "pass" in out

    code, out, _ = run(
        capsys, "check", "--data", four_teams_file, "--require", "b", "--out", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["conditions"]["b"]["holds"] is True
    assert payload["conditions"]["a"]["holds"] is False
    assert payload["conditions"]["a"]["witness"]["q1"] == ["1", "2"]
    assert payload["conditions"]["c"]["applicable"] is False

    code, _, _ = run(capsys, "check", "--data", four_teams_file, "--require", "a")
    assert code == 1

    code, _, err = run(capsys, "check", "--data", four_teams_file, "--require", "c")
    assert code == 4
    assert "no venues" in err

    code, _, err = run(capsys, "check", "--data", four_teams_file, "--require", "z")
    assert code == 4


def test_check_condition_c_on_venue_data(capsys, tmp_path):
    one_way = {
        "teams": ["H", "V"],
        "a_home": [[0, 2], [0, 0]],
        "a_away": [[0, 0], [0, 0]],
        "t_home": [[0, 0], [0, 0]],
    }
    path = tmp_path / "venue.json"
    path.write_text(json.dumps(one_way))
    code, out, _ = run(capsys, "check", "--data", str(path), "--require", "c")
    assert code == 1
    assert "condition C fails" in out

    both_ways = {
        "teams": ["H", "V"],
        "a_home": [[0, 1], [1, 0]],
        "a_away": [[0, 0], [0, 0]],
        "t_home": [[0, 0], [0, 0]],
    }
    path.write_text(json.dumps(both_ways))
    code, _, _ = run(capsys, "check", "--data", str(path), "--require", "c")
    assert code == 0


def test_format_inference_and_override(capsys, tmp_path):
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(CSV_GAMES)
    assert run(capsys, "fit", "--data", str(csv_path))[0] == 0

    records = [
        {"home": "A", "away": "B", "outcome": "home_win"},
        {"home": "B", "away": "C", "outcome": "away_win"},
        {"home": "C", "away": "A", "outcome": "home_win"},
    ]
    rec_path = tmp_path / "games.json"
    rec_path.write_text(json.dumps(records))
    assert run(capsys, "fit", "--data", str(rec_path))[0] == 0

    opaque = tmp_path / "games.txt"
    opaque.write_text(CSV_GAMES)
    code, _, err = run(capsys, "fit", "--data", str(opaque))
    assert code == 4
    assert "cannot infer format" in err
    assert run(capsys, "fit", "--data", str(opaque), "--format", "csv")[0] == 0


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("games.csv", CSV_GAMES, ["fit", "--model", "davidson"]),
        ("games.json", json.dumps(list(csv.DictReader(io.StringIO(CSV_GAMES)))), ["check"]),
        ("four.json", json.dumps(FOUR_TEAMS), ["fit", "--epsilon", "0.5", "--out", "json"]),
    ],
    ids=["csv", "records-json", "matrix-json"],
)
def test_a_utf8_bom_on_the_data_changes_nothing(capsys, tmp_path, name, text, argv):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(BOM + text.encode())
    expected = run(capsys, argv[0], "--data", str(plain), *argv[1:])
    assert expected[0] == 0
    assert run(capsys, argv[0], "--data", str(marked), *argv[1:]) == expected


def test_a_utf8_bom_on_a_shift_or_divisions_file_changes_nothing(
    capsys, four_teams_file, tmp_path
):
    lift = [[0.0 if i == j else 0.1 for j in range(4)] for i in range(4)]
    divisions = {"conferences": {"C": {"D1": ["1", "2"], "D2": ["3", "4"]}}}
    for payload, argv in (
        ({"a0": lift}, ["fit", "--perturbation", "matrix:{}"]),
        (divisions, ["seeds", "--divisions", "{}", "--key", "pct", "--seeds-per-conference", "3"]),
    ):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(payload), encoding="utf-8")
        marked.write_bytes(BOM + json.dumps(payload).encode())
        outputs = [
            run(capsys, argv[0], "--data", four_teams_file, *[a.format(path) for a in argv[1:]])
            for path in (plain, marked)
        ]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    # a file that is not UTF-8 still names the offending byte of the file
    latin1 = tmp_path / "latin1.csv"
    text = "home,away,outcome\nJos\u00e9,B,home_win\n"
    latin1.write_bytes(BOM + text.encode("latin-1"))
    code, _, err = run(capsys, "fit", "--data", str(latin1))
    assert code == 2
    assert err == f"btrank: {latin1}: not UTF-8 text (invalid continuation byte at byte 24)\n"


def test_out_flag_validation(capsys, four_teams_file):
    code, _, err = run(
        capsys, "fit", "--data", four_teams_file, "--out", "xml"
    )
    assert code == 4


def test_sweep_reports_instability(capsys, four_teams_file):
    code, out, _ = run(
        capsys,
        "sweep", "--data", four_teams_file,
        "--perturbation", "conner-grant",
        "--epsilons", "0.1,0.5",
        "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stable"] is False
    assert payload["kendall_distances"] == [[0, 1], [1, 0]]
    assert payload["entries"][0]["ranking"] == ["1", "2", "4", "3"]
    assert payload["entries"][1]["ranking"] == ["1", "4", "2", "3"]

    code, out, _ = run(
        capsys,
        "sweep", "--data", four_teams_file,
        "--perturbation", "conner-grant",
        "--epsilons", "0.1,0.5",
    )
    assert code == 0
    assert "stable: no" in out
    assert "discordant" in out


def test_sweep_ratio_report(capsys, four_teams_file):
    code, out, _ = run(
        capsys,
        "sweep", "--data", four_teams_file,
        "--epsilons", "0.001,0.01,0.1,0.5,1,2",
        "--ratios",
        "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stable"] is True
    report = payload["ratio_report"]
    assert report["all_non_increasing"] is True
    assert len(report["trends"]) == 3
    assert report["trends"][0]["better"] == "1"


def test_sweep_flag_guards(capsys, four_teams_file, tmp_path):
    shift = tmp_path / "a0.json"
    shift.write_text(json.dumps([[0, 1], [1, 0]]))
    code, _, err = run(
        capsys,
        "sweep", "--data", four_teams_file,
        "--perturbation", f"matrix:{shift}",
        "--epsilons", "0.5",
    )
    assert code == 4
    assert "no epsilon to sweep" in err
    code, _, err = run(
        capsys, "sweep", "--data", four_teams_file, "--epsilons", ","
    )
    assert code == 4
    # only improved and conner-grant name an epsilon scheme; case matters
    for name in ("bogus", "Improved"):
        code, out, err = run(
            capsys,
            "sweep", "--data", four_teams_file,
            "--perturbation", name,
            "--epsilons", "0.1,0.5",
        )
        assert code == 4
        assert f"unknown perturbation {name!r}" in err
        assert out == ""


def test_map_matches_the_posterior_mode_and_refuses_bad_priors(capsys, four_teams_file):
    code, out, _ = run(
        capsys, "map", "--data", four_teams_file, "--shape", "2", "--out", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "epsilon" not in payload
    assert payload["prior"] == {"shape": 2.0, "rate": 7.0}
    assert payload["merits"][0] == pytest.approx(0.374, abs=1e-3)
    assert payload["merits"][1] == pytest.approx(0.221, abs=1e-3)
    assert payload["merits"][2] == pytest.approx(0.175, abs=1e-3)
    assert payload["merits"][3] == pytest.approx(0.230, abs=1e-3)

    # flat prior needs win cycles, which these data lack
    code, _, err = run(
        capsys, "map", "--data", four_teams_file, "--shape", "1", "--rate", "0"
    )
    assert code == 1
    assert "condition A fails" in err and "shift" not in err

    code, _, err = run(
        capsys, "map", "--data", four_teams_file, "--shape", "1", "--rate", "5"
    )
    assert code == 4


def test_seeds_by_percentage_and_by_merit(capsys, four_teams_file, tmp_path):
    structure = {"conferences": {"C": {"D1": ["1", "2"], "D2": ["3", "4"]}}}
    divisions = tmp_path / "divisions.json"
    divisions.write_text(json.dumps(structure))
    for key in ("pct", "merit"):
        code, out, _ = run(
            capsys,
            "seeds", "--data", four_teams_file,
            "--divisions", str(divisions),
            "--key", key,
            "--seeds-per-conference", "3",
            "--epsilon", "0.5",
            "--out", "json",
        )
        assert code == 0
        entries = json.loads(out)["conferences"]["C"]
        assert [e["team"] for e in entries] == ["1", "4", "2"]
        assert [e["seed"] for e in entries] == [1, 2, 3]
        assert [e["division_winner"] for e in entries] == [True, True, False]


def test_seeds_structure_errors(capsys, four_teams_file, tmp_path):
    divisions = tmp_path / "divisions.json"
    divisions.write_text(json.dumps({"divisions": {}}))
    code, _, err = run(
        capsys,
        "seeds", "--data", four_teams_file, "--divisions", str(divisions),
    )
    assert code == 2
    assert "conferences" in err

    reused = {
        "conferences": {
            "X": {"D1": ["1", "2"]},
            "Y": {"D1": ["3", "4"]},
        }
    }
    divisions.write_text(json.dumps(reused))
    code, out, err = run(
        capsys,
        "seeds", "--data", four_teams_file,
        "--divisions", str(divisions),
        "--seeds-per-conference", "1",
        "--key", "pct",
        "--out", "json",
    )
    # division names are scoped by conference, so both conferences seed
    assert (code, err) == (0, "")
    seeded = json.loads(out)["conferences"]
    assert [(e["team"], e["division"]) for e in seeded["X"]] == [("1", "D1")]
    assert [(e["team"], e["division"]) for e in seeded["Y"]] == [("4", "D1")]


def test_matrix_shift_perturbation_from_a_file(capsys, four_teams_file, tmp_path):
    lift = [[0, 0.1, 0.1, 0.1], [0.1, 0, 0.1, 0.1], [0.1, 0.1, 0, 0.1], [0.1, 0.1, 0.1, 0]]
    shift = tmp_path / "a0.json"
    shift.write_text(json.dumps({"a0": lift}))
    code, _, _ = run(
        capsys,
        "fit", "--data", four_teams_file, "--perturbation", f"matrix:{shift}",
    )
    assert code == 0

    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps([[0, 0, 0, 0]] * 4))
    code, _, err = run(
        capsys,
        "fit", "--data", four_teams_file, "--perturbation", f"matrix:{zeros}",
    )
    assert code == 1  # the unshifted counts fail the win-cycle condition

    code, _, err = run(
        capsys,
        "fit", "--data", four_teams_file,
        "--perturbation", f"matrix:{shift}", "--epsilon", "0.5",
    )
    assert code == 4
    assert "no --epsilon" in err


def test_matrix_shift_with_negative_shifted_counts_exits_1(capsys, four_teams_file, tmp_path):
    a0 = [[0, -0.37, 0.56, 0.68], [0.7, 0, 0.69, -0.16], [0.04, 0.13, 0, -0.33], [0.11, -0.5, 0.62, 0]]
    shift = tmp_path / "a0.json"
    shift.write_text(json.dumps({"a0": a0}))
    code, _, err = run(
        capsys,
        "fit", "--data", four_teams_file, "--perturbation", f"matrix:{shift}",
    )
    assert code == 1
    assert "team '2' a negative win count -0.16 over team '4'" in err
    assert "is not guaranteed to exist" in err


def test_venue_models_refuse_a_matrix_shift_with_exit_4(capsys, tmp_path):
    games = tmp_path / "games.csv"
    games.write_text(CSV_GAMES)
    shift = tmp_path / "a0.json"
    shift.write_text(json.dumps([[0, 0.1, 0.1], [0.1, 0, 0.1], [0.1, 0.1, 0]]))
    divisions = tmp_path / "divisions.json"
    divisions.write_text(json.dumps({"conferences": {"C": {"D1": ["A", "B"], "D2": ["C"]}}}))
    for model, command in (
        ("home-field", ["fit", "--data", str(games)]),
        ("david", ["seeds", "--data", str(games), "--divisions", str(divisions)]),
    ):
        code, out, err = run(
            capsys, *command, "--model", model, "--perturbation", f"matrix:{shift}"
        )
        assert (code, out) == (4, "")
        assert err.startswith(f"btrank: the {model} model takes no matrix shift")
        assert err.count("\n") == 1


def test_simulate_summarizes_per_team_count(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "simulate", "--t-grid", "4,5", "--replicas", "2", "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t_grid"] == [4, 5]
    assert len(payload["errors"]) == 2
    assert all(len(row) == 2 for row in payload["errors"])

    report = tmp_path / "sim.json"
    code, out, _ = run(
        capsys,
        "simulate", "--t-grid", "4", "--replicas", "1", "--out", str(report),
    )
    assert code == 0
    assert out == ""
    assert json.loads(report.read_text())["t_grid"] == [4]


def test_simulate_seed_defaults_to_zero_and_ignores_the_environment(capsys, monkeypatch):
    def sim(*extra):
        code, out, _ = run(
            capsys,
            "simulate", "--t-grid", "4", "--replicas", "2", "--out", "json", *extra,
        )
        assert code == 0
        return out

    zero = sim("--seed", "0")
    assert sim() == zero
    assert sim("--seed", "3") != zero
    monkeypatch.setenv("BTRANK_SEED", "3")
    assert sim() == zero

    code, _, err = run(capsys, "simulate", "--t-grid", "4", "--seed", "-1")
    assert (code, err) == (4, "btrank: seed must be an integer >= 0, got -1\n")


# Every subcommand flag; a new option shows up as an edit to this table.
OPTIONS = {
    "check": {"--data", "--format", "--out", "--require"},
    "fit": {
        "--data", "--format", "--out", "--model", "--normalization", "--epsilon",
        "--perturbation", "--max-iters",
    },
    "sweep": {
        "--data", "--format", "--out", "--model", "--normalization", "--epsilons",
        "--perturbation", "--ratios", "--max-iters",
    },
    "map": {"--data", "--format", "--out", "--shape", "--rate", "--normalization", "--max-iters"},
    "seeds": {
        "--data", "--format", "--out", "--divisions", "--key", "--seeds-per-conference",
        "--model", "--normalization", "--epsilon", "--perturbation", "--max-iters",
    },
    "simulate": {"--out", "--t-grid", "--replicas", "--n-per-pair", "--seed"},
}


def test_cli_option_inventory():
    (subcommands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for name, parser in subcommands.choices.items()
    }
    assert found == OPTIONS
    assert sum(len(options) for options in found.values()) == 44
