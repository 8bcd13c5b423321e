import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btrank
from btrank.errors import (
    EmptyInputError,
    NegativeCountError,
    ParseError,
    SelfPlayError,
    ShapeError,
)
from btrank.ingestion import (
    GameTable,
    Outcome,
    aggregate,
    parse_matrix,
    parse_records,
)

from oracles import dense

CSV = """home,away,outcome,repeat
Lions,Bears,home_win,2
Bears,Lions,away_win,1
Lions,Hawks,tie,1
Hawks,Bears,home_win,1
"""


def rows(table: GameTable) -> list[tuple[str, str, Outcome, int]]:
    """The table's records as (home, away, outcome, repeat) tuples."""
    outcomes = tuple(Outcome)
    return [
        (table.teams[h], table.teams[a], outcomes[o], int(r))
        for h, a, o, r in zip(table.home, table.away, table.outcome, table.repeat)
    ]


def render(records, fmt: str) -> str:
    """Write (home, away, outcome, repeat) tuples as a CSV or JSON record file."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["home", "away", "outcome", "repeat"])
        for home, away, outcome, repeat in records:
            writer.writerow([home, away, outcome.value, repeat])
        return out.getvalue()
    payload = [
        {"home": home, "away": away, "outcome": outcome.value, "repeat": repeat}
        for home, away, outcome, repeat in records
    ]
    return json.dumps(payload)


def test_csv_parse_and_aggregate():
    records = parse_records(CSV, "csv")
    assert len(records) == 4
    assert rows(records)[0] == ("Lions", "Bears", Outcome.HOME_WIN, 2)

    data = aggregate(records)
    assert data.teams == ("Lions", "Bears", "Hawks")
    li, be, ha = 0, 1, 2
    d = dense(data)
    assert d.a_home[li, be] == 2  # Lions won twice hosting Bears
    assert d.a_away[li, be] == 1  # Lions won once at Bears
    assert d.t_home[li, ha] == 1
    assert d.a_home[ha, be] == 1
    assert not data.venueless


def test_csv_repeat_defaults_to_one():
    records = parse_records("home,away,outcome\nA,B,tie\n", "csv")
    assert records.repeat.tolist() == [1]


def test_csv_outcome_tokens_are_case_insensitive():
    records = parse_records("home,away,outcome\nA,B,Home_Win\n", "csv")
    assert rows(records)[0][2] is Outcome.HOME_WIN


def test_csv_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_records("nope,nope\nA,B\n", "csv")
    with pytest.raises(ParseError, match="line 3"):
        parse_records("home,away,outcome\nA,B,home_win\nA,B,sideways\n", "csv")
    with pytest.raises(SelfPlayError, match="line 2"):
        parse_records("home,away,outcome\nA,A,home_win\n", "csv")
    with pytest.raises(ParseError, match="line 2"):
        parse_records("home,away,outcome,repeat\nA,B,tie,zero\n", "csv")


def test_csv_errors_report_the_physical_line():
    # Blank lines are skipped as rows but still count as lines of the file.
    with pytest.raises(ParseError, match="line 5: unknown outcome 'sideways'"):
        parse_records("home,away,outcome\n\nA,B,home_win\n\nA,B,sideways\n", "csv")
    with pytest.raises(SelfPlayError, match="line 4: team 'A' cannot play itself"):
        parse_records("home,away,outcome\n\n\nA,A,home_win\n", "csv")
    # The csv module's own errors are ParseErrors naming the line too.
    with pytest.raises(ParseError, match="line 2: new-line character seen in unquoted field"):
        parse_records("home,away,outcome\nA,B,ti\re\n", "csv")
    with pytest.raises(ParseError, match="line 1: new-line character seen in unquoted field"):
        parse_records("ho\rme,away,outcome\nA,B,tie\n", "csv")
    oversized = "home,away,outcome\n\nA,B,tie\n" + "A," + "B" * (csv.field_size_limit() + 1) + ",tie\n"
    with pytest.raises(ParseError, match=r"line 4: field larger than field limit"):
        parse_records(oversized, "csv")


# Cases that csv.DictReader settled before the parser was made columnar;
# each must still parse to these records or raise this error.
CSV_PARITY = [
    (  # a short row reads its missing cells as absent
        "home,away,outcome,repeat\nA,B,tie\n",
        [("A", "B", Outcome.TIE, 1)],
    ),
    (
        "home,away,outcome,repeat\nA,B\n",
        (ParseError, "line 2: outcome must be a string, got None"),
    ),
    (  # extra cells are refused before any other check of the row
        "home,away,outcome\nA,A,tie,3\n",
        (ParseError, "line 2: more cells than header columns"),
    ),
    (  # the last column of a repeated (trimmed, lowercased) name wins
        "home,away,outcome,home\nA,B,tie,C\n",
        [("C", "B", Outcome.TIE, 1)],
    ),
    (
        "home, Home ,away,outcome,home\nA,X,B,tie,C\n",
        [("X", "B", Outcome.TIE, 1)],
    ),
    (  # a blank or all-space repeat cell means one game
        "home,away,outcome,repeat\nA,B,tie,\nB,A,home_win, \n",
        [("A", "B", Outcome.TIE, 1), ("B", "A", Outcome.HOME_WIN, 1)],
    ),
    (
        "home,away,outcome\n A , B ,  Tie \n",
        [("A", "B", Outcome.TIE, 1)],
    ),
    ("\nhome,away,outcome\nA,B,tie\n", (ParseError, "line 1: CSV header must include 'home'")),
    ("", (ParseError, "line 1: missing CSV header")),
    ("home,away,outcome\n   \n", (ParseError, "line 2: home and away team ids are required")),
]


@pytest.mark.parametrize("text, expected", CSV_PARITY)
def test_csv_dialect_cases_parse_as_before(text, expected):
    if isinstance(expected, list):
        assert rows(parse_records(text, "csv")) == expected
    else:
        error, message = expected
        with pytest.raises(error) as info:
            parse_records(text, "csv")
        assert str(info.value) == message


def test_json_records_parse_and_errors():
    payload = [
        {"home": "A", "away": "B", "outcome": "away_win"},
        {"home": "B", "away": "C", "outcome": "tie", "repeat": 3},
    ]
    records = parse_records(json.dumps(payload), "json")
    assert records.repeat.tolist() == [1, 3]
    with pytest.raises(ParseError, match="element 2"):
        parse_records(json.dumps([payload[0], {"home": "A", "away": "B"}]), "json")
    with pytest.raises(ParseError):
        parse_records("{", "json")


def test_unknown_record_format_is_refused():
    with pytest.raises(ParseError):
        parse_records(CSV, "tsv")


def test_aggregate_refuses_empty():
    with pytest.raises(EmptyInputError):
        aggregate([])
    with pytest.raises(EmptyInputError):
        aggregate(GameTable((), [], [], [], []))


def test_game_table_is_a_read_only_record_sequence():
    records = parse_records(CSV, "csv")
    assert isinstance(records, GameTable)
    assert records.teams == ("Lions", "Bears", "Hawks")
    assert records.home.tolist() == [0, 1, 0, 2]
    assert records.away.tolist() == [1, 0, 2, 1]
    assert records.outcome.tolist() == [0, 1, 2, 0]
    assert records.repeat.tolist() == [2, 1, 1, 1]
    assert len(records) == 4
    for column in (records.home, records.away, records.outcome, records.repeat):
        with pytest.raises(ValueError):
            column[0] = 1
    assert rows(records)[-1] == ("Hawks", "Bears", Outcome.HOME_WIN, 1)


def test_game_table_refuses_columns_that_do_not_fit():
    with pytest.raises(ShapeError):
        GameTable(("A", "B"), [0], [1, 0], [0], [1])
    with pytest.raises(ShapeError):
        GameTable(("A", "B"), [0], [2], [0], [1])  # no third team
    with pytest.raises(ShapeError):
        GameTable(("A", "B"), [0], [1], [3], [1])  # no fourth outcome
    with pytest.raises(ShapeError):
        GameTable(("A", "B"), [0], [1], [0], [0])
    with pytest.raises(ParseError, match="line 2: repeat must be <= 9223372036854775807"):
        parse_records(f"home,away,outcome,repeat\nA,B,tie,{2**63}\n", "csv")


def reference_aggregate(records) -> btrank.Dataset:
    """The per-record loop that aggregate replaced: the reference it must match."""
    index = {}
    for home, away, _, _ in records:
        for team in (home, away):
            index.setdefault(team, len(index))
    t = len(index)
    a_home, a_away, t_home = np.zeros((t, t)), np.zeros((t, t)), np.zeros((t, t))
    for home, away, outcome, repeat in records:
        h, v = index[home], index[away]
        if outcome is Outcome.HOME_WIN:
            a_home[h, v] += repeat
        elif outcome is Outcome.AWAY_WIN:
            a_away[v, h] += repeat
        else:
            t_home[h, v] += repeat
    return btrank.venue_dataset(tuple(index), a_home, a_away, t_home)


def assert_same_dataset(got, want):
    assert got.teams == want.teams
    for name in ("num_teams", "i", "j", "games"):
        assert np.array_equal(getattr(got.counts, name), getattr(want.counts, name))


TEAM_IDS = ("A", "b", "Team 3", "x,y", 'say "hi"', "Ü")
records_strategy = st.lists(
    st.tuples(
        st.sampled_from(TEAM_IDS),
        st.sampled_from(TEAM_IDS),
        st.sampled_from(Outcome),
        st.integers(1, 5),
    )
    .filter(lambda game: game[0] != game[1]),
    min_size=1,
    max_size=40,
)
SPELLINGS = (str.upper, str.title, lambda s: f"  {s} ", lambda s: s)
PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@PROPERTY
@given(records=records_strategy, fmt=st.sampled_from(["csv", "json"]))
def test_round_trip_aggregates_like_the_per_record_loop(records, fmt):
    table = parse_records(render(records, fmt), fmt)
    assert rows(table) == records
    assert_same_dataset(aggregate(table), reference_aggregate(records))


@PROPERTY
@given(
    records=records_strategy,
    spellings=st.lists(st.sampled_from(SPELLINGS), min_size=40, max_size=40),
    blank=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_loose_spellings_and_blank_repeats_aggregate_like_the_loop(records, spellings, blank):
    # Outcome tokens in any case with padding; a repeat of 1 written as an
    # empty cell (CSV) or an empty string or null (JSON).
    written = [
        (home, away, spell(outcome.value), "" if repeat == 1 and b else repeat)
        for (home, away, outcome, repeat), spell, b in zip(records, spellings, blank)
    ]
    lines = ["home,away,outcome,repeat"]
    for home, away, token, repeat in written:
        cells = (home, away, token, str(repeat))
        lines.append(",".join('"' + c.replace('"', '""') + '"' for c in cells))
    csv_text = "\n".join(lines) + "\n"
    json_text = json.dumps(
        [
            {"home": h, "away": a, "outcome": o, "repeat": None if r == "" and i % 2 else r}
            for i, (h, a, o, r) in enumerate(written)
        ]
    )
    want = reference_aggregate(records)
    for text, fmt in ((csv_text, "csv"), (json_text, "json")):
        table = parse_records(text, fmt)
        assert rows(table) == records
        assert_same_dataset(aggregate(table), want)


def test_matrix_json_venue_free(four_teams):
    assert four_teams.venueless
    assert four_teams.teams == ("1", "2", "3", "4")
    expected = np.array(
        [[0, 2, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]], dtype=float
    )
    assert np.array_equal(dense(four_teams).a, expected)


def test_matrix_json_with_ties():
    payload = {
        "teams": ["A", "B"],
        "a": [[0, 1], [1, 0]],
        "ties": [[0, 2], [2, 0]],
    }
    data = parse_matrix(json.dumps(payload))
    assert data.venueless
    assert dense(data).ties[0, 1] == 2


def test_matrix_json_venue_form():
    payload = {
        "teams": ["A", "B"],
        "a_home": [[0, 1], [0, 0]],
        "a_away": [[0, 1], [1, 0]],
        "t_home": [[0, 0], [1, 0]],
    }
    data = parse_matrix(json.dumps(payload))
    assert not data.venueless
    # hosted by B against A: B's home wins (0) + A's road wins (1) + B-hosted ties (1)
    assert dense(data).n_host[1, 0] == 0 + 1 + 1
    assert dense(data).n_host[0, 1] == 1 + 1 + 0


def test_matrix_json_errors():
    with pytest.raises(ParseError):
        parse_matrix("[1, 2]")
    with pytest.raises(ParseError):
        parse_matrix('{"teams": ["A", "B"]}')
    with pytest.raises(ParseError):
        parse_matrix('{"teams": ["A", "A"], "a": [[0, 1], [1, 0]]}')
    with pytest.raises(ShapeError):
        parse_matrix('{"teams": ["A", "B"], "a": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}')
    with pytest.raises(NegativeCountError):
        parse_matrix('{"teams": ["A", "B"], "a": [[0, -1], [1, 0]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"teams": ["A", "B"], "a": [[0, 1.5], [1, 0]]}')
    with pytest.raises(ShapeError):
        parse_matrix('{"teams": ["A"], "a": [[0]]}')
    # a refusal names the input matrix, not a field of the stored counts
    with pytest.raises(ShapeError, match="^ties must have a zero diagonal$"):
        parse_matrix('{"teams": ["A", "B"], "a": [[0, 1], [1, 0]], "ties": [[1, 0], [0, 0]]}')
    venue = '{"teams": ["A", "B"], "a_home": %s, "a_away": %s, "t_home": %s}'
    with pytest.raises(ShapeError, match="^a_away must have a zero diagonal$"):
        parse_matrix(venue % ("[[0, 1], [0, 0]]", "[[0, 0], [0, 2]]", "[[0, 0], [0, 0]]"))


def test_game_record_validation():
    def parse(**record):
        return parse_records(json.dumps([{"outcome": "tie", **record}]), "json")

    with pytest.raises(SelfPlayError, match="element 1"):
        parse(home="A", away="A")
    with pytest.raises(ParseError, match="element 1: repeat must be >= 1"):
        parse(home="A", away="B", repeat=0)
    with pytest.raises(ParseError, match="element 1: home and away team ids are required"):
        parse(home="", away="B")
