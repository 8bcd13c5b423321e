import csv
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import btrank
from btrank import ingestion
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


# Cells by the role of their column: valid ones, then ones the parser refuses.
# The ids past "c " are over the 8 bytes that a cell's key holds: 9, 16, 17
# and 40 bytes, two that share their first 8 bytes, two that differ only in
# their last byte, and one with a 2-byte character across bytes 8 and 9.
TEAM_CELLS = (
    "A", "b", "\u00dc", "Team 3", "x\u2028y", "c ",
    "Longname9", "Sixteen-byte-id!", "Seventeen-byte-id", "A forty-byte team id, give or take a few",
    "Athletic Club", "Athletic Bilbao", "Real Sociedad B", "Real Sociedad C", "abcdefg\u00e9x",
)
CELLS = {
    "home": (TEAM_CELLS, ("", "  ")),
    "away": (TEAM_CELLS, ("", "  ")),
    "outcome": (("home_win", " Away_Win", "TIE", "tie "), ("upset", "")),
    "repeat": (("", "1", " 3 ", "07", "+2"), ("0", "two", "-1", str(2**63))),
    "note": (("", "note", " ", "x\x85y"), ()),
}
FLAWS = ("cell", "self", "short", "long", "blank")
SPECIALS = ('"', '""', '"x,y"', "\x00", "\r", "\r\n", "\n", ",")
CSV_HEADERS = (
    "home,away,outcome",
    "home,away,outcome,repeat",
    "away,note,HOME,repeat,outcome",
    "home, Home ,away,outcome,home",
    "home,away,outcome,repeat,repeat",
)
DEFAULT_LIMIT = csv.field_size_limit()


@st.composite
def csv_texts(draw):
    """CSV texts of valid rows, but for a few flaws: a refused cell,
    self-play, too few or too many cells, a blank line, or a special string
    inserted into the body."""
    header = draw(st.sampled_from(CSV_HEADERS))
    names = header.split(",")
    columns = {name.strip().lower(): i for i, name in enumerate(names)}
    roles = ["note"] * len(names)
    for role in ("home", "away", "outcome", "repeat"):
        if role in columns:
            roles[columns[role]] = role
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(st.sampled_from(CELLS[role][0])) for role in roles]
        home = draw(st.integers(0, len(TEAM_CELLS) - 1))
        away = (home + draw(st.integers(1, len(TEAM_CELLS) - 1))) % len(TEAM_CELLS)
        cells[columns["home"]], cells[columns["away"]] = TEAM_CELLS[home], " " + TEAM_CELLS[away]
        rows.append(cells)
    for row, flaw in draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(FLAWS)), max_size=2)):
        cells = rows[row % len(rows)] if rows else []
        if len(cells) != len(roles):
            continue
        if flaw == "cell":
            column = draw(st.sampled_from([k for k, role in enumerate(roles) if CELLS[role][1]]))
            cells[column] = draw(st.sampled_from(CELLS[roles[column]][1]))
        elif flaw == "self":
            cells[columns["away"]] = f" {cells[columns['home']]} "
        else:
            cells[:] = {"short": cells[:-1], "long": cells + ["x"], "blank": []}[flaw]
    body = "".join(",".join(cells) + draw(st.sampled_from(("\n", "\r\n"))) for cells in rows)
    if draw(st.booleans()):  # no line end after the last line
        body = body.removesuffix("\n").removesuffix("\r")
    for position, special in draw(
        st.lists(st.tuples(st.integers(0, 999), st.sampled_from(SPECIALS)), max_size=1)
    ):
        position %= len(body) + 1
        body = body[:position] + special + body[position:]
    return header + draw(st.sampled_from(("\n", "\r\n"))) + body


def parsed(parse, text):
    """What ``parse(text)`` gives: the table's columns, or the error's type
    and message."""
    try:
        table = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return table.teams, *(getattr(table, name).tolist() for name in ("home", "away", "outcome", "repeat"))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    text=csv_texts(),
    limit=st.sampled_from((DEFAULT_LIMIT, 8)),
    block=st.sampled_from((1, 12, 1 << 16)),
)
@example(text="home,away,outcome\r\nA,B,tie\r\nB,A,home_win\r\n", limit=DEFAULT_LIMIT, block=1 << 16)
@example(text="home,away,outcome\nA,B\x00,tie\n", limit=DEFAULT_LIMIT, block=1 << 16)
@example(text="home,away,outcome\nA,B,tie\n\nB,A,tie\n", limit=DEFAULT_LIMIT, block=1 << 16)
@example(text="home,away,outcome,repeat\nA,B,tie,2\nB,A,tie\n", limit=DEFAULT_LIMIT, block=1 << 16)
@example(text='home,away,outcome\n"A,1",B,tie\n', limit=DEFAULT_LIMIT, block=1 << 16)
@example(text="home,away,outcome\nA,B,tie,C,A\ntie\n", limit=DEFAULT_LIMIT, block=1 << 16)
@example(text="home,away,outcome\nA,B,tie\nA,BBBBBBBBB,tie\n", limit=8, block=1 << 16)
def test_csv_parses_as_the_row_loop_does(text, limit, block):
    # The bulk split of a plain body must give what the csv module's row
    # loop gives, and any other text must reach the row loop's error.
    previous = csv.field_size_limit(limit)
    try:
        with mock.patch.object(ingestion, "_BLOCK_CHARS", block):
            got = parsed(lambda text: parse_records(text, "csv"), text)
        assert got == parsed(ingestion._parse_csv, text)
    finally:
        csv.field_size_limit(previous)


def crowd_csv(end: str, cell: str = "I{:03d}", rows: int = 20_000, items: int = 300) -> str:
    """A seeded crowd CSV with a repeat column and no final line end: random
    pairs of distinct items, item k written as ``cell.format(k)``."""
    rng = np.random.default_rng(1)
    first = rng.integers(0, items, rows)
    second = (first + rng.integers(1, items, rows)) % items
    outcome, repeat = rng.integers(0, 3, rows), rng.integers(1, 4, rows)
    tokens = [member.value for member in Outcome]
    lines = [
        f"{cell.format(h)},{cell.format(a)},{tokens[o]},{r}"
        for h, a, o, r in zip(first.tolist(), second.tolist(), outcome.tolist(), repeat.tolist())
    ]
    return "home,away,outcome,repeat" + end + end.join(lines)


LONG_ID = "crowd-item-{:03d}-of-set-AB"  # 24 bytes, over the 8 of a cell's key


def with_blank_lines(text: str, end: str) -> str:
    """``text`` with an empty line after its first line and then after
    every 997th, two after the one hundredth."""
    lines = text.split(end)
    lines[100] += end
    return end.join(line if k % 997 else line + end for k, line in enumerate(lines))


def rotation(*ids: str) -> str:
    """A CSV of 300 records in which each id hosts the next one."""
    lines = [f"{ids[k % len(ids)]},{ids[(k + 1) % len(ids)]},tie" for k in range(300)]
    return "home,away,outcome\n" + "\n".join(lines) + "\n"


def late_long_cell(cell: str) -> str:
    """A crowd CSV whose only cell over 8 bytes, ``cell``, is in its last
    line."""
    return crowd_csv("\n", rows=2_000) + "\nI001," + cell + ",tie,1"


@pytest.mark.parametrize(
    "make",
    [
        lambda: "home,away,outcome\nA\x00,B,tie\n",  # the csv module refuses it before Python 3.11
        lambda: 'home,away,outcome\n"A",B,tie\n',
        lambda: "home,away,outcome\nA,B,tie\rB,A,tie\n",
        lambda: "home,away,outcome\r\nA,B,tie\rB,A,tie\r\n",
        lambda: "home,away,outcome\nA,B,tie,C,A\ntie\n",
        lambda: "home,away,outcome\nA," + "B" * 513 + ",tie\n",
        lambda: crowd_csv("\n", LONG_ID),
        lambda: crowd_csv("\r\n", LONG_ID),
        lambda: with_blank_lines(crowd_csv("\r\n", LONG_ID), "\r\n"),
        lambda: "home,away,outcome\nA," + "B" * 512 + ",tie\n" + "B" * 512 + ",A,away_win\n",
        lambda: rotation("Sixteen-byte-id!", "Seventeen-byte-id"),
        lambda: rotation("Athletic Club", "Athletic Bilbao", "Real Sociedad B", "Real Sociedad C"),
        lambda: rotation("Sixteen-byte-id!", "A", "Team 3"),
        lambda: rotation("Sixteen-byte-id!", "A", "Team 3") + "A,,tie\n",
        lambda: "home,away,outcome\nA,B, home_win\n",
        lambda: late_long_cell("Longname9"),
    ],
    ids=[
        "nul", "quote", "bare-cr", "bare-cr-among-crlf", "uneven-lines", "a-513-byte-id", "long-ids",
        "long-ids-crlf", "blank-lines-between-long-id-rows-crlf", "a-512-byte-id", "two-long-ids",
        "four-long-ids", "one-long-id", "one-long-id-and-an-empty-cell", "a-9-byte-padded-outcome",
        "a-long-id-in-a-late-block",
    ],
)
def test_a_body_that_is_not_plain_is_left_to_the_csv_module(make):
    # The row loop's table or error, whole; in blocks of 256 characters, so
    # that the late long id is some 150 blocks in.
    text = make()
    with mock.patch.object(ingestion, "_BLOCK_CHARS", 256):
        assert ingestion._split_plain_csv(text) is None
        assert parsed(lambda text: parse_records(text, "csv"), text) == parsed(ingestion._parse_csv, text)


@pytest.mark.parametrize(
    "make",
    [
        lambda: crowd_csv("\n"),
        lambda: crowd_csv("\r\n", " I{:03d} "),
        lambda: crowd_csv("\n") + "\n\n",
        lambda: crowd_csv("\r\n", " I{:03d} ") + "\r\n\r\n",
        lambda: with_blank_lines(crowd_csv("\n"), "\n"),
    ],
    ids=[
        "lf", "crlf-padded", "trailing-blank-line", "trailing-blank-line-crlf", "blank-lines-between-rows",
    ],
)
def test_a_plain_crowd_csv_never_reaches_the_row_loop(make):
    # Most span several blocks; a silent fallback to the row loop would lose the gain.
    text = make()
    want = parsed(ingestion._parse_csv, text)
    assert len(want) == 5  # a table, not an error
    with mock.patch.object(ingestion, "_parse_csv", side_effect=AssertionError("row loop")):
        assert parsed(lambda text: parse_records(text, "csv"), text) == want


@pytest.mark.parametrize(
    "line, error",
    [
        ("I001,I002,upset,1", "line 1502: unknown outcome 'upset' (expected home_win, away_win, or tie)"),
        ("I001, ,tie,1", "line 1502: home and away team ids are required"),
        ("I001, I001 ,tie,1", "line 1502: team 'I001' cannot play itself"),
        ("I001,I002,tie,0", "line 1502: repeat must be >= 1, got 0"),
    ],
    ids=["outcome", "blank-id", "self-play", "repeat"],
)
def test_a_bad_plain_row_in_a_late_block_raises_without_the_row_loop(line, error):
    # The bulk split names the bad row itself, as the row loop would, and
    # does not parse the whole text a second time.
    lines = crowd_csv("\n", rows=2_000).split("\n")
    lines[1501] = line
    text = "\n".join(lines)
    want = parsed(ingestion._parse_csv, text)
    assert want[1] == error
    with (
        mock.patch.object(ingestion, "_BLOCK_CHARS", 256),
        mock.patch.object(ingestion, "_parse_csv", side_effect=AssertionError("row loop")),
    ):
        assert parsed(lambda text: parse_records(text, "csv"), text) == want


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    batches=st.lists(st.lists(st.integers(0, 2**64 - 2), max_size=40), max_size=8),
    mix=st.sampled_from((0, 1, 0x9E3779B97F4A7C15)),
)
def test_the_key_table_finds_what_was_added(batches, mix):
    # Against a dict, batch by batch, through growth and (with a poor or no
    # mixing multiplier) with most keys in the spill.
    table, known = ingestion._KeyTable(np.int64), {}
    with mock.patch.object(ingestion, "_MIX", np.uint64(mix)):
        for batch in batches:
            keys = np.array(batch, np.uint64)
            codes, new = table.find(keys)
            assert new.tolist() == [k for k, key in enumerate(batch) if key not in known]
            assert [codes[k] for k, key in enumerate(batch) if key in known] == [
                known[key] for key in batch if key in known
            ]
            fresh = list(dict.fromkeys(batch[k] for k in new.tolist()))
            table.add(np.array(fresh, np.uint64), np.arange(len(known), len(known) + len(fresh)))
            known.update((key, len(known)) for key in fresh)
        everything = np.array(list(known), np.uint64)
        codes, new = table.find(everything)
        assert len(new) == 0 and codes.tolist() == list(known.values())


def test_the_row_loop_holds_a_quoted_csv_at_about_its_own_size():
    # A few long quoted ids over many rows, so that the text dominates what
    # the row loop holds: a copy at 4 bytes per character would show.
    ids = [f'"T{k}' + "x" * 200 + '"' for k in range(3)]
    text = "home,away,outcome\n" + "".join(
        f"{ids[k % 3]},{ids[(k + 1) % 3]},tie\n" for k in range(2_000)
    )
    tracemalloc.start()
    try:
        table = ingestion._parse_csv(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 2_000 and len(table.teams) == 3
    assert peak < 2 * len(text)


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
    with pytest.raises(ParseError, match="^record JSON must be an array of objects$"):
        parse_records(json.dumps(payload[0]), "json")
    with pytest.raises(ParseError, match="^element 2: expected an object$"):
        parse_records(json.dumps([payload[0], ["A", "B", "tie"]]), "json")
    # json.dumps writes a float count as 3.0, as matrix JSON and GameTable accept
    text = '[{"home": "A", "away": "B", "outcome": "tie", "repeat": 3.0}]'
    assert parse_records(text, "json").repeat.tolist() == [3]
    for bad in ("2.5", "NaN", "1e300", '"3.0"'):
        with pytest.raises(ParseError, match="^element 1: repeat must be"):
            parse_records(text.replace("3.0", bad), "json")


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark Excel's "CSV UTF-8" export writes


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_record_bytes_with_a_bom_parse_as_without(fmt):
    records = rows(parse_records(CSV, "csv"))
    text = render(records, fmt)
    data = text.encode()
    assert rows(parse_records(BOM + data, fmt)) == rows(parse_records(data, fmt)) == records
    # The mark is stripped from text as well as from bytes.
    assert rows(parse_records("\ufeff" + text, fmt)) == records


def test_errors_after_a_bom_keep_their_line_numbers_and_offsets():
    with pytest.raises(ParseError, match="^line 3: unknown outcome"):
        parse_records(BOM + b"home,away,outcome\nA,B,tie\nA,B,upset\n", "csv")
    message = "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 11"
    with pytest.raises(ParseError, match=f"^{message}: invalid continuation byte$"):
        parse_records(BOM + "home\nJos\u00e9,".encode("latin-1"), "csv")


def test_matrix_bytes_with_a_bom_parse_as_without():
    text = json.dumps({"teams": ["A", "B"], "a": [[0, 1], [2, 0]], "ties": [[0, 1], [1, 0]]})
    plain = parse_matrix(text.encode())
    for marked in (parse_matrix(BOM + text.encode()), parse_matrix("\ufeff" + text)):
        assert marked.teams == plain.teams
        assert np.array_equal(dense(marked).a, dense(plain).a)
        assert np.array_equal(dense(marked).ties, dense(plain).ties)


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
    with pytest.raises(SelfPlayError, match=r"^record 1: team 'A' cannot play itself$"):
        GameTable(("A", "B"), [0, 0, 1], [1, 0, 1], [0, 1, 2], [1, 1, 1])  # records from 0
    # a fractional, non-finite, out-of-int64 or bool entry is not truncated to a count
    with pytest.raises(ShapeError, match="^home must hold integers, got 0.9$"):
        GameTable(("A", "B", "C"), [0.9, 1.0], [1.7, 2.2], [0, 1], [1.5, 2.9])
    for bad in (float("nan"), float("inf"), 1e30, 2**63):
        with pytest.raises(ShapeError, match="^repeat must hold integers, got"):
            GameTable(("A", "B"), [0], [1], [0], [bad])
    with pytest.raises(ShapeError, match="^outcome must hold integers, not bools$"):
        GameTable(("A", "B"), [0], [1], [True], [1])
    integral = GameTable(("A", "B"), [0.0], [1.0], [2.0], np.ones(1))
    assert rows(integral) == [("A", "B", Outcome.TIE, 1)] and integral.repeat.dtype == np.int64
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
    assert (got.teams, got.venueless, got.num_teams) == (want.teams, want.venueless, want.num_teams)
    for name in ("i", "j", "games"):
        a, b = getattr(got.counts, name), getattr(want.counts, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


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


def aggregated(table: GameTable, flags_per_record: float) -> btrank.Dataset:
    """``aggregate(table)`` with the size rule's multiple patched: 0 sorts
    the pair keys, infinity takes the direct index."""
    with mock.patch.object(ingestion, "_FLAGS_PER_RECORD", flags_per_record):
        return aggregate(table)


@st.composite
def game_tables(draw) -> GameTable:
    """Records among some of up to 14 teams, so that a team of the list
    may have no record."""
    t = draw(st.integers(2, 14))
    playing = draw(st.lists(st.integers(0, t - 1), min_size=2, max_size=t, unique=True))
    game = st.tuples(
        st.sampled_from(playing), st.sampled_from(playing), st.integers(0, 2), st.integers(1, 4)
    ).filter(lambda g: g[0] != g[1])
    columns = zip(*draw(st.lists(game, min_size=1, max_size=60)))
    return GameTable([f"T{k}" for k in range(t)], *columns)


@PROPERTY
@given(table=game_tables())
def test_both_ways_of_finding_met_pairs_give_one_dataset(table):
    assert_same_dataset(aggregated(table, np.inf), aggregated(table, 0))


def test_the_direct_index_holds_up_to_its_multiple_of_the_records():
    # t² = k * n exactly takes the direct index, one record fewer the sort;
    # the last team of the list has no record.
    k = ingestion._FLAGS_PER_RECORD
    t, n = 2 * k, 4 * k
    rng = np.random.default_rng(3)
    home = rng.integers(0, t - 1, n)
    away = (home + rng.integers(1, t - 1, n)) % (t - 1)
    columns = home, away, rng.integers(0, 3, n), rng.integers(1, 4, n)
    at = GameTable([f"T{x}" for x in range(t)], *columns)
    below = GameTable(at.teams, *(column[1:] for column in columns))
    with mock.patch.object(np, "unique", wraps=np.unique) as sort:
        at_data = aggregate(at)
        assert sort.call_count == 0
        below_data = aggregate(below)
        assert sort.call_count == 1
    assert_same_dataset(at_data, aggregated(at, 0))
    assert_same_dataset(below_data, aggregated(below, np.inf))
    assert at_data.num_teams == t and (t - 1) not in at_data.counts.j


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
    with pytest.raises(ParseError, match="^invalid JSON: Expecting ',' delimiter"):
        parse_matrix('{"teams": ["A", "B"] "a": []}')
    with pytest.raises(ParseError, match='^matrix JSON needs a "teams" array of strings$'):
        parse_matrix('{"teams": ["A", 2], "a": [[0, 1], [1, 0]]}')
    with pytest.raises(ParseError, match=r"^a: not a numeric matrix \("):
        parse_matrix('{"teams": ["A", "B"], "a": [[0, "x"], [1, 0]]}')
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
    with pytest.raises(ParseError, match="element 1: home and away team ids are required"):
        parse(home=None, away="B")
    assert parse(home=0, away=1).teams == ("0", "1")
    for bad in (True, ["x"], {"y": 1}):
        with pytest.raises(ParseError, match="^element 1: a team id must be a string or a number"):
            parse(home="A", away=bad)
