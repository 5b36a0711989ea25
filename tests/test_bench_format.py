"""Table rendering for the evaluation harness."""

from repro.bench import TableResult, check_mark


def _table():
    return TableResult(
        table_id="Table X",
        title="demo",
        headers=["BugID", "Count", "Ratio"],
        rows=[["A-1", 3, 0.5], ["B-2", 10, 1.25]],
        notes=["a note"],
    )


def test_render_contains_everything():
    text = _table().render()
    assert "Table X: demo" in text
    assert "BugID" in text and "Count" in text
    assert "A-1" in text and "B-2" in text
    assert "0.500" in text  # float formatting
    assert "* a note" in text


def test_columns_align():
    lines = _table().render().splitlines()
    header = lines[1]
    separator = lines[2]
    assert len(separator) >= len(header.rstrip())


def test_row_for_and_column():
    table = _table()
    assert table.row_for("A-1")[1] == 3
    assert table.row_for("missing") is None
    assert table.column("Count") == [3, 10]


def test_value_formatting():
    table = TableResult(
        table_id="T",
        title="t",
        headers=["a", "b", "c"],
        rows=[[True, None, "x"]],
    )
    text = table.render()
    assert "yes" in text
    assert "-" in text


def test_check_mark():
    assert check_mark(True) == "X"
    assert check_mark(False) == "-"
