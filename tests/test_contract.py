"""The rows of the refusal contract in `tests/contract.py` that no older
test id holds, run in process, and checks of the table itself."""

import importlib

from contract import (COMMAND_ROWS, HELD, HELD_ROWS, READER_ROWS, ROW,
                      row_cases, write_input)

test_command_rows = row_cases({row.name: row.name for row in COMMAND_ROWS
                               if row.name not in HELD_ROWS})
test_reader_rows = row_cases({row.name: row.name for row in READER_ROWS
                              if row.name not in HELD_ROWS})


def test_row_names_are_unique():
    names = [row.name for row in COMMAND_ROWS + READER_ROWS]
    assert len(set(names)) == len(names)


def test_each_held_row_runs_under_its_older_id():
    assert HELD_ROWS <= set(ROW)
    for module, test in HELD:
        assert callable(vars(importlib.import_module(module)).get(test)), test


def test_the_ray_rows_write_the_json_literals(tmp_path):
    """json.dumps writes -1.0, NaN and -Infinity as literals the wire
    reader takes as numbers, so these rows reach the gauge's range check."""
    for field, at in (("gauge-table", 0), ("cover-table", 1)):
        for name, literal in (("negative", "-1.0"), ("nan", "NaN"),
                              ("minus-infinity", "-Infinity")):
            write_input(ROW[f"{field}-{name}"], tmp_path)
            row = ["4.0", "2.0", "1.0"]
            row[at] = literal
            assert f'"a|b": [{", ".join(row)}]' in \
                (tmp_path / "in.json").read_text(encoding="utf-8")
