"""Byte-identity oracle: rerun the committed golden cases and compare every file.

The cases and the command that regenerates them are in
``tests/golden/regenerate.py``.  A mismatch names the file and gives the
largest absolute and relative difference per numeric column.
"""

import importlib.util
import os

import numpy as np

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_spec = importlib.util.spec_from_file_location(
    "golden_cases", os.path.join(GOLDEN, "regenerate.py"))
cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cases)


def committed_files():
    """Relative paths of the committed output files, one directory per case."""
    out = []
    for case in sorted(os.listdir(GOLDEN)):
        if os.path.isdir(os.path.join(GOLDEN, case)) and not case.startswith("__"):
            out += [os.path.join(case, f) for f in sorted(os.listdir(os.path.join(GOLDEN, case)))]
    return out


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return np.nan


def numeric_columns(text):
    """Columns by header name for a CSV file, else one column of every token.

    Cells that are not numbers read as NaN; a column without numbers is left out.
    """
    lines = text.splitlines()
    if "," in lines[0]:
        names = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        columns = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    else:
        columns = {"all tokens": text.split()}
    out = {name: np.array([number(c) for c in cells]) for name, cells in columns.items()}
    return {name: values for name, values in out.items() if not np.isnan(values).all()}


def describe_difference(path, expected, got):
    lines = [f"{path} differs from the golden file"]
    want, have = numeric_columns(expected), numeric_columns(got)
    for name, a in want.items():
        b = have.get(name)
        if b is None or a.shape != b.shape:
            lines.append(f"  column {name!r}: {a.shape} golden values, "
                         f"{None if b is None else b.shape} now")
            continue
        with np.errstate(invalid="ignore"):
            diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
        if not (diff != 0).any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(diff != 0, diff / np.abs(a), 0.0)
        lines.append(f"  column {name!r}: largest absolute difference {np.nanmax(diff):.3e}, "
                     f"largest relative {np.nanmax(rel):.3e}")
    return "\n".join(lines)


def test_golden_outputs_are_byte_identical(tmp_path):
    with open(os.path.join(GOLDEN, "VERSIONS")) as handle:
        recorded = handle.read()
    assert cases.versions() == recorded, (
        f"golden files were made with\n{recorded}but this is\n{cases.versions()}"
        "regenerate them with python tests/golden/regenerate.py"
    )
    cases.generate(str(tmp_path))
    expected = committed_files()
    produced = sorted(
        os.path.join(case, f) for case in os.listdir(tmp_path)
        for f in os.listdir(tmp_path / case)
    )
    assert produced == expected
    failures = []
    for path in expected:
        with open(os.path.join(GOLDEN, path), "rb") as handle:
            want = handle.read()
        got = (tmp_path / path).read_bytes()
        if got != want:
            failures.append(describe_difference(path, want.decode(), got.decode()))
    assert not failures, "\n".join(failures)
