"""Byte-identity oracle: rerun the committed golden cases and compare every file.

The cases and the command that regenerates them are in
``tests/golden/regenerate.py``.  A mismatch names the file and each column,
or each key of a ``key,value`` file, that changed: its first changed cell
that is not a number, and the largest absolute and relative difference of
its numbers.
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


def cells(text):
    """What the entries of a file are called, and the cells of each by name.

    A ``key,value`` file has one entry per key, any other CSV file one per
    header column, and any other file one entry of every token.
    """
    lines = text.splitlines()
    if lines[0] == "key,value":
        return "key", {key: [value] for key, value in (line.split(",", 1) for line in lines[1:])}
    if "," in lines[0]:
        names = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        return "column", {name: [row[i] for row in rows] for i, name in enumerate(names)}
    return "column", {"all tokens": text.split()}


def describe_difference(path, expected, got):
    """Name each entry of the file that differs.

    It gives the entry's first changed cell that is not a number, and the
    largest absolute and relative difference of its numbers.
    """
    lines = [f"{path} differs from the golden file"]
    kind, want = cells(expected)
    _, have = cells(got)
    for name in [*want, *(name for name in have if name not in want)]:
        a, b = want.get(name), have.get(name)
        if a is None or b is None or len(a) != len(b):
            lines.append(f"  {kind} {name!r}: {None if a is None else len(a)} golden cells, "
                         f"{None if b is None else len(b)} now")
            continue
        x, y = np.array([number(c) for c in a]), np.array([number(c) for c in b])
        text = np.isnan(x) | np.isnan(y)
        changed = [i for i in np.flatnonzero(text) if a[i] != b[i]]
        if changed:
            i = changed[0]
            row = "" if kind == "key" else f" row {i + 1}"
            lines.append(f"  {kind} {name!r}{row}: {a[i]!r} golden, {b[i]!r} now")
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = np.where(text, 0.0, np.abs(x - y))
            rel = np.where(diff != 0, diff / np.abs(x), 0.0)
        if (diff != 0).any():
            lines.append(f"  {kind} {name!r}: largest absolute difference {np.nanmax(diff):.3e}, "
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


def test_difference_is_named_per_key_and_per_changed_text_cell():
    summary = "key,value\nstopping_reason,update_tolerance\niterations,8\nfitted_c,0.5\n"
    moved = "key,value\nstopping_reason,max_iterations\niterations,8\nfitted_c,0.25\n"
    assert describe_difference("summary.csv", summary, moved).splitlines() == [
        "summary.csv differs from the golden file",
        "  key 'stopping_reason': 'update_tolerance' golden, 'max_iterations' now",
        "  key 'fitted_c': largest absolute difference 2.500e-01, largest relative 5.000e-01",
    ]
    study = "mesh_n,error,status\n8,1e-9,ok\n16,2e-9,ok\n"
    failed = "mesh_n,error,status\n8,1e-9,ok\n16,nan,failed\n"
    assert describe_difference("study.csv", study, failed).splitlines() == [
        "study.csv differs from the golden file",
        "  column 'error' row 2: '2e-9' golden, 'nan' now",
        "  column 'status' row 2: 'ok' golden, 'failed' now",
    ]
