"""Byte-identity oracle: rerun the committed golden cases and compare every file.

The cases, the command that regenerates them and ``describe_difference``
are in ``tests/golden/regenerate.py``.  A mismatch names the file and each
column, or each key of a ``key,value`` file, that changed: its first changed
cell that is not a number, and the largest absolute and relative difference
of its numbers.
"""

import importlib.util
import os

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_spec = importlib.util.spec_from_file_location(
    "golden_cases", os.path.join(GOLDEN, "regenerate.py"))
cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cases)
describe_difference = cases.describe_difference


def committed_files():
    """Relative paths of the committed output files, one directory per case."""
    out = []
    for case in sorted(os.listdir(GOLDEN)):
        if os.path.isdir(os.path.join(GOLDEN, case)) and not case.startswith("__"):
            out += [os.path.join(case, f) for f in sorted(os.listdir(os.path.join(GOLDEN, case)))]
    return out


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
