import os

import numpy as np
import pytest

from matmi import cli
from matmi.cli import ConfigError, RunConfig, parse_config, main
from matmi.mesh import build_mesh


BASE_CONFIG = """
mesh.n = 16
phantom.background = 0.2
phantom.bumps = 0.4 0.6 0.1 0.12
recon.max_iterations = 50
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_roundtrip_nondefault_values():
    text = """
mesh.n = 24
domain.x_max = 2.5
phantom.bumps = 0.3 0.4 0.05 0.1 ; 0.6 0.7 -0.04 0.2
phantom.collar_width = 0.2
recon.tolerance_update = 1e-9
data.mode = fine-mesh
study.mesh_sizes = 8 16 32
study.amplitude_scales = 1 1.5
output.vtk = true
"""
    config = parse_config(text)
    assert config.mesh_n == 24
    assert len(config.bumps) == 2
    assert config.bumps[1].amplitude == -0.04


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("mesh.n = 8\n\nnot.a.key = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("mesh.n = 8\nmesh.n = 16\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="mesh.n"):
        parse_config("mesh.n = sixty-four\n")
    with pytest.raises(ConfigError, match="bump"):
        parse_config("phantom.bumps = 0.5 0.5 0.1\n")
    with pytest.raises(ConfigError):
        parse_config("data.mode = magic\n")


def test_numeric_validation():
    with pytest.raises(ConfigError):
        parse_config("mesh.n = 0\n")
    with pytest.raises(ConfigError):
        parse_config("recon.tolerance_misfit = -1\n")
    with pytest.raises(ConfigError):
        parse_config("domain.x_min = 2\ndomain.x_max = 1\n")
    with pytest.raises(ConfigError):
        parse_config("data.source = file\n")  # missing data.file


@pytest.mark.parametrize("line", [
    "phantom.background = nan",
    "recon.tolerance_update = inf",
    "phantom.bumps = 0.4 0.6 nan 0.12",
    "study.amplitude_scales = 1 -inf",
])
def test_nonfinite_config_value_rejected(tmp_path, line):
    with pytest.raises(ConfigError, match="finite"):
        parse_config(line + "\n")
    cfg = write_config(tmp_path, BASE_CONFIG + line + "\n")
    out = str(tmp_path / "out")
    assert main(["phantom", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert not os.path.exists(out)


def test_comments_and_blanks_ignored():
    config = parse_config("# comment\n\nmesh.n = 8  # trailing\n")
    assert config.mesh_n == 8


# ---------------------------------------------------------------------------
# commands

def test_forward_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["forward", "--config", cfg, "--out", out]) == 0
    for name in ("sigma.csv", "potential.csv", "field.csv", "data.csv", "diagnostics.csv"):
        assert os.path.exists(os.path.join(out, name))
    sigma = cli.read_scalar_csv(os.path.join(out, "sigma.csv"), build_mesh(16, 16))
    assert sigma.values.min() >= 0.2 - 1e-12


def test_forward_constant_phantom_data(tmp_path):
    cfg = write_config(tmp_path, "mesh.n = 64\nphantom.bumps =\n")
    out = str(tmp_path / "out")
    assert main(["forward", "--config", cfg, "--out", out]) == 0
    data = cli.read_scalar_csv(os.path.join(out, "data.csv"), build_mesh(64, 64))
    assert np.abs(data.values - 0.2).max() <= 1e-10
    diag = dict(
        line.split(",") for line in
        open(os.path.join(out, "diagnostics.csv")).read().splitlines()[1:]
    )
    assert float(diag["field_norm"]) <= 0.40825


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["forward", "--config", cfg, "--out", out1]) == 0
    assert main(["forward", "--config", cfg, "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_invert_synthesized(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == 0
    summary = dict(
        line.split(",") for line in
        open(os.path.join(out, "summary.csv")).read().splitlines()[1:]
    )
    assert float(summary["final_rel_error"]) <= 1e-6
    assert int(summary["iterations"]) <= 30
    report = open(os.path.join(out, "report.csv")).read().splitlines()
    assert report[0] == "k,update,misfit,rel_error,abs_error"
    assert len(report) >= 3


def test_invert_reverse_example(tmp_path):
    text = """
mesh.n = 64
phantom.bumps = 0.4 0.6 0.1 0.12
recon.initial_model = phantom
data.truth = background
"""
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == 0
    summary = dict(
        line.split(",") for line in
        open(os.path.join(out, "summary.csv")).read().splitlines()[1:]
    )
    assert int(summary["iterations"]) <= 2
    assert float(summary["final_abs_error"]) < 1e-7


def test_invert_from_file_roundtrip(tmp_path):
    cfg = write_config(tmp_path)
    fwd_out = str(tmp_path / "fwd")
    assert main(["forward", "--config", cfg, "--out", fwd_out]) == 0
    data_file = os.path.join(fwd_out, "data.csv")
    text = BASE_CONFIG + f"data.source = file\ndata.file = {data_file}\n"
    cfg2 = write_config(tmp_path, text, name="run2.cfg")
    out = str(tmp_path / "inv")
    assert main(["invert", "--config", cfg2, "--out", out]) == 0
    summary = dict(
        line.split(",") for line in
        open(os.path.join(out, "summary.csv")).read().splitlines()[1:]
    )
    assert float(summary["final_rel_error"]) <= 1e-6


def test_invert_missing_data_file(tmp_path):
    text = BASE_CONFIG + "data.source = file\ndata.file = /nonexistent/g.csv\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert not os.path.exists(out)  # no partial outputs


def test_data_file_directory_rejected(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    text = BASE_CONFIG + f"data.source = file\ndata.file = {data_dir}\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert str(data_dir) in capsys.readouterr().err
    assert not os.path.exists(out)


def test_malformed_data_file_rejected(tmp_path, capsys):
    mesh = build_mesh(16, 16)
    data_file = tmp_path / "g.csv"
    from matmi import fem
    cli.write_scalar_csv(str(data_file), fem.constant_field(mesh, 0.2))
    lines = data_file.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",abc"
    data_file.write_text("\n".join(lines) + "\n")
    text = BASE_CONFIG + f"data.source = file\ndata.file = {data_file}\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert str(data_file) in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("node", ["boundary", "interior"])
def test_nonfinite_data_file_rejected(tmp_path, node):
    mesh = build_mesh(16, 16)
    values = np.full(mesh.n_nodes, 0.2)
    nodes = mesh.boundary_nodes if node == "boundary" else mesh.interior_nodes
    values[nodes[3]] = np.nan
    data_file = str(tmp_path / "g.csv")
    from matmi import fem
    cli.write_scalar_csv(data_file, fem.ScalarField(mesh, values))
    with pytest.raises(ConfigError, match="non-finite"):
        cli.read_scalar_csv(data_file, mesh)
    text = BASE_CONFIG + f"data.source = file\ndata.file = {data_file}\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert not os.path.exists(out)


def test_solver_failure_exit_code(tmp_path):
    # data far outside the admissible range drives the iterate below the floor
    mesh = build_mesh(16, 16)
    from matmi import fem
    bad = fem.constant_field(mesh, -1.0)
    data_file = str(tmp_path / "bad.csv")
    cli.write_scalar_csv(data_file, bad)
    text = BASE_CONFIG + f"data.source = file\ndata.file = {data_file}\n"
    cfg = write_config(tmp_path, text)
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_SOLVER


def test_study_sweep(tmp_path):
    text = """
mesh.n = 16
phantom.bumps = 0.4 0.6 0.1 0.12
study.mesh_sizes = 8 16 32
recon.max_iterations = 60
"""
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["study", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "study.csv")).read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["status"] for r in rows] == ["ok"] * 3
    divergence = [float(r["divergence_identity_error"]) for r in rows]
    assert divergence[0] > divergence[1] > divergence[2]


def test_study_amplitude_trend(tmp_path):
    text = """
mesh.n = 32
phantom.bumps = 0.4 0.6 0.1 0.12
study.amplitude_scales = 1.0 1.6
recon.max_iterations = 80
"""
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["study", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "study.csv")).read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    grads = [float(r["gradient_sup"]) for r in rows]
    cs = [float(r["fitted_c"]) for r in rows]
    assert grads[1] > grads[0]
    assert cs[1] > cs[0]


def test_study_failed_run_recorded(tmp_path):
    # the scaled-up amplitude dips the phantom below the admissibility floor;
    # the sweep records the failure and carries on
    text = """
mesh.n = 8
phantom.bumps = 0.5 0.5 -0.15 0.15
study.amplitude_scales = 1.0 1.4
"""
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["study", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "study.csv")).read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("failed")


def test_study_requires_sweep(tmp_path):
    cfg = write_config(tmp_path)  # no study lists
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_phantom_command(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG + "output.vtk = true\n")
    out = str(tmp_path / "out")
    assert main(["phantom", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "phantom.csv"))
    assert os.path.exists(os.path.join(out, "phantom_properties.csv"))
    vtk = open(os.path.join(out, "phantom.vtk")).read().splitlines()
    assert vtk[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in vtk
    assert any(line.startswith("POINT_DATA") for line in vtk)


def test_missing_config_file():
    assert main(["forward", "--config", "/nonexistent.cfg"]) == cli.EXIT_CONFIG


def test_fine_mesh_data_mode(tmp_path):
    text = """
mesh.n = 16
phantom.bumps = 0.4 0.6 0.1 0.12
data.mode = fine-mesh
recon.max_iterations = 60
recon.tolerance_update = 1e-10
"""
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == 0
    summary = dict(
        line.split(",") for line in
        open(os.path.join(out, "summary.csv")).read().splitlines()[1:]
    )
    # off-mesh data: the fixed point is no longer exact, errors stall at the
    # discretisation level rather than the solver floor
    assert float(summary["final_rel_error"]) < 0.05
    assert float(summary["final_rel_error"]) > 1e-9
