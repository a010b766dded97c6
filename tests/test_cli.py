import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matmi
from matmi import cli, recon
from matmi.cli import ConfigError, RunConfig, parse_config, main
from matmi.fem import ScalarField, VectorField
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
    choice = r"'data.mode': expected one of \('in-crime', 'fine-mesh'\), got 'magic'"
    with pytest.raises(ConfigError, match=choice):
        parse_config("data.mode = magic\n")


def test_numeric_validation():
    with pytest.raises(ConfigError):
        parse_config("mesh.n = 0\n")
    with pytest.raises(ConfigError):
        parse_config("recon.tolerance_misfit = -1\n")
    with pytest.raises(ConfigError):
        parse_config("domain.x_min = 2\ndomain.x_max = 1\n")


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
        Path(out, "diagnostics.csv").read_text().splitlines()[1:]
    )
    assert float(diag["field_norm"]) <= 0.40825


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["forward", "--config", cfg, "--out", out1]) == 0
    assert main(["forward", "--config", cfg, "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2, name


def test_writers_match_per_scalar_formatting(tmp_path):
    # 5041 nodes and 9800 elements: the rows cross the writers' conversion blocks
    mesh = build_mesh(70, 70, (-0.3, 1.7, 0.1, 0.4))
    rng = np.random.RandomState(3)
    field = ScalarField(mesh, rng.randn(mesh.n_nodes) * 10.0 ** rng.randint(-20, 20, mesh.n_nodes))
    vectors = VectorField(mesh, rng.randn(mesh.n_elements, 2))

    cli.write_scalar_csv(str(tmp_path / "s.csv"), field)
    expected = "x,y,value\n" + "".join(
        f"{x:.17g},{y:.17g},{v:.17g}\n" for (x, y), v in zip(mesh.nodes, field.values)
    )
    assert (tmp_path / "s.csv").read_text() == expected

    cli.write_vector_csv(str(tmp_path / "v.csv"), vectors)
    expected = "x,y,vx,vy\n" + "".join(
        f"{x:.17g},{y:.17g},{a:.17g},{b:.17g}\n"
        for (x, y), (a, b) in zip(mesh.element_centroids, vectors.values)
    )
    assert (tmp_path / "v.csv").read_text() == expected

    cli.write_vtk(str(tmp_path / "f.vtk"), {"f": field})
    lines = (tmp_path / "f.vtk").read_text().splitlines()
    points = lines.index(f"POINTS {mesh.n_nodes} double")
    expected = [f"{x:.17g} {y:.17g} 0" for x, y in mesh.nodes]
    assert lines[points + 1:points + 1 + mesh.n_nodes] == expected
    cells = lines.index(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    expected = [f"3 {a} {b} {c}" for a, b, c in mesh.elements]
    assert lines[cells + 1:cells + 1 + mesh.n_elements] == expected
    assert lines[-mesh.n_nodes:] == [f"{v:.17g}" for v in field.values]


def test_invert_synthesized(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == 0
    summary = dict(
        line.split(",") for line in
        Path(out, "summary.csv").read_text().splitlines()[1:]
    )
    assert float(summary["final_rel_error"]) <= 1e-6
    assert int(summary["iterations"]) <= 30
    assert int(summary["cg_iterations"]) > 0
    assert 1 <= int(summary["transport_factors"]) <= int(summary["iterations"])
    report = Path(out, "report.csv").read_text().splitlines()
    assert report[0] == "k,update,misfit,rel_error,abs_error,cg_iterations,transport_factors"
    assert len(report) >= 3


def test_report_counts_match_the_solver_calls(tmp_path, monkeypatch):
    # the per-sweep columns of report.csv add up to the CG iterations and LU
    # factors the solvers did; file data, so the run does no other solve
    cfg = write_config(tmp_path)
    fwd_out = str(tmp_path / "fwd")
    assert main(["forward", "--config", cfg, "--out", fwd_out]) == 0
    text = BASE_CONFIG + f"data.file = {fwd_out}/data.csv\n"
    cfg2 = write_config(tmp_path, text, name="run2.cfg")

    counted = {"cg": 0, "factors": 0}
    pcg, splu = cli.fem._projected_pcg, cli.fem.spla.splu

    def counting_pcg(*args, **kwargs):
        x, residuals = pcg(*args, **kwargs)
        counted["cg"] += len(residuals) - 1
        return x, residuals

    # the transport factor is of the free block; the multigrid's coarse one is smaller
    free = build_mesh(16, 16).interior_order.size

    def counting_splu(matrix, *args, **kwargs):
        counted["factors"] += matrix.shape[0] == free
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(cli.fem, "_projected_pcg", counting_pcg)
    monkeypatch.setattr(cli.fem.spla, "splu", counting_splu)
    out = str(tmp_path / "inv")
    assert main(["invert", "--config", cfg2, "--out", out]) == 0
    rows = Path(out, "report.csv").read_text().splitlines()
    header = rows[0].split(",")
    columns = np.array([row.split(",") for row in rows[1:]], dtype=float)
    cg = columns[:, header.index("cg_iterations")]
    factors = columns[:, header.index("transport_factors")]
    assert counted["cg"] > 0 and counted["factors"] >= 1
    assert cg.sum() == counted["cg"]
    assert factors.sum() == counted["factors"]
    assert factors[0] == 0 and factors[1] == 1


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
        Path(out, "summary.csv").read_text().splitlines()[1:]
    )
    assert int(summary["iterations"]) <= 2
    assert float(summary["final_abs_error"]) < 1e-7


def test_invert_from_file_roundtrip(tmp_path):
    cfg = write_config(tmp_path)
    fwd_out = str(tmp_path / "fwd")
    assert main(["forward", "--config", cfg, "--out", fwd_out]) == 0
    data_file = os.path.join(fwd_out, "data.csv")
    text = BASE_CONFIG + f"data.file = {data_file}\n"
    cfg2 = write_config(tmp_path, text, name="run2.cfg")
    out = str(tmp_path / "inv")
    assert main(["invert", "--config", cfg2, "--out", out]) == 0
    summary = dict(
        line.split(",") for line in
        Path(out, "summary.csv").read_text().splitlines()[1:]
    )
    assert float(summary["final_rel_error"]) <= 1e-6


def test_invert_missing_data_file(tmp_path):
    text = BASE_CONFIG + "data.file = /nonexistent/g.csv\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert not os.path.exists(out)  # no partial outputs


def test_data_file_alone_selects_file_data(tmp_path, capsys):
    # the file was ignored unless data.source = file was also set: the run
    # reconstructed from synthesized data and exited 0
    cfg = write_config(tmp_path, "mesh.n = 8\ndata.file = /nonexistent/g.csv\n")
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert "cannot read data file /nonexistent/g.csv" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_data_source_is_not_a_key():
    with pytest.raises(ConfigError, match="line 2: unknown key 'data.source'"):
        parse_config("mesh.n = 8\ndata.source = file\n")


def test_data_file_directory_rejected(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    text = BASE_CONFIG + f"data.file = {data_dir}\n"
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
    text = BASE_CONFIG + f"data.file = {data_file}\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert str(data_file) in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("content", ["", "x,y,value\n"], ids=["empty", "header-only"])
def test_data_file_without_rows_fails_with_only_the_error(tmp_path, capsys, content):
    data_file = tmp_path / "g.csv"
    data_file.write_text(content)
    cfg = write_config(tmp_path, BASE_CONFIG + f"data.file = {data_file}\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {data_file}: expected 289 rows of x,y,value, got shape (0,)\n"
    )


def test_data_file_from_a_shifted_mesh_rejected(tmp_path, capsys):
    # a relative tolerance scales with the coordinates: at x = 1000 it passed a
    # file written on a mesh shifted by 0.006, 4.8% of a cell
    domain = "mesh.n = 8\ndomain.x_min = {:.17g}\ndomain.x_max = {:.17g}\nphantom.bumps =\n"
    text = domain.format(1000.0, 1001.0)
    out = str(tmp_path / "out")
    assert main(["forward", "--config", write_config(tmp_path, text), "--out", out]) == 0
    data_file = os.path.join(out, "data.csv")
    shifted = str(tmp_path / "shifted")
    shifted_text = domain.format(1000.006, 1001.006)
    assert main(["forward", "--config", write_config(tmp_path, shifted_text, "shifted.cfg"),
                 "--out", shifted]) == 0
    shifted_data = os.path.join(shifted, "data.csv")
    for source, code in ((data_file, cli.EXIT_OK), (shifted_data, cli.EXIT_CONFIG)):
        run = text + f"recon.max_iterations = 2\ndata.file = {source}\n"
        cfg = write_config(tmp_path, run)
        assert main(["invert", "--config", cfg, "--out", str(tmp_path / "inv")]) == code
    assert "do not match the mesh" in capsys.readouterr().err


@pytest.mark.parametrize("node", ["boundary", "interior"])
def test_nonfinite_data_file_rejected(tmp_path, node):
    mesh = build_mesh(16, 16)
    values = np.full(mesh.n_nodes, 0.2)
    nodes = mesh.boundary_nodes if node == "boundary" else np.sort(mesh.interior_order)
    values[nodes[3]] = np.nan
    data_file = str(tmp_path / "g.csv")
    from matmi import fem
    cli.write_scalar_csv(data_file, fem.ScalarField(mesh, values))
    with pytest.raises(ConfigError, match="non-finite"):
        cli.read_scalar_csv(data_file, mesh)
    text = BASE_CONFIG + f"data.file = {data_file}\n"
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
    text = BASE_CONFIG + f"data.file = {data_file}\n"
    cfg = write_config(tmp_path, text)
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_SOLVER


@pytest.mark.parametrize("command", ["forward", "invert", "study"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_below_a_file_rejected_before_any_solve(tmp_path, monkeypatch, capsys, command, below):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr(cli.forward, "compute_field", no_solve)
    cfg = write_config(tmp_path, BASE_CONFIG + "study.mesh_sizes = 8\n")
    (tmp_path / "taken").write_text("")
    before = sorted(os.listdir(tmp_path))
    out = os.path.join(str(tmp_path / "taken"), below)
    assert main([command, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert out in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["phantom", "forward", "invert"])
@pytest.mark.parametrize("domain", [
    "domain.x_max = 1e300\ndomain.y_max = 1e300\n",   # areas overflow
    "domain.x_max = 1e-320\n",                         # gradients overflow
    "domain.x_max = 1e-155\n",                         # couplings overflow
    "domain.x_max = 1e300\n",                          # couplings underflow
])
def test_domain_outside_float_range_is_config_error(tmp_path, capsys, command, domain):
    cfg = write_config(tmp_path, "mesh.n = 8\n" + domain)
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert "domain" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["phantom", "forward", "invert"])
@pytest.mark.parametrize("x_max, code", [
    *((x, cli.EXIT_OK) for x in ("1e20", "1e40", "1e60", "1e70")),
    *((x, cli.EXIT_CONFIG) for x in ("1e80", "1e100", "1e150", "1e160")),
])
def test_domain_whose_gauge_load_overflows_is_config_error(tmp_path, capsys, command, x_max, code):
    # past the ceiling, phantom exited 0; forward and invert warned of overflow in
    # the norm of the gauge load, then exited 3 "CG residual is not finite after 0 iterations"
    cfg = write_config(tmp_path, f"mesh.n = 8\ndomain.x_max = {x_max}\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, "--out", out]) == code
    assert ("domain.*" in capsys.readouterr().err) == (code == cli.EXIT_CONFIG)
    assert os.path.exists(out) == (code == cli.EXIT_OK)


@pytest.mark.parametrize("bumps", [
    "0.5 0.5 0.1 -0.1",     # negative width
    "0.5 0.5 -0.3 0.12",    # cancels the background
    "0.5 0.5 -0.1995 0.3",  # dips below the admissibility floor
])
def test_inadmissible_phantom_names_its_key(tmp_path, capsys, bumps):
    cfg = write_config(tmp_path, f"mesh.n = 8\nphantom.bumps = {bumps}\n")
    out = str(tmp_path / "out")
    assert main(["phantom", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert "phantom.bumps" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_background_below_floor_names_its_key(tmp_path, capsys):
    # with no bumps the phantom is its background; the message blamed phantom.bumps
    cfg = write_config(tmp_path, "mesh.n = 8\nphantom.background = 1e-4\nphantom.bumps =\n")
    out = str(tmp_path / "out")
    assert main(["phantom", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "phantom.background" in err and "phantom.bumps" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["phantom", "forward", "invert"])
@pytest.mark.parametrize("width", ["1e-300", "1e300"])
def test_bump_width_without_a_float64_square_names_its_key(tmp_path, capsys, command, width):
    # 1e-300: 2 w**2 underflowed to 0, phantom wrote NaN and exited 0, and
    # forward and invert let a ValueError escape; 1e300: w**2 raised OverflowError
    cfg = write_config(tmp_path, f"mesh.n = 8\nphantom.bumps = 0.5 0.5 0.1 {width}\n")
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert "phantom.bumps" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("width", ["1e-300", "1e300"])
def test_study_row_with_a_bump_width_without_a_float64_square_fails(tmp_path, width):
    # both widths let an exception escape main
    text = f"mesh.n = 8\nphantom.bumps = 0.5 0.5 0.1 {width}\nstudy.amplitude_scales = 1 2\n"
    out = str(tmp_path / "out")
    assert main(["study", "--config", write_config(tmp_path, text), "--out", out]) == 0
    lines = Path(out, "study.csv").read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["failed: ConfigError"] * 2


def test_narrow_bump_evaluates_to_its_limit(tmp_path):
    # 2 w**2 is a positive subnormal: off the centre node the Gaussian is 0
    cfg = write_config(tmp_path, "mesh.n = 8\nphantom.bumps = 0.5 0.5 0.1 1e-160\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["phantom", "--config", cfg, "--out", out]) == cli.EXIT_OK
    values = np.loadtxt(os.path.join(out, "phantom.csv"), delimiter=",", skiprows=1)[:, 2]
    assert sorted(set(values)) == [0.2, 0.2 + 0.1]


@pytest.mark.parametrize("command", ["phantom", "forward", "invert"])
@pytest.mark.parametrize("phantom, key", [
    ("phantom.background = 1e300\n", "phantom.background must"),
    ("phantom.background = 1e149\nphantom.bumps = 0.5 0.5 1e150 0.12\n", "phantom.bumps"),
])
def test_conductivity_above_ceiling_is_config_error(tmp_path, capsys, command, phantom, key):
    # phantom wrote l2_norm,inf; forward and invert warned of overflow, then exited 3
    cfg = write_config(tmp_path, "mesh.n = 8\n" + phantom)
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["phantom", "forward", "invert"])
@pytest.mark.parametrize("background", ["1e100", "1e150"])
def test_large_conductivity_below_ceiling_runs(tmp_path, command, background):
    cfg = write_config(tmp_path, f"mesh.n = 8\nphantom.background = {background}\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, "--out", out]) == cli.EXIT_OK


@pytest.mark.parametrize("text, key", [
    ("mesh.n = 2897\n", "mesh.n"),
    ("mesh.n = 1449\ndata.mode = fine-mesh\n", "mesh.n"),
    ("study.mesh_sizes = 8 2897\n", "study.mesh_sizes"),
    ("study.mesh_sizes = 8 0\n", "study.mesh_sizes"),
])
def test_mesh_size_beyond_int32_indices_rejected(text, key):
    # parse_config builds each mesh, but build_mesh rejects the count before it allocates
    with pytest.raises(ConfigError, match=key):
        parse_config(text)


def test_largest_mesh_sizes_accepted():
    assert parse_config("mesh.n = 2896\n").mesh_n == 2896
    assert parse_config("mesh.n = 1448\ndata.mode = fine-mesh\n").mesh_n == 1448
    assert parse_config("study.mesh_sizes = 2896\n").mesh_sizes == (2896,)


def test_in_crime_study_row_solves_the_truth_field_once(tmp_path, monkeypatch):
    solved = []
    original = cli.forward.compute_field

    def counting(sigma, *args, **kwargs):
        solved.append(sigma)
        return original(sigma, *args, **kwargs)

    monkeypatch.setattr(cli.forward, "compute_field", counting)
    cfg = write_config(tmp_path, BASE_CONFIG + "study.mesh_sizes = 8\n")
    out = str(tmp_path / "out")
    assert main(["study", "--config", cfg, "--out", out]) == 0
    header, row = Path(out, "study.csv").read_text().splitlines()
    sweeps = int(dict(zip(header.split(","), row.split(",")))["iterations"])
    # one truth solve for data and diagnostic, one field solve per iterate
    assert len(solved) == 1 + (sweeps + 1)


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
    lines = Path(out, "study.csv").read_text().splitlines()
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
    lines = Path(out, "study.csv").read_text().splitlines()
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
    lines = Path(out, "study.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "failed: ConfigError"


def test_study_row_scaled_past_the_ceiling_is_config_error(tmp_path):
    # the row warned of overflow and failed as a SolverError
    cfg = write_config(tmp_path, "mesh.n = 8\nstudy.amplitude_scales = 1 1e305\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["study", "--config", cfg, "--out", out]) == 0
    lines = Path(out, "study.csv").read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["ok", "failed: ConfigError"]


def test_study_on_a_rejected_domain_fails_at_parse(tmp_path, capsys):
    # each row was written as "failed: ConfigError" and the study exited 0
    text = "mesh.n = 8\ndomain.x_max = 1e-155\nstudy.mesh_sizes = 8 16\n"
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["study", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert "domain.*" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "study.csv"))


def test_fine_mesh_study_row_matches_invert_of_scaled_phantom(tmp_path):
    # a scaled row must synthesize its data from the phantom it is scored against
    study_text = """
mesh.n = 16
phantom.bumps = 0.4 0.6 0.1 0.12
data.mode = fine-mesh
study.amplitude_scales = 1 2
"""
    out = str(tmp_path / "study")
    assert main(["study", "--config", write_config(tmp_path, study_text), "--out", out]) == 0
    lines = Path(out, "study.csv").read_text().splitlines()
    header = lines[0].split(",")
    doubled = dict(zip(header, lines[2].split(",")))

    invert_text = """
mesh.n = 16
phantom.bumps = 0.4 0.6 0.2 0.12
data.mode = fine-mesh
"""
    out = str(tmp_path / "invert")
    cfg = write_config(tmp_path, invert_text, name="invert.cfg")
    assert main(["invert", "--config", cfg, "--out", out]) == 0
    summary = dict(
        line.split(",") for line in
        Path(out, "summary.csv").read_text().splitlines()[1:]
    )
    assert doubled["amplitude_scale"] == "2"
    assert doubled["iterations"] == summary["iterations"] == "10"
    assert doubled["final_rel_error"] == summary["final_rel_error"]
    assert float(doubled["final_rel_error"]) == pytest.approx(0.029874651608803315, rel=1e-6)


def test_study_requires_sweep(tmp_path):
    cfg = write_config(tmp_path)  # no study lists
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_phantom_command(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG + "output.vtk = true\n")
    out = str(tmp_path / "out")
    assert main(["phantom", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "phantom.csv"))
    assert os.path.exists(os.path.join(out, "phantom_properties.csv"))
    vtk = Path(out, "phantom.vtk").read_text().splitlines()
    assert vtk[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in vtk
    assert any(line.startswith("POINT_DATA") for line in vtk)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_honour_the_umask(tmp_path, umask, mode):
    cfg = write_config(tmp_path, BASE_CONFIG + "output.vtk = true\n")
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert main(["phantom", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    names = sorted(os.listdir(out))
    assert names == ["phantom.csv", "phantom.vtk", "phantom_properties.csv"]
    for name in names:
        assert os.stat(out / name).st_mode & 0o777 == mode, name
    # a failed rename leaves no temporary file behind
    (out / "taken").mkdir()
    with pytest.raises(OSError):
        cli._write_atomic(str(out / "taken"), "x\n")
    assert sorted(os.listdir(out)) == sorted(names + ["taken"])


def test_python_m_matmi_runs_the_cli(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    # the tested package, installed or not
    src = os.path.dirname(os.path.dirname(matmi.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "matmi", *args], env=env, capture_output=True, text=True,
        )

    done = run("phantom", "--config", cfg, "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert (out / "phantom.csv").exists()
    assert run("phantom", "--config", str(tmp_path / "missing.cfg")).returncode == cli.EXIT_CONFIG


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
        Path(out, "summary.csv").read_text().splitlines()[1:]
    )
    # off-mesh data: the fixed point is no longer exact, errors stall at the
    # discretisation level rather than the solver floor
    assert float(summary["final_rel_error"]) < 0.05
    assert float(summary["final_rel_error"]) > 1e-9


# ---------------------------------------------------------------------------
# input boundary property

#: floats log-uniform in magnitude over the float64 range, of either sign
wide_floats = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-323, 307),
)
#: edge text for a number: tiny, huge, negative, empty, not finite, log-uniform
edge_numbers = st.one_of(
    st.sampled_from(["0", "-0", "1e-300", "1e300", "-1", "", "nan", "inf", "1e309", "x"]),
    wide_floats.map(repr),
)


def mostly(plausible, edge=edge_numbers):
    """Plausible values two times in three, so that some runs get past the parser."""
    return st.integers(0, 2).flatmap(lambda k: edge if k == 0 else plausible)


def floats_text(lo, hi):
    return st.floats(lo, hi).map(repr)


#: mesh sizes up to 12, or edge sizes that are rejected before a mesh is built
sizes = mostly(
    st.integers(1, 12).map(str), st.sampled_from(["0", "-1", "", "99999", "1e3", "2.5"]),
)
bump = st.tuples(
    mostly(floats_text(0.0, 1.0)), mostly(floats_text(0.0, 1.0)),
    mostly(floats_text(-0.15, 0.5)), mostly(floats_text(0.02, 0.3)),
).map(" ".join)

#: a value for each key of the config table, at most 2 study rows by 2
KEY_VALUES = {
    "mesh.n": sizes,
    "domain.x_min": mostly(floats_text(-1.0, 0.5)),
    "domain.x_max": mostly(floats_text(0.6, 3.0)),
    "domain.y_min": mostly(floats_text(-1.0, 0.5)),
    "domain.y_max": mostly(floats_text(0.6, 3.0)),
    "phantom.background": mostly(floats_text(0.01, 5.0)),
    "phantom.collar_width": mostly(floats_text(0.01, 0.4)),
    "phantom.bumps": st.lists(bump, max_size=2).map(" ; ".join),
    "recon.max_iterations": mostly(
        st.sampled_from(["1", "2", "5", "30"]), st.sampled_from(["0", "-5", "", "2.5"]),
    ),
    "recon.tolerance_update": mostly(st.floats(-12.0, -2.0).map(lambda e: repr(10.0**e))),
    "recon.tolerance_misfit": mostly(st.floats(-12.0, -2.0).map(lambda e: repr(10.0**e))),
    "recon.initial_model": st.sampled_from(["background", "phantom", "", "other"]),
    "data.file": st.sampled_from(["", "/nonexistent/data.csv"]),
    "data.truth": st.sampled_from(["phantom", "background", "", "other"]),
    "data.mode": st.sampled_from(["in-crime", "fine-mesh", "", "other"]),
    "study.mesh_sizes": st.lists(sizes, max_size=2).map(" ".join),
    "study.amplitude_scales": st.lists(mostly(floats_text(-2.0, 3.0)), max_size=2).map(" ".join),
    "output.vtk": st.sampled_from(["true", "false", "", "maybe"]),
}


def test_key_values_cover_the_config_table():
    assert set(KEY_VALUES) == set(cli._KEYS)


@st.composite
def config_texts(draw):
    """Config text of mesh.n and up to four of the other keys."""
    keys = draw(st.sets(st.sampled_from(sorted(set(KEY_VALUES) - {"mesh.n"})), max_size=4))
    lines = [f"{key} = {draw(KEY_VALUES[key])}" for key in ["mesh.n", *sorted(keys)]]
    return "\n".join(lines) + "\n"


def assert_written_numbers_finite(out):
    """Every number in the files under ``out`` is finite, but the documented NaNs.

    Those are the fit of a report with fewer than 5 usable errors, and, in a
    study, the fit of an unfittable row and every column of a failed row.
    """
    for name in os.listdir(out):
        lines = Path(out, name).read_text().splitlines()
        if name == "summary.csv":
            summary = dict(line.split(",", 1) for line in lines[1:])
            report = np.loadtxt(os.path.join(out, "report.csv"), delimiter=",",
                                skiprows=1, ndmin=2)
            errors = report[:, 4]
            usable = np.isfinite(errors) & (errors > 10 * recon.SOLVER_FLOOR)
            if usable.sum() < 5:
                lines = [line for line in lines
                         if line not in ("fitted_c,nan", "fit_r_squared,nan")]
        if name == "study.csv":
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            lines = [",".join(v for k, v in row.items()
                              if k not in ("fitted_c", "fit_r_squared"))
                     for row in rows if row["status"] == "ok"]
        for line in lines:
            for token in line.replace(",", " ").split():
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert np.isfinite(value), f"{name}: {line}"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(text=config_texts())
@example(text="mesh.n = 8\nphantom.bumps = 0.5 0.5 0.1 1e-300\nstudy.amplitude_scales = 1\n")
@example(text="mesh.n = 8\nphantom.bumps = 0.5 0.5 0.1 1e300\nstudy.amplitude_scales = 1\n")
def test_input_boundary_exit_codes_and_finite_output(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as handle:
            handle.write(text)
        for command in ("phantom", "forward", "invert", "study"):
            out = os.path.join(tmp, command)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main([command, "--config", cfg, "--out", out])
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER)
            if code == cli.EXIT_OK:
                assert_written_numbers_finite(out)
