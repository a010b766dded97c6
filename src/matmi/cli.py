"""Command-line front end: config parsing, experiment orchestration, file output.

Configs are flat key-value text with dotted section keys::

    mesh.n = 64
    phantom.background = 0.2
    phantom.bumps = 0.4 0.6 0.1 0.12 ; 0.5 0.38 0.13 0.09
    recon.max_iterations = 200
    data.mode = in-crime

Unknown keys are rejected with their line number.  Fields are written as CSV
(node-ordered ``x,y,value`` with 17 significant digits, so reruns are
byte-identical) and optionally as legacy ASCII VTK for external viewers.
All files are written atomically (temp file plus rename).

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import fem, forward, recon
from .fem import ScalarField, SolverError, VectorField
from .mesh import Mesh, build_mesh
from .phantoms import Bump, PhantomSpec, make_phantom
from .recon import AdmissibilityError, ReconConfig, ReconReport

__all__ = [
    "RunConfig", "ConfigError", "parse_config",
    "cmd_forward", "cmd_invert", "cmd_study", "cmd_phantom", "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(Exception):
    """Invalid configuration file or option."""


@dataclass(frozen=True)
class RunConfig:
    mesh_n: int = 64
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0
    background: float = 0.2
    collar_width: float = 0.15
    bumps: tuple[Bump, ...] = (Bump((0.4, 0.6), 0.1, 0.12),)
    max_iterations: int = 200
    tolerance_update: float = 1e-8
    tolerance_misfit: float = 1e-10
    initial_model: str = "background"   # background | phantom
    data_source: str = "synthesize"     # synthesize | file
    data_file: str = ""
    data_truth: str = "phantom"         # phantom | background
    data_mode: str = "in-crime"         # in-crime | fine-mesh
    mesh_sizes: tuple[int, ...] = ()
    amplitude_scales: tuple[float, ...] = ()
    output_dir: str = "out"
    write_vtk: bool = False

    def phantom_spec(self, amplitude_scale: float = 1.0) -> PhantomSpec:
        bumps = tuple(
            Bump(b.center, b.amplitude * amplitude_scale, b.width) for b in self.bumps
        )
        return PhantomSpec(
            background=self.background, bumps=bumps, collar_width=self.collar_width,
        )

    def build_mesh(self, n: int | None = None) -> Mesh:
        n = self.mesh_n if n is None else n
        return build_mesh(n, n, (self.x_min, self.x_max, self.y_min, self.y_max))


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_bumps(text: str) -> tuple[Bump, ...]:
    bumps = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        numbers = [_parse_float(v) for v in part.split()]
        if len(numbers) != 4:
            raise ValueError(f"bump needs 4 numbers (cx cy amplitude width), got {part!r}")
        bumps.append(Bump((numbers[0], numbers[1]), numbers[2], numbers[3]))
    return tuple(bumps)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# key -> (attribute, parser)
_KEYS = {
    "mesh.n": ("mesh_n", int),
    "domain.x_min": ("x_min", _parse_float),
    "domain.x_max": ("x_max", _parse_float),
    "domain.y_min": ("y_min", _parse_float),
    "domain.y_max": ("y_max", _parse_float),
    "phantom.background": ("background", _parse_float),
    "phantom.collar_width": ("collar_width", _parse_float),
    "phantom.bumps": ("bumps", _parse_bumps),
    "recon.max_iterations": ("max_iterations", int),
    "recon.tolerance_update": ("tolerance_update", _parse_float),
    "recon.tolerance_misfit": ("tolerance_misfit", _parse_float),
    "recon.initial_model": ("initial_model", str),
    "data.source": ("data_source", str),
    "data.file": ("data_file", str),
    "data.truth": ("data_truth", str),
    "data.mode": ("data_mode", str),
    "study.mesh_sizes": ("mesh_sizes", lambda s: tuple(int(v) for v in s.split())),
    "study.amplitude_scales": (
        "amplitude_scales", lambda s: tuple(_parse_float(v) for v in s.split()),
    ),
    "output.dir": ("output_dir", str),
    "output.vtk": ("write_vtk", _parse_bool),
}

_CHOICES = {
    "recon.initial_model": ("background", "phantom"),
    "data.source": ("synthesize", "file"),
    "data.truth": ("phantom", "background"),
    "data.mode": ("in-crime", "fine-mesh"),
}


def parse_config(text: str) -> RunConfig:
    """Parse key-value config text; rejects unknown keys and bad values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        if key in _CHOICES and values[attr] not in _CHOICES[key]:
            raise ConfigError(
                f"line {lineno}: {key!r} must be one of {_CHOICES[key]}, got {value!r}"
            )
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.mesh_n < 1:
        raise ConfigError(f"mesh.n must be at least 1, got {config.mesh_n}")
    if not (config.x_min < config.x_max and config.y_min < config.y_max):
        raise ConfigError("domain bounds are degenerate")
    if config.background <= 0.0:
        raise ConfigError("phantom.background must be positive")
    if config.collar_width <= 0.0:
        raise ConfigError("phantom.collar_width must be positive")
    if config.max_iterations < 1:
        raise ConfigError("recon.max_iterations must be at least 1")
    if config.tolerance_update <= 0.0 or config.tolerance_misfit <= 0.0:
        raise ConfigError("recon tolerances must be positive")
    if any(n < 1 for n in config.mesh_sizes):
        raise ConfigError("study.mesh_sizes must be positive")
    if config.data_source == "file" and not config.data_file:
        raise ConfigError("data.source = file requires data.file")


# ---------------------------------------------------------------------------
# file output

def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows, header: str) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_scalar_csv(path: str, field: ScalarField) -> None:
    mesh = field.mesh
    rows = zip(mesh.nodes[:, 0], mesh.nodes[:, 1], field.values)
    _write_atomic(path, _csv(((float(x), float(y), float(v)) for x, y, v in rows), "x,y,value"))


def read_scalar_csv(path: str, mesh: Mesh) -> ScalarField:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    if data.shape != (mesh.n_nodes, 3):
        raise ConfigError(
            f"{path}: expected {mesh.n_nodes} rows of x,y,value, got shape {data.shape}"
        )
    if not np.allclose(data[:, :2], mesh.nodes, atol=1e-12):
        raise ConfigError(f"{path}: node coordinates do not match the mesh")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ConfigError(f"{path}: non-finite value in data row {row + 1}")
    return ScalarField(mesh, data[:, 2].copy())


def write_vector_csv(path: str, field: VectorField) -> None:
    mesh = field.mesh
    rows = zip(
        mesh.element_centroids[:, 0], mesh.element_centroids[:, 1],
        field.values[:, 0], field.values[:, 1],
    )
    _write_atomic(
        path, _csv(((float(a), float(b), float(c), float(d)) for a, b, c, d in rows), "x,y,vx,vy")
    )


def write_vtk(path: str, fields: dict[str, ScalarField]) -> None:
    """Legacy ASCII VTK unstructured grid with point data scalars."""
    mesh = next(iter(fields.values())).mesh
    lines = [
        "# vtk DataFile Version 2.0",
        "matmi fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    for x, y in mesh.nodes:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    for tri in mesh.elements:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend(["5"] * mesh.n_elements)
    lines.append(f"POINT_DATA {mesh.n_nodes}")
    for name, fld in fields.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.17g}" for v in fld.values)
    _write_atomic(path, "\n".join(lines) + "\n")


def write_report_csv(path: str, report: ReconReport) -> None:
    rows = zip(
        report.iterations,
        (float(v) for v in report.updates),
        (float(v) for v in report.misfits),
        (float(v) for v in report.rel_errors),
        (float(v) for v in report.abs_errors),
    )
    _write_atomic(path, _csv(rows, "k,update,misfit,rel_error,abs_error"))


def _write_keyvalue_csv(path: str, entries: dict[str, float | int | str]) -> None:
    rows = ((k, v if isinstance(v, str) else float(v)) for k, v in entries.items())
    lines = ["key,value"]
    for k, v in rows:
        lines.append(f"{k},{v:.17g}" if isinstance(v, float) else f"{k},{v}")
    _write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# data synthesis

def _restrict_from_refined(fine: ScalarField, coarse: Mesh) -> ScalarField:
    """Take nodal values at the coincident nodes of the 2x refined mesh."""
    fine_mesh = fine.mesh
    ii = np.arange(coarse.nx + 1) * 2
    jj = np.arange(coarse.ny + 1) * 2
    idx = (jj[:, None] * (fine_mesh.nx + 1) + ii[None, :]).ravel()
    return ScalarField(coarse, fine.values[idx].copy())


def synthesize_data(config: RunConfig, mesh: Mesh, truth: ScalarField) -> ScalarField:
    """In-crime data on the run mesh, or restriction of 2x fine-mesh data."""
    if config.data_mode == "in-crime":
        return forward.forward_map(truth)
    fine_mesh = build_mesh(
        2 * mesh.nx, 2 * mesh.ny, (mesh.x_min, mesh.x_max, mesh.y_min, mesh.y_max)
    )
    if config.data_truth == "background":
        fine_truth = fem.constant_field(fine_mesh, config.background)
    else:
        fine_truth = make_phantom(config.phantom_spec(), fine_mesh)
    return _restrict_from_refined(forward.forward_map(fine_truth), mesh)


def _truth_field(config: RunConfig, mesh: Mesh) -> ScalarField:
    if config.data_truth == "background":
        return fem.constant_field(mesh, config.background)
    return make_phantom(config.phantom_spec(), mesh)


def _reconstruct(
    config: RunConfig, g: ScalarField, sigma0: ScalarField, truth: ScalarField
) -> tuple[ScalarField, ReconReport, float, float]:
    """Reconstruct from ``g``; the fitted factor and its R^2 are NaN when
    the report has too few usable errors to fit."""
    rc = ReconConfig(
        sigma0=sigma0, max_iterations=config.max_iterations,
        tolerance_update=config.tolerance_update,
        tolerance_misfit=config.tolerance_misfit, truth=truth,
    )
    sigma, report = recon.reconstruct(g, rc)
    try:
        c, r2 = recon.fit_convergence_factor(report)
    except ValueError:
        c, r2 = float("nan"), float("nan")
    return sigma, report, c, r2


# ---------------------------------------------------------------------------
# commands

def cmd_forward(config: RunConfig) -> None:
    """Simulate the field and data for the configured phantom; write files."""
    mesh = config.build_mesh()
    sigma = _truth_field(config, mesh)
    result = forward.simulate(sigma)
    out = config.output_dir
    write_scalar_csv(os.path.join(out, "sigma.csv"), sigma)
    write_scalar_csv(os.path.join(out, "potential.csv"), result.potential)
    write_vector_csv(os.path.join(out, "field.csv"), result.field)
    write_scalar_csv(os.path.join(out, "data.csv"), result.data)
    _write_keyvalue_csv(os.path.join(out, "diagnostics.csv"), {
        "field_norm": result.field_norm,
        "divergence_identity_error": result.divergence_error,
        "sigma_min": float(sigma.values.min()),
        "sigma_max": float(sigma.values.max()),
        "sigma_gradient_sup": fem.gradient_sup(sigma),
    })
    if config.write_vtk:
        write_vtk(os.path.join(out, "forward.vtk"), {
            "sigma": sigma, "potential": result.potential, "data": result.data,
        })


def cmd_invert(config: RunConfig) -> None:
    """Reconstruct the conductivity from synthesized or file data; write files."""
    mesh = config.build_mesh()
    truth = _truth_field(config, mesh)
    if config.data_source == "file":
        g = read_scalar_csv(config.data_file, mesh)
    else:
        g = synthesize_data(config, mesh, truth)
    if config.initial_model == "phantom":
        sigma0 = make_phantom(config.phantom_spec(), mesh)
    else:
        sigma0 = fem.constant_field(mesh, config.background)
    sigma, report, c, r2 = _reconstruct(config, g, sigma0, truth)
    out = config.output_dir
    write_scalar_csv(os.path.join(out, "sigma_reconstructed.csv"), sigma)
    write_report_csv(os.path.join(out, "report.csv"), report)
    summary: dict[str, float | int | str] = {
        "stopping_reason": report.stopping_reason,
        "iterations": report.n_iterations,
        "final_misfit": report.misfits[-1],
        "final_rel_error": report.rel_errors[-1],
        "final_abs_error": report.abs_errors[-1],
        "fitted_c": c,
        "fit_r_squared": r2,
    }
    _write_keyvalue_csv(os.path.join(out, "summary.csv"), summary)
    if config.write_vtk:
        write_vtk(os.path.join(out, "invert.vtk"), {
            "sigma_reconstructed": sigma, "sigma_true": truth,
        })


def cmd_study(config: RunConfig) -> None:
    """Sweep mesh sizes and/or phantom amplitudes; write one summary CSV."""
    mesh_sizes = config.mesh_sizes or (config.mesh_n,)
    scales = config.amplitude_scales or (1.0,)
    if not config.mesh_sizes and not config.amplitude_scales:
        raise ConfigError("study requires study.mesh_sizes or study.amplitude_scales")
    rows = []
    for n in mesh_sizes:
        for scale in scales:
            row: list = [n, float(scale)]
            try:
                run_cfg = replace(config, mesh_n=n)
                mesh = run_cfg.build_mesh()
                spec = run_cfg.phantom_spec(amplitude_scale=scale)
                truth = make_phantom(spec, mesh)
                result = forward.simulate(truth)
                g = (
                    result.data if config.data_mode == "in-crime"
                    else synthesize_data(replace(run_cfg, data_truth="phantom"), mesh, truth)
                )
                _, report, c, r2 = _reconstruct(
                    config, g, fem.constant_field(mesh, config.background), truth
                )
                row += [
                    fem.gradient_sup(truth), report.n_iterations,
                    report.rel_errors[-1], report.abs_errors[-1], c, r2,
                    result.divergence_error, "ok",
                ]
            except (ValueError, SolverError, AdmissibilityError) as exc:
                row += [float("nan")] * 7 + [f"failed: {type(exc).__name__}"]
            rows.append(row)
    header = (
        "mesh_n,amplitude_scale,gradient_sup,iterations,"
        "final_rel_error,final_abs_error,fitted_c,fit_r_squared,"
        "divergence_identity_error,status"
    )
    _write_atomic(
        os.path.join(config.output_dir, "study.csv"),
        _csv(
            (
                [int(r[0])] + [float(v) for v in r[1:-1]] + [str(r[-1])]
                for r in rows
            ),
            header,
        ),
    )


def cmd_phantom(config: RunConfig) -> None:
    """Evaluate the configured phantom and write it with its properties."""
    mesh = config.build_mesh()
    sigma = make_phantom(config.phantom_spec(), mesh)
    out = config.output_dir
    write_scalar_csv(os.path.join(out, "phantom.csv"), sigma)
    _write_keyvalue_csv(os.path.join(out, "phantom_properties.csv"), {
        "min": float(sigma.values.min()),
        "max": float(sigma.values.max()),
        "gradient_sup": fem.gradient_sup(sigma),
        "l2_norm": fem.l2_norm(sigma),
    })
    if config.write_vtk:
        write_vtk(os.path.join(out, "phantom.vtk"), {"sigma": sigma})


_COMMANDS = {
    "forward": cmd_forward,
    "invert": cmd_invert,
    "study": cmd_study,
    "phantom": cmd_phantom,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="matmi",
        description="Eddy-current field simulation and fixed-point conductivity reconstruction",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the key-value config file")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        if args.out is not None:
            config = replace(config, output_dir=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, AdmissibilityError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
