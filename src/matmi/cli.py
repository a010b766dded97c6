"""Command-line front end: config parsing, experiment orchestration, file output.

Configs are flat key-value text with dotted section keys::

    mesh.n = 64
    phantom.background = 0.2
    phantom.bumps = 0.4 0.6 0.1 0.12 ; 0.5 0.38 0.13 0.09
    recon.max_iterations = 200
    data.mode = in-crime

Unknown keys are rejected with their line number.  ``invert`` reads its data
``g`` from ``data.file`` when that key is set, else synthesizes them.  Mesh
sizes and the domain are checked by building every mesh the config names.
Fields are written as CSV
(node-ordered ``x,y,value`` with 17 significant digits, so reruns are
byte-identical) and optionally as legacy ASCII VTK for external viewers.
All files are written atomically (temp file plus rename).

Exit codes: 0 success, 2 bad input, 3 solver failure.  Outside input (the
config, the data file, ``--out``, the domain and the phantom it describes)
is checked where it is read and fails there as a ``ConfigError``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import fem, forward, recon
from .fem import ScalarField, SolverError, VectorField
from .mesh import Mesh, build_mesh
from .phantoms import LAMBDA_FLOOR, Bump, PhantomSpec, make_phantom, single_bump_spec
from .recon import AdmissibilityError, ReconConfig, ReconReport, Sweep

__all__ = [
    "RunConfig", "ConfigError", "parse_config",
    "write_scalar_csv", "read_scalar_csv", "write_vector_csv", "write_vtk", "write_report_csv",
    "synthesize_data", "cmd_forward", "cmd_invert", "cmd_study", "cmd_phantom", "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


#: largest phantom conductivity accepted: the norms square it, and float64
#: squares stay finite below 1.3e154, less a margin for their sums and weights
SIGMA_CEILING = 1e150

#: largest peak conductivity times squared domain diagonal D accepted: a gauge
#: load entry sums six ``area * sigma * E . grad(phi) <= peak * (D/4) * (d/2)``
#: for cell diagonal d, and (n + 1) * d <= 2D, so the load's norm, which CG
#: squares, is at most 1.5 * peak * D**2 over the (n + 1)**2 nodes
LOAD_CEILING = 1e153


class ConfigError(Exception):
    """Invalid outside input: the config, a file it names, or an option."""


@dataclass(frozen=True)
class RunConfig:
    mesh_n: int = 64
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0
    background: float = PhantomSpec.background
    collar_width: float = PhantomSpec.collar_width
    bumps: tuple[Bump, ...] = single_bump_spec().bumps
    max_iterations: int = ReconConfig.max_iterations
    tolerance_update: float = ReconConfig.tolerance_update
    tolerance_misfit: float = ReconConfig.tolerance_misfit
    initial_model: str = "background"   # background | phantom
    data_file: str = ""                 # read g from here if set, else synthesize it
    data_truth: str = "phantom"         # phantom | background
    data_mode: str = "in-crime"         # in-crime | fine-mesh
    mesh_sizes: tuple[int, ...] = ()
    amplitude_scales: tuple[float, ...] = ()
    write_vtk: bool = False

    def phantom_spec(self) -> PhantomSpec:
        return PhantomSpec(
            background=self.background, bumps=self.bumps, collar_width=self.collar_width,
        )

    def build_mesh(self, n: int | None = None, key: str = "mesh.n") -> Mesh:
        """The mesh of ``n`` (default ``mesh.n``) cells a side; a rejection names ``key``."""
        n = self.mesh_n if n is None else n
        try:
            return build_mesh(n, n, (self.x_min, self.x_max, self.y_min, self.y_max))
        except ValueError as exc:
            raise ConfigError(f"domain.* with {key} = {n}: {exc}") from exc


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


def _choice(*options: str) -> Callable[[str], str]:
    """A parser that accepts exactly one of ``options``."""
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text
    return parse


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
    "recon.initial_model": ("initial_model", _choice("background", "phantom")),
    "data.file": ("data_file", str),
    "data.truth": ("data_truth", _choice("phantom", "background")),
    "data.mode": ("data_mode", _choice("in-crime", "fine-mesh")),
    "study.mesh_sizes": ("mesh_sizes", lambda s: tuple(int(v) for v in s.split())),
    "study.amplitude_scales": (
        "amplitude_scales", lambda s: tuple(_parse_float(v) for v in s.split()),
    ),
    "output.vtk": ("write_vtk", _parse_bool),
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
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    # build_mesh checks a count before it allocates, and a Mesh holds O(n) data
    for key, sizes in (("mesh.n", (config.mesh_n,)), ("study.mesh_sizes", config.mesh_sizes)):
        for n in sizes:
            config.build_mesh(n, key)
            if config.data_mode == "fine-mesh":
                config.build_mesh(2 * n, f"2 x {key}")
    if not config.background >= LAMBDA_FLOOR:
        raise ConfigError(
            f"phantom.background must be at least the admissibility floor {LAMBDA_FLOOR}, "
            f"got {config.background}"
        )
    peak = config.background + sum(max(b.amplitude, 0.0) for b in config.bumps)
    if not peak <= SIGMA_CEILING:
        key = "phantom.background"
        if config.background <= SIGMA_CEILING:
            key += " plus the positive amplitudes of phantom.bumps"
        raise ConfigError(f"{key} must be at most {SIGMA_CEILING:g}, got {peak:g}")
    width, height = config.x_max - config.x_min, config.y_max - config.y_min
    load = peak * (width * width + height * height)   # inf past the float range
    if not load <= LOAD_CEILING:
        raise ConfigError(
            f"domain.*: the peak conductivity times the squared domain diagonal must be "
            f"at most {LOAD_CEILING:g}, or the gauge load overflows, got {load:g}"
        )
    if config.collar_width <= 0.0:
        raise ConfigError("phantom.collar_width must be positive")
    if config.max_iterations < 1:
        raise ConfigError("recon.max_iterations must be at least 1")
    if config.tolerance_update <= 0.0 or config.tolerance_misfit <= 0.0:
        raise ConfigError("recon tolerances must be positive")


# ---------------------------------------------------------------------------
# file output

def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # an exclusive open of a fresh name, so that the file's mode follows the umask
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    handle = open(tmp, "x")
    try:
        with handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: array rows the writers format at a time, which bounds the temporaries
_WRITE_CHUNK = 4096


def _format_rows(array: np.ndarray, row: str) -> str:
    """``row % values`` for each row of ``array``, one ``%`` call per block of rows.

    The values go through ``tolist``: Python numbers format faster than
    numpy scalars, and ``%.17g`` gives the same text as ``f"{v:.17g}"``.
    """
    blocks = []
    for start in range(0, len(array), _WRITE_CHUNK):
        block = array[start:start + _WRITE_CHUNK]
        blocks.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(blocks)


def _csv(rows, header: str) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_scalar_csv(path: str, field: ScalarField) -> None:
    rows = np.column_stack([field.mesh.nodes, field.values])
    _write_atomic(path, "x,y,value\n" + _format_rows(rows, "%.17g,%.17g,%.17g\n"))


def read_scalar_csv(path: str, mesh: Mesh) -> ScalarField:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    # a file without rows reads as one empty column
    rows, columns = data.shape if data.size else (0, 0)
    if (rows, columns) != (mesh.n_nodes, 3):
        raise ConfigError(
            f"{path}: expected {mesh.n_nodes} rows x 3 columns of x,y,value, "
            f"got {rows} rows x {columns} columns"
        )
    # a millionth of a cell: a relative tolerance grows with an offset domain's coordinates
    if not np.allclose(data[:, :2], mesh.nodes, rtol=0.0, atol=1e-6 * min(mesh.dx, mesh.dy)):
        raise ConfigError(f"{path}: node coordinates do not match the mesh")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ConfigError(f"{path}: non-finite value in data row {row + 1}")
    return ScalarField(mesh, data[:, 2].copy())


def write_vector_csv(path: str, field: VectorField) -> None:
    rows = np.column_stack([field.mesh.element_centroids, field.values])
    _write_atomic(path, "x,y,vx,vy\n" + _format_rows(rows, "%.17g,%.17g,%.17g,%.17g\n"))


def write_vtk(path: str, fields: dict[str, ScalarField]) -> None:
    """Legacy ASCII VTK unstructured grid with point data scalars."""
    mesh = next(iter(fields.values())).mesh
    parts = [
        "# vtk DataFile Version 2.0\nmatmi fields\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {mesh.n_nodes} double\n",
        _format_rows(mesh.nodes, "%.17g %.17g 0\n"),
        f"CELLS {mesh.n_elements} {4 * mesh.n_elements}\n",
        _format_rows(mesh.elements, "3 %d %d %d\n"),
        f"CELL_TYPES {mesh.n_elements}\n",
        "5\n" * mesh.n_elements,
        f"POINT_DATA {mesh.n_nodes}\n",
    ]
    for name, fld in fields.items():
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        parts.append(_format_rows(fld.values, "%.17g\n"))
    _write_atomic(path, "".join(parts))


def write_report_csv(path: str, report: ReconReport) -> None:
    _write_atomic(path, _csv(report.sweeps, ",".join(Sweep._fields)))


def _write_keyvalue_csv(path: str, entries: dict[str, float | int | str]) -> None:
    _write_atomic(path, _csv(entries.items(), "key,value"))


# ---------------------------------------------------------------------------
# data synthesis

def synthesize_data(
    config: RunConfig, truth: ScalarField,
) -> tuple[ScalarField, VectorField | None]:
    """The data on the truth's mesh: in-crime, or restricted from 2x fine-mesh data.

    Also returns the truth's field E when the data came from it (in-crime),
    else None.
    """
    if config.data_mode == "in-crime":
        result = forward.compute_field(truth)
        return forward.forward_map(truth, result), result.field
    fine_mesh = config.build_mesh(2 * config.mesh_n, "2 x mesh.n")
    fine_truth = _conductivity(config, fine_mesh, config.data_truth)
    fine = forward.forward_map(fine_truth).values
    # every other node of every other row: the nodes the 2x mesh shares with the truth's
    coincident = fine.reshape(fine_mesh.ny + 1, fine_mesh.nx + 1)[::2, ::2].ravel()
    return ScalarField(truth.mesh, coincident), None


def _conductivity(config: RunConfig, mesh: Mesh, model: str) -> ScalarField:
    """The configured phantom on ``mesh`` if ``model`` is "phantom", else its background."""
    if model == "background":
        return fem.constant_field(mesh, config.background)
    try:
        return make_phantom(config.phantom_spec(), mesh)
    except ValueError as exc:
        raise ConfigError(f"phantom.bumps: {exc}") from exc


def _invert(
    config: RunConfig, keep_truth_field: bool = False,
) -> tuple[ScalarField, ScalarField, ReconReport, float, float, VectorField | None]:
    """Build the truth, the data and the start the config names, then reconstruct.

    Returns the truth, the reconstruction, its report, the fitted
    contraction factor with its R^2, which are NaN when the report has too
    few usable errors to fit, and, with ``keep_truth_field``, the truth's
    field if the data synthesis solved it on the run mesh (else None).
    """
    mesh = config.build_mesh()
    truth = _conductivity(config, mesh, config.data_truth)
    if config.data_file:
        g, truth_field = read_scalar_csv(config.data_file, mesh), None
    else:
        g, truth_field = synthesize_data(config, truth)
    if not keep_truth_field:
        truth_field = None   # not held through the reconstruction
    rc = ReconConfig(
        sigma0=_conductivity(config, mesh, config.initial_model),
        max_iterations=config.max_iterations,
        tolerance_update=config.tolerance_update,
        tolerance_misfit=config.tolerance_misfit, truth=truth,
    )
    sigma, report = recon.reconstruct(g, rc)
    try:
        c, r2 = recon.fit_convergence_factor(report)
    except ValueError:
        c, r2 = float("nan"), float("nan")
    return truth, sigma, report, c, r2, truth_field


# ---------------------------------------------------------------------------
# commands

def cmd_forward(config: RunConfig, out: str) -> None:
    """Simulate the field and data for the configured phantom; write files."""
    mesh = config.build_mesh()
    sigma = _conductivity(config, mesh, config.data_truth)
    result = forward.compute_field(sigma)
    data = forward.forward_map(sigma, result)
    write_scalar_csv(os.path.join(out, "sigma.csv"), sigma)
    write_scalar_csv(os.path.join(out, "potential.csv"), result.potential)
    write_vector_csv(os.path.join(out, "field.csv"), result.field)
    write_scalar_csv(os.path.join(out, "data.csv"), data)
    _write_keyvalue_csv(os.path.join(out, "diagnostics.csv"), {
        "field_norm": result.field_norm,
        "divergence_identity_error": forward.divergence_identity_error(result.field),
        "sigma_min": sigma.values.min(),
        "sigma_max": sigma.values.max(),
        "sigma_gradient_sup": fem.gradient_sup(sigma),
    })
    if config.write_vtk:
        write_vtk(os.path.join(out, "forward.vtk"), {
            "sigma": sigma, "potential": result.potential, "data": data,
        })


def cmd_invert(config: RunConfig, out: str) -> None:
    """Reconstruct the conductivity from synthesized or file data; write files."""
    truth, sigma, report, c, r2, _ = _invert(config)
    write_scalar_csv(os.path.join(out, "sigma_reconstructed.csv"), sigma)
    write_report_csv(os.path.join(out, "report.csv"), report)
    last = report.sweeps[-1]
    summary: dict[str, float | int | str] = {
        "stopping_reason": report.stopping_reason,
        "iterations": report.n_iterations,
        "cg_iterations": sum(s.cg_iterations for s in report.sweeps),
        "transport_factors": sum(s.transport_factors for s in report.sweeps),
        "final_misfit": last.misfit,
        "final_rel_error": last.rel_error,
        "final_abs_error": last.abs_error,
        "fitted_c": c,
        "fit_r_squared": r2,
    }
    _write_keyvalue_csv(os.path.join(out, "summary.csv"), summary)
    if config.write_vtk:
        write_vtk(os.path.join(out, "invert.vtk"), {
            "sigma_reconstructed": sigma, "sigma_true": truth,
        })


def cmd_study(config: RunConfig, out: str) -> None:
    """Sweep mesh sizes and/or phantom amplitudes; write one summary CSV.

    Each row inverts the phantom with its amplitudes scaled, from data
    synthesized in the configured ``data.mode``, starting at the background.
    """
    mesh_sizes = config.mesh_sizes or (config.mesh_n,)
    scales = config.amplitude_scales or (1.0,)
    if not config.mesh_sizes and not config.amplitude_scales:
        raise ConfigError("study requires study.mesh_sizes or study.amplitude_scales")
    rows = []
    for n in mesh_sizes:
        for scale in scales:
            run = replace(
                config, mesh_n=n,
                bumps=tuple(replace(b, amplitude=b.amplitude * scale) for b in config.bumps),
                data_file="", data_truth="phantom", initial_model="background",
            )
            row: list = [n, scale]
            try:
                _validate(run)   # a scaled amplitude can pass the conductivity or load ceiling
                truth, _, report, c, r2, field = _invert(run, keep_truth_field=True)
                if field is None:
                    field = forward.compute_field(truth).field
                row += [
                    fem.gradient_sup(truth), report.n_iterations,
                    report.sweeps[-1].rel_error, report.sweeps[-1].abs_error, c, r2,
                    forward.divergence_identity_error(field), "ok",
                ]
            except (ConfigError, SolverError, AdmissibilityError) as exc:
                row += [float("nan")] * 7 + [f"failed: {type(exc).__name__}"]
            rows.append(row)
    header = (
        "mesh_n,amplitude_scale,gradient_sup,iterations,"
        "final_rel_error,final_abs_error,fitted_c,fit_r_squared,"
        "divergence_identity_error,status"
    )
    _write_atomic(os.path.join(out, "study.csv"), _csv(rows, header))


def cmd_phantom(config: RunConfig, out: str) -> None:
    """Evaluate the configured phantom and write it with its properties."""
    mesh = config.build_mesh()
    sigma = _conductivity(config, mesh, "phantom")
    write_scalar_csv(os.path.join(out, "phantom.csv"), sigma)
    _write_keyvalue_csv(os.path.join(out, "phantom_properties.csv"), {
        "min": sigma.values.min(),
        "max": sigma.values.max(),
        "gradient_sup": fem.gradient_sup(sigma),
        "l2_norm": fem.l2_norm(sigma),
    })
    if config.write_vtk:
        write_vtk(os.path.join(out, "phantom.vtk"), {"sigma": sigma})


def _read_config(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _check_out(out: str) -> None:
    """Reject an output directory that is a file or lies below one, before any work."""
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"--out {out}: {existing} exists and is not a directory")


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
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    args = parser.parse_args(argv)

    try:
        config = parse_config(_read_config(args.config))
        _check_out(args.out)
        _COMMANDS[args.command](config, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, AdmissibilityError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
