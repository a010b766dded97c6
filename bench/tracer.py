"""Outside-in tracer for the matmi package.

The tracer wraps public functions of the package by patching the module
globals that callers look them up in.  A call through ``fem.solve_neumann``
reads the attribute of the ``matmi.fem`` module, and a bare-name call inside
a module (``mass_matrix`` inside ``fem.l2_norm``) reads that module's
globals, so patching every ``matmi.*`` global that holds the original
function object catches both, including names bound by ``from`` imports such
as ``matmi.cli.build_mesh``.

Each wrapped call becomes one span: name, start, end, parent span and
operation id.  Spans stay in memory; ``dump`` writes them out at the end of
a run.  Counter hooks read a number off a call's arguments or result (CG
iterations, sweeps, bytes written) without opening a span, so they do not
split the self time of the span that contains them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr``, recorded under ``name``.

    ``span`` false makes a counter-only hook.  ``count`` maps
    ``(args, kwargs, result)`` to counter increments.
    """

    module: str
    attr: str
    name: str
    span: bool = True
    count: Callable | None = None


def _cg_iterations(args, kwargs, result):
    _, residuals = result
    return {"fem.cg_iters": len(residuals) - 1}


def _bytes_written(args, kwargs, result):
    content = args[1] if len(args) > 1 else kwargs["content"]
    return {"cli.bytes_written": len(content.encode())}


def _sweeps(args, kwargs, result):
    _, report = result
    return {"recon.sweeps": report.n_iterations}


TARGETS = (
    Target("matmi.mesh", "build_mesh", "mesh.build_mesh"),
    Target("matmi.phantoms", "make_phantom", "phantoms.make_phantom"),
    Target("matmi.fem", "assemble_weighted_stiffness", "fem.assemble_weighted_stiffness"),
    Target("matmi.fem", "solve_neumann", "fem.solve_neumann"),
    Target("matmi.fem", "_projected_pcg", "fem._projected_pcg", span=False, count=_cg_iterations),
    Target("matmi.fem", "dirichlet_system", "fem.dirichlet_system"),
    Target("matmi.fem", "solve_dirichlet", "fem.solve_dirichlet"),
    Target("matmi.fem", "l2_norm", "fem.l2_norm"),
    Target("matmi.fem", "mass_matrix", "fem.mass_matrix"),
    Target("matmi.fem", "lumped_mass", "fem.lumped_mass"),
    Target("matmi.transport", "assemble_advection", "transport.assemble_advection"),
    Target("matmi.transport", "advection_matrix_derivative", "transport.advection_matrix_derivative"),
    Target("matmi.transport", "apply_data_operator", "transport.apply_data_operator"),
    Target("matmi.transport", "transport_solve", "transport.transport_solve"),
    Target("matmi.forward", "compute_field", "forward.compute_field"),
    Target("matmi.forward", "forward_map", "forward.forward_map"),
    Target("matmi.frechet", "frechet_derivative", "frechet.frechet_derivative"),
    Target("matmi.recon", "reconstruct", "recon.reconstruct", count=_sweeps),
    Target("matmi.cli", "main", "cli.main"),
    Target("matmi.cli", "parse_config", "cli.parse_config"),
    Target("matmi.cli", "synthesize_data", "cli.synthesize_data"),
    Target("matmi.cli", "write_scalar_csv", "cli.write"),
    Target("matmi.cli", "write_vector_csv", "cli.write"),
    Target("matmi.cli", "write_report_csv", "cli.write"),
    Target("matmi.cli", "_write_keyvalue_csv", "cli.write"),
    Target("matmi.cli", "write_vtk", "cli.write"),
    Target("matmi.cli", "_write_atomic", "cli._write_atomic", span=False, count=_bytes_written),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for a root
    op: str              # operation id


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _matmi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "matmi" or name.startswith("matmi."))]


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._op = ""
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            if target.span:
                index = len(spans)
                spans.append(Span(target.name, time.perf_counter(), 0.0,
                                  stack[-1] if stack else -1, tracer._op))
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index].end = time.perf_counter()
            else:
                result = fn(*args, **kwargs)
            if target.count is not None:
                bucket = tracer.counters.setdefault(tracer._op, {})
                for key, value in target.count(args, kwargs, result).items():
                    bucket[key] = bucket.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every ``matmi.*`` global that holds a target function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _matmi_modules()
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(original, target)
            for module in modules:
                for gname, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, gname, original))
                        setattr(module, gname, wrapper)

    def uninstall(self) -> None:
        """Put every patched global back, last patch first."""
        while self._patched:
            module, gname, original = self._patched.pop()
            setattr(module, gname, original)

    @contextmanager
    def active(self, op: str):
        """Trace the calls made inside the block under operation id ``op``."""
        self._op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self._op = ""

    def per_op(self) -> dict[str, dict[str, float]]:
        """Per operation: ``<name>.s`` self time, ``<name>.calls``, counters,
        and ``<name>.total_s`` (duration including children)."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.op, {})
            row[span.name + ".s"] = row.get(span.name + ".s", 0.0) + own
            row[span.name + ".calls"] = row.get(span.name + ".calls", 0) + 1
            total = span.name + ".total_s"
            row[total] = row.get(total, 0.0) + (span.end - span.start)
        for op, counts in self.counters.items():
            out.setdefault(op, {}).update(counts)
        return out

    def dump(self, path) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                }) + "\n")


def median_over(rows: list[dict[str, float]], key: str) -> float:
    """Median of ``key`` across operations; an absent key counts as zero."""
    return statistics.median(row.get(key, 0.0) for row in rows)
