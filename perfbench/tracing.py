"""In-memory spans around calls into the `mws` modules.

The tracer replaces a public function at the name its consumer module bound
(for example `mws.cli.solve_spectrum`, bound by `from ... import`) with a
wrapper that records a span: name, start, end, parent span and op id. Spans
stay in memory until the run ends. High-frequency leaf calls (matrix
elements, V_nn evaluations, secular residuals) are recorded at the same
boundary as a per-name call count and total time instead of one span each,
so memory stays bounded; their time still counts as child time of the span
they ran in. A target that no longer exists is recorded as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

# (consumer module, bound name, span name, leaf)
TARGETS = (
    ("mws.model", "build_spec", "model.build_spec", False),
    ("mws.cli", "build_spec", "model.build_spec", False),
    ("mws.effpot", "solve_base_eigenproblem", "eigenbasis.solve", False),
    ("mws.effpot", "solve_v1_eigenproblem", "eigenbasis.solve", False),
    ("mws.spectra", "solve_base_eigenproblem", "eigenbasis.solve", False),
    ("mws.effpot", "matrix_element", "effpot.matrix_element", True),
    ("mws.spectra", "build_bases", "effpot.build_bases", False),
    ("mws.cli", "build_bases", "effpot.build_bases", False),
    ("mws.spectra", "build_pole_weight_table", "effpot.build_pole_weight_table", False),
    ("mws.cli", "build_pole_weight_table", "effpot.build_pole_weight_table", False),
    ("mws.spectra", "vnn_eval", "effpot.vnn_eval", True),
    ("mws.cli", "vnn_eval", "effpot.vnn_eval", True),
    ("mws.cli", "ep_kernel_matrix", "effpot.ep_kernel_matrix", False),
    ("mws._kernels", "solve_secular", "kernels.solve_secular", False),
    ("mws._kernels", "secular_residual", "kernels.secular_residual", True),
    ("mws.spectra", "solve_spectrum", "spectra.solve_spectrum", False),
    ("mws.cli", "solve_spectrum", "spectra.solve_spectrum", False),
    ("mws.spectra", "find_roots", "spectra.find_roots", False),
    ("mws.cli", "find_roots", "spectra.find_roots", False),
    ("mws.spectra", "find_roots_exact", "spectra.find_roots_exact", False),
    ("mws.spectra", "group_realisations", "spectra.group_realisations", False),
    ("mws.cli", "group_realisations", "spectra.group_realisations", False),
    ("mws.cli", "realisation_separation", "spectra.realisation_separation", False),
    ("mws.cli", "assemble_wavefunction", "reconstruct.assemble_wavefunction", False),
    ("mws.cli", "run_all_oracles", "oracle.run_all_oracles", False),
    ("mws.cli", "coupled_matrix_diagonalization", "oracle.coupled_matrix", False),
    ("mws.oracle", "coupled_matrix_diagonalization", "oracle.coupled_matrix", False),
    ("mws.oracle", "polynomial_roots_oracle", "oracle.polynomial_roots", False),
    ("mws.cli", "subset_recovery_distance", "oracle.subset_recovery_distance", False),
    ("mws.oracle", "subset_recovery_distance", "oracle.subset_recovery_distance", False),
)


def _count_table(table) -> dict:
    members = sum(len(e.members) for e in table.entries)
    return {"tables": 1, "poles": members, "merged_poles": members - len(table.entries)}


# span name -> function(result) giving counters to add
COUNTERS = {
    "eigenbasis.solve": lambda b: {"grid_points": len(b.grid)},
    "effpot.build_pole_weight_table": _count_table,
    "kernels.solve_secular": lambda r: {"roots": len(r[0])},
    "reconstruct.assemble_wavefunction": lambda f: {"field_samples": f.psi.size},
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    op: int
    start_ns: int
    end_ns: int
    child_ns: int       # time covered by direct children (spans and leaf calls)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


class Tracer:
    """Span recorder; `install` patches the targets, `restore` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[list] = []      # [span_id, name, start_ns, child_ns]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - frame[2]
        self.spans.append(Span(frame[0], parent[0] if parent else None, frame[1],
                               self.op, frame[2], end, frame[3]))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`; used for the benchmark's own calls."""
        frame = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(frame)
        self._count(name, result)
        return result

    def _count(self, name: str, result) -> None:
        self.counters[name + ".calls"] += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(result).items():
                self.counters[f"{name}.{key}"] += value

    def _leaf(self, name: str, fn, args, kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - start
            self.leaf_calls[name] += 1
            self.leaf_ns[name] += dt
            if self._stack:
                self._stack[-1][3] += dt

    # -- patching --------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, leaf in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(name, fn, leaf))
            self._patched.append((module, attr, fn))

    def _wrapper(self, name: str, fn, leaf: bool):
        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                return self._leaf(name, fn, args, kwargs)
            return leaf_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return span_wrapper

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------------

    def totals_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total ms, total self ms) per span name, leaf calls included."""
        total: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        for s in self.spans:
            total[s.name] += s.dur_ns / 1e6
            self_ms[s.name] += s.self_ns / 1e6
        for name, ns in self.leaf_ns.items():
            total[name] += ns / 1e6
            self_ms[name] += ns / 1e6
        return total, self_ms

    def calls(self, name: str) -> int:
        return self.counters.get(name + ".calls", 0) + self.leaf_calls.get(name, 0)
