"""In-process tracer: wraps the package's public functions from outside.

Wrappers replace each public name wherever a module of the package has bound
it (for example `cli.integrate`, `representations.to_heisenberg` as called
from `verify`, `profile.eval_profile`, `OperatorSpec.assemble`), so every
call site, also those inside the owning module, is seen. Nothing in the
package is edited. Spans (name, start, end, parent) and counters stay in
memory; `layer_metrics` turns one pass's spans into per-layer numbers and
`spans_doc` gives them for writing out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _nodes_sampled(n_nodes: int, stride: int) -> int:
    """Nodes verify samples: every stride-th node plus the last one."""
    count = len(range(0, n_nodes, max(1, stride)))
    return count + (0 if (count - 1) * max(1, stride) == n_nodes - 1 else 1)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._assembled: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(i)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            finally:
                self.span_end[i] = clock()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result, None)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_integrate(self, args, kwargs, bundle, exc):
        if bundle is not None:
            self.counts["evolution.steps"] += bundle.metadata["n_steps"]
        elif hasattr(exc, "node_index"):
            self.counts["evolution.steps"] += exc.node_index

    def _after_run_suite(self, args, kwargs, report, exc):
        if report is not None:
            bundle = args[0]
            self.counts["verify.checks"] += len(report.checks)
            self.counts["verify.nodes_sampled"] += _nodes_sampled(
                bundle.n_nodes, kwargs.get("node_stride", 10)
            )

    def _after_assemble(self, args, kwargs, result, exc):
        self._assembled.add((id(args[0]), float(args[1])))

    def _after_main(self, args, kwargs, result, exc):
        # Operators live for one invocation; ids are only unique within it.
        self.counts["model.assemble_distinct"] += len(self._assembled)
        self._assembled.clear()

    # --- installation -----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Rebind `original` to `wrapper` in every module of the package."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "metricbundle" and not mod_name.startswith("metricbundle."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import metricbundle.cli  # noqa: F401  (loaded, so that its bindings get wrapped)
        from metricbundle import evolution, matops, model, profile, verify, zoo
        from metricbundle import representations as rep

        spans = {
            evolution.integrate: ("evolution.integrate", self._after_integrate),
            evolution.bundle_to_json_dict: ("evolution.bundle_to_json_dict", None),
            model.solve_stationary_metric: ("model.solve_stationary_metric", None),
            model.load_scenario: ("model.load_scenario", None),
            profile.eval_profile: ("profile.eval_profile", None),
            rep.expectation_schrodinger: ("representations.expectation", None),
            rep.to_heisenberg: ("representations.transport", None),
            rep.to_heisenberg_like: ("representations.transport", None),
            rep.naive_dagger_transport: ("representations.transport", None),
            verify.run_suite: ("verify.run_suite", self._after_run_suite),
            matops.inverse: ("matops.inverse", None),
            matops.eigenvalues: ("matops.eig", None),
            matops.min_eig_hermitian: ("matops.eig", None),
            zoo.get_demo: ("zoo.get_demo", None),
        }
        for fn, (name, after) in spans.items():
            self._replace(fn, self._span(name, fn, after))
        self._replace(matops.as_matrix, self._count("matops.as_matrix", matops.as_matrix))

        methods = (
            ("assemble", self._span("model.assemble", model.OperatorSpec.assemble,
                                    self._after_assemble)),
            ("differentiate", self._count("model.differentiate",
                                          model.OperatorSpec.differentiate)),
        )
        for attr, wrapper in methods:
            self._patches.append((model.OperatorSpec, attr, getattr(model.OperatorSpec, attr)))
            setattr(model.OperatorSpec, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap_main(self, main):
        """The CLI entry as the root span of each invocation."""
        return self._span("cli.main", main, self._after_main)

    # --- results ----------------------------------------------------------

    def reset(self) -> None:
        self.span_name.clear()
        self.span_start.clear()
        self.span_end.clear()
        self.span_parent.clear()
        self.counts.clear()

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += duration[i]
        calls, inclusive, own = Counter(), Counter(), Counter()
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            inclusive[name] += duration[i]
            own[name] += duration[i] - child[i]
        return calls, inclusive, own

    def layer_metrics(self) -> dict[str, float]:
        calls, inclusive, own = self.totals()
        counts = self.counts
        steps = counts["evolution.steps"]
        assemble_calls = calls["model.assemble"]
        return {
            "evolution.integrate_s": inclusive["evolution.integrate"],
            "evolution.steps": steps,
            "evolution.us_per_step": 1e6 * own["evolution.integrate"] / max(1, steps),
            "evolution.to_json_s": inclusive["evolution.bundle_to_json_dict"],
            "model.stationary_calls": calls["model.solve_stationary_metric"],
            "model.stationary_s": inclusive["model.solve_stationary_metric"],
            "model.assemble_calls": assemble_calls,
            "model.assemble_s": inclusive["model.assemble"],
            "model.assemble_reuse": counts["model.assemble_distinct"] / max(1, assemble_calls),
            "model.differentiate_calls": counts["model.differentiate"],
            "model.load_s": inclusive["model.load_scenario"],
            "profile.eval_calls": calls["profile.eval_profile"],
            "profile.eval_s": inclusive["profile.eval_profile"],
            "representations.expectation_calls": calls["representations.expectation"],
            "representations.expectation_s": inclusive["representations.expectation"],
            "representations.transport_calls": calls["representations.transport"],
            "representations.transport_s": inclusive["representations.transport"],
            "verify.run_suite_s": own["verify.run_suite"],
            "verify.checks": counts["verify.checks"],
            "verify.nodes_sampled": counts["verify.nodes_sampled"],
            "matops.as_matrix_calls": counts["matops.as_matrix"],
            "matops.inverse_calls": calls["matops.inverse"],
            "matops.inverse_s": inclusive["matops.inverse"],
            "matops.eig_calls": calls["matops.eig"],
            "matops.eig_s": inclusive["matops.eig"],
            "cli.self_s": own["cli.main"],
            "zoo.get_demo_s": inclusive["zoo.get_demo"],
        }

    def spans_doc(self) -> dict:
        """Spans of the current pass; times in microseconds from the first start."""
        origin = self.span_start[0] if self.span_start else 0.0
        return {
            "fields": ["name", "start_us", "end_us", "parent"],
            "names": self.names,
            "spans": [
                [self.span_name[i], round(1e6 * (self.span_start[i] - origin), 1),
                 round(1e6 * (self.span_end[i] - origin), 1), self.span_parent[i]]
                for i in range(len(self.span_name))
            ],
        }
