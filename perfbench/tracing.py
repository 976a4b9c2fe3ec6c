"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces layer entry points by timing wrappers at the
module attributes through which the package itself calls them (for example
``entrobound.greedy.minimize_power_residual`` is the solver as seen from the
greedy layer).  ``uninstall`` puts the originals back.  A span's self time is
its duration minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import entrobound._optim as O
import entrobound.discretization as D
import entrobound.entropy as E
import entrobound.greedy as G
import entrobound.harness as H
import entrobound.spaces as S

# (module, attribute, span).  Entry points the harness runners call are
# wrapped too, so that their time is not counted as harness self time.
_TARGETS = (
    (O, "cho_factor", "optim.cho_factor"),
    (G, "minimize_power_residual", "optim.greedy"),
    (D, "minimize_power_residual", "optim.subspace"),
    (G, "wcga", "greedy.wcga"),
    (E, "wcga", "greedy.wcga"),
    (G, "sigma_profile", "greedy.sigma_profile"),
    (H, "sigma_profile", "greedy.sigma_profile"),
    (H, "sample_octahedron", "greedy.sample_octahedron"),
    (G, "norm_A", "spaces.norm_A"),
    (S, "linprog", "spaces.linprog"),
    (H, "canonical_dictionary", "spaces.canonical_dictionary"),
    (E, "exact_entropy_small", "entropy.exact"),
    (E, "_cover_feasible", "entropy.cover_feasible"),
    (E, "linprog", "entropy.lp_relax"),
    (E, "milp", "entropy.milp"),
    (E.Metric, "pairwise", "entropy.pairwise"),
    (E, "_fps", "entropy.fps"),
    (D, "_fps", "entropy.fps"),
    (E, "octahedron_cover_profile", "entropy.cover_profile"),
    (H, "octahedron_cover_profile", "entropy.cover_profile"),
    (D, "octahedron_cover_profile", "entropy.cover_profile"),
    (H, "ball_entropy_experiment", "entropy.ball_entropy"),
    (H, "duality_sum_check", "entropy.duality_check"),
    (D, "m_p_direct", "discretization.m_p_direct"),
    (H, "m_p_direct", "discretization.m_p_direct"),
    (D, "m_p_dual", "discretization.m_p_dual"),
    (H, "m_p_dual", "discretization.m_p_dual"),
    (D, "build_discretization_dictionary", "discretization.dictionary"),
    (D, "it1_experiment", "discretization.it1"),
    (H, "it1_experiment", "discretization.it1"),
    (H, "random_subspace", "discretization.random_subspace"),
    (H, "run", "harness.run"),
    (H, "emit", "harness.emit"),
    (H, "fit_envelope", "harness.fit_envelope"),
)

# per-layer metric: unit; the order is the order of the report
LAYER_METRICS = {
    "optim.greedy.calls": "count",
    "optim.greedy.s": "s",
    "optim.subspace.calls": "count",
    "optim.subspace.s": "s",
    "optim.newton_iters": "count",
    "optim.cholesky_fallbacks": "count",
    "optim.iter_us": "us",
    "greedy.wcga.calls": "count",
    "greedy.wcga.steps": "count",
    "greedy.wcga.early_stops": "count",
    "greedy.wcga.self_s": "s",
    "spaces.norm_A.calls": "count",
    "spaces.norm_A.s": "s",
    "spaces.norm_A.lp_s": "s",
    "spaces.norm_A.calls_per_dictionary": "count",
    "entropy.exact.calls": "count",
    "entropy.exact.s": "s",
    "entropy.lp_relax.calls": "count",
    "entropy.lp_relax.s": "s",
    "entropy.milp.calls": "count",
    "entropy.milp.s": "s",
    "entropy.probes_without_milp_ratio": "ratio",
    "entropy.pairwise.calls": "count",
    "entropy.pairwise.s": "s",
    "entropy.fps.s": "s",
    "entropy.cover_profile.self_s": "s",
    "discretization.m_p_direct.s": "s",
    "discretization.m_p_dual.s": "s",
    "discretization.dictionary.s": "s",
    "harness.self_s": "s",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_s": "s",
}


class _Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self.counts: dict[str, int] = defaultdict(int)
        self.dictionaries: set[int] = set()
        self._open: list[list] = []   # [span name, time of child spans]
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open.append([name, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._count_failure(name)
                raise
            finally:
                took = time.perf_counter() - start
                _, inner = tracer._open.pop()
                span = tracer.spans[name]
                span.calls += 1
                span.total += took
                span.self_time += took - inner
                if tracer._open:
                    tracer._open[-1][1] += took
            tracer._count_result(name, args, kwargs, result)
            return result
        return traced

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def _count_failure(self, name: str) -> None:
        if name == "optim.cho_factor":  # _optim falls back to a ridge solve
            self.counts["cholesky_fallbacks"] += 1

    def _count_result(self, name, args, kwargs, result) -> None:
        if name == "greedy.wcga":
            m = args[2] if len(args) > 2 else kwargs["m"]
            self.counts["wcga_steps"] += len(result.support)
            self.counts["wcga_early_stops"] += len(result.support) < m
        elif name == "spaces.norm_A":
            self.dictionaries.add(id(args[1] if len(args) > 1 else kwargs["dictionary"]))
        elif name == "entropy.milp" and self._inside("entropy.cover_feasible"):
            self.counts["probe_milps"] += 1

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Every traced per-layer metric of the round (set-up ones excluded)."""
        sp, c = self.spans, self.counts
        iters = sp["optim.cho_factor"].calls
        solver_s = sp["optim.greedy"].total + sp["optim.subspace"].total
        probes = sp["entropy.cover_feasible"].calls
        norm_a = sp["spaces.norm_A"].calls
        return {
            "optim.greedy.calls": sp["optim.greedy"].calls,
            "optim.greedy.s": sp["optim.greedy"].total,
            "optim.subspace.calls": sp["optim.subspace"].calls,
            "optim.subspace.s": sp["optim.subspace"].total,
            "optim.newton_iters": iters,
            "optim.cholesky_fallbacks": c["cholesky_fallbacks"],
            "optim.iter_us": 1e6 * solver_s / iters if iters else 0.0,
            "greedy.wcga.calls": sp["greedy.wcga"].calls,
            "greedy.wcga.steps": c["wcga_steps"],
            "greedy.wcga.early_stops": c["wcga_early_stops"],
            "greedy.wcga.self_s": sp["greedy.wcga"].self_time,
            "spaces.norm_A.calls": norm_a,
            "spaces.norm_A.s": sp["spaces.norm_A"].total,
            "spaces.norm_A.lp_s": sp["spaces.linprog"].total,
            "spaces.norm_A.calls_per_dictionary":
                norm_a / len(self.dictionaries) if self.dictionaries else 0.0,
            "entropy.exact.calls": sp["entropy.exact"].calls,
            "entropy.exact.s": sp["entropy.exact"].total,
            "entropy.lp_relax.calls": sp["entropy.lp_relax"].calls,
            "entropy.lp_relax.s": sp["entropy.lp_relax"].total,
            "entropy.milp.calls": sp["entropy.milp"].calls,
            "entropy.milp.s": sp["entropy.milp"].total,
            "entropy.probes_without_milp_ratio":
                1.0 - c["probe_milps"] / probes if probes else 0.0,
            "entropy.pairwise.calls": sp["entropy.pairwise"].calls,
            "entropy.pairwise.s": sp["entropy.pairwise"].total,
            "entropy.fps.s": sp["entropy.fps"].total,
            "entropy.cover_profile.self_s": sp["entropy.cover_profile"].self_time,
            "discretization.m_p_direct.s": sp["discretization.m_p_direct"].total,
            "discretization.m_p_dual.s": sp["discretization.m_p_dual"].total,
            "discretization.dictionary.s": sp["discretization.dictionary"].total,
            "harness.self_s": (sp["harness.run"].self_time + sp["harness.emit"].total
                               + sp["harness.fit_envelope"].total),
        }
