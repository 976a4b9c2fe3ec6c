"""Experiment orchestration: configs, runners, envelope fits, reports.

Every experiment is a pure function of (config, seed): runners draw all
randomness from seeded generators, reports carry no timestamps, and
floats are emitted via ``repr``, so identical configs produce
byte-identical files.  Runners return columns, findings and summary
lines; ``run`` frames them into a ``Report`` whose metadata adds the
seed, the experiment's scalar fields and the package version.
``fit_envelope`` does the log-log regressions every scaling claim rests
on and always reports its residual.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from enum import Enum
from importlib import metadata as _importlib_metadata

import numpy as np

from .discretization import (
    SamplePointSet,
    it1_experiment,
    m_p_direct,
    m_p_dual,
    random_subspace,
)
from .entropy import (
    _envelope_ratio,
    ball_entropy_experiment,
    duality_sum_check,
    log_ratio_envelope,
    octahedron_cover_profile,
)
from .errors import ConfigValidationError
from .greedy import Octahedron, sample_octahedron, sigma_profile
from .spaces import MeasureSpace, _exponent, _integer, _is_int, _levels, _real, canonical_dictionary

__all__ = [
    "EXPERIMENTS",
    "FitModel",
    "FitResult",
    "fit_envelope",
    "ExperimentConfig",
    "Report",
    "emit",
    "run",
]

try:
    _VERSION = "entrobound " + _importlib_metadata.version("entrobound")
except _importlib_metadata.PackageNotFoundError:  # running from a checkout
    _VERSION = "entrobound 0.1.0"


# ---------------------------------------------------------------------------
# envelope fitting

class FitModel(Enum):
    POWER_M = "power-m"            # value ~ C * m^r
    LOG_RATIO_K = "log-ratio-k"    # value ~ C * (log2(2n/k)/k)^r


@dataclass
class FitResult:
    """Least-squares exponent and constant with the residual on record."""

    exponent: float
    constant: float
    residual_rms: float
    points_used: int
    k_range: tuple[int, int]
    model: str


def fit_envelope(table, n: int | None = None,
                 model: FitModel = FitModel.POWER_M) -> FitResult:
    """Fit value = C * predictor^r in the log2-log2 domain.

    ``table`` is an (xs, values) pair.  The LOG_RATIO_K model regresses
    against log2(2n/k)/k and drops k < log2(n), where only the trivial
    bound is meaningful.
    """
    xs, values = (np.asarray(col, dtype=float) for col in table)
    if model is FitModel.LOG_RATIO_K:
        if n is None:
            raise ValueError("the log-ratio model needs the set size n")
        keep = xs >= math.log2(n)
        xs, values = xs[keep], values[keep]
        predictor = log_ratio_envelope(n, xs, 1.0)
    else:
        predictor = xs
    bad = [int(i) for i in np.nonzero(~(np.isfinite(values) & (values > 0)))[0]]
    if bad:
        raise ValueError(
            f"fit needs positive values; entries {bad} are not positive and finite")
    if len(values) < 3:
        raise ValueError(f"fit needs at least 3 points, got {len(values)}")
    lx = np.log2(predictor)
    ly = np.log2(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return FitResult(
        exponent=float(slope), constant=float(2.0 ** intercept),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        points_used=int(len(values)),
        k_range=(int(xs.min()), int(xs.max())),
        model=model.value)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class _Experiment:
    """What one experiment reads, checks and runs.

    ``fields`` maps every config field the experiment reads to its
    default, in validation order (``k_list: None`` derives the list from
    ``n``); each field gets the check its kind implies and one CLI flag.
    ``checks`` are the cross-field checks: each takes the config and
    returns a problem, or a falsy value when the config is fine.
    """

    help: str
    fields: dict
    checks: tuple
    runner: Callable


def _entry(experiment) -> _Experiment | None:
    """The registry entry of ``experiment``; None for any other value, unhashable ones too."""
    return _REGISTRY.get(experiment) if isinstance(experiment, str) else None


def _settable(experiment: str) -> tuple[str, ...]:
    """The config fields a run of ``experiment`` reads, in validation order."""
    entry = _entry(experiment)
    return ("seed", *(entry.fields if entry else ()), "out", "format")


def _field_kind(name: str) -> str:
    """A config field's kind, read off its name: exponent, levels, count or text."""
    return ("exponent" if name in ("p", "q") else "levels" if name.endswith("_list")
            else "text" if name in ("out", "format") else "count")


def _field_problem(cfg: "ExperimentConfig", name: str) -> str | None:
    """The problem with one field, judged by its kind; None when it is fine."""
    value = getattr(cfg, name)
    kind = _field_kind(name)
    try:
        if name == "q":
            _exponent("q", value, math.inf)
        elif kind == "exponent":  # the subspace and ball results need p >= 2
            _real(name, value, 2)
        elif kind == "levels":
            # a list left unset is derived from n, whose own problem is reported
            if value is not None or _is_int(cfg.n):
                _levels(name, value, 1, cfg.n if _is_int(cfg.n) else math.inf)
        elif kind == "count":
            _integer(name, value, 0 if name in ("m", "seed") else 1, math.inf)
        elif name == "format" and value not in ("csv", "json"):
            return f"format: must be csv or json, got {value!r}"
        elif name == "out" and value is not None:
            # os.access raises on a NUL byte, so test for one first
            if not (isinstance(value, str) and value and "\0" not in value
                    and os.access(os.path.dirname(value) or ".", os.W_OK)):
                return f"out: need a file path in a writable directory, got {value!r}"
            if os.path.isdir(value):
                return f"out: need a file path, got the directory {value!r}"
    except ValueError as exc:
        return str(exc)
    return None


def _plain(value):
    """A numpy value, or a list of them, as the Python value it holds; others as they are."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run.

    Only ``experiment`` and ``seed`` are universally required; every
    other field has an experiment-specific default filled in by
    ``resolved()``.  ``n`` is the dictionary size, ball dimension, or
    sample-point count depending on the experiment; ``subspace_dim``
    and ``support_size`` describe subspaces for mp-duality and it1.
    """

    experiment: str
    seed: int
    q: float | None = None
    p: float | None = None
    n: int | None = None
    subspace_dim: int | None = None
    support_size: int | None = None
    k_list: list[int] | None = None
    m_list: list[int] | None = None
    m: int | None = None
    samples: int | None = None
    trials: int | None = None
    out: str | None = None
    format: str = "csv"

    def resolved(self) -> "ExperimentConfig":
        """Fill experiment-specific defaults, leaving set fields alone; numpy values go plain."""
        values = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        entry = _entry(self.experiment)
        defaults = entry.fields if entry is not None else {}
        for key, default in defaults.items():
            if values[key] is None:  # copied, so the registry default stays put
                values[key] = list(default) if isinstance(default, list) else default
        if "k_list" in defaults and values["k_list"] is None and _is_int(values["n"]):
            lo = max(1, math.ceil(math.log2(max(values["n"], 2))))
            ks = sorted({lo, 2 * lo, 4 * lo, values["n"]})
            values["k_list"] = [k for k in ks if lo <= k <= values["n"]]
        return ExperimentConfig(**values)

    def validate(self) -> None:
        """Collect every offending field into one structured error.

        The experiment's cross-field checks run once all of its fields
        pass their own checks, so they may rely on well-typed values.
        """
        entry = _entry(self.experiment)
        problems = [] if entry else [
            f"experiment: {self.experiment!r} is not one of {', '.join(EXPERIMENTS)}"]
        problems += [problem for name in _settable(self.experiment)
                     if (problem := _field_problem(self, name))]
        if entry and not problems:
            problems = [problem for check in entry.checks if (problem := check(self))]
        if problems:
            raise ConfigValidationError(problems)

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        problems = [f"{key}: unknown configuration field"
                    for key in sorted(set(doc) - {f.name for f in fields(cls)})]
        problems += [f"{key}: required" for key in ("experiment", "seed") if key not in doc]
        if problems:
            raise ConfigValidationError(problems)
        return cls(**doc)


# ---------------------------------------------------------------------------
# reports

@dataclass
class Report:
    """Column-oriented experiment output plus metadata and a summary."""

    experiment: str
    columns: dict[str, list]
    metadata: dict
    summary: list[str]

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns.keys())
        for row in zip(*self.columns.values()):
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue()

    def json_text(self) -> str:
        doc = {
            "experiment": self.experiment,
            "metadata": self.metadata,
            "columns": self.columns,
            "summary": self.summary,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        return "\n".join(self.summary) + "\n"


def emit(report: Report, fmt: str, out: str | None = None) -> str:
    """Render the report; write it to ``out`` when a path is given."""
    if fmt not in ("csv", "json"):
        raise ConfigValidationError([f"format: must be csv or json, got {fmt!r}"])
    text = report.csv_text() if fmt == "csv" else report.json_text()
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    return text


def _float_list(values) -> list[float]:
    return [float(v) for v in values]


def _profile_columns(profile, envelope, ratio) -> dict:
    """The k, lower, upper, envelope and ratio columns of an entropy profile."""
    return {
        "k": profile.k_list,
        "lower": _float_list(profile.lower),
        "upper": _float_list(profile.upper),
        "envelope": _float_list(envelope),
        "ratio": _float_list(ratio),
    }


# ---------------------------------------------------------------------------
# runners

def _run_sigma_decay(cfg: ExperimentConfig) -> tuple[dict, dict, list]:
    dictionary = canonical_dictionary(cfg.n, cfg.q)
    drawn = sample_octahedron(dictionary, cfg.samples, cfg.seed)
    profile = sigma_profile([s["vector"] for s in drawn], dictionary, cfg.m_list)
    # a level reads 0 when the greedy recovers every sample exactly by then
    kept = profile.values > 0.0
    recovered = [m for m, k in zip(cfg.m_list, kept) if not k]
    if kept.sum() < 3:
        raise ValueError(
            f"fit needs positive values at 3 levels or more: every sample is "
            f"recovered exactly at m = {recovered}, which reads 0")
    fit = fit_envelope((np.asarray(cfg.m_list)[kept], profile.values[kept]),
                       model=FitModel.POWER_M)
    theory = 1.0 / cfg.q - 1.0
    summary = [
        f"greedy m-term decay on the {cfg.n}-atom hull, q = {cfg.q}",
        f"max residual over {cfg.samples} samples at m = {list(cfg.m_list)}",
        f"fitted exponent {fit.exponent:.4f} (theory {theory:.4f}), "
        f"constant {fit.constant:.4f}, residual rms {fit.residual_rms:.2e}",
    ]
    if recovered:
        summary.append(f"every sample recovered exactly at m = {recovered}; "
                       "the fit leaves those levels out")
    return (
        {"m": list(cfg.m_list), "sigma": _float_list(profile.values)},
        {"samples": cfg.samples, "fit": asdict(fit), "theory_exponent": theory,
         "recovered_m": recovered},
        summary)


def _run_ball_entropy(cfg: ExperimentConfig) -> tuple[dict, dict, list]:
    result = ball_entropy_experiment(cfg.p, cfg.n, cfg.k_list,
                                     sample_size=cfg.samples, seed=cfg.seed)
    profile = result.profile
    envelope, ratio, spread = _envelope_ratio(profile.upper, cfg.n, profile.k_list,
                                              1.0 / cfg.p, 1.0)
    return (
        _profile_columns(profile, envelope, ratio),
        {"samples": result.sample_size,
         "upper_source": profile.upper_source,
         "lower_source": profile.lower_source,
         "ratio_spread": spread, "trivial_bound": 1.0},
        [
            f"unit ball of l_{cfg.p} in dimension {cfg.n}, max-norm entropy",
            f"upper/envelope ratio spread {spread:.3f} over k = {profile.k_list}",
            f"max upper entry {float(np.max(profile.upper))!r} (trivial bound 1)",
        ])


def _run_duality_check(cfg: ExperimentConfig) -> tuple[dict, dict, list]:
    dictionary = canonical_dictionary(cfg.n, cfg.q)
    report = duality_sum_check(dictionary, cfg.m, sample_size=cfg.samples,
                               seed=cfg.seed)
    lo, hi = report.ratio_interval
    return (
        {
            "k": report.k_list,
            "hull_lower": _float_list(report.hull_lower),
            "hull_upper": _float_list(report.hull_upper),
            "dual_lower": _float_list(report.dual_lower),
            "dual_upper": _float_list(report.dual_upper),
        },
        {"p_exponent": report.p_exponent,
         "ratio_interval": [lo, hi],
         "contains_one": report.contains_one,
         "flagged": report.flagged, "status": report.status},
        [
            f"entropy sum duality on {cfg.n} canonical atoms, q = {cfg.q}, "
            f"p = q'/2 = {report.p_exponent}",
            f"ratio interval [{lo!r}, {hi!r}], contains 1: {report.contains_one}",
            f"status: {report.status}",
        ])


def _run_mp_duality(cfg: ExperimentConfig) -> tuple[dict, dict, list]:
    rng = np.random.default_rng(cfg.seed)
    rows = {"trial": [], "seed": [], "uniform": [], "direct": [], "dual": [],
            "gap": []}
    max_gap = 0.0
    for i in range(cfg.trials):
        sub_seed = int(rng.integers(2 ** 31))
        uniform = i % 2 == 0
        if uniform:
            measure = None
        else:
            w = rng.uniform(0.5, 1.5, cfg.support_size)
            measure = MeasureSpace(w / w.sum())
        sub = random_subspace(cfg.subspace_dim, cfg.support_size, sub_seed,
                              measure=measure)
        direct = m_p_direct(sub, cfg.p)
        dual = m_p_dual(sub, cfg.p)
        gap = abs(direct - dual)
        max_gap = max(max_gap, gap)
        rows["trial"].append(i)
        rows["seed"].append(sub_seed)
        rows["uniform"].append(int(uniform))
        rows["direct"].append(float(direct))
        rows["dual"].append(float(dual))
        rows["gap"].append(float(gap))
    return (
        rows,
        {"max_gap": max_gap},
        [
            f"uniform-norm constant by two routes on {cfg.trials} random "
            f"subspaces (dim {cfg.subspace_dim} of {cfg.support_size} points, "
            f"p = {cfg.p})",
            f"max |direct - dual| = {max_gap!r}",
        ])


def _run_it1(cfg: ExperimentConfig) -> tuple[dict, dict, list]:
    rng = np.random.default_rng(cfg.seed)
    sub = random_subspace(cfg.subspace_dim, cfg.support_size,
                          int(rng.integers(2 ** 31)))
    pts = SamplePointSet(np.sort(rng.choice(cfg.support_size, cfg.n,
                                            replace=False)))
    result = it1_experiment(sub, pts, cfg.p, cfg.k_list, seed=cfg.seed,
                            cover_sample_size=cfg.samples)
    profile = result.profile
    return (
        _profile_columns(profile, result.envelope, result.upper_ratio),
        {"m_p": result.m_p, "ratio_spread": result.spread,
         "upper_source": profile.upper_source},
        [
            f"subspace ball entropy in the {cfg.n}-point seminorm "
            f"(dim {cfg.subspace_dim} of {cfg.support_size}, p = {cfg.p})",
            f"M_p = {result.m_p!r}",
            f"upper/envelope ratio spread {result.spread:.3f} over k = {profile.k_list}",
        ])


def _run_it2_octahedron(cfg: ExperimentConfig) -> tuple[dict, dict, list]:
    dictionary = canonical_dictionary(cfg.n, cfg.q)
    octa = Octahedron(dictionary)
    certs = octahedron_cover_profile(octa, cfg.k_list, seed=cfg.seed,
                                     sample_size=cfg.samples)
    ks = list(cfg.k_list)
    radii = np.array([certs[k].radius for k in ks])
    envelope, ratio, spread = _envelope_ratio(radii, cfg.n, ks, 1.0 - 1.0 / cfg.q, 1.0)
    counts = [certs[k].count_bound for k in ks]
    return (
        {
            "k": ks,
            "radius": _float_list(radii),
            "count_bound": counts,
            "envelope": _float_list(envelope),
            "ratio": _float_list(ratio),
        },
        {"samples": cfg.samples,
         "m_used": [certs[k].extra.get("m") for k in ks],
         "ratio_spread": spread},
        [
            f"constructive covers of the {cfg.n}-atom hull, q = {cfg.q}",
            f"radii {[float(r) for r in radii]} at k = {ks}",
            f"upper/envelope ratio spread {spread:.3f}",
        ])


_REGISTRY = {
    "sigma-decay": _Experiment(
        "greedy m-term decay over octahedron samples",
        {"q": 2.0, "n": 256, "samples": 50, "m_list": [4, 8, 16, 32, 64]},
        (lambda c: len(c.m_list) < 3 and
         f"m_list: the envelope fit needs at least 3 entries, got {c.m_list!r}",),
        _run_sigma_decay),
    "ball-entropy": _Experiment(
        "entropy profile of the l_p unit ball in the max norm",
        {"p": 2.0, "n": 32, "samples": 2048, "k_list": None},
        (),
        _run_ball_entropy),
    "duality-check": _Experiment(
        "two-sided entropy sum comparison for hull and dual ball",
        {"q": 2.0, "n": 8, "m": 6, "samples": 320},
        (lambda c: c.q > 2.0 and
         f"q: the sum comparison needs q in (1, 2], got {c.q!r}",
         lambda c: c.n > 12 and
         f"n: the duality check is budgeted for n <= 12, got {c.n}"),
        _run_duality_check),
    "mp-duality": _Experiment(
        "uniform-norm constant by direct and dual routes",
        {"p": 2.0, "subspace_dim": 4, "support_size": 64, "trials": 20},
        (lambda c: c.subspace_dim > c.support_size and
         "subspace_dim: must not exceed support_size",),
        _run_mp_duality),
    "it1": _Experiment(
        "entropy profile of a subspace L_p ball in a sample seminorm",
        {"p": 2.0, "subspace_dim": 8, "support_size": 256, "n": 64,
         "k_list": None, "samples": 320},
        (lambda c: c.n > c.support_size and
         f"n: cannot sample {c.n} points from {c.support_size} support points",),
        _run_it1),
    "it2-octahedron": _Experiment(
        "constructive covers of the canonical atom hull",
        {"q": 2.0, "n": 64, "samples": 400, "k_list": None},
        (),
        _run_it2_octahedron),
}

EXPERIMENTS = tuple(_REGISTRY)


def run(config: ExperimentConfig) -> tuple[Report, str]:
    """Validate, execute, and emit one experiment.

    Returns the report and the rendered machine-readable text (also
    written to ``config.out`` when set).
    """
    cfg = config.resolved()
    cfg.validate()
    entry = _REGISTRY[cfg.experiment]
    columns, findings, summary = entry.runner(cfg)
    # runners that report a sample size put it among their findings
    metadata = {name: getattr(cfg, name) for name in ("seed", *entry.fields)
                if name != "samples" and _field_kind(name) != "levels"}
    metadata.update(findings, version=_VERSION)
    report = Report(cfg.experiment, columns, metadata, summary)
    text = emit(report, cfg.format, cfg.out)
    return report, text
