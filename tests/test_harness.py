"""Experiment configs, reports, envelope fits, and the CLI."""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrobound import (
    ConfigValidationError,
    Dictionary,
    ExperimentConfig,
    FitModel,
    NormBoundError,
    QuantizationBudgetError,
    Report,
    emit,
    fit_envelope,
    log_ratio_envelope,
    norm,
    random_subspace,
    run,
    sequence_space,
)
import entrobound._optim as optim
import entrobound.discretization as discretization
import entrobound.entropy as entropy
import entrobound.greedy as greedy
import entrobound.harness as harness
from entrobound.cli import _merge_config, build_parser, main
from entrobound.discretization import _representer


# ---------------------------------------------------------------------------
# envelope fits

def test_fit_recovers_a_power_law_exactly():
    m = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    values = 3.25 * m ** (-0.5)
    fit = fit_envelope((m, values), model=FitModel.POWER_M)
    assert abs(fit.exponent + 0.5) <= 1e-9
    assert abs(fit.constant - 3.25) <= 1e-9
    assert fit.residual_rms <= 1e-9
    assert fit.points_used == 5


def test_fit_recovers_a_log_ratio_law_exactly():
    n = 64
    k = np.arange(6, 65, dtype=float)
    values = 0.75 * log_ratio_envelope(n, k, 1.0) ** 0.5
    fit = fit_envelope((k, values), n, model=FitModel.LOG_RATIO_K)
    assert abs(fit.exponent - 0.5) <= 1e-9
    assert abs(fit.constant - 0.75) <= 1e-9
    assert fit.model == "log-ratio-k"


def test_fit_drops_small_k_by_default():
    n = 16
    k = np.array([2.0, 3.0, 4.0, 8.0, 16.0])
    values = log_ratio_envelope(n, k, 1.0) ** 0.5
    values[:2] = 1.0  # garbage below log2(n), as in trivial-bound entries
    fit = fit_envelope((k, values), n, model=FitModel.LOG_RATIO_K)
    assert fit.points_used == 3
    assert fit.k_range == (4, 16)
    assert abs(fit.exponent - 0.5) <= 1e-9


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_envelope((np.array([4.0, 8.0]), np.array([1.0, 0.5])))
    with pytest.raises(ValueError, match="entries \\[1\\]"):
        fit_envelope((np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.5])))
    with pytest.raises(ValueError):
        fit_envelope((np.array([4.0, 8.0, 16.0]), np.ones(3)),
                     model=FitModel.LOG_RATIO_K)


def test_fit_rejects_non_finite_values():
    # NaN passed the positivity test and came back as an exponent of NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="entries \\[1\\] .* finite"):
            fit_envelope(([1, 2, 3], [1.0, bad, 2.0]))


# ---------------------------------------------------------------------------
# configs

def test_config_fills_experiment_defaults():
    cfg = ExperimentConfig(experiment="sigma-decay", seed=0).resolved()
    assert (cfg.q, cfg.n, cfg.samples) == (2.0, 256, 50)
    assert cfg.m_list == [4, 8, 16, 32, 64]


def test_resolved_configs_do_not_share_list_defaults():
    ExperimentConfig(experiment="sigma-decay", seed=0).resolved().m_list.append(128)
    cfg = ExperimentConfig(experiment="sigma-decay", seed=0).resolved()
    assert cfg.m_list == [4, 8, 16, 32, 64]


def test_config_derives_a_dyadic_k_list():
    cfg = ExperimentConfig(experiment="ball-entropy", seed=0, n=64).resolved()
    assert cfg.k_list == [6, 12, 24, 64]


def test_config_validation_collects_all_problems():
    cfg = ExperimentConfig(experiment="ball-entropy", seed=0, p=1.0, n=8,
                           k_list=[0, 4], samples=16)
    with pytest.raises(ConfigValidationError) as exc:
        cfg.validate()
    text = "\n".join(exc.value.problems)
    assert "p:" in text and "k_list:" in text
    assert len(exc.value.problems) == 2


def test_config_validation_edges():
    with pytest.raises(ConfigValidationError):
        ExperimentConfig(experiment="nope", seed=0).resolved().validate()
    with pytest.raises(ConfigValidationError):
        ExperimentConfig(experiment="sigma-decay", seed=True).resolved().validate()
    with pytest.raises(ConfigValidationError):
        ExperimentConfig(experiment="duality-check", seed=0, n=13).resolved().validate()
    with pytest.raises(ConfigValidationError):
        ExperimentConfig(experiment="it1", seed=0, n=512,
                         support_size=256).resolved().validate()


@pytest.mark.parametrize("experiment, field, value", [
    ("ball-entropy", "n", 8.5),
    ("sigma-decay", "samples", "4"),
    ("mp-duality", "subspace_dim", 2.0),
    ("it1", "support_size", True),
    ("mp-duality", "trials", [2]),
    ("duality-check", "m", 1.5),
    ("ball-entropy", "p", float("inf")),
    ("it1", "p", float("nan")),
    ("sigma-decay", "q", float("inf")),
    ("duality-check", "q", "1.5"),
    ("it2-octahedron", "k_list", [3, "8"]),
    ("sigma-decay", "m_list", [1, 2.0]),
    ("ball-entropy", "out", ["report.csv"]),
])
def test_config_validation_checks_types(experiment, field, value):
    cfg = ExperimentConfig(experiment=experiment, seed=0, **{field: value})
    with pytest.raises(ConfigValidationError) as exc:
        cfg.resolved().validate()
    assert [problem.split(":")[0] for problem in exc.value.problems] == [field]


@pytest.mark.parametrize("p, fields", [(1.0, ["p"]), (3.0, ["subspace_dim"])])
def test_config_cross_field_checks_wait_for_well_typed_fields(p, fields):
    cfg = ExperimentConfig(experiment="mp-duality", seed=0, p=p,
                           subspace_dim=8, support_size=4)
    with pytest.raises(ConfigValidationError) as exc:
        cfg.resolved().validate()
    assert [problem.split(":")[0] for problem in exc.value.problems] == fields


def test_config_json_round_trip_rejects_unknown_fields():
    cfg = ExperimentConfig(experiment="mp-duality", seed=3, p=3.0).resolved()
    doc = {f.name: getattr(cfg, f.name) for f in fields(cfg)
           if getattr(cfg, f.name) is not None}
    back = ExperimentConfig.from_json(doc)
    assert back == cfg
    with pytest.raises(ConfigValidationError):
        ExperimentConfig.from_json({"experiment": "it1", "seed": 0, "bogus": 1})
    with pytest.raises(ConfigValidationError, match="tolerance: unknown"):
        ExperimentConfig.from_json({"experiment": "it1", "seed": 0,
                                    "tolerance": 1e-9})
    with pytest.raises(ConfigValidationError):
        ExperimentConfig.from_json({"experiment": "it1"})


# ---------------------------------------------------------------------------
# reports

def _tiny_report():
    return Report(experiment="demo", columns={"k": [1, 2], "v": [0.5, 0.25]},
                  metadata={"seed": 0}, summary=["line one", "line two"])


def test_report_csv_uses_repr_floats():
    text = _tiny_report().csv_text()
    assert text.splitlines()[0] == "k,v"
    assert "0.25" in text
    assert text.endswith("\n")


def test_report_json_is_sorted_and_terminated():
    text = _tiny_report().json_text()
    doc = json.loads(text)
    assert doc["columns"]["v"] == [0.5, 0.25]
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_emit_writes_files(tmp_path):
    out = tmp_path / "report.csv"
    text = emit(_tiny_report(), "csv", str(out))
    assert out.read_text() == text
    with pytest.raises(ConfigValidationError):
        emit(_tiny_report(), "yaml")


# ---------------------------------------------------------------------------
# runners

_TINY = {
    # five samples, so that three levels are not recovered and m = 8 reads 0;
    # with four, every sample is recovered by m = 4 and the run fails
    # (see test_cli_failed_runs_end_in_one_line)
    "sigma-decay": dict(n=8, m_list=[1, 2, 4, 8], samples=5),
    "ball-entropy": dict(p=2.0, n=8, k_list=[3, 8], samples=128),
    "duality-check": dict(q=2.0, n=4, m=2, samples=64),
    "mp-duality": dict(p=3.0, subspace_dim=2, support_size=16, trials=2),
    "it1": dict(p=2.0, subspace_dim=2, support_size=32, n=8, k_list=[3, 8],
                samples=48),
    "it2-octahedron": dict(q=2.0, n=8, k_list=[3, 8], samples=64),
}


@pytest.mark.parametrize("experiment", sorted(_TINY))
def test_runners_produce_consistent_reports(experiment):
    cfg = ExperimentConfig(experiment=experiment, seed=1, **_TINY[experiment])
    report, text = run(cfg)
    assert report.experiment == experiment
    lengths = {len(col) for col in report.columns.values()}
    assert len(lengths) == 1
    assert report.metadata["version"].startswith("entrobound")
    assert report.summary
    assert text


@pytest.mark.parametrize("experiment", ["sigma-decay", "ball-entropy", "it1"])
def test_runs_are_byte_identical(experiment):
    cfg = ExperimentConfig(experiment=experiment, seed=2, format="json",
                           **_TINY[experiment])
    _, first = run(cfg)
    _, second = run(cfg)
    assert first == second


# sha256 of the JSON report of each _TINY run at seed 1 with the exponent set
# to 2: the closed-form paths must keep these bytes through any refactor
_GOLDEN_EXPONENT_2 = {
    "ball-entropy": "2ae8441e6d22c76b899581d8eda0596462e341af622ee7eb9fd027ac6ee77a5e",
    "duality-check": "2b15e6a099d96e4cfc0aed15aff05d47003899c9f810a8fee5617588f917c66b",
    "it1": "e178d32ac2d7ea4e642a2ce65a8f6cb2cdd7c22338860aca5e38ef03a5109762",
    "it2-octahedron": "f59e02a618d57b25ba060b69c9773b07b0e7df65497314a800a22361fb6b8350",
    "mp-duality": "041c86911d18d448d849e63928272e89b2e1c18e88f6b8bdc39c4e93013b52d7",
    "sigma-decay": "a3d9e7f5aa6edcb0fe56413b60d01fae6b37945b8a97d2482a2589d50d42d8ff",
}


@pytest.mark.parametrize("experiment", sorted(_GOLDEN_EXPONENT_2))
def test_exponent_2_reports_match_golden_digests(experiment):
    params = dict(_TINY[experiment])
    for key in ("p", "q"):
        if key in params:
            params[key] = 2.0
    _, text = run(ExperimentConfig(experiment=experiment, seed=1,
                                   format="json", **params))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _GOLDEN_EXPONENT_2[experiment]


# sha256 of the JSON report of each _TINY run at seed 1 with q = 1.5 or p = 3:
# the smoothed-Newton paths must keep these bytes through any refactor
_GOLDEN_EXPONENT_NOT_2 = {
    "ball-entropy": "332920833b787cb44c2d1f717048bae2d6b91ee435e0c9a76d3e64b4acdbb25f",
    "duality-check": "122ef79a65087a3eb6e93372b1ed7099775a98fe97461038b3d4e93b6055e97c",
    "it1": "bb78beea725bf6d870163ada5948c062b5f8b90d347467d8a930511ab1f28c60",
    "it2-octahedron": "ba050f69b0e176e30e04b70f62fbeeb3ed8843b484796187edba5d46aa1375b4",
    "mp-duality": "ea3295e25822705bb9e5bfdbe808c073fc2bfc7a90d62e595f924cbc213fd2b8",
    "sigma-decay": "c63505788b82de543312e39d49c98a5cc186c8e2fb677b0aaa36866d164e73b8",
}


@pytest.mark.parametrize("experiment", sorted(_GOLDEN_EXPONENT_NOT_2))
def test_exponent_not_2_reports_match_golden_digests(experiment):
    params = dict(_TINY[experiment])
    if experiment in ("sigma-decay", "duality-check", "it2-octahedron"):
        params["q"] = 1.5
    else:
        params["p"] = 3.0
    _, text = run(ExperimentConfig(experiment=experiment, seed=1,
                                   format="json", **params))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _GOLDEN_EXPONENT_NOT_2[experiment]


def test_it1_at_p_4_matches_its_golden_digest():
    # the p = 3 digest reaches the serial Newton loop through dense greedy at
    # q = 1.5; this one pins the q = 4/3 greedy and the p = 4 M_p solves too
    params = dict(_TINY["it1"], p=4.0)
    _, text = run(ExperimentConfig(experiment="it1", seed=1, format="json", **params))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "ba9a757d8e91d52b5e20169c35ccc948b003f276083fe677e497a621b5b7010d"


def test_default_it1_at_p_3_matches_its_golden_digest():
    # the default scale: this report moves by one ulp if the cover metric's
    # row norms round as the vector path does, and no tiny run shows that
    _, text = run(ExperimentConfig(experiment="it1", seed=1, format="json", p=3.0))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "f0ae271908500baca768b29abfc7ccb6bf99011ad814d3ac0d7626d6a3ca27e3"


def test_run_rejects_invalid_configs():
    with pytest.raises(ConfigValidationError):
        run(ExperimentConfig(experiment="ball-entropy", seed=0, p=1.0))


# ---------------------------------------------------------------------------
# command line

def test_cli_writes_machine_output_to_stdout(capsys):
    code = main(["sigma-decay", "--seed", "1", "--n", "8",
                 "--m-list", "1,2,4", "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "m,sigma"
    assert "fitted exponent" in captured.err


def test_cli_writes_files_and_summarizes(tmp_path, capsys):
    out = tmp_path / "decay.json"
    code = main(["sigma-decay", "--seed", "1", "--n", "8", "--m-list", "1,2,4",
                 "--samples", "5", "--format", "json", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote {out}" in captured.out
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "sigma-decay"


def test_cli_rejects_bad_parameters(capsys):
    code = main(["ball-entropy", "--seed", "0", "--p", "1.0", "--n", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: p:" in captured.err


def test_cli_requires_a_seed(capsys):
    code = main(["mp-duality"])
    captured = capsys.readouterr()
    assert code == 2
    assert "seed: required" in captured.err


def test_cli_checks_the_out_path_before_the_run(monkeypatch, tmp_path, capsys):
    # a missing directory once surfaced as a traceback after the whole run
    monkeypatch.setattr(harness, "duality_sum_check", _never_called)
    argv = "duality-check --seed 0 --q 1.5 --n 4 --m 2 --out".split()
    assert main(argv + [str(tmp_path / "missing" / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out: need a file path in a writable directory")
    assert len(captured.err.splitlines()) == 1
    # so is an existing directory, which once failed to open after the run
    assert main(argv + [str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out: need a file path, got the directory {str(tmp_path)!r}\n"
    # a path that validates but cannot be written exits 1, after the run:
    # a file name longer than any file system allows
    monkeypatch.undo()
    assert main(argv + [str(tmp_path / ("x" * 300))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("config, problem", [
    # os.access raises on a NUL byte, whose message once came without its field
    (ExperimentConfig(experiment="duality-check", seed=0, out="/tmp/a\x00b/x.csv"),
     "out: need a file path in a writable directory, got '/tmp/a\\x00b/x.csv'"),
    # a list is unhashable, and the registry lookup once raised TypeError
    (ExperimentConfig(experiment=["it1"], seed=0),
     "experiment: ['it1'] is not one of " + ", ".join(harness.EXPERIMENTS)),
])
def test_config_problems_name_their_field(config, problem):
    for validate in (config.validate, lambda: config.resolved().validate()):
        with pytest.raises(ConfigValidationError) as err:
            validate()
        assert problem in err.value.problems
    if not isinstance(config.experiment, str):
        assert harness._settable(config.experiment) == ("seed", "out", "format")


def _never_called(*args, **kwargs):
    raise AssertionError("the experiment ran")


def test_cli_flags_override_the_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1, "p": 2.0, "n": 8, "samples": 64,
                                  "format": "json"}))
    code = main(["ball-entropy", "--config", str(config), "--n", "6"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["metadata"]["n"] == 6
    assert doc["metadata"]["seed"] == 1


def test_cli_reports_unreadable_configs(tmp_path, capsys):
    code = main(["sigma-decay", "--config", str(tmp_path / "absent.json"),
                 "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "config: cannot read" in captured.err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sigma-decay", "--config", str(bad), "--seed", "0"]) == 2


@pytest.mark.parametrize("doc, problem", [
    ({"seed": 0, "n": 8.5}, "error: n: need an integer >= 1, got 8.5"),
    ({"seed": 0, "k_list": [3, "8"]},
     "error: k_list: entries must be integers, got [3, '8']"),
])
def test_cli_rejects_mistyped_config_values(tmp_path, capsys, doc, problem):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    code = main(["ball-entropy", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [problem]


@pytest.mark.parametrize("argv, problem", [
    ("sigma-decay --seed 1 --n 16 --m-list 2,2,4,8 --samples 5",
     "error: m_list: must be increasing and >= 1, got [2, 2, 4, 8]"),
    ("ball-entropy --seed 1 --k-list 3,3,8", "error: k_list: must be increasing"),
    ("it2-octahedron --seed 1 --k-list 3,3,8", "error: k_list: must be increasing"),
])
def test_cli_rejects_repeated_list_entries(capsys, argv, problem):
    # a repeated level is sorted, but it would be run and reported twice
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(problem)


@pytest.mark.parametrize("argv, code, problem", [
    ("sigma-decay --seed 0 --m-list 1,2", 2,
     "error: m_list: the envelope fit needs at least 3 entries, got [1, 2]"),
    # with one sample the greedy reaches some sigma values exactly
    ("sigma-decay --seed 0 --n 8 --m-list 1,2,4 --samples 1", 1,
     "error: fit needs positive values"),
    # four samples of supports 3, 3, 1 and 2 are all recovered by m = 4
    ("sigma-decay --seed 1 --n 8 --m-list 1,2,4 --samples 4", 1,
     "error: fit needs positive values at 3 levels or more: every sample is "
     "recovered exactly at m = [4], which reads 0"),
    # exponents this large overflow the inner solver's objective
    ("mp-duality --seed 0 --p 1e9 --subspace-dim 3 --support-size 8 "
     "--trials 1", 1, "error: inner solver stopped"),
    ("it1 --seed 0 --p 1e6 --subspace-dim 3 --support-size 8 --n 4 "
     "--k-list 2,4 --samples 8", 1, "error: inner solver stopped"),
])
def test_cli_failed_runs_end_in_one_line(capsys, argv, code, problem):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(problem)


@pytest.mark.parametrize("q", ["2", "1.5"])
def test_sigma_decay_fits_only_the_levels_not_recovered(capsys, q):
    # all 50 samples of the 16-atom hull are recovered exactly by m = 16;
    # that level's round-off residual (1.2e-16 at q = 2) used to enter the
    # fit, which read an exponent of -15.4 against a theory of -0.5
    code = main(["sigma-decay", "--seed", "1", "--n", "16", "--m-list", "2,4,8,16",
                 "--q", q, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    sigma = doc["columns"]["sigma"]
    assert sigma[-1] == 0.0 and all(v > 0.0 for v in sigma[:-1])
    assert doc["metadata"]["recovered_m"] == [16]
    fit = doc["metadata"]["fit"]
    assert fit["points_used"] == 3 and fit["k_range"] == [2, 8]
    assert -1.5 < fit["exponent"] < -0.5
    assert "every sample recovered exactly at m = [16]" in captured.err


def _packing_lowers_of_five(insertion, k_list):
    return [5.0] * len(k_list), ["packing"] * len(k_list)


def _representer_times_100(*args):
    return 100.0 * _representer(*args)


@pytest.mark.parametrize("argv, module, name, breach, problem", [
    ("ball-entropy --seed 1 --n 8 --k-list 3,8 --samples 64", entropy,
     "_packing_lowers", _packing_lowers_of_five,
     "property violation: lower bound 5.0 exceeds upper bound 1.0 at k = 3"),
    ("it1 --seed 0 --p 3 --subspace-dim 3 --support-size 16 --n 4 "
     "--k-list 2,4 --samples 8", discretization, "_representer",
     _representer_times_100, "property violation: representer 0 has dual norm"),
])
def test_cli_breached_checks_exit_3_in_one_line(monkeypatch, capsys, argv, module,
                                                name, breach, problem):
    # a profile whose lower bound tops its upper bound, and an evaluation
    # representer above its certified norm bound, are breaches, not failed runs
    monkeypatch.setattr(module, name, breach)
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(problem)


_max_grid_radius = entropy._max_grid_radius


def _grid_radius_past_the_budget(count, m, target):
    # one grid step finer than fits: comb(n, m) * count(m, M + 1) > 2^k
    return _max_grid_radius(count, m, target) + 1


@pytest.mark.parametrize("argv, module, name, value, error, problem", [
    ("it1 --seed 0 --p 3 --subspace-dim 3 --support-size 16 --n 4 "
     "--k-list 2,4 --samples 8", discretization, "_NORM_BOUND_SLACK", -math.inf,
     NormBoundError, "property violation: representer 0 has dual norm"),
    ("it2-octahedron --seed 0 --q 1.5 --n 8 --k-list 3,8 --samples 16", entropy,
     "_max_grid_radius", _grid_radius_past_the_budget, QuantizationBudgetError,
     "property violation: certified count "),
])
def test_cli_breached_bounds_and_budgets_exit_3(monkeypatch, capsys, argv, module,
                                                name, value, error, problem):
    # a representer norm above a lowered bound, and a cover grid past its
    # 2^k center budget, each raise their own property violation
    monkeypatch.setattr(module, name, value)
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(problem)
    with pytest.raises(error):
        run(_merge_config(build_parser().parse_args(argv.split())))


def test_cli_octahedron_cover_at_a_huge_exponent_succeeds(capsys):
    # on coordinate atoms every projection is the closed form, so no power
    # of the residual is ever differentiated and nothing overflows
    argv = "it2-octahedron --seed 0 --q 1e9 --n 8 --k-list 3,8 --samples 16"
    assert main(argv.split()) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("k,radius,")
    radii = [float(row.split(",")[1]) for row in rows[1:]]
    assert len(radii) == 2
    assert all(math.isfinite(r) and 0.0 < r <= 1.0 for r in radii)


# small values every flag may take, so that a run of valid flags ends in seconds
_VALID_FLAGS = {
    "seed": ["0", "1"], "q": ["1.5", "2"], "p": ["2", "3"], "n": ["2", "4", "8"],
    "subspace_dim": ["1", "2"], "support_size": ["8", "16"],
    "k_list": ["1,2", "2,3"], "m_list": ["1,2,4"], "m": ["0", "2"],
    "samples": ["4", "16"], "trials": ["1", "2"], "format": ["csv", "json"],
}
_HOSTILE_FLAGS = ["-1", "0", "nan", "inf", "1e309", "abc", "", "yaml"]
_MISSING_DIRECTORY = "/no/such/directory/report.csv"


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
@given(data=st.data())
def test_cli_ends_every_argv_in_a_documented_exit(tmp_path_factory, experiment, data):
    # each flag small and valid, or hostile: no input may end in a traceback
    names = harness._settable(experiment)
    hostile = data.draw(st.sets(st.sampled_from(names), max_size=2))
    out = str(tmp_path_factory.getbasetemp() / "report.out")
    argv = [experiment]
    for name in names:
        if name == "out":  # a hostile path is refused, so no report lands elsewhere
            pool = (["", _MISSING_DIRECTORY, str(tmp_path_factory.getbasetemp())]
                    if name in hostile else [out])
        else:
            pool = _HOSTILE_FLAGS if name in hostile else _VALID_FLAGS[name]
        argv.append(f"--{name.replace('_', '-')}={data.draw(st.sampled_from(pool))}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses what it cannot parse
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


def test_cli_flags_are_the_registry_fields():
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    assert tuple(sub.choices) == harness.EXPERIMENTS
    common = {"help", "config", "seed", "out", "format"}
    for name, entry in harness._REGISTRY.items():
        dests = [action.dest for action in sub.choices[name]._actions]
        assert [d for d in dests if d not in common] == list(entry.fields)


# ---------------------------------------------------------------------------
# benchmark hooks

def test_benchmark_tracer_finds_every_traced_attribute(monkeypatch):
    # perfbench/tracing.py wraps package attributes by name; a refactor that
    # drops one would otherwise fail only when the benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    original = harness.m_p_direct
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run(ExperimentConfig(experiment="it1", seed=1, **_TINY["it1"]))
    finally:
        tracer.uninstall()
    assert harness.m_p_direct is original
    assert tracer.spans["discretization.it1"].calls == 1
    assert tracer.spans["entropy.fps"].calls == 1


def test_benchmark_tracer_counts_every_newton_iteration(monkeypatch):
    # the benchmark counts Newton iterations through _optim.cho_factor; a
    # kernel that bypassed it would report 0 iterations and 0 us per iteration
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    factored = []
    cho_factor = optim.cho_factor
    monkeypatch.setattr(optim, "cho_factor",
                        lambda H: factored.append(1) or cho_factor(H))
    # dense atoms: coordinate atoms would take the closed form instead
    rng = np.random.default_rng(3)
    space = sequence_space(6, 1.5)
    atoms = rng.standard_normal((6, 8))
    atoms /= [norm(space, a) for a in atoms.T]
    d = Dictionary(atoms, space)
    f = rng.standard_normal(6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        greedy.wcga(f, d, 3)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["optim.newton_iters"] == len(factored) > 0
    assert metrics["optim.iter_us"] > 0.0
    # the dual route's Schur systems are factored there too
    factored.clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        discretization.m_p_dual(random_subspace(3, 12, seed=4), 3.0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["optim.newton_iters"] == len(factored) > 0
    assert tracer.spans["discretization.m_p_dual"].calls == 1


def test_benchmark_workloads_call_the_library_as_it_stands(monkeypatch):
    # perfbench/workloads.py builds subspaces, dictionaries and configs
    # through the public API; a moved constructor or a removed keyword
    # would otherwise fail only when the benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    wanted = {
        "closed-form": ("octahedron_cover_profile:q=2", "it1_experiment:p=2",
                        "exact_entropy_small"),
        "greedy-newton": ("sigma_profile:q=1.5", "octahedron_cover_profile:q=1.5"),
        "subspace-newton": ("run:mp-duality", "it1_experiment:p=4"),
    }
    for workload, prefixes in wanted.items():
        ops = workloads.WORKLOADS[workload](1)
        for prefix in prefixes:
            op = next(op for op in ops if op.name.startswith(prefix))
            assert op.check(op.call()) == [], (workload, op.name)
