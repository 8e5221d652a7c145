"""CLI tests: config parsing, sweep CSV structure and determinism, figure
presets, the validation gate table, and exit codes."""

import csv
import math
from pathlib import Path

import pytest

from astars_noma import montecarlo as mc
from astars_noma.analytic import NumericIntegrityError, SicMode
from astars_noma.cli import (CSV_HEADER, SweepSpec, _check_cell, figure_ids, main,
                             parse_config, run_sweep, validate)
from astars_noma.model import ConfigError, NetworkConfig

TRIALS = 4000
GOLDEN = Path(__file__).parent / "golden"


def write_cfg(tmp_path: Path, text: str) -> Path:
    p = tmp_path / "net.cfg"
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_config_gives_reference_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# nothing here\n\n"))
    assert cfg == NetworkConfig()


def test_config_overrides_and_comments(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
        # sweep setup
        kappa_db = -5
        lambda = 8          # amplification
        num_elements = 6
        sigma_s2_dbm = -60
        eta0_db = -30
        mean_noise_mode = true
        hyp2f1_z_cap = 0.995
    """))
    assert cfg.rician_kappa == pytest.approx(10.0 ** -0.5)
    assert cfg.amp_lambda == 8.0
    assert cfg.num_elements == 6
    assert cfg.noise_sigma_s2 == pytest.approx(1e-9)
    assert cfg.mean_noise_mode is True
    assert cfg.hyp2f1_z_cap == 0.995


def test_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key: not_a_knob"):
        parse_config(write_cfg(tmp_path, "not_a_knob = 3\n"))


def test_config_invariant_violation_names_constraint(tmp_path):
    with pytest.raises(ConfigError, match="beta_r\\+beta_t <= 1"):
        parse_config(write_cfg(tmp_path, "beta_r = 0.8\nbeta_t = 0.3\n"))
    with pytest.raises(ConfigError, match="a_r <= a_t"):
        parse_config(write_cfg(tmp_path, "a_r = 0.9\na_t = 0.1\n"))


def test_config_bad_syntax_and_values(tmp_path):
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config(write_cfg(tmp_path, "just some words\n"))
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(write_cfg(tmp_path, "lambda = strong\n"))
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(write_cfg(tmp_path, "mean_noise_mode = maybe\n"))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _read(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_csv_structure_and_monotonicity(tmp_path):
    cfg = NetworkConfig()
    spec = SweepSpec(axis="q_tot_dbm",
                     values=tuple(0.0 + 5.0 * i for i in range(11)),
                     metrics=("outage_r",), modes=(SicMode.PSIC, SicMode.IPSIC))
    paths = run_sweep(cfg, spec, tmp_path, trials=TRIALS, plots=False)
    csv_paths = [p for p in paths if p.suffix == ".csv"]
    assert len(csv_paths) == 1
    with csv_paths[0].open(encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == ",".join(CSV_HEADER)
    rows = _read(csv_paths[0])
    psic = [r for r in rows if r["mode"] == "pSIC"]
    ipsic = [r for r in rows if r["mode"] == "ipSIC"]
    assert len(psic) == len(ipsic) == 11
    an_psic = [float(r["analytic"]) for r in psic]
    assert all(b <= a + 1e-12 for a, b in zip(an_psic, an_psic[1:]))
    # established ordering: ipSIC >= pSIC rowwise
    for p, i in zip(psic, ipsic):
        assert float(i["analytic"]) >= float(p["analytic"]) - 1e-12
    # probability cells stay in [0, 1]
    for r in rows:
        for col in ("analytic", "mc_mean"):
            assert -1e-9 <= float(r[col]) <= 1.0 + 1e-9


def test_sweep_reruns_byte_identical(tmp_path):
    cfg = NetworkConfig()
    spec = SweepSpec(axis="q_tot_dbm", values=(10.0, 20.0, 30.0),
                     metrics=("outage_r", "rate_t"),
                     modes=(SicMode.PSIC,), schemes=("astars_noma", "astars_oma"))
    a = run_sweep(cfg, spec, tmp_path / "a", trials=TRIALS, plots=False)
    b = run_sweep(cfg, spec, tmp_path / "b", trials=TRIALS, plots=False)
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_sweep_worker_count_does_not_change_csv(tmp_path):
    cfg = NetworkConfig()
    spec = SweepSpec(axis="q_tot_dbm", values=(15.0, 25.0), metrics=("outage_r",))
    a = run_sweep(cfg, spec, tmp_path / "w1", trials=3 * 8192 + 5, plots=False, workers=1)
    b = run_sweep(cfg, spec, tmp_path / "w4", trials=3 * 8192 + 5, plots=False, workers=4)
    assert a[0].read_bytes() == b[0].read_bytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_matches_golden_csv(tmp_path, workers):
    # frozen with one simulate call per (point, scheme), before power
    # batching; the analytic column is frozen too, so a quadrature change
    # must re-freeze these files
    spec = SweepSpec(axis="q_tot_dbm", values=(-20.0, -8.0, 0.0, 15.0, 30.0),
                     metrics=("outage_r", "rate_t"), modes=(SicMode.PSIC, SicMode.IPSIC),
                     schemes=("astars_noma", "astars_oma", "pstars_noma"))
    paths = run_sweep(NetworkConfig(), spec, tmp_path, trials=2 * 8192 + 100, seed=7,
                      plots=False, workers=workers, stem="golden")
    assert [p.name for p in paths] == ["golden_outage_r.csv", "golden_rate_t.csv"]
    for path in paths:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def _count_simulate_calls(monkeypatch) -> list:
    calls = []
    real = mc.simulate

    def counting(cfg, scheme, ps, *args, **kwargs):
        calls.append((cfg.num_elements, scheme, len(ps)))
        return real(cfg, scheme, ps, *args, **kwargs)

    monkeypatch.setattr(mc, "simulate", counting)
    return calls


def test_sweep_simulates_once_per_config_and_scheme(tmp_path, monkeypatch):
    calls = _count_simulate_calls(monkeypatch)
    cfg = NetworkConfig()
    # -45 dBm is infeasible for both schemes and is left out of the calls
    power = SweepSpec(axis="q_tot_dbm", values=(-45.0, 10.0, 20.0, 30.0),
                      metrics=("outage_r",), schemes=("astars_noma", "pstars_noma"))
    run_sweep(cfg, power, tmp_path / "q", trials=TRIALS, plots=False)
    assert calls == [(10, "astars_noma", 3), (10, "pstars_noma", 3)]
    calls.clear()
    elements = SweepSpec(axis="num_elements", values=(4, 10), metrics=("outage_r",),
                         fixed_q_tot_dbm=20.0)
    run_sweep(cfg, elements, tmp_path / "L", trials=TRIALS, plots=False)
    assert calls == [(4, "astars_noma", 1), (10, "astars_noma", 1)]


def test_sweep_baseline_rows_have_empty_analytic(tmp_path):
    cfg = NetworkConfig()
    spec = SweepSpec(axis="q_tot_dbm", values=(20.0,), metrics=("outage_system",),
                     schemes=("astars_noma", "pstars_noma"))
    paths = run_sweep(cfg, spec, tmp_path, trials=TRIALS, plots=False)
    rows = _read(paths[0])
    by_scheme = {r["scheme"]: r for r in rows}
    assert by_scheme["astars_noma"]["analytic"] != ""
    assert by_scheme["pstars_noma"]["analytic"] == ""
    assert by_scheme["pstars_noma"]["mc_mean"] != ""


def test_sweep_infeasible_budget_rows_flagged_not_dropped(tmp_path):
    cfg = NetworkConfig()
    # -45 dBm is far below the static circuit drain of 10 elements
    spec = SweepSpec(axis="q_tot_dbm", values=(-45.0, 20.0), metrics=("outage_r",))
    paths = run_sweep(cfg, spec, tmp_path, trials=TRIALS, plots=False)
    rows = _read(paths[0])
    assert len(rows) == 2
    flagged = [r for r in rows if r["flag"] == "infeasible_budget"]
    assert len(flagged) == 1
    assert flagged[0]["analytic"] == "" and flagged[0]["mc_mean"] == ""


def test_sweep_svg_emission(tmp_path):
    cfg = NetworkConfig()
    spec = SweepSpec(axis="q_tot_dbm", values=(10.0, 20.0, 30.0), metrics=("outage_r",))
    paths = run_sweep(cfg, spec, tmp_path, trials=TRIALS, plots=True)
    svgs = [p for p in paths if p.suffix == ".svg"]
    assert len(svgs) == 1
    body = svgs[0].read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_sweep_non_power_axis_fixed_budget(tmp_path):
    cfg = NetworkConfig()
    spec = SweepSpec(axis="num_elements", values=(4, 10, 16),
                     metrics=("outage_r",), fixed_q_tot_dbm=20.0)
    rows = _read(run_sweep(cfg, spec, tmp_path, trials=TRIALS, plots=False)[0])
    assert [r["axis_value"] for r in rows] == ["4.0", "10.0", "16.0"]


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(axis="bogus", values=(1.0,), metrics=("outage_r",))
    with pytest.raises(ConfigError):
        SweepSpec(axis="q_tot_dbm", values=(), metrics=("outage_r",))
    with pytest.raises(ConfigError):
        SweepSpec(axis="q_tot_dbm", values=(1.0,), metrics=())
    with pytest.raises(ConfigError):
        SweepSpec(axis="q_tot_dbm", values=(1.0,), metrics=("nope",))
    with pytest.raises(ConfigError):
        SweepSpec(axis="num_elements", values=(2,), metrics=("outage_r",))


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_figure_ids_cover_the_preset_plots():
    ids = figure_ids()
    for required in ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b",
                     "fig5a", "fig5b", "fig6a", "fig8a", "fig8b"):
        assert required in ids


def test_figure_smoke_run(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--trials", str(TRIALS), "--no-plots",
               "figure", "fig8a"])
    assert rc == 0
    produced = list((tmp_path / "fig8a").glob("*.csv"))
    assert produced
    rows = _read(produced[0])
    schemes = {r["scheme"] for r in rows}
    assert {"astars_noma", "astars_oma"} <= schemes


def test_figure_unknown_id(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "figure", "fig99z"])
    assert rc == 1
    assert "unknown figure id" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate + exit codes
# ---------------------------------------------------------------------------

def test_validate_all_gates_pass_and_report_written(tmp_path, monkeypatch):
    calls = _count_simulate_calls(monkeypatch)
    cfg = NetworkConfig()
    code, gates = validate(cfg, out_dir=tmp_path, trials=20_000)
    assert code == 0
    assert all(g.passed for g in gates)
    # one call per (config, scheme); the main scheme's agreement and
    # ordering budgets share one call
    assert [(scheme, n) for _, scheme, n in calls] == [
        ("astars_noma", 5), ("astars_noma", 3), ("astars_oma", 4), ("pstars_noma", 4)]
    report = tmp_path / "gates.csv"
    assert report.exists()
    lines = report.read_text().splitlines()
    assert lines[0] == "gate,observed,tolerance,verdict"
    assert len(lines) == len(gates) + 1
    rows = _read(report)
    for row, g in zip(rows, gates):
        assert row["gate"] == g.name
        assert float(row["observed"]) == g.observed, row["observed"]


def test_validate_cli_runs_green(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--trials", "10000", "validate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gates passed" in out
    assert "FAIL" not in out


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("a_r = 0.9\na_t = 0.1\n")
    rc = main(["--config", str(bad), "--out", str(tmp_path), "show-config"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_non_finite_config_value_exit_code(tmp_path, capsys):
    cfg_file = write_cfg(tmp_path, "lambda = nan\n")
    rc = main(["--config", str(cfg_file), "--out", str(tmp_path), "show-config"])
    assert rc == 1
    assert "amp_lambda finite" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["outage_r", "rate_r", "throughput_tolerant"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_check_cell_rejects_non_finite_values(metric, value):
    with pytest.raises(NumericIntegrityError, match="not finite"):
        _check_cell(metric, value)


def test_cli_unresolvable_rate_rule_exits_2_without_csv(tmp_path, capsys):
    # kappa = 20 dB gives a Gamma shape p ~ 1005, past a 200-node rule's
    # last node: the rate must fail loudly instead of writing inf cells
    cfg_file = write_cfg(tmp_path, "kappa_db = 20\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg_file), "--out", str(out), "--trials", "64",
               "--no-plots", "sweep", "--axis", "ps_dbm", "--start", "0",
               "--stop", "20", "--step", "10", "--metrics", "rate_r",
               "--modes", "pSIC,ipSIC"])
    assert rc == 2
    assert "numeric integrity failure" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_cli_missing_config_is_io_error(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "ghost.cfg"), "show-config"])
    assert rc == 3


def test_cli_show_config_round_trip(tmp_path, capsys):
    cfg_file = write_cfg(tmp_path, "lambda = 7\nseed = 42\n")
    rc = main(["--config", str(cfg_file), "show-config"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "amp_lambda = 7.0" in out
    assert "seed = 42" in out


def test_cli_sweep_subcommand(tmp_path):
    rc = main(["--out", str(tmp_path), "--trials", str(TRIALS), "--no-plots",
               "sweep", "--axis", "q_tot_dbm", "--start", "10", "--stop", "30",
               "--step", "10", "--metrics", "outage_r,outage_t",
               "--modes", "pSIC", "--schemes", "astars_noma"])
    assert rc == 0
    assert (tmp_path / "sweep_outage_r.csv").exists()
    assert (tmp_path / "sweep_outage_t.csv").exists()


def test_cli_sweep_bad_step(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "sweep", "--step", "0"])
    assert rc == 1
