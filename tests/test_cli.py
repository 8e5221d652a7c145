"""CLI tests: config parsing, sweep CSV structure and determinism, figure
presets, the validation gate table, and exit codes."""

import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from astars_noma import analytic as an
from astars_noma import asymptotic as asy
from astars_noma import cli
from astars_noma import montecarlo as mc
from astars_noma.analytic import NumericIntegrityError, SicMode
from astars_noma.cli import (CSV_HEADER, SweepSpec, _check_cell, figure_ids, main,
                             parse_config, run_sweep, validate)
from astars_noma.model import (MAX_ELEMENTS, ConfigError, NetworkConfig, cascade_cdf,
                               gamma_fit)
from astars_noma.montecarlo import SCHEMES

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


def test_config_repeated_key_names_both_lines(tmp_path, capsys):
    cfg_file = write_cfg(tmp_path, "seed = 1\n# again\nseed = 2\n")
    with pytest.raises(ConfigError, match="key seed set on lines 1 and 3"):
        parse_config(cfg_file)
    assert main(["--config", str(cfg_file), "show-config"]) == 1
    assert "lines 1 and 3" in capsys.readouterr().err


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
    # the MC columns pin the simulator's stream and the analytic column
    # the quadrature, so a change to either must re-freeze these files
    spec = SweepSpec(axis="q_tot_dbm", values=(-20.0, -8.0, 0.0, 15.0, 30.0),
                     metrics=("outage_r", "rate_t"), modes=(SicMode.PSIC, SicMode.IPSIC),
                     schemes=("astars_noma", "astars_oma", "pstars_noma"))
    paths = run_sweep(NetworkConfig(), spec, tmp_path, trials=2 * 8192 + 100, seed=7,
                      plots=False, workers=workers, stem="golden")
    assert [p.name for p in paths] == ["golden_outage_r.csv", "golden_rate_t.csv"]
    for path in paths:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def _count_simulate_calls(monkeypatch) -> list:
    """Record each simulate call as its list of (L, scheme, power count,
    metrics) points, with the call's metrics for a point that names
    none."""
    calls = []
    real = mc.simulate

    def counting(points, **kwargs):
        calls.append([(cfg.num_elements, scheme, len(ps),
                       tuple(own[0]) if own else kwargs.get("metrics"))
                      for cfg, scheme, ps, *own in points])
        return real(points, **kwargs)

    monkeypatch.setattr(mc, "simulate", counting)
    return calls


def _count_block_draws(monkeypatch) -> list:
    """Record the block index of every simulator block draw."""
    blocks = []
    real = mc._block_fades

    def counting(seed, block, size, points):
        blocks.append(block)
        return real(seed, block, size, points)

    monkeypatch.setattr(mc, "_block_fades", counting)
    return blocks


def test_sweep_simulates_once_per_config_and_scheme(tmp_path, monkeypatch):
    # one call per sweep, with one point per (config, scheme), asking for
    # the estimate keys of the sweep's metrics at its SIC modes only
    calls = _count_simulate_calls(monkeypatch)
    cfg = NetworkConfig()
    # -45 dBm is infeasible for both schemes and is left out of the call
    power = SweepSpec(axis="q_tot_dbm", values=(-45.0, 10.0, 20.0, 30.0),
                      metrics=("outage_r",), schemes=("astars_noma", "pstars_noma"))
    run_sweep(cfg, power, tmp_path / "q", trials=TRIALS, plots=False)
    assert calls == [[(10, "astars_noma", 3, ("outage_r_psic",)),
                      (10, "pstars_noma", 3, ("outage_r_psic",))]]
    calls.clear()
    elements = SweepSpec(axis="num_elements", values=(4, 10),
                         metrics=("rate_t", "throughput_limited"), fixed_q_tot_dbm=20.0)
    run_sweep(cfg, elements, tmp_path / "L", trials=TRIALS, plots=False)
    assert calls == [[(4, "astars_noma", 1, ("rate_t", "throughput_limited_psic")),
                      (10, "astars_noma", 1, ("rate_t", "throughput_limited_psic"))]]
    calls.clear()
    infeasible = SweepSpec(axis="q_tot_dbm", values=(-45.0,), metrics=("outage_r",))
    run_sweep(cfg, infeasible, tmp_path / "none", trials=TRIALS, plots=False)
    assert calls == []


def test_sweep_draws_each_block_once(tmp_path, monkeypatch):
    blocks = _count_block_draws(monkeypatch)
    spec = SweepSpec(axis="num_elements", values=(2, 5, 9), metrics=("outage_r",),
                     schemes=SCHEMES, fixed_q_tot_dbm=20.0)
    run_sweep(NetworkConfig(), spec, tmp_path, trials=3 * mc.BLOCK_TRIALS + 5,
              plots=False, workers=2)
    assert sorted(blocks) == [0, 1, 2, 3]


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
    # the operating power is set once: by a power axis, or by one fixed value
    for axis, fixed in (("num_elements", {"fixed_q_tot_dbm": 20.0, "fixed_ps_dbm": 20.0}),
                        ("q_tot_dbm", {"fixed_ps_dbm": 30.0}),
                        ("q_tot_dbm", {"fixed_q_tot_dbm": 30.0}),
                        ("ps_dbm", {"fixed_ps_dbm": 30.0})):
        with pytest.raises(ConfigError):
            SweepSpec(axis=axis, values=(2,), metrics=("outage_r",), **fixed)
    # an empty or repeated mode or scheme list, or a repeated metric
    for lists in ({"modes": ()}, {"schemes": ()},
                  {"metrics": ("outage_r", "outage_t", "outage_r")},
                  {"modes": (SicMode.PSIC, SicMode.PSIC)},
                  {"schemes": ("astars_noma", "astars_oma", "astars_noma")}):
        with pytest.raises(ConfigError):
            SweepSpec(**{"axis": "q_tot_dbm", "values": (1.0,), "metrics": ("outage_r",),
                         **lists})


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


REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference"


def _cells_checked_against_reference(tmp_path, figure: str, workload: str) -> int:
    """Run the figure at the default 10^5 trials and check each Monte Carlo
    cell against the benchmark's frozen 10^6-trial raw cell (made at
    another seed) within 4 sigma of the two CIs combined; the number of
    cells checked.  Unlike a count test, it reads each cell's own CI."""
    rc = main(["--out", str(tmp_path), "--trials", "100000", "--seed", "987654",
               "--no-plots", "figure", figure])
    assert rc == 0
    checked = 0
    for frozen in sorted((REFERENCE / workload).glob("*.csv")):
        got = {(r["axis_value"], r["mode"], r["scheme"]): r
               for r in _read(tmp_path / figure / frozen.name)}
        for ref in _read(frozen):
            if ref["flag"]:
                continue
            cell = got[ref["axis_value"], ref["mode"], ref["scheme"]]
            assert cell["trials"] == "100000"
            sigma = math.hypot(float(cell["mc_ci95"]), float(ref["mc_ci95"])) / 1.96
            diff = abs(float(cell["mc_mean"]) - float(ref["mc_mean"]))
            assert diff <= 4.0 * sigma, (frozen.name, ref, cell)
            checked += 1
    return checked


def test_fig2a_cells_agree_with_the_frozen_reference_within_their_cis(tmp_path, capsys):
    # control-variate estimates with the distances integrated out
    assert _cells_checked_against_reference(tmp_path, "fig2a", "fig2a_budget") == 105


def test_fig3a_cells_agree_with_the_frozen_reference_within_their_cis(tmp_path, capsys):
    # the amplified surface noise integrated out too: CIs some 15x narrower
    # than fig2a-style estimates at this config, so a bias of a few of them
    # shows here
    assert _cells_checked_against_reference(tmp_path, "fig3a", "fig3a_elements") == 40


def test_figure_unknown_id(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "figure", "fig99z"])
    assert rc == 1
    assert "unknown figure id" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate + exit codes
# ---------------------------------------------------------------------------

def test_validate_all_gates_pass_and_report_written(tmp_path, monkeypatch):
    calls = _count_simulate_calls(monkeypatch)
    blocks = _count_block_draws(monkeypatch)
    cfg = NetworkConfig()
    code, gates = validate(cfg, out_dir=tmp_path, trials=20_000)
    assert code == 0
    assert all(g.passed for g in gates)
    # one call with one point per (config, scheme); the main scheme's
    # agreement and ordering budgets share one point; each block drawn once
    assert [[(scheme, n) for _, scheme, n, _ in call] for call in calls] == [[
        ("astars_noma", 5), ("astars_noma", 3), ("astars_oma", 4), ("pstars_noma", 4)]]
    # each point asks for the estimate keys its own gates read: no ipSIC
    # system outage or throughput, and the passive surface's pSIC system
    # outage alone
    assert [[set(keys) for *_, keys in call] for call in calls] == [[
        {"outage_r", "outage_t", "outage_system_psic", "throughput_limited_psic"},
        {"rate_r", "rate_t"}, {"throughput_limited"}, {"outage_system_psic"}]]
    assert blocks == [0, 1, 2]
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


def test_every_validate_gate_can_fail(monkeypatch):
    # break what each gate reads, through the names validate looks up
    def shifted(fn, delta):
        return lambda *args: fn(*args) + delta

    def scaled(fn, factor):
        return lambda *args: fn(*args) * factor

    for name in ("outage_r", "outage_t"):
        monkeypatch.setattr(an, name, shifted(getattr(an, name), 0.5))
    for name in ("ergodic_rate_r", "ergodic_rate_t"):
        monkeypatch.setattr(an, name, scaled(getattr(an, name), 2.0))
    fit_order = asy.fit_order
    monkeypatch.setattr(asy, "fit_order", lambda *args: replace(
        fit_order(*args), slope=fit_order(*args).slope + 10.0))
    monkeypatch.setattr(asy, "ergodic_bound_r_psic", shifted(asy.ergodic_bound_r_psic, -1.0))
    broken = {"astars_oma": ("throughput_limited", 10.0),
              "pstars_noma": ("outage_system_psic", -1.0)}
    simulate = mc.simulate

    def broken_simulate(points, **kwargs):
        results = simulate(points, **kwargs)
        for (_, scheme, *_), point_sims in zip(points, results):
            if scheme in broken:
                key, mean = broken[scheme]
                for sims in point_sims:
                    sims[key] = replace(sims[key], mean=mean)
        return results

    monkeypatch.setattr(mc, "simulate", broken_simulate)
    rule = cli.gauss_laguerre_rule
    monkeypatch.setattr(cli, "gauss_laguerre_rule",
                        lambda size: replace(rule(size), weights=2.0 * rule(size).weights))
    monkeypatch.setattr(cli, "reg_lower_gamma", shifted(cli.reg_lower_gamma, 1.0))
    monkeypatch.setattr(cli, "bessel_k", shifted(cli.bessel_k, 1.0))
    gamma_fit = cli.gamma_fit
    monkeypatch.setattr(cli, "gamma_fit", lambda *args: replace(
        gamma_fit(*args), p=2.0 * gamma_fit(*args).p))
    code, gates = validate(NetworkConfig(), trials=mc.BLOCK_TRIALS)
    assert len(gates) == 49
    assert [g.name for g in gates if g.passed] == []
    assert code == 2


def _serial_partition_supnorms(kappas, lengths, samples, seed) -> dict:
    """The cascade check filled block after block on one thread, its order
    statistics selected by np.partition on a copy of each gain array."""
    gains = {(kappa, L): np.empty(samples) for kappa in kappas for L in lengths}
    for block, start in enumerate(range(0, samples, mc.BLOCK_TRIALS)):
        size = min(mc.BLOCK_TRIALS, samples - start)
        sums = mc._element_sums(seed, block, size, kappas, ("h_r",), noise=False)
        for L, at_l in zip(range(1, max(lengths) + 1), sums):
            if L in lengths:
                for kappa in kappas:
                    gains[kappa, L][start:start + size] = at_l[kappa][0]["h_r"] ** 2
    grid_idx = np.linspace(0, samples - 1, 50).astype(int)
    emp = (grid_idx + 1) / samples
    return {(kappa, L): float(np.max(np.abs(
                cascade_cdf(gamma_fit(kappa, L), np.partition(g, grid_idx)[grid_idx]) - emp)))
            for (kappa, L), g in gains.items()}


def test_cascade_supnorms_worker_count_invariant(monkeypatch):
    # more workers than blocks and cores, the last block partial, thread
    # switches forced often: every block drawn once and no slice lost
    kappas, lengths = (0.0, NetworkConfig().rician_kappa), (1, 4, 10)
    samples = 3 * mc.BLOCK_TRIALS + 5
    reference = _serial_partition_supnorms(kappas, lengths, samples, seed=7)
    blocks = []
    real = mc._element_sums

    def counting(seed, block, *args, **kwargs):
        blocks.append(block)
        return real(seed, block, *args, **kwargs)

    monkeypatch.setattr(mc, "_element_sums", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 7):
            blocks.clear()
            assert cli._cascade_supnorms(kappas, lengths, samples, seed=7,
                                         workers=workers) == reference
            assert sorted(blocks) == [0, 1, 2, 3]
    finally:
        sys.setswitchinterval(interval)


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


def test_convergence_failure_exits_2_without_csv(tmp_path, monkeypatch, capsys):
    # an incomplete-gamma iteration that cannot converge is a numeric
    # integrity failure: exit code 2, and no CSV half-written
    from astars_noma import numerics
    monkeypatch.setattr(numerics, "_MAX_ITER", 1)
    out = tmp_path / "out"
    rc = main(["--out", str(out), "--trials", "100", "sweep", "--start", "10",
               "--stop", "20", "--step", "10", "--metrics", "outage_r,outage_t"])
    assert rc == 2
    assert "failed to converge" in capsys.readouterr().err
    assert list(out.glob("*.csv")) == []


def _failing_csv_writer(real):
    """A csv.writer stand-in that writes the first row, then raises."""
    def make(fh, **kwargs):
        writer = real(fh, **kwargs)

        class HalfWriter:
            def writerows(self, rows):
                writer.writerow(next(iter(rows)))
                raise OSError("disk full")

        return HalfWriter()
    return make


def test_csv_writes_leave_no_partial_file(tmp_path, monkeypatch):
    # a write that fails mid-file leaves no CSV where there was none, the
    # previous bytes where there was one, and no temporary file behind
    spec = SweepSpec(axis="q_tot_dbm", values=(15.0, 25.0), metrics=("outage_r",))
    [earlier] = run_sweep(NetworkConfig(), spec, tmp_path / "old", trials=TRIALS, plots=False)
    before = earlier.read_bytes()
    monkeypatch.setattr(cli.csv, "writer", _failing_csv_writer(csv.writer))
    for out in (tmp_path / "new", tmp_path / "old"):
        with pytest.raises(OSError, match="disk full"):
            run_sweep(replace(NetworkConfig(), a_r=0.2, a_t=0.8), spec, out,
                      trials=TRIALS, plots=False)
    assert list((tmp_path / "new").iterdir()) == []
    assert list((tmp_path / "old").iterdir()) == [earlier]
    assert earlier.read_bytes() == before
    # the gate report goes through the same writer
    with pytest.raises(OSError, match="disk full"):
        cli._write_csv(tmp_path / "new" / "gates.csv", ["gate", "verdict"],
                       [["a", "pass"], ["b", "FAIL"]])
    assert list((tmp_path / "new").iterdir()) == []


def test_svg_writes_leave_no_partial_file(tmp_path, monkeypatch):
    # a plot write that fails mid-file does what a CSV one does: no SVG
    # where there was none, the previous bytes where there was one, and no
    # temporary file behind
    series = [("mc", [0.0, 2.5, 5.0], [0.5, 0.25, 0.125])]
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    earlier = cli.write_line_plot(tmp_path / "old" / "a.svg", "t", "x", "y", series)
    before = earlier.read_bytes()
    real_open = Path.open

    def half_open(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        write = fh.write

        def half(text):
            write(text[:len(text) // 2])
            raise OSError("disk full")

        fh.write = half
        return fh

    monkeypatch.setattr(Path, "open", half_open)
    for out in (tmp_path / "new", tmp_path / "old"):
        with pytest.raises(OSError, match="disk full"):
            cli.write_line_plot(out / "a.svg", "t", "x", "y", series[::-1], logy=True)
    monkeypatch.undo()
    assert list((tmp_path / "new").iterdir()) == []
    assert list((tmp_path / "old").iterdir()) == [earlier]
    assert earlier.read_bytes() == before


@pytest.mark.parametrize("metric", ["outage_r", "rate_r", "throughput_tolerant"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_check_cell_rejects_non_finite_values(metric, value):
    with pytest.raises(NumericIntegrityError, match="not finite"):
        _check_cell(metric, value)


def test_cli_strong_line_of_sight_rate_sweep_exits_0(tmp_path):
    # kappa = 20 dB gives a Gamma shape p ~ 1005, which the amplitude rule
    # built for the Gamma density resolves: finite cells that match the
    # evaluators, exit code 0
    cfg_file = write_cfg(tmp_path, "kappa_db = 20\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg_file), "--out", str(out), "--trials", "64",
               "--no-plots", "sweep", "--axis", "ps_dbm", "--start", "0",
               "--stop", "20", "--step", "10", "--metrics", "rate_r,rate_t",
               "--modes", "pSIC,ipSIC"])
    assert rc == 0
    cfg = parse_config(cfg_file)
    rows = [row for name in ("sweep_rate_r.csv", "sweep_rate_t.csv")
            for row in csv.DictReader((out / name).read_text(encoding="utf-8").splitlines())]
    assert len(rows) == 9
    for row in rows:
        ps = 10.0 ** ((float(row["axis_value"]) - 30.0) / 10.0)
        expected = (an.ergodic_rate_t(cfg, ps) if row["metric"] == "rate_t"
                    else an.ergodic_rate_r(cfg, SicMode(row["mode"]), ps))
        assert float(row["analytic"]) == expected
        assert math.isfinite(float(row["mc_mean"]))


@pytest.mark.parametrize("option", ["--start", "--stop", "--step",
                                    "--fixed-q-tot-dbm", "--fixed-ps-dbm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_sweep_non_finite_grid_option_exits_1(tmp_path, capsys, option, value):
    rc = main(["--out", str(tmp_path), "sweep", f"{option}={value}"])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["--config", "{cfg}", "show-config"],
    ["sweep", "--axis", "num_elements", "--start", "1001", "--stop", "1001",
     "--fixed-q-tot-dbm", "20"]])
def test_cli_num_elements_above_bound_exits_1(tmp_path, capsys, argv):
    cfg_file = write_cfg(tmp_path, f"num_elements = {10 ** 6}\n")
    argv = [a.format(cfg=cfg_file) for a in argv]
    rc = main(["--out", str(tmp_path), "--trials", "100", *argv])
    assert rc == 1
    assert f"num_elements in [1, {MAX_ELEMENTS}]" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\n# caf\xe9\n")
    rc = main(["--config", str(bad), "show-config"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "bad.cfg" in err and "UTF-8" in err


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


@pytest.mark.parametrize("flag", ["--trials", "--workers"])
def test_cli_nonpositive_trials_or_workers_exits_1(tmp_path, capsys, flag):
    rc = main(["--out", str(tmp_path), flag, "0", "sweep", "--start", "10",
               "--stop", "10"])
    assert rc == 1
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("lists", [["--modes", ","], ["--schemes", ","],
                                   ["--schemes", "astars_noma,astars_noma"],
                                   ["--modes", "pSIC,pSIC"],
                                   ["--metrics", "outage_t,outage_t"]])
def test_cli_sweep_empty_or_repeated_list_exits_1(tmp_path, capsys, lists):
    rc = main(["--out", str(tmp_path), "--trials", "100", "sweep", "--start", "10",
               "--stop", "12.5", *lists])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["--axis", "q_tot_dbm", "--fixed-ps-dbm", "30"],
    ["--axis", "ps_dbm", "--fixed-q-tot-dbm", "30"],
    ["--axis", "num_elements", "--fixed-q-tot-dbm", "20", "--fixed-ps-dbm", "20"]])
def test_cli_sweep_conflicting_powers_exit_1(tmp_path, capsys, argv):
    rc = main(["--out", str(tmp_path), "--trials", "100", "sweep", "--start", "10",
               "--stop", "10", *argv])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_sweep_fractional_element_count_exits_1(tmp_path, capsys):
    # a whole-number grid passes; 2.5 elements is refused, not truncated to 2
    args = ["--trials", "100", "--no-plots", "sweep", "--axis", "num_elements",
            "--start", "2", "--stop", "3", "--fixed-q-tot-dbm", "20", "--metrics", "outage_t"]
    assert main(["--out", str(tmp_path / "whole"), *args, "--step", "1"]) == 0
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "half"), *args, "--step", "0.5"]) == 1
    assert "num_elements takes whole numbers, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "half").exists()


def test_cli_unknown_sic_mode_exits_1(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--trials", "100", "sweep", "--start", "10",
               "--stop", "10", "--modes", "psic"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pSIC" in err and "ipSIC" in err and "'psic'" in err
    assert not list(tmp_path.glob("*.csv"))
