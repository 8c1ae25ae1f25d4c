import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from elastrip import harness
from elastrip.cli import main
from elastrip.config import load_config
from elastrip.params import BoundReport, StabilityConstants

BASE_CFG = {
    "physics": {"omega": 1.0},
    "geometry": {"m": -0.2, "M_sup": 0.25, "h": 1.0},
    "surface": {"f0_offset": 0.0, "delta": 0.25},
    "discretization": {"N1": 1, "N2": 1, "n_z": 16},
    "source": {"amplitude": 1.0, "component": 2, "j1": 1, "j2": 0},
    "run": {"seed": 0, "n_samples": 2},
}


SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "csv_schema.md"
JSON_SCHEMA = SCHEMA.with_name("json_schema.md")


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, extra=None, name="cfg.yaml"):
    data = json.loads(json.dumps(BASE_CFG))
    for sec, kv in (extra or {}).items():
        data.setdefault(sec, {}).update(kv)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_constants_reference_bound(runner, tmp_path):
    # the bound takes the slab, not the reference level, which must lie inside it
    cfg = write_cfg(tmp_path, {"geometry": {"m": 0.0}, "surface": {"f0_offset": 0.1}})
    out = tmp_path / "out"
    res = runner.invoke(main, ["constants", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads((out / "constants.json").read_text())
    assert payload["total_bound"] == pytest.approx(2166.0, rel=1e-12)
    assert "total_bound = 2166" in res.output
    assert (out / "config.yaml").exists()


def test_verify_dtn_clean(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(main, ["verify-dtn", "--out", str(out),
                               "--n-xi", "200", "--n-materials", "2"])
    assert res.exit_code == 0
    assert "0 violations" in res.output
    report = json.loads((out / "verify_dtn.json").read_text())
    assert report["n_violations"] == 0


def test_solve_writes_reports(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["energy_residual"] < 1e-8
    csv_text = (out / "runs.csv").read_text()
    assert "measured_ratio" in csv_text.splitlines()[0]


def test_unknown_config_key_exits_1(runner, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"physics": {"omga": 2.0}}))
    res = runner.invoke(main, ["solve", "--config", str(path),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "omga" in res.output


@pytest.mark.parametrize("text", ["physics: {1: 2, omga: 3}\n", "{1: {}, foo: {}}\n"],
                         ids=["section", "root"])
def test_non_string_config_keys_are_config_errors(runner, tmp_path, text):
    """An integer key next to a string one, in a section or at the root,
    exits 1 naming the unknown keys, with nothing written; sorting the
    keys for the message once raised TypeError and a traceback."""
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    res = runner.invoke(main, ["solve", "--config", str(path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "error: unknown" in res.output
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    {"discretization": {"N1": 2.0}}, {"discretization": {"N1": True}},
    {"discretization": {"n_z": 8.5}}, {"source": {"j1": 1.5}},
    {"source": {"component": 1.0}}, {"run": {"threads": True}},
    {"run": {"n_samples": 2.5}}, {"run": {"seed": 0.5}},
    {"surface": {"terms": [[1, 0, 0.05, 0.0], [1.0, 0, 0.05, 0.0]]}},
    {"surface": {"law_bands": [[0, False, 0.05]]}},
])
def test_integer_config_keys_take_integers_only(runner, tmp_path, extra):
    """A float or a boolean where the config takes an integer is a
    configuration error: exit 1 with nothing written."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, extra),
                               "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "error: " in res.output and "must be an integer" in res.output
    assert not out.exists()


@pytest.mark.parametrize("surface", [
    {"terms": [[1]]}, {"terms": [5]}, {"terms": [[1, 0, "0.05", 0.0]]},
    {"terms": [[1, 0, 0.05, 0.0, 0.0]]}, {"law_bands": [[1, 0]]},
])
def test_malformed_surface_entries_are_config_errors(runner, tmp_path, surface):
    """A surface term that is not [j1, j2, cos, sin], or a law band that is
    not [j1, j2, max_amp], of numbers: exit 1 with nothing written."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["mc", "--config", write_cfg(tmp_path, {"surface": surface}),
                               "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "error: " in res.output and "surface" in res.output
    assert not out.exists()


@pytest.mark.parametrize("extra, key", [
    ({"physics": {"omega": "abc"}}, "physics.omega"),
    ({"geometry": {"h": "2"}}, "geometry.h"),
    # written bare, as 1e-9, which YAML reads as a string
    ({"discretization": {"solver_tol": "1e-9"}}, "discretization.solver_tol"),
    ({"surface": {"delta": [0.2]}}, "surface.delta"),
    ({"run": {"generic_C": "x"}}, "run.generic_C"),
    ({"source": {"amplitude": "1"}}, "source.amplitude"),
    ({"physics": {"omega": True}}, "physics.omega"),
    ({"run": {"out_dir": 5}}, "run.out_dir"),
    ({"geometry": {"cell": [1, 2, 3]}}, "geometry.cell"),
    ({"physics": {"omega": float("nan")}}, "physics.omega"),
    ({"discretization": {"solver_tol": float("nan")}}, "discretization.solver_tol"),
    ({"surface": {"terms": [[1, 0, float("nan"), 0.0]]}}, "surface.terms"),
    ({"run": {"generic_C": float("inf")}}, "run.generic_C"),
    ({"physics": {"omega": 10 ** 400}}, "physics.omega"),   # beyond the float range
])
def test_malformed_config_values_are_config_errors(runner, tmp_path, extra, key):
    """A value not of the type its field is annotated with, or a number
    that is not finite, exits 1 naming the dotted key, with nothing written.
    These once ended in a traceback, in exit 2 after writing the reports'
    start, or in a run at omega = 1 for omega: true."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, extra),
                               "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert f"error: {key}" in res.output
    assert not out.exists()


def test_missing_config_file_exits_1(runner, tmp_path):
    res = runner.invoke(main, ["solve", "--config", str(tmp_path / "nope.yaml"),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1


@pytest.mark.parametrize("args", [
    ["constants"], ["verify-dtn"], ["solve"],
    ["sweep", "--axis", "omega", "--values", "1.0"], ["mc"], ["pushforward"],
    ["extend"],
])
def test_every_subcommand_rejects_bad_config_path(runner, tmp_path, args):
    out = tmp_path / "out"
    for config, message in ((tmp_path / "nope.yaml", "error: config file not found"),
                            (tmp_path, "error: cannot read config")):
        res = runner.invoke(main, args + ["--config", str(config), "--out", str(out)])
        assert res.exit_code == 1
        assert message in res.output
        assert not out.exists()


def test_options_are_offered_only_where_they_act(runner):
    """--seed and --threads change only the config echo of solve, and
    verify-dtn reads no physics, so their help lists none of these."""
    for args, absent in ((["solve"], ("--seed", "--threads")), (["verify-dtn"], ("--omega",))):
        res = runner.invoke(main, args + ["--help"])
        assert res.exit_code == 0
        assert not [o for o in absent if o in res.output], res.output
    res = runner.invoke(main, ["mc", "--help"])
    assert all(o in res.output for o in ("--seed", "--threads", "--omega"))


@pytest.mark.parametrize("args", [
    ["solve", "--threads", "1"],
    ["sweep", "--values", "1.0"],
    ["nosuchcommand"],
    ["verify-dtn", "--n-xi", "0"],
    ["verify-dtn", "--n-materials", "-2"],
])
def test_usage_errors_exit_1_with_nothing_written(runner, tmp_path, args):
    """An unknown option or subcommand or a missing required option is a
    configuration error, exit 1, not click's 2, which is a numerical
    failure here."""
    out = tmp_path / "out"
    res = runner.invoke(main, args + ["--config", write_cfg(tmp_path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert not out.exists()


def test_constants_rejects_a_reference_level_outside_the_slab(runner, tmp_path):
    """constants builds a flat profile as solve does, so a reference level
    outside the slab exits 1 with error.json."""
    cfg = write_cfg(tmp_path, {"surface": {"f0_offset": 0.3}})
    out = tmp_path / "out"
    res = runner.invoke(main, ["constants", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 1
    err = json.loads((out / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("ConstraintError", 1)
    assert not (out / "constants.json").exists()


def test_sweep_rejects_non_finite_values(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out),
                               "--axis", "omega", "--values", "1,nan"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert any(line.startswith("error:") for line in res.output.splitlines())
    assert not out.exists()


@pytest.mark.parametrize("height", ["nan", "inf", "-1"])
def test_extend_rejects_non_finite_height(runner, tmp_path, height):
    """The height must be finite and >= 0; it is checked with the options,
    before the solve: exit 1 with an error line and nothing written."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["extend", "--config", write_cfg(tmp_path),
                               "--height", height, "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert any(line.startswith("error: --height") for line in res.output.splitlines())
    assert not out.exists()


def test_sweep_csv(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out),
                               "--axis", "omega", "--values", "0.5,1.0"])
    assert res.exit_code == 0
    assert "2/2 sweep points succeeded" in res.output
    assert (out / "sweep.csv").exists()
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_mc_without_law_exits_2(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["mc", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 2


def test_mc_does_not_build_the_configured_surface(runner, tmp_path):
    """mc draws its own surfaces, so terms that leave the slab stop solve
    but not mc, which once exited 1 on them."""
    cfg = write_cfg(tmp_path, {"surface": {"terms": [[1, 0, 0.3, 0.0]],
                                           "law_bands": [[1, 0, 0.05]], "M0": 0.3}})
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "solve")])
    assert res.exit_code == 1 and "profile leaves the slab" in res.output
    res = runner.invoke(main, ["mc", "--config", cfg, "--out", str(tmp_path / "mc"),
                               "--n-samples", "2"])
    assert res.exit_code == 0, res.output


def test_mc_deterministic_outputs(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"surface": {"law_bands": [[1, 0, 0.05]], "M0": 0.3}})
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, ["mc", "--config", cfg, "--out", str(out),
                                   "--n-samples", "2", "--seed", "5"])
        assert res.exit_code == 0
        texts.append((out / "mc_samples.csv").read_bytes())
    assert texts[0] == texts[1]


def test_threads_flag_does_not_change_outputs(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"surface": {"law_bands": [[1, 0, 0.05]], "M0": 0.3}})
    texts = []
    for sub, threads in (("t1", "1"), ("t4", "4")):
        out = tmp_path / sub
        res = runner.invoke(main, ["mc", "--config", cfg, "--out", str(out),
                                   "--n-samples", "2", "--threads", threads])
        assert res.exit_code == 0
        texts.append((out / "mc_samples.csv").read_bytes())
    assert texts[0] == texts[1]


def test_solve_gates_the_flux_identity_by_its_residual(runner, tmp_path):
    """A converged rough solve whose flux mismatch (7.9e-8) exceeds
    ENERGY_TOL but lies within what its solve residual (4.8e-10) allows
    exits 0; the gate once failed it with exit 3."""
    cfg = write_cfg(tmp_path, {"physics": {"mu": 0.5, "lam": -0.25, "omega": 15.0},
                               "discretization": {"N1": 1, "N2": 1, "n_z": 8},
                               "surface": {"terms": [[0, 1, 0.0, 0.03125]]},
                               "source": {"j1": 0, "component": 0}})
    out = tmp_path / "out"
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    diag = json.loads((out / "report.json").read_text())["diagnostics"]
    assert diag["energy_ok"] is True and diag["energy_residual"] > 1e-8
    assert diag["solve_residual"] <= 1e-9


def test_mc_exits_3_on_the_samples_the_energy_gate_fails(runner, tmp_path, monkeypatch):
    """mc reads each sample row's gate verdict instead of repeating the tolerances."""
    monkeypatch.setattr(harness, "energy_ok", lambda *args: False)
    cfg = write_cfg(tmp_path, {"surface": {"law_bands": [[1, 0, 0.05]], "M0": 0.3}})
    out = tmp_path / "out"
    res = runner.invoke(main, ["mc", "--config", cfg, "--out", str(out), "--n-samples", "2"])
    assert res.exit_code == 3
    assert "2 samples violate the energy balance" in res.output


def test_pushforward_command(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"surface": {"terms": [[1, 0, 0.08, 0.0]]},
                               "discretization": {"N1": 2, "N2": 2}})
    out = tmp_path / "out"
    res = runner.invoke(main, ["pushforward", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    payload = json.loads((out / "pushforward.json").read_text())
    assert payload["rel_l2"] < 0.01


# the config of the CI's small runs: a rough surface and an ensemble law
SMALL = {"discretization": {"N1": 2, "N2": 2, "n_z": 8},
         "surface": {"terms": [[1, 0, 0.05, 0.0]], "law_bands": [[1, 0, 0.05]], "M0": 0.3}}


@pytest.mark.parametrize("args, key, value", [
    (["solve", "--omega", "2.5"], ("physics", "omega"), 2.5),
    (["mc", "--seed", "3"], ("run", "seed"), 3),
    (["mc", "--threads", "1"], ("run", "threads"), 1),
    (["mc", "--n-samples", "3"], ("run", "n_samples"), 3),
    (["pushforward", "--n-z", "4"], ("discretization", "n_z"), 4),
    (["solve", "--omega", "0"], None, None),
    (["mc", "--seed", "-1"], None, None),
    (["mc", "--threads", "0"], None, None),
    (["mc", "--n-samples", "0"], None, None),
    (["pushforward", "--n-z", "0"], None, None),
    (["solve", "--omega", "nan"], None, None),
])
def test_overrides_are_validated_and_echoed(runner, tmp_path, args, key, value):
    """Each override shows up in config.yaml; an invalid one exits 1 with
    nothing written.  --n-z once solved on its own mesh while config.yaml
    echoed the config's n_z, and --n-z 0 wrote config.yaml and error.json."""
    out = tmp_path / "out"
    res = runner.invoke(main, args + ["--config", write_cfg(tmp_path, SMALL),
                                      "--out", str(out)])
    if key is None:
        assert res.exit_code == 1, res.output
        assert not out.exists()
        return
    assert res.exit_code == 0, res.output
    section, field = key
    assert yaml.safe_load((out / "config.yaml").read_text())[section][field] == value


def test_pushforward_n_z_solves_the_echoed_config(runner, tmp_path):
    """pushforward --n-z 16 on an n_z 32 config writes the bytes of an n_z 16 config."""
    outputs = []
    for n_z, extra in ((32, ["--n-z", "16"]), (16, [])):
        cfg = write_cfg(tmp_path, {"surface": {"terms": [[1, 0, 0.05, 0.0]]},
                                   "discretization": {"n_z": n_z}}, name=f"nz{n_z}.yaml")
        out = tmp_path / f"out{n_z}"
        res = runner.invoke(main, ["pushforward", "--config", cfg, "--out", str(out)] + extra)
        assert res.exit_code == 0, res.output
        outputs.append([(out / name).read_bytes()
                        for name in ("config.yaml", "pushforward.json")])
    assert outputs[0] == outputs[1]


def test_constants_and_mc_report_one_stochastic_bound(runner, tmp_path):
    """Both take L0 = M0: the ensemble is drawn around the flat level, so the
    config's terms do not enter.  Before, constants took L0 = M0 + L(terms)
    and reported 216781.2 on this config where mc used 206781.0."""
    cfg = write_cfg(tmp_path, SMALL)
    bounds = []
    for args, name in ((["constants"], "constants.json"),
                       (["mc", "--n-samples", "2"], "mc.json")):
        out = tmp_path / args[0]
        res = runner.invoke(main, args + ["--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        bounds.append(json.loads((out / name).read_text())["stochastic_bound"])
    assert bounds[0] == bounds[1] == pytest.approx(206781.0, rel=1e-6)


def test_extend_command(runner, tmp_path):
    """extend solves its config and extends that solution's top trace on the
    config's grid; at height 0 it writes the trace's values themselves."""
    cfg = write_cfg(tmp_path, {"discretization": {"N1": 2, "N2": 1}})
    ext = {}
    for height in ("0.3", "0"):
        out = tmp_path / height
        res = runner.invoke(main, ["extend", "--config", cfg, "--height", height,
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "extend.json").read_text())
        ext[height] = np.array(payload["values_re"]) + 1j * np.array(payload["values_im"])
        assert ext[height].shape == (3, 5, 3)
        assert np.isfinite(ext[height]).all()
        echo = yaml.safe_load((out / "config.yaml").read_text())["discretization"]
        assert (echo["N1"], echo["N2"]) == (2, 1)
    top = harness.deterministic_run(load_config(cfg))[1].top_trace()
    assert np.array_equal(ext["0"], top.values)


def schema_columns():
    """{csv name: [(column, type), ...]} read from the tables of docs/csv_schema.md."""
    tables, name = {}, None
    for line in SCHEMA.read_text().splitlines():
        if line.startswith("## "):
            name = line.split()[1]
            tables[name] = []
        elif name and line.startswith("|") and not set(line) <= set("|- "):
            column, kind = (c.strip() for c in line.strip("|").split("|")[:2])
            if column != "column":
                tables[name].append((column, kind))
    return tables


def test_csv_cells_are_plain_numbers_under_schema_headers(runner, tmp_path):
    """Each CSV's header is its schema table; every numeric cell parses with float()."""
    cfg = write_cfg(tmp_path, {"surface": {"terms": [[1, 0, 0.05, 0.0]],
                                           "law_bands": [[1, 0, 0.05]], "M0": 0.3}})
    schema = schema_columns()
    for args, name in ((["solve"], "runs.csv"),
                       (["sweep", "--axis", "omega", "--values", "0.5,1.0"], "sweep.csv"),
                       (["mc", "--n-samples", "2"], "mc_samples.csv")):
        out = tmp_path / name
        res = runner.invoke(main, args + ["--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == [column for column, _ in schema[name]]
        assert rows
        for row in rows:
            for cell, (column, kind) in zip(row, schema[name], strict=True):
                if kind in ("float", "int"):
                    assert np.isfinite(float(cell)), (name, column, cell)
                if kind == "int":
                    int(cell)


def field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def json_outputs(runner, tmp_path, cfg, runs) -> dict:
    """{file name: its parsed JSON} of each (args, file name, exit code) run on ``cfg``."""
    payloads = {}
    for args, name, code in runs:
        out = tmp_path / "_".join(args[:3])
        res = runner.invoke(main, args + ["--config", cfg, "--out", str(out)])
        assert res.exit_code == code, res.output
        payloads[name] = json.loads((out / name).read_text())
    return payloads


def test_json_reports_are_their_dataclass_fields(runner, tmp_path):
    """report.json is RunReport's fields, mc.json McReport's without the
    sample rows and with completeness, and constants.json the stability
    constants, L, the bound constants and the stochastic bound."""
    payloads = json_outputs(runner, tmp_path, write_cfg(tmp_path, SMALL), [
        (["solve"], "report.json", 0), (["mc", "--n-samples", "2"], "mc.json", 0),
        (["constants"], "constants.json", 0)])
    report = payloads["report.json"]
    assert set(report) == field_names(harness.RunReport)
    assert set(report["bound"]) == field_names(BoundReport)
    assert set(payloads["mc.json"]) == (field_names(harness.McReport) - {"sample_rows"}
                                        | {"completeness"})
    assert set(payloads["constants.json"]) == (
        field_names(StabilityConstants) | {"L", "stochastic_bound"}
        | field_names(BoundReport) - {"measured_ratio"})


def json_schema_keys() -> dict:
    """{object: {key, ...}} read from the tables of docs/json_schema.md,
    each table named by the first word of its heading."""
    tables, name = {}, None
    for line in JSON_SCHEMA.read_text().splitlines():
        if line.startswith("#"):
            name = line.lstrip("#").split()[0]
        elif line.startswith("|") and not set(line) <= set("|- "):
            key = line.strip("|").split("|")[0].strip()
            if key != "key":
                tables.setdefault(name, set()).add(key)
    return tables


def test_json_keys_are_the_documented_ones(runner, tmp_path):
    """Every JSON object a subcommand writes has the keys of its table in
    docs/json_schema.md."""
    cfg = write_cfg(tmp_path, SMALL)
    payloads = json_outputs(runner, tmp_path, cfg, [
        (["solve"], "report.json", 0), (["mc", "--n-samples", "2"], "mc.json", 0),
        (["constants"], "constants.json", 0), (["pushforward"], "pushforward.json", 0),
        (["sweep", "--axis", "L_amplitude", "--values", "1,40"], "sweep.json", 0),
        (["extend"], "extend.json", 0)])
    # mc without a surface law fails after writing config.yaml: exit 2 and error.json
    payloads |= json_outputs(runner, tmp_path, write_cfg(tmp_path, name="flat.yaml"),
                             [(["mc"], "error.json", 2)])
    payloads["report.json/bound"] = payloads["report.json"]["bound"]
    payloads["report.json/diagnostics"] = payloads["report.json"]["diagnostics"]
    points = payloads["sweep.json"]["points"]
    assert set(points[0]) == set(points[1]) and points[1]["report"] is None
    payloads["sweep.json/points"] = points[0]
    assert points[0]["report"].keys() == payloads["report.json"].keys()
    assert {name: set(p) for name, p in payloads.items()} == json_schema_keys()


@pytest.mark.parametrize("sweep, solve, row", [
    (["--axis", "L_amplitude", "--values", "0,1,40"], [], 1),
    (["--axis", "omega", "--values", "0.5"], ["--omega", "0.5"], 0),
])
def test_sweep_rows_are_the_run_rows_of_their_points(runner, tmp_path, sweep, solve, row):
    """A sweep point's run cells are the runs.csv cells of solve on that
    point's config; a failed point states its error and leaves them empty."""
    cfg = write_cfg(tmp_path, SMALL)
    runs = {}
    for args, name in ((["sweep"] + sweep, "sweep.csv"), (["solve"] + solve, "runs.csv")):
        out = tmp_path / args[0]
        res = runner.invoke(main, args + ["--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / name, newline="") as fh:
            runs[name] = list(csv.DictReader(fh))
    point, run = runs["sweep.csv"][row], runs["runs.csv"][0]
    assert point["status"] == "ok"
    columns = [c for c in point if c not in ("axis", "value", "status")]
    assert columns and all(point[c] == run[c] for c in columns)
    for failed in runs["sweep.csv"][2:]:
        assert failed["status"].startswith("ConstraintError: profile leaves the slab")
        assert all(failed[c] == "" for c in columns)
