import csv
import json
import os
import re
import sys

import numpy as np
import pytest

from twowayfe import Panel, SimConfig, simulate_panel, write_panel
from twowayfe import cli
from twowayfe.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def fixture_file(tmp_path, exactfit_panel):
    path = tmp_path / "panel.csv"
    write_panel(exactfit_panel, path)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def config_error(tmp_path, panel_file, capsys, command, config):
    """Runs `command` on `panel_file` with `config` as its config file, checks
    that it ends in a config error (exit 2) and returns the error's message."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run_cli(command, "--panel", panel_file, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert err["kind"] == "config"
    return err["message"]


class TestValidate:
    def test_report_and_manifest(self, tmp_path, fixture_file):
        out = tmp_path / "v"
        assert run_cli("validate", "--panel", fixture_file, "--out", str(out)) == 0
        report = read_json(out / "validation_report.json")
        assert report["rows_read"] == 6
        assert report["rows_dropped"] == 0
        assert report["warnings"] == []
        assert report["schema_version"] == 1
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "validate"
        assert fixture_file in manifest["inputs"]
        assert "validation_report.json" in manifest["outputs"]

    @pytest.mark.parametrize("period", ["inf", "1e30"])
    def test_period_outside_int64_is_dropped(self, tmp_path, period):
        panel = tmp_path / "dirty.csv"
        panel.write_text(f"worker,firm,period,log_wage\na,f1,1,1.0\nb,f1,{period},1.0\nb,f1,2,0.5\n")
        out = tmp_path / "v"
        assert run_cli("validate", "--panel", str(panel), "--out", str(out)) == 0
        report = read_json(out / "validation_report.json")
        assert report["unparsable_rows"] == 1
        assert report["rows_kept"] == 2

    def test_missing_panel_is_config_error(self, tmp_path):
        code = run_cli("validate", "--panel", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize("delimiter", [";;", '"'])
    def test_bad_delimiter_is_config_error(self, tmp_path, fixture_file, capsys, delimiter):
        out = tmp_path / "v"
        code = run_cli("validate", "--panel", fixture_file, "--out", str(out), "--delimiter", delimiter)
        assert code == cli.EXIT_CONFIG
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "config" and repr(delimiter) in error["message"]
        assert not (out / "validation_report.json").exists()


class TestConnect:
    def test_membership_and_summary(self, tmp_path, fixture_file):
        out = tmp_path / "c"
        assert run_cli("connect", "--panel", fixture_file, "--out", str(out), "--kind", "both") == 0
        rows = (out / "connected_set.csv").read_text().strip().splitlines()
        assert rows[0] == "entity_type,external_id"
        assert "firm,f1" in rows and "worker,w3" in rows
        summary = read_json(out / "connected_set_summary.json")
        assert summary["n_firms_kept"] == 2
        assert summary["n_workers_kept"] == 3
        assert summary["share_of_observations"] == 1.0
        assert (out / "leave_one_out_set.csv").exists()


class TestEstimate:
    def test_artifacts(self, tmp_path, fixture_file):
        out = tmp_path / "e"
        assert run_cli("estimate", "--panel", fixture_file, "--out", str(out)) == 0
        psi = dict(
            line.split(",")
            for line in (out / "psi.csv").read_text().strip().splitlines()[1:]
        )
        assert float(psi["f1"]) - float(psi["f2"]) == pytest.approx(1.0, abs=1e-8)
        fit = read_json(out / "fit.json")
        assert fit["n_obs"] == 6
        assert fit["dof"] == 2
        assert fit["normalization"] == "mean_zero"

    def test_default_method_is_cg_and_flag_overrides(self, tmp_path, fixture_file):
        assert run_cli("estimate", "--panel", fixture_file, "--out", str(tmp_path / "cg")) == 0
        assert read_json(tmp_path / "cg" / "fit.json")["method"] == "conjugate_gradient"
        out = tmp_path / "zz"
        assert run_cli("estimate", "--panel", fixture_file, "--out", str(out), "--method", "zigzag") == 0
        assert read_json(out / "fit.json")["method"] == "zigzag"

    def test_disconnected_panel_names_precondition(self, tmp_path):
        panel_file = tmp_path / "disc.csv"
        panel_file.write_text(
            "worker,firm,period,log_wage\n"
            "a,f1,1,1.0\na,f1,2,1.1\nb,f2,1,2.0\nb,f2,2,2.1\n"
        )
        out = tmp_path / "e2"
        code = run_cli("estimate", "--panel", str(panel_file), "--out", str(out))
        assert code == 3

    def test_estimate_on_connect_artifact(self, tmp_path):
        panel_file = tmp_path / "disc.csv"
        panel_file.write_text(
            "worker,firm,period,log_wage\n"
            "a,f1,1,1.0\na,f2,2,2.1\nc,f1,1,0.5\nc,f2,2,1.4\nb,f3,1,2.0\nb,f3,2,2.1\n"
        )
        conn_dir = tmp_path / "conn"
        assert run_cli("connect", "--panel", str(panel_file), "--out", str(conn_dir)) == 0
        out = tmp_path / "e3"
        assert (
            run_cli(
                "estimate",
                "--panel",
                str(panel_file),
                "--set",
                str(conn_dir / "connected_set.csv"),
                "--out",
                str(out),
            )
            == 0
        )
        fit = read_json(out / "fit.json")
        assert fit["n_firms"] == 2  # f3 pruned with its stayer


class TestPipeline:
    def test_fixture_pipeline_psi_gap(self, tmp_path, fixture_file):
        out = tmp_path / "p"
        assert run_cli("pipeline", "--panel", fixture_file, "--out", str(out)) == 0
        psi = dict(
            line.split(",")
            for line in (out / "estimate" / "psi.csv").read_text().strip().splitlines()[1:]
        )
        assert float(psi["f1"]) - float(psi["f2"]) == pytest.approx(1.0, abs=1e-8)
        for stage in ("validate", "connect", "estimate", "decompose", "correct"):
            assert (out / stage / "manifest.json").exists()
        dec = read_json(out / "decompose" / "decomposition.json")
        assert {"total", "var_alpha", "var_psi", "cov2", "var_resid", "shares", "flavor", "weighting"} <= set(dec)

    def test_simulate_then_pipeline_deterministic(self, tmp_path):
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(
            json.dumps(
                {
                    "n_workers": 120,
                    "n_firms": 10,
                    "n_periods": 3,
                    "movers_share": 0.5,
                    "noise_sigma2": 0.05,
                    "seed": 13,
                }
            )
        )
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(sim_out)) == 0
        panel_path = str(sim_out / "panel.csv")
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"pipe_{run}"
            assert run_cli("pipeline", "--panel", panel_path, "--out", str(out)) == 0
            blobs.append((out / "decompose" / "decomposition.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_simulate_emits_truth_artifacts(self, tmp_path):
        out = tmp_path / "s"
        assert (
            run_cli("simulate", "--out", str(out), "--config", "/dev/null") == 2
        )  # empty config file is a parse failure
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_workers": 30, "n_firms": 4, "seed": 1}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        truth_rows = (out / "truth.csv").read_text().strip().splitlines()
        assert truth_rows[0] == "entity_type,external_id,effect"
        assert sum(1 for r in truth_rows if r.startswith("worker,")) == 30
        summary = read_json(out / "truth_summary.json")
        assert summary["flavor"] == "ground_truth"


def covariate_csv(tmp_path, duplicate=False):
    """A simulated panel with two covariates, written under renamed columns."""
    panel, _ = simulate_panel(SimConfig(
        n_workers=200, n_firms=20, n_periods=4, covariate_count=2,
        beta_true=(0.3, -0.1), seed=7,
    ))
    path = tmp_path / "raw.csv"
    write_panel(panel, path)
    lines = path.read_text().splitlines()
    if duplicate:  # the second covariate repeats the first
        lines = [line.rsplit(",", 1)[0] + "," + line.split(",")[4] for line in lines]
    lines[0] = "id,employer,year,lw,exper,tenure"
    path.write_text("\n".join(lines) + "\n")
    config = {
        "columns": {"worker": "id", "firm": "employer", "period": "year", "log_wage": "lw"},
        "covariates": ["exper", "tenure"],
    }
    return str(path), config


def artifact_tree(root):
    """Every file under root by relative path; manifests without their duration."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                data = json.loads(data)
                data.pop("duration_seconds")
            files[os.path.relpath(path, root)] = data
    return files


def count_calls(monkeypatch, module, name):
    """Wrap module.name wherever a twowayfe module binds it; returns the call log."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("twowayfe") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestDecomposeSplit:
    @pytest.mark.parametrize("include_covariates", (False, True))
    def test_split_total_is_the_decomposed_total(self, tmp_path, include_covariates):
        """With covariates, between_within.json splits the variance that
        decomposition.json decomposes: Var(Y - X beta), or Var(Y) when the
        covariates are included."""
        raw, settings = covariate_csv(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, "include_covariates": include_covariates}))
        out = tmp_path / "d"
        assert run_cli("decompose", "--panel", raw, "--config", str(cfg), "--out", str(out)) == 0
        total = read_json(out / "decomposition.json")["total"]
        split = read_json(out / "between_within.json")
        assert split["total"] == pytest.approx(total, rel=1e-12, abs=0.0)
        assert split["between_firm_variance"] + split["within_firm_variance"] == split["total"]

    def test_split_without_covariates_is_the_split_of_y(self, tmp_path, fixture_file):
        """Without covariates Y - X beta is Y: the file is byte for byte the
        split of the wages alone."""
        from twowayfe import between_within_split, estimate, load_panel

        out = tmp_path / "d"
        assert run_cli("decompose", "--panel", fixture_file, "--out", str(out)) == 0
        panel, _ = load_panel(fixture_file)
        split = between_within_split(estimate(panel).panel)
        expected = tmp_path / "expected.json"
        cli._write_json(str(expected), {
            "between_firm_variance": split.between_firm_variance,
            "within_firm_variance": split.within_firm_variance,
            "total": split.total,
        })
        assert (out / "between_within.json").read_bytes() == expected.read_bytes()


class TestPipelineInMemory:
    @pytest.mark.parametrize("backend", ("exact", "stochastic"))
    def test_same_bytes_as_chained_standalone_commands(self, tmp_path, backend):
        raw, settings = covariate_csv(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, "backend": backend, "probes": 20}))
        out = tmp_path / "out"
        assert main(["pipeline", "--leave-out", "--panel", raw, "--config", str(cfg), "--out", str(out)]) == 0
        out.rename(tmp_path / "in_memory")

        # each stage on its own, reading what the previous one wrote
        config = {**json.loads(cfg.read_text()), "panel": raw, "leave_out": True}
        cli.cmd_validate(dict(config), str(out / "validate"))
        clean = {k: v for k, v in config.items() if k != "columns"}
        clean["panel"] = str(out / "validate" / "panel.csv")
        set_file = str(out / "connect" / "connected_set.csv")
        cli.cmd_connect({**clean, "kind": "both"}, str(out / "connect"))
        cli.cmd_estimate({**clean, "set": set_file}, str(out / "estimate"))
        cli.cmd_decompose({**clean, "set": set_file}, str(out / "decompose"))
        cli.cmd_correct({**clean, "correction": "homoskedastic_trace"}, str(out / "correct"))
        cli.cmd_correct({**clean, "correction": "leave_out"}, str(out / "correct_leave_out"))
        cli.Run("pipeline", str(out), config, [raw]).finish()

        in_memory = artifact_tree(tmp_path / "in_memory")
        assert "correct_leave_out/corrected_leave_out.json" in in_memory
        assert in_memory == artifact_tree(out)

    def test_one_load_one_graph_one_fit_per_set(self, tmp_path, monkeypatch):
        raw, settings = covariate_csv(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        loads = count_calls(monkeypatch, cli, "load_panel")
        graphs = count_calls(monkeypatch, cli, "build_graph")
        fits = count_calls(monkeypatch, cli, "estimate")
        argv = ["pipeline", "--leave-out", "--panel", raw, "--config", str(cfg), "--out", str(tmp_path / "p")]
        assert main(argv) == 0
        assert (len(loads), len(graphs), len(fits)) == (1, 1, 2)

    def test_one_plug_in_decomposition_per_stage(self, tmp_path, monkeypatch):
        """`decompose` makes one plug-in decomposition and each `correct` one,
        inside `corrected_decomposition`; `plug_in.json` is written from it."""
        raw, settings = covariate_csv(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        plug_ins = count_calls(monkeypatch, cli, "decompose_variance")
        out = tmp_path / "p"
        argv = ["pipeline", "--leave-out", "--panel", raw, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        assert len(plug_ins) == 3
        # the homoskedastic correction corrects the decompose stage's fit
        assert (out / "correct" / "plug_in.json").read_bytes() == (
            out / "decompose" / "decomposition.json"
        ).read_bytes()


    def test_pipeline_digests_each_input_once(self, tmp_path, monkeypatch):
        """A pipeline reads each input file once for its manifests' digests:
        the input panel, `validate/panel.csv` and `connected_set.csv`. The
        digests are not kept past the call: a second run on the input
        rewritten at the same size records the new content's digest."""
        import hashlib

        raw, settings = covariate_csv(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        digests = count_calls(monkeypatch, cli, "_digest")
        argv = ["pipeline", "--leave-out", "--panel", raw, "--config", str(cfg), "--out"]
        assert main([*argv, str(tmp_path / "p1")]) == 0
        assert len(digests) == 3
        data = open(raw, "rb").read()
        changed = data[:-2] + (b"8" if data[-2:-1] != b"8" else b"7") + data[-1:]
        assert len(changed) == len(data) and changed != data
        stat = os.stat(raw)
        with open(raw, "wb") as fh:
            fh.write(changed)
        os.utime(raw, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # same size and mtime
        assert main([*argv, str(tmp_path / "p2")]) == 0
        for run in ("p1", "p2"):
            recorded = {read_json(tmp_path / run / stage / "manifest.json")["inputs"][raw]
                        for stage in ("", "validate")}
            expected = hashlib.sha256(data if run == "p1" else changed).hexdigest()
            assert recorded == {expected}, run


class TestFlags:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_threads_only_on_subsample(self, command):
        """--threads is read by subsample alone, so no other command takes it."""
        argv = [command, "--out", "o", "--threads", "2"]
        if command == "subsample":
            assert cli._build_parser().parse_args(argv).threads == 2
        else:
            with pytest.raises(SystemExit):
                cli._build_parser().parse_args(argv)

    def test_correct_honours_set_file(self, tmp_path):
        """Run alone, `correct --set` fits the set the file lists, not the
        largest set, and so gives the plug-in of `estimate --set`."""
        panel, _ = simulate_panel(SimConfig(
            n_workers=400, n_firms=60, n_periods=2, movers_share=0.1, seed=3))
        raw = str(tmp_path / "panel.csv")
        write_panel(panel, raw)
        conn = tmp_path / "conn"
        assert run_cli("connect", "--panel", raw, "--kind", "both", "--out", str(conn)) == 0
        set_file = str(conn / "leave_one_out_set.csv")
        listed = read_json(conn / "leave_one_out_set_summary.json")
        largest = read_json(conn / "connected_set_summary.json")
        assert listed["n_workers_kept"] < largest["n_workers_kept"]

        out = tmp_path / "c"
        assert run_cli("correct", "--panel", raw, "--set", set_file, "--out", str(out)) == 0
        kept = read_json(out / "corrected_homoskedastic_trace.json")["estimation_set"]
        assert (kept["n_workers_kept"], kept["n_firms_kept"]) == (
            listed["n_workers_kept"], listed["n_firms_kept"])
        # the file does not record that `connect` wrote the leave-one-out set there
        assert listed["kind"] == "leave_one_out" and kept["kind"] == "membership_file"
        dec = tmp_path / "d"
        assert run_cli("decompose", "--panel", raw, "--set", set_file, "--out", str(dec)) == 0
        assert read_json(out / "plug_in.json") == read_json(dec / "decomposition.json")


class TestArtifacts:
    def test_ids_holding_the_delimiter_or_a_quote(self, tmp_path):
        """Such ids are quoted in every CSV artifact and read back whole from
        a membership file."""
        sim, _ = simulate_panel(SimConfig(n_workers=200, n_firms=20, n_periods=2, seed=1))
        firm_ids = np.array([f'firm "{j}", inc' for j in range(sim.n_firms)], dtype=object)
        panel = Panel(np.array(sim.worker_ids, dtype=object)[sim.worker_idx],
                      firm_ids[sim.firm_idx], sim.period, sim.log_wage)
        raw = str(tmp_path / "panel.csv")
        write_panel(panel, raw)
        conn = tmp_path / "conn"
        assert run_cli("connect", "--panel", raw, "--kind", "both", "--out", str(conn)) == 0
        out = tmp_path / "e"
        set_file = str(conn / "connected_set.csv")
        assert run_cli("estimate", "--panel", raw, "--set", set_file, "--out", str(out)) == 0
        for name in (conn / "connected_set.csv", out / "psi.csv"):
            with open(name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {2}, name
        firms = [row[0] for row in rows[1:]]  # psi.csv
        assert len(firms) == read_json(conn / "connected_set_summary.json")["n_firms_kept"]
        assert set(firms) <= set(firm_ids)

    @pytest.mark.parametrize("special", ["", "a,b", 'a"b', "a\rb", "a\nb", None],
                             ids=["empty", "delimiter", "quote", "cr", "lf", "plain"])
    def test_effect_and_membership_csvs_match_row_by_row_writer(self, tmp_path, special):
        """alpha.csv, psi.csv and a membership file are the bytes a csv.writer
        row loop writes, with a worker and a firm id that hold the delimiter,
        a quote, CR or LF (quoted), that are empty, or only plain ids."""
        sim, _ = simulate_panel(SimConfig(n_workers=60, n_firms=8, n_periods=3, seed=2))
        workers = [f"w{i}" for i in range(sim.n_workers)]
        firms = [f"f{j}" for j in range(sim.n_firms)]
        if special is not None:
            workers[3], firms[1] = special, "x" + special
        panel = Panel(np.array(workers, dtype=object)[sim.worker_idx],
                      np.array(firms, dtype=object)[sim.firm_idx], sim.period, sim.log_wage)
        from twowayfe import build_graph, estimate, largest_connected_set

        conn = largest_connected_set(build_graph(panel))
        est = estimate(panel, conn)
        run = cli.Run("estimate", str(tmp_path), {}, [])
        cli._emit_estimates(run, est)
        cli._emit_membership(run, "connected_set", conn, panel)

        def oracle(header, rows):
            path = tmp_path / "oracle.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow(row)
            return path.read_bytes()

        p = est.panel
        expected = {
            "alpha.csv": oracle(("worker", "alpha"), [
                (p.worker_ids[i], repr(float(est.alpha[i]))) for i in range(p.n_workers)]),
            "psi.csv": oracle(("firm", "psi"), [
                (p.firm_ids[j], repr(float(est.psi[j]))) for j in range(p.n_firms)]),
            "connected_set.csv": oracle(("entity_type", "external_id"), [
                *[("firm", f) for f in sorted(conn.firms)],
                *[("worker", w) for w in sorted(conn.workers)]]),
        }
        if special is not None:
            assert special in p.worker_ids and "x" + special in p.firm_ids
        for name, content in expected.items():
            assert (tmp_path / name).read_bytes() == content, name

    @pytest.mark.parametrize(
        "content, code, kind",
        [
            (None, cli.EXIT_CONFIG, "config"),
            ("worker,firm\nw1,f1\n", cli.EXIT_CONFIG, "config"),
            ("entity_type,external_id\nfirm,f1\nfirm,f2\n", cli.EXIT_DATA, "data"),
            ("entity_type,external_id\nworker,w1\n", cli.EXIT_DATA, "data"),
            ("entity_type,external_id\nfirm,f1,f2\nworker,w1\n", cli.EXIT_DATA, "data"),
        ],
        ids=["missing", "wrong_header", "no_workers", "no_firms", "three_fields"],
    )
    def test_membership_file_errors(self, tmp_path, fixture_file, capsys, content, code, kind):
        set_file = tmp_path / "set.csv"
        if content is not None:
            set_file.write_text(content)
        argv = ("estimate", "--panel", fixture_file, "--set", str(set_file), "--out", str(tmp_path / "e"))
        assert run_cli(*argv) == code
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == kind and str(set_file) in error["message"]

    @pytest.mark.parametrize("command", ("validate", "simulate"))
    def test_failed_panel_write_leaves_no_panel_file(self, tmp_path, fixture_file, monkeypatch,
                                                     command):
        def failing(panel, path, delimiter=","):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("worker,firm,period,log_wage\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_panel", failing)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_workers": 30, "n_firms": 4, "seed": 1}))
        out = tmp_path / "o"
        with pytest.raises(OSError, match="disk full"):
            run_cli(command, "--panel", fixture_file, "--config", str(cfg), "--out", str(out))
        assert os.listdir(out) == []


class TestCorrectAndDiagnostics:
    def test_correct_outputs_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_workers": 150,
                    "n_firms": 10,
                    "n_periods": 3,
                    "movers_share": 0.5,
                    "noise_sigma2": 0.05,
                    "seed": 3,
                }
            )
        )
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(sim_out)) == 0
        out = tmp_path / "corr"
        assert (
            run_cli(
                "correct",
                "--panel",
                str(sim_out / "panel.csv"),
                "--correction",
                "leave_out",
                "--out",
                str(out),
            )
            == 0
        )
        res = read_json(out / "corrected_leave_out.json")
        assert res["flavor"] == "leave_out_corrected"
        assert {"plug_in.json", "corrected_leave_out.json", "manifest.json"} <= set(
            os.listdir(out)
        )

    def test_subsample_and_eventstudy_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_workers": 200,
                    "n_firms": 12,
                    "n_periods": 4,
                    "movers_share": 0.5,
                    "noise_sigma2": 0.05,
                    "seed": 5,
                }
            )
        )
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(sim_out)) == 0
        panel = str(sim_out / "panel.csv")

        sub_out = tmp_path / "sub"
        assert (
            run_cli(
                "subsample", "--panel", panel, "--shares", "0.5,1.0",
                "--replicates", "2", "--seed", "1", "--out", str(sub_out),
            )
            == 0
        )
        lines = (sub_out / "subsample.csv").read_text().strip().splitlines()
        assert lines[0].startswith("share_kept,replicate,seed")
        assert len(lines) == 1 + 4

        ev_out = tmp_path / "ev"
        assert (
            run_cli(
                "eventstudy", "--panel", panel, "--ranking", "estimated_psi",
                "--out", str(ev_out),
            )
            == 0
        )
        lines = (ev_out / "eventstudy.csv").read_text().strip().splitlines()
        assert lines[0] == "origin_quartile,destination_quartile,event_time,mean_log_wage,cell_count"
        assert len(lines) > 1

    @staticmethod
    def simulated_csv(tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_workers": 150, "n_firms": 10, "n_periods": 3,
                                   "movers_share": 0.5, "noise_sigma2": 0.05, "seed": 3}))
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(sim_out)) == 0
        return str(sim_out / "panel.csv")

    def test_schur_allocation_failure_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        import scipy.sparse

        panel = self.simulated_csv(tmp_path)

        def no_memory(self, *args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", no_memory)
        code = run_cli(
            "correct", "--panel", panel, "--backend", "exact", "--out", str(tmp_path / "c"),
        )
        assert code == 4
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"]["kind"] == "numerical"
        assert "Schur matrix" in err["error"]["message"]
        assert "backend='stochastic'" in err["error"]["message"]

    def test_failed_schur_factorization_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        """A Schur complement that Cholesky rejects ends the command with exit
        code 4 and a JSON error line naming m, not a traceback."""
        import scipy.linalg

        panel = self.simulated_csv(tmp_path)

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("3-th leading minor of the array is not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        code = run_cli(
            "correct", "--panel", panel, "--backend", "stochastic", "--out", str(tmp_path / "c"),
        )
        assert code == cli.EXIT_NUMERICAL == 4
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
        assert err["kind"] == "numerical" and err["command"] == "correct"
        assert re.search(r"the \d+ x \d+ Schur complement is not positive definite", err["message"])

    @pytest.mark.parametrize("correction", ("homoskedastic_trace", "leave_out"))
    @pytest.mark.parametrize("probes", (0, 1, -3))
    def test_probe_count_below_two_is_config_error(self, tmp_path, capsys, correction, probes):
        panel = self.simulated_csv(tmp_path)
        out = tmp_path / "c"
        code = run_cli(
            "correct", "--panel", panel, "--correction", correction, "--backend", "stochastic",
            "--probes", str(probes), "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
        assert err["kind"] == "config"
        assert f"probes={probes}" in err["message"] and "at least 2 probes" in err["message"]
        assert not (out / f"corrected_{correction}.json").exists()

    @pytest.mark.parametrize("correction", ("homoskedastic_trace", "leave_out"))
    def test_mc_stderr_per_corrected_component(self, tmp_path, monkeypatch, correction):
        """Stochastic: each corrected component's Monte Carlo error, the one of
        the library's single-form correction on the same fit (twice the
        covariance's for cov2); exact: zeros. The plug-in has none."""
        from twowayfe import correct as correct_module

        fits = []
        original = correct_module.corrected_decomposition

        def keep_fit(panel_, est, *args, **kwargs):
            fits.append(est)
            return original(panel_, est, *args, **kwargs)

        monkeypatch.setattr(cli, "corrected_decomposition", keep_fit)
        panel = self.simulated_csv(tmp_path)
        errors = {}
        for backend in ("stochastic", "exact"):
            out = tmp_path / backend
            assert run_cli(
                "correct", "--panel", panel, "--correction", correction, "--backend", backend,
                "--probes", "30", "--seed", "4", "--out", str(out),
            ) == 0
            errors[backend] = read_json(out / f"corrected_{correction}.json")["mc_stderr"]
            assert "mc_stderr" not in read_json(out / "plug_in.json")
        assert errors["exact"] == {"var_alpha": 0.0, "var_psi": 0.0, "cov2": 0.0}
        stochastic = errors["stochastic"]
        assert set(stochastic) == {"var_alpha", "var_psi", "cov2"}
        assert all(0.0 < v < float("inf") for v in stochastic.values())
        est = fits[0]
        single = (correct_module.correct_homoskedastic if correction == "homoskedastic_trace"
                  else correct_module.correct_leave_out)
        for component, key, scale in (("var_alpha", "var_alpha", 1.0), ("var_psi", "var_psi", 1.0),
                                      ("cov_alpha_psi", "cov2", 2.0)):
            res = single(est.panel, est, component, backend="stochastic", probes=30, seed=4)
            assert stochastic[key] == pytest.approx(scale * res.mc_stderr, rel=1e-12)

    @pytest.mark.parametrize("command, key, value", [
        ("correct", "probes", "abc"),
        ("correct", "probes", 1.7),
        ("correct", "seed", "s"),
        ("correct", "seed", True),
        ("correct", "tol", "x"),
        ("estimate", "max_iter", "many"),
        ("estimate", "max_iter", 10.5),
        ("subsample", "replicates", "two"),
        ("subsample", "seed", None),
        ("subsample", "threads", 1.5),
        ("eventstudy", "quartiles", "four"),
        ("subsample", "shares", "0.5,x"),
        ("subsample", "shares", [0.5, "x"]),
        ("subsample", "shares", [0.5, True]),
    ])
    def test_config_value_that_is_not_a_number_is_config_error(self, tmp_path, fixture_file,
                                                                capsys, command, key, value):
        """A config file value that is no number of the setting's kind, or a
        fractional value for an integer setting, is a config error (exit 2)
        that names the key, not a traceback or a silently truncated value."""
        assert repr(key) in config_error(tmp_path, fixture_file, capsys, command, {key: value})

    @pytest.mark.parametrize("command, key, value", [
        ("decompose", "include_covariates", "false"),
        ("decompose", "include_covariates", 0),
        ("pipeline", "leave_out", "false"),
        ("validate", "columns", ["worker"]),
        ("validate", "columns", {"worker": 1}),
        ("validate", "covariates", "x0"),
        ("validate", "covariates", ["x0", 1]),
        ("subsample", "shares", 0.5),
    ])
    def test_config_value_of_the_wrong_json_type_is_config_error(self, tmp_path, fixture_file,
                                                                  capsys, command, key, value):
        """A flag that is not a JSON boolean ("false" would be truthy), column
        names that are not an object of strings, covariates that are not a
        list of strings (a string would be split into its characters) and
        shares that are neither a list nor a string are config errors (exit 2)
        that name the key."""
        assert repr(key) in config_error(tmp_path, fixture_file, capsys, command, {key: value})

    def test_config_numbers_as_strings_or_integral_floats(self, tmp_path, fixture_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probes": "30", "seed": 4.0, "tol": "1e-10"}))
        out = tmp_path / "o"
        assert run_cli("correct", "--panel", fixture_file, "--config", str(cfg),
                       "--backend", "stochastic", "--out", str(out)) == 0
        result = read_json(out / "corrected_homoskedastic_trace.json")
        assert result["probes"] == 30 and result["seed"] == 4 and isinstance(result["seed"], int)

    def test_unknown_correction_is_config_error(self, tmp_path, exactfit_panel):
        panel_file = tmp_path / "p.csv"
        write_panel(exactfit_panel, panel_file)
        code = run_cli(
            "correct", "--panel", str(panel_file), "--correction", "bogus",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_rank_deficient_covariates_are_data_error(self, tmp_path, capsys):
        raw, settings = covariate_csv(tmp_path, duplicate=True)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code = run_cli("estimate", "--panel", raw, "--config", str(cfg), "--out", str(tmp_path / "e"))
        assert code == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "rank deficient" in err["error"]["message"]
        assert "'exper', 'tenure'" in err["error"]["message"]

    def test_non_convergence_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        """CG out of iterations is exit 4; the Design's budget is lowered to
        zero so that this small fit runs CG instead of its direct solve."""
        from twowayfe import design as design_module

        monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"n_workers": 60, "n_firms": 6, "movers_share": 0.5,
                 "noise_sigma2": 0.2, "seed": 2}
            )
        )
        sim_out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(sim_out)) == 0
        est_cfg = tmp_path / "est.json"
        est_cfg.write_text(json.dumps({"tol": 1e-14, "max_iter": 2}))
        code = run_cli(
            "estimate", "--panel", str(sim_out / "panel.csv"),
            "--config", str(est_cfg), "--out", str(tmp_path / "e"),
        )
        assert code == 4
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"]["kind"] == "numerical"
