import csv
import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twowayfe.panel
from twowayfe import (
    ConfigError,
    DataError,
    Panel,
    SolverConfig,
    ValidationReport,
    estimate,
    load_panel,
    restrict_panel,
    write_panel,
)

from conftest import random_connected_panel


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadPanel:
    def test_duplicate_worker_period_dropped_first_kept(self, tmp_path):
        f = tmp_path / "p.csv"
        write_lines(
            f,
            [
                "worker,firm,period,log_wage",
                "a,f1,1,1.0",
                "a,f1,1,9.0",
                "b,f1,1,2.0",
            ],
        )
        panel, report = load_panel(f)
        assert panel.n_obs == 2
        assert report.rows_read == 3
        assert report.rows_dropped == 1
        assert report.duplicate_worker_periods == 1
        # first occurrence wins, never averaged
        assert panel.log_wage[panel.worker_idx == panel.worker_index("a")][0] == 1.0

    def test_non_finite_wage_dropped_with_warning(self, tmp_path):
        f = tmp_path / "p.csv"
        write_lines(
            f,
            [
                "worker,firm,period,log_wage",
                "a,f1,1,nan",
                "a,f1,2,1.5",
                "b,f1,1,2.0",
            ],
        )
        panel, report = load_panel(f)
        assert panel.n_obs == 2
        assert report.non_finite_values == 1
        assert any("non-finite" in w for w in report.warnings)

    def test_schema_mapping_and_covariates(self, tmp_path):
        f = tmp_path / "p.tsv"
        write_lines(
            f,
            [
                "person\tplant\tyear\tlnw\texper",
                "a\tf1\t1\t1.0\t3.0",
                "a\tf2\t2\t1.1\t4.0",
                "b\tf1\t1\t0.9\t1.0",
            ],
        )
        schema = {
            "worker": "person",
            "firm": "plant",
            "period": "year",
            "log_wage": "lnw",
            "covariates": ["exper"],
        }
        panel, report = load_panel(f, schema, delimiter="\t")
        assert panel.covariate_count == 1
        assert panel.covariate_names == ("exper",)
        assert report.rows_kept == 3
        assert report.column_summaries["exper"]["max"] == 4.0

    def test_missing_file_and_missing_column(self, tmp_path):
        with pytest.raises(ConfigError):
            load_panel(tmp_path / "absent.csv")
        f = tmp_path / "p.csv"
        write_lines(f, ["worker,firm,period", "a,f1,1"])
        with pytest.raises(ConfigError):
            load_panel(f)

    def test_zero_valid_rows(self, tmp_path):
        f = tmp_path / "p.csv"
        write_lines(f, ["worker,firm,period,log_wage", "a,f1,1,inf"])
        with pytest.raises(DataError):
            load_panel(f)

    def test_report_counts_balance(self, tmp_path):
        f = tmp_path / "p.csv"
        write_lines(
            f,
            [
                "worker,firm,period,log_wage",
                "a,f1,1,1.0",
                "a,f1,1,1.0",
                "b,f1,oops,1.0",
                "c,f1,1,nan",
                "d,f1,1,0.5",
            ],
        )
        _, report = load_panel(f)
        assert report.rows_read == report.rows_kept + report.rows_dropped
        assert report.rows_dropped == 3


class TestDelimiter:
    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\r", "\n", None, b","])
    def test_bad_delimiter_is_config_error_naming_it(self, tmp_path, exactfit_panel, delimiter):
        f = tmp_path / "p.csv"
        write_panel(exactfit_panel, f)
        for call in (lambda: load_panel(f, delimiter=delimiter),
                     lambda: write_panel(exactfit_panel, tmp_path / "q.csv", delimiter)):
            with pytest.raises(ConfigError, match="delimiter") as err:
                call()
            assert repr(delimiter) in str(err.value)
        assert not (tmp_path / "q.csv").exists()


class TestPanelInvariants:
    def test_dense_indices_and_sorted_observations(self, exactfit_panel):
        p = exactfit_panel
        assert set(p.worker_idx.tolist()) == set(range(p.n_workers))
        assert set(p.firm_idx.tolist()) == set(range(p.n_firms))
        keys = list(zip(p.worker_idx.tolist(), p.period.tolist()))
        assert keys == sorted(keys)

    def test_periods_strictly_increasing_within_worker(self, exactfit_panel):
        p = exactfit_panel
        same = p.worker_idx[1:] == p.worker_idx[:-1]
        assert np.all(p.period[1:][same] > p.period[:-1][same])

    def test_duplicate_rejected_at_construction(self):
        with pytest.raises(DataError):
            Panel(
                worker=["a", "a"], firm=["f1", "f2"], period=[1, 1], log_wage=[1.0, 2.0]
            )

    def test_fixture_shape(self, exactfit_panel):
        assert exactfit_panel.n_workers == 3
        assert exactfit_panel.n_firms == 2
        assert exactfit_panel.n_obs == 6


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, exactfit_panel):
        f = tmp_path / "round.csv"
        write_panel(exactfit_panel, f)
        back, _ = load_panel(f)
        assert back == exactfit_panel

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_round_trip_random_values(self, tmp_path_factory, data):
        n = data.draw(st.integers(2, 12))
        wages = data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, width=64),
                min_size=n,
                max_size=n,
            )
        )
        panel = Panel(
            worker=[f"w{i}" for i in range(n)],
            firm=[f"f{i % 3}" for i in range(n)],
            period=[1] * n,
            log_wage=wages,
        )
        f = tmp_path_factory.mktemp("rt") / "p.csv"
        write_panel(panel, f)
        back, _ = load_panel(f)
        assert np.array_equal(back.log_wage, panel.log_wage)  # bit-equal
        assert back == panel


class TestRestrict:
    def test_keep_all_is_identity(self, exactfit_panel):
        p = restrict_panel(
            exactfit_panel, set(exactfit_panel.worker_ids), set(exactfit_panel.firm_ids)
        )
        assert p == exactfit_panel

    def test_single_firm_restriction(self, exactfit_panel):
        p = restrict_panel(exactfit_panel, set(exactfit_panel.worker_ids), {"f1"})
        assert set(p.firm_ids) == {"f1"}
        # enumerated from the fixture rows: w1 at t1, w2 at t1, w3 at t4
        kept = {(o.worker, o.period) for o in p.observations()}
        assert kept == {("w1", 1), ("w2", 1), ("w3", 4)}

    def test_idempotent(self, exactfit_panel):
        keep_w = {"w1", "w3"}
        keep_f = {"f1", "f2"}
        once = restrict_panel(exactfit_panel, keep_w, keep_f)
        twice = restrict_panel(once, keep_w, keep_f)
        assert once == twice

    def test_empty_result_raises(self, exactfit_panel):
        with pytest.raises(DataError):
            restrict_panel(exactfit_panel, {"absent"}, {"f2"})
        with pytest.raises(ConfigError):
            restrict_panel(exactfit_panel, set(), {"f1"})

    def test_external_ids_preserved(self, exactfit_panel):
        p = restrict_panel(exactfit_panel, {"w2", "w3"}, {"f1", "f2"})
        assert set(p.worker_ids) == {"w2", "w3"}
        assert p.worker_index("w2") == 0  # re-densified in sorted id order


# -- per-row oracles -----------------------------------------------------------

INT64 = np.iinfo(np.int64)


def oracle_load(path, schema=None, delimiter=","):
    """Reference loader: one csv.DictReader record at a time, Python parses,
    drops counted and warned with the physical line of the record."""
    schema = dict(schema or {})
    colmap = {k: schema.get(k, k) for k in ("worker", "firm", "period", "log_wage")}
    cov_cols = list(schema.get("covariates", []))
    rows, warnings = [], []
    n_read = n_dup = n_nonfinite = n_unparsable = 0
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        for rec in reader:
            n_read += 1
            lineno = reader.line_num
            try:
                worker = rec[colmap["worker"]].strip()
                firm = rec[colmap["firm"]].strip()
                period = int(float(rec[colmap["period"]]))
                if not INT64.min <= period <= INT64.max:
                    raise OverflowError
                wage = float(rec[colmap["log_wage"]])
                covs = tuple(float(rec[c]) for c in cov_cols)
            except (TypeError, ValueError, AttributeError, OverflowError):
                n_unparsable += 1
                warnings.append(f"line {lineno}: unparsable row dropped")
                continue
            if not worker or not firm:
                n_unparsable += 1
                warnings.append(f"line {lineno}: empty worker or firm id")
                continue
            if not math.isfinite(wage) or any(not math.isfinite(c) for c in covs):
                n_nonfinite += 1
                warnings.append(f"line {lineno}: non-finite value dropped")
                continue
            if (worker, period) in seen:
                n_dup += 1
                warnings.append(f"line {lineno}: duplicate (worker, period) dropped")
                continue
            seen.add((worker, period))
            rows.append((worker, firm, period, wage, covs))
    if not rows:
        raise DataError(f"no valid rows in {path}")
    panel = Panel(
        worker=[r[0] for r in rows],
        firm=[r[1] for r in rows],
        period=[r[2] for r in rows],
        log_wage=[r[3] for r in rows],
        covariates=[r[4] for r in rows] if cov_cols else None,
        covariate_names=tuple(cov_cols),
    )
    summaries = {
        name: {"min": float(v.min()), "max": float(v.max()), "mean": float(v.mean())}
        for name, v in [("log_wage", panel.log_wage)]
        + [(c, panel.covariates[:, k]) for k, c in enumerate(cov_cols)]
    }
    report = ValidationReport(
        rows_read=n_read,
        rows_kept=len(rows),
        rows_dropped=n_read - len(rows),
        duplicate_worker_periods=n_dup,
        non_finite_values=n_nonfinite,
        unparsable_rows=n_unparsable,
        column_summaries=summaries,
        warnings=tuple(warnings),
    )
    return panel, report


def oracle_write(panel, delimiter=","):
    """Reference writer: one csv.writer row per observation."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=delimiter)
    writer.writerow(["worker", "firm", "period", "log_wage", *panel.covariate_names])
    for k in range(panel.n_obs):
        writer.writerow(
            [
                panel.worker_ids[panel.worker_idx[k]],
                panel.firm_ids[panel.firm_idx[k]],
                int(panel.period[k]),
                float.__repr__(float(panel.log_wage[k])),
                *[float.__repr__(float(v)) for v in panel.covariates[k]],
            ]
        )
    return buf.getvalue().encode("utf-8")


IDS = ["w1", "w2", "w3", " w2 ", "w,4", 'w"5', "w\n6", "", "  "]
FIRMS = ["f1", "f2", "f3", "f 1", "f,2", "\tf3", ""]
PERIODS = ["1", "2", "3", "2.0", "4.9", "-1", "x", "", "nan", "inf", "-inf", "1e30", "1e400"]
VALUES = ["1.5", "-0.25", "3", "1e-3", "nan", "inf", "-inf", "1e400", "abc", "", " 2.5 "]


def dirty_csv(rng, covariates, delimiter):
    """Text of a random dirty panel file; returns (text, schema)."""
    header = ["worker", "firm", "period", "log_wage"] + (["x0", "x1"] if covariates else [])
    header += rng.sample(["note", "worker", "extra"], rng.randint(0, 2))  # maybe a later duplicate
    rng.shuffle(header)
    dirty = rng.choice([0.0, 0.05, 0.3])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=delimiter)
    writer.writerow(header)
    rows = []
    for _ in range(rng.randint(1, 40)):
        clean = rng.random() >= dirty
        row = {
            "worker": rng.choice(IDS[:5] if clean else IDS),
            "firm": rng.choice(FIRMS[:4] if clean else FIRMS),
            "period": rng.choice(PERIODS[:6] if clean else PERIODS),
        }
        for col in ("log_wage", "x0", "x1", "note", "extra"):
            row[col] = rng.choice(VALUES[:4] if clean else VALUES)
        rows.append([row[c] for c in header])
    rows.append(rows[0])  # a duplicate of a row from the first chunk
    rows.append([rng.choice(VALUES[4:]) for _ in header])  # a bad row in the last chunk
    for row in rows:
        if rng.random() < 0.05:
            buf.write("\r\n")  # blank line
        if rng.random() < 0.05:
            row = row[: rng.randrange(len(row))]  # short row
        writer.writerow(row)
    schema = {"covariates": ["x0", "x1"]} if covariates else None
    return buf.getvalue(), schema


def count_c_parses(monkeypatch):
    """Count the chunks that `_convert_lines` parses (rather than hands back)
    in the one-element list returned."""
    parsed = [0]
    convert_lines = twowayfe.panel._convert_lines

    def counted(*args):
        columns = convert_lines(*args)
        parsed[0] += columns is not None
        return columns

    monkeypatch.setattr(twowayfe.panel, "_convert_lines", counted)
    return parsed


class TestLoaderOracle:
    def test_fuzzed_dirty_files_match_per_row_loader(self, tmp_path, monkeypatch):
        rng = random.Random(20260501)
        f = tmp_path / "p.csv"
        fallbacks = 0
        convert_rows = twowayfe.panel._convert_rows

        def counted_convert_rows(*args):
            nonlocal fallbacks
            fallbacks += 1
            return convert_rows(*args)

        monkeypatch.setattr(twowayfe.panel, "_convert_rows", counted_convert_rows)
        parsed = count_c_parses(monkeypatch)
        for case in range(320):
            delimiter = rng.choice([",", ";", "\t"])
            text, schema = dirty_csv(rng, covariates=case % 2 == 1, delimiter=delimiter)
            f.write_text(text, encoding="utf-8", newline="")
            chunk_rows = rng.choice([1, 2, 3, 5, 8, 1000])
            monkeypatch.setattr(twowayfe.panel, "CHUNK_ROWS", chunk_rows)
            try:
                expected = oracle_load(f, schema, delimiter)
            except DataError:
                with pytest.raises(DataError):
                    load_panel(f, schema, delimiter)
                continue
            panel, report = load_panel(f, schema, delimiter)
            assert panel == expected[0], case
            assert report == expected[1], case
        # both the C parse of whole chunks and the per-row fallback ran often
        assert fallbacks > 200 and parsed[0] > 200

    @pytest.mark.parametrize(
        "text, delimiter, chunk_rows, c_chunks",
        [
            pytest.param(
                "worker,firm,period,log_wage\r\na,f1,1,1.5\r\n\r\nb,f2,2,nan\r\nc,f1,3,2\r\n",
                ",", 2, 2, id="crlf",
            ),
            pytest.param(
                "worker,firm,period,log_wage\ra,f1,1,1.5\r\r\rb,f2,2,2.5\rc,f1,3,-inf\r",
                ",", 2, 3, id="bare_cr",
            ),
            pytest.param(
                "worker,firm,period,log_wage\na,f1,1,1.5\n   \n\t\nb,f1,2,2\n",
                ",", 1000, 0, id="whitespace_only_lines",
            ),
            pytest.param(
                "worker,firm,period,log_wage\na,f1,1_0,1.5\nb,f1,1,2_5\nc,f2,1,3\n",
                ",", 1000, 0, id="underscore_digits",
            ),
            pytest.param(
                "worker,firm,period,log_wage\na,f1,\x1c1,1.5\nb,f1,1,2\x1f\nc,f2,1,3\n",
                ",", 1000, 0, id="ascii_separator_around_number",
            ),
            pytest.param(
                'worker,firm,period,log_wage\n"a,1",f1,1,1.5\n"b\n\nc",f1,1,2\n"d""e",f2,2,3\n'
                '"w,f",1,2,3\n"x\ny",2,3,4\n',
                ",", 1000, 0, id="quoted_ids",
            ),
            pytest.param(
                '"worker","firm","period","log_wage"\n"a","f1","1","1.5"\n"d""e"," f 2 ",2,"3"\n'
                '"g",f1,"1_0",4\n',
                ",", 2, 1, id="quote_all",
            ),
            pytest.param(
                "worker firm period log_wage\na  f1 1 1.5\n b f1 1 2\nc f1 1 2 \nd f2 1 3\n",
                " ", 1000, 0, id="space_delimiter_repeated",
            ),
            pytest.param(
                "worker firm period log_wage\na f1 1 1.5\nb f2 2 2.5 \n",
                " ", 1000, 1, id="space_delimiter_trailing",
            ),
            pytest.param(
                'worker;firm;period;log_wage\na;f1;1;1.5\nb;f2;1;2\n\n"c\n1";f1;1;3\nd;f2;x;4\n'
                "e;f1;2;5\n",
                ";", 2, 2, id="quoted_record_after_clean_chunk",
            ),
        ],
    )
    def test_edge_inputs_match_per_row_loader(
        self, tmp_path, monkeypatch, text, delimiter, chunk_rows, c_chunks
    ):
        f = tmp_path / "p.csv"
        f.write_text(text, encoding="utf-8", newline="")
        parsed = count_c_parses(monkeypatch)
        monkeypatch.setattr(twowayfe.panel, "CHUNK_ROWS", chunk_rows)
        panel, report = load_panel(f, delimiter=delimiter)
        assert (panel, report) == oracle_load(f, delimiter=delimiter)
        assert parsed[0] == c_chunks  # chunks the C parser took; the rest were handed back

    def test_warnings_name_physical_lines_after_blank_lines(self, tmp_path):
        f = tmp_path / "p.csv"
        write_lines(
            f,
            ["worker,firm,period,log_wage", "a,f1,1,1.0", "", "", "b,f1,1,nan", "c,f2,x,1.0"],
        )
        _, report = load_panel(f)
        assert report.warnings == (
            "line 5: non-finite value dropped",
            "line 6: unparsable row dropped",
        )
        assert (report.rows_read, report.non_finite_values, report.unparsable_rows) == (3, 1, 1)

    @pytest.mark.parametrize("period", ["inf", "1e400", "1e30", "-inf", "9223372036854775808"])
    def test_period_outside_int64_is_unparsable(self, tmp_path, period):
        f = tmp_path / "p.csv"
        write_lines(
            f,
            ["worker,firm,period,log_wage", "a,f1,1,1.0", f"b,f1,{period},1.0", "b,f2,2,0.5"],
        )
        panel, report = load_panel(f)
        assert panel.n_obs == 2
        assert report.unparsable_rows == 1
        assert report.warnings == ("line 3: unparsable row dropped",)


def count_sorts(monkeypatch):
    """Count np.lexsort calls in the one-element list returned."""
    sorts = [0]
    lexsort = np.lexsort

    def counted(*args, **kwargs):
        sorts[0] += 1
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return sorts


class TestIdCoding:
    """Ids are coded one run of equal neighbours at a time, and rows already
    in (worker, period) order are not sorted again."""

    def test_shuffled_copy_loads_like_sorted_file(self, tmp_path, monkeypatch):
        rng = random.Random(3)
        rows = [(f"w{w:02d}", f"f{rng.randint(0, 4)}", t, rng.uniform(-1, 1))
                for w in range(30) for t in range(1, rng.randint(2, 5))]
        lines = [f"{w},{f},{t},{y!r}" for w, f, t, y in rows]
        # two duplicates: the first of each (worker, period) wins
        lines.insert(4, f"{rows[3][0]},f9,{rows[3][2]},7.5")
        lines.insert(40, f"{rows[38][0]},f8,{rows[38][2]},-7.5")
        header = "worker,firm,period,log_wage"
        sorted_file, shuffled_file = tmp_path / "sorted.csv", tmp_path / "shuffled.csv"
        write_lines(sorted_file, [header, *lines])
        rng.shuffle(lines)
        write_lines(shuffled_file, [header, *lines])
        sorts = count_sorts(monkeypatch)
        files = {"sorted": sorted_file, "shuffled": shuffled_file}
        got = {name: load_panel(f) for name, f in files.items()}
        assert sorts[0] == 1  # only the shuffled file is sorted
        monkeypatch.undo()
        for name, f in files.items():
            assert got[name] == oracle_load(f), name
            assert got[name][1].duplicate_worker_periods == 2
        # without the duplicates both files hold the same rows
        clean = [line for line in lines if ",f9," not in line and ",f8," not in line]
        write_lines(shuffled_file, [header, *clean])
        panel, report = load_panel(shuffled_file)
        assert report.rows_dropped == 0
        assert panel == Panel(*zip(*rows))

    @pytest.mark.parametrize(
        "workers",
        [
            pytest.param(["w1", " w1 ", "w1\t", "w2", " w2"], id="whitespace_neighbours"),
            pytest.param(["a", "b", "a", "b", "a", "b"], id="alternating_no_runs"),
            pytest.param(["b", " a", "b ", "a", " b", "a"], id="alternating_with_whitespace"),
        ],
    )
    def test_ids_equal_after_strip_code_to_one_id(self, tmp_path, workers):
        f = tmp_path / "p.csv"
        write_lines(
            f,
            ["worker,firm,period,log_wage"]
            + [f"{w},{' f1 ' if t % 2 else 'f1'},{t},1.0" for t, w in enumerate(workers)],
        )
        panel, report = load_panel(f)
        assert (panel, report) == oracle_load(f)
        assert panel.worker_ids == tuple(sorted({w.strip() for w in workers}))
        assert panel.firm_ids == ("f1",)
        assert report.rows_dropped == 0

    def test_runs_across_chunk_borders_and_row_path_chunks(self, tmp_path, monkeypatch):
        """Three rows a chunk: every worker's run of rows crosses a chunk
        border, and the chunk holding the unparsable row takes the row loop
        between chunks that the C parser takes."""
        rows = [f"{w},{f},{t},{t / 4}" for w, f in (("a", "f1"), ("b", "f2"), ("c", "f1"))
                for t in range(1, 5)]
        rows[5] = "b,f2,x,1.0"  # chunk 2 of 4
        f = tmp_path / "p.csv"
        write_lines(f, ["worker,firm,period,log_wage", *rows])
        monkeypatch.setattr(twowayfe.panel, "CHUNK_ROWS", 3)
        parsed = count_c_parses(monkeypatch)
        panel, report = load_panel(f)
        assert parsed[0] == 3
        assert (panel, report) == oracle_load(f)
        assert panel.worker_ids == ("a", "b", "c")
        assert np.bincount(panel.worker_idx).tolist() == [4, 3, 4]
        assert report.warnings == ("line 7: unparsable row dropped",)

    def test_id_lookup_on_restricted_panel(self, exactfit_panel):
        p = restrict_panel(exactfit_panel, {"w1", "w3"}, {"f2"})
        for k, w in enumerate(p.worker_ids):
            assert p.worker_index(w) == k
        assert p.firm_index("f2") == 0
        with pytest.raises(DataError, match="unknown worker id 'w2'"):
            p.worker_index("w2")
        with pytest.raises(DataError, match="unknown firm id 'f1'"):
            p.firm_index("f1")

    def test_reference_firm_normalization_on_restricted_panel(self):
        rng = np.random.default_rng(4)
        panel = random_connected_panel(rng, n_workers=40, n_firms=5, mover_share=0.6)
        keep = set(panel.firm_ids[1:])
        p = restrict_panel(panel, set(panel.worker_ids), keep)
        reference = p.firm_ids[-1]
        config = SolverConfig(normalization="reference_firm", reference_firm=reference)
        est = estimate(p, None, config)
        assert est.psi_of(reference) == 0.0
        assert est.psi[p.firm_index(reference)] == 0.0
        w = p.worker_ids[0]
        assert est.alpha_of(w) == est.alpha[p.worker_index(w)]
        with pytest.raises(DataError):
            estimate(p, None, SolverConfig(normalization="reference_firm",
                                           reference_firm=panel.firm_ids[0]))


class TestColumnarOracles:
    @staticmethod
    def random_panel(rng, covariates):
        """A random panel with ids that need quoting; its rows come shuffled."""
        rows = {}
        for _ in range(rng.randint(1, 60)):
            w = rng.choice(["w1", "w2", "w10", "w,3", 'w"4', "w 5", "w\n6", "é7"])
            rows[(w, rng.randint(-3, 6))] = rng.choice(["f1", "f,2", "f 3", "f10", "F"])
        keys = list(rows)
        rng.shuffle(keys)
        return Panel(
            worker=[k[0] for k in keys],
            firm=[rows[k] for k in keys],
            period=[k[1] for k in keys],
            log_wage=[rng.uniform(-1e3, 1e3) / rng.choice([1, 3, 7e10]) for _ in keys],
            covariates=[[rng.gauss(0, 1e5) for _ in range(covariates)] for _ in keys],
            covariate_names=tuple(f"c{k}" for k in range(covariates)),
        )

    def test_restrict_equals_rebuilt_panel(self):
        rng = random.Random(5)
        lost_workers = 0
        for case in range(300):
            panel = self.random_panel(rng, covariates=case % 3)
            keep_w = {w for w in panel.worker_ids if rng.random() < 0.8} or {panel.worker_ids[0]}
            keep_f = {f for f in panel.firm_ids if rng.random() < 0.7} or {panel.firm_ids[0]}
            kept = [o for o in panel.observations() if o.worker in keep_w and o.firm in keep_f]
            if not kept:
                with pytest.raises(DataError):
                    restrict_panel(panel, keep_w, keep_f)
                continue
            expected = Panel(
                worker=[o.worker for o in kept],
                firm=[o.firm for o in kept],
                period=[o.period for o in kept],
                log_wage=[o.log_wage for o in kept],
                covariates=[o.covariates for o in kept],
                covariate_names=panel.covariate_names,
            )
            got = restrict_panel(panel, keep_w, keep_f)
            assert got == expected, case
            assert got.worker_index(got.worker_ids[-1]) == got.n_workers - 1
            # kept workers whose every firm was dropped vanish from the ids
            lost_workers += len(keep_w) - got.n_workers
        assert lost_workers > 50

    @pytest.mark.parametrize("delimiter", [",", ";", "%", " ", "\t", ".", "e", "1", "-", "+"])
    def test_write_quotes_where_row_by_row_writer_does(self, tmp_path, delimiter):
        """Ids and delimiters that make csv.writer quote a field, and ones that
        do not: the output is the row-by-row writer's, and it loads back."""
        f = tmp_path / "p.csv"
        panels = [
            Panel(
                worker=["ka", "kb", "ka"], firm=["fx", "fy", "fx"], period=[1, -2, 3],
                log_wage=[1.5, -2.5e-7, 1e22], covariates=[[0.1], [1e100], [-0.0]],
                covariate_names=("x.1",),
            ),
            Panel(worker=["", f"a{delimiter}b", "c"], firm=['f"1', "f\r2", "f\n3"],
                  period=[1, 2, 3], log_wage=[1.0, 2.0, 3.0]),
        ]
        for panel in panels:
            write_panel(panel, f, delimiter)
            assert f.read_bytes() == oracle_write(panel, delimiter)
            back, report = load_panel(f, delimiter=delimiter)
            assert (back, report) == oracle_load(f, delimiter=delimiter)

    def test_write_matches_row_by_row_writer(self, tmp_path, monkeypatch):
        rng = random.Random(11)
        f = tmp_path / "p.csv"
        for case in range(100):
            panel = self.random_panel(rng, covariates=case % 3)
            delimiter = rng.choice([",", ";", " "])
            monkeypatch.setattr(twowayfe.panel, "CHUNK_ROWS", rng.choice([1, 4, 1000]))
            write_panel(panel, f, delimiter)
            assert f.read_bytes() == oracle_write(panel, delimiter), case
