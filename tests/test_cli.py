import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphstruve
from sphstruve.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return _run


class TestEval:
    def test_near_zero_of_sine(self, run):
        code, out, _ = run("eval", "sph_j", "--n", "0", "--x", "3.14159265358979")
        assert code == 0
        assert abs(float(out.strip())) < 1e-10

    def test_struve_closed_form_point(self, run):
        code, out, _ = run("eval", "struve_h", "--alpha", "0.5", "--x", "3.14159265358979")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.9003163161571061, rel=1e-10)

    def test_domain_error_exit_code(self, run):
        code, _, err = run("eval", "sph_j", "--n", "-1", "--x", "0")
        assert code == 2
        assert "singular" in err

    def test_terminating_hyp1f2_pole_exit_code(self, run):
        code, out, err = run(
            "eval", "hyp1f2", "--gamma", "-3", "--a", "-1", "--b", "1", "--z", "0.5"
        )
        assert code == 2
        assert out == ""
        assert "pole" in err
        assert "Traceback" not in err

    def test_unknown_function(self, run):
        code, _, err = run("eval", "frob", "--x", "1")
        assert code == 2
        assert "unknown function" in err

    def test_missing_argument(self, run):
        code, _, err = run("eval", "sph_j", "--x", "1")
        assert code == 2

    def test_verbose_json_metadata(self, run):
        code, out, _ = run(
            "eval", "cyl_j", "--nu", "0.5", "--x", "2", "--format", "json", "--verbose"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(0.5130161365618278, rel=1e-12)
        assert rec["path"] == "series"
        assert rec["terms_used"] > 0


class TestVerify:
    def test_single_identity_json(self, run):
        code, out, _ = run("verify", "I01", "--format", "json")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["status"] == "pass"
        assert rec["lhs"] == pytest.approx(math.pi, abs=1e-8)
        for key in (
            "id",
            "params",
            "lhs",
            "rhs",
            "abs_err",
            "rel_err",
            "tol_abs",
            "tol_rel",
            "status",
            "seconds",
        ):
            assert key in rec

    def test_unknown_id(self, run):
        code, _, err = run("verify", "BOGUS")
        assert code == 2

    def test_csv_columns(self, run):
        code, out, _ = run("verify", "I20", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "id",
            "params",
            "lhs",
            "rhs",
            "abs_err",
            "rel_err",
            "tol_abs",
            "tol_rel",
            "status",
            "seconds",
        ]
        assert len(rows) == 1 + 20

    def test_multiple_ids_and_exit(self, run):
        code, out, _ = run("verify", "I02", "I05", "--format", "json")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["id"] for r in recs} == {"I02", "I05"}
        assert all(r["status"] == "pass" for r in recs)

    def test_determinism_modulo_timing(self, run):
        _, out1, _ = run("verify", "I02", "I16", "--format", "json", "--seed", "5")
        _, out2, _ = run("verify", "I02", "I16", "--format", "json", "--seed", "5")

        def strip(text):
            recs = [json.loads(line) for line in text.strip().splitlines()]
            for r in recs:
                r.pop("seconds")
            return recs

        assert strip(out1) == strip(out2)

    def test_skipped_check_exits_nonzero(self, run, monkeypatch):
        from sphstruve import cli
        from sphstruve.identities import VerificationReport

        skipped = VerificationReport(
            identity_id="I01",
            params={},
            lhs=math.nan,
            rhs=math.nan,
            abs_err=math.nan,
            rel_err=math.nan,
            status="skipped",
            seconds=0.0,
            reason="DomainError: stub",
        )
        monkeypatch.setattr(cli, "verify_all", lambda **kw: [skipped])
        code, out, _ = run("verify", "I01", "--format", "text")
        assert code == 1
        assert "0 failed, 1 skipped" in out

    def test_catalog_listing(self, run):
        code, out, _ = run("verify", "--list-catalog")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 24


class TestTable:
    def test_row_count_and_monotone(self, run):
        code, out, _ = run("table", "sph_j", "--n", "2", "--x", "0.1:10:100", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 100
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
        assert xs[0] == pytest.approx(0.1) and xs[-1] == pytest.approx(10.0)

    def test_series_value_row(self, run):
        code, out, _ = run("table", "struve_h", "--alpha", "0", "--x", "0.1:5:50", "--format", "csv")
        assert code == 0
        first = list(csv.reader(io.StringIO(out)))[1]
        assert float(first[1]) == pytest.approx(0.06359126999493356, rel=1e-10)

    def test_zero_count_rejected(self, run):
        code, _, err = run("table", "sph_j", "--n", "2", "--x", "0.1:10:0")
        assert code == 2

    def test_bad_sweep_spec(self, run):
        code, _, err = run("table", "sph_j", "--n", "2", "--x", "1:10")
        assert code == 2

    def test_unknown_function_lists_the_choices(self, run):
        for argv in (("eval", "frob", "--x", "1"), ("table", "frob", "--x", "1:2:2")):
            code, _, err = run(*argv)
            assert code == 2
            assert "unknown function 'frob'; choose from ['anger', 'cyl_j'," in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cyl_j", "--nu", "30.7", "--x", "18:120:103"),
            ("struve_h", "--alpha", "30", "--x", "18:120:103"),
            ("s1", "--nu", "19.7", "--x", "18:70:53"),
        ],
    )
    def test_routed_rows_take_all_three_paths(self, run, argv):
        code, out, _ = run("table", *argv, "--format", "json")
        assert code == 0
        paths = {json.loads(line)["path"] for line in out.splitlines()}
        assert paths == {"series", "extended-precision-series", "asymptotic"}

    def test_policy_free_rows(self, run):
        code, out, _ = run("table", "rayleigh_jn", "--n", "1", "--x", "2:4:3", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(r["path"], r["terms_used"]) for r in rows] == [("value", 0)] * 3


class TestConfigFile:
    def test_flags_override_file(self, run, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_terms = 7\nformat = json\n")
        # file sets a tiny term budget; the flag restores it
        code, out, _ = run(
            "eval", "humbert2", "--mu", "0", "--nu", "0", "--z", "1",
            "--config", str(cfg), "--max-terms", "100",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(0.12044213230101765, rel=1e-12)

    def test_file_applies_when_flag_missing(self, run, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_terms = 4\n")
        code, _, err = run(
            "eval", "humbert2", "--mu", "0", "--nu", "0", "--z", "9",
            "--config", str(cfg),
        )
        assert code == 2  # convergence failure surfaces as exit 2

    def test_unknown_key_rejected(self, run, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("wibble = 3\n")
        code, _, err = run("eval", "sph_j", "--n", "0", "--x", "1", "--config", str(cfg))
        assert code == 2

    def test_abbreviated_flag_beats_file(self, run, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max-terms = 5\n")
        code, out, err = run("eval", "cyl_j", "--nu", "0", "--x", "10", "--config", str(cfg), "--max-t", "500")
        assert code == 0, err
        assert float(out) == pytest.approx(-0.2459357644513483, rel=1e-12)

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("seed = abc\n", ("verify", "I01")),  # not an int
            ("format = xml\n", ("verify", "I01")),  # not a choice
            ("format = csv\n", ("eval", "sph_j", "--n", "0", "--x", "1")),  # not an eval choice
            ("seed = 3\n", ("eval", "sph_j", "--n", "0", "--x", "1")),  # eval takes no --seed
            ("verbose = 1\n", ("eval", "sph_j", "--n", "0", "--x", "1")),  # a switch takes no value
        ],
    )
    def test_bad_config_exits_2(self, run, tmp_path, text, argv):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        code, out, err = run(*argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "error" in err and "Traceback" not in err

    def test_missing_file_exits_2(self, run, tmp_path):
        code, out, err = run("verify", "I01", "--config", str(tmp_path / "absent.txt"))
        assert code == 2
        assert out == ""
        assert "cannot read config file" in err


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "sph_j", "--n", "2.5", "--x", "1"),  # --n is an integer
            ("eval", "sph_j", "--n", "0", "--x", "1", "--seed", "3"),
            ("eval", "sph_j", "--n", "0", "--x", "1", "--parallelism", "2"),
            ("eval", "sph_j", "--n", "0", "--x", "1", "--format", "csv"),
            ("table", "sph_j", "--n", "0", "--x", "1:2:2", "--verbose"),
            ("table", "sph_j", "--n", "0", "--x", "1:2:2", "--seed", "3"),
            ("table", "sph_j", "--n", "0", "--x", "1:2:2", "--format", "text"),
            ("verify", "I01", "--verbose"),
        ],
    )
    def test_flag_not_read_exits_2(self, run, argv):
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("eval", "sph_j", "--n", "2", "--x", "1", "--mu", "4"), "--mu"),
            (("table", "mod_i0", "--t", "2", "--x", "1:2:2"), "--t"),  # the sweep sets t
        ],
    )
    def test_function_flag_not_taken_exits_2(self, run, argv, flag):
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert f"{flag} does not apply" in err

    def test_help_exits_0(self, run):
        code, out, _ = run("verify", "--help")
        assert code == 0
        assert "--parallelism" in out and "--verbose" not in out


class TestOutFile:
    def test_output_redirect(self, run, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run("verify", "I01", "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        rec = json.loads(target.read_text().strip())
        assert rec["id"] == "I01"

    def test_file_opened_once_and_appended(self, run, tmp_path, monkeypatch):
        from sphstruve import cli

        target = tmp_path / "report.jsonl"
        target.write_text("kept\n")
        opened = []

        def counting_open(path, *a, **kw):
            opened.append(path)
            return open(path, *a, **kw)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code, out, _ = run("verify", "I02", "I05", "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        assert opened == [str(target)]
        lines = target.read_text().splitlines()
        assert lines[0] == "kept"
        assert len(lines) > 3
        assert {json.loads(line)["id"] for line in lines[1:]} == {"I02", "I05"}

    def test_unopenable_file_exits_2(self, run, tmp_path):
        target = tmp_path / "absent" / "f.txt"
        code, out, err = run("eval", "sph_j", "--n", "1", "--x", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot open --out file") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not target.parent.exists()


class _ClosedPipe:
    """A stdout whose reader has gone away: every write raises."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestClosedPipe:
    def test_exits_quietly(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
            code = main(["verify", "I02", "--format", "json"])
            monkeypatch.undo()
        assert code == 141
        assert capsys.readouterr().err == ""


class TestFullCatalogRun:
    def test_verify_all_json_record_count(self, run):
        code, out, _ = run("verify", "all", "--format", "json", "--parallelism", "2")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) >= 120
        assert all(r["status"] == "pass" for r in recs)
        assert {r["id"] for r in recs} == {f"I{k:02d}" for k in range(1, 25)}

    def test_non_finite_fields_become_null(self, run):
        code, out, _ = run("verify", "I23", "--format", "json")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["rel_err"] is None for r in recs)  # rhs is exactly zero
        assert all(r["status"] == "pass" for r in recs)


class TestWithoutNumpy:
    def test_laguerre_identities_with_numpy_blocked(self):
        # numpy is a test-only import: with it blocked, a fresh process
        # builds the Gauss-Laguerre rules and verifies I11, I15 and I18
        src = str(Path(sphstruve.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys; sys.modules['numpy'] = None; from sphstruve.cli import main; "
            "sys.exit(main(['verify', 'I11', 'I15', 'I18', '--seed', '7']))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "numpy" not in proc.stderr
