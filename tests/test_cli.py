import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import yamabe
from yamabe.catalog import catalog
from yamabe.cli import main

EXAMPLE2_DOC = {
    "n": 5, "d": 1,
    "alpha": [1.0, 0.0, 0.0, 0.0, 0.0],
    "domain": [1.0, 40.0],
    "profiles": {"phi": "sqrt(xi/20)", "f": "sqrt(20/xi)", "h": "20*ln(xi)"},
    "label": "steady-spacelike",
}


def run(argv):
    """main() with stdout captured; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def child_env():
    """The environment of a child `python -m yamabe` that imports this
    package."""
    package_root = os.path.dirname(os.path.dirname(yamabe.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_child(argv, timeout=60):
    """`python -m yamabe argv` in a child process that is killed after
    timeout seconds, so that a run that never ends fails its test instead
    of stalling the suite. The finished process, stdout and stderr bytes."""
    return subprocess.run([sys.executable, "-m", "yamabe"] + argv,
                          capture_output=True, env=child_env(),
                          timeout=timeout)


@pytest.fixture()
def doc_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(EXAMPLE2_DOC), encoding="utf-8")
    return str(path)


class TestVerify:
    def test_certified_exit_zero(self, doc_path, tmp_path):
        out = tmp_path / "report.json"
        code, stdout = run(["verify", doc_path, "--out", str(out)])
        assert code == 0
        assert "steady-spacelike: certified" in stdout
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["verdict"] == "certified"
        assert set(payload["equations"]) == {
            "h-ode", "diag-1", "diag-2", "tensor-base", "tensor-fiber"}

    def test_report_to_stdout_by_default(self, doc_path):
        code, stdout = run(["verify", doc_path])
        assert code == 0
        assert json.loads(stdout)["verdict"] == "certified"

    def test_overflowing_derivative_is_inconclusive(self, tmp_path):
        # h' = 20/xi + 1e308*10 overflows at every point
        doc = dict(EXAMPLE2_DOC, profiles=dict(
            EXAMPLE2_DOC["profiles"], h="20*ln(xi) + xi*1e308*10"))
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout = run(["verify", str(path)])
        assert code == 3
        report = json.loads(stdout)
        assert report["verdict"] == "inconclusive"
        assert "non-finite dh" in report["notes"][0]

    def test_rejected_exit_two(self, tmp_path):
        doc = dict(EXAMPLE2_DOC, rho=0.001)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout = run(["verify", str(path)])
        assert code == 2
        assert json.loads(stdout)["verdict"] == "rejected"

    def test_inconclusive_exit_three(self, tmp_path):
        doc = {
            "n": 3, "d": 1, "alpha": [1.0, 0.0, 0.0],
            "domain": [-2.0, 2.0],
            "profiles": {"phi": "sqrt(xi)", "f": "1", "h": "xi"},
        }
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout = run(["verify", str(path)])
        assert code == 3
        assert json.loads(stdout)["verdict"] == "inconclusive"

    def test_missing_file_exit_one(self, capfd):
        code, _ = run(["verify", "/nonexistent/doc.json"])
        assert code == 1
        assert "error:" in capfd.readouterr().err

    def test_malformed_json_exit_one(self, tmp_path, capfd):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = run(["verify", str(path)])
        assert code == 1
        assert "malformed JSON" in capfd.readouterr().err

    def test_invalid_document_exit_one(self, tmp_path, capfd):
        doc = dict(EXAMPLE2_DOC, n=2, alpha=[1.0, 0.0])
        path = tmp_path / "badn.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run(["verify", str(path)])
        assert code == 1
        assert "invalid field 'n'" in capfd.readouterr().err

    def test_unknown_flag_exit_one(self, doc_path, capfd):
        code, _ = run(["verify", doc_path, "--frobnicate"])
        assert code == 1
        assert "error:" in capfd.readouterr().err

    def test_infinite_document_tolerance_exit_one(self, tmp_path, capfd):
        # phi = xi, f = xi^3, h = xi^2 is no soliton: residuals reach 2180
        path = tmp_path / "inf_tol.json"
        path.write_text(
            '{"n": 3, "d": 1, "alpha": [1.0, 0.0, 0.0], "domain": [0.5, 2.0],'
            ' "profiles": {"phi": "xi", "f": "xi^3", "h": "xi^2"},'
            ' "tolerance": Infinity}', encoding="utf-8")
        code, stdout = run(["verify", str(path)])
        assert code == 1
        assert stdout == ""
        assert "invalid field 'tolerance'" in capfd.readouterr().err


BAD_TOL = [(["--tol", text], "--tol: expected a positive finite number")
           for text in ("inf", "-1", "nan")]
BAD_GRID = [(["--grid", text], "--grid: expected an integer >= 2")
            for text in ("-3", "1")]


@pytest.mark.parametrize("command,argv,message", [
    (command, argv, message)
    for command, cases in ((["verify", "DOC"], BAD_TOL + BAD_GRID),
                           (["family", "thm16", "--range", "1", "40"],
                            BAD_TOL + BAD_GRID),
                           (["examples"], BAD_GRID))
    for argv, message in cases])
def test_bad_check_setting_exits_one(doc_path, capfd, command, argv, message):
    code, stdout = run([doc_path if a == "DOC" else a for a in command]
                       + argv)
    assert code == 1
    assert stdout == ""
    err = capfd.readouterr().err
    assert err.startswith("error: ") and message in err


class TestFamily:
    def test_thm16_certifies_and_documents(self, tmp_path):
        out_doc = tmp_path / "family.json"
        out_csv = tmp_path / "family.csv"
        code, stdout = run(["family", "thm16", "--range", "1", "40",
                            "--k1", "1", "--k2", "1",
                            "--out-doc", str(out_doc),
                            "--out-csv", str(out_csv)])
        assert code == 0
        payload = json.loads(stdout)
        assert payload["report"]["verdict"] == "certified"
        assert payload["document"]["family"]["id"] == "thm16"
        # the emitted document reloads through verify, under its label
        code2, stdout2 = run(["verify", str(out_doc), "--out",
                              str(tmp_path / "report.json")])
        assert code2 == 0
        assert stdout2 == "family-thm16: certified\n"
        assert out_csv.read_text(encoding="utf-8").startswith("xi,phi,f,h\n")

    def test_thm15_proof_variant_rejected(self):
        code, stdout = run(["family", "thm15", "--k1", "1", "--k2", "1",
                            "--k3", "0", "--lambda-f", "-0.5",
                            "--range", "-0.2", "0.05",
                            "--q-variant", "proof"])
        assert code == 2
        assert json.loads(stdout)["report"]["verdict"] == "rejected"

    def test_construction_is_not_a_flag(self, capfd):
        code, stdout = run(["family", "thm15", "--range", "-0.3", "0.4",
                            "--k3", "-0.2", "--lambda-f", "-0.5",
                            "--construction", "ode"])
        assert code == 1
        assert stdout == ""
        err = capfd.readouterr().err
        assert err.startswith("error: ") and "--construction" in err

    def test_dimension_hypothesis_exit_one(self, capfd):
        code, _ = run(["family", "thm15", "--range", "-0.2", "0.2",
                       "--lambda-f", "-0.5", "--n", "4", "--d", "3"])
        assert code == 1
        assert "n + d = 6" in capfd.readouterr().err

    def test_thm17_needs_expressions(self, capfd):
        code, _ = run(["family", "thm17", "--range", "-1", "1"])
        assert code == 1
        assert "--zp" in capfd.readouterr().err
        # only the missing flags are named
        code, _ = run(["family", "thm17", "--range", "-1", "1",
                       "--phi", "1/cos(xi)"])
        assert code == 1
        assert capfd.readouterr().err == \
            "error: thm17 needs --zp expressions\n"

    def test_scalar_flat_family_rejects_lambda_f(self, capfd):
        for argv in (["thm16", "--k1", "1", "--k3", "-0.05",
                      "--range", "1", "31"],
                     ["thm17", "--phi", "1/cos(xi)", "--zp=-1/2",
                      "--range", "-1.4", "1.4"]):
            code, _ = run(["family", *argv, "--lambda-f", "0.5"])
            assert code == 1
            assert "invalid field 'lambda_f'" in capfd.readouterr().err

    def test_fractional_power_of_negative_base_exit_one(self, capfd):
        code, _ = run(["family", "thm18", "--phi", "xi^0.5", "--f", "exp(xi)",
                       "--k1", "1", "--range", "-1", "1"])
        assert code == 1
        err = capfd.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv,named", [
        (["--k2", "1e200"], "k2=1e+200"),
        (["--k2", "1e-200"], "k2=1e-200"),
        (["--phi0", "1e-200"], "phi0=1e-200"),
        (["--k1", "1e-320"], "k1=1e-320"),
    ])
    def test_thm15_parameters_past_double_range_exit_one(self, capfd, argv,
                                                         named):
        # k2^2 overflows or underflows, phi0^2 underflows, p^2 underflows
        code, stdout = run(["family", "thm15", "--range", "-0.3", "0.4",
                            "--k3", "-0.2", "--lambda-f", "-0.5", *argv])
        assert code == 1
        assert stdout == ""
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "comes out zero or not finite" in err

    def test_lightlike_family_runs(self):
        code, stdout = run(["family", "thm18", "--range", "-1", "1",
                            "--phi", "exp(0.2*xi)", "--f", "2 + sin(xi)",
                            "--k1", "0.7"])
        assert code == 0
        payload = json.loads(stdout)
        assert payload["document"]["signature"][0] == -1


class TestPortrait:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        argv = ["portrait", "--samples", "3", "--seed", "5",
                "--xi-range", "-0.3", "0.3", "--lambda-f", "0",
                "--points", "20"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv + ["--out", str(a)])[0] == 0
        assert run(argv + ["--out", str(b)])[0] == 0
        text = a.read_text(encoding="utf-8")
        assert text == b.read_text(encoding="utf-8")
        assert text.startswith("xi,phi,dphi,status\n")

    def test_seed_changes_output(self, tmp_path):
        base = ["portrait", "--samples", "3", "--xi-range", "-0.3", "0.3",
                "--lambda-f", "0", "--points", "20"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(base + ["--seed", "5", "--out", str(a)])
        run(base + ["--seed", "6", "--out", str(b)])
        assert a.read_text(encoding="utf-8") != b.read_text(encoding="utf-8")

    def test_default_initials(self, tmp_path):
        out = tmp_path / "defaults.csv"
        code, _ = run(["portrait", "--xi-range", "-0.2", "0.2",
                       "--points", "10", "--out", str(out)])
        assert code == 0
        blocks = out.read_text(encoding="utf-8").split("\n\n")
        assert len(blocks) == 6      # catalog default initial conditions

    def test_start_row_written_once(self):
        code, stdout = run(["portrait", "--initial", "1.0,0.2",
                            "--points", "3"])
        assert code == 0
        header, *lines = stdout.splitlines()
        assert header == "xi,phi,dphi,status"
        rows = [line.split(",") for line in lines]
        assert [float(row[0]) for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert lines[2] == "0.0,1.0,0.2,ok"
        assert all(row[3] == "ok" for row in rows)

    def test_starts_past_a_stop_end_at_once(self):
        # phi0 below the 1e-9 floor is positivity-loss with the start as
        # its one row, and phi' = 1e13 at phi = 1 (s' = -2e13 in s = phi^-2)
        # reaches s = 0, phi -> inf, within the first step: blowup
        proc = run_child(["portrait", "--initial", "1e-10,0",
                          "--initial", "1,1e13"])
        assert proc.returncode == 0
        header, floor_row, gap, *escape_rows = \
            proc.stdout.decode().splitlines()
        assert header == "xi,phi,dphi,status"
        assert floor_row == "0.0,1e-10,0.0,positivity-loss" and gap == ""
        assert escape_rows and all(row.endswith(",blowup")
                                   for row in escape_rows)
        script = ("from yamabe.families import phase_portrait; "
                  "print(*(t.status for t in phase_portrait("
                  "[(1e-10, 0.0), (1.0, 1e13)], (-1.0, 1.0))))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, env=child_env(), timeout=60)
        assert proc.stdout.decode().split() == ["positivity-loss", "blowup"]

    def test_bad_initial_exit_one(self, capfd):
        code, _ = run(["portrait", "--initial", "1.0"])
        assert code == 1
        assert "PHI,DPHI" in capfd.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--points", "-1"], "--points: expected a non-negative integer"),
        (["--initial", "1.0,nan"], "--initial components must be finite"),
        (["--xi-range", "0", "inf"], "--xi-range: expected a finite number"),
        (["--lambda-f", "nan"], "--lambda-f: expected a finite number"),
        (["--k2", "0"], "k2 must be nonzero"),
        (["--xi-range", "1", "-1"], "xi_span (1.0, -1.0) must have lo < hi"),
        (["--xi-range", "0", "0"], "xi_span (0.0, 0.0) must have lo < hi"),
        # k2^2 overflows (q = 0) or underflows (q = lambda_F / 0)
        (["--k2", "1e200"], "||alpha||^2) at k2=1e+200, lambda_F=-6.0"),
        (["--k2", "1e-200"], "||alpha||^2) at k2=1e-200, lambda_F=-6.0"),
    ])
    def test_bad_numeric_option_exits_one(self, capfd, argv, message):
        code, stdout = run(["portrait"] + argv)
        assert code == 1
        assert stdout == ""
        err = capfd.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestNegativeNumbers:
    """A value that starts like a negative number in any form float() reads
    follows its flag as a separate token, the same as after '='."""

    THM15 = ["family", "thm15", "--n", "3", "--d", "3", "--k3", "-0.2",
             "--lambda-f", "-0.5"]

    def test_number(self):
        spaced = run(self.THM15 + ["--range", "-0.3", "0.4", "--k4", "-5e-2"])
        joined = run(self.THM15 + ["--range", "-0.3", "0.4", "--k4=-0.05"])
        assert spaced == joined and spaced[0] == 0

    def test_pair(self):
        exponent = run(self.THM15 + ["--range", "-3e-1", "4e-1"])
        decimal = run(self.THM15 + ["--range", "-0.3", "0.4"])
        assert exponent == decimal and exponent[0] == 0

    @pytest.mark.parametrize("spaced,joined", [
        (["portrait", "--points", "3", "--initial", "-1,0",
          "--initial", "1,-.5"],
         ["portrait", "--points", "3", "--initial=-1,0", "--initial=1,-.5"]),
        (["family", "thm16", "--range", "1", "5",
          "--signature", "-1,1,1,1,1", "--alpha", "0,-1,0,0,0"],
         ["family", "thm16", "--range", "1", "5",
          "--signature=-1,1,1,1,1", "--alpha=0,-1,0,0,0"]),
    ])
    def test_comma_list(self, spaced, joined):
        got = run(spaced)
        assert got == run(joined) and got[0] == 0


class TestGeodesic:
    LIGHT_DOC = {
        "n": 4, "d": 2,
        "signature": [-1, 1, 1, 1],
        "alpha": [1.0, 1.0, 0.0, 0.0],
        "domain": None,
        "profiles": {"phi": "exp(0.2*xi)", "f": "exp(0.2*xi)",
                     "h": "-2.5*exp(-0.4*xi)"},
    }

    @pytest.fixture()
    def light_path(self, tmp_path):
        path = tmp_path / "light.json"
        path.write_text(json.dumps(self.LIGHT_DOC), encoding="utf-8")
        return str(path)

    def test_single_geodesic_csv(self, light_path, tmp_path):
        out = tmp_path / "geo.csv"
        code, _ = run(["geodesic", light_path,
                       "--y", "0.1,-0.2,0.3,0",
                       "--v", "0.05,0.05,0.1,-0.2",
                       "--yf", "0,0.4", "--vf", "0.3,-0.1",
                       "--s-span", "0", "2", "--samples", "9",
                       "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("s,y_1")
        assert len(lines) == 10
        assert lines[-1].endswith(",completed")

    def test_probe_json(self, light_path):
        code, stdout = run(["geodesic", light_path, "--probe", "3",
                            "--s-max", "50", "--mode", "paper-reduced"])
        assert code == 0
        payload = json.loads(stdout)
        assert payload["mode"] == "paper-reduced"
        assert payload["count"] == 3

    def test_compare_modes_json(self, light_path):
        code, stdout = run(["geodesic", light_path, "--probe", "2",
                            "--s-max", "20", "--compare-modes"])
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload) == {"full", "paper-reduced", "notes"}

    @pytest.mark.parametrize("f,y", [("(xi+5)^0.5", "-3,0,0,0"),
                                     ("W(xi) + 2", "0,0,0,0")])
    def test_profile_failing_mid_integration_stops(self, tmp_path, f, y):
        # xi runs down to where f cannot be evaluated (a negative base under
        # a fractional power, W off its branch): the geodesic stops there
        doc = dict(self.LIGHT_DOC, profiles={"phi": "1", "f": f, "h": "xi"})
        path, out = tmp_path / "doc.json", tmp_path / "geo.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run(["geodesic", str(path), f"--y={y}",
                       "--v=-1,0,0,0", "--out", str(out)])
        assert code == 0
        last = out.read_text(encoding="utf-8").splitlines()[-1]
        assert last.rsplit(",", 1)[1] != "completed"

    def test_needs_initial_data(self, light_path, capfd):
        code, _ = run(["geodesic", light_path])
        assert code == 1
        assert "--probe" in capfd.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--y", "0,0", "--v", "1,0"], "--y needs 4 components, got 2"),
        (["--y=nan,0,0,0", "--v", "1,0,0,0"], "--y components must be finite"),
        (["--y", "0,0,0,0", "--v", "1,0,0,inf"], "--v components must be"),
        (["--y", "0,0,0,0", "--v", "1,0,0,0", "--vf", "1"],
         "--vf needs 2 components, got 1"),
    ])
    def test_bad_initial_data_exits_one(self, light_path, capfd, argv,
                                        message):
        code, stdout = run(["geodesic", light_path] + argv)
        assert code == 1
        assert stdout == ""
        err = capfd.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--samples", "-1"], "--samples: expected a positive integer"),
        (["--probe", "-3"], "--probe: expected a non-negative integer"),
        (["--s-span", "0", "inf"], "--s-span: expected a finite number"),
        (["--rtol", "nan"], "--rtol: expected a positive finite number"),
        (["--probe", "2", "--s-max", "nan"],
         "--s-max: expected a positive finite number"),
        (["--samples", "0"], "--samples: expected a positive integer"),
    ])
    def test_bad_numeric_option_exits_one(self, light_path, capfd, argv,
                                          message):
        code, stdout = run(["geodesic", light_path, "--y", "0,0,0,0",
                            "--v", "1,0,0,0"] + argv)
        assert code == 1
        assert stdout == ""
        err = capfd.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestGeodesicOnHalfLine:
    """Catalog example 2 lives on xi in (0, inf)."""

    @pytest.fixture()
    def example2_path(self, tmp_path):
        path = tmp_path / "example-2.json"
        path.write_text(json.dumps(catalog()["example-2"].document),
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [["--compare-modes"],
                                      ["--mode", "paper-reduced"]])
    def test_probe_ends_with_no_stop_at_its_start(self, example2_path, argv):
        done = run_child(["geodesic", example2_path, "--probe", "4"] + argv)
        assert done.returncode == 0
        payload = json.loads(done.stdout)
        for summary in ([payload["full"], payload["paper-reduced"]]
                        if "full" in payload else [payload]):
            assert summary["count"] == 4
            assert all(s != 0.0 for *_, s in summary["failures"])

    @pytest.mark.parametrize("xi,vf,mode", [
        ("-0.5", "1", "full"), ("-0.5", "1", "paper-reduced"),
        ("5e-10", "0", "full"), ("5e-10", "0", "paper-reduced")])
    def test_start_past_the_domain_exit_exits_one(self, example2_path, xi,
                                                  vf, mode):
        # 5e-10 is inside (0, inf) but within the 1e-9 exit margin
        done = run_child(["geodesic", example2_path, f"--y={xi},0,0,0,0",
                          "--v", "1,0,0,0,0", "--vf", vf, "--mode", mode])
        assert done.returncode == 1
        assert done.stdout == b""
        err = done.stderr.decode()
        assert err.startswith("error: ") and "domain-exit" in err
        assert f"xi={float(xi)!r}" in err
        assert "Traceback" not in err


class TestExamples:
    def test_catalog_runs_clean(self, tmp_path):
        out_dir = tmp_path / "csv"
        code, stdout = run(["examples", "--grid", "60",
                            "--out-dir", str(out_dir)])
        assert code == 0
        for key in ("example-2", "example-3", "example-4", "example-5"):
            assert f"{key}: certified" in stdout
            assert (out_dir / f"{key}.csv").exists()
        assert "portrait" in stdout

    def test_verify_on_each_catalog_document_gives_its_verdict(self,
                                                              tmp_path):
        """A soliton entry's document, written as JSON and checked by
        `yamabe verify` on the entry's interval, gets the verdict that
        `yamabe examples` prints for the entry."""
        _, listing = run(["examples"])
        for key, entry in catalog().items():
            if entry.document is None:
                continue
            text = json.dumps(entry.document)
            assert json.loads(text) == entry.document
            path = tmp_path / f"{key}.json"
            path.write_text(text, encoding="utf-8")
            lo, hi = entry.certify_interval
            code, stdout = run(["verify", str(path), "--interval", repr(lo),
                                repr(hi), "--out", str(tmp_path / "r.json")])
            verdict = stdout.rsplit(": ", 1)[1].strip()
            assert f"{key}: {verdict} (max residual" in listing
            assert code == 0 and verdict == "certified"

    def test_log_env_smoke(self, doc_path, monkeypatch, capfd):
        monkeypatch.setenv("YAMABE_LOG", "debug")
        code, _ = run(["verify", doc_path])
        assert code == 0
        capfd.readouterr()     # drain whatever the solvers logged


def test_closed_stdout_exits_quietly():
    """``yamabe portrait | head -1``: the portrait's CSV (about 86 kB) is
    larger than a pipe's buffer, so the writer meets the closed pipe."""
    child = subprocess.Popen([sys.executable, "-m", "yamabe", "portrait"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=child_env())
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert first == b"xi,phi,dphi,status\n"
    assert err == b""
