"""CLI behavior: subcommands, formats, exit codes, golden corpus."""

import json
from pathlib import Path

import pytest

from sepclass import (ClassSpec, Series, basis_driven_gf, closed_form_gf,
                      enumerate_members, load_grid, refined_gf, verify)
from sepclass import bases, cli, theorems
from sepclass.cli import (golden_dir, golden_path, read_golden, run,
                          write_golden)

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*/*/coeffs_N25.json"))

P_ARGS = ["--class", "P", "--a", "1", "--b", "2", "--k", "2", "--r", "1"]


def ok(argv):
    code, out, err = run(argv)
    assert code == 0, err.decode()
    return out.decode()


class TestCountList:
    def test_count_plain(self):
        assert ok(["count", *P_ARGS, "--n", "7"]).strip() == "11"

    def test_count_matches_list_rows(self):
        listed = ok(["list", *P_ARGS, "--n", "7"]).strip().splitlines()
        assert len(listed) == 11

    def test_list_json(self):
        out = ok(["list", *P_ARGS, "--n", "3", "--format", "json"])
        data = json.loads(out)
        assert {tuple(d["parts"]) for d in data} == \
            {(3,), (2, 1), (1, 1, 1)}

    def test_list_csv_overpartitions(self):
        out = ok(["list", "--class", "Fr", "--r", "2", "--n", "4",
                  "--format", "csv"])
        rows = set(out.strip().splitlines())
        assert "3~,1~" in rows
        assert len(rows) == 8

    def test_negative_n(self):
        code, _, err = run(["count", *P_ARGS, "--n", "-1"])
        assert code == 2
        assert b"error" in err

    @pytest.mark.parametrize("cmd", ["count", "list"])
    def test_n_guardrail(self, cmd):
        code, _, err = run([cmd, "--class", "Fbar", "--n", "100000",
                            "--max-trunc", "10"])
        assert code == 2
        assert b"guardrail" in err

    @pytest.mark.parametrize("argv,spec", [
        (["--class", "Fbar"], ClassSpec("Fbar")),
        (P_ARGS, ClassSpec("P", a=1, b=2, k=2, r=1)),
        (["--class", "Lr", "--r", "2"], ClassSpec("Lr", r=2))])
    def test_count_matches_enumerate_members(self, argv, spec):
        assert int(ok(["count", *argv, "--n", "9"])) == \
            len(enumerate_members(spec, 9))


class TestBasis:
    def test_basis_csv(self):
        out = ok(["basis", "--class", "Fbar", "--parts", "4",
                  "--format", "csv"])
        rows = out.strip().splitlines()
        assert len(rows) == 8
        assert "1,1,1,1" in rows
        assert "3,2~,2,1~" in rows

    def test_bad_parts(self):
        code, _, _ = run(["basis", "--class", "Fbar", "--parts", "0"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        [*P_ARGS, "--parts", "1100", "--max-weight", "1100"],
        ["--class", "Fbar", "--parts", "3", "--max-weight", "-5"]])
    def test_parts_and_max_weight_guardrail(self, argv):
        code, out, err = run(["basis", *argv])
        assert code == 2
        assert out == b""
        assert b"error" in err

    def test_long_chains_need_no_recursion(self):
        out = ok(["basis", "--class", "Lbar", "--parts", "1100",
                  "--max-weight", "1100", "--max-trunc", "2000"])
        assert out.splitlines() == [
            "(" + ",".join(["1"] * 1100) + ")",
            "(" + ",".join(["1"] * 1099) + ",1~)"]

    def test_basis_walk_limit_is_inclusive(self, monkeypatch):
        chains = sum(1 for _ in bases._basis_walk(ClassSpec("Fbar"), 4))
        monkeypatch.setattr(cli, "ORACLE_MAX_MEMBERS", chains)
        assert len(ok(["basis", "--class", "Fbar", "--parts", "4"])
                   .splitlines()) == 8
        monkeypatch.setattr(cli, "ORACLE_MAX_MEMBERS", chains - 1)
        code, out, err = run(["basis", "--class", "Fbar", "--parts", "4"])
        assert code == 2
        assert out == b""
        assert f"Fbar for --parts 4 would visit more than its limit of " \
            f"{chains - 1} chains".encode() in err

    def test_long_basis_walk_refused(self):
        code, out, err = run(["basis", "--class", "Fbar", "--parts", "40"])
        assert code == 2
        assert out == b""
        assert f"Fbar for --parts 40 would visit more than its limit of " \
            f"{cli.ORACLE_MAX_MEMBERS} chains".encode() in err

    def test_gset_has_no_basis(self):
        code, _, err = run(["basis", "--class", "Gset", "--d", "1", "--k",
                            "2", "--r", "2", "--h", "1", "--s", "2",
                            "--parts", "2"])
        assert code == 2
        assert b"no basis" in err


class TestSeries:
    def test_routes_agree(self):
        outs = [ok(["series", *P_ARGS, "--trunc", "10",
                    "--route", route, "--format", "json"])
                for route in ("oracle", "basis", "closed")]
        series = [Series.from_json_dict(json.loads(o)) for o in outs]
        assert series[0] == series[1] == series[2]

    def test_csv_header_names_markers(self):
        out = ok(["series", *P_ARGS, "--trunc", "4", "--format", "csv"])
        assert out.splitlines()[0] == "q,mu,nu,coeff"

    def test_json_round_trip_stable(self):
        out = ok(["series", "--class", "Lbar", "--trunc", "8",
                  "--format", "json"])
        data = json.loads(out)
        s = Series.from_json_dict(data)
        assert s == refined_gf(ClassSpec("Lbar"), 8)
        assert s.to_json_dict() == data

    def test_trunc_guardrail(self):
        code, _, err = run(["series", *P_ARGS, "--trunc", "500"])
        assert code == 2
        assert b"guardrail" in err
        code, _, _ = run(["series", *P_ARGS, "--trunc", "210",
                          "--max-trunc", "250"])
        assert code == 0


class TestOracleCost:
    def test_long_listing_refused(self):
        code, out, err = run(["list", *P_ARGS, "--n", "80"])
        assert code == 2
        assert out == b""
        assert b"would visit 11817428 members" in err

    def test_count_not_limited(self):
        # 25928021918162330 members of weight <= 200, counted by the sweep
        count = int(ok(["count", "--class", "Fbar", "--n", "200"]))
        assert count == closed_form_gf(ClassSpec("Fbar"), 200) \
            .coefficient(200)

    def test_oracle_series_not_limited(self):
        out = ok(["series", "--class", "Fbar", "--route", "oracle",
                  "--trunc", "60", "--format", "json"])
        assert Series.from_json_dict(json.loads(out)) == \
            closed_form_gf(ClassSpec("Fbar"), 60)

    @pytest.mark.parametrize("argv", [
        ["--class", "R", "--a", "1", "--b", "2", "--c", "3", "--k", "3",
         "--trunc", "70"],
        ["--trunc", "60"]], ids=["R_a1_b2_c3_k3", "grid"])
    def test_verify_not_limited(self, argv):
        data = json.loads(ok(["verify", *argv, "--format", "json"]))
        reports = data if isinstance(data, list) else [data]
        assert [r["status"] for r in reports] == ["match"] * len(reports)

    def test_other_routes_not_limited(self):
        ok(["series", "--class", "Fbar", "--route", "closed",
            "--trunc", "60"])

    def test_limit_is_inclusive(self, monkeypatch):
        members = sum(closed_form_gf(ClassSpec("P", a=1, b=2, k=2, r=1),
                                     7).terms.values())
        monkeypatch.setattr(cli, "ORACLE_MAX_MEMBERS", members)
        assert len(ok(["list", *P_ARGS, "--n", "7"]).splitlines()) == 11
        monkeypatch.setattr(cli, "ORACLE_MAX_MEMBERS", members - 1)
        code, _, err = run(["list", *P_ARGS, "--n", "7"])
        assert code == 2
        assert f"would visit {members} members".encode() in err

    def test_verify_builds_the_closed_route_once(self, monkeypatch):
        calls = []

        def counted(spec, trunc, theorem_id=None):
            calls.append(spec.label())
            return closed_form_gf(spec, trunc, theorem_id)
        monkeypatch.setattr(cli, "closed_form_gf", counted)
        monkeypatch.setattr(theorems, "closed_form_gf", counted)
        ok(["verify", "--class", "Fbar", "--trunc", "10"])
        assert calls == ["Fbar"]

    def test_builtin_grid_within_limit(self):
        _, specs = load_grid()
        assert max(sum(closed_form_gf(spec, 25).terms.values())
                   for spec in specs) <= cli.ORACLE_MAX_MEMBERS


class TestDecompose:
    def test_partition(self):
        out = ok(["decompose", *P_ARGS, "--obj", "[5,2]",
                  "--format", "json"])
        data = json.loads(out)
        assert data["basis"]["parts"] == [3, 2]
        assert data["padding"] == [2, 0]

    def test_overpartition(self):
        obj = json.dumps({"parts": [{"m": 3, "over": True},
                                    {"m": 1, "over": False}]})
        out = ok(["decompose", "--class", "Fbar", "--obj", obj,
                  "--format", "json"])
        data = json.loads(out)
        assert data["padding"] == [2, 0]

    def test_nonmember_is_exit_2(self):
        code, _, err = run(["decompose", *P_ARGS, "--obj", "[2,2]"])
        assert code == 2
        assert b"error" in err

    def test_bad_json(self):
        code, _, _ = run(["decompose", *P_ARGS, "--obj", "not json"])
        assert code == 2


class TestArgErrors:
    def test_missing_class(self):
        code, _, err = run(["count", "--n", "3"])
        assert code == 2

    def test_incomplete_spec(self):
        code, _, _ = run(["count", "--class", "P", "--a", "1", "--n", "3"])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2

    def test_parameter_the_class_does_not_use(self):
        code, _, err = run(["series", "--class", "Fbar", "--r", "3",
                            "--a", "9", "--trunc", "5"])
        assert code == 2
        assert b"takes no parameter" in err

    def test_unexpected_exception_is_exit_3(self, monkeypatch):
        def broken(spec, trunc):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "closed_form_gf", broken)
        code, _, err = run(["series", "--class", "Fbar", "--trunc", "5"])
        assert code == 3
        assert err.startswith(b"internal error:")
        assert b"boom" in err


class TestVerifyCmd:
    def test_single_spec(self):
        out = ok(["verify", *P_ARGS, "--trunc", "10"])
        assert out.startswith("MATCH")

    def test_json_report(self):
        out = ok(["verify", "--class", "Fbar", "--trunc", "8",
                  "--format", "json"])
        data = json.loads(out)
        assert data["status"] == "match"
        assert data["routes"] == ["oracle", "basis", "closed"]

    def test_report_gives_route_time_and_terms(self):
        terms = len(refined_gf(ClassSpec("Fbar"), 8).terms)
        data = json.loads(ok(["verify", "--class", "Fbar", "--trunc", "8",
                              "--format", "json"]))
        assert list(data["route_elapsed_ms"]) == data["routes"]
        assert all(ms >= 0 for ms in data["route_elapsed_ms"].values())
        assert data["route_terms"] == dict.fromkeys(data["routes"], terms)
        line = ok(["verify", "--class", "Fbar", "--trunc", "8"])
        assert " route_ms=oracle:" in line
        assert f" terms=oracle:{terms},basis:{terms},closed:{terms}" in line

    def test_custom_grid(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"trunc": 6, "specs": [
            {"class": "Fbar"}, {"class": "Lr", "r": 2}]}))
        out = ok(["verify", "--grid", str(grid)])
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("MATCH") for line in lines)

    def test_missing_grid_file(self, tmp_path):
        code, _, err = run(["verify", "--grid", str(tmp_path / "none.json")])
        assert code == 2
        assert b"cannot load grid" in err

    @pytest.mark.parametrize("text", [
        "{not json", json.dumps({"specs": [{"class": "Fbar"}]}),
        json.dumps({"trunc": 6}), json.dumps([1, 2]),
        json.dumps({"trunc": 6, "specs": [{"class": "Fbar", "q": 1}]}),
    ], ids=["syntax", "no-trunc", "no-specs", "not-an-object",
            "unknown-field"])
    def test_malformed_grid_file(self, tmp_path, text):
        grid = tmp_path / "grid.json"
        grid.write_text(text)
        code, _, err = run(["verify", "--grid", str(grid)])
        assert code == 2
        assert b"cannot load grid" in err


class TestIdentityCmd:
    def test_match(self):
        out = ok(["identity", "--id", "cauchy1", "--s", "3",
                  "--trunc", "15"])
        assert out.startswith("MATCH")

    def test_qbinom_flags(self):
        out = ok(["identity", "--id", "qbinom-recurrence", "--A", "6",
                  "--B", "2", "--k", "2", "--trunc", "20"])
        assert out.startswith("MATCH")

    def test_unknown_id(self):
        code, _, _ = run(["identity", "--id", "nope", "--trunc", "5"])
        assert code == 2

    def test_missing_param(self):
        code, _, _ = run(["identity", "--id", "cauchy1", "--trunc", "5"])
        assert code == 2


class TestOutFlag:
    def test_writes_file_and_silences_stdout(self, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(["count", *P_ARGS, "--n", "7",
                            "--out", str(target)])
        assert code == 0
        assert out == b""
        assert target.read_text().strip() == "11"

    def test_unwritable_target_is_exit_2(self, tmp_path):
        code, _, err = run(["count", *P_ARGS, "--n", "7",
                            "--out", str(tmp_path / "no" / "out.txt")])
        assert code == 2
        assert b"cannot write" in err


class TestGolden:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPCLASS_GOLDEN_DIR", str(tmp_path))
        assert golden_dir() == tmp_path

    def test_bless_then_compare(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPCLASS_GOLDEN_DIR", str(tmp_path))
        spec = ClassSpec("Fbar")
        code, _, _ = run(["verify", "--class", "Fbar", "--trunc", "8",
                          "--bless"])
        assert code == 0
        path = golden_path(spec, 8)
        assert path.exists()
        assert read_golden(spec, 8) == refined_gf(spec, 8)

    def test_bless_runs_the_oracle_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPCLASS_GOLDEN_DIR", str(tmp_path))
        calls = []

        def counted(spec, trunc):
            calls.append((spec, trunc))
            return refined_gf(spec, trunc)
        monkeypatch.setattr(theorems, "refined_gf", counted)
        monkeypatch.setattr(cli, "refined_gf", counted)
        code, out, _ = run(["verify", "--class", "Fbar", "--trunc", "8",
                            "--bless", "--format", "json"])
        assert code == 0
        assert calls == [(ClassSpec("Fbar"), 8)]
        assert read_golden(ClassSpec("Fbar"), 8) == refined_gf(
            ClassSpec("Fbar"), 8)
        report = json.loads(out)
        expected = verify(ClassSpec("Fbar"), 8).to_json_dict()
        del report["elapsed_ms"], expected["elapsed_ms"]
        del report["route_elapsed_ms"], expected["route_elapsed_ms"]
        assert report == expected

    def test_default_dir_is_the_checkout_corpus(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv("SEPCLASS_GOLDEN_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert golden_dir() == GOLDEN
        spec = ClassSpec("Fbar")
        assert golden_path(spec, 25) == GOLDEN / "Fbar" / "Fbar" / \
            "coeffs_N25.json"
        assert read_golden(spec, 25).trunc == 25

    def test_corruption_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPCLASS_GOLDEN_DIR", str(tmp_path))
        spec = ClassSpec("Fbar")
        write_golden(spec, 8, refined_gf(spec, 8))
        path = golden_path(spec, 8)
        data = json.loads(path.read_text())
        data["series"]["terms"][0]["coeff"] = "99"
        path.write_text(json.dumps(data))
        assert read_golden(spec, 8) != refined_gf(spec, 8)

    def test_checked_in_corpus_current(self):
        # spot-check two blessed files against a fresh enumeration
        for spec in (ClassSpec("P", a=1, b=2, k=2, r=1), ClassSpec("Lbar")):
            assert read_golden(spec, 25) == refined_gf(spec, 25)

    @pytest.mark.parametrize("path", GOLDEN_FILES,
                             ids=lambda p: p.parent.name)
    def test_corpus_locks_basis_and_closed_routes(self, path):
        spec = ClassSpec.from_json_dict(json.loads(path.read_text())["spec"])
        assert golden_path(spec, 25, GOLDEN) == path
        golden = read_golden(spec, 25, GOLDEN)
        assert golden == basis_driven_gf(spec, 25) == closed_form_gf(spec, 25)

    def test_corpus_covers_the_grid(self):
        _, specs = load_grid()
        assert sorted(golden_path(s, 25, GOLDEN) for s in specs) == \
            GOLDEN_FILES
