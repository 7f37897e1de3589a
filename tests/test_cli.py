from __future__ import annotations

import json

import pytest

from gaquot.cli import SCHEMA, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "structured")
    assert err == ""
    return code, json.loads(out)


class TestExitCodes:
    def test_affine_is_zero(self, capsys):
        code, _, _ = _run(capsys, "--fixture", "affine-slice")
        assert code == 0

    def test_strictly_quasi_affine_is_ten(self, capsys):
        code, _, _ = _run(capsys, "--fixture", "winkelmann")
        assert code == 10

    def test_not_everywhere_stable_is_twenty(self, capsys):
        code, _, _ = _run(capsys, "--fixture", "deveney-finston")
        assert code == 20

    def test_input_error_is_one(self, capsys):
        code, out, err = _run(capsys, "--fixture", "no-such-example")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestStructuredReports:
    def test_schema_and_verdict(self, capsys):
        code, data = _run_json(capsys, "--fixture", "winkelmann")
        assert code == 10
        assert data["schema"] == SCHEMA
        assert data["command"] == "classify"
        assert data["verdict"] == "StrictlyQuasiAffine"
        assert data["transfer"]["boundary"] == "Intersects"
        assert data["citations"]

    def test_byte_identical_between_runs(self, capsys):
        _, first, _ = _run(capsys, "--fixture", "winkelmann")
        _, second, _ = _run(capsys, "--fixture", "winkelmann")
        assert first == second

    def test_bound_flags_are_echoed(self, capsys):
        _, data = _run_json(
            capsys, "--fixture", "winkelmann", "--kmax", "2", "--slice-deg", "1", "--inv-deg", "3"
        )
        assert data["bounds"] == {"kmax": 2, "sliceDeg": 1, "invariantDeg": 3}


class TestTextReports:
    def test_evidence_chain_lines(self, capsys):
        code, out, _ = _run(capsys, "--fixture", "winkelmann", "--format", "text")
        assert code == 10
        lines = out.splitlines()
        assert lines[0] == "verdict: StrictlyQuasiAffine"
        assert any(line.startswith("certificate restriction:") for line in lines)
        assert any(line.startswith("boundary class:") for line in lines)
        assert any(line.startswith("slice:") for line in lines)
        assert any(line.startswith("citation:") for line in lines)

    def test_witness_lines_for_unstable_case(self, capsys):
        _, out, _ = _run(capsys, "--fixture", "deveney-finston", "--format", "text")
        assert "unstable witness subspace: w1 = 0, w3 = 0" in out
        assert "w7=1" in out


class TestCommands:
    def test_invariants(self, capsys):
        code, data = _run_json(capsys, "--fixture", "winkelmann", "--command", "invariants")
        assert code == 0
        assert data["generators"] == [
            "w0",
            "w2",
            "w4",
            "w0*w3 - w1*w2",
            "w0*w5 - w1*w4",
            "w2*w5 - w3*w4",
        ]

    def test_transfer(self, capsys):
        _, data = _run_json(capsys, "--fixture", "winkelmann", "--command", "transfer")
        assert data["extension"] == "u*w1 - v*w0 + w2*w5 - w3*w4 + 1"
        assert data["f00"] == "w2*w5 - w3*w4 + 1"
        assert data["boundary"] == "Intersects"

    def test_slice(self, capsys):
        _, data = _run_json(capsys, "--fixture", "affine-slice", "--command", "slice")
        assert data["found"] == "z1"
        _, data = _run_json(capsys, "--fixture", "winkelmann", "--command", "slice")
        assert data["found"] is None
        assert data["degreeBound"] == 3

    def test_selftest_standalone(self, capsys):
        code, out, _ = _run(capsys, "--command", "selftest")
        assert code == 0
        assert "selftest: pass" in out

    def test_bare_invocation_is_an_error(self, capsys):
        code, _, err = _run(capsys)
        assert code == 1
        assert "selftest" in err


class TestJobFiles:
    def test_export_then_run(self, tmp_path, capsys):
        code, out, _ = _run(capsys, "--fixture", "winkelmann", "--export-job")
        assert code == 0
        job_path = tmp_path / "job.json"
        job_path.write_text(out)
        exported = json.loads(out)
        assert exported["command"] == "classify"
        code, data = _run_json(capsys, "--job", str(job_path))
        assert code == 10
        assert data["verdict"] == "StrictlyQuasiAffine"

    def test_family_compare_job(self, tmp_path, capsys):
        job = {
            "command": "family-compare",
            "representation": {"blocks": [{"vblock": 3}], "normalization": "section5"},
            "delta": "minor[1,2]",
            "parameters": ["t", "t^2 - 1"],
        }
        job_path = tmp_path / "family.json"
        job_path.write_text(json.dumps(job))
        code, data = _run_json(capsys, "--job", str(job_path))
        assert code == 0
        assert data["outcome"] == "NonIsomorphicBoundaryCounts"
        assert data["counts"] == [1, 2]

    def test_malformed_polynomial_in_job(self, tmp_path, capsys):
        job = {
            "command": "classify",
            "representation": {"blocks": [{"sym": 1}]},
            "polynomial": "1 - w0 +",
        }
        job_path = tmp_path / "bad.json"
        job_path.write_text(json.dumps(job))
        code, _, err = _run(capsys, "--job", str(job_path))
        assert code == 1
        assert "position" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "--job", "/no/such/file.json")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_command_in_job(self, tmp_path, capsys):
        job_path = tmp_path / "odd.json"
        job_path.write_text(json.dumps({"command": "dance"}))
        code, _, err = _run(capsys, "--job", str(job_path))
        assert code == 1
        assert "dance" in err


class TestMalformedJobs:
    """Each fault ends with exit 1 and an ``error:`` line naming the field."""

    WINKELMANN = {
        "command": "classify",
        "representation": {"blocks": [{"vblock": 3}], "normalization": "section5"},
        "polynomial": "w2*w5 - w3*w4 - w0 + 1",
    }

    def _run_job(self, tmp_path, capsys, **changes):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps({**self.WINKELMANN, **changes}))
        code, out, err = _run(capsys, "--job", str(job_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        return err

    def test_valid_job_still_runs(self, tmp_path, capsys):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps({**self.WINKELMANN, "bounds": {"kmax": 0, "sliceDeg": 0}}))
        code, _, _ = _run(capsys, "--job", str(job_path))
        assert code == 10

    def test_non_string_polynomial(self, tmp_path, capsys):
        assert "polynomial" in self._run_job(tmp_path, capsys, polynomial=5)

    def test_non_object_representation(self, tmp_path, capsys):
        assert "representation" in self._run_job(tmp_path, capsys, representation="V")

    def test_negative_bounds(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, bounds={"kmax": -2, "sliceDeg": -1})
        assert "bounds.kmax" in err
        err = self._run_job(tmp_path, capsys, bounds={"sliceDeg": -1})
        assert "bounds.sliceDeg" in err

    def test_over_cap_polynomial(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, polynomial="(w0+w1+w2+w3+w4+w5)^30")
        assert "cap" in err

    def test_unknown_output(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, output="yaml")
        assert "output" in err and "yaml" in err
