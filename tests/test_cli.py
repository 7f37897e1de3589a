from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaquot.cli import COMMANDS, SCHEMA, main
from gaquot.expr import parse
from gaquot.fixtures import all_named_fixtures, fixture, job_for


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
            capsys, "--fixture", "winkelmann", "--slice-deg", "1", "--inv-deg", "3"
        )
        assert data["bounds"] == {"sliceDeg": 1, "invariantDeg": 3}

    def test_no_power_bound_flag(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--fixture", "winkelmann", "--kmax", "2"])
        assert raised.value.code == 2
        assert "--kmax" in capsys.readouterr().err


class TestTextReports:
    def test_evidence_chain_lines(self, capsys):
        code, out, _ = _run(capsys, "--fixture", "winkelmann", "--format", "text")
        assert code == 10
        lines = out.splitlines()
        assert lines[0] == "verdict: StrictlyQuasiAffine"
        assert any(line.startswith("certificate restriction:") for line in lines)
        assert any(line.startswith("boundary class:") for line in lines)
        assert not any(line.startswith("slice:") for line in lines)  # no slice exists to look for
        assert any(line.startswith("citation:") for line in lines)
        code, out, _ = _run(capsys, "--fixture", "affine-slice", "--format", "text")
        assert code == 0
        assert "slice: z1" in out.splitlines()

    def test_oversized_slice_bound_finishes(self, capsys):
        # the slice system has only the columns of image weight 0 on the graph's grading
        code, out, _ = _run(
            capsys, "--fixture", "family-phi(t^5 - 3*t)", "--command", "slice", "--slice-deg", "18",
            "--format", "text",
        )
        assert code == 0
        assert "slice: none up to degree 18" in out.splitlines()

    def test_graph_only_job_is_affine_by_its_slice(self, tmp_path, capsys):
        job = job_for(fixture("affine-slice"))
        del job["polynomial"]
        job_path = tmp_path / "graph-only.json"
        job_path.write_text(json.dumps(job))
        code, data = _run_json(capsys, "--job", str(job_path))
        assert code == 0
        assert data["verdict"] == "Affine"
        assert data["slice"] == {"degreeBound": 3, "found": "z1"}
        assert data["crosschecks"] == [["slice-agreement", True]]
        assert data["certificate"] == {"restriction": "-1", "certified": True}
        assert data["notes"] == []

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

    @pytest.mark.parametrize("name", ["winkelmann", "sl2-in-v2", "family-phi(t^2 - 2)"])
    def test_transfer_fields_match_the_classify_report(self, capsys, name):
        _, report = _run_json(capsys, "--fixture", name)
        _, data = _run_json(capsys, "--fixture", name, "--command", "transfer")
        for envelope in ("bounds", "schema", "command", "citations"):
            del data[envelope]
        assert data == report["transfer"]

    def test_slice_fields_match_the_classify_report(self, capsys):
        _, report = _run_json(capsys, "--fixture", "affine-slice")
        _, data = _run_json(capsys, "--fixture", "affine-slice", "--command", "slice")
        assert {key: data[key] for key in ("found", "degreeBound")} == report["slice"]

    def test_selftest_standalone(self, capsys):
        code, out, _ = _run(capsys, "--command", "selftest")
        assert code == 0
        assert "selftest: pass" in out

    def test_bare_invocation_is_an_error(self, capsys):
        code, _, err = _run(capsys)
        assert code == 1
        assert "selftest" in err

    def test_parser_reused_across_calls(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--bogus"])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert "unrecognized arguments: --bogus" in errors[0]
        assert errors[0] == errors[1]
        code, out, err = _run(capsys, "--fixture", "winkelmann")
        assert code == 10 and out and err == ""


class TestBoundedMisses:
    """A route that misses within its bound leaves a note, never a ``false`` crosscheck."""

    def test_selftest_passes_at_zero_bound(self, capsys):
        code, data = _run_json(capsys, "--command", "selftest", "--slice-deg", "0")
        assert code == 0
        assert data["passed"] and all(ok for _, ok in data["checks"])

    def test_affine_fixture_at_zero_bounds(self, capsys):
        code, data = _run_json(capsys, "--fixture", "affine-slice", "--slice-deg", "0")
        assert code == 0
        assert data["verdict"] == "Affine"
        assert data["slice"] == {"degreeBound": 0, "found": "z1"}  # the ladder slice has no degree bound
        assert data["crosschecks"] == [["graph-lies-on-hypersurface", True], ["slice-agreement", True]]
        assert data["notes"] == []


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
        # a bound key the program no longer reads (kmax) is ignored
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps({**self.WINKELMANN, "bounds": {"kmax": 0, "sliceDeg": 0}}))
        code, _, _ = _run(capsys, "--job", str(job_path))
        assert code == 10

    def test_non_string_polynomial(self, tmp_path, capsys):
        assert "polynomial" in self._run_job(tmp_path, capsys, polynomial=5)

    def test_non_object_representation(self, tmp_path, capsys):
        assert "representation" in self._run_job(tmp_path, capsys, representation="V")

    def test_negative_bounds(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, bounds={"sliceDeg": -1, "invariantDeg": -2})
        assert "bounds.sliceDeg" in err
        err = self._run_job(tmp_path, capsys, bounds={"invariantDeg": -2})
        assert "bounds.invariantDeg" in err

    def test_slash_outside_a_literal(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, polynomial="w2*w5 - w3*w4 - (w0/2) + 1")
        assert err == "error: '/' is only allowed inside rational literals (at position 19)\n"

    def test_non_ascii_digit(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, polynomial="w0^\u00b2")
        assert err == "error: unexpected character '\u00b2' (at position 3)\n"

    @pytest.mark.parametrize("value", [2.7, True, "2", None])
    def test_non_integer_bounds(self, tmp_path, capsys, value):
        err = self._run_job(tmp_path, capsys, bounds={"sliceDeg": 1, "invariantDeg": value})
        assert "bounds.invariantDeg" in err

    @pytest.mark.parametrize("value", [0, [], False, "", None])
    def test_non_object_bounds(self, tmp_path, capsys, value):
        assert "bounds must be an object" in self._run_job(tmp_path, capsys, bounds=value)

    def test_over_cap_polynomial(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, polynomial="(w0+w1+w2+w3+w4+w5)^30")
        assert "cap" in err

    @pytest.mark.parametrize("command", ["classify", "transfer"])
    def test_nested_powers_of_a_variable(self, tmp_path, capsys, command):
        polynomial = "w0"
        for _ in range(10):
            polynomial = f"({polynomial})^100"
        err = self._run_job(tmp_path, capsys, command=command, representation={"blocks": [{"vblock": 3}]},
                            polynomial=polynomial)
        assert err == "error: exponent 100000000000000000000 is too large for the packed Leibniz kernel\n"

    def test_nested_powers_of_a_constant(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, representation={"blocks": [{"vblock": 3}]},
                            polynomial="((((2^100)^100)^100)^100)^100")
        assert err == "error: coefficient power of up to 100000100 bits exceeds the cap of 1048576 bits (at position 21)\n"

    def test_deeply_nested_polynomial(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, polynomial="(" * 250 + "w0" + ")" * 250)
        assert err == "error: parentheses nested deeper than the cap of 100 (at position 100)\n"

    def test_deeply_nested_job_document(self, tmp_path, capsys):
        job_path = tmp_path / "job.json"
        job_path.write_text("[" * 1000 + "]" * 1000)
        code, out, err = _run(capsys, "--job", str(job_path))
        assert (code, out, err) == (1, "", "error: job document is nested too deeply\n")

    @pytest.mark.parametrize("blocks", [
        [{"sym": 799}],
        [{"sym": 64}],
        [{"vblock": 10 ** 12}],
        [{"vblock": 10 ** 12}, {"sym": -2 * 10 ** 12}],
    ])
    def test_over_sized_representation(self, tmp_path, capsys, blocks):
        err = self._run_job(tmp_path, capsys, representation={"blocks": blocks})
        assert "coordinates, above the cap of 64" in err

    def test_graph_one_component_of_the_zero_set(self, tmp_path, capsys):
        # winkelmann's f times the invariant w2 vanishes on its graph, which is only one component of V(f*w2)
        job = job_for(fixture("winkelmann"))
        err = self._run_job(tmp_path, capsys, polynomial="(w2*w5 - w3*w4 - w0 + 1)*w2", graph=job["graph"])
        assert err == ("error: polynomial vanishes on the graph w0 = z2*z5 - z3*z4 + 1 but is not a scalar "
                       "multiple of its equation; the graph is only one component of V(f)\n")

    def test_over_sized_slice_degree(self, capsys):
        code, out, err = _run(capsys, "--fixture", "family-phi(t^5 - 3*t)", "--command", "slice",
                              "--slice-deg", "40", "--format", "text")
        assert (code, out) == (1, "")
        assert err == "error: slice degree 40 has 1221758 candidates in 5 variables, above the cap of 50000\n"

    def test_over_sized_invariant_degree(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, command="invariants",
                            representation={"blocks": [{"sym": 4}, {"vblock": 2}]}, bounds={"invariantDeg": 40})
        assert err == "error: invariant degree 40 has 377348994 monomials in 9 variables, above the cap of 50000\n"

    @pytest.mark.parametrize("blocks, i", [
        ([{"sym": 1, "vblock": 40}], 0),
        ([{"sym": 1, "vblock": 2}], 0),
        ([{"sym": 1}, {}], 1),
        ([{"vblock": 2, "normalization": "unit"}, {"coordinates": ["a"]}], 1),
    ])
    def test_block_names_exactly_one_key(self, tmp_path, capsys, blocks, i):
        err = self._run_job(tmp_path, capsys, representation={"blocks": blocks})
        assert err.startswith(f"error: representation.blocks[{i}] must name exactly one of 'sym' and 'vblock', got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("block, message", [
        pytest.param({"vblock": 0}, "vblock must be positive, got 0", id="vblock=0"),
        pytest.param({"vblock": -2}, "vblock must be positive, got -2", id="vblock=-2"),
        pytest.param({"sym": -1}, "sym must be non-negative, got -1", id="sym=-1"),
    ])
    def test_out_of_range_block(self, tmp_path, capsys, block, message):
        err = self._run_job(tmp_path, capsys, representation={"blocks": [{"vblock": 2}, block]})
        assert err == f"error: representation.blocks[1].{message}\n"

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], ["a", "b", "a", "c", "d", "e"]])
    def test_coordinate_names_of_the_wrong_number_or_repeated(self, tmp_path, capsys, names):
        err = self._run_job(tmp_path, capsys, representation={"blocks": [{"vblock": 3}], "coordinates": names})
        assert err == f"error: representation.coordinates: need 6 distinct coordinate names, got {tuple(names)!r}\n"

    def test_empty_blocks(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, representation={"blocks": []})
        assert err == "error: representation needs at least one block, got an empty 'blocks' list\n"

    def test_unknown_output(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, output="yaml")
        assert "output" in err and "yaml" in err

    GRAPH = {"zvars": ["z0"], "free": {"w0": "z0"}, "dependent": {}}

    def test_polynomial_off_the_graph(self, tmp_path, capsys):
        fx = fixture("winkelmann")
        job = job_for(fx)
        err = self._run_job(tmp_path, capsys, polynomial=str(fx.f + parse("w0", fx.spec.coord_names)),
                            graph=job["graph"])
        assert err == "error: polynomial does not vanish on the graph; residue z2*z5 - z3*z4 + 1\n"

    def test_non_list_zvars(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, graph={**self.GRAPH, "zvars": 5})
        assert "graph.zvars" in err

    def test_non_object_graph(self, tmp_path, capsys):
        assert "graph" in self._run_job(tmp_path, capsys, graph=["z0"])

    def test_non_object_free(self, tmp_path, capsys):
        assert "graph.free" in self._run_job(tmp_path, capsys, graph={**self.GRAPH, "free": 5})

    def test_non_string_free_value(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, graph={**self.GRAPH, "free": {"w0": 5, "w1": "z0"}})
        assert "graph.free" in err

    def test_non_object_dependent(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, graph={**self.GRAPH, "dependent": []})
        assert "graph.dependent" in err

    def test_overlapping_split(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, graph={**self.GRAPH, "dependent": {"w0": "z0"}})
        assert err == "error: graph must split the ambient coordinates into free and dependent\n"

    def test_non_list_citations(self, tmp_path, capsys):
        assert "citations" in self._run_job(tmp_path, capsys, citations=5)

    def test_non_string_citation(self, tmp_path, capsys):
        assert "citations" in self._run_job(tmp_path, capsys, citations=["a", 5])

    def test_non_string_command(self, tmp_path, capsys):
        assert "command" in self._run_job(tmp_path, capsys, command=["classify"])

    def test_non_integer_block(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, representation={"blocks": [{"sym": [1]}]})
        assert "representation.blocks[0].sym" in err
        err = self._run_job(tmp_path, capsys, representation={"blocks": [{"vblock": None}]})
        assert "representation.blocks[0].vblock" in err

    def test_non_list_coordinates(self, tmp_path, capsys):
        err = self._run_job(
            tmp_path, capsys, representation={"blocks": [{"sym": 1}], "coordinates": None}
        )
        assert "representation.coordinates" in err

    def test_non_string_delta(self, tmp_path, capsys):
        err = self._run_job(
            tmp_path, capsys, command="family-compare", delta=["minor[1,2]"], parameters=["t", "t^2"]
        )
        assert "delta" in err

    def test_parameter_above_degree_cap(self, tmp_path, capsys):
        err = self._run_job(
            tmp_path, capsys, command="family-compare", delta="minor[1,2]",
            parameters=["t^2 - 2", "(t^100 + 1)*(t^100 - 3) + 1"],
        )
        assert err == "error: family parameter has degree 200, above the cap of 100\n"

    def test_non_invariant_transfer(self, tmp_path, capsys):
        err = self._run_job(tmp_path, capsys, command="transfer", polynomial="w1^2")
        assert err == "error: term of E^0(f) needs v^-2; input is not invariant\n"

    def test_unknown_delta(self, tmp_path, capsys):
        err = self._run_job(
            tmp_path, capsys, command="family-compare", delta="no-such-invariant",
            parameters=["t", "t^2 - 1"],
        )
        assert "unknown catalog invariant 'no-such-invariant'" in err


# Small JSON values of every type, for fields given the wrong type.
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2, max_value=3),
        st.sampled_from(["", "x", "w0", "t", "2/3"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2),
        st.dictionaries(st.sampled_from(["a", "w0", "z0", "sym", "vblock"]), inner, max_size=2),
    ),
    max_leaves=4,
)
_expressions = st.text(alphabet="w0123t+-*^/() ", max_size=8)
_small_ints = st.integers(min_value=-2, max_value=3)
_names = st.sampled_from(["w0", "w1", "w2", "z0", "z1"])
_blocks = st.lists(
    st.fixed_dictionaries(
        {}, optional={"sym": st.one_of(_small_ints, _json_values), "vblock": _small_ints}
    ),
    max_size=2,
)
_graphs = st.fixed_dictionaries(
    {},
    optional={
        "zvars": st.lists(_names, max_size=2),
        "free": st.dictionaries(_names, _names, max_size=2),
        "dependent": st.dictionaries(_names, _expressions, max_size=2),
    },
)
_FIELDS = {
    "command": st.sampled_from(COMMANDS + ("dance",)),
    "representation": st.fixed_dictionaries(
        {"blocks": _blocks},
        optional={
            "normalization": st.sampled_from(["section5", "unit", "other"]),
            "coordinates": st.lists(_names, max_size=3),
        },
    ),
    "polynomial": _expressions,
    "graph": _graphs,
    "bounds": st.dictionaries(
        st.sampled_from(["sliceDeg", "invariantDeg"]), _small_ints, max_size=2
    ),
    "output": st.sampled_from(["text", "structured", "yaml"]),
    "citations": st.lists(st.sampled_from(["a", "b"]), max_size=2),
    "delta": st.sampled_from(["minor[1,2]", "x"]),
    "parameters": st.lists(_expressions, max_size=3),
}
_BASE_JOBS = [job_for(fx) for fx in all_named_fixtures()] + [
    {
        "command": "family-compare",
        "representation": {"blocks": [{"vblock": 3}]},
        "delta": "minor[1,2]",
        "parameters": ["t", "t^2 - 1"],
    }
]
# One or two fields of a valid job replaced by a well-typed or a wrongly
# typed value, or a job assembled from scratch.
_changes = st.lists(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: st.one_of(_FIELDS[key], _json_values) for key in keys}
    )
)
_jobs = st.one_of(
    st.builds(lambda base, changes: {**base, **changes}, st.sampled_from(_BASE_JOBS), _changes),
    st.fixed_dictionaries({}, optional=_FIELDS),
)


class TestJobFuzz:
    @settings(max_examples=150)
    @given(_jobs)
    def test_exit_code_is_always_defined(self, tmp_path, capsys, job):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(job))
        code, out, err = _run(capsys, "--job", str(job_path))
        assert code in {0, 1, 10, 20, 30}
        # a failing selftest also exits 1, with its report and no error line
        assert err == "" or (code == 1 and out == "" and err.startswith("error:"))
