from __future__ import annotations

import collections
import json
import random

import pytest

from gqbench import checks, workloads


def _keys(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    pool = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), str(workdir))
    return [(op.kind, op.key) for op in pool.ops]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = _keys(workload, 7, tmp_path)
    assert first == _keys(workload, 7, tmp_path)
    assert first != _keys(workload, 8, tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_strata_do_not_depend_on_the_seed(workload, tmp_path):
    kinds = [collections.Counter(kind for kind, _ in _keys(workload, seed, tmp_path))
             for seed in (1, 2)]
    assert kinds[0] == kinds[1]


def test_family_parameters_are_squarefree_and_avoid_minus_one():
    rng = random.Random(3)
    for degree in workloads.FAMILY_DEGREES:
        phi = workloads.random_phi(rng, degree)
        assert phi.total_degree() == degree
        assert phi.terms.get((0,), 0) != -1
    assert workloads.is_squarefree([-1, 0, 1])        # t^2 - 1
    assert not workloads.is_squarefree([1, 2, 1])     # (t + 1)^2


def test_uncertified_strata_restrictions(tmp_path):
    """Planted members vanish at a zero-weight axis point; the others have no real zero."""
    rng = random.Random(5)
    spec = workloads.RepSpec((2, 2))
    generators = workloads.kernel_generators(spec, 2)
    positive = workloads.positive_coordinates(spec)
    for planted, slot in ((True, 0), (True, 5), (False, 0)):
        f = workloads.uncertified_polynomial(rng, spec, generators, planted, slot)
        restriction = checks.restrict_zero(f.terms, spec.coord_names, positive)
        assert any(sum(e) > 0 for e in restriction)
        axis_zero = any(
            checks.evaluate(restriction, spec.coord_names,
                            {**{n: 0 for n in spec.coord_names}, name: value}) == 0
            for name in ("w1", "w4") for value in workloads.PLANT_VALUES)
        assert axis_zero == planted


def test_cli_jobs_cover_all_six_commands(tmp_path):
    pool = workloads.build_cli_jobs(random.Random(1), str(tmp_path))
    commands = set()
    for op in pool.ops:
        if op.key.startswith("{"):
            commands.add(json.loads(op.key)["command"])
        elif "--command" in op.key:
            commands.add(op.key.split("--command ")[1].split()[0])
        else:
            commands.add("classify")
    assert commands == {"classify", "invariants", "transfer", "slice", "family-compare", "selftest"}
