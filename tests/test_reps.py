from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaquot.derivations import Derivation, apply, weight_components
from gaquot.errors import ConstructionFailure, UnsupportedBlock
from gaquot.expr import parse
from gaquot import reps
from gaquot.poly import Poly
from gaquot.reps import (
    NORMALIZATIONS,
    RepSpec,
    build_derivation,
    catalog_invariants,
    group_substitution,
    nonstable_coordinates,
    sl2_triple,
    spec_from_blocks,
    spec_to_blocks,
)
from gaquot.transfer import extended_spec

from dense_oracle import _determinant, _discriminant

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from gqbench.workloads import WORKLOADS  # noqa: E402


def _pool_summands():
    """The summands of every spec the benchmark workloads build, in first-seen order."""
    summands = {}
    with tempfile.TemporaryDirectory(prefix="gaquot-pools-") as workdir:
        for workload, build in WORKLOADS.items():
            for spec in build(random.Random(f"{workload}:1"), workdir).specs:
                summands[spec.summands] = None
    return list(summands)


POOL_SUMMANDS = _pool_summands()

SMALL_SPECS = [
    RepSpec((1,)),
    RepSpec((2,)),
    RepSpec((3,)),
    RepSpec((1, 1)),
    RepSpec((1, 1, 1)),
    RepSpec((1, 3)),
    RepSpec((2,), "unit"),
    RepSpec((3,), "unit"),
    RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9))),
]


class TestRepSpec:
    def test_dimension_and_coords(self):
        spec = RepSpec((1, 2))
        assert spec.dim == 5
        assert spec.coords == ("w0", "w1", "w2", "w3", "w4")

    def test_custom_coordinate_names(self):
        spec = RepSpec((1,), "unit", ("a", "b"))
        assert spec.coords == ("a", "b")

    def test_weights(self):
        assert RepSpec((1, 1)).weights == (1, -1, 1, -1)
        assert RepSpec((3,)).weights == (3, 1, -1, -3)
        df = RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9)))
        assert df.weights == (1, -1, 1, -1, 3, 1, -1, -3)
        assert df.weight_of["w5"] == 3

    def test_blocks(self):
        spec = RepSpec((1, 2))
        assert spec.blocks() == [(1, ("w0", "w1")), (2, ("w2", "w3", "w4"))]

    def test_validation(self):
        with pytest.raises(ValueError):
            RepSpec(())
        with pytest.raises(ValueError):
            RepSpec((1,), "fancy")
        with pytest.raises(ValueError):
            RepSpec((1,), coord_names=("a",))
        with pytest.raises(ValueError):
            RepSpec((1,), coord_names=("a", "a"))

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_block_serialization_round_trip(self, spec):
        assert spec_from_blocks(spec_to_blocks(spec)) == spec

    @pytest.mark.parametrize("data, message", [
        ({"blocks": [{"sym": 1, "vblock": 2}]},
         "representation.blocks[0] must name exactly one of 'sym' and 'vblock', got {'sym': 1, 'vblock': 2}"),
        ({"blocks": [{"sym": 1}, {}]},
         "representation.blocks[1] must name exactly one of 'sym' and 'vblock', got {}"),
        ({"blocks": [{"sym": True}]}, "representation.blocks[0].sym must be an integer, got True"),
        ({"blocks": [{"sym": "3"}]}, "representation.blocks[0].sym must be an integer, got '3'"),
        ({"blocks": [{"sym": -1}]}, "representation.blocks[0].sym must be non-negative, got -1"),
        ({"blocks": [{"vblock": 0}]}, "representation.blocks[0].vblock must be positive, got 0"),
        ({"blocks": {"sym": 1}},
         "representation must be an object with a 'blocks' list of objects, got {'blocks': {'sym': 1}}"),
        ({"blocks": []}, "representation needs at least one block, got an empty 'blocks' list"),
        ({"blocks": [{"sym": 1}], "coordinates": None},
         "representation.coordinates must be a list of strings, got None"),
        ({"blocks": [{"sym": 1}], "normalization": "fancy"},
         "representation.normalization must be one of section5, unit, got 'fancy'"),
        ({"blocks": [{"vblock": 10 ** 12}]},
         "representation has 2000000000000 coordinates, above the cap of 64"),
        ({"blocks": [{"sym": 1}], "coordinates": ["a"]},
         "representation.coordinates: need 2 distinct coordinate names, got ('a',)"),
        ({"blocks": [{"sym": 1}], "coordinates": ["a", "a"]},
         "representation.coordinates: need 2 distinct coordinate names, got ('a', 'a')"),
    ])
    def test_block_reader_names_the_fault(self, data, message):
        with pytest.raises(ValueError) as excinfo:
            spec_from_blocks(data)
        assert str(excinfo.value) == message

    def test_block_serialization_shape(self):
        blocks = spec_to_blocks(RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9))))
        assert blocks["normalization"] == "unit"
        assert blocks["blocks"] == [{"vblock": 2}, {"sym": 3}]
        assert blocks["coordinates"] == [f"w{i}" for i in range(1, 9)]

    def test_weights_are_computed_once_per_spec(self):
        spec = RepSpec((1, 2))
        assert spec.weights is spec.weights
        assert spec.weight_of is not spec.weight_of  # a Derivation keeps the map it is given
        assert spec == RepSpec((1, 2)) and hash(spec) == hash(RepSpec((1, 2)))
        assert dataclasses.replace(spec, summands=(4,)).weights == (4, 2, 0, -2, -4)

    def test_weights_sum_to_zero(self):
        for spec in SMALL_SPECS:
            assert sum(spec.weights) == 0


class TestDerivationConstruction:
    def test_section5_images(self):
        d = build_derivation(RepSpec((3,)))
        w = {name: Poly.variable(d.vars, name) for name in d.vars}
        assert d(w["w0"]).is_zero
        assert d(w["w1"]) == 3 * w["w0"]
        assert d(w["w2"]) == 2 * w["w1"]
        assert d(w["w3"]) == w["w2"]

    def test_unit_images(self):
        d = build_derivation(RepSpec((3,), "unit"))
        w = {name: Poly.variable(d.vars, name) for name in d.vars}
        assert d(w["w1"]) == w["w0"]
        assert d(w["w2"]) == w["w1"]
        assert d(w["w3"]) == w["w2"]

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_images_raise_weight_by_two(self, spec):
        # lowering the symmetric-power index raises the diagonal weight
        d = build_derivation(spec)
        for name in spec.coords:
            image = d(Poly.variable(spec.coords, name))
            if image.is_zero:
                continue
            (variable,) = image.support()
            assert spec.weight_of[variable] == spec.weight_of[name] + 2

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_nilpotency_degree(self, spec):
        d = build_derivation(spec)
        for k, names in spec.blocks():
            top = Poly.variable(spec.coords, names[-1])
            power = top
            for _ in range(k + 1):
                power = d(power)
            assert power.is_zero


def _doubled(images):
    return {name: 2 * image for name, image in images.items()}


class TestOperatorTriple:
    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_diagonal_scales_by_weight(self, spec):
        triple = sl2_triple(spec)
        for name, weight in zip(spec.coords, spec.weights):
            x = Poly.variable(spec.coords, name)
            assert apply(triple.diag, x) == weight * x

    def test_raising_closed_form_section5(self):
        for k in (1, 2, 3, 4):
            spec = RepSpec((k,))
            triple = sl2_triple(spec)
            for i in range(k + 1):
                x = Poly.variable(spec.coords, f"w{i}")
                image = apply(triple.raising, x)
                if i == k:
                    assert image.is_zero
                else:
                    expected = (i + 1) * Poly.variable(spec.coords, f"w{i + 1}")
                    assert image == expected

    def test_raising_closed_form_unit(self):
        for k in (1, 2, 3, 4):
            spec = RepSpec((k,), "unit")
            triple = sl2_triple(spec)
            for i in range(k + 1):
                x = Poly.variable(spec.coords, f"w{i}")
                image = apply(triple.raising, x)
                if i == k:
                    assert image.is_zero
                else:
                    expected = (i + 1) * (k - i) * Poly.variable(spec.coords, f"w{i + 1}")
                    assert image == expected

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("mutant, message", [
        (lambda lower, raising, diag: (_doubled(lower), raising, diag),
         "raising/lowering bracket fails on w0"),
        (lambda lower, raising, diag: (lower, _doubled(raising), diag),
         "raising/lowering bracket fails on w0"),
        (lambda lower, raising, diag: (lower, raising, {**diag, "w0": 2 * diag["w0"]}),
         "diagonal/raising bracket fails on w0"),
        (lambda lower, raising, diag: (lower, {**raising, "w0": raising["w0"] + raising["w0"] ** 2}, diag),
         "raising image of w0 is not linear"),
    ], ids=["doubled-lowering", "doubled-raising", "wrong-diagonal-weight", "quadratic-raising-term"])
    def test_construction_rejects_a_wrong_operator(self, monkeypatch, normalization, mutant, message):
        # the closed forms are trusted because the bracket check runs at
        # construction; each wrong operator must fail it
        closed_form = reps._ladder_images
        monkeypatch.setattr(reps, "_ladder_images", lambda spec: mutant(*closed_form(spec)))
        with pytest.raises(ConstructionFailure, match=message):
            sl2_triple.__wrapped__(RepSpec((1, 3), normalization))

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("summands", POOL_SUMMANDS)
    def test_triple_equals_its_closed_forms(self, summands, normalization):
        # the lowering, raising and diagonal operators of section 5 and
        # of the unit normalization, on a spec and on its extension by
        # the plane
        unit = normalization == "unit"
        for spec in (RepSpec(summands, normalization), extended_spec(RepSpec(summands, normalization))):
            lower, raising, diag = {}, {}, {}
            for k, names in spec.blocks():
                w = [Poly.variable(spec.coords, name) for name in names]
                for i in range(k + 1):
                    diag[names[i]] = (k - 2 * i) * w[i]
                    if i < k:
                        lower[names[i + 1]] = (1 if unit else k - i) * w[i]
                        raising[names[i]] = ((i + 1) * (k - i) if unit else i + 1) * w[i + 1]
            triple = sl2_triple(spec)
            assert triple.lower == Derivation(spec.coords, lower)
            assert triple.raising == Derivation(spec.coords, raising)
            assert triple.diag == Derivation(spec.coords, diag)
            assert triple.lower.weight_of == spec.weight_of
            assert triple.lower.sl2_raise is triple.raising

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_bracket_relations_on_coordinates(self, spec):
        # the acting derivation F fills the weight-raising slot of the
        # triple: [F, E] = H, [H, F] = 2F, [H, E] = -2E
        triple = sl2_triple(spec)
        E, F, H = triple.raising, triple.lower, triple.diag
        for name in spec.coords:
            x = Poly.variable(spec.coords, name)
            assert apply(F, apply(E, x)) - apply(E, apply(F, x)) == apply(H, x)
            assert apply(H, apply(F, x)) - apply(F, apply(H, x)) == 2 * apply(F, x)
            assert apply(H, apply(E, x)) - apply(E, apply(H, x)) == -2 * apply(E, x)

    def test_lower_equals_build_derivation(self):
        spec = RepSpec((1, 1, 1))
        assert sl2_triple(spec).lower == build_derivation(spec)


SL2_SAMPLES = [
    ((1, 0), (0, 1)),
    ((1, 2), (0, 1)),
    ((1, 0), (3, 1)),
    ((2, 1), (1, 1)),
    ((0, -1), (1, 0)),
    ((3, 2), (4, 3)),
]


def _mat_mul(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


def _flow_series(spec, d):
    """``exp(t*D)`` on every coordinate: ``sum t^m D^m(x)/m!`` over ``("t",) + coords``.

    A coordinate of a ``Sym^k`` summand must satisfy ``D^(k+1)(x) = 0``;
    the series fails when it does not.
    """
    table = ("t",) + spec.coords
    t = Poly.variable(table, "t")
    images = {}
    for k, names in spec.blocks():
        for name in names:
            q, series = Poly.variable(spec.coords, name), Poly.zero(table)
            for m in range(k + 1):
                series = series + Fraction(1, math.factorial(m)) * t ** m * q.extend_table(table)
                q = apply(d, q)
            assert q.is_zero, f"D^{k + 1}({name}) = {q} is not zero"
            images[name] = series
    return images


def _assert_lower_triangular_flow(spec):
    t = Poly.variable(("t",), "t")
    assert group_substitution(spec, [[1, 0], [t, 1]]) == _flow_series(spec, build_derivation(spec))


random_specs = st.builds(
    RepSpec,
    st.lists(st.integers(0, 7), min_size=1, max_size=3).map(tuple),
    st.sampled_from(NORMALIZATIONS),
)

CATALOG_SPECS = [
    RepSpec(summands, normalization)
    for normalization in NORMALIZATIONS
    for summands in [(1, 1), (1, 1, 1), (3,), (5,), (1, 3), (1, 5), (1, 3, 5), (0, 1, 1, 3), (2, 5, 1, 1)]
] + [RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9)))]


def _assert_catalog_matches_oracle(spec):
    """Each ``minor[a,b]`` is ``w_a0*w_b1 - w_a1*w_b0`` and each ``disc[i]`` the normalized Sylvester resultant."""
    var = lambda name: Poly.variable(spec.coords, name)
    planes = [(idx, names) for idx, (k, names) in enumerate(spec.blocks()) if k == 1]
    expected = [
        (f"minor[{a},{b}]", var(na[0]) * var(nb[1]) - var(na[1]) * var(nb[0]))
        for (a, na), (b, nb) in itertools.combinations(planes, 2)
    ] + [(f"disc[{idx}]", _discriminant(spec, k, names)) for idx, (k, names) in enumerate(spec.blocks()) if k in (3, 5)]
    if not expected:
        with pytest.raises(UnsupportedBlock):
            catalog_invariants(spec)
        return
    assert [(entry.label, entry.poly) for entry in catalog_invariants(spec)] == expected


class TestGroupSubstitution:
    def test_identity(self):
        spec = RepSpec((1, 1))
        images = group_substitution(spec, ((1, 0), (0, 1)))
        for name, value in images.items():
            assert value == Poly.variable(spec.coords, name)

    def test_determinant_checked(self):
        spec = RepSpec((1,))
        with pytest.raises(ValueError):
            group_substitution(spec, ((2, 0), (0, 1)))

    @pytest.mark.parametrize("a", SL2_SAMPLES)
    @pytest.mark.parametrize("b", SL2_SAMPLES)
    def test_functoriality(self, a, b):
        spec = RepSpec((2,))
        sa = group_substitution(spec, a)
        sb = group_substitution(spec, b)
        sab = group_substitution(spec, _mat_mul(a, b))
        assert all(isinstance(image, Poly) for image in (*sa.values(), *sb.values(), *sab.values()))
        for name in spec.coords:
            assert sa[name].substitute(sb) == sab[name]

    @pytest.mark.parametrize(
        "spec",
        [RepSpec((2,)), RepSpec((3,), "unit"), RepSpec((1, 1))]
        + [RepSpec((k,), normalization) for normalization in NORMALIZATIONS for k in range(8)],
    )
    def test_lower_triangular_matches_flow(self, spec):
        _assert_lower_triangular_flow(spec)

    @given(random_specs)
    def test_random_spec_flow(self, spec):
        _assert_lower_triangular_flow(spec)

    def test_flow_series_needs_nilpotency(self):
        spec = RepSpec((1,))
        with pytest.raises(AssertionError, match="is not zero"):
            _flow_series(spec, sl2_triple(spec).diag)


class TestCatalog:
    def test_plane_pair_minor(self):
        entries = catalog_invariants(RepSpec((1, 1)))
        assert [e.label for e in entries] == ["minor[0,1]"]
        assert str(entries[0].poly) == "w0*w3 - w1*w2"

    def test_three_plane_minors(self):
        # block indices are zero-based, pairs in lexicographic order
        labels = [e.label for e in catalog_invariants(RepSpec((1, 1, 1)))]
        assert labels == ["minor[0,1]", "minor[0,2]", "minor[1,2]"]

    def test_cubic_discriminant_is_classical(self):
        (entry,) = catalog_invariants(RepSpec((3,)))
        assert entry.label == "disc[0]"
        classical = parse(
            "18*w0*w1*w2*w3 - 4*w1^3*w3 + w1^2*w2^2 - 4*w0*w2^3 - 27*w0^2*w3^2",
            ("w0", "w1", "w2", "w3"),
        )
        assert entry.poly == -classical

    def test_quintic_discriminant_shape(self):
        (entry,) = catalog_invariants(RepSpec((5,)))
        assert entry.poly.total_degree() == 8
        parts = weight_components(entry.poly, dict.fromkeys(entry.poly.vars, 1))
        assert list(parts) == [8]

    @pytest.mark.parametrize(
        "normalization, digest",
        [
            ("section5", "90f30df5a759cffeee061156d01bcfdd82490c6aec83e8cb347a77291bcd4f85"),
            ("unit", "ec5ffb7e34477d7852b227031a1a1b88d218c44fc8a6d7dbdeac09b0c0ade616"),
        ],
    )
    def test_quintic_discriminant_is_pinned(self, normalization, digest):
        (entry,) = catalog_invariants(RepSpec((5,), normalization))
        assert hashlib.sha256(str(entry.poly).encode()).hexdigest() == digest

    def test_deveney_finston_discriminant_is_pinned(self):
        entries = catalog_invariants(RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9))))
        assert [e.label for e in entries] == ["minor[0,1]", "disc[2]"]
        assert str(entries[1].poly) == "9*w5^2*w8^2 - 18*w5*w6*w7*w8 + 8*w5*w7^3 + 6*w6^3*w8 - 3*w6^2*w7^2"

    def test_determinant_against_permutation_expansion(self):
        x, y, z = (Poly.variable(("x", "y", "z"), name) for name in ("x", "y", "z"))
        dense = [[x, 3, y, 0], [1, z, 0, x], [y, 0, 2, 5], [0, x + y, z, 1]]
        matrix = [[entry if isinstance(entry, Poly) else Poly.const(x.vars, entry) for entry in row] for row in dense]
        expected = Poly.zero(x.vars)
        for perm in itertools.permutations(range(4)):
            inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
            product = Poly.const(x.vars, (-1) ** inversions)
            for i in range(4):
                product = product * matrix[i][perm[i]]
            expected = expected + product
        assert _determinant(matrix, x.vars) == expected
        assert _determinant([matrix[0], matrix[1], matrix[0], matrix[3]], x.vars).is_zero

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_entries_match_the_sylvester_oracle(self, spec):
        _assert_catalog_matches_oracle(spec)

    @given(random_specs)
    def test_random_spec_entries_match_the_sylvester_oracle(self, spec):
        _assert_catalog_matches_oracle(spec)

    @pytest.mark.parametrize("summands", [(1, 1), (3,), (5,)])
    @pytest.mark.parametrize(
        "entry, message",
        [(Poly.zero, "vanishes"), (lambda table: Poly.variable(table, "w1"), "is not invariant")],
        ids=["zero", "non-invariant"],
    )
    def test_faulty_transvectant_is_rejected(self, monkeypatch, summands, entry, message):
        monkeypatch.setattr(reps, "_transvectant", lambda d, a, b, r: entry(d.vars))
        with pytest.raises(ConstructionFailure, match=message):
            catalog_invariants.__wrapped__(RepSpec(summands))  # past the cache

    @pytest.mark.parametrize(
        "spec",
        [RepSpec(summands, normalization) for normalization in NORMALIZATIONS
         for summands in [(1, 1), (3,), (1, 3), (5,), (1, 3, 5)]]
        + [RepSpec((1, 1, 3), normalization, tuple(f"w{i}" for i in range(1, 9))) for normalization in NORMALIZATIONS],
    )
    def test_entries_killed_by_whole_triple(self, spec):
        triple = sl2_triple(spec)
        for entry in catalog_invariants(spec):
            for op in (triple.lower, triple.raising, triple.diag):
                assert apply(op, entry.poly).is_zero

    def test_uncovered_representation_rejected(self):
        with pytest.raises(UnsupportedBlock):
            catalog_invariants(RepSpec((2,)))


class TestNonstableCoordinates:
    def test_positive_weight_names(self):
        assert nonstable_coordinates(RepSpec((1, 1))) == ("w0", "w2")
        df = RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9)))
        assert nonstable_coordinates(df) == ("w1", "w3", "w5", "w6")
