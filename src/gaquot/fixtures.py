"""Canonical worked examples bound to executable data.

Each fixture packages a representation, a defining polynomial and/or a
graph presentation, and the expected classification, so the whole
catalog can be re-derived from scratch by the self-test; nothing about
a fixture is cached or trusted.

Fixture names accepted by :func:`fixture`:

* ``winkelmann`` -- the classical strictly quasi-affine quotient of
  affine five-space;
* ``sl2-in-v2`` -- pairs of plane vectors; the quotient is the
  punctured plane;
* ``affine-slice`` -- the minimal affine example, with a degree-one
  slice;
* ``deveney-finston`` -- a free action that is not everywhere stable;
* ``quadric-relation`` -- the Winkelmann data viewed through the
  quadric relation among its five generating invariants;
* ``family-phi(<expr>)`` -- a member of the hypersurface family
  ``1 + phi(minor) - w0`` with ``phi`` parsed from the name (variable
  ``t``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .classify import Bounds, Verdict, build_family_member
from .derivations import GraphPresentation
from .expr import parse
from .poly import Poly
from .reps import RepSpec, spec_to_blocks

FAMILY_PREFIX = "family-phi("

RELATION_VARS = ("x1", "x2", "x3", "x4", "x5")


@dataclass(frozen=True)
class Fixture:
    """A worked example with its expected classification."""

    name: str
    spec: RepSpec
    f: Optional[Poly]
    graph: Optional[GraphPresentation]
    expected_verdict: Verdict
    expected_witness_subspace: Tuple[str, ...] = ()
    citations: Tuple[str, ...] = ()


def _winkelmann_spec() -> RepSpec:
    return RepSpec((1, 1, 1))


def _winkelmann() -> Fixture:
    spec = _winkelmann_spec()
    f = parse("1 + w2*w5 - w3*w4 - w0", spec.coord_names)
    zvars = tuple(f"z{i}" for i in range(1, 6))
    graph = GraphPresentation(
        zvars=zvars,
        free={f"w{i}": f"z{i}" for i in range(1, 6)},
        dependent={"w0": parse("1 + z2*z5 - z3*z4", zvars)},
    )
    return Fixture(
        name="winkelmann",
        spec=spec,
        f=f,
        graph=graph,
        expected_verdict=Verdict.STRICTLY_QUASI_AFFINE,
        citations=(
            "Winkelmann (1990): a free additive-group action on affine "
            "five-space whose quotient is quasi-affine but not affine.",
        ),
    )


def _sl2_in_v2() -> Fixture:
    spec = RepSpec((1, 1))
    f = parse("1 - w0*w3 + w1*w2", spec.coord_names)
    return Fixture(
        name="sl2-in-v2",
        spec=spec,
        f=f,
        graph=None,
        expected_verdict=Verdict.STRICTLY_QUASI_AFFINE,
        citations=(
            "Unit-determinant two-by-two matrices modulo a one-parameter "
            "unipotent subgroup: the plane punctured at the origin.",
        ),
    )


def _affine_slice() -> Fixture:
    spec = RepSpec((1,))
    f = parse("1 - w0", spec.coord_names)
    graph = GraphPresentation(
        zvars=("z1",),
        free={"w1": "z1"},
        dependent={"w0": Poly.const(("z1",), 1)},
    )
    return Fixture(
        name="affine-slice",
        spec=spec,
        f=f,
        graph=graph,
        expected_verdict=Verdict.AFFINE,
        citations=(
            "Minimal slice example: the restricted derivation sends the free "
            "parameter to 1, so the quotient is affine with a trivial fibration.",
        ),
    )


def _deveney_finston() -> Fixture:
    spec = RepSpec(
        (1, 1, 3),
        normalization="unit",
        coord_names=tuple(f"w{i}" for i in range(1, 9)),
    )
    zvars = ("z1", "z2", "z3", "z4", "z8")
    graph = GraphPresentation(
        zvars=zvars,
        free={"w1": "z1", "w2": "z2", "w3": "z3", "w4": "z4", "w8": "z8"},
        dependent={
            "w5": parse("2*z1*z3^2", zvars),
            "w6": parse("2*z1*z3*z4", zvars),
            "w7": parse("1 + z1*z4^2", zvars),
        },
    )
    return Fixture(
        name="deveney-finston",
        spec=spec,
        f=None,
        graph=graph,
        expected_verdict=Verdict.NOT_EVERYWHERE_STABLE,
        expected_witness_subspace=("w1", "w3"),
        citations=(
            "An additive-group action on affine five-space studied by Deveney "
            "and Finston: free, yet it meets the non-stable subspace.",
        ),
    )


def _quadric_relation() -> Fixture:
    base = _winkelmann()
    return Fixture(
        name="quadric-relation",
        spec=base.spec,
        f=base.f,
        graph=base.graph,
        expected_verdict=base.expected_verdict,
        citations=(
            "The five generating invariants of the Winkelmann quotient satisfy "
            "a single affine quadric relation.",
        ),
    )


_BUILDERS = {
    "winkelmann": _winkelmann,
    "sl2-in-v2": _sl2_in_v2,
    "affine-slice": _affine_slice,
    "deveney-finston": _deveney_finston,
    "quadric-relation": _quadric_relation,
}

NAMED_FIXTURES = tuple(_BUILDERS)


def _family(name: str) -> Fixture:
    phi_text = name[len(FAMILY_PREFIX):-1]
    phi = parse(phi_text, ("t",))
    spec = _winkelmann_spec()
    f, graph = build_family_member(spec, phi, "minor[1,2]")
    expected = Verdict.AFFINE if phi.is_constant() else Verdict.STRICTLY_QUASI_AFFINE
    return Fixture(
        name=name,
        spec=spec,
        f=f,
        graph=graph,
        expected_verdict=expected,
        citations=(
            "Hypersurface family over a univariate parameter polynomial; members "
            "are distinguished by boundary component counts.",
        ),
    )


def fixture(name: str) -> Fixture:
    """Look up a fixture by name; family members parse their parameter."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith(FAMILY_PREFIX) and name.endswith(")"):
        return _family(name)
    raise ValueError(f"unknown fixture {name!r}; known: {', '.join(NAMED_FIXTURES)} "
                     f"or {FAMILY_PREFIX}<expr>)")


def all_named_fixtures() -> Tuple[Fixture, ...]:
    return tuple(fixture(name) for name in NAMED_FIXTURES)


def winkelmann_invariant_images() -> Dict[str, Poly]:
    """The five generating invariants, keyed by relation variable.

    In the deterministic kernel listing for the Winkelmann representation
    the degree-one generators come first; the relation variables are
    identified, in order, with the last five generators.
    """
    coords = _winkelmann_spec().coord_names
    return {
        "x1": parse("w2", coords),
        "x2": parse("w4", coords),
        "x3": parse("w0*w3 - w1*w2", coords),
        "x4": parse("w0*w5 - w1*w4", coords),
        "x5": parse("w2*w5 - w3*w4", coords),
    }


def verify_winkelmann_relation(relation: Optional[Poly] = None) -> Poly:
    """Residue of the quadric relation on the Winkelmann hypersurface.

    Substitutes the five generating invariants into the relation and then
    eliminates ``w0`` through the hypersurface equation
    ``w0 = 1 + w2*w5 - w3*w4``.  The default relation is
    ``x1*x4 - x2*x3 - x5*(x5 + 1)``; the returned polynomial is zero
    exactly when the relation holds on the hypersurface.
    """
    if relation is None:
        relation = parse("x1*x4 - x2*x3 - x5*(x5 + 1)", RELATION_VARS)
    if relation.vars != RELATION_VARS:
        raise ValueError(f"relation must be over {RELATION_VARS}")
    coords = _winkelmann_spec().coord_names
    substituted = relation.substitute(winkelmann_invariant_images())
    return substituted.substitute({"w0": parse("1 + w2*w5 - w3*w4", coords)})


def job_for(fx: Fixture, command: str = "classify", bounds: Bounds = Bounds()) -> Dict:
    """Render a fixture as a CLI job document."""
    job: Dict = {
        "command": command,
        "representation": spec_to_blocks(fx.spec),
        "bounds": bounds.as_dict(),
        "output": "structured",
    }
    if fx.f is not None:
        job["polynomial"] = str(fx.f)
    if fx.graph is not None:
        job["graph"] = {
            "zvars": list(fx.graph.zvars),
            "free": dict(fx.graph.free),
            "dependent": {name: str(image) for name, image in fx.graph.dependent.items()},
        }
    return job
