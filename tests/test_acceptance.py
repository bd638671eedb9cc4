"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every comparison here is exact (integer or field arithmetic); the only
tolerances are the stated wall-clock budgets.
"""

import math
import random
import time

from graphpres.builtins import (binary_icosahedral_action, dihedral_cycle_action,
                                dodecahedron_action, simplex_action)
from graphpres.coset import EnumerationLimitError, todd_coxeter
from graphpres.coxeter import (build_coxeter_context, coxeter_implication_check,
                               coxeter_substitution, face_boundary_check,
                               greedy_disc_ordering, _face_edges, _is_simple_path)
from graphpres.derive import derive_presentation, presentation_matches
from graphpres.dot import cayley_underlying_graph
from graphpres.golden import QUAT_C, quat_conj, quat_mul
from graphpres.graphs import find_inversion
from graphpres.polyhedra import dodecahedron_model, truncated_dodecahedron
from graphpres.scaffold import validate_regularity
from graphpres.verify import abelianization_smith, check_covering_isomorphism
from graphpres.presentation import Presentation

from test_coset import standard_symmetric_presentation
from verify_steps import kozsul_model


def _verdict(number: int, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_symmetric_groups():
    started = time.perf_counter()
    ok = True
    details = []
    for n in (3, 4, 5):
        inp = simplex_action(n)
        derived = derive_presentation(inp)
        count = todd_coxeter(derived.presentation).n
        shape = presentation_matches(derived, standard_symmetric_presentation(n), inp.ag)
        ok = ok and count == math.factorial(n) and shape
        details.append(f"n={n}: {count} cosets, standard shape {shape}")
    _verdict(1, ok, "; ".join(details), started, 5.0)


def test_criterion_2_dodecahedron():
    started = time.perf_counter()
    inp = dodecahedron_action()
    derived = derive_presentation(inp)
    target = Presentation.from_strings(
        ["g", "h"], [[("g", 1)] * 2, [("h", 1)] * 3, [("g", 1), ("h", 1)] * 5])
    shape = presentation_matches(derived, target, inp.ag)
    count = todd_coxeter(derived.presentation).n
    model = kozsul_model(derived, inp.ag)
    cover = check_covering_isomorphism(model, inp.ag)
    ok = (shape and count == 60 and len(model.f) == 20
          and len(model.edges) == 30 and cover.ok)
    _verdict(2, ok, f"shape {shape}, {count} cosets, rebuilt graph "
             f"{len(model.f)}/{len(model.edges)}, covering {cover.ok}",
             started, 5.0)


def test_criterion_3_binary_icosahedral():
    started = time.perf_counter()
    bi = binary_icosahedral_action()
    derived = derive_presentation(bi.input)
    count = todd_coxeter(derived.presentation).n
    stz = coxeter_substitution(derived.renamed())
    stz_shape = (stz.generators == ("s", "t", "z")
                 and ((2, 1), (2, 1)) in stz.relators)
    model = kozsul_model(derived, bi.input.ag)
    cover = check_covering_isomorphism(model, bi.input.ag)
    ok = count == 120 and stz_shape and len(model.f) == 20 and cover.ok
    _verdict(3, ok, f"{count} cosets, substitution to s,t,z with z^2 "
             f"{stz_shape}, rebuilt graph on {len(model.f)} vertices",
             started, 10.0)


def test_criterion_4_coxeter_implication():
    started = time.perf_counter()
    rep = coxeter_implication_check()
    identities_ok = all(flag for _, flag in rep.identities)
    ok = (rep.ok and rep.group_order == 120 and rep.z_order == 2
          and rep.z_central and rep.quotient_order == 60 and identities_ok)
    _verdict(4, ok, f"order {rep.group_order}, z central order {rep.z_order}, "
             f"quotient {rep.quotient_order}, {len(rep.identities)} identities hold",
             started, 10.0)


def test_criterion_5_face_products():
    started = time.perf_counter()
    ctx = build_coxeter_context()
    rep = face_boundary_check(ctx)
    disc = greedy_disc_ordering(ctx.Y.faces)
    segments_ok = disc.ok
    if disc.ok:
        used_edges = set(_face_edges(ctx.Y.faces[disc.order[0]]))
        used_verts = set(ctx.Y.faces[disc.order[0]])
        for pos, k in enumerate(disc.order[1:], start=1):
            face = ctx.Y.faces[k]
            shared_e = set(_face_edges(face)) & used_edges
            shared_v = set(face) & used_verts
            if pos < len(disc.order) - 1:
                segments_ok = segments_ok and _is_simple_path(shared_e, shared_v)
            else:
                segments_ok = segments_ok and shared_e == set(_face_edges(face))
            used_edges |= set(_face_edges(face))
            used_verts |= set(face)
    ok = (rep.ok and rep.face_products_are_z and rep.pentagon_edges == 30
          and rep.euler == 2 and disc.ok and len(disc.order) == 32 and segments_ok)
    _verdict(5, ok, f"32 face products = z: {rep.face_products_are_z}, "
             f"pentagon edges {rep.pentagon_edges}, Euler {rep.euler}, "
             f"disc ordering of length {len(disc.order)} verified {segments_ok}",
             started, 10.0)


def test_criterion_6_milnor_identity():
    started = time.perf_counter()
    model = dodecahedron_model()
    triple = quat_mul(quat_mul(quat_conj(model.h_quat), model.s1_quat), model.f_quat)
    x = quat_mul(model.s1_quat, model.h_quat)
    fifth = x
    for _ in range(4):
        fifth = quat_mul(fifth, x)
    ok = triple == QUAT_C and fifth == QUAT_C
    _verdict(6, ok, "h^-1 * s1 * f = c and (s1*h)^5 = c bit-exact",
             started, 5.0)


def test_criterion_7_perfectness():
    started = time.perf_counter()
    two_gen = Presentation.from_strings(
        ["g", "r"],
        [[("g", 1), ("g", 1), ("r", 1), ("r", 1), ("r", 1)],
         [("g", 1), ("g", 1)] + [("g", -1), ("r", -1)] * 5])
    factors = abelianization_smith(two_gen)
    cyclic = abelianization_smith(Presentation.from_strings(["a"], [[("a", 1)] * 5]))
    ok = factors == [1, 1] and cyclic == [5]
    _verdict(7, ok, f"double-cover relators abelianize to {factors}, "
             f"one five-torsion generator to {cyclic}", started, 5.0)


def test_criterion_8_property_suites():
    started = time.perf_counter()
    rng = random.Random(20260810)
    checked = []

    builtin_inputs = [simplex_action(3), simplex_action(4), simplex_action(5),
                      dodecahedron_action(), binary_icosahedral_action().input]
    sizes = [rng.randint(3, 30) for _ in range(100)]
    dihedral_inputs = {n: dihedral_cycle_action(n) for n in sorted(set(sizes))}

    # (a) soundness of every emitted relator
    sound = True
    for inp in builtin_inputs + [dihedral_inputs[n] for n in sizes]:
        derived = derive_presentation(inp)
        letters = [derived.gen_elements[name] for name in derived.presentation.generators]
        sound = sound and all(inp.ag.group.evaluate(letters, rel) == 0
                              for rel in derived.presentation.relators)
    checked.append(("a", sound))

    # (b) regularity of every constructed scaffolding
    regular = all(validate_regularity(inp.sc, inp.ag) is None
                  for inp in builtin_inputs + list(dihedral_inputs.values()))
    checked.append(("b", regular))

    # (c) the pairing is an involution fixing exactly the invertible edges
    involutive = True
    for inp in builtin_inputs + list(dihedral_inputs.values()):
        for e in inp.sc.iota:
            partner = inp.sc.iota[e]
            involutive = involutive and inp.sc.iota[partner] == e
            involutive = involutive and (
                (partner == e) == (find_inversion(inp.ag, e) is not None))
    checked.append(("c", involutive))

    # (d) local isomorphism of the rebuilt graph at every vertex
    local = True
    for inp in builtin_inputs:
        derived = derive_presentation(inp)
        model = kozsul_model(derived, inp.ag)
        neighbors = {x: set() for x in model.f}
        for a, b in model.edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        for x in model.f:
            image = {model.f[y] for y in neighbors[x]}
            local = local and len(image) == len(neighbors[x])
            local = local and image == set(inp.ag.graph.neighbors(model.f[x]))
    checked.append(("d", local))

    # (e) negative control: no loop relations
    inp = dodecahedron_action()._replace(loops=())
    derived = derive_presentation(inp)
    negative = False
    try:
        table = todd_coxeter(derived.presentation, limit=20_000)
        if table.n != 60 and table.n % 60 == 0:
            model = kozsul_model(derived, inp.ag)
            negative = not check_covering_isomorphism(model, inp.ag).ok
    except EnumerationLimitError:
        negative = True
    checked.append(("e", negative))

    ok = all(flag for _, flag in checked)
    detail = ", ".join(f"({name}) {'ok' if flag else 'FAILED'}" for name, flag in checked)
    _verdict(8, ok, f"property suites over builtins and {len(sizes)} seeded "
             f"dihedral instances: {detail}", started, 60.0)


def test_criterion_9_cayley_diagram_is_truncation():
    started = time.perf_counter()
    inp = dodecahedron_action()
    table = inp.ag.group
    h = inp.ag.generator_labels["h"]
    gens = {"s1": inp.ag.generator_labels["s1"], "h": h, "h^-1": table.inverse(h)}
    cayley = cayley_underlying_graph(table, gens)
    Y = truncated_dodecahedron()
    # the witness a -> a(base flag) is a bijection onto the 60 flags that
    # maps the 90 Cayley edges to edges of Y, which has 90: an isomorphism
    base = Y.flags.index((Y.model.labels["v"], Y.model.labels["w1"]))
    witness = [Y.flag_action[a][base] for a in range(cayley.vertex_count)]
    iso = (Y.group.elements == table.elements
           and cayley.vertex_count == 60 and sorted(witness) == list(range(60))
           and len(cayley.edges) == len(Y.graph.edges) == 90
           and all(Y.graph.has_edge(witness[u], witness[w]) for u, w in cayley.edges))
    _verdict(9, iso, f"Cayley diagram on the flip and the two corner turns has "
             f"{cayley.vertex_count} vertices and {len(cayley.edges)} edges, and the "
             f"flag witness is an isomorphism onto the truncation: {iso}", started, 5.0)
