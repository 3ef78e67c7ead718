"""Input shapes that hand probes found to make ``align`` do more work than
the pairs it lists, one size parameter each (ROADMAP item 17).

``k_components`` is the k-component shape of ROADMAP item 22: one
vocabulary split over k components, a few of them declaring synonymy or
equivalence between their own entities, against a support ontology that
holds the whole vocabulary plus some synonymies.  At a fixed number of
concepts, the pairs ``integrate`` lists barely grow with k, so work per
listed pair that grows with k is work spent per component.

``wide_composites`` is the wide-composite shape of ROADMAP item 16: two
components of W atoms, W composites of two atoms each, offset
differently on each side, and one ``top`` that holds every composite,
against an empty support ontology.  Only about 4W of the W² child pairs
of the two tops score above 0.

Run as a script, it times ``integrate`` on the k shape at several k (the
k probe of ROADMAP item 22), or with ``wide`` first on the wide shape at
several W (the wide probe of ROADMAP item 16):

    PYTHONPATH=src python tests/adversarial.py 2 8 32 64
    PYTHONPATH=src python tests/adversarial.py wide 100 200 400
"""

from __future__ import annotations

import random
import sys
from time import perf_counter

from ontomerge import BusinessComponent, Concept, Entity, Ontology, Relation


def k_components(k: int, concepts: int = 1600, vocabulary: int = 800,
                 synonymies: int = 80, declared: int = 40,
                 seed: int = 1) -> tuple[list[BusinessComponent], Ontology]:
    """``concepts`` entities over k components, each component's names drawn
    without repeats from ``vocabulary`` words, and ``declared`` relations
    in all, each in a component drawn at random; the support ontology
    holds every word and ``synonymies`` synonymies between them."""
    rng = random.Random(seed)
    words = [f"t{i:04d}" for i in range(vocabulary)]
    names = [rng.sample(words, concepts // k + (j < concepts % k)) for j in range(k)]
    relations: list[set[tuple[str, str, str]]] = [set() for _ in range(k)]
    while sum(map(len, relations)) < declared:
        j = rng.randrange(k)
        a, b = sorted(rng.sample(names[j], 2))
        kind = rng.choice(("synonymy", "equivalence"))
        if not any((a, b, other) in relations[j] for other in ("synonymy", "equivalence")):
            relations[j].add((a, b, kind))
    components = [
        BusinessComponent(id=f"K{j:02d}", name=f"component {j}",
                          entities=[Entity(name=name) for name in names[j]],
                          relations=sorted(relations[j]))
        for j in range(k)
    ]
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < synonymies:
        pairs.add(tuple(sorted(rng.sample(words, 2))))
    od = Ontology("Od", [Concept(id=f"Od#{word}", term=word) for word in words],
                  [Relation(f"Od#{a}", f"Od#{b}", "synonymy") for a, b in sorted(pairs)])
    return components, od


def wide_composites(width: int) -> tuple[list[BusinessComponent], Ontology]:
    """Components L and R, each with atoms t0 .. t(W-1), composites
    k_j ⊃ {t_j, t_(j+s) mod W} with s = 1 in L and s = 2 in R, and
    ``top`` ⊃ every k_j, for W = ``width``; the support ontology is empty."""
    def component(cid: str, shift: int) -> BusinessComponent:
        atoms = [Entity(name=f"t{j}") for j in range(width)]
        pairs = [Entity(name=f"k{j}", components=(f"t{j}", f"t{(j + shift) % width}"))
                 for j in range(width)]
        top = Entity(name="top", components=tuple(f"k{j}" for j in range(width)))
        return BusinessComponent(id=cid, name=cid, entities=[*atoms, *pairs, top])
    return [component("L", 1), component("R", 2)], Ontology("Od")


def _probe(shape, sizes: list[int], repeats: int = 3) -> None:
    """Print, for each size, the best of ``repeats`` ``integrate`` times on
    ``shape(size)``, the listed pairs and the time per listed pair."""
    from ontomerge import integrate

    print("| size | integrate (best of %d) | listed pairs | µs per listed pair |" % repeats)
    print("|---|---|---|---|")
    for size in sizes:
        best, listed = None, None
        for _ in range(repeats):
            components, od = shape(size)
            start = perf_counter()
            _, _, report = integrate(components, od)
            elapsed = perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            listed = len(report.correspondences)
        print(f"| {size} | {best:.3f} s | {listed:,} | {best / listed * 1e6:.0f} |")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["wide"]:
        _probe(wide_composites, [int(arg) for arg in args[1:]] or [100, 200, 400])
    else:
        _probe(k_components, [int(arg) for arg in args] or [2, 8, 32, 64])
