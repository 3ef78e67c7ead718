"""Work bounds on the input shapes of ``adversarial``, as counts, with no
timing, and the per-run indexes those bounds rely on against a scan of
every source."""

from __future__ import annotations

from collections import Counter

import pytest

from ontomerge import BusinessComponent, Ontology, align
from ontomerge import enrichment, similarity
from ontomerge.enrichment import RunMaps
from ontomerge.model import SEMANTIC_KINDS

from .adversarial import k_components, wide_composites
from .reference import naive_first_relation, reference_syntactic


def _source_reads(monkeypatch, sources):
    """Count the ``related_terms`` calls on ``sources``."""
    calls = [0]
    related_terms = Ontology.related_terms
    ids = {id(source) for source in sources}

    def counted(self, normalized):
        calls[0] += id(self) in ids
        return related_terms(self, normalized)

    monkeypatch.setattr(Ontology, "related_terms", counted)
    return calls


@pytest.mark.parametrize("k", [8, 32])
def test_k_component_source_reads_stay_within_concepts_and_listed_pairs(monkeypatch, k):
    # ROADMAP item 22: reading every source on every (concept, later
    # source) row made 56,558 reads at k = 8 and 845,534 at k = 32.  A row
    # now reads only the sources that relate its term: 1,112 and 3,472
    # reads.  Those still grow with k, as the rows number O(concepts * k),
    # but only where a component relates the row's term, which is rare here
    components, od = k_components(k)
    reads = _source_reads(monkeypatch, components)
    correspondences, _, records = align(components, od)
    concepts = sum(len(component.concepts) for component in components)
    assert records and 0 < reads[0] <= 2 * (concepts + len(correspondences))


class _EverySource(dict):
    """A relating-sources index that names every source for every term."""

    def __init__(self, sources):
        super().__init__()
        self.sources = tuple(sources)

    def get(self, term, default=None):
        return self.sources


def _scanning(sources, od, monkeypatch):
    """``RunMaps`` that read every source, as before the relating index."""
    with monkeypatch.context() as patch:
        patch.setattr(enrichment, "_relating_sources", _EverySource)
        return RunMaps(od, sources)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relating_index_equals_a_scan_of_every_source(monkeypatch, seed):
    components, od = k_components(6, concepts=120, vocabulary=50, synonymies=10,
                                  declared=40, seed=seed)
    sources = sorted(components, key=lambda c: c.id)
    indexed, scanned = RunMaps(od, sources), _scanning(sources, od, monkeypatch)
    terms = sorted({c.key for source in sources for c in source.concepts.values()})
    for term in terms:
        assert indexed.cells[term] == scanned.cells[term], term
        assert indexed.bridges[term] == scanned.bridges[term], term
    for source in sources:
        for concept in source.concepts.values():
            assert indexed.reach(concept) == scanned.reach(concept), concept.id

    # case 1, through whole runs: the same records, each the first source
    # relation that a scan of every relation finds
    fast = align(components, od)
    with monkeypatch.context() as patch:
        patch.setattr(enrichment, "_relating_sources", _EverySource)
        assert align(components, od) == fast
    case1 = [r for r in fast[2] if r.case == "inferred_case1"]
    assert case1
    for record in case1:
        c1, c2 = (next(s.concepts[cid] for s in sources if cid in s.concepts)
                  for cid in record.pair)
        assert record.evidence == (naive_first_relation(sources, c1.key, c2.key,
                                                        SEMANTIC_KINDS),)


def test_k_component_align_indexes_each_later_source_once(monkeypatch):
    # A row reads a later source's concepts of a key from the run's key
    # index, built at the first read of that source and kept: no row asks
    # the source itself, and the first source, never a later one, is not indexed
    components, od = k_components(8)
    asked = [0]
    maps: dict[str, list] = {}  # source id -> every key map handed out for it
    concepts_by_term, concepts_by_key = (BusinessComponent.concepts_by_term,
                                         similarity.ChildrenIndex.concepts_by_key)

    def counted_term(self, normalized):
        asked[0] += 1
        return concepts_by_term(self, normalized)

    def counted_key(self, source):
        maps.setdefault(source.id, []).append(concepts_by_key(self, source))
        return maps[source.id][-1]

    monkeypatch.setattr(BusinessComponent, "concepts_by_term", counted_term)
    monkeypatch.setattr(similarity.ChildrenIndex, "concepts_by_key", counted_key)
    correspondences, _, _ = align(components, od)
    assert correspondences and asked[0] == 0
    ordered = sorted(component.id for component in components)
    assert sorted(maps) == ordered[1:]
    for handed in maps.values():
        assert all(index is handed[0] for index in handed)  # built once


@pytest.mark.parametrize("width", [50, 200])
def test_wide_composite_rows_are_built_once_and_top_scores_as_the_full_matrix(monkeypatch,
                                                                             width):
    # ROADMAP item 16: each composite's row in the other source is built
    # once, however many parents read it, and the tops, scored over their
    # nonzero child cells only, score what the full W x W matrix gives
    built = Counter()
    partner_row = similarity._partner_row

    def counted(c1, later, kids, rows):
        built[c1.id, later.id] += 1
        return partner_row(c1, later, kids, rows)

    monkeypatch.setattr(similarity, "_partner_row", counted)
    components, od = wide_composites(width)
    correspondences, _, _ = align(components, od)
    assert len(built) == width + 1 and set(built.values()) == {1}
    left, right = components
    top = next(c for c in correspondences if c.pair == ("L#top", "R#top"))
    assert top.score == reference_syntactic(left.concepts["L#top"], right.concepts["R#top"],
                                            left, right)
