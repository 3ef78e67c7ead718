"""The pinned outputs of ``ontomerge integrate``, and the inputs they pin.

``PINNED_DIGESTS`` holds the sha256 of each output of ``integrate`` on
each pinned input; any change to one is a change of output.  The inputs
are the worked example under ``fixtures/``, a generated scenario and the
three hand-built shapes of ``make_composite_inputs``,
``make_wide_tied_inputs`` and ``make_interleaved_inputs``.  Stdlib only,
so that any interpreter can check the pins without pytest: run as a
script, it writes every pinned input into a temporary directory,
integrates it through ``cli.main`` and compares the digests, exiting 1
on a mismatch:

    PYTHONPATH=src python tests/pins.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from ontomerge import (
    BusinessComponent,
    Concept,
    Entity,
    Ontology,
    Relation,
    model_io,
    normalize_term,
)
from ontomerge.cli import main
from ontomerge.evalgen import ScenarioSpec, generate_scenario


def make_interleaved_inputs() -> tuple[list[BusinessComponent], Ontology]:
    """Three components whose concept ids interleave across sources.

    "CM 2#x" < "CM!#x" < "CM#x", so report rows of the later sources
    come before those of the first one; "CM" adds a concept no other
    source names.
    """
    od = Ontology("Od", concepts=[
        Concept(id=f"Od#{term}", term=term) for term in ("service", "prestation", "client")
    ], relations=[Relation("Od#prestation", "Od#service", "synonymy")])
    entities = (
        Entity(name="Service", components=("Client", "Contrat")),
        Entity(name="Client"),
        Entity(name="Contrat"),
    )
    components = [
        BusinessComponent(id="CM", name="a", entities=(*entities, Entity(name="Agence"))),
        BusinessComponent(id="CM 2", name="b", entities=(
            Entity(name="Prestation", components=("Client", "Dossier")),
            Entity(name="Client"),
            Entity(name="Dossier"),
            Entity(name="Guichet"),
        )),
        BusinessComponent(id="CM!", name="c", entities=(
            Entity(name="Offre", components=("Client", "Contrat")),
            Entity(name="Client"),
            Entity(name="Contrat"),
        )),
    ]
    return components, od


# Child vocabulary of ``make_composite_inputs``.
VOCABULARY = (
    "Nom", "Adresse", "Date", "Montant", "Client", "Agence",
    "Compte", "Devise", "Statut", "Code", "Libellé", "Taux",
)


def make_composite_inputs() -> tuple[list[BusinessComponent], Ontology]:
    """Three components of wide composites over one child vocabulary.

    Each component declares every term of ``VOCABULARY`` and one composite
    per arity 2..12 over it: "Dossier<n>" in CA and "Fichier<n>" in CB
    hold the first n terms, "Bloc<n>" in CC starts one term later, so its
    pairings score fractions.  The support ontology knows the even-arity
    Dossier/Fichier names and relates none of them, so case 3 injects a
    synonymy for each of those pairs.  CC declares Nom and Libellé
    equivalent, so Bloc10, also known, pairs up with Dossier10 and
    Fichier10 through that equivalence.  "Contrat", "Accord" and "Pacte"
    nest a composite beside atomic children.
    """
    def component(cid, prefix, offset, nested, relations=()):
        words = VOCABULARY[offset:] + VOCABULARY[:offset]
        entities = [Entity(name=word) for word in VOCABULARY]
        entities += [
            Entity(name=f"{prefix}{arity}", components=words[:arity])
            for arity in range(2, 13)
        ]
        entities.append(Entity(name=nested, components=(f"{prefix}3", "Client", "Date")))
        return BusinessComponent(id=cid, name=cid.lower(), entities=tuple(entities),
                                 relations=relations)

    components = [
        component("CA", "Dossier", 0, "Contrat"),
        component("CB", "Fichier", 0, "Accord"),
        component("CC", "Bloc", 1, "Pacte", relations=(("Nom", "Libellé", "equivalence"),)),
    ]
    terms = ["Contrat", "Accord", "Client", "Bloc10"]
    terms += [f"{prefix}{arity}" for arity in range(2, 13, 2) for prefix in ("Dossier", "Fichier")]
    od = Ontology("Od", concepts=[Concept(id=f"Od#{term.lower()}", term=term) for term in terms])
    return components, od


# Right-hand child terms of ``make_wide_tied_inputs``, one per VOCABULARY term.
RIGHT_VOCABULARY = (
    "Titulaire", "Domicile", "Echéance", "Somme", "Usager", "Bureau",
    "Livret", "Monnaie", "Etat", "Référence", "Intitulé", "Pourcentage",
)

# Row i, column j: the i-th VOCABULARY and the j-th RIGHT_VOCABULARY term,
# each in sorted order, are related.  Blocks of 2, 3, 2 and 5 terms on the
# diagonal have 2, 2, 2 and 4 perfect pairings.
WIDE_TIES = (
    "110000000000",
    "110000000000",
    "001100000000",
    "000110000000",
    "001010000000",
    "000001100000",
    "000001100000",
    "000000001001",
    "000000011110",
    "000000010111",
    "000000000001",
    "000000011101",
)


def make_wide_tied_inputs() -> tuple[list[BusinessComponent], Ontology]:
    """Two 12-child composites whose children pair up in 32 ways.

    "Dossier" in CL holds the twelve ``VOCABULARY`` terms and "Registre"
    in CR the twelve ``RIGHT_VOCABULARY`` terms.  The support ontology
    relates them as ``WIDE_TIES`` says, alternating synonymy and
    equivalence, so each pairing cites different relations; in the
    block of 5, matching rows first to last, or by plain augmenting
    paths with columns in either order, picks another pairing than the
    tie rule.  The support ontology knows both parent terms and relates
    them by nothing, so case 3 injects their synonymy with the evidence
    of the one pairing its tie rule picks.
    """
    def component(cid, name, words):
        entities = [Entity(name=word) for word in words]
        entities.append(Entity(name=name, components=words))
        return BusinessComponent(id=cid, name=cid.lower(), entities=tuple(entities))

    words = [*VOCABULARY, *RIGHT_VOCABULARY, "Dossier", "Registre"]
    od = Ontology("Od", concepts=[Concept(id=f"Od#{word.lower()}", term=word) for word in words])
    left, right = (sorted(terms, key=normalize_term) for terms in (VOCABULARY, RIGHT_VOCABULARY))
    for i, row in enumerate(WIDE_TIES):
        for j, cell in enumerate(row):
            if cell == "1":
                od.add_relation(Relation(f"Od#{left[i].lower()}", f"Od#{right[j].lower()}",
                                         ("synonymy", "equivalence")[(i + j) % 2]))
    return [component("CL", "Dossier", VOCABULARY), component("CR", "Registre",
                                                               RIGHT_VOCABULARY)], od


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _pinned_inputs(name, tmp_path):
    """(component paths, ontology path) of one pinned input."""
    if name == "fixtures":
        return [FIXTURES / "cm1.json", FIXTURES / "cm2.json"], FIXTURES / "od.json"
    if name == "generated":  # cases 1, 2 and 3 all inject at this coverage
        components, od, _ = generate_scenario(ScenarioSpec(60, 10, 4, 0.5, rng_seed=3))
    elif name == "composite":
        components, od = make_composite_inputs()
    elif name == "wide_tied":  # case 3 at width 12 with 32 tied pairings
        components, od = make_wide_tied_inputs()
    else:
        components, od = make_interleaved_inputs()
    inputs = tmp_path / "in"
    inputs.mkdir()
    paths = []
    for index, component in enumerate(components):
        paths.append(inputs / f"cm{index}.json")
        paths[-1].write_bytes(model_io.serialize_component(component))
    (inputs / "od.json").write_bytes(model_io.serialize_ontology(od))
    return paths, inputs / "od.json"


# sha256 of ``integrate`` outputs per input; any change is a change of output
PINNED_DIGESTS = {
    "composite": {
        "cmr.json": "0b88c17475bd7f29049facd89494fc505f4ce0fcaac582bb16992394894cca82",
        "od2.json": "12fb2652af6f4f544f6588e68aac7e1ac1e47997c13aef78d567d6519f5f4c53",
        "report.json": "a4d35722627a0d4f3573072979fdc5ec531d517dbec279dce5af97b6309c47ff",
    },
    "fixtures": {
        "cmr.json": "daf03e7d2a3c9d7b673378a8a293f5fde4e2626acec09879d3f6d4e39fc9d1f1",
        "od2.json": "250de1daa76d8765d41884746242b506f55a70d062c34ffcc9ecb22be32abe93",
        "report.json": "1df63b427734f2b1a571afeb71008a0329aef594ce5b1d36966b855d34c01147",
    },
    "generated": {
        "cmr.json": "b3cc6a50ac0724aab270322a72e5d55dc51a7553f109bceb2b38ea2f4c968b40",
        "od2.json": "5a09e6693de4405eea3801e11536b7ea50c32d354f92509e9242d32ae2da9dbb",
        "report.json": "aefcd0f7ed370ec1a194f4371ea63195c4087f2508fa2de0df3e3d0784ac4917",
    },
    "interleaved": {
        "cmr.json": "a60a928a502ba8768873f4a4e7c0b8995e5f6e4b566a81bc365d474d9c8f4dbb",
        "od2.json": "cd30a3ef43a0b6ebff9ce114352096d1fb89c61d3dd274f0c7d40bf6a3e2bc72",
        "report.json": "5896fd685cfd25d95212496fd8e21fa38e5b81fc789e59a5cef200f994faf8cd",
    },
    "wide_tied": {
        "cmr.json": "fb12b5cb9c90610c0fcc1abee18ec3846300b803f9d010dc4532bf851ca07f87",
        "od2.json": "6af385ebd77eb5f8bdd2e265c80407f5b74839778d57e0dcdafa185b9f6a622f",
        "report.json": "84c3fb9a53400db95acd42f137438dd5aa4283223812113b7282a2b4b7f1b66d",
    },
}


def _pinned_args(components, od, out):
    """``integrate``'s arguments for one pinned input, writing into ``out``."""
    return [
        "integrate",
        *(arg for path in components for arg in ("--component", str(path))),
        "--ontology", str(od),
        "--out-component", str(out / "cmr.json"),
        "--out-ontology", str(out / "od2.json"),
        "--report", str(out / "report.json"),
    ]


def _digests(out, name):
    """sha256 of each of ``out``'s outputs that ``PINNED_DIGESTS[name]`` pins."""
    return {output: hashlib.sha256((out / output).read_bytes()).hexdigest()
            for output in PINNED_DIGESTS[name]}


def check_pins() -> list[str]:
    """One line per pinned output that ``integrate`` no longer gives, or per
    pinned input on which it fails; empty when every pin holds."""
    failures = []
    for name in sorted(PINNED_DIGESTS):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            components, od = _pinned_inputs(name, out)
            code = main(_pinned_args(components, od, out))
            if code != 0:
                failures.append(f"{name}: integrate exited {code}")
                continue
            got = _digests(out, name)
        failures += [f"{name} {output}: sha256 {got[output]}, pinned {pinned}"
                     for output, pinned in sorted(PINNED_DIGESTS[name].items())
                     if got[output] != pinned]
    return failures


if __name__ == "__main__":
    mismatches = check_pins()
    for line in mismatches:
        print(line)
    print(f"{len(mismatches)} mismatch(es) over {len(PINNED_DIGESTS)} pinned inputs"
          f" under Python {sys.version.split()[0]}")
    raise SystemExit(1 if mismatches else 0)
