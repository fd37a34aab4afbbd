import json

import pytest

from wogli import bundled_lexicon, lexicon_from_text

TOY_LEXICON = {
    "verbs_accusative": [
        {"lemma": "sehen", "form_3sg": "sieht", "form_3pl": "sehen"},
        {"lemma": "hören", "form_3sg": "hört", "form_3pl": "hören"},
    ],
    "verbs_dative": [
        {"lemma": "helfen", "form_3sg": "hilft", "form_3pl": "helfen"},
    ],
    "verbs_ditransitive": [
        {"lemma": "geben", "form_3sg": "gibt", "form_3pl": "geben", "category": "giving"},
    ],
    "masc_common": [
        {"lemma": "Arzt", "plural_nom": "Ärzte"},
        {"lemma": "Kunde", "plural_nom": "Kunden", "weak": True},
    ],
    "fem_common": [
        {"lemma": "Autorin", "plural_nom": "Autorinnen"},
        {"lemma": "Lehrerin", "plural_nom": "Lehrerinnen"},
    ],
    "masc_proper": ["Peter", "Paul"],
    "fem_proper": ["Anna", "Maria"],
    "thing_nouns": [
        {"lemma": "Kuchen", "gender": "masc", "number": "sg", "categories": ["giving"]},
    ],
}


# rows of `generate wogli --seed 3 --per-pattern 8` on the bundled lexicon,
# each edited to name NPs its pattern never draws, with the premise those
# NPs render: (row id, metadata edit, premise, the format error's message)
UNDRAWABLE_ROWS = [
    ("wogli-p09-d00002-h1", {"subject_number": "pl"}, "Die Köche beschützen den Soldaten.",
     "subject_number is 'pl', but its subject writes 'sg' (class sing_masc)"),
    ("wogli-p09-d00000-h1", {"object_lemma": "Anwalt"}, "Ein Anwalt verdächtigt diesen Anwalt.",
     "subject and object are both 'Anwalt', which no draw pairs"),
]


@pytest.fixture(scope="session")
def lex():
    return bundled_lexicon()


@pytest.fixture
def toy_lex():
    return lexicon_from_text(json.dumps(TOY_LEXICON), "toy")


@pytest.fixture(scope="module")
def toy_lex_module():
    return lexicon_from_text(json.dumps(TOY_LEXICON), "toy")


def make_toy(**overrides):
    """A copy of the toy lexicon with some inventories replaced."""
    data = {k: list(v) for k, v in TOY_LEXICON.items()}
    data.update(overrides)
    return lexicon_from_text(json.dumps(data), "toy-variant")
