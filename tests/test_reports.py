import json
from importlib import resources

import pytest

from cardioclip.reports import (
    StructuredReport,
    load_catalog,
    make_prompt_pair,
    structure_report,
    structured_from_flags,
)


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


def golden_corpus():
    raw = resources.files("cardioclip.data").joinpath("golden_sentences.jsonl").read_text("utf-8")
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


class TestCatalog:
    def test_seven_findings_in_order(self, cat):
        assert cat.size == 7
        assert cat.names[0] == "coronary stenosis"
        assert cat.names[-1] == "pulmonary arterial hypertension"

    def test_synonym_resolution(self, cat):
        assert cat.index_of("Coronary Artery Calcium") == 1
        assert cat.index_of("enlarged heart") == 4
        with pytest.raises(KeyError):
            cat.index_of("aortic stenosis")


class TestStructureReport:
    def test_direct_mention(self, cat):
        s = structure_report("c1", "Severe coronary stenosis is observed.", cat)
        assert s.flags == (True, False, False, False, False, False, False)

    def test_negation_and_absence(self, cat):
        s = structure_report("c2", "No pericardial effusion. Heart size normal.", cat)
        assert s.flags == (False,) * 7

    def test_clause_scoped_negation(self, cat):
        s = structure_report("c3", "Calcified plaque in LAD; no aortic calcification.", cat)
        assert s.flags[1] is True
        assert s.flags[2] is False

    def test_empty_text_all_false(self, cat):
        s = structure_report("c4", "", cat)
        assert s.flags == (False,) * 7

    def test_golden_corpus_exact(self, cat):
        corpus = golden_corpus()
        assert len(corpus) == 50
        misses = []
        for i, entry in enumerate(corpus):
            s = structure_report(f"g{i}", entry["text"], cat)
            if list(s.flags) != entry["flags"]:
                misses.append((entry["text"], list(s.flags), entry["flags"]))
        assert not misses, f"{len(misses)} golden sentences mislabeled: {misses[:5]}"

    def test_idempotent_on_own_statements(self, cat):
        for flags in [(True,) * 7, (False,) * 7, (True, False, True, False, True, False, True)]:
            s = structured_from_flags("x", flags, cat)
            again = structure_report("x", s.text(), cat)
            assert again.flags == s.flags

    def test_template_round_trip(self, cat):
        flags = (False, True, True, False, False, True, False)
        s = structured_from_flags("y", flags, cat)
        # statement d is the all-present report's statement d iff flag d is set
        present = structured_from_flags("y", (True,) * cat.size, cat).statements
        assert tuple(a == b for a, b in zip(s.statements, present)) == flags


class TestPromptPair:
    def test_canonical_pair(self, cat):
        pos, neg = make_prompt_pair("coronary stenosis", cat)
        assert pos == "There is coronary stenosis"
        assert neg == "There is no coronary stenosis"

    def test_cac_surface_form_kept(self, cat):
        pos, neg = make_prompt_pair("Coronary Artery Calcium", cat)
        assert pos == "There is Coronary Artery Calcium"
        assert neg == "There is no Coronary Artery Calcium"

    def test_pair_differs_only_by_no(self, cat):
        pos, neg = make_prompt_pair("cardiomegaly", cat)
        assert neg.split() == [neg.split()[0], "is", "no"] + pos.split()[2:]

    def test_unknown_name(self, cat):
        with pytest.raises(KeyError):
            make_prompt_pair("aortic stenosis", cat)


class TestValidateStructured:
    """A report is valid iff it equals structured_from_flags of its own flags."""

    def test_structurer_output_is_valid(self, cat):
        s = structure_report("v1", "There is cardiomegaly.", cat)
        assert s == structured_from_flags("v1", s.flags, cat)

    def test_wrong_cardinality(self, cat):
        s = StructuredReport(case_id="v2", statements=("There is no coronary stenosis.",) * 6,
                             flags=(False,) * 6)
        assert s != structured_from_flags("v2", (False,) * cat.size, cat)
        with pytest.raises(ValueError, match="expected 7 flags"):
            structured_from_flags("v2", s.flags, cat)

    def test_statement_flag_disagreement(self, cat):
        good = structured_from_flags("v3", (True,) + (False,) * 6, cat)
        bad = StructuredReport(case_id="v3", statements=good.statements,
                               flags=(False,) * 7)
        assert bad != structured_from_flags("v3", bad.flags, cat)
        assert good == structured_from_flags("v3", good.flags, cat)
