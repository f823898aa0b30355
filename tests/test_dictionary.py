import unicodedata

import pytest

from diacorpus.dictionary import (
    DictionaryEntry,
    crossover_period,
    load_dictionary,
    load_sample_dictionary,
    replacement_series,
)
from diacorpus.errors import DictionaryError, ParameterError

from conftest import PERIOD_1930, PERIOD_1980


class TestLoadDictionary:
    def test_single_entry(self):
        entries = load_dictionary('[{"modern": "yıl", "old": ["sene"]}]')
        assert entries == [DictionaryEntry(modern="yıl", old_forms=("sene",))]

    def test_duplicate_pair_rejected_with_positions(self):
        text = (
            '[{"modern": "yıl", "old": ["sene"]},'
            ' {"modern": "yıl", "old": ["sene"]}]'
        )
        with pytest.raises(DictionaryError, match="0 and 1"):
            load_dictionary(text)

    def test_forms_are_read_as_nfc(self):
        nfd = unicodedata.normalize("NFD", "hükûmet")
        entries = load_dictionary(f'[{{"modern": "{nfd}", "old": ["{nfd}"]}}]')
        assert entries == [DictionaryEntry(modern="hükûmet", old_forms=("hükûmet",))]
        both = f'[{{"modern": "x", "old": ["{nfd}"]}}, {{"modern": "x", "old": ["hükûmet"]}}]'
        with pytest.raises(DictionaryError, match="0 and 1"):
            load_dictionary(both)

    def test_malformed_json_reports_location(self):
        with pytest.raises(DictionaryError, match="line"):
            load_dictionary('[{"modern": "yıl", }]')

    def test_empty_fields_rejected(self):
        with pytest.raises(DictionaryError):
            load_dictionary('[{"modern": "", "old": ["sene"]}]')
        with pytest.raises(DictionaryError):
            load_dictionary('[{"modern": "yıl", "old": []}]')

    def test_bundled_sample_has_twelve_headwords(self):
        entries = load_sample_dictionary()
        assert len(entries) == 12
        by_modern = {e.modern: e.old_forms for e in entries}
        assert by_modern["yıl"] == ("sene",)
        assert by_modern["gerek"] == ("mucip", "lazım")
        assert by_modern["kurul"] == ("heyet", "encümen")
        assert by_modern["belge"] == ("vesika",)

    def test_path_is_read_and_str_is_json_text(self, tmp_path):
        text = '[{"modern": "yıl", "old": ["sene"]}]'
        path = tmp_path / "pairs.json"
        path.write_text(text, encoding="utf-8")
        assert load_dictionary(path) == load_dictionary(text)
        # a str is never taken for a file name, even one ending in .json
        with pytest.raises(DictionaryError, match="not valid JSON"):
            load_dictionary(str(path))

    def test_senses_are_opaque_strings(self):
        entries = load_dictionary('[{"modern": "yıl", "old": ["sene"], "senses": ["1. zaman"]}]')
        assert entries[0].senses == ("1. zaman",)


class TestReplacementSeries:
    def test_both_absent(self, fixture_tree):
        modern, old = replacement_series(fixture_tree, "hiçbiri", "öbürü")
        assert modern.values() == [0.0, 0.0]
        assert old.values() == [0.0, 0.0]

    def test_fixture_pattern(self, fixture_tree):
        modern, old = replacement_series(fixture_tree, "gerek", "mucip")
        assert old.values()[0] > modern.values()[0]
        assert modern.values()[1] > old.values()[1]

    def test_values_bounded_by_one(self, fixture_tree):
        for word in ("gerek", "mucip", "yıl", "sene", "belge"):
            modern, old = replacement_series(fixture_tree, word, word)
            assert all(0.0 <= v <= 1.0 for v in modern.values())

    def test_matches_lexicon_frequency_path(self, fixture_tree):
        from diacorpus.lexicon import frequency

        modern, _ = replacement_series(fixture_tree, "belge", "vesika")
        assert modern.values() == frequency(fixture_tree, "belge", normalize=True).values()


class TestCrossoverPeriod:
    def test_modern_never_used(self, fixture_tree):
        assert crossover_period(fixture_tree, "hiçyok", "sene") is None

    def test_modern_leads_from_first_period(self, fixture_tree):
        # gerek already outweighs (absent) lazım in the 1930s
        assert crossover_period(fixture_tree, "gerek", "lazım") == PERIOD_1930

    def test_fixture_late_crossovers(self, fixture_tree):
        assert crossover_period(fixture_tree, "gerek", "mucip") == PERIOD_1980
        assert crossover_period(fixture_tree, "yıl", "sene") == PERIOD_1980
        assert crossover_period(fixture_tree, "belge", "vesika") == PERIOD_1980

    def test_first_touch_mode(self, fixture_tree):
        assert crossover_period(fixture_tree, "yıl", "sene", mode="first-touch") == PERIOD_1980

    def test_unknown_mode(self, fixture_tree):
        with pytest.raises(ParameterError):
            crossover_period(fixture_tree, "yıl", "sene", mode="loose")

    def test_result_satisfies_own_postcondition(self, fixture_tree):
        for modern, old in (("gerek", "mucip"), ("yıl", "sene"), ("numara", "sayı")):
            period = crossover_period(fixture_tree, modern, old)
            modern_series, old_series = replacement_series(fixture_tree, modern, old)
            assert period is not None
            started = False
            for (p, m_val), (_, o_val) in zip(modern_series, old_series):
                if p == period:
                    assert m_val > o_val
                    started = True
                elif started:
                    assert m_val >= o_val
