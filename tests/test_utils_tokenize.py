"""Unit tests for the annotation tokenizer."""

from repro.utils.tokenize import STOPWORDS, is_stopword, normalize_word, tokenize


class TestTokenize:
    def test_positions_are_sequential(self):
        tokens = tokenize("the gene JW0014 is strong")
        assert [t.position for t in tokens] == [0, 1, 2, 3, 4]

    def test_identifier_survives_intact(self):
        tokens = tokenize("see JW0014, and G-Actin.")
        words = [t.word for t in tokens]
        assert "jw0014" in words
        assert "g-actin" in words

    def test_punctuation_does_not_consume_positions(self):
        tokens = tokenize("alpha, beta; gamma!")
        assert [t.surface for t in tokens] == ["alpha", "beta", "gamma"]
        assert [t.position for t in tokens] == [0, 1, 2]

    def test_offsets_point_into_original_text(self):
        text = "gene JW0014 rocks"
        for token in tokenize(text):
            assert text[token.offset : token.offset + len(token.surface)] == token.surface

    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("  \n\t ") == []

    def test_cleaned_preserves_case(self):
        token = tokenize("grpC.")[0]
        assert token.cleaned == "grpC"
        assert token.word == "grpc"

    def test_sentence_final_dot_stripped_by_cleaned(self):
        tokens = tokenize("We saw yaaB.")
        assert tokens[-1].cleaned == "yaaB"

    def test_hyphenated_token_kept(self):
        (token,) = tokenize("G-Actin")
        assert token.cleaned == "G-Actin"

    def test_numbers_tokenize(self):
        tokens = tokenize("length 1130 bp")
        assert tokens[1].word == "1130"


class TestNormalizeWord:
    def test_casefold(self):
        assert normalize_word("GrpC") == "grpc"

    def test_strips_trailing_dot(self):
        assert normalize_word("Gene.") == "gene"

    def test_keeps_internal_hyphen(self):
        assert normalize_word("G-Actin") == "g-actin"

    def test_strips_leading_hyphen(self):
        assert normalize_word("-gene") == "gene"


class TestStopwords:
    def test_common_words_are_stopwords(self):
        for word in ("the", "and", "of", "is"):
            assert is_stopword(word)

    def test_domain_words_are_not(self):
        for word in ("gene", "protein", "jw0014"):
            assert not is_stopword(word)

    def test_stopword_set_is_lowercase(self):
        assert all(w == w.casefold() for w in STOPWORDS)
