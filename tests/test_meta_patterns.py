"""Unit + property tests for value patterns and pattern inference."""

import string

from hypothesis import given, strategies as st

from repro.meta.patterns import ValuePattern, infer_pattern


class TestValuePattern:
    def test_full_match_required(self):
        pattern = ValuePattern(r"JW[0-9]{4}")
        assert pattern.matches("JW0014")
        assert not pattern.matches("JW0014X")
        assert not pattern.matches("XJW0014")

    def test_case_sensitivity_default(self):
        pattern = ValuePattern(r"[a-z]{3}[A-Z]")
        assert pattern.matches("grpC")
        assert not pattern.matches("GRPC")
        assert not pattern.matches("grpc")

    def test_case_insensitive_variant(self):
        pattern = ValuePattern(r"[a-z]{3}[A-Z]", case_sensitive=False)
        assert pattern.matches("GRPC")

    def test_empty_string_never_matches(self):
        assert not ValuePattern(r"[a-z]+").matches("")

    @given(
        st.sampled_from([r"JW[0-9]{4}", r"[a-z]{3}[A-Z]", r"F-[0-9]"]),
        st.booleans(),
        st.text(alphabet="JWjwFf-0123abcXYZ", max_size=7),
    )
    def test_casefold_match_equals_case_insensitive_pattern(
        self, source, case_sensitive, value
    ):
        pattern = ValuePattern(source, case_sensitive=case_sensitive)
        insensitive = ValuePattern(source, case_sensitive=False)
        assert pattern.matches_casefold(value) == insensitive.matches(value)


class TestInferPattern:
    def test_paper_gene_ids(self):
        pattern = infer_pattern(["JW0013", "JW0014", "JW0027"])
        assert pattern is not None
        assert pattern.matches("JW0099")
        assert not pattern.matches("JW999")

    def test_paper_gene_names(self):
        pattern = infer_pattern(["grpC", "yaaB", "insL", "nhaA"])
        assert pattern is not None
        assert pattern.source == "[a-z]{3}[A-Z]"
        assert pattern.matches("abcZ")
        assert not pattern.matches("abcz")

    def test_literal_characters_survive(self):
        pattern = infer_pattern(["F-1", "G-2", "H-3"])
        assert pattern is not None
        assert pattern.matches("Z-9")
        assert not pattern.matches("Z9")

    def test_heterogeneous_sample_fails(self):
        assert infer_pattern(["G-Actin", "Ligase42", "pepsin3"]) is None

    def test_mixed_lengths_fail(self):
        assert infer_pattern(["ab", "abc", "abcd"]) is None

    def test_insufficient_support(self):
        assert infer_pattern(["JW0013", "JW0014"], min_support=3) is None

    def test_empty_values_ignored(self):
        assert infer_pattern(["", "", ""]) is None

    def test_duplicates_do_not_inflate_support(self):
        assert infer_pattern(["JW0013"] * 10, min_support=3) is None


@given(
    st.lists(
        st.from_regex(r"[A-Z]{2}[0-9]{3}", fullmatch=True),
        min_size=3,
        max_size=25,
    )
)
def test_inferred_pattern_accepts_every_training_value(values):
    """Property: whatever pattern inference produces must accept all of its
    own (homogeneous) training values."""
    pattern = infer_pattern(values)
    if pattern is None:
        # Can legitimately happen when < 3 *distinct* values were supplied.
        assert len(set(values)) < 3
    else:
        for value in values:
            assert pattern.matches(value)


@given(
    st.lists(st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=12),
             min_size=0, max_size=20)
)
def test_infer_pattern_never_crashes(values):
    """Property: inference is total over alphanumeric samples."""
    pattern = infer_pattern(values)
    if pattern is not None:
        for value in set(values):
            assert pattern.matches(value)
