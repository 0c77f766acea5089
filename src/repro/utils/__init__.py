"""Small shared utilities: tokenization, SQL quoting, and deterministic RNG."""

from .tokenize import Token, tokenize, normalize_word, is_stopword, STOPWORDS
from .rng import make_rng
from .sql import quote_identifier, quote_qualified

__all__ = [
    "quote_identifier",
    "quote_qualified",
    "Token",
    "tokenize",
    "normalize_word",
    "is_stopword",
    "STOPWORDS",
    "make_rng",
]
