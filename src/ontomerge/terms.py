"""Term normalization: the equality used whenever two terms are compared."""

from __future__ import annotations

import sys
import unicodedata

from .errors import EmptyTerm


def normalize_term(raw: str) -> str:
    """Return the canonical form of a term.

    NFC-normalizes, case-folds, trims, and collapses internal whitespace
    runs to single spaces.  Accents are preserved ("Préstation" stays
    distinct from "Prestation").  Idempotent: applying it twice gives the
    same string.  The result is interned, so the keys that concepts and
    entities keep share one string per distinct term.

    Raises EmptyTerm when the input is empty or whitespace-only.
    """
    folded = unicodedata.normalize("NFC", raw).casefold()
    folded = unicodedata.normalize("NFC", folded)
    value = " ".join(folded.split())
    if not value:
        raise EmptyTerm(f"term is empty after normalization: {raw!r}")
    return sys.intern(value)


def name_sort_key(raw: str) -> tuple[str, str]:
    """Sort key that orders strings by normalized form, then raw form."""
    return (normalize_term(raw), raw)
