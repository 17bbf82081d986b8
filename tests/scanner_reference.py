"""The character-loop scanner, the oracle for ``ramify.literals._Tokens``.

``_Tokens`` scans with one regular expression.  This module keeps the
earlier loop, which decides every character by its ``str`` methods, so a
test can check that both return the same tokens or raise the same error on
any text.
"""

from __future__ import annotations

from typing import List

from ramify.literals import InputError

SYMBOLS = "()[],:+*^"


def scan(text: str) -> List[str]:
    items: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in SYMBOLS:
            items.append(ch)
            i += 1
            continue
        if ch == "-" or ch.isdigit():
            j = i + 1
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            items.append(text[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            items.append(text[i:j])
            i = j
            continue
        raise InputError(f"unexpected character {ch!r} in {text!r}")
    return items
