"""Comment/string-aware C++ tokenizer for the built-in frontend.

This is not a full C++ lexer; it is the minimum needed to build a
reliable structural model: identifiers, numbers, punctuation, and
preprocessor directives, with comments and the *contents* of string,
character, and raw-string literals removed.  Removing literal contents
is what keeps every rule from firing on doc text or string data (a
"float" in a comment, "std::chrono" in a message).

Each token records the 1-based source line so findings and inline
``lint-ok(...)`` suppressions can be resolved to exact locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

# Token kinds.
ID = "id"
NUM = "num"
STR = "str"  # string literal (text dropped, placeholder kept)
PUNCT = "punct"
PP = "pp"  # one whole preprocessor directive (first line only kept)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_DIGITS = set("0123456789")

# Multi-character operators that matter structurally.  Longest first.
_PUNCTS = [
    "->*", "<<=", ">>=", "...", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=",
]


class LexError(Exception):
    pass


def tokenize(text: str, path: str = "<memory>") -> List[Token]:
    """Tokenize C++ source, dropping comments and literal contents."""
    toks: List[Token] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    raise LexError(f"{path}:{line}: unterminated comment")
                line += text.count("\n", i, j + 2)
                i = j + 2
                continue
        # Preprocessor directive: swallow through continuation lines.
        if c == "#" and (not toks or toks[-1].line != line):
            start = i
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    k = n
                if text[k - 1] == "\\" if k > 0 else False:
                    j = k + 1
                    continue
                j = k
                break
            directive = text[start:j].split("\n", 1)[0].strip()
            toks.append(Token(PP, directive, line))
            line += text.count("\n", start, j)
            i = j
            continue
        # Raw string literal: R"delim( ... )delim".
        if c == "R" and text[i : i + 2] == 'R"':
            j = text.find("(", i + 2)
            if j < 0:
                raise LexError(f"{path}:{line}: malformed raw string")
            delim = text[i + 2 : j]
            close = ")" + delim + '"'
            k = text.find(close, j + 1)
            if k < 0:
                raise LexError(f"{path}:{line}: unterminated raw string")
            toks.append(Token(STR, "", line))
            line += text.count("\n", i, k + len(close))
            i = k + len(close)
            continue
        # String / char literal (with escape handling).  Keep string
        # contents only for lines the caller flags (annotation args are
        # re-read from source by the parser, not from here).
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":
                    raise LexError(
                        f"{path}:{line}: unterminated literal"
                    )
                j += 1
            if j >= n:
                raise LexError(f"{path}:{line}: unterminated literal")
            if quote == '"':
                toks.append(Token(STR, text[i + 1 : j], line))
            i = j + 1
            continue
        # Identifier / keyword.
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Token(ID, text[i:j], line))
            i = j
            continue
        # Number (coarse: consume digits, dots, exponents, suffixes).
        if c in _DIGITS or (
            c == "." and i + 1 < n and text[i + 1] in _DIGITS
        ):
            j = i + 1
            while j < n and (
                text[j] in _ID_CONT
                or text[j] == "."
                or (
                    text[j] in "+-"
                    and text[j - 1] in "eEpP"
                )
            ):
                j += 1
            toks.append(Token(NUM, text[i:j], line))
            i = j
            continue
        # Punctuation.
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append(Token(PUNCT, p, line))
                i += len(p)
                break
        else:
            toks.append(Token(PUNCT, c, line))
            i += 1
    return toks
