"""Tokenizer shared by the program parser and the error-model parser.

Program mode is indentation-sensitive (4-space indents, LF newlines) and
emits NEWLINE/INDENT/DEDENT tokens.  Rule mode is line-oriented and adds
strings and the template-only operators (braces, ``?``, ``~``, ``->``, ``;``
and the prime mark).  Names and integer literals are ASCII
(``[A-Za-z_][A-Za-z0-9_]*`` and ``[0-9]+``); any other character outside a
string or a comment is a `SourceError`.
"""

from __future__ import annotations

import re

from .lang import Span

KEYWORDS = frozenset((
    "def",
    "return",
    "if",
    "else",
    "while",
    "for",
    "in",
    "pass",
    "and",
    "or",
    "not",
    "True",
    "False",
))

# An integer literal has at most this many digits.  640 is the lowest limit
# Python can be set to for converting decimal text to an int
# (`sys.set_int_max_str_digits`), so `int()` and `compile` take every literal.
MAX_INT_DIGITS = 640

# One token after any spaces.  Operators longest first: ``**``, an operator
# followed by ``=``, ``->``, then single characters.  BAD is any other
# character, an unterminated string's quote included.
_TOKEN = re.compile(
    r" *(?:(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<OP>\*\*|[=!<>+\-*/]=|->|[-+*/<>=()\[\]{},:.;?~'])"
    r'|(?P<STRING>"(?:[^"\\]|\\.)*")'
    r"|(?P<BAD>[^ ]))"
)
_ESCAPE = re.compile(r"\\(.)")
_RULE_ONLY = frozenset(("?", "~", "{", "}", "'", "->", ";"))


class SourceError(Exception):
    """Syntax error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "value", "span")

    def __init__(self, kind: str, value: str, span: Span):
        self.kind = kind  # NAME, INT, STRING, OP, KEYWORD, NEWLINE, INDENT, DEDENT, EOF
        self.value = value
        self.span = span


def tokenize(source: str, rule_mode: bool = False) -> list:
    """Tokenize `source`.  In program mode, indentation must be a multiple
    of four spaces."""
    tokens = []
    append = tokens.append
    new_span = tuple.__new__  # see `Span`
    indent_stack = [0]
    lines = source.split("\n")
    offset = 0

    for line_no, code in enumerate(lines, start=1):
        line_start = offset
        offset += len(code) + 1  # newline
        if "#" in code:
            code = code[: _comment_start(code)]
        if not code.strip():
            continue  # blank or comment-only line

        indent = len(code) - len(code.lstrip(" "))
        if not rule_mode:
            if indent % 4 != 0:
                raise SourceError(
                    "indentation must be a multiple of 4 spaces", line_no, 1
                )
            level = indent // 4
            while level > indent_stack[-1]:
                indent_stack.append(indent_stack[-1] + 1)
                append(Token("INDENT", "", Span(line_no, 1, line_start, line_start)))
            while level < indent_stack[-1]:
                indent_stack.pop()
                append(Token("DEDENT", "", Span(line_no, 1, line_start, line_start)))
            if level != indent_stack[-1]:
                raise SourceError("inconsistent indentation", line_no, 1)

        for match in _TOKEN.finditer(code, indent):
            kind = match.lastgroup
            pos, end = match.span(kind)
            value = code[pos:end]
            if kind == "NAME":
                if value in KEYWORDS:
                    kind = "KEYWORD"
            elif kind == "OP":
                if not rule_mode and value in _RULE_ONLY:
                    raise SourceError(f"unexpected character {value!r}", line_no, pos + 1)
            elif kind == "INT":
                if end - pos > MAX_INT_DIGITS:
                    raise SourceError(
                        f"integer literal longer than {MAX_INT_DIGITS} digits",
                        line_no,
                        pos + 1,
                    )
            elif kind == "STRING" and rule_mode:
                value = value[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(r"\1", value)
            elif value == '"' and rule_mode:
                raise SourceError("unterminated string", line_no, pos + 1)
            else:  # BAD, or a string in program mode
                raise SourceError(f"unexpected character {value[0]!r}", line_no, pos + 1)
            span = new_span(Span, (line_no, pos + 1, line_start + pos, line_start + end))
            append(Token(kind, value, span))

        end = line_start + len(code)
        append(Token("NEWLINE", "", new_span(Span, (line_no, len(code) + 1, end, end))))

    final = Span(len(lines) + 1, 1, len(source), len(source))
    if not rule_mode:
        while indent_stack[-1] > 0:
            indent_stack.pop()
            append(Token("DEDENT", "", final))
    append(Token("EOF", "", final))
    return tokens


def _comment_start(code: str):
    """Index of the ``#`` that starts a comment, or None.  Strings end as
    in the string rule: a backslash escapes the character after it."""
    in_string = escaped = False
    for i, ch in enumerate(code):
        if escaped:
            escaped = False
        elif ch == '"':
            in_string = not in_string
        elif ch == "\\":
            escaped = in_string
        elif ch == "#" and not in_string:
            return i
    return None
